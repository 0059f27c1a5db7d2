//! `simulate --ftl` accepts exactly the registry's command-line names, and
//! `--gc` exactly the two spellings of the one victim pick.

use std::process::Command;

use tpftl_core::ftl::FtlKind;

fn simulate(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--requests", "200"])
        .args(args)
        .output()
        .expect("spawn simulate")
}

#[test]
fn documented_ftl_names_run_and_others_are_rejected_without_a_panic() {
    let names = "dftl tpftl tpftl:rs tpftl:- sftl cdftl zftl fast blocklevel optimal learned";
    for name in names.split(' ') {
        let out = simulate(&["--ftl", name, "--prefill", "0"]);
        assert!(out.status.success(), "--ftl {name} failed: {out:?}");
        let label = FtlKind::parse(name).expect("registry name").label();
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        assert!(stdout.starts_with(&format!("ftl:                 {label}\n")));
    }
    for name in ["nvme", "tpftl:xyz", "DFTL ", ""] {
        let out = simulate(&["--ftl", name, "--prefill", "0"]);
        assert_eq!(out.status.code(), Some(1), "--ftl {name:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown FTL"));
    }
}

#[test]
fn gc_policy_spellings_run_and_removed_policies_name_their_replacement() {
    for gc in ["greedy", "windowed:1", "windowed:64"] {
        let out = simulate(&["--gc", gc]);
        assert!(out.status.success(), "--gc {gc} failed: {out:?}");
    }
    let removed = [
        ("cost-benefit", "--gc windowed:64"),
        ("wear-aware:16", "--streams N --gc windowed:K"),
    ];
    for (gc, replacement) in removed {
        let out = simulate(&["--gc", gc]);
        assert_eq!(out.status.code(), Some(1), "--gc {gc}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("was removed") && stderr.contains(replacement));
    }
}
