//! `simulate --ftl` accepts exactly the registry's command-line names.

use std::process::Command;

use tpftl_core::ftl::FtlKind;

fn simulate(ftl: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--ftl", ftl, "--requests", "200", "--prefill", "0"])
        .output()
        .expect("spawn simulate")
}

#[test]
fn documented_ftl_names_run_and_others_are_rejected_without_a_panic() {
    let names = "dftl tpftl tpftl:rs tpftl:- sftl cdftl zftl fast blocklevel optimal learned";
    for name in names.split(' ') {
        let out = simulate(name);
        assert!(out.status.success(), "--ftl {name} failed: {out:?}");
        let label = FtlKind::parse(name).expect("registry name").label();
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        assert!(stdout.starts_with(&format!("ftl:                 {label}\n")));
    }
    for name in ["nvme", "tpftl:xyz", "DFTL ", ""] {
        let out = simulate(name);
        assert_eq!(out.status.code(), Some(1), "--ftl {name:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown FTL"));
    }
}
