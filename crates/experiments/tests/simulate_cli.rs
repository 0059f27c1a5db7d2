//! `simulate --ftl` accepts exactly the registry's command-line names,
//! `--help` lists them, `--gc` accepts exactly the two spellings of the one
//! victim pick, and the two fraction flags only values in range.

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
    let names = FtlKind::cli_names().chain(["tpftl:rs", "tpftl:-"]);
    for name in names {
        let out = simulate(&["--ftl", name, "--prefill", "0"]);
        assert!(out.status.success(), "--ftl {name} failed: {out:?}");
        let label = FtlKind::parse(name).expect("registry name").label();
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        assert!(stdout.starts_with(&format!("ftl:                 {label}\n")));
    }
    for name in ["nvme", "tpftl:xyz", "DFTL ", "", "fast", "blocklevel"] {
        let out = simulate(&["--ftl", name, "--prefill", "0"]);
        assert_eq!(out.status.code(), Some(1), "--ftl {name:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown FTL") && !stderr.contains("panicked"));
    }
}

#[test]
fn help_exits_zero_and_lists_exactly_the_registry_names() {
    for flag in ["--help", "-h"] {
        let out = simulate(&[flag]);
        assert!(out.status.success(), "{flag}: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        // The `--ftl` entry: its names run up to the "(default" note.
        let entry = stdout.split("--ftl NAME").nth(1).expect("an --ftl entry");
        let entry = entry.split("(default").next().expect("a default note");
        let listed: Vec<&str> = entry
            .split('|')
            .map(str::trim)
            .filter(|&n| n != "tpftl:FLAGS")
            .collect();
        assert_eq!(listed, FtlKind::cli_names().collect::<Vec<_>>(), "{stdout}");
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

#[test]
fn out_of_range_fractions_are_rejected_at_parse_time() {
    for (flag, values) in [
        ("--cache-frac", "2 -1 0 nan"),
        ("--prefill", "1.5 -0.1 nan"),
    ] {
        for v in values.split(' ') {
            let out = simulate(&[flag, v]);
            assert_eq!(out.status.code(), Some(1), "{flag} {v}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(&format!("{flag} must be in")), "{stderr}");
        }
    }
    for args in [
        ["--cache-frac", "1"],
        ["--prefill", "0"],
        ["--prefill", "1"],
    ] {
        assert!(simulate(&args).status.success(), "{args:?}");
    }
}
