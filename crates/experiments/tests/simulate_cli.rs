//! `simulate --ftl` accepts exactly the registry's command-line names,
//! `--help` lists them, `--gc` accepts exactly the two spellings of the one
//! victim pick and without it the device runs its derived pick, the two
//! fraction flags only values in range, and with
//! `--buffer` write amplification counts every page the host wrote.

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
    // Garbage, and the names of FTLs the simulator no longer has.
    let removed = ["fast", "blocklevel", "zftl"];
    for name in ["nvme", "tpftl:xyz", "DFTL ", ""]
        .into_iter()
        .chain(removed)
    {
        let out = simulate(&["--ftl", name, "--prefill", "0"]);
        assert_eq!(out.status.code(), Some(1), "--ftl {name:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown FTL {name}")) && !stderr.contains("panicked"));
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

/// Without `--gc` the device runs the pick its geometry derives, and the
/// report says which: the 512 MB Financial1 device's passes span many
/// blocks (the 64-wide window), a 64 MB trace device's one (greedy).
#[test]
fn without_gc_the_device_runs_its_derived_pick() {
    let policy = |stdout: &str| {
        let line = stdout.lines().find_map(|l| l.strip_prefix("gc policy:"));
        line.unwrap_or_else(|| panic!("no gc policy line in {stdout}"))
            .trim()
            .to_string()
    };
    let run = |args: &[&str]| {
        let out = simulate(args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let financial = run(&[]);
    assert!(
        financial.contains("device:              512 MB"),
        "{financial}"
    );
    assert_eq!(policy(&financial), "windowed:64");
    assert_eq!(policy(&run(&["--gc", "greedy"])), "greedy");

    // One 4 KB write ending at 64 MB sizes a 64 MB device.
    let path = std::env::temp_dir().join(format!("tpftl_gc_default_{}.spc", std::process::id()));
    std::fs::write(
        &path,
        format!("0,{},4096,W,0.0\n", ((64 << 20) - 4096) / 512),
    )
    .unwrap();
    let small = run(&["--trace", path.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&path).unwrap();
    assert!(small.contains("device:              64 MB"), "{small}");
    assert_eq!(policy(&small), "greedy");
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

/// The numbers after `label` on `stdout`'s line that starts with it.
fn numbers_after(stdout: &str, label: &str) -> Vec<f64> {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(label))
        .unwrap_or_else(|| panic!("no {label:?} line in {stdout}"));
    line.split(|c: char| !c.is_ascii_digit() && c != '.')
        .filter_map(|w| w.parse().ok())
        .collect()
}

/// With a write buffer the host's page writes are the buffer's absorbed
/// plus inserted pages, not the evictions the FTL sees: every inserted
/// page reaches flash once (evicted or flushed), so write amplification is
/// at least inserted ÷ host writes, and absorbed rewrites keep it below
/// the unbuffered figure.
#[test]
fn buffered_write_amplification_is_over_host_page_writes() {
    let run = |buffer: &str| {
        let out = simulate(&["--requests", "20000", "--buffer", buffer]);
        assert!(out.status.success(), "--buffer {buffer}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let unbuffered = numbers_after(&run("0"), "write amplification:")[0];
    for buffer in ["256", "4096"] {
        let stdout = run(buffer);
        let wa = numbers_after(&stdout, "write amplification:")[0];
        let counts = numbers_after(&stdout, "write buffer:");
        let (absorbed, inserted) = (counts[0], counts[1]);
        let floor = inserted / (absorbed + inserted);
        assert!(
            wa >= floor - 5e-4,
            "--buffer {buffer}: {wa} < {floor}\n{stdout}"
        );
        assert!(
            wa < unbuffered,
            "--buffer {buffer}: {wa} >= {unbuffered}\n{stdout}"
        );
    }
}
