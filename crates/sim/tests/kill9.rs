//! Integration test for the `crash-replay` binary, both modes.
//!
//! Drives the real binary (the same one CI sweeps with). Under kill-9
//! children are genuine subprocesses replaying against a device file and
//! dying of `SIGKILL` mid-op; the parent process remounts each image cold
//! and judges durability. In-process the same fixture is crashed by an
//! injected fault plan, on a RAM device and on a file-backed one. A small
//! point count keeps `cargo test` fast — the wide sweeps run in CI via
//! `--quick` and locally via `--exhaustive`.

use std::os::unix::process::ExitStatusExt;
use std::path::PathBuf;
use std::process::Command;

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_crash-replay")
}

fn temp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tpftl_kill9_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

/// A small randomized sweep: every child must die of `SIGKILL`, every
/// image must remount, and the oracle must find zero durability
/// violations — reported both by the exit code and the JSON artifact.
#[test]
fn kill9_sweep_is_durable() {
    let dir = temp_dir("sweep");
    let out = dir.join("CRASH_matrix_file.json");
    let status = Command::new(exe())
        .args(["--points", "12", "--requests", "150", "--seed", "7"])
        .args(["--dir", &dir.display().to_string()])
        .args(["--out", &out.display().to_string()])
        .status()
        .expect("run sweep");
    assert!(status.success(), "sweep reported violations: {status:?}");

    let json = std::fs::read_to_string(&out).expect("read artifact");
    assert!(json.contains("\"schema\": \"crash-v2\""));
    assert!(json.contains("\"mode\": \"kill9\""));
    assert!(json.contains("\"kill_points\": 12"));
    // Kill points are drawn below each FTL's op horizon, so every child
    // dies mid-run; a child that exits cleanly would mean the sweep
    // tested nothing.
    assert!(
        json.contains("\"children_sigkilled\": 12"),
        "expected all 12 children SIGKILLed:\n{json}"
    );
    assert!(
        !json.contains("unmapped after recovery"),
        "violations in:\n{json}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One child driven by hand: it must die of signal 9 exactly (not a
/// panic, not an abort), leave a mountable image behind, and log its
/// acknowledged writes to the sidecar file.
#[test]
fn child_dies_of_sigkill_and_leaves_a_mountable_image() {
    let dir = temp_dir("child");
    let img = dir.join("dev.img");
    let acks = dir.join("dev.acks");
    let status = Command::new(exe())
        .arg("child")
        .args(["--img", &img.display().to_string()])
        .args(["--acks", &acks.display().to_string()])
        .args(["--ftl", "tpftl", "--kill-at", "40", "--tear", "1000"])
        .args(["--requests", "150", "--seed", "7"])
        .status()
        .expect("run child");
    assert_eq!(status.signal(), Some(9), "child must die of SIGKILL");
    assert_eq!(status.code(), None, "SIGKILL leaves no exit code");

    let acked = std::fs::read(&acks).expect("acks file exists");
    assert!(!acked.is_empty(), "prefill acks must be logged");
    let flash = tpftl_flash::Flash::open_file(&img).expect("image mounts after kill -9");
    assert!(flash.scan_valid().next().is_some(), "device retains pages");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A kill point beyond the run: the child completes the trace, flushes,
/// and exits 0 — and the image then satisfies the oracle for *every*
/// write in the trace.
#[test]
fn child_with_unreachable_kill_point_exits_clean() {
    let dir = temp_dir("clean");
    let img = dir.join("dev.img");
    let acks = dir.join("dev.acks");
    let status = Command::new(exe())
        .arg("child")
        .args(["--img", &img.display().to_string()])
        .args(["--acks", &acks.display().to_string()])
        .args(["--ftl", "dftl"])
        .args(["--kill-at", &u64::MAX.to_string(), "--tear", "0"])
        .args(["--requests", "80", "--seed", "3"])
        .status()
        .expect("run child");
    assert!(status.success(), "child must exit 0: {status:?}");
    assert!(tpftl_flash::Flash::open_file(&img).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The in-process mode on a RAM device and on a file-backed one, same
/// seed: exit 0 and identical per-FTL rows (horizon, points, torn,
/// duplicates, recovered, stale, zero violations) — the CLI-level twin of
/// `file_differential.rs`'s outcome comparison — and every row's point
/// list reaches from op 0 to the last op of its horizon.
#[test]
fn in_process_rows_match_between_ram_and_file_backing() {
    let dir = temp_dir("inproc");
    let run = |name: &str, backing: bool| {
        let out = dir.join(name);
        let mut cmd = Command::new(exe());
        cmd.args(["--in-process", "--points", "6", "--requests", "150"])
            .args(["--seed", "7", "--threads", "2"])
            .args(["--out", &out.display().to_string()]);
        if backing {
            cmd.args(["--backing", &dir.join("images").display().to_string()]);
        }
        let run = cmd.output().expect("run sweep");
        assert!(run.status.success(), "{name}: {run:?}");
        let json = std::fs::read_to_string(&out).expect("read artifact");
        (String::from_utf8(run.stdout).expect("utf-8"), json)
    };
    let (ram_rows, ram_json) = run("ram.json", false);
    let (file_rows, file_json) = run("file.json", true);
    assert_eq!(ram_rows, file_rows, "per-FTL rows diverge");
    assert_eq!(
        ram_rows.lines().count(),
        6,
        "header + five FTLs:\n{ram_rows}"
    );
    assert!(
        ram_json.contains("\"file_backed\": false") && ram_json.contains("\"kill_points\": 30")
    );
    assert!(file_json.contains("\"file_backed\": true"));

    let report: serde_json::Value = serde_json::from_str(&file_json).expect("parse artifact");
    fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
        v.get(key).expect("field present")
    }
    assert_eq!(field(&report, "schema").as_str(), Some("crash-v2"));
    assert_eq!(field(&report, "mode").as_str(), Some("in-process"));
    for row in field(&report, "results").as_array().expect("rows") {
        let points = field(row, "crash_points").as_array().expect("points");
        let horizon = field(row, "horizon_ops").as_u64().expect("horizon");
        assert_eq!(points.len(), 6);
        assert_eq!(points[0].as_u64(), Some(0), "{row}");
        assert_eq!(points[5].as_u64(), Some(horizon - 1), "{row}");
        assert_eq!(field(row, "violations").as_array().map(<[_]>::len), Some(0));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bad command line is a usage error in every mode — exit status 2 and
/// the usage line, never a panic.
#[test]
fn bad_flags_exit_2_with_usage() {
    for args in [
        &["--points", "x"][..],
        &["--in-process", "--threads", "0"],
        &["--in-process", "--backing", "/dev/null/nope"],
        &["child", "--kill-at", "soon"],
        &["--seed"],
    ] {
        let run = Command::new(exe()).args(args).output().expect("run");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: crash-replay"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
