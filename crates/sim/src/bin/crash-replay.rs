//! `crash-replay` — the one binary that runs the crash proof.
//!
//! Both modes sweep the five mapping-persisting FTLs (DFTL, CDFTL, S-FTL,
//! TPFTL, LearnedFTL) over the same fixture (`CrashHarness::starved`) and
//! hand every remounted device to the same durability oracle
//! (`CrashHarness::judge`): every acknowledged write must still be
//! readable from the persisted mapping table, and the table must verify
//! clean. They differ only in how the power fails:
//!
//! * **in-process** (`--in-process`) — an injected `FaultPlan` fails the
//!   chosen flash op and `CrashHarness::sweep` remounts in the same
//!   process; crash points are evenly spaced over each FTL's op horizon,
//!   op 0 and the last op included. With `--backing DIR` every replay
//!   mirrors to a device file under DIR (use a tmpfs path) and the remount
//!   reads that file alone; outcomes are bit-identical either way.
//! * **kill-9** (the default) — one child copy of this binary per kill
//!   point replays against a file-backed device and, on reaching its op
//!   index, sends itself `SIGKILL`: no destructors, no flush, no unmount;
//!   the op in flight lands as a torn partial record. The parent remounts
//!   the image cold and judges it against the writes the child logged to a
//!   sidecar acks file before dying; a second remount checks that
//!   recovery's own repairs are idempotent. Kill points and tear budgets
//!   are a pure function of `--seed`.
//!
//! ```text
//! crash-replay [--in-process [--backing DIR] [--threads N]] [--quick]
//!              [--exhaustive] [--points N] [--requests N] [--seed N]
//!              [--dir DIR] [--out PATH]
//! crash-replay child --img PATH --acks PATH --ftl NAME --kill-at N
//!              --tear N --requests N --seed N
//! ```
//!
//! * `--quick`      — CI smoke mode: 200 requests, `--points` 24 / 56.
//! * `--exhaustive` — every flash-op index of every FTL.
//! * `--points`     — points per FTL in-process (default 256); kill points
//!   in all, round-robin over the FTLs, under kill-9 (default 160).
//! * `--threads`    — in-process sweep workers (default: one per core);
//!   results merge in op order, identical to a serial run.
//! * `--dir`        — the kill-9 spelling of `--backing` (default: temp dir).
//! * `--out`        — JSON report, schema `crash-v2` (default
//!   `CRASH_matrix.json` in-process, `CRASH_matrix_file.json` kill-9).
//!
//! Exits 1 on any oracle violation, unmountable image, or child that dies
//! of the wrong signal; 2 on a bad command line. LearnedFTL's learned
//! segments live only in RAM: every remount implicitly checks that
//! recovery rebuilds a correct table with them discarded.

use std::io::Write as _;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};

use serde::Serialize;
use tpftl_core::ftl::FtlKind;
use tpftl_core::recovery::{self, RecoveryReport, VerifyReport};
use tpftl_flash::{FaultMode, FaultPlan, Flash, Lpn};
use tpftl_sim::{CrashHarness, Ssd};

const USAGE: &str = "usage: crash-replay [--in-process [--backing DIR] [--threads N]] \
    [--quick] [--exhaustive] [--points N] [--requests N] [--seed N] [--dir DIR] [--out PATH]";

/// A bad command line: the complaint, the usage line, exit status 2.
fn usage(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// A run that cannot continue (not a durability verdict): exit status 1.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

#[derive(Default, PartialEq)]
enum Mode {
    #[default]
    Kill9,
    InProcess,
    Child,
}

#[derive(Default)]
struct Opts {
    mode: Mode,
    quick: bool,
    exhaustive: bool,
    points: Option<u64>,
    requests: usize,
    seed: u64,
    threads: Option<usize>,
    images: Option<PathBuf>,
    out: Option<String>,
    // Child mode only.
    img: PathBuf,
    acks: PathBuf,
    ftl: Option<FtlKind>,
    kill_at: u64,
    tear: u64,
}

fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

fn num(args: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
    value(args, flag)
        .parse()
        .unwrap_or_else(|_| usage(&format!("{flag} needs a number")))
}

fn parse_opts(mut args: impl Iterator<Item = String>) -> Opts {
    let mut o = Opts {
        requests: 500,
        seed: 42,
        ..Opts::default()
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "child" => o.mode = Mode::Child,
            "--in-process" => o.mode = Mode::InProcess,
            "--quick" => o.quick = true,
            "--exhaustive" => o.exhaustive = true,
            "--points" => o.points = Some(num(&mut args, &a)),
            "--requests" => o.requests = num(&mut args, &a) as usize,
            "--seed" => o.seed = num(&mut args, &a),
            "--threads" => match num(&mut args, &a) as usize {
                0 => usage("--threads must be at least 1"),
                n => o.threads = Some(n),
            },
            "--backing" | "--dir" => {
                let dir = PathBuf::from(value(&mut args, &a));
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    usage(&format!("{a}: cannot create {}: {e}", dir.display()));
                }
                o.images = Some(dir);
            }
            "--out" => o.out = Some(value(&mut args, &a)),
            "--img" => o.img = value(&mut args, &a).into(),
            "--acks" => o.acks = value(&mut args, &a).into(),
            "--ftl" => {
                let name = value(&mut args, &a);
                let kind = FtlKind::parse(&name);
                o.ftl = Some(kind.unwrap_or_else(|| usage(&format!("unknown FTL {name:?}"))));
            }
            "--kill-at" => o.kill_at = num(&mut args, &a),
            "--tear" => o.tear = num(&mut args, &a),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if o.quick {
        o.requests = o.requests.min(200);
    }
    o
}

// ---- child ----------------------------------------------------------------

/// Sends this process `SIGKILL`: death with no unwinding, no destructors,
/// and no buffered-write flushing — the page cache keeps only what the
/// kernel already accepted. Falls back to an external `kill` if the raw
/// syscall path is unavailable on this target.
fn kill_self_9() -> ! {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    unsafe {
        std::arch::asm!(
            "syscall",
            in("rax") 62u64, // SYS_kill
            in("rdi") std::process::id() as u64,
            in("rsi") 9u64, // SIGKILL
            lateout("rax") _,
            lateout("rcx") _,
            lateout("r11") _,
        );
    }
    let _ = std::process::Command::new("kill")
        .args(["-9", &std::process::id().to_string()])
        .status();
    std::process::abort();
}

/// The child replay: bootstrap a file-backed device, log every
/// acknowledged write to the acks file, and die by `SIGKILL` at the
/// configured flash-op index (the fault plan marks the instant; the tear
/// budget decides how much of the in-flight record hit the disk).
fn run_child(h: &CrashHarness, o: &Opts) -> ! {
    fn die(what: &str, e: &dyn std::fmt::Display) -> ! {
        fail(&format!("child: {what}: {e}"))
    }
    let c = &h.config;
    let flash = Flash::create_file(c.geometry(), &o.img)
        .unwrap_or_else(|e| die("cannot create the device file", &e));
    let kind = o.ftl.unwrap_or_else(|| usage("child needs --ftl"));
    let ftl = kind.build(c).unwrap_or_else(|e| die("FTL", &e));
    let mut ssd = Ssd::with_flash(ftl, c.clone(), flash).unwrap_or_else(|e| die("bootstrap", &e));
    let mut acks =
        std::fs::File::create(&o.acks).unwrap_or_else(|e| die("cannot create the acks file", &e));
    let log = |lpns: &[Lpn]| {
        let bytes: Vec<u8> = lpns.iter().flat_map(|l| l.to_le_bytes()).collect();
        if let Err(e) = acks.write_all(&bytes) {
            die("cannot log acks", &e);
        }
    };
    let plan = FaultPlan::at_op(o.kill_at).with_tear(o.tear);
    match h.replay_until_crash(&mut ssd, plan, log) {
        Ok((_, true)) => std::process::exit(0), // kill point beyond the run
        Ok((_, false)) => kill_self_9(),
        Err(e) => die("unexpected error", &e),
    }
}

// ---- points ---------------------------------------------------------------

/// Up to `n` evenly spaced op indices over `0..horizon`, strictly
/// increasing, always including op 0 and — from two points up — the last
/// op (the final flash op of the unmount flush).
fn spaced_points(horizon: u64, n: u64) -> Vec<u64> {
    let n = n.min(horizon).max(1);
    let last = horizon.saturating_sub(1);
    let mut points: Vec<u64> = (0..n).map(|i| i * last / (n - 1).max(1)).collect();
    points.dedup();
    points
}

/// A draw in `0..below` that is a pure function of `seed`: the op index
/// `FaultPlan::seeded` picks.
fn draw(seed: u64, below: u64) -> u64 {
    match FaultPlan::seeded(seed, below).mode() {
        FaultMode::AtOp(n) => n,
        mode => unreachable!("seeded plans are op-indexed, got {mode:?}"),
    }
}

// ---- sweep ----------------------------------------------------------------

/// What one crash point contributed, whichever way the power failed.
#[derive(Default)]
struct PointResult {
    killed: bool,
    recovery: RecoveryReport,
    problems: Vec<String>,
}

/// Oracle violations and verify errors as one list.
fn problems(violations: Vec<String>, verify: &VerifyReport) -> Vec<String> {
    let errors = verify.errors.iter().map(|e| format!("verify: {e}"));
    violations.into_iter().chain(errors).collect()
}

/// Acked LPNs the child logged before dying. A `SIGKILL` can land mid
/// 4-byte record; the partial tail is exactly an unacknowledged write, so
/// it is ignored.
fn read_acks(path: &Path) -> std::io::Result<Vec<Lpn>> {
    let bytes = std::fs::read(path)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| Lpn::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Remounts the image a dead child left behind — a fresh process reading
/// the device file alone — and judges it.
fn mount_and_judge(
    h: &CrashHarness,
    img: &Path,
    acked: &mut Vec<Lpn>,
) -> (RecoveryReport, Vec<String>) {
    let mounted = Flash::open_file(img)
        .map_err(Into::into)
        .and_then(|flash| recovery::crash_mount(flash, h.config.clone()));
    match mounted {
        Err(e) => (
            Default::default(),
            vec![format!("image does not mount: {e}")],
        ),
        Ok((env, recovery)) => {
            let (verify, violations) = CrashHarness::judge(&env, acked);
            (recovery, problems(violations, &verify))
        }
    }
}

/// One kill-9 point: spawn the child, let it die, judge what it left.
fn kill9_point(
    exe: &Path,
    h: &CrashHarness,
    o: &Opts,
    kind: FtlKind,
    op: u64,
    tear: u64,
) -> PointResult {
    let ftl = kind.label();
    let dir = o.images.clone().unwrap_or_else(std::env::temp_dir);
    let img = dir.join(format!("tpftl_kill9_{}_{ftl}_{op}.img", std::process::id()));
    let acks = img.with_extension("acks");
    let _ = std::fs::remove_file(&img);
    let _ = std::fs::remove_file(&acks);

    let status = std::process::Command::new(exe)
        .arg("child")
        .args(["--img", &img.display().to_string()])
        .args(["--acks", &acks.display().to_string()])
        .args(["--ftl", &ftl])
        .args(["--kill-at", &op.to_string()])
        .args(["--tear", &tear.to_string()])
        .args(["--requests", &o.requests.to_string()])
        .args(["--seed", &o.seed.to_string()])
        .status();

    let mut r = PointResult::default();
    match (status, read_acks(&acks)) {
        (Err(e), _) => r.problems.push(format!("cannot spawn the child: {e}")),
        (Ok(s), _) if s.signal() != Some(9) && !s.success() => r.problems.push(format!(
            "child died abnormally (status {s:?}, expected SIGKILL or clean exit)"
        )),
        (Ok(_), Err(e)) => r.problems.push(format!("acks file unreadable: {e}")),
        (Ok(s), Ok(mut acked)) => {
            r.killed = s.signal() == Some(9);
            (r.recovery, r.problems) = mount_and_judge(h, &img, &mut acked);
            if r.problems.is_empty() {
                // Recovery's own mirrored repairs must leave an image that
                // mounts to the same durable answer (idempotence).
                let (_, again) = mount_and_judge(h, &img, &mut acked);
                let nth = |p| format!("{p} (2nd mount)");
                r.problems.extend(again.into_iter().map(nth));
            }
        }
    }
    let _ = std::fs::remove_file(&img);
    let _ = std::fs::remove_file(&acks);
    r
}

/// One FTL's line of the report.
#[derive(Default, Serialize)]
struct Row {
    ftl: String,
    horizon_ops: u64,
    crash_points: Vec<u64>,
    sigkilled: u64,
    torn_pages: u64,
    duplicates_discarded: u64,
    mappings_recovered: u64,
    stale_cleared: u64,
    violations: Vec<String>,
}

#[derive(Serialize)]
struct Report {
    schema: &'static str,
    mode: &'static str,
    quick: bool,
    exhaustive: bool,
    seed: u64,
    requests: u64,
    file_backed: bool,
    kill_points: u64,
    children_sigkilled: u64,
    results: Vec<Row>,
}

fn main() {
    let o = parse_opts(std::env::args().skip(1));
    let h = CrashHarness::starved(o.requests, o.seed);
    if o.mode == Mode::Child {
        run_child(&h, &o);
    }
    let in_process = o.mode == Mode::InProcess;
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| fail(&format!("cannot find this executable: {e}")));
    // Quick mode keeps >= 50 kill points, per the durability-suite contract.
    let (mode, default_points, quick_points, default_out) = match in_process {
        true => ("in-process", 256, 24, "CRASH_matrix.json"),
        false => ("kill9", 160, 56, "CRASH_matrix_file.json"),
    };
    let n = o.points.unwrap_or(default_points);
    let n = if o.quick { n.min(quick_points) } else { n };
    let record_len = h.config.geometry().page_bytes as u64 + 64;

    println!(
        "{:<14} {:>8} {:>7} {:>7} {:>6} {:>6} {:>10} {:>6} {:>10}",
        "ftl", "horizon", "points", "killed", "torn", "dups", "recovered", "stale", "violations"
    );
    let mut results = Vec::new();
    for (k, kind) in FtlKind::PERSISTING.into_iter().enumerate() {
        let build = || kind.build(&h.config).expect("FTL builds");
        let horizon = h
            .baseline_ops(build())
            .unwrap_or_else(|e| fail(&format!("{}: baseline run: {e}", kind.label())));
        if horizon == 0 {
            fail(&format!("{}: baseline run saw no flash op", kind.label()));
        }
        // Kill-9 draws: a stream per FTL, two draws (op, tear) per point.
        let salt = (o.seed ^ 0x4B49_4C4C).wrapping_add((k as u64) << 40); // "KILL"
        let points: Vec<u64> = if o.exhaustive {
            (0..horizon).collect()
        } else if in_process {
            spaced_points(horizon, n)
        } else {
            let share = (k as u64..n).step_by(FtlKind::PERSISTING.len()).count() as u64;
            (0..share)
                .map(|j| draw(salt.wrapping_add(2 * j), horizon))
                .collect()
        };
        let outcomes: Vec<PointResult> = if in_process {
            h.sweep(build, &points, o.images.as_deref(), o.threads)
                .unwrap_or_else(|e| fail(&format!("{}: harness error: {e}", kind.label())))
                .into_iter()
                .map(|out| PointResult {
                    killed: false,
                    problems: problems(out.violations, &out.verify),
                    recovery: out.recovery,
                })
                .collect()
        } else {
            let tear = |j: usize| draw(salt.wrapping_add(2 * j as u64 + 1), record_len);
            let point = |(j, &op)| kill9_point(&exe, &h, &o, kind, op, tear(j));
            points.iter().enumerate().map(point).collect()
        };

        let mut row = Row {
            ftl: kind.label(),
            horizon_ops: horizon,
            crash_points: points,
            ..Row::default()
        };
        for (op, r) in row.crash_points.iter().zip(outcomes) {
            row.sigkilled += r.killed as u64;
            row.torn_pages += r.recovery.torn_pages;
            row.duplicates_discarded +=
                r.recovery.duplicate_data_discarded + r.recovery.duplicate_translation_discarded;
            row.mappings_recovered += r.recovery.mappings_recovered;
            row.stale_cleared += r.recovery.stale_cleared;
            let at = |p| format!("op {op}: {p}");
            row.violations.extend(r.problems.into_iter().map(at));
        }
        println!(
            "{:<14} {:>8} {:>7} {:>7} {:>6} {:>6} {:>10} {:>6} {:>10}",
            row.ftl,
            row.horizon_ops,
            row.crash_points.len(),
            row.sigkilled,
            row.torn_pages,
            row.duplicates_discarded,
            row.mappings_recovered,
            row.stale_cleared,
            row.violations.len()
        );
        for v in &row.violations {
            eprintln!("  VIOLATION [{}] {v}", row.ftl);
        }
        results.push(row);
    }

    let report = Report {
        schema: "crash-v2",
        mode,
        quick: o.quick,
        exhaustive: o.exhaustive,
        seed: o.seed,
        requests: o.requests as u64,
        file_backed: !in_process || o.images.is_some(),
        kill_points: results.iter().map(|r| r.crash_points.len() as u64).sum(),
        children_sigkilled: results.iter().map(|r| r.sigkilled).sum(),
        results,
    };
    let violations: usize = report.results.iter().map(|r| r.violations.len()).sum();
    if !in_process {
        println!(
            "{} kill points ({} SIGKILLed children, {} completed), {violations} violations",
            report.kill_points,
            report.children_sigkilled,
            report.kill_points - report.children_sigkilled,
        );
    }
    let out = o.out.unwrap_or_else(|| default_out.to_string());
    let text = serde_json::to_string_pretty(&report).expect("render JSON");
    if let Err(e) = std::fs::write(&out, text + "\n") {
        fail(&format!("cannot write {out}: {e}"));
    }
    eprintln!("wrote {out}");
    if violations > 0 {
        fail("the sweep found durability violations");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spaced_points_reach_both_ends_and_never_repeat() {
        assert_eq!(spaced_points(1000, 1), [0]);
        assert_eq!(spaced_points(1000, 2), [0, 999]);
        assert_eq!(spaced_points(1000, 4), [0, 333, 666, 999]);
        for n in [7, 8, 1000] {
            assert_eq!(spaced_points(7, n), [0, 1, 2, 3, 4, 5, 6], "n = {n}");
        }
        let p = spaced_points(1543, 24);
        assert_eq!((p.len(), p[0], p[23]), (24, 0, 1542));
        assert!(p.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    }
}
