//! `crash-replay` — subprocess kill-9 durability harness.
//!
//! The parent (`sweep` mode, the default) spawns a child copy of this
//! binary per kill point. Each child replays a fixed-seed synthetic trace
//! against a *file-backed* flash device and, on reaching its randomized
//! flash-op index, sends itself `SIGKILL` — no destructors, no flush, no
//! unmount; the op in flight lands as a torn partial record. The parent
//! then remounts the device file in its own process via
//! `recovery::crash_mount` and runs the durability oracle: every write
//! the child acknowledged before dying (logged to a sidecar acks file)
//! must still be readable from the persisted mapping table, and the
//! remounted table must verify clean. A second remount of the same image
//! checks that recovery's own repairs are idempotent.
//!
//! Usage:
//!
//! ```text
//! crash-replay [--quick] [--exhaustive] [--points N] [--requests N]
//!              [--seed N] [--dir DIR] [--out PATH]
//! crash-replay child --img PATH --acks PATH --ftl NAME --kill-at N
//!              --tear N --requests N --seed N
//! ```
//!
//! * `--quick`      — CI smoke mode: 56 kill points, 200 requests.
//! * `--exhaustive` — one child per flash-op index (the full sweep).
//! * `--points`     — randomized kill points across the horizon (default 160).
//! * `--dir`        — directory for device images (default: temp dir; CI
//!   points this at a tmpfs path).
//! * `--out`        — JSON output path (default `CRASH_matrix_file.json`).
//!
//! Kill points round-robin over the five mapping-persisting FTLs (DFTL,
//! CDFTL, S-FTL, TPFTL, LearnedFTL). Exits non-zero on any oracle
//! violation, any child that dies of the wrong signal, or any
//! unmountable image. LearnedFTL's piecewise-linear segments live only
//! in RAM: both remounts implicitly check that recovery rebuilds a
//! correct table with the learned state discarded.

use std::collections::HashMap;
use std::io::Write as _;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};

use serde_json::Value;
use tpftl_core::ftl::FtlKind;
use tpftl_core::{recovery, FtlError, SsdConfig};
use tpftl_flash::{FaultPlan, Flash, FlashError, Lpn, Ppn};
use tpftl_sim::{CrashHarness, Ssd};
use tpftl_trace::{IoRequest, SyntheticSpec};

const PAGE_BYTES: u64 = 4096;

/// Small starved device with prefill high enough that GC runs mid-trace
/// (same shape as the in-RAM crash matrix).
fn config() -> SsdConfig {
    let mut c = SsdConfig::paper_default(4 << 20);
    c.cache_bytes = c.gtd_bytes() + 10 * 1024;
    c.prefill_frac = 0.6;
    c
}

fn trace(requests: usize, seed: u64) -> Vec<IoRequest> {
    let spec = SyntheticSpec {
        requests,
        address_bytes: 4 << 20,
        write_ratio: 0.7,
        mean_req_sectors: 8.0,
        ..SyntheticSpec::default()
    };
    spec.iter(seed).collect()
}

/// SplitMix64 — the same generator `FaultPlan::seeded` uses, kept inline
/// so the sweep's kill points are reproducible from the seed alone.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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

struct ChildArgs {
    img: PathBuf,
    acks: PathBuf,
    ftl: FtlKind,
    kill_at: u64,
    tear: u64,
    requests: usize,
    seed: u64,
}

/// The child replay: bootstrap a file-backed device, log every
/// acknowledged write to the acks file, and die by `SIGKILL` at the
/// configured flash-op index (the fault plan marks the instant; the tear
/// budget decides how much of the in-flight record hit the disk).
fn run_child(a: ChildArgs) -> ! {
    let c = config();
    let reqs = trace(a.requests, a.seed);
    let flash = Flash::create_file(c.geometry(), &a.img).expect("create device file");
    let ftl = a.ftl.build(&c).expect("budget");
    let mut ssd = Ssd::with_flash(ftl, c.clone(), flash).expect("bootstrap");

    let mut acks = std::fs::File::create(&a.acks).expect("create acks file");
    let mut log = |lpns: &[Lpn]| {
        let mut bytes = Vec::with_capacity(lpns.len() * 4);
        for l in lpns {
            bytes.extend_from_slice(&l.to_le_bytes());
        }
        acks.write_all(&bytes).expect("log acks");
    };
    let prefilled = (c.logical_pages() as f64 * c.prefill_frac) as u64;
    log(&(0..prefilled as Lpn).collect::<Vec<_>>());

    ssd.arm_faults(FaultPlan::at_op(a.kill_at).with_tear(a.tear));
    for req in &reqs {
        match ssd.serve(req) {
            Ok(_) => {
                if req.is_write() {
                    log(&req.pages(PAGE_BYTES).map(|p| p as Lpn).collect::<Vec<_>>());
                }
            }
            Err(FtlError::Flash(FlashError::PowerLoss)) => kill_self_9(),
            Err(e) => {
                eprintln!("child: unexpected error: {e}");
                std::process::exit(3);
            }
        }
    }
    match ssd.flush() {
        Ok(()) => std::process::exit(0), // kill point beyond the run
        Err(FtlError::Flash(FlashError::PowerLoss)) => kill_self_9(),
        Err(e) => {
            eprintln!("child: flush error: {e}");
            std::process::exit(3);
        }
    }
}

fn parse_child_args(mut args: std::env::Args) -> ChildArgs {
    let mut a = ChildArgs {
        img: PathBuf::new(),
        acks: PathBuf::new(),
        ftl: FtlKind::Tpftl,
        kill_at: 0,
        tear: 0,
        requests: 0,
        seed: 0,
    };
    let next = |args: &mut std::env::Args, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--img" => a.img = next(&mut args, "--img").into(),
            "--acks" => a.acks = next(&mut args, "--acks").into(),
            "--ftl" => {
                let name = next(&mut args, "--ftl");
                a.ftl = FtlKind::parse(&name).unwrap_or_else(|| {
                    eprintln!("unknown FTL {name:?}");
                    std::process::exit(2);
                })
            }
            "--kill-at" => a.kill_at = next(&mut args, "--kill-at").parse().expect("number"),
            "--tear" => a.tear = next(&mut args, "--tear").parse().expect("number"),
            "--requests" => a.requests = next(&mut args, "--requests").parse().expect("number"),
            "--seed" => a.seed = next(&mut args, "--seed").parse().expect("number"),
            other => {
                eprintln!("child: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    a
}

// ---- parent ---------------------------------------------------------------

struct Opts {
    quick: bool,
    exhaustive: bool,
    points: u64,
    requests: usize,
    seed: u64,
    dir: PathBuf,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        quick: false,
        exhaustive: false,
        points: 160,
        requests: 500,
        seed: 42,
        dir: std::env::temp_dir(),
        out: "CRASH_matrix_file.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--exhaustive" => opts.exhaustive = true,
            "--points" => opts.points = next(&mut args, "--points").parse().expect("number"),
            "--requests" => opts.requests = next(&mut args, "--requests").parse().expect("number"),
            "--seed" => opts.seed = next(&mut args, "--seed").parse().expect("number"),
            "--dir" => opts.dir = next(&mut args, "--dir").into(),
            "--out" => opts.out = next(&mut args, "--out"),
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: crash-replay [--quick] [--exhaustive] [--points N] \
                     [--requests N] [--seed N] [--dir DIR] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    if opts.quick {
        // Still >= 50 kill points, per the durability-suite contract.
        opts.points = opts.points.min(56);
        opts.requests = opts.requests.min(200);
    }
    opts
}

/// Acked LPNs the child logged before dying. A `SIGKILL` can land mid
/// 4-byte record; the partial tail is exactly an unacknowledged write, so
/// it is ignored.
fn read_acks(path: &Path) -> Vec<Lpn> {
    let bytes = std::fs::read(path).expect("read acks file");
    let mut acked: Vec<Lpn> = bytes
        .chunks_exact(4)
        .map(|c| Lpn::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    acked.sort_unstable();
    acked.dedup();
    acked
}

/// The durability oracle over a freshly remounted image (same contract as
/// `CrashHarness`): every acked LPN must map to its live newest copy, and
/// the remounted table must verify clean. Returns violations.
fn judge_image(img: &Path, acked: &[Lpn], label: &str) -> Vec<String> {
    let c = config();
    let flash = match Flash::open_file(img) {
        Ok(f) => f,
        Err(e) => return vec![format!("{label}: image does not mount: {e}")],
    };
    let (env, _recovery) = match recovery::crash_mount(flash, c) {
        Ok(x) => x,
        Err(e) => return vec![format!("{label}: crash_mount failed: {e}")],
    };
    let live: HashMap<Lpn, Ppn> = env
        .flash()
        .scan_valid()
        .filter(|&(_, _, is_tp)| !is_tp)
        .map(|(ppn, lpn, _)| (lpn, ppn))
        .collect();
    let mut violations = Vec::new();
    for &lpn in acked {
        match recovery::lookup(&env, lpn) {
            None => violations.push(format!("{label}: acked LPN {lpn} unmapped after kill -9")),
            Some(ppn) if live.get(&lpn) != Some(&ppn) => violations.push(format!(
                "{label}: acked LPN {lpn} maps to {ppn}, not its live copy {:?}",
                live.get(&lpn)
            )),
            Some(_) => {}
        }
    }
    for e in &recovery::verify(&env).errors {
        violations.push(format!("{label}: verify: {e}"));
    }
    violations
}

struct PointResult {
    ftl: String,
    kill_at: u64,
    killed: bool,
    violations: Vec<String>,
}

fn run_point(exe: &Path, opts: &Opts, kind: FtlKind, kill_at: u64, tear: u64) -> PointResult {
    let ftl = &kind.label();
    let img = opts.dir.join(format!(
        "tpftl_kill9_{}_{ftl}_{kill_at}.img",
        std::process::id()
    ));
    let acks = img.with_extension("acks");
    let _ = std::fs::remove_file(&img);
    let _ = std::fs::remove_file(&acks);

    let status = std::process::Command::new(exe)
        .arg("child")
        .args(["--img", &img.display().to_string()])
        .args(["--acks", &acks.display().to_string()])
        .args(["--ftl", ftl])
        .args(["--kill-at", &kill_at.to_string()])
        .args(["--tear", &tear.to_string()])
        .args(["--requests", &opts.requests.to_string()])
        .args(["--seed", &opts.seed.to_string()])
        .status()
        .expect("spawn child");

    let label = format!("{ftl} op {kill_at}");
    let killed = status.signal() == Some(9);
    let mut violations = Vec::new();
    if !killed && !status.success() {
        violations.push(format!(
            "{label}: child died abnormally (status {status:?}, expected SIGKILL or clean exit)"
        ));
    } else {
        let acked = read_acks(&acks);
        // First remount: a fresh process reads the device file alone.
        violations.extend(judge_image(&img, &acked, &label));
        // Second remount: recovery's own mirrored repairs must leave an
        // image that mounts to the same durable answer (idempotence).
        if violations.is_empty() {
            violations.extend(judge_image(&img, &acked, &format!("{label} (2nd mount)")));
        }
    }
    let _ = std::fs::remove_file(&img);
    let _ = std::fs::remove_file(&acks);
    PointResult {
        ftl: ftl.to_string(),
        kill_at,
        killed,
        violations,
    }
}

fn main() {
    let mut args = std::env::args();
    let _exe = args.next();
    if let Some(first) = args.next() {
        if first == "child" {
            run_child(parse_child_args(args));
        }
    }
    // Not child mode: reparse everything as sweep options.
    let opts = parse_opts();
    let exe = std::env::current_exe().expect("current exe");
    let c = config();
    let harness = CrashHarness::new(c.clone(), trace(opts.requests, opts.seed));

    // The op horizon per FTL bounds the randomized kill points.
    let mut horizons: HashMap<FtlKind, u64> = HashMap::new();
    for kind in FtlKind::PERSISTING {
        let ops = harness
            .baseline_ops(kind.build(&c).expect("budget"))
            .expect("baseline run");
        horizons.insert(kind, ops);
    }

    let record_len = c.geometry().page_bytes as u64 + 64;
    let mut rng = opts.seed ^ 0x4B49_4C4C; // "KILL"
    let mut results: Vec<PointResult> = Vec::new();
    let mut killed = 0u64;
    if opts.exhaustive {
        for kind in FtlKind::PERSISTING {
            for op in 0..horizons[&kind] {
                let tear = splitmix64(&mut rng) % record_len;
                results.push(run_point(&exe, &opts, kind, op, tear));
            }
        }
    } else {
        for i in 0..opts.points {
            let kind = FtlKind::PERSISTING[(i % FtlKind::PERSISTING.len() as u64) as usize];
            let op = splitmix64(&mut rng) % horizons[&kind];
            let tear = splitmix64(&mut rng) % record_len;
            results.push(run_point(&exe, &opts, kind, op, tear));
        }
    }

    let mut violations: Vec<String> = Vec::new();
    for r in &results {
        killed += r.killed as u64;
        violations.extend(r.violations.iter().cloned());
    }
    println!(
        "{} kill points ({} SIGKILLed children, {} completed), {} violations",
        results.len(),
        killed,
        results.len() as u64 - killed,
        violations.len()
    );
    for v in &violations {
        eprintln!("  VIOLATION {v}");
    }

    let json = Value::Object(vec![
        (
            "schema".to_string(),
            Value::Str("crash-replay-file-v1".to_string()),
        ),
        ("quick".to_string(), Value::Bool(opts.quick)),
        ("exhaustive".to_string(), Value::Bool(opts.exhaustive)),
        ("seed".to_string(), Value::UInt(opts.seed)),
        ("requests".to_string(), Value::UInt(opts.requests as u64)),
        ("kill_points".to_string(), Value::UInt(results.len() as u64)),
        ("children_sigkilled".to_string(), Value::UInt(killed)),
        (
            "horizons".to_string(),
            Value::Object(
                FtlKind::PERSISTING
                    .iter()
                    .map(|k| (k.label(), Value::UInt(horizons[k])))
                    .collect(),
            ),
        ),
        (
            "results".to_string(),
            Value::Array(
                results
                    .iter()
                    .map(|r| {
                        Value::Object(vec![
                            ("ftl".to_string(), Value::Str(r.ftl.clone())),
                            ("kill_at_op".to_string(), Value::UInt(r.kill_at)),
                            ("sigkilled".to_string(), Value::Bool(r.killed)),
                            (
                                "violations".to_string(),
                                Value::Array(
                                    r.violations.iter().map(|v| Value::Str(v.clone())).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let text = serde_json::to_string_pretty(&json).expect("render JSON");
    if let Err(e) = std::fs::write(&opts.out, text + "\n") {
        eprintln!("error: cannot write {}: {e}", opts.out);
        std::process::exit(1);
    }
    eprintln!("wrote {}", opts.out);
    if !violations.is_empty() {
        eprintln!("kill-9 sweep found durability violations");
        std::process::exit(1);
    }
}
