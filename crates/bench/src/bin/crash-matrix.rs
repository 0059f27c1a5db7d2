//! `crash-matrix` — power-loss crash matrix across FTLs and crash points.
//!
//! For each cached-mapping FTL, replays a fixed-seed synthetic trace,
//! injects a power loss at a set of flash-op indices spread over the run
//! (or at every index with `--exhaustive`), remounts via the crash-mount
//! recovery scan, and checks the durability oracle: no acknowledged write
//! lost, no mapping pointing at a dead or torn page, `recovery::verify`
//! clean. Writes a machine-readable `CRASH_matrix.json` and exits
//! non-zero if any crash point violates the invariant.
//!
//! Usage:
//!
//! ```text
//! crash-matrix [--quick] [--exhaustive] [--points N] [--requests N]
//!              [--seed N] [--threads N] [--backing DIR] [--out PATH]
//! ```
//!
//! * `--quick`      — small trace + few crash points; the CI smoke mode.
//! * `--exhaustive` — every op index (the test-suite sweep, but for all FTLs).
//! * `--points`     — evenly spaced crash points per FTL (default 256).
//! * `--requests`   — trace length in host requests (default 500).
//! * `--seed`       — trace seed (default 42).
//! * `--threads`    — worker threads for the crash-point sweep (default:
//!   one per core). Each crash point is an independent replay, so the
//!   results are merged in op-index order and the output is identical to
//!   a serial run.
//! * `--backing`    — run every crash point against a *file-backed* device
//!   whose image lives under DIR (use a tmpfs path for speed): the power
//!   cycle drops all RAM state and recovery remounts from the on-device
//!   layout alone. Default is the RAM device; outcomes are bit-identical
//!   either way.
//! * `--out`        — JSON output path (default `CRASH_matrix.json`).
//!
//! JSON schema (`schema: "crash-matrix-v1"`): per-FTL records with the
//! sweep horizon, crash points checked, aggregate recovery statistics,
//! and every violation (empty list = durable).

use std::path::PathBuf;

use serde_json::Value;
use tpftl_core::SsdConfig;
use tpftl_experiments::runner::{run_parallel_with, FtlKind};
use tpftl_flash::FaultPlan;
use tpftl_sim::{CrashHarness, CrashOutcome};
use tpftl_trace::SyntheticSpec;

struct Opts {
    quick: bool,
    exhaustive: bool,
    points: u64,
    requests: usize,
    seed: u64,
    threads: Option<usize>,
    backing: Option<PathBuf>,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        quick: false,
        exhaustive: false,
        points: 256,
        requests: 500,
        seed: 42,
        threads: None,
        backing: None,
        out: "CRASH_matrix.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    let next_num = |args: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
        args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} needs a number");
            std::process::exit(2);
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--exhaustive" => opts.exhaustive = true,
            "--points" => opts.points = next_num(&mut args, "--points"),
            "--requests" => opts.requests = next_num(&mut args, "--requests") as usize,
            "--seed" => opts.seed = next_num(&mut args, "--seed"),
            "--threads" => {
                let n = next_num(&mut args, "--threads") as usize;
                if n == 0 {
                    eprintln!("--threads must be at least 1");
                    std::process::exit(2);
                }
                opts.threads = Some(n);
            }
            "--backing" => {
                let dir: PathBuf = args
                    .next()
                    .unwrap_or_else(|| {
                        eprintln!("--backing needs a directory");
                        std::process::exit(2);
                    })
                    .into();
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    eprintln!("--backing: cannot create {}: {e}", dir.display());
                    std::process::exit(2);
                }
                opts.backing = Some(dir);
            }
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: crash-matrix [--quick] [--exhaustive] [--points N] \
                     [--requests N] [--seed N] [--threads N] [--backing DIR] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    if opts.quick {
        opts.points = opts.points.min(24);
        opts.requests = opts.requests.min(200);
    }
    opts
}

/// Small starved device with prefill high enough that GC runs mid-trace.
fn config() -> SsdConfig {
    let mut c = SsdConfig::paper_default(4 << 20);
    c.cache_bytes = c.gtd_bytes() + 10 * 1024;
    c.prefill_frac = 0.6;
    c
}

struct MatrixRow {
    ftl: String,
    horizon: u64,
    crash_points: u64,
    torn_pages: u64,
    duplicates_discarded: u64,
    mappings_recovered: u64,
    stale_cleared: u64,
    violations: Vec<String>,
}

impl MatrixRow {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("ftl".to_string(), Value::Str(self.ftl.clone())),
            ("horizon_ops".to_string(), Value::UInt(self.horizon)),
            ("crash_points".to_string(), Value::UInt(self.crash_points)),
            ("torn_pages".to_string(), Value::UInt(self.torn_pages)),
            (
                "duplicates_discarded".to_string(),
                Value::UInt(self.duplicates_discarded),
            ),
            (
                "mappings_recovered".to_string(),
                Value::UInt(self.mappings_recovered),
            ),
            ("stale_cleared".to_string(), Value::UInt(self.stale_cleared)),
            (
                "violations".to_string(),
                Value::Array(
                    self.violations
                        .iter()
                        .map(|v| Value::Str(v.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

fn sweep(harness: &CrashHarness, kind: FtlKind, opts: &Opts) -> MatrixRow {
    let build = || kind.build(harness.config()).expect("FTL builds");
    let horizon = harness.baseline_ops(build()).expect("baseline run");
    let points: Vec<u64> = if opts.exhaustive {
        (0..horizon).collect()
    } else {
        // Evenly spaced, always including op 0 and the last op.
        let n = opts.points.clamp(1, horizon);
        (0..n).map(|i| i * (horizon - 1) / n.max(1)).collect()
    };

    let mut row = MatrixRow {
        ftl: kind.label(),
        horizon,
        crash_points: points.len() as u64,
        torn_pages: 0,
        duplicates_discarded: 0,
        mappings_recovered: 0,
        stale_cleared: 0,
        violations: Vec::new(),
    };
    // Every crash point is an independent replay on its own device, so
    // the sweep fans out across workers; zipping the results back against
    // `points` keeps the aggregation (and violation order) identical to a
    // serial loop.
    let ftl_name = row.ftl.clone();
    let outcomes: Vec<CrashOutcome> = run_parallel_with(points.clone(), opts.threads, |&op| {
        let result = match &opts.backing {
            None => harness.run_to_crash(build(), FaultPlan::at_op(op)),
            Some(dir) => {
                // One image per worker thread (workers drain their shard
                // serially, so the path is never shared concurrently).
                let path = dir.join(format!(
                    "tpftl_crash_{}_{:?}_{}.img",
                    std::process::id(),
                    std::thread::current().id(),
                    ftl_name.replace(['(', ')', ' ', '-'], "_"),
                ));
                let out = harness.run_to_crash_backed(build(), FaultPlan::at_op(op), &path);
                let _ = std::fs::remove_file(&path);
                out
            }
        };
        result.unwrap_or_else(|e| panic!("{ftl_name} op {op}: harness error {e}"))
    });
    for (&op, out) in points.iter().zip(&outcomes) {
        row.torn_pages += out.recovery.torn_pages;
        row.duplicates_discarded +=
            out.recovery.duplicate_data_discarded + out.recovery.duplicate_translation_discarded;
        row.mappings_recovered += out.recovery.mappings_recovered;
        row.stale_cleared += out.recovery.stale_cleared;
        for v in &out.violations {
            row.violations.push(format!("op {op}: {v}"));
        }
        for e in &out.verify.errors {
            row.violations.push(format!("op {op}: verify: {e}"));
        }
    }
    row
}

fn main() {
    let opts = parse_opts();
    let config = config();
    let spec = SyntheticSpec {
        requests: opts.requests,
        address_bytes: 4 << 20,
        write_ratio: 0.7,
        mean_req_sectors: 8.0,
        ..SyntheticSpec::default()
    };
    let harness = CrashHarness::new(config, spec.iter(opts.seed).collect());

    println!(
        "{:<14} {:>10} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "ftl", "horizon", "points", "torn", "dups", "recovered", "violations"
    );
    let mut rows = Vec::new();
    let mut failed = false;
    for kind in FtlKind::PERSISTING {
        let row = sweep(&harness, kind, &opts);
        println!(
            "{:<14} {:>10} {:>8} {:>8} {:>8} {:>10} {:>10}",
            row.ftl,
            row.horizon,
            row.crash_points,
            row.torn_pages,
            row.duplicates_discarded,
            row.mappings_recovered,
            row.violations.len()
        );
        for v in &row.violations {
            eprintln!("  VIOLATION [{}] {v}", row.ftl);
        }
        failed |= !row.violations.is_empty();
        rows.push(row);
    }

    let json = Value::Object(vec![
        (
            "schema".to_string(),
            Value::Str("crash-matrix-v1".to_string()),
        ),
        ("quick".to_string(), Value::Bool(opts.quick)),
        ("exhaustive".to_string(), Value::Bool(opts.exhaustive)),
        ("seed".to_string(), Value::UInt(opts.seed)),
        ("requests".to_string(), Value::UInt(opts.requests as u64)),
        (
            "file_backed".to_string(),
            Value::Bool(opts.backing.is_some()),
        ),
        (
            "results".to_string(),
            Value::Array(rows.iter().map(MatrixRow::to_json).collect()),
        ),
    ]);
    let text = serde_json::to_string_pretty(&json).expect("render JSON");
    if let Err(e) = std::fs::write(&opts.out, text + "\n") {
        eprintln!("error: cannot write {}: {e}", opts.out);
        std::process::exit(1);
    }
    eprintln!("wrote {}", opts.out);
    if failed {
        eprintln!("crash matrix found durability violations");
        std::process::exit(1);
    }
}
