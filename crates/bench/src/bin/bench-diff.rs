//! `bench-diff` — the perf-regression gate.
//!
//! Compares a report `ftlbench --out` wrote against the committed
//! `BENCH_ftl.json` baseline, one gated column at a time (`ns_per_op`, and
//! `write_amp` where both reports were sized alike). Exits nonzero when
//! any `(scenario, ftl)` value regresses by more than its column's
//! threshold, or when a baseline scenario is missing from the fresh report
//! — so a perf regression, or a scenario silently dropped from the
//! harness, fails CI instead of landing unnoticed.
//!
//! Usage:
//!
//! ```text
//! bench-diff --fresh PATH [--baseline PATH] [--threshold PCT]
//!            [--wa-threshold PCT] [--filter SUBSTR] [--exclude LIST]
//!            [--update] [--out PATH]
//! ```
//!
//! * `--fresh`     — the `ftlbench-v1` report to compare (required).
//! * `--baseline`  — baseline report path (default `BENCH_ftl.json`).
//! * `--threshold` — `ns_per_op` regression threshold in percent
//!   (default 15).
//! * `--wa-threshold` — `write_amp` regression threshold in percent
//!   (default 5; the GC-quality rows are deterministic, so this gate is
//!   much tighter than the wall-clock one). The column is only compared
//!   when both reports were produced at the same sizing (their `quick`
//!   flags match): GC copy amplification depends on how long the device
//!   has aged, so quick-vs-full comparisons are meaningless.
//! * `--filter`    — restrict both sides to `scenario/ftl` ids containing
//!   SUBSTR.
//! * `--exclude`   — drop `scenario/ftl` ids containing any of the
//!   comma-separated patterns from both sides (for scenarios gated
//!   separately at a different threshold, e.g. `shard,chans`).
//! * `--update`    — instead of failing, rewrite the stale records of the
//!   baseline file in place with their fresh measurements — those with a
//!   column that regressed, is new, or fell by more than its threshold;
//!   all other records keep their committed bytes — and exit 0. To
//!   refresh one row: `ftlbench --filter X --out f.json`, then
//!   `bench-diff --fresh f.json --filter X --update`.
//! * `--out`       — diff report JSON path (default `bench_diff.json`).

use serde_json::Value;
use tpftl_bench::diff::{apply_update, DiffReport, Report, Select};

const USAGE: &str = "usage: bench-diff --fresh PATH [--baseline PATH] [--threshold PCT] \
                     [--wa-threshold PCT] [--filter SUBSTR] [--exclude LIST] [--update] \
                     [--out PATH]\n  (write the fresh report with `ftlbench --out PATH` first)";

struct Opts {
    baseline: String,
    fresh: Option<String>,
    threshold: f64,
    wa_threshold: f64,
    filter: Option<String>,
    exclude: Option<String>,
    update: bool,
    out: String,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        baseline: "BENCH_ftl.json".to_string(),
        fresh: None,
        threshold: 15.0,
        wa_threshold: 5.0,
        filter: None,
        exclude: None,
        update: false,
        out: "bench_diff.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next()
            .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
    };
    let pct = |raw: String, flag: &str| {
        raw.parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag} needs a number, got {raw:?}")))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => opts.baseline = need(&mut args, "--baseline"),
            "--fresh" => opts.fresh = Some(need(&mut args, "--fresh")),
            "--threshold" => opts.threshold = pct(need(&mut args, &a), &a),
            "--wa-threshold" => opts.wa_threshold = pct(need(&mut args, &a), &a),
            "--filter" => opts.filter = Some(need(&mut args, "--filter")),
            "--exclude" => opts.exclude = Some(need(&mut args, "--exclude")),
            "--update" => opts.update = true,
            "--out" => opts.out = need(&mut args, "--out"),
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    opts
}

fn fail<T>(e: String) -> T {
    eprintln!("error: {e}");
    std::process::exit(2);
}

fn load_report(path: &str) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    serde_json::from_str(&text).unwrap_or_else(|e| fail(format!("cannot parse {path}: {e:?}")))
}

fn write(path: &str, doc: &Value) {
    let text = serde_json::to_string_pretty(doc).expect("render JSON");
    if let Err(e) = std::fs::write(path, text + "\n") {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let opts = parse_opts();
    let Some(fresh_path) = &opts.fresh else {
        usage_error("--fresh PATH is required")
    };
    let (baseline_doc, fresh_doc) = (load_report(&opts.baseline), load_report(fresh_path));
    let select = Select::new(opts.filter.as_deref(), opts.exclude.as_deref()).unwrap_or_else(fail);
    let baseline =
        Report::new(&baseline_doc, &format!("baseline {}", opts.baseline)).unwrap_or_else(fail);
    let fresh = Report::new(&fresh_doc, &format!("fresh {fresh_path}")).unwrap_or_else(fail);

    let mut report = DiffReport::default();
    report.diff_column(&baseline, &fresh, "ns_per_op", opts.threshold, &select);
    // GC copy amplification depends on how long the device aged: compare
    // it only between reports of the same sizing.
    if baseline.quick == fresh.quick {
        report.diff_column(&baseline, &fresh, "write_amp", opts.wa_threshold, &select);
    } else {
        report.skip_column("write_amp", opts.wa_threshold);
        eprintln!("note: write_amp column skipped (baseline and fresh sizing differ)");
    }
    print!("{}", report.render_table());
    write(&opts.out, &report.to_json());
    eprintln!("wrote {}", opts.out);

    if opts.update {
        let stale = report.stale();
        let updated = apply_update(&baseline_doc, &fresh_doc, &stale).unwrap_or_else(fail);
        write(&opts.baseline, &updated);
        eprintln!(
            "updated {} ({} row(s) rewritten from the fresh run)",
            opts.baseline,
            stale.len()
        );
        return;
    }

    if report.has_failure() {
        for gate in &report.gates {
            if report
                .rows
                .iter()
                .any(|r| r.column == gate.column && r.fails())
            {
                eprintln!(
                    "FAIL: {} regression over {}% (or missing scenario) vs {}",
                    gate.column, gate.threshold_pct, opts.baseline
                );
            }
        }
        std::process::exit(1);
    }
    eprintln!("OK: within {}% of {}", opts.threshold, opts.baseline);
}
