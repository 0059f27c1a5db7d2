//! Benchmark library shared by the `ftlbench` and `bench-diff` binaries.
//!
//! Std-only timing (no criterion, so the workspace builds offline): plain
//! `Instant` with warmup iterations and median-of-k samples. The scenario
//! functions in [`scenarios`] cover the translation hot paths of every
//! cached-mapping FTL, the GC valid-page scan and victim pick, and macro
//! trace replays; `ftlbench` runs them and writes an `ftlbench-v1` report.
//! [`diff`] compares two such reports for the CI regression gate, one
//! gated column (`ns_per_op`, `write_amp`) at a time; `bench-diff` runs
//! nothing itself.

pub mod diff;
pub mod scenarios;

use serde_json::Value;

pub use scenarios::{
    run_all, Record, DEFAULT_SHARD_COUNTS, SWEEP_CHANNEL_COUNTS, SWEEP_OPEN_LOOP_DEPTHS,
    SWEEP_OPEN_LOOP_RATES, SWEEP_OPEN_LOOP_SHARDS,
};

/// Renders a slice of records as the `ftlbench-v1` JSON document.
pub fn render_json(records: &[Record], quick: bool) -> Value {
    Value::Object(vec![
        ("schema".to_string(), Value::Str("ftlbench-v1".to_string())),
        ("quick".to_string(), Value::Bool(quick)),
        (
            "results".to_string(),
            Value::Array(records.iter().map(Record::to_json).collect()),
        ),
    ])
}

/// Prints the human-readable results table to stdout.
pub fn print_table(records: &[Record]) {
    let fmt_extra = |r: &Record, key: &str, digits: usize| {
        r.extra
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.as_f64())
            .map_or_else(|| "-".to_string(), |x| format!("{x:.digits$}"))
    };
    println!(
        "{:<26} {:<14} {:>12} {:>12} {:>10} {:>10} {:>9}",
        "scenario", "ftl", "median ns/op", "min ns/op", "hit ratio", "write amp", "erase cv"
    );
    for r in records {
        println!(
            "{:<26} {:<14} {:>12.1} {:>12.1} {:>10} {:>10} {:>9}",
            r.scenario,
            r.ftl,
            r.median(),
            r.min(),
            fmt_extra(r, "hit_ratio", 4),
            fmt_extra(r, "write_amp", 3),
            fmt_extra(r, "erase_cv", 3),
        );
    }
}
