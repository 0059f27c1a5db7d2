//! The `bench-diff` binary end to end, on small hand-written
//! `ftlbench-v1` reports: exit codes, the write-amp column's sizing rule,
//! `--update` on a write-amp-only regression, and the usage error without
//! `--fresh`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde_json::Value;

/// A scratch directory of its own for each test, removed on drop.
struct Dir(PathBuf);

impl Dir {
    fn new(test: &str) -> Dir {
        let dir =
            std::env::temp_dir().join(format!("bench-diff-cli-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Dir(dir)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }

    /// Writes `doc` as `file`, pretty-printed as `bench-diff` writes it.
    fn write(&self, file: &str, doc: &Value) -> PathBuf {
        let path = self.path(file);
        std::fs::write(&path, pretty(doc)).unwrap();
        path
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn pretty(doc: &Value) -> String {
    serde_json::to_string_pretty(doc).unwrap() + "\n"
}

/// One record; `wa` adds the GC-quality payload.
fn record(scenario: &str, ftl: &str, ns: f64, wa: Option<f64>) -> Value {
    let mut fields = vec![
        ("scenario".to_string(), Value::Str(scenario.to_string())),
        ("ftl".to_string(), Value::Str(ftl.to_string())),
        ("ns_per_op".to_string(), Value::Float(ns)),
        ("samples".to_string(), Value::UInt(9)),
    ];
    if let Some(wa) = wa {
        fields.push(("write_amp".to_string(), Value::Float(wa)));
        fields.push(("erase_cv".to_string(), Value::Float(0.25)));
    }
    Value::Object(fields)
}

fn report(quick: bool, records: Vec<Value>) -> Value {
    Value::Object(vec![
        ("schema".to_string(), Value::Str("ftlbench-v1".to_string())),
        ("quick".to_string(), Value::Bool(quick)),
        ("results".to_string(), Value::Array(records)),
    ])
}

/// A latency row, an aging row and a tenant row; `aging_wa` and
/// `miss_ns` are the values a test moves.
fn matrix(quick: bool, miss_ns: f64, aging_wa: f64) -> Value {
    report(
        quick,
        vec![
            record("miss_scan", "TPFTL", miss_ns, None),
            record("aging_write_gc_greedy", "TPFTL", 5000.0, Some(aging_wa)),
            record("tenant_mix_greedy", "DFTL", 4000.0, Some(2.5)),
        ],
    )
}

fn bench_diff(dir: &Dir, baseline: &Path, fresh: Option<&Path>, extra: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench-diff"));
    cmd.current_dir(&dir.0).arg("--baseline").arg(baseline);
    if let Some(fresh) = fresh {
        cmd.arg("--fresh").arg(fresh);
    }
    cmd.arg("--out").arg(dir.path("diff.json"));
    cmd.args(extra).output().unwrap()
}

fn diff_json(dir: &Dir) -> Value {
    serde_json::from_str(&std::fs::read_to_string(dir.path("diff.json")).unwrap()).unwrap()
}

/// `(column, status)` of every row of the diff report for `scenario`.
fn statuses(diff: &Value, scenario: &str) -> Vec<(String, String)> {
    let rows = diff.get("rows").unwrap().as_array().unwrap();
    let field = |r: &Value, k: &str| r.get(k).unwrap().as_str().unwrap().to_string();
    rows.iter()
        .filter(|r| r.get("scenario").unwrap().as_str() == Some(scenario))
        .map(|r| (field(r, "column"), field(r, "status")))
        .collect()
}

#[test]
fn equal_reports_pass() {
    let dir = Dir::new("equal");
    let base = dir.write("base.json", &matrix(false, 100.0, 1.5));
    let fresh = dir.write("fresh.json", &matrix(false, 100.0, 1.5));
    let out = bench_diff(&dir, &base, Some(&fresh), &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let diff = diff_json(&dir);
    assert_eq!(
        diff.get("schema").unwrap().as_str(),
        Some("ftlbench-diff-v2")
    );
    assert_eq!(diff.get("failed").unwrap().as_bool(), Some(false));
    // Three ns_per_op rows and the two rows that carry write_amp.
    assert_eq!(diff.get("rows").unwrap().as_array().unwrap().len(), 5);
}

#[test]
fn a_latency_row_half_again_as_slow_fails() {
    let dir = Dir::new("latency");
    let base = dir.write("base.json", &matrix(false, 100.0, 1.5));
    let fresh = dir.write("fresh.json", &matrix(false, 150.0, 1.5));
    let out = bench_diff(&dir, &base, Some(&fresh), &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let want = [("ns_per_op".to_string(), "REGRESSION".to_string())];
    assert_eq!(statuses(&diff_json(&dir), "miss_scan"), want);
}

#[test]
fn a_write_amp_regression_fails_at_one_sizing_and_is_skipped_across_two() {
    let dir = Dir::new("write-amp");
    let base = dir.write("base.json", &matrix(false, 100.0, 1.5));
    // +10 %: over the 5 % write-amp threshold, host time unchanged.
    let fresh = dir.write("fresh.json", &matrix(false, 100.0, 1.65));
    let out = bench_diff(&dir, &base, Some(&fresh), &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let aging = statuses(&diff_json(&dir), "aging_write_gc_greedy");
    assert_eq!(aging[0], ("ns_per_op".into(), "ok".into()));
    assert_eq!(aging[1], ("write_amp".into(), "REGRESSION".into()));

    // The same values from a quick run: the column is not compared.
    let quick = dir.write("quick.json", &matrix(true, 100.0, 1.65));
    let out = bench_diff(&dir, &base, Some(&quick), &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let diff = diff_json(&dir);
    let gates = diff.get("gates").unwrap().as_array().unwrap();
    let skipped = |column: &str| {
        let gate = gates
            .iter()
            .find(|g| g.get("column").unwrap().as_str() == Some(column));
        gate.unwrap().get("skipped").unwrap().as_bool().unwrap()
    };
    assert!(!skipped("ns_per_op"));
    assert!(skipped("write_amp"));
    let aging = statuses(&diff, "aging_write_gc_greedy");
    assert_eq!(aging, [("ns_per_op".into(), "ok".into())]);
}

#[test]
fn update_rewrites_a_write_amp_only_regression_alone() {
    let dir = Dir::new("update");
    // The latency row moves too, within its threshold: it must keep the
    // baseline's bytes.
    let (base_doc, fresh_doc) = (matrix(false, 100.0, 1.5), matrix(false, 105.0, 1.65));
    let base = dir.write("base.json", &base_doc);
    let fresh = dir.write("fresh.json", &fresh_doc);
    let out = bench_diff(&dir, &base, Some(&fresh), &["--update"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // The aging record is the fresh one; every other byte is the baseline's.
    let records = |doc: &Value| doc.get("results").unwrap().as_array().unwrap().to_vec();
    let (b, f) = (records(&base_doc), records(&fresh_doc));
    let want = report(false, vec![b[0].clone(), f[1].clone(), b[2].clone()]);
    assert_eq!(std::fs::read_to_string(&base).unwrap(), pretty(&want));
    // The refreshed baseline passes against the same fresh report.
    let out = bench_diff(&dir, &base, Some(&fresh), &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn without_a_fresh_report_it_names_ftlbench() {
    let dir = Dir::new("usage");
    let base = dir.write("base.json", &matrix(false, 100.0, 1.5));
    let out = bench_diff(&dir, &base, None, &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ftlbench --out"), "stderr: {stderr}");
    assert!(!dir.path("diff.json").exists(), "no comparison ran");
}
