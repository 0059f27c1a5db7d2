//! `compare A.json B.json`: did B get worse than A by more than a bound?
//!
//! The rule is the one the driver and the design guides use: per
//! (workload, end-to-end metric), B's median may be worse than A's by at
//! most the metric's bound, as a share of A's median. Where the
//! repetitions inside either file spread wider than the bound the metric
//! is `unresolved`, not `ok` — unless every repetition of B reads better
//! than every repetition of A (then `ok`), or every one reads worse and the
//! medians differ by more than the bound (then `regressed`).

use serde_json::Value;

use crate::host::{agree, COMPARABLE};
use crate::metrics::Better;
use crate::stat::spread;

/// A bound from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub metric: String,
    /// Direction.
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// The outcome for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Run-to-run spread is wider than the bound; nothing can be said.
    Unresolved,
}

impl Verdict {
    /// The word printed.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// A's and B's reported values.
    pub values: (f64, f64),
    /// How much worse B is, as a share of A (negative = better).
    pub worse: f64,
    /// The wider of the two files' inter-quartile spreads.
    pub spread: f64,
    /// The bound applied.
    pub bound: f64,
    /// The outcome.
    pub verdict: Verdict,
}

/// Reads the end-to-end bounds out of a parsed `BENCHMARK.json`.
pub fn bounds_of(benchmark: &Value) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let metric = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{metric}: bad direction {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{metric}: no bound"))?;
            Ok(Bound {
                metric: metric.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// `(value, samples)` of `metric` in a workload entry of a result file.
fn measured(entry: &Value, metric: &str) -> Option<(f64, Vec<f64>)> {
    let m = entry.get("metrics")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let samples = match m.get("samples").and_then(Value::as_array) {
        Some(list) => list.iter().filter_map(Value::as_f64).collect(),
        None => vec![value],
    };
    Some((value, samples))
}

fn judge(bound: &Bound, a: (f64, &[f64]), b: (f64, &[f64])) -> (f64, f64, Verdict) {
    let sign = match bound.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse = if a.0 == b.0 {
        0.0
    } else {
        sign * (b.0 - a.0) / a.0.abs()
    };
    let spread = spread(a.1).max(spread(b.1));
    // Signed so that larger is always worse.
    let badness = |xs: &[f64]| xs.iter().map(|x| sign * x).collect::<Vec<_>>();
    let (bad_a, bad_b) = (badness(a.1), badness(b.1));
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let verdict = if spread > bound.bound {
        if max(&bad_b) < min(&bad_a) {
            Verdict::Ok
        } else if min(&bad_b) > max(&bad_a) && worse > bound.bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, spread, verdict)
}

/// Compares result file `b` against result file `a`.
///
/// # Errors
///
/// Refuses files whose `host` blocks differ in anything but the commit,
/// `--quick` files, and files with no workload in common.
pub fn compare(a: &Value, b: &Value, bounds: &[Bound]) -> Result<Vec<Row>, String> {
    let host = |file: &Value| file.get("host").cloned().unwrap_or(Value::Null);
    let (host_a, host_b) = (host(a), host(b));
    if let Some(key) = COMPARABLE.iter().find(|key| !agree(&host_a, &host_b, key)) {
        return Err(format!(
            "host.{key} differs or is missing: {:?} vs {:?}",
            host_a.get(key),
            host_b.get(key)
        ));
    }
    if host_a.get("quick") != Some(&Value::Bool(false)) {
        return Err("--quick results are for tests, not for comparing".to_string());
    }
    let workloads = |file: &Value| {
        file.get("workloads")
            .and_then(Value::as_object)
            .map(<[_]>::to_vec)
    };
    let (wa, wb) = (
        workloads(a).ok_or("first file has no workloads")?,
        workloads(b).ok_or("second file has no workloads")?,
    );
    let mut rows = Vec::new();
    for (name, entry_a) in &wa {
        let Some((_, entry_b)) = wb.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for bound in bounds {
            let (Some(ma), Some(mb)) = (
                measured(entry_a, &bound.metric),
                measured(entry_b, &bound.metric),
            ) else {
                return Err(format!("{name}: {} is missing from a file", bound.metric));
            };
            let (worse, spread, verdict) = judge(bound, (ma.0, &ma.1), (mb.0, &mb.1));
            rows.push(Row {
                workload: name.clone(),
                metric: bound.metric.clone(),
                values: (ma.0, mb.0),
                worse,
                spread,
                bound: bound.bound,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the files have no workload in common".to_string());
    }
    Ok(rows)
}
