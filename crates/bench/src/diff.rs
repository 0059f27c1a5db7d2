//! Comparison of two `ftlbench-v1` reports — the perf-regression gate.
//!
//! The baseline is the committed `BENCH_ftl.json`, the fresh side a
//! report `ftlbench --out` wrote. [`DiffReport::diff_column`] compares one
//! numeric column of every `(scenario, ftl)` record the [`Select`] keeps,
//! and the gate calls it once per gated column: `ns_per_op` (host time)
//! and `write_amp` (the GC-quality rows' copy amplification). A row
//! regresses when its fresh value exceeds the baseline's by more than the
//! column's threshold percentage; a baseline row absent from the fresh
//! report is also a failure (a silently dropped scenario must not pass the
//! gate). Fresh rows with no baseline counterpart are reported as `new`
//! and do not fail the gate, so adding a scenario does not require a
//! lockstep baseline refresh.

use serde_json::Value;

/// Verdict for one `(scenario, ftl, column)` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowStatus {
    /// Within the threshold (including improvements).
    Ok,
    /// Fresh value exceeds baseline by more than the threshold.
    Regression,
    /// Present only in the fresh report.
    New,
    /// Present only in the baseline — the scenario silently disappeared.
    Missing,
}

impl RowStatus {
    fn as_str(self) -> &'static str {
        match self {
            RowStatus::Ok => "ok",
            RowStatus::Regression => "REGRESSION",
            RowStatus::New => "new",
            RowStatus::Missing => "MISSING",
        }
    }
}

/// One compared column of one `(scenario, ftl)` record.
#[derive(Debug, Clone)]
pub struct DiffRow {
    pub scenario: String,
    pub ftl: String,
    /// The record field compared, e.g. `ns_per_op` or `write_amp`.
    pub column: &'static str,
    pub baseline: Option<f64>,
    pub fresh: Option<f64>,
    /// `(fresh - baseline) / baseline * 100`; `None` for one-sided rows.
    pub delta_pct: Option<f64>,
    pub status: RowStatus,
}

impl DiffRow {
    /// True when the row regressed or went missing.
    pub fn fails(&self) -> bool {
        matches!(self.status, RowStatus::Regression | RowStatus::Missing)
    }
}

/// The `scenario/ftl` ids a comparison reads: those containing `filter`
/// (when given) and none of the comma-separated `exclude` patterns. Both
/// sides and every column go through the same selection, so a filtered
/// fresh run is not penalized for the baseline rows it never attempted,
/// and rows gated separately (e.g. `shard,chans`: the sharded-replay and
/// channel-sweep rows, too noisy on an oversubscribed CI runner for the
/// strict threshold) are dropped from every column.
pub struct Select<'a> {
    filter: Option<&'a str>,
    exclude: Vec<&'a str>,
}

impl<'a> Select<'a> {
    pub fn new(filter: Option<&'a str>, exclude: Option<&'a str>) -> Result<Self, String> {
        let mut pats = Vec::new();
        if let Some(list) = exclude {
            pats = list.split(',').map(str::trim).collect();
            // A stray comma (`"shard,,chan"`) yields an empty item, which
            // is always a typo — rejecting it loudly beats silently
            // ignoring a pattern the caller thought was active.
            if pats.iter().any(|p| p.is_empty()) {
                return Err(format!(
                    "exclude list {list:?} contains an empty pattern \
                     (stray leading, trailing, or doubled comma?)"
                ));
            }
        }
        Ok(Select {
            filter,
            exclude: pats,
        })
    }

    fn keeps(&self, scenario: &str, ftl: &str) -> bool {
        let id = format!("{scenario}/{ftl}");
        self.filter.is_none_or(|f| id.contains(f)) && !self.exclude.iter().any(|p| id.contains(p))
    }
}

/// A checked `ftlbench-v1` report: every record has a `scenario`, an `ftl`
/// and a numeric `ns_per_op`.
pub struct Report<'a> {
    /// Whether `ftlbench --quick` sized the run.
    pub quick: bool,
    /// `(scenario, ftl, record)` in document order.
    records: Vec<(&'a str, &'a str, &'a Value)>,
}

impl<'a> Report<'a> {
    /// Checks `doc`; `name` labels it (which file or side) so a malformed
    /// report is identifiable from the error alone.
    pub fn new(doc: &'a Value, name: &str) -> Result<Self, String> {
        let results = doc
            .get("results")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{name}: report has no `results` array"))?;
        let records = results
            .iter()
            .enumerate()
            .map(|(i, r)| {
                // Identify the offending record by scenario name when it
                // has one, by position otherwise.
                let ident = || match r.get("scenario").and_then(Value::as_str) {
                    Some(s) => format!("{name}: result record {i} (scenario `{s}`)"),
                    None => format!("{name}: result record {i}"),
                };
                let field = |k: &str| {
                    r.get(k)
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("{} missing `{k}`", ident()))
                };
                if r.get("ns_per_op").and_then(Value::as_f64).is_none() {
                    return Err(format!("{} missing `ns_per_op`", ident()));
                }
                Ok((field("scenario")?, field("ftl")?, r))
            })
            .collect::<Result<_, String>>()?;
        let quick = doc.get("quick").and_then(Value::as_bool).unwrap_or(false);
        Ok(Report { quick, records })
    }

    /// `(scenario, ftl, value)` of the selected records that carry `column`.
    fn column(&self, column: &str, select: &Select) -> Vec<(&'a str, &'a str, f64)> {
        self.records
            .iter()
            .filter(|(s, f, _)| select.keeps(s, f))
            .filter_map(|&(s, f, r)| Some((s, f, r.get(column)?.as_f64()?)))
            .collect()
    }
}

/// One gated column and its regression threshold; `skipped` when the two
/// reports cannot be compared on it.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    pub column: &'static str,
    pub threshold_pct: f64,
    pub skipped: bool,
}

/// The full comparison, ready to render or serialize.
#[derive(Debug, Default)]
pub struct DiffReport {
    pub gates: Vec<Gate>,
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// Compares `column` of every record `select` keeps and that carries
    /// the column, at `threshold_pct`. Records without it (the latency
    /// rows have no `write_amp`) are not compared on it; a baseline record
    /// whose fresh counterpart lacks it is `MISSING`.
    pub fn diff_column(
        &mut self,
        baseline: &Report,
        fresh: &Report,
        column: &'static str,
        threshold_pct: f64,
        select: &Select,
    ) {
        let base = baseline.column(column, select);
        let new = fresh.column(column, select);
        let row = |scenario: &str, ftl: &str, baseline, fresh| {
            let delta_pct = match (baseline, fresh) {
                // An absolute floor of 0.01 keeps near-zero baselines from
                // turning round-off into a percentage explosion.
                (Some(b), Some(f)) => Some((f - b) / f64::max(b, 0.01) * 100.0),
                _ => None,
            };
            let status = match (baseline, delta_pct) {
                (None, _) => RowStatus::New,
                (Some(_), None) => RowStatus::Missing,
                (Some(_), Some(d)) if d > threshold_pct => RowStatus::Regression,
                _ => RowStatus::Ok,
            };
            DiffRow {
                scenario: scenario.to_string(),
                ftl: ftl.to_string(),
                column,
                baseline,
                fresh,
                delta_pct,
                status,
            }
        };
        let find = |rows: &[(&str, &str, f64)], scenario: &str, ftl: &str| {
            rows.iter()
                .find(|&&(s, f, _)| s == scenario && f == ftl)
                .map(|&(_, _, v)| v)
        };
        for &(s, f, b) in &base {
            self.rows.push(row(s, f, Some(b), find(&new, s, f)));
        }
        for &(s, f, v) in &new {
            if find(&base, s, f).is_none() {
                self.rows.push(row(s, f, None, Some(v)));
            }
        }
        self.gates.push(Gate {
            column,
            threshold_pct,
            skipped: false,
        });
    }

    /// Records `column` as not compared (the reports were sized apart).
    pub fn skip_column(&mut self, column: &'static str, threshold_pct: f64) {
        self.gates.push(Gate {
            column,
            threshold_pct,
            skipped: true,
        });
    }

    /// True when any row regressed or went missing — the gate's exit code.
    pub fn has_failure(&self) -> bool {
        self.rows.iter().any(DiffRow::fails)
    }

    /// The `(scenario, ftl)` records `--update` rewrites, each once: those
    /// with a column that regressed, is new, or fell by more than its
    /// column's threshold (a row that got faster must be refreshable too,
    /// or a stale-slow baseline would loosen its gate for good).
    pub fn stale(&self) -> Vec<(&str, &str)> {
        let mut stale = Vec::new();
        for r in &self.rows {
            let gate = self.gates.iter().find(|g| g.column == r.column);
            let faster = r
                .delta_pct
                .zip(gate)
                .is_some_and(|(d, g)| d < -g.threshold_pct);
            let key = (r.scenario.as_str(), r.ftl.as_str());
            if (faster || matches!(r.status, RowStatus::Regression | RowStatus::New))
                && !stale.contains(&key)
            {
                stale.push(key);
            }
        }
        stale
    }

    pub fn to_json(&self) -> Value {
        let obj = |fields: Vec<(&str, Value)>| {
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        let opt = |v: Option<f64>| v.map_or(Value::Null, Value::Float);
        let gates = self.gates.iter().map(|g| {
            obj(vec![
                ("column", Value::Str(g.column.to_string())),
                ("threshold_pct", Value::Float(g.threshold_pct)),
                ("skipped", Value::Bool(g.skipped)),
            ])
        });
        let rows = self.rows.iter().map(|r| {
            obj(vec![
                ("scenario", Value::Str(r.scenario.clone())),
                ("ftl", Value::Str(r.ftl.clone())),
                ("column", Value::Str(r.column.to_string())),
                ("baseline", opt(r.baseline)),
                ("fresh", opt(r.fresh)),
                ("delta_pct", opt(r.delta_pct)),
                ("status", Value::Str(r.status.as_str().to_string())),
            ])
        });
        obj(vec![
            ("schema", Value::Str("ftlbench-diff-v2".to_string())),
            ("failed", Value::Bool(self.has_failure())),
            ("gates", Value::Array(gates.collect())),
            ("rows", Value::Array(rows.collect())),
        ])
    }

    /// Renders the human-readable comparison table.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "{:<26} {:<14} {:<9} {:>12} {:>12} {:>8}  {}\n",
            "scenario", "ftl", "column", "baseline", "fresh", "delta", "status"
        );
        let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |n| format!("{n:.3}"));
        for r in &self.rows {
            let delta = r
                .delta_pct
                .map_or_else(|| "-".to_string(), |d| format!("{d:+.1}%"));
            out.push_str(&format!(
                "{:<26} {:<14} {:<9} {:>12} {:>12} {:>8}  {}\n",
                r.scenario,
                r.ftl,
                r.column,
                fmt(r.baseline),
                fmt(r.fresh),
                delta,
                r.status.as_str()
            ));
        }
        out
    }
}

/// The `(scenario, ftl)` key of one result record, if it has both fields.
fn record_key(record: &Value) -> Option<(&str, &str)> {
    Some((
        record.get("scenario")?.as_str()?,
        record.get("ftl")?.as_str()?,
    ))
}

/// Implements `bench-diff --update`: returns a copy of `baseline` in which
/// every `stale` record (see [`DiffReport::stale`]) is replaced by (or, for
/// new rows, appended from) its full fresh record. Every other record —
/// and every record the comparison never saw because of `--filter` /
/// `--exclude` — keeps its baseline values untouched, so refreshing one
/// drifted row does not churn the rest of the committed baseline.
pub fn apply_update(
    baseline: &Value,
    fresh: &Value,
    stale: &[(&str, &str)],
) -> Result<Value, String> {
    let fresh_results = fresh
        .get("results")
        .and_then(Value::as_array)
        .ok_or("fresh report has no `results` array")?;
    let fresh_record = |key: (&str, &str)| {
        fresh_results
            .iter()
            .find(|r| record_key(r) == Some(key))
            .cloned()
            .ok_or_else(|| format!("fresh report lost row {}/{}", key.0, key.1))
    };

    let Value::Object(fields) = baseline else {
        return Err("baseline report is not an object".to_string());
    };
    let mut updated = Vec::with_capacity(fields.len());
    for (name, value) in fields {
        if name != "results" {
            updated.push((name.clone(), value.clone()));
            continue;
        }
        let records = value
            .as_array()
            .ok_or("baseline `results` is not an array")?;
        let mut new_records = Vec::with_capacity(records.len());
        for record in records {
            match record_key(record) {
                Some(key) if stale.contains(&key) => new_records.push(fresh_record(key)?),
                _ => new_records.push(record.clone()),
            }
        }
        // Brand-new rows (no baseline counterpart) append in fresh order.
        for record in fresh_results {
            if let Some(key) = record_key(record) {
                if stale.contains(&key) && !records.iter().any(|r| record_key(r) == Some(key)) {
                    new_records.push(record.clone());
                }
            }
        }
        updated.push((name.clone(), Value::Array(new_records)));
    }
    Ok(Value::Object(updated))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(scenario: &str, ftl: &str, ns: f64, wa: Option<f64>) -> Value {
        let mut fields = vec![
            ("scenario".to_string(), Value::Str(scenario.to_string())),
            ("ftl".to_string(), Value::Str(ftl.to_string())),
            ("ns_per_op".to_string(), Value::Float(ns)),
        ];
        if let Some(wa) = wa {
            fields.push(("write_amp".to_string(), Value::Float(wa)));
        }
        Value::Object(fields)
    }

    fn doc(records: Vec<Value>) -> Value {
        Value::Object(vec![
            ("schema".to_string(), Value::Str("ftlbench-v1".to_string())),
            ("results".to_string(), Value::Array(records)),
        ])
    }

    fn report(rows: &[(&str, &str, f64)]) -> Value {
        doc(rows
            .iter()
            .map(|&(s, f, ns)| record(s, f, ns, None))
            .collect())
    }

    /// Report builder whose rows also carry the GC-quality payload.
    fn gc_report(rows: &[(&str, &str, f64, f64)]) -> Value {
        doc(rows
            .iter()
            .map(|&(s, f, ns, wa)| record(s, f, ns, Some(wa)))
            .collect())
    }

    /// The gate over `columns` (each with its threshold), both sides run
    /// through one selection.
    fn gate_on(
        base: &Value,
        fresh: &Value,
        columns: &[(&'static str, f64)],
        filter: Option<&str>,
        exclude: Option<&str>,
    ) -> Result<DiffReport, String> {
        let select = Select::new(filter, exclude)?;
        let (base, fresh) = (Report::new(base, "b")?, Report::new(fresh, "f")?);
        let mut d = DiffReport::default();
        for &(column, threshold) in columns {
            d.diff_column(&base, &fresh, column, threshold, &select);
        }
        Ok(d)
    }

    /// The `ns_per_op` gate at 15 %.
    fn gate(base: &Value, fresh: &Value, filter: Option<&str>) -> DiffReport {
        gate_on(base, fresh, &[("ns_per_op", 15.0)], filter, None).unwrap()
    }

    /// The negative test for the gate: a synthetic +50% regression on one
    /// row must fail the report while the in-threshold rows stay ok.
    #[test]
    fn synthetic_regression_fails_the_gate() {
        let base = report(&[("miss_scan", "TPFTL", 100.0), ("write_gc", "TPFTL", 80.0)]);
        let fresh = report(&[
            ("miss_scan", "TPFTL", 150.0), // +50%: regression
            ("write_gc", "TPFTL", 88.0),   // +10%: within threshold
        ]);
        let d = gate(&base, &fresh, None);
        assert!(d.has_failure());
        assert_eq!(d.rows[0].status, RowStatus::Regression);
        assert_eq!(d.rows[0].column, "ns_per_op");
        assert!((d.rows[0].delta_pct.unwrap() - 50.0).abs() < 1e-9);
        assert_eq!(d.rows[1].status, RowStatus::Ok);
    }

    #[test]
    fn improvement_and_exact_threshold_pass() {
        let base = report(&[("a", "x", 100.0), ("b", "x", 100.0)]);
        let fresh = report(&[("a", "x", 40.0), ("b", "x", 115.0)]);
        let d = gate(&base, &fresh, None);
        assert!(!d.has_failure());
        assert!(d.rows.iter().all(|r| r.status == RowStatus::Ok));
    }

    #[test]
    fn missing_scenario_fails_but_new_scenario_passes() {
        let base = report(&[("a", "x", 100.0)]);
        let fresh = report(&[("b", "x", 10.0)]);
        let d = gate(&base, &fresh, None);
        assert!(d.has_failure());
        assert_eq!(d.rows[0].status, RowStatus::Missing);
        assert_eq!(d.rows[1].status, RowStatus::New);

        let only_new = gate(&report(&[]), &fresh, None);
        assert!(!only_new.has_failure());
    }

    #[test]
    fn filter_restricts_both_sides() {
        let base = report(&[("a", "x", 100.0), ("b", "x", 100.0)]);
        let fresh = report(&[("a", "x", 101.0)]); // "b" never attempted
        let d = gate(&base, &fresh, Some("a/"));
        assert!(!d.has_failure());
        assert_eq!(d.rows.len(), 1);
    }

    #[test]
    fn exclude_drops_rows_from_both_sides() {
        let base = report(&[("a", "x", 100.0), ("a_shards4", "x", 100.0)]);
        let fresh = report(&[
            ("a", "x", 101.0),
            ("a_shards4", "x", 300.0), // would regress, but excluded
            ("b_shards2", "x", 10.0),  // would be `new`, but excluded
        ]);
        let d = gate_on(&base, &fresh, &[("ns_per_op", 15.0)], None, Some("shards")).unwrap();
        assert!(!d.has_failure());
        assert_eq!(d.rows.len(), 1);
        assert_eq!(d.rows[0].scenario, "a");
        // The exclusion reaches every column, the write-amp one included.
        let base = gc_report(&[("aging_write_gc_greedy", "TPFTL", 500.0, 1.0)]);
        let fresh = gc_report(&[("aging_write_gc_greedy", "TPFTL", 500.0, 2.0)]);
        let columns = [("ns_per_op", 15.0), ("write_amp", 5.0)];
        let d = gate_on(&base, &fresh, &columns, None, Some("aging")).unwrap();
        assert!(d.rows.is_empty());
        assert!(gate_on(&base, &fresh, &columns, None, None)
            .unwrap()
            .has_failure());
    }

    #[test]
    fn exclude_takes_a_comma_separated_list() {
        let base = report(&[("a", "x", 100.0), ("a_shards4", "x", 100.0)]);
        let fresh = report(&[
            ("a", "x", 101.0),
            ("a_shards4", "x", 300.0),     // excluded via "shards"
            ("replay_chans4", "x", 300.0), // excluded via "chans"
        ]);
        let d = gate_on(
            &base,
            &fresh,
            &[("ns_per_op", 15.0)],
            None,
            Some("shards,chans"),
        )
        .unwrap();
        assert!(!d.has_failure());
        assert_eq!(d.rows.len(), 1);
        assert_eq!(d.rows[0].scenario, "a");
    }

    #[test]
    fn exclude_rejects_empty_patterns() {
        let err = Select::new(None, Some("shard,,chan")).err().unwrap();
        assert!(err.contains("shard,,chan"), "got: {err}");
        assert!(err.contains("empty pattern"), "got: {err}");
        // A whitespace-only item trims to empty and is rejected too.
        let err = Select::new(None, Some("shard, ")).err().unwrap();
        assert!(err.contains("empty pattern"), "got: {err}");
        // Items are trimmed, so a spaced-out but well-formed list works.
        let base = report(&[("a", "x", 100.0)]);
        let fresh = report(&[("a", "x", 101.0)]);
        let ok = gate_on(
            &base,
            &fresh,
            &[("ns_per_op", 15.0)],
            None,
            Some(" shard , chan "),
        )
        .unwrap();
        assert!(!ok.has_failure());
        assert_eq!(ok.rows.len(), 1);
    }

    #[test]
    fn update_rewrites_only_regressed_and_new_rows() {
        let base = report(&[
            ("a", "x", 100.0), // drifts +50%: rewritten
            ("b", "x", 80.0),  // within threshold: kept byte for byte
        ]);
        let fresh = report(&[
            ("a", "x", 150.0),
            ("b", "x", 85.0),
            ("c", "x", 10.0), // new: appended
        ]);
        let d = gate(&base, &fresh, None);
        let updated = apply_update(&base, &fresh, &d.stale()).unwrap();
        let rows = updated.get("results").unwrap().as_array().unwrap();
        let ns = |i: usize| rows[i].get("ns_per_op").unwrap().as_f64().unwrap();
        let scenario = |i: usize| rows[i].get("scenario").unwrap().as_str().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!((scenario(0), ns(0)), ("a", 150.0));
        assert_eq!((scenario(1), ns(1)), ("b", 80.0), "ok row untouched");
        assert_eq!((scenario(2), ns(2)), ("c", 10.0), "new row appended");
        // The updated baseline passes the gate against the same fresh run.
        assert!(!gate(&updated, &fresh, None).has_failure());
    }

    /// A row that got faster by more than the threshold is stale too: a
    /// baseline that reads slower than the code lets the row regress that
    /// far unseen. One within the threshold keeps its committed bytes.
    #[test]
    fn update_refreshes_rows_that_got_faster() {
        let base = report(&[("gc_pick_deep", "Greedy", 273.0), ("b", "x", 100.0)]);
        let fresh = report(&[("gc_pick_deep", "Greedy", 60.0), ("b", "x", 90.0)]);
        let d = gate(&base, &fresh, None);
        assert!(!d.has_failure(), "getting faster never fails the gate");
        assert_eq!(d.rows[0].status, RowStatus::Ok);
        assert_eq!(d.stale(), [("gc_pick_deep", "Greedy")]);
        let updated = apply_update(&base, &fresh, &d.stale()).unwrap();
        let rows = updated.get("results").unwrap().as_array().unwrap();
        assert_eq!(rows[0].get("ns_per_op").unwrap().as_f64(), Some(60.0));
        assert_eq!(rows[1], base.get("results").unwrap().as_array().unwrap()[1]);
    }

    #[test]
    fn write_amp_gate_catches_copy_regressions() {
        let base = gc_report(&[
            ("aging_write_gc_multi", "TPFTL", 500.0, 0.5),
            ("aging_write_gc_greedy", "TPFTL", 500.0, 1.0),
        ]);
        let fresh = gc_report(&[
            ("aging_write_gc_multi", "TPFTL", 500.0, 0.8), // +60% wa: fails
            ("aging_write_gc_greedy", "TPFTL", 480.0, 1.02), // +2%: ok
        ]);
        let wa = [("write_amp", 5.0)];
        let d = gate_on(&base, &fresh, &wa, None, None).unwrap();
        assert!(d.has_failure());
        assert_eq!(d.rows[0].status, RowStatus::Regression);
        assert!((d.rows[0].delta_pct.unwrap() - 60.0).abs() < 1e-9);
        assert_eq!(d.rows[1].status, RowStatus::Ok);
        // A write-amp-only regression makes its record stale, alone.
        let both = gate_on(&base, &fresh, &[("ns_per_op", 15.0), wa[0]], None, None).unwrap();
        assert_eq!(both.stale(), [("aging_write_gc_multi", "TPFTL")]);
        // The wall-clock change alone never trips this gate; only the
        // write_amp payload does.
        let better = gc_report(&[
            ("aging_write_gc_multi", "TPFTL", 9000.0, 0.5),
            ("aging_write_gc_greedy", "TPFTL", 9000.0, 1.0),
        ]);
        assert!(!gate_on(&base, &better, &wa, None, None)
            .unwrap()
            .has_failure());
    }

    #[test]
    fn write_amp_gate_ignores_rows_without_the_payload() {
        // Plain latency rows (no write_amp field) are invisible to the
        // gate, so ordinary reports pass vacuously...
        let wa = [("write_amp", 5.0)];
        let base = report(&[("miss_scan", "TPFTL", 100.0)]);
        let fresh = report(&[("miss_scan", "TPFTL", 400.0)]);
        let d = gate_on(&base, &fresh, &wa, None, None).unwrap();
        assert!(d.rows.is_empty());
        assert!(!d.has_failure());
        // ...but a baseline GC-quality row silently dropped from the
        // fresh report fails, exactly like the ns/op gate's MISSING.
        let base = gc_report(&[("tenant_mix_multi", "DFTL", 500.0, 0.9)]);
        let d = gate_on(&base, &fresh, &wa, None, None).unwrap();
        assert!(d.has_failure());
        assert_eq!(d.rows[0].status, RowStatus::Missing);
        assert!(d.rows[0].fresh.is_none());
    }

    #[test]
    fn malformed_report_is_an_error() {
        let bad = Value::Object(vec![("schema".to_string(), Value::Str("x".to_string()))]);
        assert!(Report::new(&bad, "b").is_err());
    }

    #[test]
    fn errors_name_the_offending_report_and_record() {
        let bad = Value::Object(vec![("schema".to_string(), Value::Str("x".to_string()))]);
        let err = Report::new(&bad, "BENCH_ftl.json").err().unwrap();
        assert!(err.contains("BENCH_ftl.json"), "got: {err}");

        // A record missing `ns_per_op` is identified by side, position,
        // and scenario name.
        let miss_scan = Value::Object(vec![(
            "scenario".to_string(),
            Value::Str("miss_scan".to_string()),
        )]);
        let broken = doc(vec![record("a", "x", 1.0, None), miss_scan]);
        let err = Report::new(&broken, "fresh.json").err().unwrap();
        assert!(err.contains("fresh.json"), "got: {err}");
        assert!(err.contains("record 1"), "got: {err}");
        assert!(err.contains("miss_scan"), "got: {err}");
        assert!(err.contains("ns_per_op"), "got: {err}");
    }
}
