//! Figure 6 (a)–(f) and Figure 7(a): the paper's main comparison.
//!
//! Four workloads × {DFTL, TPFTL, S-FTL, Optimal} (CDFTL optional — the
//! paper measured it but dropped it from the plots): probability of
//! replacing a dirty entry, cache hit ratio, translation page reads/writes
//! (normalized to DFTL), average system response time (normalized to DFTL),
//! write amplification, and block erase count (normalized to DFTL).

use serde::{Deserialize, Serialize};
use tpftl_sim::RunReport;
use tpftl_trace::presets::Workload;

use crate::runner::{self, ExperimentOutput, FtlKind, Scale};

/// One (workload, FTL) cell of Figure 6/7a.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Workload name.
    pub workload: String,
    /// FTL name.
    pub ftl: String,
    /// Figure 6(a): probability of replacing a dirty entry.
    pub prd: f64,
    /// Figure 6(b): cache hit ratio.
    pub hit_ratio: f64,
    /// Figure 6(c): translation page reads (absolute count).
    pub trans_reads: u64,
    /// Figure 6(d): translation page writes (absolute count).
    pub trans_writes: u64,
    /// Figure 6(e): average system response time in µs.
    pub avg_response_us: f64,
    /// Figure 6(f): overall write amplification.
    pub write_amplification: f64,
    /// Figure 7(a): block erases.
    pub erases: u64,
    /// GC hit ratio (model input; not plotted but reported).
    pub gc_hit_ratio: f64,
}

impl Fig6Row {
    fn from_report(workload: Workload, r: &RunReport) -> Self {
        Self {
            workload: workload.name().to_string(),
            ftl: r.ftl.clone(),
            prd: r.dirty_replacement_prob(),
            hit_ratio: r.hit_ratio(),
            trans_reads: r.translation_reads(),
            trans_writes: r.translation_writes(),
            avg_response_us: r.sim.resp_avg_us,
            write_amplification: r.write_amplification(),
            erases: r.erase_count(),
            gc_hit_ratio: r.ftl_stats.gc_hit_ratio(),
        }
    }
}

/// Runs the Figure 6 grid and renders the paper-style tables.
pub fn run(scale: Scale, include_cdftl: bool) -> ExperimentOutput {
    let mut kinds = FtlKind::FIG6.to_vec();
    if include_cdftl {
        kinds.insert(2, FtlKind::Cdftl);
    }
    let jobs: Vec<(Workload, FtlKind)> = Workload::ALL
        .iter()
        .flat_map(|&w| kinds.iter().map(move |&k| (w, k)))
        .collect();
    let rows: Vec<Fig6Row> = runner::run_parallel(jobs, |&(w, k)| {
        let config = runner::device_config(w);
        let report = runner::run_one(k, w, scale, &config).expect("simulation failed");
        Fig6Row::from_report(w, &report)
    });

    let text = render(&rows);
    ExperimentOutput {
        id: "fig6".to_string(),
        text,
        json: serde_json::to_value(&rows).expect("serializable"),
    }
}

/// Renders the rows as one table per workload, normalized to DFTL where
/// the paper normalizes.
pub fn render(rows: &[Fig6Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "Figure 6(a)-(f) + Figure 7(a): main comparison").unwrap();
    writeln!(
        out,
        "{:<11} {:<12} {:>7} {:>7} {:>9} {:>9} {:>10} {:>6} {:>9}",
        "workload", "FTL", "Prd", "hit", "T-reads", "T-writes", "resp(norm)", "WA", "erases(n)"
    )
    .unwrap();
    for w in rows
        .iter()
        .map(|r| r.workload.clone())
        .collect::<indexset::Set>()
    {
        let group: Vec<&Fig6Row> = rows.iter().filter(|r| r.workload == w).collect();
        let dftl = group
            .iter()
            .find(|r| r.ftl == "DFTL")
            .expect("DFTL baseline present");
        for r in &group {
            let norm = |x: f64, base: f64| if base > 0.0 { x / base } else { 0.0 };
            writeln!(
                out,
                "{:<11} {:<12} {:>6.1}% {:>6.1}% {:>9.3} {:>9.3} {:>10.3} {:>6.2} {:>9.3}",
                r.workload,
                r.ftl,
                r.prd * 100.0,
                r.hit_ratio * 100.0,
                norm(r.trans_reads as f64, dftl.trans_reads as f64),
                norm(r.trans_writes as f64, dftl.trans_writes as f64),
                norm(r.avg_response_us, dftl.avg_response_us),
                r.write_amplification,
                norm(r.erases as f64, dftl.erases as f64),
            )
            .unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Tiny ordered-set helper so workloads render in first-seen order.
mod indexset {
    /// An insertion-ordered string set collectible from an iterator.
    pub struct Set(Vec<String>);

    impl FromIterator<String> for Set {
        fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
            let mut v: Vec<String> = Vec::new();
            for s in iter {
                if !v.contains(&s) {
                    v.push(s);
                }
            }
            Set(v)
        }
    }

    impl IntoIterator for Set {
        type Item = String;
        type IntoIter = std::vec::IntoIter<String>;
        fn into_iter(self) -> Self::IntoIter {
            self.0.into_iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_renders() {
        let out = run(Scale(0.00002), false);
        assert_eq!(out.id, "fig6");
        assert!(out.text.contains("Financial1"));
        assert!(out.text.contains("TPFTL(rsbc)"));
        assert!(out.text.contains("Optimal"));
        let rows: Vec<Fig6Row> = serde_json::from_value(out.json.clone()).unwrap();
        assert_eq!(rows.len(), 16);
        // The optimal FTL never touches translation pages.
        for r in rows.iter().filter(|r| r.ftl == "Optimal") {
            assert_eq!(r.trans_reads, 0);
            assert_eq!(r.trans_writes, 0);
            assert_eq!(r.hit_ratio, 1.0);
        }
    }
}
