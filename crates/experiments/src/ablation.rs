//! Figures 7(b), 7(c), 8(a), 8(b): per-technique ablation on Financial1.
//!
//! Eight TPFTL configurations (`–`, `b`, `c`, `bc`, `r`, `s`, `rs`,
//! `rsbc`) plus DFTL, each measured for the probability of replacing a
//! dirty entry, hit ratio, system response time and write amplification.

use serde::{Deserialize, Serialize};
use tpftl_trace::presets::Workload;

use crate::runner::{self, ExperimentOutput, FtlKind, Scale};

/// The configurations of Figures 7/8, in the paper's plotting order.
pub const CONFIGS: [&str; 8] = ["", "b", "c", "bc", "r", "s", "rs", "rsbc"];

/// One configuration's measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Configuration label (`DFTL`, `–`, `b`, ..., `rsbc`).
    pub config: String,
    /// Figure 7(b): probability of replacing a dirty entry.
    pub prd: f64,
    /// Figure 7(c): cache hit ratio.
    pub hit_ratio: f64,
    /// Figure 8(a): average response time in µs.
    pub avg_response_us: f64,
    /// Figure 8(b): write amplification.
    pub write_amplification: f64,
}

/// Runs the ablation grid on Financial1.
pub fn run(scale: Scale) -> ExperimentOutput {
    let w = Workload::Financial1;
    let mut jobs: Vec<(String, FtlKind)> = vec![("DFTL".into(), FtlKind::Dftl)];
    for flags in CONFIGS {
        let label = if flags.is_empty() {
            "–".to_string()
        } else {
            flags.to_string()
        };
        jobs.push((label, FtlKind::variant(flags)));
    }
    let rows: Vec<AblationRow> = runner::run_parallel(jobs, |(label, kind)| {
        let config = runner::device_config(w);
        let r = runner::run_one(*kind, w, scale, &config).expect("simulation failed");
        AblationRow {
            config: label.clone(),
            prd: r.dirty_replacement_prob(),
            hit_ratio: r.hit_ratio(),
            avg_response_us: r.sim.resp_avg_us,
            write_amplification: r.write_amplification(),
        }
    });

    let dftl_resp = rows[0].avg_response_us;
    let mut text =
        String::from("Figures 7(b)/7(c)/8(a)/8(b): TPFTL technique ablation on Financial1\n");
    text.push_str(&format!(
        "{:<6} {:>8} {:>8} {:>12} {:>6}\n",
        "config", "Prd", "hit", "resp(norm)", "WA"
    ));
    for r in &rows {
        text.push_str(&format!(
            "{:<6} {:>7.1}% {:>7.1}% {:>12.3} {:>6.2}\n",
            r.config,
            r.prd * 100.0,
            r.hit_ratio * 100.0,
            if dftl_resp > 0.0 {
                r.avg_response_us / dftl_resp
            } else {
                0.0
            },
            r.write_amplification
        ));
    }
    text.push_str(
        "(paper: 'b' cuts Prd sharply, 'c' adds a further ~54% cut on top of 'b';\n \
         'r'/'s'/'rs' lift the hit ratio by ~4.7/5.6/11 points; 'bc' cuts response\n \
         time 24.9% and WA 21.1% vs '–'; 'rs' cuts them 10.4% and 9.1%)\n",
    );

    ExperimentOutput {
        id: "fig7_8_ablation".to_string(),
        text,
        json: serde_json::to_value(&rows).expect("serializable"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_ablation() {
        let out = run(Scale(0.00002));
        let rows: Vec<AblationRow> = serde_json::from_value(out.json.clone()).unwrap();
        assert_eq!(rows.len(), 9);
        assert_eq!(rows[0].config, "DFTL");
        assert_eq!(rows[8].config, "rsbc");
        assert!(out.text.contains("ablation"));
    }
}
