//! Table 2: deviations of DFTL from the optimal FTL.
//!
//! The paper reports, per workload, how far DFTL falls from the optimal
//! FTL: a *performance* deviation (fraction of DFTL's response time that is
//! overhead versus the optimal FTL: `(T_dftl − T_opt) / T_dftl`, 52.6–63.4 %
//! in the paper, 58.4 % average) and an *erasure* deviation
//! (`(E_dftl − E_opt) / E_dftl`, 30.4–56.2 %, 42.3 % average).

use serde::{Deserialize, Serialize};
use tpftl_trace::presets::Workload;

use crate::runner::{self, ExperimentOutput, FtlKind, Scale};

/// One workload column of Table 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Col {
    /// Workload name.
    pub workload: String,
    /// `(T_dftl − T_opt) / T_dftl`.
    pub performance_deviation: f64,
    /// `(E_dftl − E_opt) / E_dftl`.
    pub erasure_deviation: f64,
    /// DFTL average response time (µs).
    pub dftl_response_us: f64,
    /// Optimal average response time (µs).
    pub optimal_response_us: f64,
    /// DFTL block erases.
    pub dftl_erases: u64,
    /// Optimal block erases.
    pub optimal_erases: u64,
}

/// Runs Table 2.
pub fn run(scale: Scale) -> ExperimentOutput {
    let jobs: Vec<(Workload, FtlKind)> = Workload::ALL
        .iter()
        .flat_map(|&w| [(w, FtlKind::Dftl), (w, FtlKind::Optimal)])
        .collect();
    let reports = runner::run_parallel(jobs.clone(), |&(w, k)| {
        let config = runner::device_config(w);
        runner::run_one(k, w, scale, &config).expect("simulation failed")
    });

    let mut cols = Vec::new();
    for (i, w) in Workload::ALL.iter().enumerate() {
        let dftl = &reports[2 * i];
        let opt = &reports[2 * i + 1];
        let dev = |d: f64, o: f64| if d > 0.0 { (d - o) / d } else { 0.0 };
        cols.push(Table2Col {
            workload: w.name().to_string(),
            performance_deviation: dev(dftl.sim.resp_avg_us, opt.sim.resp_avg_us),
            erasure_deviation: dev(dftl.erase_count() as f64, opt.erase_count() as f64),
            dftl_response_us: dftl.sim.resp_avg_us,
            optimal_response_us: opt.sim.resp_avg_us,
            dftl_erases: dftl.erase_count(),
            optimal_erases: opt.erase_count(),
        });
    }

    let mut text = String::from("Table 2: deviations of DFTL from the optimal FTL\n");
    text.push_str(&format!(
        "{:<14} {:>12} {:>12}\n",
        "workload", "performance", "erasure"
    ));
    for c in &cols {
        text.push_str(&format!(
            "{:<14} {:>11.1}% {:>11.1}%\n",
            c.workload,
            c.performance_deviation * 100.0,
            c.erasure_deviation * 100.0
        ));
    }
    let avg_p: f64 = cols.iter().map(|c| c.performance_deviation).sum::<f64>() / cols.len() as f64;
    let avg_e: f64 = cols.iter().map(|c| c.erasure_deviation).sum::<f64>() / cols.len() as f64;
    text.push_str(&format!(
        "{:<14} {:>11.1}% {:>11.1}%   (paper: 58.4% / 42.3%)\n",
        "average",
        avg_p * 100.0,
        avg_e * 100.0
    ));

    ExperimentOutput {
        id: "table2".to_string(),
        text,
        json: serde_json::to_value(&cols).expect("serializable"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_table2() {
        let out = run(Scale(0.00002));
        let cols: Vec<Table2Col> = serde_json::from_value(out.json.clone()).unwrap();
        assert_eq!(cols.len(), 4);
        for c in cols {
            assert!(c.performance_deviation >= 0.0 && c.performance_deviation <= 1.0);
        }
        assert!(out.text.contains("average"));
    }
}
