//! Design-choice ablation: the selective-prefetch activation threshold.
//!
//! Section 4.3: "we empirically found that most sequential accesses in
//! workloads can be well recognized when we set the threshold as 3". This
//! experiment sweeps the threshold and reports hit ratio, dirty-replacement
//! probability and response time on a sequential (MSR-ts) and a random
//! (Financial1) workload, justifying the paper's choice.

use serde::{Deserialize, Serialize};
use tpftl_core::ftl::TpftlConfig;
use tpftl_sim::Ssd;
use tpftl_trace::presets::Workload;

use crate::runner::{self, ExperimentOutput, Scale};

/// Thresholds swept (the paper picks 3).
pub const THRESHOLDS: [i32; 6] = [1, 2, 3, 4, 6, 8];

/// One sweep point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThresholdPoint {
    /// Workload name.
    pub workload: String,
    /// Counter threshold.
    pub threshold: i32,
    /// Cache hit ratio.
    pub hit_ratio: f64,
    /// Probability of replacing a dirty entry.
    pub prd: f64,
    /// Average response time (µs).
    pub avg_response_us: f64,
}

/// Runs the threshold sweep.
pub fn run(scale: Scale) -> ExperimentOutput {
    let jobs: Vec<(Workload, i32)> = [Workload::Financial1, Workload::MsrTs]
        .iter()
        .flat_map(|&w| THRESHOLDS.iter().map(move |&t| (w, t)))
        .collect();
    let points: Vec<ThresholdPoint> = runner::run_parallel(jobs, |&(w, t)| {
        let config = runner::device_config(w);
        let cfg = TpftlConfig {
            counter_threshold: t,
            ..TpftlConfig::full()
        };
        let ftl = tpftl_core::ftl::TpFtl::new(&config, cfg).expect("budget fits");
        let mut ssd = Ssd::new(ftl, config).expect("ssd");
        let spec = w.spec(scale.requests(w));
        let r = ssd.run(spec.iter(runner::SEED)).expect("run");
        ThresholdPoint {
            workload: w.name().to_string(),
            threshold: t,
            hit_ratio: r.hit_ratio(),
            prd: r.dirty_replacement_prob(),
            avg_response_us: r.sim.resp_avg_us,
        }
    });

    let mut text =
        String::from("Design ablation: selective-prefetch activation threshold (paper: 3)\n");
    text.push_str(&format!(
        "{:<12} {:>10} {:>8} {:>8} {:>11}\n",
        "workload", "threshold", "hit", "Prd", "resp (us)"
    ));
    for p in &points {
        text.push_str(&format!(
            "{:<12} {:>10} {:>7.1}% {:>7.1}% {:>11.0}\n",
            p.workload,
            p.threshold,
            p.hit_ratio * 100.0,
            p.prd * 100.0,
            p.avg_response_us
        ));
    }

    ExperimentOutput {
        id: "threshold".to_string(),
        text,
        json: serde_json::to_value(&points).expect("serializable"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_threshold_sweep() {
        let out = run(Scale(0.00002));
        let points: Vec<ThresholdPoint> = serde_json::from_value(out.json.clone()).unwrap();
        assert_eq!(points.len(), 12);
    }
}
