//! Figures 8(c) and 9(a)–(c): impact of cache sizes on TPFTL.
//!
//! Cache sizes are normalized to the full page-level mapping table (8 B per
//! entry); `1/128` is the paper's default configuration and `1` holds the
//! entire table. For each (workload, fraction) point the complete TPFTL is
//! measured for the probability of replacing a dirty entry (8c), the hit
//! ratio (9a), the response time normalized to the full-cache run (9b),
//! and the write amplification (9c).

use serde::{Deserialize, Serialize};
use tpftl_trace::presets::Workload;

use crate::runner::{self, ExperimentOutput, FtlKind, Scale};

/// The sweep points (fractions of the full mapping table).
pub const FRACTIONS: [f64; 8] = [
    1.0 / 128.0,
    1.0 / 64.0,
    1.0 / 32.0,
    1.0 / 16.0,
    1.0 / 8.0,
    1.0 / 4.0,
    1.0 / 2.0,
    1.0,
];

/// One sweep point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Workload name.
    pub workload: String,
    /// Cache size as a fraction of the full table.
    pub fraction: f64,
    /// Figure 8(c).
    pub prd: f64,
    /// Figure 9(a).
    pub hit_ratio: f64,
    /// Figure 9(b) input: absolute response time in µs.
    pub avg_response_us: f64,
    /// Figure 9(c).
    pub write_amplification: f64,
}

/// Runs the cache-size sweep for TPFTL on all workloads.
pub fn run(scale: Scale) -> ExperimentOutput {
    let jobs: Vec<(Workload, f64)> = Workload::ALL
        .iter()
        .flat_map(|&w| FRACTIONS.iter().map(move |&f| (w, f)))
        .collect();
    let points: Vec<SweepPoint> = runner::run_parallel(jobs, |&(w, f)| {
        let config = runner::device_config(w).with_cache_fraction(f);
        let r = runner::run_one(FtlKind::Tpftl, w, scale, &config).expect("simulation failed");
        SweepPoint {
            workload: w.name().to_string(),
            fraction: f,
            prd: r.dirty_replacement_prob(),
            hit_ratio: r.hit_ratio(),
            avg_response_us: r.sim.resp_avg_us,
            write_amplification: r.write_amplification(),
        }
    });

    let mut text = String::from("Figures 8(c), 9(a)-(c): impact of cache sizes on TPFTL (rsbc)\n");
    text.push_str(&format!(
        "{:<12} {:>8} {:>8} {:>8} {:>12} {:>6}\n",
        "workload", "cache", "Prd", "hit", "resp(norm)", "WA"
    ));
    for w in Workload::ALL {
        let group: Vec<&SweepPoint> = points.iter().filter(|p| p.workload == w.name()).collect();
        let full = group.last().expect("fraction 1 present").avg_response_us;
        for p in &group {
            text.push_str(&format!(
                "{:<12} {:>8} {:>7.1}% {:>7.1}% {:>12.3} {:>6.2}\n",
                p.workload,
                format!("1/{:.0}", 1.0 / p.fraction),
                p.prd * 100.0,
                p.hit_ratio * 100.0,
                if full > 0.0 {
                    p.avg_response_us / full
                } else {
                    0.0
                },
                p.write_amplification
            ));
        }
        text.push('\n');
    }
    text.push_str(
        "(paper: Prd falls to 0% and hit ratio reaches 100% at full cache; larger\n \
         caches help the Financial workloads much more than the MSR ones)\n",
    );

    ExperimentOutput {
        id: "fig8c_9_cachesweep".to_string(),
        text,
        json: serde_json::to_value(&points).expect("serializable"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-fraction mini-sweep validating the full-cache limits the paper
    /// reports: 100% hit ratio, 0% dirty replacements.
    #[test]
    fn full_cache_limits() {
        let w = Workload::Financial1;
        let config = runner::device_config(w).with_cache_fraction(1.0);
        let r = runner::run_one(FtlKind::Tpftl, w, Scale(0.00002), &config).unwrap();
        // At tiny scale cold misses dominate the hit ratio, but with the
        // whole table fitting there are never any replacements.
        assert!(r.hit_ratio() > 0.3, "hit={}", r.hit_ratio());
        assert_eq!(r.dirty_replacement_prob(), 0.0);
        assert_eq!(r.ftl_stats.replacements, 0);
    }
}
