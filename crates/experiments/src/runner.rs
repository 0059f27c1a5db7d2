//! Shared experiment machinery: the Section 5.1 device setup per workload,
//! a parallel run executor, and result persistence. FTL construction is
//! `tpftl_core::ftl::FtlKind`, re-exported here.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
pub use tpftl_core::ftl::FtlKind;
use tpftl_core::{Result, SsdConfig};
pub use tpftl_sim::run_parallel_with;
use tpftl_sim::{CacheSampler, RunReport, ShardedRunReport, ShardedSsd, Ssd};
use tpftl_trace::presets::Workload;

/// Default RNG seed for workload generation (fixed for reproducibility).
pub const SEED: u64 = 2015;

/// Experiment scale: multiplies the per-workload default request counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scale(pub f64);

impl Default for Scale {
    fn default() -> Self {
        Scale(1.0)
    }
}

impl Scale {
    /// Requests to generate for `workload` at this scale. Defaults follow
    /// the paper's "millions of user page accesses": 2 M requests for the
    /// Financial traces, 1 M for the (larger-request) MSR traces.
    pub fn requests(&self, workload: Workload) -> usize {
        let base = match workload {
            Workload::Financial1 | Workload::Financial2 => 2_000_000.0,
            // Large enough that the MSR volumes wrap into garbage
            // collection, as the week-long original traces do.
            Workload::MsrTs | Workload::MsrSrc => 2_500_000.0,
        };
        ((base * self.0) as usize).max(1_000)
    }
}

/// The Section 5.1 device configuration for `workload`: SSD as large as the
/// trace's address space, cache = block-level table + GTD, Financial
/// volumes in full use (pre-filled), MSR volumes fresh.
pub fn device_config(workload: Workload) -> SsdConfig {
    let mut config = SsdConfig::paper_default(workload.address_bytes());
    config.prefill_frac = match workload {
        Workload::Financial1 | Workload::Financial2 => 1.0,
        Workload::MsrTs | Workload::MsrSrc => 0.0,
    };
    config
}

/// One simulation: `kind` on `workload` at `scale` with `config`.
pub fn run_one(
    kind: FtlKind,
    workload: Workload,
    scale: Scale,
    config: &SsdConfig,
) -> Result<RunReport> {
    let ftl = kind.build(config)?;
    let mut ssd = Ssd::new(ftl, config.clone())?;
    let spec = workload.spec(scale.requests(workload));
    ssd.run(spec.iter(SEED))
}

/// Like [`run_one`] but replayed on the sharded multi-queue engine: the
/// LPN space is striped across `shards` workers, each owning a private
/// `1/shards`-geometry device (see [`ShardedSsd`]). With `shards == 1` the
/// merged report is bit-identical to [`run_one`]'s.
pub fn run_one_sharded(
    kind: FtlKind,
    workload: Workload,
    scale: Scale,
    config: &SsdConfig,
    shards: u32,
) -> Result<ShardedRunReport> {
    let mut ssd = ShardedSsd::new(config, shards, |_, shard_config| kind.build(shard_config))?;
    let spec = workload.spec(scale.requests(workload));
    ssd.run(spec.iter(SEED))
}

/// Like [`run_one`] but with a cache sampler attached; returns the report
/// and the collected samples.
pub fn run_one_sampled(
    kind: FtlKind,
    workload: Workload,
    scale: Scale,
    config: &SsdConfig,
    sample_interval: u64,
) -> Result<(RunReport, CacheSampler)> {
    let ftl = kind.build(config)?;
    let mut ssd = Ssd::new(ftl, config.clone())?.with_sampler(CacheSampler::new(sample_interval));
    let spec = workload.spec(scale.requests(workload));
    let report = ssd.run(spec.iter(SEED))?;
    let sampler = ssd.take_sampler().expect("sampler attached above");
    Ok((report, sampler))
}

/// Runs a batch of jobs across worker threads (deterministic per-job
/// results; order of the output matches the input). Uses one thread per
/// available core, capped at the job count.
pub fn run_parallel<J, R, F>(jobs: Vec<J>, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    run_parallel_with(jobs, None, f)
}

/// A rendered experiment: text for the terminal, JSON for `results/`.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Stable identifier (`fig6`, `table2`, ...), used as the file stem.
    pub id: String,
    /// Human-readable table(s), paper-style.
    pub text: String,
    /// Machine-readable result.
    pub json: serde_json::Value,
}

impl ExperimentOutput {
    /// Writes the JSON result under `dir` and returns the path.
    pub fn persist(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, serde_json::to_string_pretty(&self.json)?)?;
        Ok(path)
    }
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_requests() {
        assert_eq!(Scale(1.0).requests(Workload::Financial1), 2_000_000);
        assert_eq!(Scale(0.5).requests(Workload::MsrTs), 1_250_000);
        assert_eq!(Scale(0.000001).requests(Workload::MsrTs), 1_000);
    }

    #[test]
    fn parallel_runner_preserves_order() {
        let jobs: Vec<u64> = (0..64).collect();
        let out = run_parallel(jobs, |&j| j * 2);
        assert_eq!(out, (0..64).map(|j| j * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_runner_honors_explicit_thread_count() {
        let jobs: Vec<u64> = (0..16).collect();
        let out = run_parallel_with(jobs, Some(1), |&j| j + 1);
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn sharded_run_matches_single_queue_on_one_shard() {
        let workload = Workload::Financial1;
        let mut config = device_config(workload);
        config.prefill_frac = 0.0;
        let single = run_one(FtlKind::Tpftl, workload, Scale(0.0001), &config).unwrap();
        let sharded = run_one_sharded(FtlKind::Tpftl, workload, Scale(0.0001), &config, 1).unwrap();
        assert_eq!(sharded.merged, single);
    }

    #[test]
    fn tiny_end_to_end_run() {
        let workload = Workload::Financial1;
        let mut config = device_config(workload);
        config.prefill_frac = 0.0; // keep the tiny test fast
        let r = run_one(FtlKind::Tpftl, workload, Scale(0.0001), &config).unwrap();
        assert_eq!(r.ftl_stats.requests, 1_000);
        assert!(r.hit_ratio() > 0.0);
    }
}
