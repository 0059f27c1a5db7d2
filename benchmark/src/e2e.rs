//! Untraced repetitions: the end-to-end metrics.
//!
//! First a few set-ups alone (timed: `setup_s`, their median). Then each
//! repetition sets up a fresh device and streams the generator through
//! `Ssd::run` — or `ShardedSsd::run` — exactly as `simulate` and `repro`
//! do (timed: `host_ns_per_req`, the median over repetitions). Repetitions
//! continue until `--seconds` of measuring are spent; simulated metrics
//! come from the last repetition's report and must be identical in all of
//! them. Both host times are scaled to nominal machine speed; see
//! [`crate::machine`].

use std::time::{Duration, Instant};

use tpftl_core::env::GcStats;
use tpftl_core::ftl::Ftl;
use tpftl_core::{FtlStats, Result};
use tpftl_flash::FlashStats;
use tpftl_sim::{LatencyHistogram, RunReport, ShardedSsd, Ssd};
use tpftl_trace::synth::SyntheticIter;

use crate::checks::Violations;
use crate::machine::{self, Paced, Reference};
use crate::metrics::{Ledger, END_TO_END};
use crate::stat::{median, quantile_interp};
use crate::workloads::WorkloadDef;

/// The FTL type every workload runs: what `FtlKind::build` hands out.
pub type BoxFtl = Box<dyn Ftl + Send>;

/// `setup_s` is the median of this many set-ups, timed back to back before
/// the first repetition and after one untimed set-up, so that every sample
/// is taken in the same state. (The set-up each repetition does is not
/// among them: following a replay it finds the allocator in another state
/// and runs twice as fast, and how many of those a run holds varies.)
const SETUPS: usize = 9;

/// A device under test: single-queue or sharded.
pub enum Device {
    /// `Ssd::run`.
    Single(Box<Ssd<BoxFtl>>),
    /// `ShardedSsd::run`.
    Sharded(ShardedSsd<BoxFtl>),
}

impl Device {
    /// The run's measurements (merged over shards).
    pub fn report(&self) -> RunReport {
        match self {
            Device::Single(ssd) => ssd.report(),
            Device::Sharded(ssd) => ssd.report().merged,
        }
    }

    /// Every simulated response time of the run (merged over shards).
    pub fn histogram(&self) -> LatencyHistogram {
        match self {
            Device::Single(ssd) => ssd.sim_histogram().clone(),
            Device::Sharded(ssd) => {
                let mut merged = LatencyHistogram::new();
                for i in 0..ssd.num_shards() as usize {
                    merged.merge_from(ssd.shard(i).sim_histogram());
                }
                merged
            }
        }
    }
}

/// Builds the workload's FTL(s), device(s) and trace generator — what
/// `setup_s` times.
pub fn set_up(def: &WorkloadDef, requests: usize, seed: u64) -> Result<(Device, SyntheticIter)> {
    let config = def.config();
    let device = if def.shards == 1 {
        let ftl = def.ftl.build(&config)?;
        Device::Single(Box::new(Ssd::new(ftl, config)?))
    } else {
        Device::Sharded(ShardedSsd::new(&config, def.shards, |_, c| {
            def.ftl.build(c)
        })?)
    };
    Ok((device, def.spec(requests).iter(seed)))
}

/// The counters that must not depend on which repetition produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct Counters {
    /// Cache-level counters.
    pub ftl: FtlStats,
    /// Flash operation counts.
    pub flash: FlashStats,
    /// GC aggregates.
    pub gc: GcStats,
}

impl Counters {
    /// The counters of `report`.
    pub fn of(report: &RunReport) -> Self {
        Self {
            ftl: report.ftl_stats.clone(),
            flash: report.flash.clone(),
            gc: report.gc.clone(),
        }
    }
}

/// What the untraced repetitions produced.
pub struct Outcome {
    /// The end-to-end metrics, all but `served_frac` (which waits for the
    /// checks).
    pub ledger: Ledger,
    /// Requests offered over all repetitions.
    pub attempted: u64,
    /// Requests not served (a repetition that aborts with `Err` counts
    /// every request it did not reach).
    pub unserved: u64,
    /// Repetitions measured.
    pub reps: usize,
    /// The last repetition's device, for the checks.
    pub device: Device,
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs untraced repetitions of `def` for about `seconds` (exactly one
/// when `quick`) and fills in the end-to-end ledger.
pub fn measure(
    def: &WorkloadDef,
    seed: u64,
    seconds: f64,
    quick: bool,
    violations: &mut Violations,
) -> Result<Outcome> {
    let requests = def.requests(quick);
    let budget = Duration::from_secs_f64(seconds);
    let (mut setup_s, mut ns_per_req) = (Vec::new(), Vec::new());
    let mut unserved = 0u64;
    let mut first: Option<Counters> = None;
    let mut last: Option<Device> = None;
    let mut reference = Reference::new();

    if !quick {
        drop(set_up(def, requests, seed)?); // untimed: the allocator's first
    }
    for _ in 0..if quick { 1 } else { SETUPS } {
        let (set_up, set_up_ns) =
            machine::bracketed(&mut reference, || set_up(def, requests, seed));
        drop(set_up?);
        setup_s.push(set_up_ns / 1e9);
    }
    let started = Instant::now();
    loop {
        drop(last.take()); // the previous device goes before the next one comes
        let rep_started = Instant::now();
        let (mut device, trace) = set_up(def, requests, seed)?;
        let mut trace = Paced::new(trace);
        let replay = Instant::now();
        let result = match &mut device {
            Device::Single(ssd) => ssd.run(&mut trace).map(drop),
            Device::Sharded(ssd) => ssd.run(&mut trace).map(drop),
        };
        let wall_ns = replay.elapsed().as_nanos() as f64;
        ns_per_req.push(trace.slices.compensate(wall_ns) / requests as f64);

        if let Err(e) = result {
            // `requests` counts the one that failed; a shard error leaves
            // the count of reached requests unknown, so none count.
            let reached = match &device {
                Device::Single(ssd) => ssd.report().ftl_stats.requests.saturating_sub(1),
                Device::Sharded(_) => 0,
            };
            unserved += requests as u64 - reached.min(requests as u64);
            violations.push(format!("repetition {} aborted: {e}", ns_per_req.len()));
        } else {
            let counters = Counters::of(&device.report());
            match &first {
                None => first = Some(counters),
                Some(f) if *f != counters => violations.push(format!(
                    "repetition {} counters differ from repetition 1",
                    ns_per_req.len()
                )),
                Some(_) => {}
            }
        }
        last = Some(device);

        let spent = started.elapsed();
        // An aborted repetition ends the run: the next would abort too.
        if quick || unserved > 0 || spent + rep_started.elapsed() > budget {
            break;
        }
    }
    let reps = ns_per_req.len();
    let peak_rss_mb = peak_rss_mb();

    let device = last.expect("at least one repetition ran");
    let report = device.report();
    let hist = device.histogram();
    let n = requests as f64;
    let attempted = (requests * reps) as u64;

    let mut ledger = Ledger::new(&END_TO_END);
    ledger.put_samples("setup_s", median(&setup_s), setup_s);
    ledger.put_samples("host_ns_per_req", median(&ns_per_req), ns_per_req);
    ledger.put_all(&[
        ("peak_rss_mb", peak_rss_mb),
        ("sim_resp_avg_us", report.sim.resp_avg_us),
        ("sim_resp_p50_us", quantile_interp(&hist, 0.5)),
        ("sim_resp_p99_us", quantile_interp(&hist, 0.99)),
        ("sim_resp_p999_us", quantile_interp(&hist, 0.999)),
        ("sim_device_us_per_req", report.sim.device_us / n),
        ("hit_ratio", report.hit_ratio()),
        ("trans_reads_per_req", report.translation_reads() as f64 / n),
        (
            "trans_writes_per_req",
            report.translation_writes() as f64 / n,
        ),
        ("write_amplification", report.write_amplification()),
        ("erases_per_kreq", report.erase_count() as f64 / n * 1000.0),
    ]);

    Ok(Outcome {
        ledger,
        attempted,
        unserved,
        reps,
        device,
    })
}
