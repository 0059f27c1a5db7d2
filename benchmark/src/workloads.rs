//! The seven named workloads.
//!
//! A workload is a trace generator, a request count, a device, an FTL and
//! an engine. Request counts are part of the definition: cumulative write
//! amplification is still rising at 2 M Financial1 requests, so changing a
//! count changes every simulated metric and means re-baselining.

use tpftl_core::SsdConfig;
use tpftl_experiments::runner::{device_config, FtlKind};
use tpftl_trace::presets::Workload;
use tpftl_trace::SyntheticSpec;

/// `--quick` divides every request count by this (tests only).
const QUICK_DIVISOR: usize = 20;

/// `requests`, or a twentieth of it when `quick`.
pub fn scaled(requests: usize, quick: bool) -> usize {
    if quick {
        requests / QUICK_DIVISOR
    } else {
        requests
    }
}

/// Which trace generator a workload replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trace {
    /// A Table 4 preset on its Section 5.1 device.
    Preset(Workload),
    /// 85 % sequential reads with a thin random-write stream, on a 64 MB
    /// fully pre-filled device with a 16 KB cache (the `replay_semiseq`
    /// scenario of `crates/bench`, restated here so this package does not
    /// depend on that one, and with GC watermarks of 4/5 blocks).
    Semiseq,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// Trace generator.
    pub trace: Trace,
    /// Host requests per repetition.
    pub requests: usize,
    /// FTL under test.
    pub ftl: FtlKind,
    /// Flash channels × ways.
    pub topology: (u32, u32),
    /// 1 = `Ssd::run`; more = `ShardedSsd::run` with that many shards.
    pub shards: u32,
    /// Requests in each of the paired `Ssd::serve` / `driver::serve_request`
    /// replays behind `sim.ssd.self_ns_per_req` (a prefix of the trace,
    /// sized so ten replays take a few seconds).
    pub probe_requests: usize,
}

/// The workloads, in reporting order.
pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "fin1_tpftl",
        why: "Paper headline cell: write-heavy random OLTP at 2 M requests on a full 512 MB device, 8.5 KB cache; misses, dirty write-backs and GC (WA 5.9) do most of the work",
        trace: Trace::Preset(Workload::Financial1),
        requests: 2_000_000,
        ftl: FtlKind::Tpftl,
        topology: (1, 1),
        shards: 1,
        probe_requests: 200_000,
    },
    WorkloadDef {
        name: "fin2_tpftl",
        why: "Same FTL and cache used the other way round (82 % reads, little GC): a write-path gain that costs the read path shows; generator and sim::ssd overheads surface here",
        trace: Trace::Preset(Workload::Financial2),
        requests: 2_000_000,
        ftl: FtlKind::Tpftl,
        topology: (1, 1),
        shards: 1,
        probe_requests: 200_000,
    },
    WorkloadDef {
        name: "msr_tpftl",
        why: "Fits-in-cache case (hit ratio 0.96, sequential, 2.8 pages/request) on a fresh 16 GB device: hit path and prefetchers dominate, translation I/O is small, largest memory footprint",
        trace: Trace::Preset(Workload::MsrTs),
        requests: 2_500_000,
        ftl: FtlKind::Tpftl,
        topology: (1, 1),
        shards: 1,
        probe_requests: 200_000,
    },
    WorkloadDef {
        name: "fin1_dftl_c4w2",
        why: "Baseline FTL on the only multi-unit topology (4 channels x 2 ways): UnitClocks leaves its single-unit fast path and translation reads can overlap data ops",
        trace: Trace::Preset(Workload::Financial1),
        requests: 2_000_000,
        ftl: FtlKind::Dftl,
        topology: (4, 2),
        shards: 1,
        probe_requests: 200_000,
    },
    WorkloadDef {
        name: "fin1_learned",
        why: "The roadmap's named host-time outlier: LearnedFTL refits on every dirty eviction and GC batch (400 k Financial1 requests); the train-at-GC-time work claims here",
        trace: Trace::Preset(Workload::Financial1),
        requests: 400_000,
        ftl: FtlKind::Learned,
        topology: (1, 1),
        shards: 1,
        probe_requests: 40_000,
    },
    WorkloadDef {
        name: "semiseq_learned",
        why: "LearnedFTL's prediction path (85 % sequential reads, 10 % random writes, 1 M requests) and the long-horizon fragmentation that erodes it; guards reads while fin1_learned is optimised",
        trace: Trace::Semiseq,
        requests: 1_000_000,
        ftl: FtlKind::Learned,
        topology: (1, 1),
        shards: 1,
        probe_requests: 100_000,
    },
    WorkloadDef {
        name: "fin1_tpftl_s2",
        why: "fin1_tpftl's trace through ShardedSsd::run with 2 shards: the only workload where the splitter, SQ/CQ rings and doorbells run; single-queue optimisations should not move it",
        trace: Trace::Preset(Workload::Financial1),
        requests: 2_000_000,
        ftl: FtlKind::Tpftl,
        topology: (1, 1),
        shards: 2,
        probe_requests: 200_000,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl WorkloadDef {
    /// Requests per repetition.
    pub fn requests(&self, quick: bool) -> usize {
        scaled(self.requests, quick)
    }

    /// Length of the paired-replay prefix.
    pub fn probe_requests(&self, quick: bool) -> usize {
        scaled(self.probe_requests, quick)
    }

    /// The whole (unsharded) device.
    pub fn config(&self) -> SsdConfig {
        let mut config = match self.trace {
            Trace::Preset(w) => device_config(w),
            Trace::Semiseq => {
                let mut c = SsdConfig::paper_default(64 << 20);
                c.cache_bytes = c.gtd_bytes() + 16 * 1024;
                c.prefill_frac = 1.0;
                // A device this small gets the minimum GC watermarks, 2/3,
                // and with those LearnedFTL's replay ends in `DeviceFull`
                // on 3 seeds in 40 (19, 30 and 37) — most likely because
                // collection starts with one free block left and can take
                // two, one for migrated data and one for translation pages,
                // before its erase gives one back. With 4/5 no seed in 240
                // fails, and a benchmark must not depend on its seed.
                (c.gc_low_blocks, c.gc_high_blocks) = (4, 5);
                c
            }
        };
        (config.topology.channels, config.topology.ways) = self.topology;
        config
    }

    /// The trace generator's parameters for `requests` requests.
    pub fn spec(&self, requests: usize) -> SyntheticSpec {
        match self.trace {
            Trace::Preset(w) => w.spec(requests),
            Trace::Semiseq => SyntheticSpec {
                name: "semiseq".to_string(),
                requests,
                address_bytes: self.config().logical_bytes,
                write_ratio: 0.1,
                seq_read_frac: 0.85,
                seq_write_frac: 0.5,
                mean_burst_len: 64.0,
                align_sectors: 8,
                ..SyntheticSpec::default()
            },
        }
    }
}
