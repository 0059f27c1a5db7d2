//! The simulated SSD: an FTL + environment + unit-clock timing model.

use tpftl_core::driver;
use tpftl_core::env::SsdEnv;
use tpftl_core::ftl::{AccessCtx, Ftl};
use tpftl_core::{Result, SsdConfig};
use tpftl_flash::Lpn;
use tpftl_trace::IoRequest;

use crate::{CacheSampler, LatencyHistogram, RunReport, SimTiming, WriteBuffer};

/// 4 KB pages everywhere (Table 3).
const PAGE_BYTES: u64 = 4096;

/// A simulated SSD running one FTL.
///
/// # Examples
///
/// ```
/// use tpftl_core::ftl::{TpFtl, TpftlConfig};
/// use tpftl_core::SsdConfig;
/// use tpftl_sim::Ssd;
/// use tpftl_trace::SyntheticSpec;
///
/// let config = SsdConfig::paper_default(16 << 20);
/// let ftl = TpFtl::new(&config, TpftlConfig::full()).unwrap();
/// let mut ssd = Ssd::new(ftl, config).unwrap();
/// let spec = SyntheticSpec {
///     requests: 500,
///     address_bytes: 16 << 20,
///     ..SyntheticSpec::default()
/// };
/// let report = ssd.run(spec.iter(42)).unwrap();
/// assert_eq!(report.ftl_stats.requests, 500);
/// ```
pub struct Ssd<F: Ftl> {
    ftl: F,
    env: SsdEnv,
    sampler: Option<CacheSampler>,
    buffer: Option<WriteBuffer>,
    responses: u64,
    /// Completion time of the previous request (requests are served in
    /// arrival order; their flash ops spread over the channel/way units).
    sim_free_us: f64,
    /// Sum of per-request simulated busy spans (completion − start).
    sim_span_us: f64,
    sim_resp_sum_us: f64,
    sim_hist: LatencyHistogram,
}

impl<F: Ftl> Ssd<F> {
    /// Builds and bootstraps (pre-fill + format + stats reset) an SSD.
    pub fn new(ftl: F, config: SsdConfig) -> Result<Self> {
        Self::bootstrapped(ftl, SsdEnv::new(config)?)
    }

    /// Like [`Ssd::new`], but bootstraps on a prebuilt flash device —
    /// typically a file-backed one from `tpftl_flash::Flash::create_file`,
    /// so the whole run (including bootstrap) is mirrored to the device
    /// file. The device must be fully erased and match `config`'s
    /// geometry.
    pub fn with_flash(ftl: F, config: SsdConfig, flash: tpftl_flash::Flash) -> Result<Self> {
        Self::bootstrapped(ftl, SsdEnv::with_flash(config, flash)?)
    }

    fn bootstrapped(mut ftl: F, mut env: SsdEnv) -> Result<Self> {
        driver::bootstrap(&mut ftl, &mut env)?;
        Ok(Self {
            ftl,
            env,
            sampler: None,
            buffer: None,
            responses: 0,
            sim_free_us: 0.0,
            sim_span_us: 0.0,
            sim_resp_sum_us: 0.0,
            sim_hist: LatencyHistogram::new(),
        })
    }

    /// Attaches a cache sampler (Figure 1/2 experiments).
    pub fn with_sampler(mut self, sampler: CacheSampler) -> Self {
        self.sampler = Some(sampler);
        self
    }

    /// Attaches a host write buffer of `pages` 4 KB pages (the "data
    /// buffer" role of the internal RAM, Section 2.1). Buffered rewrites
    /// and reads cost no flash time; evictions reach the FTL as writes.
    pub fn with_write_buffer(mut self, pages: usize) -> Self {
        self.buffer = Some(WriteBuffer::new(pages));
        self
    }

    /// The write buffer's counters, if one is attached.
    pub fn buffer_stats(&self) -> Option<crate::BufferStats> {
        self.buffer.as_ref().map(|b| b.stats)
    }

    /// Page writes the host issued. With a write buffer every one lands in
    /// the buffer first, and the FTL's counter sees only its evictions and
    /// flushes; without one the FTL's counter is the host's.
    pub fn host_page_writes(&self) -> u64 {
        match &self.buffer {
            Some(b) => b.stats.write_absorbed + b.stats.write_inserted,
            None => self.env.stats.user_page_writes,
        }
    }

    /// Flushes every buffered dirty page to the FTL (unmount barrier).
    pub fn flush_buffer(&mut self) -> Result<()> {
        let Some(mut buffer) = self.buffer.take() else {
            return Ok(());
        };
        for lpn in buffer.drain() {
            driver::serve_page_access(&mut self.ftl, &mut self.env, lpn, AccessCtx::single(true))?;
        }
        self.buffer = Some(buffer);
        Ok(())
    }

    /// The FTL under test.
    pub fn ftl(&self) -> &F {
        &self.ftl
    }

    /// The environment (flash stats, GTD, counters).
    pub fn env(&self) -> &SsdEnv {
        &self.env
    }

    /// Arms a power-loss fault plan on the underlying flash device; the
    /// corresponding operation (and everything after it) fails with
    /// `FlashError::PowerLoss`. See `tpftl_flash::FaultPlan`.
    pub fn arm_faults(&mut self, plan: tpftl_flash::FaultPlan) {
        self.env.arm_faults(plan);
    }

    /// The fatal operation, if an armed fault plan has fired.
    pub fn fault_fired(&self) -> Option<tpftl_flash::FaultRecord> {
        self.env.fault_fired()
    }

    /// Flushes the write buffer and every dirty mapping entry to flash —
    /// the clean-unmount barrier.
    pub fn flush(&mut self) -> Result<()> {
        self.flush_buffer()?;
        tpftl_core::recovery::flush_cache(&mut self.ftl, &mut self.env)
    }

    /// Consumes the SSD, dropping all FTL RAM state, and returns the
    /// environment — the first half of a power cycle (follow with
    /// [`tpftl_core::env::SsdEnv::into_flash`]).
    pub fn into_env(self) -> SsdEnv {
        self.env
    }

    /// Detaches and returns the sampler with its collected samples.
    pub fn take_sampler(&mut self) -> Option<CacheSampler> {
        self.sampler.take()
    }

    /// Serves one request; returns its system response time in µs
    /// (queuing + service) on the unit clocks.
    ///
    /// The request starts once it has arrived and the previous request
    /// completed (requests are served in order). Each of its page accesses
    /// is an independent dependency chain from that start, so accesses
    /// that land on different channel/way units overlap; the request
    /// completes when its slowest chain does. A translation write-back is
    /// a fire-and-forget persist (see `SsdEnv::update_translation_page`):
    /// a request whose last flash op is one completes *before* it, and the
    /// write-back delays only later ops on the same flash unit.
    ///
    /// Garbage collection is not part of any request. A collection that
    /// an access triggers goes to the unit clocks' background lane
    /// (`tpftl_flash::UnitClocks`) and runs in the device's idle time; a
    /// request waits for it only behind the one lane op already running
    /// when its own op is ready, or for a queued erase of a block it
    /// programs (`SimTiming::gc_stall_us`). So `device_us`, the sum of
    /// request spans, holds no idle-time GC.
    pub fn serve(&mut self, req: &IoRequest) -> Result<f64> {
        self.env.stats.requests += 1;
        let sim_start = req.arrival_us.max(self.sim_free_us);
        let mut sim_done = sim_start;

        let first = (req.offset / PAGE_BYTES) as Lpn;
        let count = req.page_count(PAGE_BYTES) as u32;
        for i in 0..count {
            let ctx = AccessCtx {
                is_write: req.is_write(),
                remaining_in_request: count - 1 - i,
            };
            let lpn = first + i;
            self.env.sim_relax_to(sim_start);
            if let Some(buffer) = &mut self.buffer {
                self.env.check_lpn(lpn)?;
                if ctx.is_write {
                    // Absorb the write in RAM; only the eviction reaches
                    // flash.
                    if let Some(evicted) = buffer.write(lpn) {
                        driver::serve_page_access(
                            &mut self.ftl,
                            &mut self.env,
                            evicted,
                            AccessCtx::single(true),
                        )?;
                        sim_done = sim_done.max(self.env.sim_frontier_us());
                    }
                    continue;
                } else if buffer.read_hit(lpn) {
                    continue; // served from RAM
                }
            }
            driver::serve_page_access(&mut self.ftl, &mut self.env, lpn, ctx)?;
            sim_done = sim_done.max(self.env.sim_frontier_us());
            if let Some(s) = &mut self.sampler {
                let served = self.env.stats.user_page_accesses();
                if s.due(served) {
                    s.record(served, &self.ftl.cached_tp_distribution());
                }
            }
        }

        // Leave the frontier at the request's completion so flash activity
        // outside `serve` (flushes, crash harness) chains after it.
        self.env.sim_relax_to(sim_done);
        self.sim_free_us = sim_done;
        let response = sim_done - req.arrival_us;
        self.sim_resp_sum_us += response;
        self.sim_span_us += sim_done - sim_start;
        self.sim_hist.record(response);
        self.responses += 1;
        Ok(response)
    }

    /// The histogram of simulated response times (for shard merging).
    pub fn sim_histogram(&self) -> &LatencyHistogram {
        &self.sim_hist
    }

    /// Serves an entire trace and reports the run's measurements.
    pub fn run<I>(&mut self, trace: I) -> Result<RunReport>
    where
        I: IntoIterator<Item = IoRequest>,
    {
        for req in trace {
            self.serve(&req)?;
        }
        Ok(self.report())
    }

    /// The measurements accumulated so far.
    pub fn report(&self) -> RunReport {
        RunReport {
            ftl: self.ftl.name(),
            ftl_stats: {
                // Snapshot the device's erase-count moments so the report
                // carries the wear-evenness metric; kept as exact integer
                // sums so the sharded engine's merge stays additive.
                let mut stats = self.env.stats.clone();
                (stats.wear_blocks, stats.wear_sum, stats.wear_sq_sum) = self.env.wear_summary();
                stats
            },
            flash: self.env.flash().stats().clone(),
            gc: self.env.gc_stats.clone(),
            cached_entries: self.ftl.cached_entries(),
            cache_bytes_used: self.ftl.cache_bytes_used(),
            cache_bytes_total: self.env.config().cache_bytes,
            erase_max: self.env.max_wear(),
            sim: {
                let topo = self.env.config().topology;
                let clocks = self.env.flash().clocks();
                SimTiming {
                    channels: topo.channels,
                    ways: topo.ways,
                    device_us: self.sim_span_us,
                    makespan_us: self.env.flash().sim_device_done_us(),
                    resp_avg_us: if self.responses == 0 {
                        0.0
                    } else {
                        self.sim_resp_sum_us / self.responses as f64
                    },
                    resp_p50_us: self.sim_hist.p50(),
                    resp_p99_us: self.sim_hist.p99(),
                    resp_p999_us: self.sim_hist.p999(),
                    busiest_unit_us: clocks.busiest_unit_us(),
                    gc_stall_us: clocks.gc_stall_us(),
                    gc_forced_drains: clocks.gc_forced_drains(),
                    gc_pending_us: clocks.lane_pending_us(),
                }
            },
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tpftl_core::ftl::{Dftl, OptimalFtl, TpFtl, TpftlConfig};
    use tpftl_trace::{Dir, SyntheticSpec};

    fn small_spec(requests: usize) -> SyntheticSpec {
        SyntheticSpec {
            requests,
            address_bytes: 16 << 20,
            write_ratio: 0.7,
            mean_req_sectors: 8.0,
            mean_interarrival_us: 300.0,
            ..SyntheticSpec::default()
        }
    }

    #[test]
    fn queuing_delay_accumulates_under_load() {
        let config = SsdConfig::paper_default(16 << 20);
        let ftl = OptimalFtl::new(&config);
        let mut ssd = Ssd::new(ftl, config).unwrap();
        // Two back-to-back writes at t=0: the second waits for the first.
        let r1 = ssd
            .serve(&IoRequest::new(0.0, 0, 4096, Dir::Write))
            .unwrap();
        let r2 = ssd
            .serve(&IoRequest::new(0.0, 8192, 4096, Dir::Write))
            .unwrap();
        assert!((r1 - 200.0).abs() < 1e-9, "r1={r1}");
        assert!((r2 - 400.0).abs() < 1e-9, "second request queues, r2={r2}");
        // A request arriving after the device idles sees no queuing.
        let r3 = ssd
            .serve(&IoRequest::new(10_000.0, 0, 4096, Dir::Read))
            .unwrap();
        assert!((r3 - 25.0).abs() < 1e-9, "r3={r3}");
        // One channel, one way: every flash op serializes on the one unit.
        let sim = ssd.report().sim;
        assert_eq!(sim.channels, 1);
        assert_eq!(sim.ways, 1);
        assert!((sim.resp_avg_us - (200.0 + 400.0 + 25.0) / 3.0).abs() < 1e-9);
        assert!((sim.makespan_us - 10_025.0).abs() < 1e-9);
        assert!((sim.device_us - 425.0).abs() < 1e-9, "spans 200+200+25");
        assert_eq!(sim.resp_p99_us, 384.0, "400 µs bucket lower edge");
    }

    /// A write-through mapping FTL: every host write ends with a
    /// translation-page write-back, the one op the clock does not make the
    /// issuing request wait for. (Also the shard tests' custom FTL.)
    pub(crate) struct WriteThroughFtl(pub(crate) Vec<Option<tpftl_core::Ppn>>);

    impl Ftl for WriteThroughFtl {
        fn name(&self) -> String {
            "WriteThrough".into()
        }
        fn translate(
            &mut self,
            env: &mut SsdEnv,
            lpn: Lpn,
            _: &AccessCtx,
        ) -> Result<Option<tpftl_core::Ppn>> {
            env.note_lookup(true);
            Ok(self.0[lpn as usize])
        }
        fn update_mapping(
            &mut self,
            env: &mut SsdEnv,
            lpn: Lpn,
            ppn: tpftl_core::Ppn,
        ) -> Result<()> {
            self.0[lpn as usize] = Some(ppn);
            let (vtpn, off) = (env.vtpn_of(lpn), env.offset_of(lpn));
            env.update_translation_page(vtpn, &[(off, ppn)], tpftl_flash::OpPurpose::Translation)
        }
        fn on_gc_data_block(
            &mut self,
            _: &mut SsdEnv,
            _: &[(Lpn, tpftl_core::Ppn)],
        ) -> Result<u64> {
            unreachable!("the test never fills the device")
        }
        fn cache_bytes_used(&self) -> usize {
            0
        }
        fn cached_entries(&self) -> usize {
            0
        }
        fn cached_tp_distribution(&self) -> Vec<tpftl_core::ftl::TpDistEntry> {
            Vec::new()
        }
    }

    #[test]
    fn trailing_translation_writeback_does_not_delay_its_own_request() {
        let config = SsdConfig::paper_default(16 << 20);
        let ftl = WriteThroughFtl(vec![None; config.logical_pages() as usize]);
        let mut ssd = Ssd::new(ftl, config).unwrap();
        // Data program (200 µs), then the write-back's read-modify-write
        // (25 + 200 µs): the request is done when its data is, at 200 µs,
        // while the flash unit stays busy until 425 µs.
        let r1 = ssd
            .serve(&IoRequest::new(0.0, 0, 4096, Dir::Write))
            .unwrap();
        assert!((r1 - 200.0).abs() < 1e-9, "r1={r1}");
        assert!((ssd.env().flash().sim_device_done_us() - 425.0).abs() < 1e-9);
        // The next request may start at 200 µs, but its read lands on the
        // same unit and queues behind the write-back: 425 + 25 µs.
        let r2 = ssd.serve(&IoRequest::new(0.0, 0, 4096, Dir::Read)).unwrap();
        assert!((r2 - 450.0).abs() < 1e-9, "r2={r2}");
        let report = ssd.report();
        assert!((report.flash.busy_us - 450.0).abs() < 1e-9);
        assert!((report.sim.resp_avg_us - 325.0).abs() < 1e-9);
        assert!((report.sim.device_us - (200.0 + 250.0)).abs() < 1e-9);
    }

    #[test]
    fn channels_change_sim_timing_but_nothing_else() {
        let mut serial_cfg = SsdConfig::paper_default(16 << 20);
        serial_cfg.cache_bytes = serial_cfg.gtd_bytes() + 2048;
        let mut wide_cfg = serial_cfg.clone();
        wide_cfg.topology.channels = 4;
        wide_cfg.topology.ways = 2;
        let spec = small_spec(2000);
        let run = |cfg: &SsdConfig| {
            let ftl = TpFtl::new(cfg, TpftlConfig::full()).unwrap();
            Ssd::new(ftl, cfg.clone())
                .unwrap()
                .run(spec.iter(5))
                .unwrap()
        };
        let serial = run(&serial_cfg);
        let wide = run(&wide_cfg);
        // The timing model is observation-only: op sequence and counters
        // (the serial `busy_us` sum included) are bit-identical across
        // topologies.
        assert_eq!(serial.ftl_stats, wide.ftl_stats);
        assert_eq!(serial.flash, wide.flash);
        assert_eq!(serial.gc, wide.gc);
        // Independent units overlap: simulated device time and latency
        // can only improve.
        assert_eq!(wide.sim.channels, 4);
        assert!(wide.sim.device_us < serial.sim.device_us);
        assert!(wide.sim.makespan_us <= serial.sim.makespan_us);
        assert!(wide.sim.resp_avg_us <= serial.sim.resp_avg_us);
        assert!(wide.sim.resp_p99_us <= serial.sim.resp_p99_us);
    }

    #[test]
    fn translation_misses_inflate_response_time() {
        let mut config = SsdConfig::paper_default(16 << 20);
        config.cache_bytes = config.gtd_bytes() + 1024;
        let optimal = OptimalFtl::new(&config);
        let dftl = Dftl::new(&config).unwrap();
        let spec = small_spec(2000);
        let ro = Ssd::new(optimal, config.clone())
            .unwrap()
            .run(spec.iter(1))
            .unwrap();
        let rd = Ssd::new(dftl, config).unwrap().run(spec.iter(1)).unwrap();
        assert!(
            rd.sim.resp_avg_us > ro.sim.resp_avg_us,
            "DFTL ({}) must be slower than optimal ({})",
            rd.sim.resp_avg_us,
            ro.sim.resp_avg_us
        );
        assert!(rd.translation_reads() > 0);
        assert_eq!(ro.translation_reads(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut config = SsdConfig::paper_default(16 << 20);
        config.cache_bytes = config.gtd_bytes() + 2048;
        let spec = small_spec(1500);
        let run = |seed| {
            let ftl = TpFtl::new(&config, TpftlConfig::full()).unwrap();
            Ssd::new(ftl, config.clone())
                .unwrap()
                .run(spec.iter(seed))
                .unwrap()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must reproduce identical reports");
        let c = run(8);
        assert_ne!(a, c);
    }

    #[test]
    fn sampler_collects_during_run() {
        let mut config = SsdConfig::paper_default(16 << 20);
        config.cache_bytes = config.gtd_bytes() + 2048;
        let ftl = Dftl::new(&config).unwrap();
        let mut ssd = Ssd::new(ftl, config)
            .unwrap()
            .with_sampler(CacheSampler::new(500));
        let _ = ssd.run(small_spec(2000).iter(3)).unwrap();
        let sampler = ssd.take_sampler().unwrap();
        assert!(
            sampler.samples.len() >= 3,
            "got {} samples",
            sampler.samples.len()
        );
        assert!(sampler.samples[0].cached_tps > 0);
    }

    #[test]
    fn report_counts_page_accesses() {
        let config = SsdConfig::paper_default(16 << 20);
        let ftl = OptimalFtl::new(&config);
        let mut ssd = Ssd::new(ftl, config).unwrap();
        // 3 pages written, 2 read.
        ssd.serve(&IoRequest::new(0.0, 0, 3 * 4096, Dir::Write))
            .unwrap();
        ssd.serve(&IoRequest::new(0.0, 0, 2 * 4096, Dir::Read))
            .unwrap();
        let r = ssd.report();
        assert_eq!(r.ftl_stats.user_page_writes, 3);
        assert_eq!(r.ftl_stats.user_page_reads, 2);
        assert_eq!(r.ftl_stats.requests, 2);
        assert!((r.write_amplification() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn write_buffer_absorbs_hot_rewrites() {
        let config = SsdConfig::paper_default(16 << 20);
        let mut plain = Ssd::new(OptimalFtl::new(&config), config.clone()).unwrap();
        let mut buffered = Ssd::new(OptimalFtl::new(&config), config.clone())
            .unwrap()
            .with_write_buffer(64);
        // Hammer a 32-page hot set.
        for i in 0..2_000u32 {
            let req = IoRequest::new(i as f64 * 50.0, ((i % 32) as u64) * 4096, 4096, Dir::Write);
            plain.serve(&req).unwrap();
            buffered.serve(&req).unwrap();
        }
        buffered.flush_buffer().unwrap();
        let (p, b) = (plain.report(), buffered.report());
        assert_eq!(p.flash.total_writes(), 2_000);
        // The hot set fits in the buffer: only the final flush hits flash.
        assert_eq!(b.flash.total_writes(), 32);
        let stats = buffered.buffer_stats().unwrap();
        assert_eq!(stats.write_absorbed, 2_000 - 32);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn write_buffer_read_your_writes() {
        let config = SsdConfig::paper_default(16 << 20);
        let mut ssd = Ssd::new(OptimalFtl::new(&config), config.clone())
            .unwrap()
            .with_write_buffer(8);
        // Write 20 pages (12 evict to flash), then read them all back.
        for lpn in 0..20u64 {
            ssd.serve(&IoRequest::new(0.0, lpn * 4096, 4096, Dir::Write))
                .unwrap();
        }
        for lpn in 0..20u64 {
            ssd.serve(&IoRequest::new(1e9, lpn * 4096, 4096, Dir::Read))
                .unwrap();
        }
        let stats = ssd.buffer_stats().unwrap();
        assert_eq!(stats.evictions, 12);
        assert_eq!(stats.read_hits, 8, "the 8 still-buffered pages hit in RAM");
        // Flush and read again: everything now comes from flash.
        ssd.flush_buffer().unwrap();
        for lpn in 0..20u64 {
            ssd.serve(&IoRequest::new(2e9, lpn * 4096, 4096, Dir::Read))
                .unwrap();
        }
    }

    #[test]
    fn rejects_out_of_space_requests() {
        let config = SsdConfig::paper_default(16 << 20);
        let ftl = OptimalFtl::new(&config);
        let mut ssd = Ssd::new(ftl, config).unwrap();
        let too_far = IoRequest::new(0.0, 16 << 20, 4096, Dir::Write);
        assert!(ssd.serve(&too_far).is_err());
    }
}
