//! Sharded multi-queue SSD engine: parallel trace replay across
//! LPN-partitioned shards.
//!
//! The single-queue [`Ssd`] serves one page access at a time on one core.
//! This module scales replay across cores the way real NVMe-era SSDs scale
//! across channels/dies: the logical page space is striped over `N`
//! independent shards (`N` a power of two), each shard owning a complete
//! private device — flash arena, block manager, mapping cache, GC state —
//! of `1/N`-th the geometry (see `SsdConfig::shard_config`). One worker
//! thread per shard consumes an NVMe-style queue pair (see
//! [`crate::queue`]): the host pushes request batches into the shard's
//! bounded submission queue and harvests per-batch status entries from its
//! completion queue; doorbell park/unpark on both rings means an idle
//! worker sleeps instead of burning a core. A splitter on the submitting
//! thread routes (and, for multi-page requests, splits) the incoming
//! stream by the low LPN bits (see `tpftl_trace::ShardSplitter`).
//!
//! Two drive modes over one runner (the private `ShardedSsd::drive`):
//!
//! * [`ShardedSsd::run`] — closed-loop replay: every request is due at
//!   once, shards are fed full batches, and the host waits while a
//!   shard's in-flight window is full; measures deterministic counters
//!   and simulated clocks.
//! * [`ShardedSsd::run_open_loop`] — open-loop steady state: requests
//!   arrive on a fixed wall-clock schedule regardless of completion (no
//!   coordinated omission; see `tpftl_trace::fixed_rate`), excess backlog
//!   queues host-side without bound, and each completion's response time
//!   is measured against its *scheduled* arrival. Reports offered vs
//!   achieved throughput and p50/p99/p999 wall-clock latency.
//!
//! # Determinism
//!
//! Thread interleaving can never change the result: each shard's
//! sub-request sequence is a *projection* of the trace (same relative
//! order, fixed by the single splitter), each shard's state is private, so
//! every per-shard [`RunReport`] is a pure function of (config, trace,
//! shard index). The merge then folds the per-shard reports **in shard
//! order**, so even the floating-point sums (`busy_us`, the response-time
//! average) are bit-reproducible run to run. With one shard, the splitter
//! emits exactly the original page spans into a single worker, and the
//! merged report is the shard's report verbatim — bit-identical to the
//! single-queue path (pinned by the sharded golden test). Open-loop runs
//! keep all of this for the *simulated* report (the arrival schedule is a
//! pure function of the offered rate); only the wall-clock latency
//! histogram varies run to run.

use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use tpftl_core::env::GcStats;
use tpftl_core::ftl::Ftl;
use tpftl_core::{FtlError, FtlStats, Result, SsdConfig};
use tpftl_flash::FlashStats;
use tpftl_trace::{fixed_rate, IoRequest, ShardSplitter};

use crate::queue::{DoorbellRing, DoorbellStats, QueuePair};
use crate::{LatencyHistogram, RunReport, SimTiming, Ssd};

/// 4 KB pages everywhere (Table 3).
const PAGE_BYTES: u64 = 4096;

/// Most requests per submission-queue entry, and the batch closed-loop
/// replay always fills before submitting.
const BATCH_REQUESTS: usize = 64;

/// Closed-loop submission-queue depth in batches — bounds each shard at
/// `SQ_BATCHES * BATCH_REQUESTS` requests in flight.
const SQ_BATCHES: usize = 32;

// ---- Reports ----------------------------------------------------------------

/// Per-shard load distribution of one sharded run — reported so partition
/// skew is visible instead of silently averaged away.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardLoadStats {
    /// Host sub-requests routed to each shard, in shard order.
    pub requests: Vec<u64>,
    /// User page accesses served by each shard, in shard order.
    pub page_accesses: Vec<u64>,
    /// Busiest shard's page accesses over the per-shard mean (1.0 =
    /// perfectly balanced; the run's wall clock tracks the busiest shard).
    pub imbalance: f64,
}

impl ShardLoadStats {
    fn from_reports(per_shard: &[RunReport]) -> Self {
        let page_accesses: Vec<u64> = per_shard
            .iter()
            .map(|r| r.ftl_stats.user_page_accesses())
            .collect();
        let max = page_accesses.iter().copied().max().unwrap_or(0);
        let mean = page_accesses.iter().sum::<u64>() as f64 / page_accesses.len().max(1) as f64;
        Self {
            requests: per_shard.iter().map(|r| r.ftl_stats.requests).collect(),
            page_accesses,
            imbalance: if mean == 0.0 { 1.0 } else { max as f64 / mean },
        }
    }
}

/// The result of a sharded run: the per-shard [`RunReport`]s (in shard
/// order) and their deterministic merge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedRunReport {
    /// Aggregate over all shards. With one shard this is the shard's
    /// report verbatim; otherwise counters are shard-order sums and
    /// `sim.resp_avg_us` is the request-weighted mean.
    pub merged: RunReport,
    /// One report per shard, in shard order.
    pub per_shard: Vec<RunReport>,
    /// Load-balance summary of the same run.
    pub load: ShardLoadStats,
}

/// Folds per-shard reports in shard order; see [`ShardedRunReport::merged`].
fn merge_reports(per_shard: &[RunReport]) -> RunReport {
    assert!(!per_shard.is_empty(), "no shard reports to merge");
    if per_shard.len() == 1 {
        return per_shard[0].clone();
    }
    let mut ftl_stats = FtlStats::default();
    let mut flash = FlashStats::default();
    let mut gc = GcStats::default();
    let mut responses = 0u64;
    let mut cached_entries = 0usize;
    let mut cache_bytes_used = 0usize;
    let mut cache_bytes_total = 0usize;
    let mut erase_max = 0u64;
    // Simulated clocks: shards are parallel devices, so the merged
    // makespan is the latest shard's and the busiest unit the busiest of
    // any shard's (shard-order folds of `max`, still deterministic), while
    // device time — occupied device-microseconds — sums like `busy_us`, and
    // so do the GC lane's stall, forced drains and pending work.
    // Percentiles need the sample distribution, not per-shard
    // percentiles; `ShardedSsd::report` fills them from the merged
    // histograms.
    let mut sim = SimTiming {
        channels: per_shard[0].sim.channels,
        ways: per_shard[0].sim.ways,
        ..SimTiming::default()
    };
    let mut sim_resp_weighted = 0.0;
    for r in per_shard {
        ftl_stats.merge_from(&r.ftl_stats);
        flash.merge_from(&r.flash);
        gc.merge_from(&r.gc);
        responses += r.ftl_stats.requests;
        cached_entries += r.cached_entries;
        cache_bytes_used += r.cache_bytes_used;
        cache_bytes_total += r.cache_bytes_total;
        erase_max = erase_max.max(r.erase_max);
        sim.device_us += r.sim.device_us;
        sim.makespan_us = sim.makespan_us.max(r.sim.makespan_us);
        sim.busiest_unit_us = sim.busiest_unit_us.max(r.sim.busiest_unit_us);
        sim.gc_stall_us += r.sim.gc_stall_us;
        sim.gc_forced_drains += r.sim.gc_forced_drains;
        sim.gc_pending_us += r.sim.gc_pending_us;
        sim_resp_weighted += r.sim.resp_avg_us * r.ftl_stats.requests as f64;
    }
    if responses > 0 {
        sim.resp_avg_us = sim_resp_weighted / responses as f64;
    }
    RunReport {
        ftl: per_shard[0].ftl.clone(),
        ftl_stats,
        flash,
        gc,
        cached_entries,
        cache_bytes_used,
        cache_bytes_total,
        erase_max,
        sim,
    }
}

// ---- Open-loop driver types -------------------------------------------------

/// Parameters for one open-loop steady-state run.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopOpts {
    /// Offered arrival rate, host requests per second. Request `k` is
    /// scheduled at `k / offered_rps` on the wall clock whether or not
    /// the device has kept up.
    pub offered_rps: f64,
    /// Per-shard submission-queue depth in requests (power of two).
    /// Requests beyond it queue host-side without bound.
    pub queue_depth: usize,
}

/// What an open-loop run measured.
///
/// The wall-clock numbers (`achieved_rps`, the `resp_*` percentiles,
/// `doorbells`) vary run to run with machine load; the embedded
/// [`ShardedRunReport`] is the same deterministic, bit-reproducible
/// simulation report a closed-loop run produces.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// The configured arrival rate (host requests/s).
    pub offered_rps: f64,
    /// Host requests offered (scheduled and eventually completed).
    pub requests: u64,
    /// Sub-requests after shard splitting; each is measured as its own
    /// completion.
    pub sub_requests: u64,
    /// Wall clock from the first scheduled arrival to the last harvested
    /// completion, in microseconds.
    pub wall_us: f64,
    /// `requests / wall` — equals `offered_rps` while the device keeps
    /// up and collapses to the service rate beyond saturation.
    pub achieved_rps: f64,
    /// Mean wall-clock response (completion − scheduled arrival), µs.
    pub resp_avg_us: f64,
    /// Median wall-clock response, µs.
    pub resp_p50_us: f64,
    /// 99th-percentile wall-clock response, µs.
    pub resp_p99_us: f64,
    /// 99.9th-percentile wall-clock response, µs.
    pub resp_p999_us: f64,
    /// Largest host-side backlog observed (sub-requests waiting for
    /// submission-queue space), a direct overload signal.
    pub backlog_peak: u64,
    /// Park/unpark totals across every ring in the run — idle shards
    /// show up here as parks, not burned CPU.
    pub doorbells: DoorbellStats,
    /// The deterministic simulation-side report (FTL counters, simulated
    /// clocks), merged exactly like a closed-loop run.
    pub report: ShardedRunReport,
}

// ---- The runner's host side ---------------------------------------------------

/// One shard's queue pair: batches of requests in, one [`Cqe`] per batch
/// out.
type ShardQueues = QueuePair<Vec<IoRequest>, Cqe>;

/// Completion entry of one batch.
struct Cqe {
    /// Requests now out of flight (served, or skipped after a failure).
    retired: usize,
    /// The shard's serve failed; the worker keeps draining.
    failed: bool,
}

/// The submitting thread's view of the shards: the backlog in front of
/// each submission queue and how full each shard's in-flight window is.
struct Host<'a> {
    pairs: &'a [ShardQueues],
    /// Most requests in flight per shard (submitted, not yet harvested).
    window: usize,
    backlog: Vec<VecDeque<IoRequest>>,
    in_flight: Vec<usize>,
    failed: bool,
}

impl Host<'_> {
    fn retire(&mut self, shard: usize, cqe: Cqe) {
        self.in_flight[shard] -= cqe.retired;
        self.failed |= cqe.failed;
    }

    /// Harvests completions and submits backlog, in entries of `min_batch`
    /// (at least 1) to [`BATCH_REQUESTS`] requests while the window has
    /// room (the queues are sized so a push never waits). While some
    /// backlog still holds `limit` requests its shard's window is full, so
    /// that shard will post: sleep on its completion queue and go round
    /// again. A queue that closes instead means the worker died, which
    /// ends the run.
    fn pump(&mut self, min_batch: usize, limit: usize) {
        let pairs = self.pairs;
        while !self.failed {
            for (shard, pair) in pairs.iter().enumerate() {
                while let Some(cqe) = pair.cq.try_pop() {
                    self.retire(shard, cqe);
                }
                loop {
                    let room = self.window - self.in_flight[shard];
                    let take = self.backlog[shard].len().min(BATCH_REQUESTS).min(room);
                    if take < min_batch {
                        break;
                    }
                    self.in_flight[shard] += take;
                    pair.sq
                        .push_blocking(self.backlog[shard].drain(..take).collect());
                }
            }
            let Some(shard) = self.backlog.iter().position(|q| q.len() >= limit) else {
                return;
            };
            match pairs[shard].cq.pop_blocking() {
                Some(cqe) => self.retire(shard, cqe),
                None => self.failed = true,
            }
        }
    }
}

// ---- The engine -------------------------------------------------------------

/// `N` independent single-queue SSDs behind an LPN-striping splitter —
/// the multi-queue execution engine.
///
/// # Examples
///
/// ```
/// use tpftl_core::ftl::{TpFtl, TpftlConfig};
/// use tpftl_core::SsdConfig;
/// use tpftl_sim::ShardedSsd;
/// use tpftl_trace::SyntheticSpec;
///
/// let config = SsdConfig::paper_default(64 << 20);
/// let mut ssd = ShardedSsd::new(&config, 4, |_, shard_cfg| {
///     TpFtl::new(shard_cfg, TpftlConfig::full())
/// })
/// .unwrap();
/// let spec = SyntheticSpec {
///     requests: 300,
///     address_bytes: 64 << 20,
///     ..SyntheticSpec::default()
/// };
/// let report = ssd.run(spec.iter(42)).unwrap();
/// // Multi-page requests split into one sub-request per shard touched.
/// assert!(report.merged.ftl_stats.requests >= 300);
/// assert_eq!(report.per_shard.len(), 4);
/// ```
pub struct ShardedSsd<F: Ftl + Send> {
    shards: Vec<Ssd<F>>,
    splitter: ShardSplitter,
    last_doorbells: DoorbellStats,
}

impl<F: Ftl + Send> ShardedSsd<F> {
    /// Builds and bootstraps one `1/num_shards`-geometry SSD per shard;
    /// `build` constructs each shard's FTL from `(shard_index, shard_config)`.
    ///
    /// # Panics
    ///
    /// Panics when `config` cannot be partitioned into `num_shards` shards
    /// (see `SsdConfig::supports_shards`).
    pub fn new<B>(config: &SsdConfig, num_shards: u32, build: B) -> Result<Self>
    where
        B: Fn(u32, &SsdConfig) -> Result<F>,
    {
        let shard_config = config.shard_config(num_shards);
        let shards = (0..num_shards)
            .map(|s| Ssd::new(build(s, &shard_config)?, shard_config.clone()))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            shards,
            splitter: ShardSplitter::new(num_shards, PAGE_BYTES),
            last_doorbells: DoorbellStats::default(),
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> u32 {
        self.splitter.shards()
    }

    /// Read-only access to one shard's SSD (tests, inspection).
    pub fn shard(&self, index: usize) -> &Ssd<F> {
        &self.shards[index]
    }

    /// Flushes every shard ([`Ssd::flush`]) in shard order — the
    /// clean-unmount barrier, after which `tpftl_core::recovery::verify`
    /// holds on each shard's environment. A failing shard does not stop the
    /// ones after it; the first error (in shard order) is returned.
    pub fn flush(&mut self) -> Result<()> {
        let flushed = self.shards.iter_mut().map(Ssd::flush);
        flushed.fold(Ok(()), Result::and)
    }

    /// Park/unpark totals across all queue-pair doorbells of the most
    /// recent `run`/`run_open_loop` — the proof that idle workers slept
    /// (parks) and were woken by doorbells (wakeups), not by polling.
    pub fn doorbell_stats(&self) -> DoorbellStats {
        self.last_doorbells
    }

    /// Serves an entire trace across the shards — one worker thread per
    /// shard fed through its queue pair in batches of `BATCH_REQUESTS`,
    /// with per-batch completion entries harvested on the submitting
    /// thread — and reports the merged measurements.
    ///
    /// The first shard error (in shard order) is returned; remaining
    /// shards drain their queues so the splitter never blocks on a dead
    /// consumer.
    pub fn run<I>(&mut self, trace: I) -> Result<ShardedRunReport>
    where
        I: IntoIterator<Item = IoRequest>,
    {
        Ok(self.drive(trace.into_iter(), None)?.report)
    }

    /// Drives the shards at a fixed wall-clock arrival rate (open loop).
    ///
    /// The trace's payloads are kept, its arrivals rewritten to the
    /// `opts.offered_rps` schedule (see `tpftl_trace::fixed_rate`).
    /// Requests are submitted when due — late submission is *caught up*
    /// in a burst, never skipped, so a stalled device accumulates
    /// backlog and the latency distribution shows it (no coordinated
    /// omission). Each sub-request's response time is wall clock at
    /// completion minus its **scheduled** arrival.
    ///
    /// The first shard error (in shard order) is returned, as in
    /// [`run`](Self::run).
    pub fn run_open_loop<I>(&mut self, trace: I, opts: OpenLoopOpts) -> Result<OpenLoopReport>
    where
        I: IntoIterator<Item = IoRequest>,
    {
        assert!(
            opts.queue_depth.is_power_of_two(),
            "queue depth not a power of two"
        );
        self.drive(fixed_rate(trace, opts.offered_rps), Some(opts))
    }

    /// The one runner: a worker per shard, the trace split into per-shard
    /// backlogs on this thread, backlog moved into the submission queues
    /// as the pacing allows. Closed loop (`open == None`) is open loop with
    /// every request always due, full batches, and a host that waits
    /// instead of letting backlog grow; its wall-clock fields are unused.
    ///
    /// Returns the first shard error in shard order, or the error of a
    /// worker thread that could not be spawned; a worker's panic is
    /// re-raised with its own payload.
    fn drive<I>(&mut self, trace: I, open: Option<OpenLoopOpts>) -> Result<OpenLoopReport>
    where
        I: Iterator<Item = IoRequest>,
    {
        // (requests per queue entry at least, requests in flight per shard
        // at most, backlog at which the host stops reading the trace).
        let (min_batch, window, backlog_limit) = match open {
            None => (BATCH_REQUESTS, SQ_BATCHES * BATCH_REQUESTS, BATCH_REQUESTS),
            Some(opts) => (1, opts.queue_depth, usize::MAX),
        };
        // Twice the submission depth for completions: every entry a worker
        // can owe fits, so a worker never waits on the host.
        let sq_depth = window / min_batch;
        let pairs: Vec<ShardQueues> = (0..self.shards.len())
            .map(|_| QueuePair::new(sq_depth, 2 * sq_depth))
            .collect();
        let mut host = Host {
            pairs: &pairs,
            window,
            backlog: pairs.iter().map(|_| VecDeque::new()).collect(),
            in_flight: vec![0; pairs.len()],
            failed: false,
        };
        let splitter = self.splitter;
        let epoch = Instant::now();
        let (mut requests, mut sub_requests, mut backlog_peak) = (0u64, 0u64, 0usize);

        let (joined, wall_us) = std::thread::scope(|scope| {
            let schedule = open.map(|_| epoch);
            let mut handles = Vec::with_capacity(pairs.len());
            for (i, (ssd, pair)) in self.shards.iter_mut().zip(&pairs).enumerate() {
                match std::thread::Builder::new()
                    .name(format!("ftl-shard-{i}"))
                    .spawn_scoped(scope, move || shard_worker(ssd, pair, schedule))
                {
                    Ok(handle) => handles.push(handle),
                    Err(e) => {
                        // Release the workers already running; the scope
                        // joins them on the way out.
                        pairs.iter().for_each(|p| p.sq.close());
                        return Err(FtlError::WorkerSpawn(e.kind()));
                    }
                }
            }

            for req in trace {
                // Open loop: hold the request until it is due. Sleep in
                // bounded chunks so completions keep being harvested; close
                // to the deadline, yield instead (the OS timer is ~50 µs-
                // grained). Oversleep is harmless: late requests submit in
                // a catch-up burst, still measured from the schedule.
                if open.is_some() {
                    loop {
                        host.pump(min_batch, backlog_limit);
                        let remaining = req.arrival_us - epoch.elapsed().as_secs_f64() * 1e6;
                        if remaining <= 0.0 {
                            break;
                        } else if remaining > 150.0 {
                            let chunk = remaining.min(500.0) as u64 - 100;
                            std::thread::sleep(Duration::from_micros(chunk));
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
                if host.failed {
                    break;
                }
                splitter.split(&req, |shard, sub| {
                    host.backlog[shard as usize].push_back(sub);
                    sub_requests += 1;
                });
                requests += 1;
                host.pump(min_batch, backlog_limit);
                backlog_peak = backlog_peak.max(host.backlog.iter().map(VecDeque::len).sum());
            }

            // Flush what is left (partial batches, the overload tail), then
            // close and drain: a worker closes its completion queue once
            // its submissions are served.
            host.pump(1, 1);
            for pair in &pairs {
                pair.sq.close();
                while pair.cq.pop_blocking().is_some() {}
            }
            let wall_us = epoch.elapsed().as_secs_f64() * 1e6;
            let joined: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
                .collect();
            Ok((joined, wall_us))
        })?;

        self.last_doorbells = pairs
            .iter()
            .map(QueuePair::doorbell_stats)
            .fold(DoorbellStats::default(), DoorbellStats::merge);
        let mut hist = LatencyHistogram::new();
        let mut resp_sum_us = 0.0;
        for (result, shard_hist, shard_sum_us) in joined {
            result?;
            hist.merge_from(&shard_hist);
            resp_sum_us += shard_sum_us;
        }
        debug_assert!(open.is_none() || hist.total() == sub_requests);
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        Ok(OpenLoopReport {
            offered_rps: open.map_or(0.0, |opts| opts.offered_rps),
            requests,
            sub_requests,
            wall_us,
            achieved_rps: per(requests as f64 * 1e6, wall_us),
            resp_avg_us: per(resp_sum_us, hist.total() as f64),
            resp_p50_us: hist.quantile(0.5),
            resp_p99_us: hist.quantile(0.99),
            resp_p999_us: hist.p999(),
            backlog_peak: backlog_peak as u64,
            doorbells: self.last_doorbells,
            report: self.report(),
        })
    }

    /// The measurements accumulated so far, merged in shard order.
    pub fn report(&self) -> ShardedRunReport {
        let per_shard: Vec<RunReport> = self.shards.iter().map(Ssd::report).collect();
        let mut merged = merge_reports(&per_shard);
        if self.shards.len() > 1 {
            // Exact merged percentiles: histogram counts are integers, so
            // this merge is order-independent and bit-reproducible.
            let mut hist = LatencyHistogram::new();
            for shard in &self.shards {
                hist.merge_from(shard.sim_histogram());
            }
            merged.sim.resp_p50_us = hist.quantile(0.5);
            merged.sim.resp_p99_us = hist.quantile(0.99);
            merged.sim.resp_p999_us = hist.p999();
        }
        ShardedRunReport {
            merged,
            load: ShardLoadStats::from_reports(&per_shard),
            per_shard,
        }
    }
}

/// One shard's worker: serves batches until the submission queue closes,
/// posting one completion entry per batch, and returns the serve result
/// with the wall-clock responses it measured (histogram, sum) — against
/// each request's scheduled arrival when there is a `schedule`, none
/// otherwise. After a serve error it posts failed completions (telling
/// the host to stop) but keeps draining, so the host's window accounting
/// still balances.
fn shard_worker<F: Ftl>(
    ssd: &mut Ssd<F>,
    pair: &ShardQueues,
    schedule: Option<Instant>,
) -> (Result<()>, LatencyHistogram, f64) {
    /// Closes the completion queue on every exit, a panic included: the
    /// host must never sleep on a queue nobody will post to.
    struct CloseOnExit<'a>(&'a DoorbellRing<Cqe>);
    impl Drop for CloseOnExit<'_> {
        fn drop(&mut self) {
            self.0.close();
        }
    }
    let _close = CloseOnExit(&pair.cq);

    let mut result = Ok(());
    let (mut hist, mut resp_sum_us) = (LatencyHistogram::new(), 0.0);
    while let Some(batch) = pair.sq.pop_blocking() {
        for req in &batch {
            if result.is_err() {
                break;
            }
            result = ssd.serve(req).map(drop);
            if let (Ok(()), Some(epoch)) = (&result, schedule) {
                let now_us = epoch.elapsed().as_secs_f64() * 1e6;
                let resp_us = (now_us - req.arrival_us).max(0.0);
                hist.record(resp_us);
                resp_sum_us += resp_us;
            }
        }
        pair.cq.push_blocking(Cqe {
            retired: batch.len(),
            failed: result.is_err(),
        });
    }
    (result, hist, resp_sum_us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpftl_core::ftl::{OptimalFtl, TpFtl, TpftlConfig};
    use tpftl_trace::{Dir, SyntheticSpec};

    fn spec(requests: usize) -> SyntheticSpec {
        SyntheticSpec {
            requests,
            address_bytes: 64 << 20,
            write_ratio: 0.7,
            mean_req_sectors: 24.0, // multi-page requests exercise the split
            mean_interarrival_us: 300.0,
            ..SyntheticSpec::default()
        }
    }

    fn tp_config() -> SsdConfig {
        let mut config = SsdConfig::paper_default(64 << 20);
        config.cache_bytes = config.gtd_bytes() + 16 * 1024;
        config
    }

    fn build_tp(_: u32, cfg: &SsdConfig) -> Result<TpFtl> {
        TpFtl::new(cfg, TpftlConfig::full())
    }

    #[test]
    fn one_shard_matches_single_queue_bit_for_bit() {
        let config = tp_config();
        let trace: Vec<IoRequest> = spec(1_500).iter(7).collect();

        let ftl = TpFtl::new(&config, TpftlConfig::full()).unwrap();
        let mut single = Ssd::new(ftl, config.clone()).unwrap();
        let single_report = single.run(trace.iter().copied()).unwrap();

        let mut sharded = ShardedSsd::new(&config, 1, build_tp).unwrap();
        let report = sharded.run(trace).unwrap();
        assert_eq!(report.merged, single_report);
        assert_eq!(report.per_shard.len(), 1);
        assert!((report.load.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn four_shards_are_deterministic_and_conserve_accesses() {
        let config = tp_config();
        let trace: Vec<IoRequest> = spec(2_000).iter(11).collect();

        let ftl = TpFtl::new(&config, TpftlConfig::full()).unwrap();
        let mut single = Ssd::new(ftl, config.clone()).unwrap();
        let single_report = single.run(trace.iter().copied()).unwrap();

        let run = || {
            let mut sharded = ShardedSsd::new(&config, 4, build_tp).unwrap();
            sharded.run(trace.iter().copied()).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same trace must merge to identical reports");

        // The partition must conserve work: same page accesses, reads,
        // writes as the single-queue run (requests multiply when split).
        assert_eq!(
            a.merged.ftl_stats.user_page_accesses(),
            single_report.ftl_stats.user_page_accesses()
        );
        assert_eq!(
            a.merged.ftl_stats.user_page_reads,
            single_report.ftl_stats.user_page_reads
        );
        assert_eq!(
            a.merged.ftl_stats.user_page_writes,
            single_report.ftl_stats.user_page_writes
        );
        assert_eq!(
            a.load.page_accesses.iter().sum::<u64>(),
            single_report.ftl_stats.user_page_accesses()
        );
        assert!(a.load.imbalance >= 1.0);
        // Low-bit striping keeps this workload within a few percent of
        // perfectly balanced.
        assert!(a.load.imbalance < 1.1, "imbalance {}", a.load.imbalance);
    }

    #[test]
    fn merge_is_request_weighted() {
        let config = tp_config();
        let mut sharded = ShardedSsd::new(&config, 2, build_tp).unwrap();
        let report = sharded.run(spec(800).iter(3)).unwrap();
        let by_hand: f64 = report
            .per_shard
            .iter()
            .map(|r| r.sim.resp_avg_us * r.ftl_stats.requests as f64)
            .sum::<f64>()
            / report
                .per_shard
                .iter()
                .map(|r| r.ftl_stats.requests)
                .sum::<u64>() as f64;
        assert!((report.merged.sim.resp_avg_us - by_hand).abs() < 1e-9);
        assert_eq!(
            report.merged.ftl_stats.requests,
            report.per_shard.iter().map(|r| r.ftl_stats.requests).sum()
        );
    }

    #[test]
    fn sim_clocks_merge_deterministically() {
        let config = tp_config();
        let trace: Vec<IoRequest> = spec(1_200).iter(9).collect();
        let mut sharded = ShardedSsd::new(&config, 4, build_tp).unwrap();
        let report = sharded.run(trace).unwrap();
        let m = &report.merged.sim;
        // Makespan and busiest unit are the latest / busiest shard's;
        // device time the sum of all shards.
        let max_of = |f: fn(&RunReport) -> f64| report.per_shard.iter().map(f).fold(0.0, f64::max);
        let sum_device: f64 = report.per_shard.iter().map(|r| r.sim.device_us).sum();
        assert_eq!(
            m.makespan_us.to_bits(),
            max_of(|r| r.sim.makespan_us).to_bits()
        );
        assert_eq!(
            m.busiest_unit_us.to_bits(),
            max_of(|r| r.sim.busiest_unit_us).to_bits()
        );
        assert!(m.busiest_unit_us > 0.0);
        assert_eq!(m.device_us.to_bits(), sum_device.to_bits());
        // The GC lane's stall, forced drains and pending work sum too.
        let sum_of = |f: fn(&RunReport) -> f64| report.per_shard.iter().map(f).sum::<f64>();
        assert_eq!(
            m.gc_stall_us.to_bits(),
            sum_of(|r| r.sim.gc_stall_us).to_bits()
        );
        assert_eq!(
            m.gc_pending_us.to_bits(),
            sum_of(|r| r.sim.gc_pending_us).to_bits()
        );
        assert_eq!(
            m.gc_forced_drains,
            report
                .per_shard
                .iter()
                .map(|r| r.sim.gc_forced_drains)
                .sum::<u64>()
        );
        // Percentiles come from the merged histogram, not a fold of
        // per-shard percentiles.
        let mut hist = LatencyHistogram::new();
        for i in 0..4 {
            hist.merge_from(sharded.shard(i).sim_histogram());
        }
        assert_eq!(m.resp_p50_us, hist.quantile(0.5));
        assert_eq!(m.resp_p99_us, hist.quantile(0.99));
        assert_eq!(m.resp_p999_us, hist.p999());
        assert!(m.resp_p999_us >= m.resp_p99_us);
        assert!(m.resp_p99_us >= m.resp_p50_us);
        assert!(hist.total() > 0);
    }

    #[test]
    fn shard_errors_surface_in_shard_order() {
        let config = SsdConfig::paper_default(64 << 20);
        let mut sharded = ShardedSsd::new(&config, 2, |_, cfg| Ok(OptimalFtl::new(cfg))).unwrap();
        // One shard owns 8192 local pages; address far beyond both shards.
        let bad = IoRequest::new(0.0, 1 << 30, 4096, Dir::Write);
        assert!(sharded.run(std::iter::once(bad)).is_err());
        // The engine survives the error: shards are back and usable.
        let ok = IoRequest::new(0.0, 0, 4096, Dir::Write);
        assert!(sharded.run(std::iter::once(ok)).is_ok());
    }

    /// A sharded device unmounts cleanly: after a Financial1 replay over two
    /// shards and one `flush`, each shard's persisted table and physical
    /// pages agree exactly, nothing dirty is left in its cache, and every
    /// page the trace wrote is found through the table of the shard that
    /// owns it.
    #[test]
    fn flush_leaves_every_shard_verifiable() {
        use tpftl_core::recovery;
        use tpftl_trace::presets::Workload;

        let mut config = SsdConfig::paper_default(Workload::Financial1.address_bytes());
        config.cache_bytes = config.gtd_bytes() + 8 * 1024;
        let trace: Vec<IoRequest> = Workload::Financial1.spec(20_000).iter(2015).collect();
        let mut sharded = ShardedSsd::new(&config, 2, build_tp).unwrap();
        sharded.run(trace.iter().copied()).unwrap();
        let dirty = |ssd: &ShardedSsd<TpFtl>, shard: usize| -> u32 {
            let cached = ssd.shard(shard).ftl().cached_tp_distribution();
            cached.iter().map(|d| d.dirty).sum()
        };
        assert!(dirty(&sharded, 0) > 0 && dirty(&sharded, 1) > 0);
        sharded.flush().unwrap();

        for shard in 0..2 {
            assert_eq!(dirty(&sharded, shard), 0);
            recovery::verify(sharded.shard(shard).env()).assert_clean();
        }
        let written = trace.iter().filter(|r| r.dir == Dir::Write);
        for page in written.flat_map(|r| r.pages(PAGE_BYTES)) {
            let env = sharded
                .shard(sharded.splitter.shard_of(page) as usize)
                .env();
            let local = sharded.splitter.local_page(page) as u32;
            let ppn = recovery::lookup(env, local).expect("a written page is mapped");
            assert_eq!(env.flash().tag(ppn), Ok(local), "page {page}");
        }
    }

    #[test]
    fn pacing_does_not_change_what_the_device_does() {
        // Closed-loop batches of 64 vs open-loop single requests on a
        // wall-clock schedule: each shard still sees the same projection of
        // the trace, so everything but the clocks must agree.
        let config = tp_config();
        let trace: Vec<IoRequest> = spec(1_500).iter(17).collect();
        for shards in [1, 4] {
            let mut closed = ShardedSsd::new(&config, shards, build_tp).unwrap();
            let closed = closed.run(trace.iter().copied()).unwrap();
            let mut open = ShardedSsd::new(&config, shards, build_tp).unwrap();
            let open = open
                .run_open_loop(
                    trace.iter().copied(),
                    OpenLoopOpts {
                        offered_rps: 400_000.0,
                        queue_depth: 16,
                    },
                )
                .unwrap()
                .report;
            assert_eq!(closed.load, open.load);
            for (c, o) in closed.per_shard.iter().zip(&open.per_shard) {
                assert_eq!(c.ftl_stats, o.ftl_stats);
                assert_eq!(c.flash, o.flash);
                assert_eq!(c.gc, o.gc);
                assert_eq!(c.cached_entries, o.cached_entries);
            }
            assert_eq!(closed.merged.ftl_stats, open.merged.ftl_stats);
            assert_eq!(closed.merged.flash, open.merged.flash);
            assert_eq!(closed.merged.gc, open.merged.gc);
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn worker_panic_reaches_the_caller_with_its_own_payload() {
        // Shard 1's mapping table is empty, so its worker dies on its first
        // translate; the trace is far longer than one in-flight window, so
        // the host is feeding (then waiting on) a dead shard when it goes.
        use crate::ssd::tests::WriteThroughFtl;
        let config = SsdConfig::paper_default(64 << 20);
        let mut sharded = ShardedSsd::new(&config, 2, |shard, cfg| {
            let pages = if shard == 1 { 0 } else { cfg.logical_pages() };
            Ok(WriteThroughFtl(vec![None; pages as usize]))
        })
        .unwrap();
        let _ = sharded.run(spec(20_000).iter(4));
    }

    #[test]
    fn open_loop_completes_everything_and_reports_sane_latencies() {
        let config = tp_config();
        let mut sharded = ShardedSsd::new(&config, 4, build_tp).unwrap();
        let out = sharded
            .run_open_loop(
                spec(400).iter(21),
                OpenLoopOpts {
                    offered_rps: 100_000.0,
                    queue_depth: 64,
                },
            )
            .unwrap();
        assert_eq!(out.requests, 400);
        assert!(out.sub_requests >= out.requests);
        assert_eq!(
            out.report.merged.ftl_stats.requests, out.sub_requests,
            "every offered sub-request must be served exactly once"
        );
        assert!(out.wall_us > 0.0 && out.achieved_rps > 0.0);
        assert!(
            out.achieved_rps <= out.offered_rps * 1.05,
            "cannot serve faster than offered"
        );
        assert!(out.resp_p50_us <= out.resp_p99_us);
        assert!(out.resp_p99_us <= out.resp_p999_us);
        assert!(out.resp_avg_us >= 0.0);
    }

    #[test]
    fn open_loop_simulation_report_is_deterministic() {
        // Wall-clock latencies vary run to run; the embedded simulation
        // report must not (fixed arrival schedule, shard-order merge).
        let config = tp_config();
        let run = || {
            let mut sharded = ShardedSsd::new(&config, 4, build_tp).unwrap();
            sharded
                .run_open_loop(
                    spec(600).iter(5),
                    OpenLoopOpts {
                        offered_rps: 500_000.0,
                        queue_depth: 64,
                    },
                )
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.report, b.report);
        assert_eq!((a.requests, a.sub_requests), (b.requests, b.sub_requests));
    }

    #[test]
    fn open_loop_idle_shards_park_instead_of_spinning() {
        // 2 000 req/s over 4 shards leaves every worker idle ~99% of the
        // run; parked workers are the "idle engine consumes ~0% CPU"
        // guarantee. Each worker parks after nearly every request, so
        // parks track the request count, not the spin budget.
        let config = tp_config();
        let mut sharded = ShardedSsd::new(&config, 4, build_tp).unwrap();
        let out = sharded
            .run_open_loop(
                spec(60).iter(13),
                OpenLoopOpts {
                    offered_rps: 2_000.0,
                    queue_depth: 64,
                },
            )
            .unwrap();
        let db = out.doorbells;
        assert!(
            db.parks >= out.requests / 4,
            "workers spun instead of parking: {} parks for {} requests",
            db.parks,
            out.requests
        );
        assert!(db.wakeups >= 1, "doorbells never rang");
        assert_eq!(sharded.doorbell_stats(), db);
    }

    #[test]
    fn open_loop_shard_errors_surface() {
        let config = SsdConfig::paper_default(64 << 20);
        let mut sharded = ShardedSsd::new(&config, 2, |_, cfg| Ok(OptimalFtl::new(cfg))).unwrap();
        let bad = IoRequest::new(0.0, 1 << 30, 4096, Dir::Write);
        let res = sharded.run_open_loop(
            std::iter::once(bad),
            OpenLoopOpts {
                offered_rps: 10_000.0,
                queue_depth: 16,
            },
        );
        assert!(res.is_err());
        let ok = IoRequest::new(0.0, 0, 4096, Dir::Write);
        assert!(sharded
            .run_open_loop(
                std::iter::once(ok),
                OpenLoopOpts {
                    offered_rps: 10_000.0,
                    queue_depth: 16,
                },
            )
            .is_ok());
    }
}
