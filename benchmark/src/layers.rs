//! The traced run: the per-layer ledger.
//!
//! Outside-in: nothing here is measured from inside the library. One
//! untraced and one traced repetition of the workload's trace on the
//! single-queue engine give the span-derived shares and the tracing
//! overhead; replays of a pre-generated `Vec` isolate the generator and
//! the `Ssd` wrapper; direct calls to public functions price the flash
//! state machine, the unit clocks, the translation-page helpers, the
//! histogram and the rings; and three sharded passes (1 shard, 2 shards,
//! open loop) price the queueing engine. Every workload measures every
//! layer, so the ledger has the same shape everywhere.

use std::hint::black_box;
use std::time::Instant;

use tpftl_core::env::SsdEnv;
use tpftl_core::ftl::Ftl;
use tpftl_core::{driver, gc, Lpn, Ppn, Result, SsdConfig, Vtpn};
use tpftl_experiments::runner::FtlKind;
use tpftl_flash::{Flash, FlashGeometry, FlashTopology, OpPurpose, UnitClocks};
use tpftl_sim::{DoorbellRing, LatencyHistogram, OpenLoopOpts, RunReport, ShardedSsd, Ssd};
use tpftl_trace::{parse, IoRequest, ShardSplitter};

use crate::checks::{Violations, PAGE_BYTES};
use crate::e2e::{BoxFtl, Counters};
use crate::machine::{Paced, Speeds};
use crate::metrics::{Ledger, PER_LAYER};
use crate::spans::{self, Kind, Recorder};
use crate::stat::{median, quantile_interp, quartiles};
use crate::traced::{self, Traced};
use crate::workloads::{scaled, WorkloadDef};

/// Requests per chunk of the chunked `Vec` replay.
const CHUNK_REQUESTS: usize = 10_000;
/// Requests of the `write_spc` → `parse_spc` round trip.
const PARSE_REQUESTS: usize = 200_000;
/// The open-loop pass: requests, offered rate, queue depth.
const OPEN_LOOP_REQUESTS: usize = 400_000;
const OPEN_LOOP_RPS: f64 = 200_000.0;
const OPEN_LOOP_QD: usize = 64;
/// Paired `Ssd::run` / `driver::serve_request` replays.
const SELF_PAIRS: usize = 5;
/// The FTL inside the sharded passes, whatever the workload's own.
const ENGINE_FTL: FtlKind = FtlKind::Tpftl;

fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as f64)
}

// ---- Replays ---------------------------------------------------------------

/// A bootstrapped single-queue device running `kind`.
fn fresh_ssd(kind: FtlKind, config: &SsdConfig) -> Result<Ssd<BoxFtl>> {
    Ssd::new(kind.build(config)?, config.clone())
}

/// A bootstrapped FTL and environment with no `Ssd` around them.
fn fresh_env(kind: FtlKind, config: SsdConfig) -> Result<(BoxFtl, SsdEnv)> {
    let mut ftl = kind.build(&config)?;
    let mut env = SsdEnv::new(config)?;
    driver::bootstrap(&mut ftl, &mut env)?;
    Ok((ftl, env))
}

/// One untraced `Ssd::run` of the generator, with the set-up split by
/// layer.
struct Untraced {
    report: RunReport,
    /// Raw wall time of the replay, ns (reference slices taken out, not
    /// scaled: every time in this ledger is raw).
    wall_ns: f64,
    /// Machine speed during the replay, as multiples of nominal.
    speeds: Speeds,
    build_s: f64,
    bootstrap_s: f64,
    iter_build_s: f64,
}

fn untraced_rep(def: &WorkloadDef, requests: usize, seed: u64) -> Result<Untraced> {
    let config = def.config();
    let (ftl, build_ns) = timed(|| def.ftl.build(&config));
    let (ssd, bootstrap_ns) = timed(|| Ssd::new(ftl?, config));
    let mut ssd = ssd?;
    let (trace, iter_ns) = timed(|| def.spec(requests).iter(seed));
    let mut trace = Paced::new(trace);
    let (report, wall_ns) = timed(|| ssd.run(&mut trace));
    Ok(Untraced {
        report: report?,
        wall_ns: wall_ns - trace.slices.ns() as f64,
        speeds: trace.slices.speeds(),
        build_s: build_ns / 1e9,
        bootstrap_s: bootstrap_ns / 1e9,
        iter_build_s: iter_ns / 1e9,
    })
}

/// One traced replay of the generator.
struct TracedRep {
    rec: Recorder,
    counters: Counters,
    responses: u64,
    /// Valid flash pages after bootstrap / after the replay.
    valid_pages: (u64, u64),
    cache_bytes_used: usize,
    cached_entries: usize,
}

fn traced_rep(def: &WorkloadDef, requests: usize, seed: u64) -> Result<TracedRep> {
    let config = def.config();
    let mut ftl = Traced {
        inner: def.ftl.build(&config)?,
        rec: Recorder::new(),
    };
    let mut env = SsdEnv::new(config)?;
    driver::bootstrap(&mut ftl, &mut env)?;
    let valid_before = env.flash().scan_valid().count() as u64;
    ftl.rec = Recorder::new();
    let clock = traced::replay(&mut ftl, &mut env, def.spec(requests).iter(seed))?;
    // The counters exactly as `Ssd::report` assembles them.
    let mut stats = env.stats.clone();
    (stats.wear_blocks, stats.wear_sum, stats.wear_sq_sum) = env.wear_summary();
    Ok(TracedRep {
        counters: Counters {
            ftl: stats,
            flash: env.flash().stats().clone(),
            gc: env.gc_stats.clone(),
        },
        responses: clock.hist.total(),
        valid_pages: (valid_before, env.flash().scan_valid().count() as u64),
        cache_bytes_used: ftl.cache_bytes_used(),
        cached_entries: ftl.cached_entries(),
        rec: ftl.rec,
    })
}

/// Replays a pre-generated trace through `Ssd::serve` in chunks; returns
/// ns/request per full chunk, overall ns/request, and the report.
fn chunked_replay(def: &WorkloadDef, trace: &[IoRequest]) -> Result<(Vec<f64>, f64, RunReport)> {
    let mut ssd = fresh_ssd(def.ftl, &def.config())?;
    let mut chunks = Vec::with_capacity(trace.len() / CHUNK_REQUESTS + 1);
    let mut total_ns = 0.0;
    for chunk in trace.chunks(CHUNK_REQUESTS) {
        let (res, ns) = timed(|| chunk.iter().try_for_each(|req| ssd.serve(req).map(drop)));
        res?;
        total_ns += ns;
        if chunk.len() == CHUNK_REQUESTS || chunks.is_empty() {
            chunks.push(ns / chunk.len() as f64);
        }
    }
    Ok((chunks, per(total_ns, trace.len() as f64), ssd.report()))
}

/// ns/request of `Ssd::run` over `prefix` on a fresh device.
fn ssd_replay_ns(def: &WorkloadDef, prefix: &[IoRequest]) -> Result<f64> {
    let mut ssd = fresh_ssd(def.ftl, &def.config())?;
    let (res, ns) = timed(|| ssd.run(prefix.iter().copied()));
    res?;
    Ok(ns / prefix.len() as f64)
}

/// ns/request of bare `driver::serve_request` over `prefix` on a fresh
/// device: the same FTL, GC and flash work with no arrival clock, no
/// response histogram and no `Ssd`.
fn bare_replay_ns(def: &WorkloadDef, prefix: &[IoRequest]) -> Result<f64> {
    let (mut ftl, mut env) = fresh_env(def.ftl, def.config())?;
    let (res, ns) = timed(|| {
        prefix.iter().try_for_each(|req| {
            let first = (req.offset / PAGE_BYTES) as Lpn;
            let count = req.page_count(PAGE_BYTES) as u32;
            driver::serve_request(&mut ftl, &mut env, first, count, req.is_write())
        })
    });
    res?;
    Ok(ns / prefix.len() as f64)
}

// ---- Direct calls ----------------------------------------------------------

/// ns per call of the flash state machine, on a 1024-block device of the
/// workload's topology (median of five rounds over every page).
struct FlashCosts {
    program: f64,
    read: f64,
    scan_per_page: f64,
    invalidate: f64,
    erase: f64,
}

fn flash_costs(geom: FlashGeometry) -> Result<FlashCosts> {
    let geom = FlashGeometry {
        num_blocks: geom.num_blocks.min(1024),
        ..geom
    };
    let (pages, blocks) = (geom.total_pages() as Ppn, geom.num_blocks as u32);
    let mut flash = Flash::new(geom)?;
    let mut rounds: [Vec<f64>; 5] = Default::default();
    for _ in 0..5 {
        let (res, program) = timed(|| {
            (0..pages).try_for_each(|ppn| flash.program_page(ppn, ppn, OpPurpose::HostData))
        });
        res?;
        let (res, read) = timed(|| {
            (0..pages).try_for_each(|ppn| {
                flash.read_page(ppn, OpPurpose::HostData).map(|info| {
                    black_box(info);
                })
            })
        });
        res?;
        let (found, scan) = timed(|| {
            (0..blocks)
                .map(|b| flash.valid_pages(b).count())
                .sum::<usize>()
        });
        black_box(found);
        let (res, invalidate) = timed(|| (0..pages).try_for_each(|ppn| flash.invalidate(ppn)));
        res?;
        let (res, erase) =
            timed(|| (0..blocks).try_for_each(|b| flash.erase_block(b, OpPurpose::GcData)));
        res?;
        let per_page = [program, read, scan, invalidate].map(|ns| ns / pages as f64);
        for (round, ns) in rounds
            .iter_mut()
            .zip(per_page.into_iter().chain([erase / blocks as f64]))
        {
            round.push(ns);
        }
    }
    let [program, read, scan_per_page, invalidate, erase] = rounds.map(|r| median(&r));
    Ok(FlashCosts {
        program,
        read,
        scan_per_page,
        invalidate,
        erase,
    })
}

/// ns per `UnitClocks::{read, write, erase}` at `topology`, units taken
/// round-robin.
fn clock_costs(topology: &FlashTopology) -> [f64; 3] {
    const CALLS: usize = 2_000_000;
    let mut clocks = UnitClocks::new(topology);
    let units = clocks.units();
    let mut run = |op: fn(&mut UnitClocks, usize, f64) -> f64, cell_us: f64| {
        let mut unit = 0;
        let ((), ns) = timed(|| {
            for _ in 0..CALLS {
                black_box(op(&mut clocks, unit, cell_us));
                unit += 1;
                if unit == units {
                    unit = 0;
                }
            }
        });
        ns / CALLS as f64
    };
    [
        run(UnitClocks::read, 25.0),
        run(UnitClocks::write, 200.0),
        run(UnitClocks::erase, 1500.0),
    ]
}

/// ns per `SsdEnv::read_translation_entry` and per single-entry
/// `SsdEnv::update_translation_page`, on a formatted 64 MB device of the
/// workload's topology. Updates run in timed batches of 16 with an untimed
/// `gc::ensure_free` between batches to keep the free pool alive.
fn env_costs(def: &WorkloadDef) -> Result<(f64, f64)> {
    const READS: u32 = 400_000;
    const BATCHES: u32 = 2_000;
    const BATCH: u32 = 16;
    let mut config = SsdConfig::paper_default(64 << 20);
    config.topology = def.config().topology;
    let vtpns = config.num_vtpns() as u32;
    let (mut ftl, mut env) = fresh_env(def.ftl, config)?;
    let entries = env.entries_per_tp() as u32;

    let (res, read_ns) = timed(|| {
        (0..READS).try_for_each(|i| {
            let offset = (i.wrapping_mul(7) % entries) as u16;
            env.read_translation_entry(i % vtpns as Vtpn, offset, OpPurpose::Translation)
                .map(|ppn| {
                    black_box(ppn);
                })
        })
    });
    res?;

    let mut update_ns = 0.0;
    for batch in 0..BATCHES {
        gc::ensure_free(&mut ftl, &mut env)?;
        let (res, ns) = timed(|| {
            (0..BATCH).try_for_each(|j| {
                let i = batch * BATCH + j;
                let update = [((i.wrapping_mul(7) % entries) as u16, i as Ppn)];
                env.update_translation_page(i % vtpns as Vtpn, &update, OpPurpose::Translation)
            })
        });
        res?;
        update_ns += ns;
    }
    Ok((read_ns / READS as f64, update_ns / (BATCHES * BATCH) as f64))
}

/// ns per `LatencyHistogram::record`, over values spread across six
/// decades.
fn hist_record_ns() -> f64 {
    const CALLS: usize = 4_000_000;
    let values: Vec<f64> = (0..1024).map(|i| 10.0 * 1.0136f64.powi(i)).collect();
    let mut hist = LatencyHistogram::new();
    let ((), ns) = timed(|| {
        for i in 0..CALLS {
            hist.record(values[i & 1023]);
        }
    });
    black_box(hist.total());
    ns / CALLS as f64
}

/// ns per item through a `DoorbellRing` on one thread (push + pop, the
/// ring never full nor empty when asked).
fn ring_ns_per_item() -> f64 {
    const ROUNDS: u64 = 4_000;
    const BURST: u64 = 512;
    let ring = DoorbellRing::<u64>::new(1024);
    let ((), ns) = timed(|| {
        for _ in 0..ROUNDS {
            for item in 0..BURST {
                let _ = black_box(ring.try_push(item));
            }
            for _ in 0..BURST {
                black_box(ring.try_pop());
            }
        }
    });
    ns / (ROUNDS * BURST) as f64
}

/// ns per round trip between two threads over a pair of `DoorbellRing`s,
/// one item in flight: the cost of a doorbell hand-off each way.
fn pingpong_ns(trips: u64) -> f64 {
    let (ping, pong) = (DoorbellRing::<u64>::new(64), DoorbellRing::<u64>::new(64));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while let Some(item) = ping.pop_blocking() {
                pong.push_blocking(item);
            }
            pong.close();
        });
        let ((), ns) = timed(|| {
            for item in 0..trips {
                ping.push_blocking(item);
                black_box(pong.pop_blocking());
            }
        });
        ping.close();
        ns / trips as f64
    })
}

// ---- The sharded engine ----------------------------------------------------

/// Prices `sim::shard` and `sim::queue` on the workload's trace and device:
/// a single-queue reference, one shard (identical simulated work, so the
/// difference is the engine), two shards, and one open-loop pass.
///
/// All four run [`ENGINE_FTL`] whatever FTL the workload is about. These
/// layers are the engine around an FTL, not the FTL; one fixed FTL keeps
/// their numbers comparable across workloads, and LearnedFTL cannot be used
/// here at all — on the 64 MB device split in two it runs out of
/// blocks on one seed in four (see the README's known limits).
fn engine_costs(
    def: &WorkloadDef,
    seed: u64,
    quick: bool,
    v: &mut Violations,
    ledger: &mut Ledger,
) -> Result<()> {
    let requests = def.requests(quick);
    let n = requests as f64;
    let config = def.config();
    let spec = def.spec(requests);
    let build = |_: u32, c: &SsdConfig| ENGINE_FTL.build(c);

    let mut single = fresh_ssd(ENGINE_FTL, &config)?;
    let (single_report, single_ns) = timed(|| single.run(spec.iter(seed)));
    let single_report = single_report?;
    drop(single);

    let mut one = ShardedSsd::new(&config, 1, build)?;
    let (one_report, one_ns) = timed(|| one.run(spec.iter(seed)));
    v.expect(one_report?.merged == single_report, || {
        "1-shard merged report differs from the single-queue report".to_string()
    });
    drop(one);

    let mut two = ShardedSsd::new(&config, 2, build)?;
    let (two_report, two_ns) = timed(|| two.run(spec.iter(seed)));
    let two_report = two_report?;
    let doorbells = two.doorbell_stats();
    drop(two);
    v.expect(
        two_report.load.page_accesses.iter().sum::<u64>()
            == single_report.ftl_stats.user_page_accesses(),
        || "2-shard page accesses differ from single-queue page accesses".to_string(),
    );

    let ol_requests = requests.min(scaled(OPEN_LOOP_REQUESTS, quick));
    let mut open = ShardedSsd::new(&config, 2, build)?;
    let ol = open.run_open_loop(
        def.spec(ol_requests).iter(seed),
        OpenLoopOpts {
            offered_rps: OPEN_LOOP_RPS,
            queue_depth: OPEN_LOOP_QD,
        },
    )?;
    drop(open);
    v.expect(ol.requests == ol_requests as u64, || {
        format!(
            "open loop completed {} of {ol_requests} requests",
            ol.requests
        )
    });
    let per_kreq = |count: u64, requests: usize| count as f64 / requests as f64 * 1000.0;
    ledger.put_all(&[
        ("sim.shard.q1_overhead_ns_per_req", (one_ns - single_ns) / n),
        ("sim.shard.speedup_s2", per(single_ns, two_ns)),
        ("sim.shard.load_imbalance", two_report.load.imbalance),
        (
            "sim.queue.parks_per_kreq",
            per_kreq(doorbells.parks, requests),
        ),
        (
            "sim.queue.wakeups_per_kreq",
            per_kreq(doorbells.wakeups, requests),
        ),
        (
            "sim.queue.ol_achieved_frac",
            per(ol.achieved_rps, ol.offered_rps),
        ),
        ("sim.queue.ol_resp_p50_us", ol.resp_p50_us),
        ("sim.queue.ol_resp_p99_us", ol.resp_p99_us),
        ("sim.queue.ol_resp_p999_us", ol.resp_p999_us),
        ("sim.queue.ol_backlog_peak", ol.backlog_peak as f64),
        (
            "sim.queue.ol_parks_per_kreq",
            per_kreq(ol.doorbells.parks, ol_requests),
        ),
    ]);
    Ok(())
}

// ---- The ledger ------------------------------------------------------------

/// Span-derived metrics: self times net of what the spans themselves cost,
/// and each layer's share of the net traced wall.
fn span_metrics(rec: &Recorder, untraced: &Untraced, quick: bool, ledger: &mut Ledger) {
    use Kind::*;
    let gcs = &untraced.report.gc;
    let victims = (gcs.data_victims + gcs.trans_victims) as f64;
    let cost = spans::calibrate(if quick { 100_000 } else { 1_000_000 });
    let net = |kind| rec.net_self_ns(kind, cost);
    let calls = |kind| rec.aggregate(kind).calls as f64;
    let each = |kind| per(net(kind), calls(kind));
    let net_wall: f64 = Kind::ALL.iter().map(|&k| net(k)).sum();
    let share = |kinds: &[Kind]| per(kinds.iter().map(|&k| net(k)).sum(), net_wall);
    let tail =
        |kind| (quantile_interp(&rec.aggregate(kind).durations, 0.99) - cost.inner_ns).max(0.0);
    let traced_wall = rec.aggregate(Replay).total_ns as f64;
    ledger.put_all(&[
        ("trace.synth.share", share(&[Generator])),
        (
            "core.ftl.translate.calls",
            calls(TranslateHit) + calls(TranslateMiss),
        ),
        ("core.ftl.translate.hit_calls", calls(TranslateHit)),
        ("core.ftl.translate.miss_calls", calls(TranslateMiss)),
        ("core.ftl.translate.hit_ns", each(TranslateHit)),
        ("core.ftl.translate.miss_ns", each(TranslateMiss)),
        ("core.ftl.translate.miss_p99_ns", tail(TranslateMiss)),
        (
            "core.ftl.translate.share",
            share(&[TranslateHit, TranslateMiss]),
        ),
        ("core.ftl.update_mapping.ns", each(UpdateMapping)),
        ("core.ftl.update_mapping.share", share(&[UpdateMapping])),
        ("core.ftl.on_gc.calls", calls(OnGc)),
        ("core.ftl.on_gc.ns_per_call", each(OnGc)),
        ("core.ftl.on_gc.share", share(&[OnGc])),
        ("core.gc.cycles", calls(GcCycle)),
        ("core.gc.ns_per_victim", per(net(GcCycle), victims)),
        ("core.gc.stall_p99_ns", tail(GcCycle)),
        ("core.gc.share", share(&[GcCycle, GcIdle])),
        ("core.env.read_data_page_ns", each(ReadDataPage)),
        ("core.env.write_data_page_ns", each(WritePage)),
        ("core.env.share", share(&[ReadDataPage, WritePage])),
        ("sim.ssd.share", share(&[Request])),
        ("bench.unattributed_share", share(&[Replay])),
        (
            "bench.wall_ns_per_req",
            untraced.wall_ns / untraced.report.ftl_stats.requests as f64,
        ),
        ("bench.speed_cache", untraced.speeds.cache),
        ("bench.speed_arithmetic", untraced.speeds.arithmetic),
        ("bench.span_cost_ns", cost.cost_ns),
        (
            "bench.trace_overhead_frac",
            per(traced_wall, untraced.wall_ns) - 1.0,
        ),
    ]);
}

/// Counts from the (identical) reports, and the set-up split by layer.
fn count_metrics(untraced: &Untraced, traced: &TracedRep, config: &SsdConfig, ledger: &mut Ledger) {
    let report = &untraced.report;
    let (stats, flash, gcs) = (&report.ftl_stats, &report.flash, &report.gc);
    let n = stats.requests as f64;
    let ops = |purposes: &[OpPurpose]| {
        let counts = purposes.iter().map(|&p| flash.of(p));
        counts.map(|c| c.reads + c.writes + c.erases).sum::<u64>() as f64 / n
    };
    let cache_budget = config.usable_cache_bytes() as f64;
    ledger.put_all(&[
        (
            "core.ftl.dirty_replace_prob",
            stats.dirty_replacement_prob(),
        ),
        (
            "core.ftl.replacements_per_req",
            stats.replacements as f64 / n,
        ),
        ("core.ftl.gc_hit_ratio", stats.gc_hit_ratio()),
        ("core.ftl.predict_hit_ratio", stats.predict_hit_ratio()),
        ("core.ftl.mispredict_ratio", stats.mispredict_ratio()),
        (
            "core.ftl.cache_used_frac",
            per(traced.cache_bytes_used as f64, cache_budget),
        ),
        ("core.ftl.cached_entries", traced.cached_entries as f64),
        (
            "core.gc.data_victims_per_kreq",
            gcs.data_victims as f64 / n * 1000.0,
        ),
        (
            "core.gc.trans_victims_per_kreq",
            gcs.trans_victims as f64 / n * 1000.0,
        ),
        ("core.gc.valid_per_data_victim", gcs.vd_mean()),
        ("core.gc.valid_per_trans_victim", gcs.vt_mean()),
        ("core.gc.copy_amp", report.write_amp()),
        ("core.gc.erase_cv", report.erase_cv()),
        ("flash.ops.host_per_req", ops(&[OpPurpose::HostData])),
        (
            "flash.ops.translation_per_req",
            ops(&[OpPurpose::Translation]),
        ),
        (
            "flash.ops.gc_per_req",
            ops(&[OpPurpose::GcData, OpPurpose::GcTranslation]),
        ),
        ("flash.busy_us_per_req", flash.busy_us / n),
        ("experiments.runner.build_s", untraced.build_s),
        ("core.env.bootstrap_s", untraced.bootstrap_s),
        ("trace.synth.iter_build_s", untraced.iter_build_s),
    ]);
}

/// The generator alone, and the pure functions of its output (parser round
/// trip, shard splitter). Returns the pre-generated trace.
fn trace_metrics(
    def: &WorkloadDef,
    requests: usize,
    seed: u64,
    v: &mut Violations,
    ledger: &mut Ledger,
) -> Vec<IoRequest> {
    let n = requests as f64;
    let spec = def.spec(requests);
    let (pages, synth_ns) = timed(|| {
        let pages = spec.iter(seed).map(|req| req.page_count(PAGE_BYTES) as u64);
        pages.sum::<u64>()
    });
    let trace = spec.generate(seed);

    let sample = &trace[..trace.len().min(PARSE_REQUESTS)];
    let (parsed, parse_ns) = timed(|| {
        let mut text = Vec::new();
        parse::write_spc(&mut text, sample).expect("writing to a Vec cannot fail");
        parse::parse_spc(text.as_slice())
    });
    v.expect(parsed.is_ok_and(|p| p.len() == sample.len()), || {
        "write_spc -> parse_spc did not return every request".to_string()
    });

    let splitter = ShardSplitter::new(2, PAGE_BYTES);
    let (sub_requests, split_ns) = timed(|| {
        let mut subs = 0u64;
        for req in &trace {
            splitter.split(req, |shard, sub| {
                black_box((shard, sub));
                subs += 1;
            });
        }
        subs
    });
    ledger.put_all(&[
        ("trace.synth.ns_per_req", synth_ns / n),
        ("trace.synth.pages_per_req", pages as f64 / n),
        ("trace.parse.spc_ns_per_req", parse_ns / sample.len() as f64),
        ("trace.shard.split_ns_per_req", split_ns / n),
        ("trace.shard.subreqs_per_req", sub_requests as f64 / n),
    ]);
    trace
}

/// Replays of the pre-generated trace: `Ssd::serve` in chunks over all of
/// it, then `Ssd` against the bare driver on a prefix, in alternating order.
fn vec_replay_metrics(
    def: &WorkloadDef,
    trace: &[IoRequest],
    quick: bool,
    baseline: &Counters,
    v: &mut Violations,
    ledger: &mut Ledger,
) -> Result<()> {
    let (mut chunks, serve_ns, report) = chunked_replay(def, trace)?;
    v.expect(Counters::of(&report) == *baseline, || {
        "replaying the pre-generated trace gave different counters than streaming the generator"
            .to_string()
    });
    chunks.sort_by(f64::total_cmp);
    let chunk_at = |q: f64| chunks[((chunks.len() - 1) as f64 * q).round() as usize];

    let prefix = &trace[..def.probe_requests(quick).clamp(1, trace.len())];
    let mut diffs = Vec::new();
    for pair in 0..if quick { 2 } else { SELF_PAIRS } {
        let (with, without) = if pair % 2 == 0 {
            let with = ssd_replay_ns(def, prefix)?;
            (with, bare_replay_ns(def, prefix)?)
        } else {
            let without = bare_replay_ns(def, prefix)?;
            (ssd_replay_ns(def, prefix)?, without)
        };
        diffs.push(with - without);
    }
    let (q1, q3) = quartiles(&diffs).expect("at least two pairs");
    ledger.put_all(&[
        ("sim.ssd.serve_ns_per_req", serve_ns),
        ("sim.ssd.chunk_p50_ns_per_req", chunk_at(0.5)),
        ("sim.ssd.chunk_p95_ns_per_req", chunk_at(0.95)),
        ("sim.ssd.chunks", chunks.len() as f64),
        ("sim.ssd.self_ns_per_req", median(&diffs)),
        ("sim.ssd.self_iqr_ns_per_req", q3 - q1),
    ]);
    Ok(())
}

/// Direct calls to public functions, and what they would add up to over
/// the operations the untraced replay counted.
fn direct_call_metrics(
    def: &WorkloadDef,
    untraced: &Untraced,
    traced: &TracedRep,
    quick: bool,
    ledger: &mut Ledger,
) -> Result<()> {
    let config = def.config();
    let (flash, gcs) = (&untraced.report.flash, &untraced.report.gc);
    let (reads, writes, erases) = (
        flash.total_reads() as f64,
        flash.total_writes() as f64,
        flash.total_erases() as f64,
    );
    // Every program adds a valid page and only an invalidate removes one.
    let invalidates = writes - (traced.valid_pages.1 as f64 - traced.valid_pages.0 as f64);
    let scanned =
        (gcs.data_victims + gcs.trans_victims) as f64 * config.geometry().pages_per_block as f64;

    let fc = flash_costs(config.geometry())?;
    let flash_ns = reads * fc.read
        + writes * fc.program
        + invalidates * fc.invalidate
        + erases * fc.erase
        + scanned * fc.scan_per_page;
    let [clock_read, clock_write, clock_erase] = clock_costs(&config.topology);
    let clock_ns = reads * clock_read + writes * clock_write + erases * clock_erase;
    let (read_entry_ns, update_tp_ns) = env_costs(def)?;
    ledger.put_all(&[
        ("flash.program_page_ns", fc.program),
        ("flash.read_page_ns", fc.read),
        ("flash.invalidate_ns", fc.invalidate),
        ("flash.erase_block_ns", fc.erase),
        ("flash.valid_pages_ns_per_page", fc.scan_per_page),
        ("flash.est_share", per(flash_ns, untraced.wall_ns)),
        ("flash.timing.read_ns", clock_read),
        ("flash.timing.write_ns", clock_write),
        ("flash.timing.erase_ns", clock_erase),
        ("flash.timing.est_share", per(clock_ns, untraced.wall_ns)),
        ("core.env.read_translation_entry_ns", read_entry_ns),
        ("core.env.update_translation_page_ns", update_tp_ns),
        ("sim.hist.record_ns", hist_record_ns()),
        ("sim.queue.ring_ns_per_item", ring_ns_per_item()),
        (
            "sim.queue.pingpong_ns",
            pingpong_ns(if quick { 1_000 } else { 10_000 }),
        ),
    ]);
    Ok(())
}

/// Runs the traced measurement of `def` and fills in the per-layer ledger.
/// The recorder, with the raw spans of the sampled requests, comes back
/// with it. An `Err` names the step that failed: a traced run is a dozen
/// replays.
pub fn measure(
    def: &WorkloadDef,
    seed: u64,
    quick: bool,
    v: &mut Violations,
) -> std::result::Result<(Ledger, Recorder), String> {
    fn step<T>(what: &str, res: Result<T>) -> std::result::Result<T, String> {
        res.map_err(|e| format!("{what}: {e}"))
    }
    let requests = def.requests(quick);
    let mut ledger = Ledger::new(&PER_LAYER);

    // One untraced and one traced replay of the same generator.
    let untraced = step("untraced replay", untraced_rep(def, requests, seed))?;
    let traced = step("traced replay", traced_rep(def, requests, seed))?;
    let baseline = Counters::of(&untraced.report);
    v.expect(traced.counters == baseline, || {
        "traced replay's counters differ from the untraced replay's (tracing changed something, or \
         the library's serving protocol moved away from benchmark/src/traced.rs)"
            .to_string()
    });
    v.expect(traced.responses == requests as u64, || {
        format!(
            "traced replay answered {} of {requests} requests",
            traced.responses
        )
    });
    span_metrics(&traced.rec, &untraced, quick, &mut ledger);
    count_metrics(&untraced, &traced, &def.config(), &mut ledger);

    let trace = trace_metrics(def, requests, seed, v, &mut ledger);
    step(
        "replay of the pre-generated trace",
        vec_replay_metrics(def, &trace, quick, &baseline, v, &mut ledger),
    )?;
    drop(trace);
    step(
        "direct calls",
        direct_call_metrics(def, &untraced, &traced, quick, &mut ledger),
    )?;
    step(
        "sharded passes",
        engine_costs(def, seed, quick, v, &mut ledger),
    )?;
    Ok((ledger, traced.rec))
}
