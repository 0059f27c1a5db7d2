//! The benchmark scenarios and their timing harness.

use std::hint::black_box;
use std::time::Instant;

use serde_json::Value;
use tpftl_core::blockmgr::{AllocClass, BlockManager};
use tpftl_core::config::{GcPolicy, StreamCount};
use tpftl_core::driver;
use tpftl_core::env::SsdEnv;
use tpftl_core::ftl::{AccessCtx, Ftl};
use tpftl_core::{gc, recovery, SsdConfig};
use tpftl_experiments::runner::{device_config, FtlKind, SEED};
use tpftl_flash::{Flash, FlashGeometry, FlashTopology, OpPurpose};
use tpftl_sim::{OpenLoopOpts, ShardedSsd, Ssd};
use tpftl_trace::presets::Workload;
use tpftl_trace::{Locality, MultiTenantSpec, SyntheticSpec, TenantSpec};

/// Shard counts benchmarked by default (`ftlbench` with no `--shards`).
pub const DEFAULT_SHARD_COUNTS: [u32; 2] = [2, 4];

/// Channel counts of the committed channel-scaling sweep
/// (`ftlbench --channels sweep`). No channel rows run by default: the
/// sweep re-replays the macro trace once per (FTL, channel count).
pub const SWEEP_CHANNEL_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Offered load levels (host requests/second) of the open-loop
/// saturation sweep (`ftlbench --open-loop sweep`): one comfortably
/// below single-core service rate, one near it, one far beyond it.
pub const SWEEP_OPEN_LOOP_RATES: [u64; 3] = [50_000, 250_000, 1_000_000];

/// Queue depths (per-shard submission-queue slots) of the open-loop
/// sweep: shallow enough to backpressure early vs deep enough to absorb
/// arrival bursts.
pub const SWEEP_OPEN_LOOP_DEPTHS: [u32; 2] = [64, 1024];

/// Shard counts of the open-loop TPFTL shard-scaling rows (the all-FTL
/// rows run at the maximum).
pub const SWEEP_OPEN_LOOP_SHARDS: [u32; 3] = [1, 2, 4];

/// One timed record, already reduced over its samples.
pub struct Record {
    pub scenario: String,
    pub ftl: String,
    pub ops_per_iter: u64,
    pub samples: Vec<f64>, // ns per op
    pub extra: Vec<(&'static str, Value)>,
}

impl Record {
    pub fn median(&self) -> f64 {
        let mut s = self.samples.clone();
        s.sort_by(|a, b| a.total_cmp(b));
        s[s.len() / 2]
    }

    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("scenario", Value::Str(self.scenario.clone())),
            ("ftl", Value::Str(self.ftl.clone())),
            ("ns_per_op", Value::Float(self.median())),
            ("min_ns_per_op", Value::Float(self.min())),
            ("mean_ns_per_op", Value::Float(self.mean())),
            ("ops_per_iter", Value::UInt(self.ops_per_iter)),
            ("samples", Value::UInt(self.samples.len() as u64)),
        ];
        fields.extend(self.extra.iter().cloned());
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

/// Times `iter` (which performs `ops` operations per call): `warmup`
/// unmeasured calls, then `samples` measured ones; returns ns/op per sample.
fn time_samples<F: FnMut()>(warmup: usize, samples: usize, ops: u64, mut iter: F) -> Vec<f64> {
    for _ in 0..warmup {
        iter();
    }
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            iter();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect()
}

/// A 64 MB device with a 16 KB mapping-cache budget on top of the GTD —
/// small enough to set up quickly, large enough for a real miss stream.
fn micro_config() -> SsdConfig {
    let mut config = SsdConfig::paper_default(64 << 20);
    config.cache_bytes = config.gtd_bytes() + 16 * 1024;
    config
}

fn build(kind: FtlKind, config: &SsdConfig) -> (Box<dyn Ftl + Send>, SsdEnv) {
    let mut ftl = kind.build(config).expect("FTL builds");
    let mut env = SsdEnv::new(config.clone()).expect("env builds");
    driver::bootstrap(ftl.as_mut(), &mut env).expect("bootstrap");
    (ftl, env)
}

/// The body every replay row shares: per sample, `build` a fresh device,
/// time `run` on it, and record wall ns per request. Returns the row
/// (`extra` left for the caller) and the last run's report.
fn replay_row<D, R>(
    scenario: String,
    kind: FtlKind,
    samples: usize,
    requests: usize,
    build: impl Fn() -> D,
    run: impl Fn(&mut D) -> R,
) -> (Record, R) {
    let mut ns = Vec::new();
    let mut last = None;
    for _ in 0..samples {
        let mut device = build();
        let t = Instant::now();
        let report = run(&mut device);
        ns.push(t.elapsed().as_nanos() as f64 / requests as f64);
        last = Some(report);
    }
    let row = Record {
        scenario,
        ftl: kind.label(),
        ops_per_iter: requests as u64,
        samples: ns,
        extra: Vec::new(),
    };
    (row, last.expect("at least one sample"))
}

fn fresh_ssd(kind: FtlKind, config: &SsdConfig) -> Ssd<Box<dyn Ftl + Send>> {
    let ftl = kind.build(config).expect("FTL builds");
    Ssd::new(ftl, config.clone()).expect("ssd builds")
}

fn fresh_sharded(
    kind: FtlKind,
    config: &SsdConfig,
    shards: u32,
) -> ShardedSsd<Box<dyn Ftl + Send>> {
    ShardedSsd::new(config, shards, |_, c| kind.build(c)).expect("sharded ssd builds")
}

/// Cache-hit translation path: one warmed entry translated repeatedly.
pub fn bench_translate_hit(kind: FtlKind, warmup: usize, samples: usize, ops: u64) -> Record {
    let config = micro_config();
    let (mut ftl, mut env) = build(kind, &config);
    driver::serve_page_access(ftl.as_mut(), &mut env, 42, AccessCtx::single(true))
        .expect("warm write");
    let ctx = AccessCtx::single(false);
    let ns = time_samples(warmup, samples, ops, || {
        for _ in 0..ops {
            black_box(ftl.translate(&mut env, black_box(42), &ctx).expect("hit"));
        }
    });
    let hit_ratio = env.stats.hits as f64 / env.stats.lookups as f64;
    Record {
        scenario: "translate_hit".to_string(),
        ftl: ftl.name(),
        ops_per_iter: ops,
        samples: ns,
        extra: vec![("hit_ratio", Value::Float(hit_ratio))],
    }
}

/// Miss-dominated scan: a large-stride cursor defeats the cache, so every
/// translation pays lookup + eviction + translation-page load.
pub fn bench_miss_scan(kind: FtlKind, warmup: usize, samples: usize, ops: u64) -> Record {
    let config = micro_config();
    let pages = config.logical_pages() as u32;
    let (mut ftl, mut env) = build(kind, &config);
    let ctx = AccessCtx::single(false);
    let mut cursor: u32 = 0;
    let ns = time_samples(warmup, samples, ops, || {
        for _ in 0..ops {
            black_box(
                ftl.translate(&mut env, black_box(cursor), &ctx)
                    .expect("translate"),
            );
            cursor = (cursor + 4099) % pages;
        }
    });
    let hit_ratio = env.stats.hits as f64 / env.stats.lookups as f64;
    Record {
        scenario: "miss_scan".to_string(),
        ftl: ftl.name(),
        ops_per_iter: ops,
        samples: ns,
        extra: vec![("hit_ratio", Value::Float(hit_ratio))],
    }
}

/// Write path on a full device: updates dirty the cache and keep garbage
/// collection (data + translation blocks) in the loop.
pub fn bench_write_gc(kind: FtlKind, warmup: usize, samples: usize, ops: u64) -> Record {
    let mut config = micro_config();
    config.prefill_frac = 1.0;
    let window = (config.logical_pages() / 8) as u32;
    let (mut ftl, mut env) = build(kind, &config);
    let ctx = AccessCtx::single(true);
    let mut cursor: u32 = 0;
    let ns = time_samples(warmup, samples, ops, || {
        for _ in 0..ops {
            driver::serve_page_access(ftl.as_mut(), &mut env, cursor, ctx).expect("write");
            cursor = (cursor + 127) % window;
        }
    });
    let hit_ratio = env.stats.hits as f64 / env.stats.lookups as f64;
    Record {
        scenario: "write_gc".to_string(),
        ftl: ftl.name(),
        ops_per_iter: ops,
        samples: ns,
        extra: vec![("hit_ratio", Value::Float(hit_ratio))],
    }
}

/// LearnedFTL's fill in isolation: a budget of one segment and reads that
/// alternate between translation regions 0 and 1, so each read finds the
/// other region's view cached, misses, fits the run around its offset from
/// the page it just read and installs it over the view it evicts — one read
/// miss, one fit, one install per op, no write-back and no GC. Otherwise
/// both regions keep their sequential prefill and every fill walks and fits
/// one 1 024-offset line; `fragmented` first overwrites every 8th offset
/// of both, so a fill fits a run of 7.
pub fn bench_learned_fill(fragmented: bool, warmup: usize, samples: usize, ops: u64) -> Record {
    let mut config = micro_config();
    config.cache_bytes = config.gtd_bytes() + 16;
    config.prefill_frac = 0.5;
    let region = config.entries_per_tp() as u32;
    let (mut ftl, mut env) = build(FtlKind::Learned, &config);
    if fragmented {
        for lpn in (0..2 * region).step_by(8) {
            driver::serve_page_access(ftl.as_mut(), &mut env, lpn, AccessCtx::single(true))
                .expect("scatter write");
        }
    }
    let ctx = AccessCtx::single(false);
    let misses_before = env.stats.lookups - env.stats.hits;
    let mut cursor: u32 = 0;
    let ns = time_samples(warmup, samples, ops, || {
        for _ in 0..ops {
            // Offsets 3, 43, 83, ... of the two regions in turn: never one
            // of the overwritten ones.
            let lpn = cursor % 2 * region + (cursor / 2 * 40 + 3) % region;
            driver::serve_page_access(ftl.as_mut(), &mut env, lpn, ctx).expect("read");
            cursor += 1;
        }
    });
    let total = ((warmup + samples) as u64 * ops) as f64;
    let misses = env.stats.lookups - env.stats.hits - misses_before;
    let shape = if fragmented { "fragmented" } else { "linear" };
    Record {
        scenario: format!("learned_fill_{shape}"),
        ftl: ftl.name(),
        ops_per_iter: ops,
        samples: ns,
        extra: vec![("misses_per_op", Value::Float(misses as f64 / total))],
    }
}

/// LearnedFTL's request-level prefetch in isolation: aligned 4-page reads
/// over eight regions whose every 4th offset was overwritten, so that no
/// run of four is left for a segment and the first page of a request misses,
/// paying the translation read that answers the other three from the same
/// page. The scatter is flushed (clean entries leave for free) and the
/// cursor cycles through three times what the cache holds, so a request
/// never finds a page of its own cached: `trans_reads_per_op` reads exactly
/// 1 — it is 4 if the miss loads only the entry it was asked for.
pub fn bench_learned_request_miss(warmup: usize, samples: usize, ops: u64) -> Record {
    const PAGES: u32 = 4;
    let mut config = micro_config();
    config.prefill_frac = 0.5;
    let span = 8 * config.entries_per_tp() as u32;
    let (mut ftl, mut env) = build(FtlKind::Learned, &config);
    for lpn in (0..span).step_by(PAGES as usize) {
        driver::serve_page_access(ftl.as_mut(), &mut env, lpn, AccessCtx::single(true))
            .expect("scatter write");
    }
    recovery::flush_cache(ftl.as_mut(), &mut env).expect("flush");
    let reads_before = env.flash().stats().translation_reads();
    let mut cursor: u32 = 0;
    let ns = time_samples(warmup, samples, ops, || {
        for _ in 0..ops {
            driver::serve_request(ftl.as_mut(), &mut env, cursor, PAGES, false).expect("read");
            cursor = (cursor + PAGES) % span;
        }
    });
    let total = ((warmup + samples) as u64 * ops) as f64;
    let reads = env.flash().stats().translation_reads() - reads_before;
    Record {
        scenario: "learned_request_miss".to_string(),
        ftl: ftl.name(),
        ops_per_iter: ops,
        samples: ns,
        extra: vec![("trans_reads_per_op", Value::Float(reads as f64 / total))],
    }
}

/// GC victim scan: iterate every block's valid pages on a device where
/// half the pages are valid — the exact walk `gc::migrate_data_pages`
/// performs when collecting a victim. Exercises `Flash::valid_pages`
/// directly, independent of any FTL.
pub fn bench_gc_valid_scan(warmup: usize, samples: usize) -> Record {
    let geom = FlashGeometry {
        page_bytes: 4096,
        pages_per_block: 64,
        num_blocks: 256,
        read_us: 25.0,
        write_us: 200.0,
        erase_us: 1500.0,
        topology: FlashTopology::default(),
    };
    let num_blocks = geom.num_blocks;
    let total_pages = (geom.num_blocks * geom.pages_per_block) as u64;
    let mut flash = Flash::new(geom).expect("flash builds");
    // Program every page, then invalidate every other one so the scan
    // filters a realistic mix instead of a trivially dense block.
    for b in 0..num_blocks as u32 {
        while let Some(ppn) = flash.next_free_ppn(b) {
            flash
                .program_page(ppn, ppn, OpPurpose::HostData)
                .expect("program");
            if ppn % 2 == 0 {
                flash.invalidate(ppn).expect("invalidate");
            }
        }
    }
    let ns = time_samples(warmup, samples, total_pages, || {
        let mut found = 0usize;
        for b in 0..num_blocks as u32 {
            found += flash.valid_pages(b).count();
        }
        black_box(found);
    });
    Record {
        scenario: "gc_valid_scan".to_string(),
        ftl: "flash".to_string(),
        ops_per_iter: total_pages,
        samples: ns,
        extra: Vec::new(),
    }
}

/// GC victim pick on a deep bucket: half of a `num_blocks` device sits
/// sealed with no valid page — one valid-count bucket `num_blocks / 2`
/// deep, the shape a sequential overwrite stream leaves on a large device
/// (the MSR replay holds ~33 000 blocks there) — and each op collects one
/// victim: pick, erase, then fill, kill and seal a fresh block so the
/// bucket keeps its depth. Flash and `BlockManager` only, no FTL, and one
/// page per block — the least flash work a collection can do, so the pick
/// is as much of the row as it can be. That work is constant: the row
/// moves only if the pick's cost depends on how many blocks share the
/// victim's bucket. `label` names the policy in the row's `ftl` column.
pub fn bench_gc_pick_deep(
    policy: GcPolicy,
    label: &str,
    num_blocks: usize,
    warmup: usize,
    samples: usize,
    ops: u64,
) -> Record {
    let geom = FlashGeometry {
        page_bytes: 4096,
        pages_per_block: 1,
        num_blocks,
        read_us: 25.0,
        write_us: 200.0,
        erase_us: 1500.0,
        topology: FlashTopology::default(),
    };
    let mut flash = Flash::new(geom.clone()).expect("flash builds");
    let mut mgr = BlockManager::new(geom.num_blocks, geom.pages_per_block);
    // Fills the next (one-page) block the allocator hands out and kills its
    // page. Still active, the block is in no bucket yet: the allocator seals
    // it, at the zero valid pages it finds, when asked for the page after.
    let fill_dead_block = |mgr: &mut BlockManager, flash: &mut Flash| {
        let ppn = mgr.alloc_page(AllocClass::Data, flash).expect("free block");
        flash
            .program_page(ppn, ppn, OpPurpose::HostData)
            .expect("program");
        flash.invalidate(ppn).expect("invalidate");
    };
    for _ in 0..=num_blocks / 2 {
        fill_dead_block(&mut mgr, &mut flash);
    }
    let depth = mgr.sealed_blocks();
    let mut collect_one = || {
        let (victim, _) = mgr.pick_victim(black_box(policy)).expect("a dead block");
        flash.erase_block(victim, OpPurpose::GcData).expect("erase");
        mgr.on_erased(victim);
        fill_dead_block(&mut mgr, &mut flash);
    };
    // Turn the whole bucket over once, untimed: from here on every victim
    // is a block this loop sealed, whatever `warmup` and `ops` are.
    for _ in 0..depth {
        collect_one();
    }
    let ns = time_samples(warmup, samples, ops, || {
        for _ in 0..ops {
            collect_one();
        }
    });
    assert_eq!(mgr.sealed_blocks(), depth, "the bucket kept its depth");
    Record {
        scenario: "gc_pick_deep".to_string(),
        ftl: label.to_string(),
        ops_per_iter: ops,
        samples: ns,
        extra: vec![("bucket_depth", Value::UInt(depth as u64))],
    }
}

/// GC's data path on an aged device: the 512 MB Financial1 device, fully
/// pre-filled, is overwritten at LPNs scattered over a sliding quarter of
/// it until every collection migrates a steady number of valid pages, then
/// only collection passes (`gc::ensure_free` calls that collect, 32 blocks
/// each here) are timed — data and translation victims as the device's
/// default pick chooses them (the 64-wide window), each with its valid
/// scan, page migrations and erase, then the pass's one
/// `Ftl::on_gc_data_block` (almost every moved page misses the 8.5 KB
/// cache, so the batcher and the translation read-modify-writes carry the
/// row). ns per migrated page, so the row is the same quantity at any
/// `victims` per sample; it moves if migrating a page copies a payload or
/// allocates again.
pub fn bench_gc_migrate(kind: FtlKind, warmup: usize, samples: usize, victims: u64) -> Record {
    let config = device_config(Workload::Financial1);
    let pages = config.logical_pages() as u32;
    let (mut ftl, mut env) = build(kind, &config);
    let ctx = AccessCtx::single(true);
    let mut writes = 0u32;
    let collected = |env: &SsdEnv| env.gc_stats.data_victims + env.gc_stats.trans_victims;
    // Overwrites until `victims` blocks are collected; returns the time
    // spent in passes. A pass runs here, before the write's own
    // `ensure_free` call would run it; only calls that collect are timed.
    let mut collect = |env: &mut SsdEnv, victims: u64| {
        let mut spent = std::time::Duration::ZERO;
        let target = collected(env) + victims;
        while collected(env) < target {
            if env.free_blocks() < config.gc_low_blocks {
                let t = Instant::now();
                gc::ensure_free(ftl.as_mut(), env).expect("collect");
                spent += t.elapsed();
            }
            // Knuth's multiplicative hash scatters the overwrites over a
            // quarter of the device that slides one LPN every 16 writes.
            // The translation pages it leaves stay valid where they were
            // last written, so translation blocks reach GC part valid; a
            // stream over the whole device rewrote all 128 in every pass
            // and left their blocks to free reclaims.
            let scattered = (writes.wrapping_mul(2_654_435_761) >> 8) % (pages / 4);
            let lpn = (writes / 16 + scattered) % pages;
            driver::serve_page_access(ftl.as_mut(), env, lpn, ctx).expect("write");
            writes += 1;
        }
        spent
    };
    let migrated =
        |env: &SsdEnv| env.gc_stats.data_pages_migrated + env.gc_stats.trans_pages_migrated;
    // Two collections per block of the device: valid pages per victim have
    // levelled off well before that.
    collect(&mut env, 2 * config.geometry().num_blocks as u64);
    for _ in 0..warmup {
        collect(&mut env, victims);
    }
    env.reset_stats();
    let mut ops = 0;
    let ns = (0..samples)
        .map(|_| {
            let before = migrated(&env);
            let spent = collect(&mut env, victims);
            ops = migrated(&env) - before;
            spent.as_nanos() as f64 / ops as f64
        })
        .collect();
    let gc = &env.gc_stats;
    Record {
        scenario: "gc_migrate".to_string(),
        ftl: kind.label(),
        ops_per_iter: ops,
        samples: ns,
        extra: vec![
            ("pages_per_data_victim", Value::Float(gc.vd_mean())),
            ("pages_per_trans_victim", Value::Float(gc.vt_mean())),
            (
                "gc_hit_ratio",
                Value::Float(env.stats.gc_hits as f64 / env.stats.gc_updates as f64),
            ),
        ],
    }
}

/// Macro replay: the Financial1 synthetic trace end to end through the
/// simulator (arrival timing, write handling, GC), fresh device per sample.
pub fn bench_replay(kind: FtlKind, samples: usize, requests: usize) -> Record {
    let workload = Workload::Financial1;
    let config = device_config(workload);
    let spec = workload.spec(requests);
    let (mut row, report) = replay_row(
        "replay_financial1".to_string(),
        kind,
        samples,
        requests,
        || fresh_ssd(kind, &config),
        |ssd| ssd.run(spec.iter(SEED)).expect("replay"),
    );
    row.extra = vec![
        ("requests_per_sec", Value::Float(1e9 / row.median())),
        ("hit_ratio", Value::Float(report.hit_ratio())),
        ("avg_response_us", Value::Float(report.sim.resp_avg_us)),
        ("translation_reads", Value::UInt(report.translation_reads())),
        (
            "translation_writes",
            Value::UInt(report.translation_writes()),
        ),
        ("predict_hits", Value::UInt(report.ftl_stats.predict_hits)),
        ("mispredicts", Value::UInt(report.ftl_stats.mispredicts)),
    ];
    row
}

/// The trace generator on its own: one preset's iterator built and drained,
/// ns per generated request. Every replay row pays this per request before
/// the simulator sees it, so a generator regression gates here, in its own
/// row, rather than hiding inside the `replay_*` rows. The fold reads every
/// field, so no draw (the arrival's `ln`, say) can be optimised away.
pub fn bench_trace_synth(workload: Workload, warmup: usize, samples: usize) -> Record {
    const REQUESTS: usize = 1_000_000;
    let spec = workload.spec(REQUESTS);
    let samples = time_samples(warmup, samples, REQUESTS as u64, || {
        let sum = spec.iter(black_box(SEED)).fold(0u64, |h, r| {
            h.wrapping_mul(31)
                .wrapping_add(r.arrival_us.to_bits() ^ r.offset ^ u64::from(r.len))
                .wrapping_add(u64::from(r.is_write()))
        });
        black_box(sum);
    });
    Record {
        scenario: "trace_synth".to_string(),
        ftl: workload.name().to_string(),
        ops_per_iter: REQUESTS as u64,
        samples,
        extra: Vec::new(),
    }
}

/// The semi-sequential read trace that showcases the learned mapping:
/// long aligned read streams over a fully pre-filled device, with a thin
/// random-write stream that keeps invalidation in the picture. A
/// piecewise-linear index covers the streams with a handful of segments,
/// so LearnedFTL should serve most translations with zero flash reads
/// where the demand-paged baselines pay a translation-page load per miss.
pub fn semiseq_spec(config: &SsdConfig, requests: usize) -> SyntheticSpec {
    SyntheticSpec {
        name: "semiseq".to_string(),
        requests,
        address_bytes: config.logical_bytes,
        write_ratio: 0.1,
        seq_read_frac: 0.85,
        seq_write_frac: 0.5,
        mean_burst_len: 64.0,
        align_sectors: 8,
        ..SyntheticSpec::default()
    }
}

/// Macro replay of the semi-sequential trace (see [`semiseq_spec`]): the
/// row's payload is translation reads per request next to the learned
/// predictor's hit/mispredict counters, so the zero-read translation win
/// (and its validation cost) is directly visible against the baselines.
pub fn bench_replay_semiseq(kind: FtlKind, samples: usize, requests: usize) -> Record {
    let mut config = micro_config();
    config.prefill_frac = 1.0;
    let spec = semiseq_spec(&config, requests);
    let (mut row, report) = replay_row(
        "replay_semiseq".to_string(),
        kind,
        samples,
        requests,
        || fresh_ssd(kind, &config),
        |ssd| ssd.run(spec.iter(SEED)).expect("replay"),
    );
    row.extra = vec![
        ("hit_ratio", Value::Float(report.hit_ratio())),
        ("translation_reads", Value::UInt(report.translation_reads())),
        (
            "translation_reads_per_req",
            Value::Float(report.translation_reads() as f64 / requests as f64),
        ),
        ("predict_hits", Value::UInt(report.ftl_stats.predict_hits)),
        ("mispredicts", Value::UInt(report.ftl_stats.mispredicts)),
    ];
    row
}

/// Macro replay across flash topologies: the Financial1 trace on a device
/// with `channels` channels (one way each, no bus overhead, so the
/// 1-channel row is directly comparable to the serial model). The wall
/// clock is secondary here; the row's payload is the *simulated* timing —
/// device time, makespan and response percentiles from the unit-clock
/// model — which must improve monotonically as channels are added.
pub fn bench_replay_channels(
    kind: FtlKind,
    samples: usize,
    requests: usize,
    channels: u32,
) -> Record {
    let workload = Workload::Financial1;
    let mut config = device_config(workload);
    config.topology.channels = channels;
    let spec = workload.spec(requests);
    let (mut row, report) = replay_row(
        format!("replay_financial1_chans{channels}"),
        kind,
        samples,
        requests,
        || fresh_ssd(kind, &config),
        |ssd| ssd.run(spec.iter(SEED)).expect("replay"),
    );
    row.extra = vec![
        ("channels", Value::UInt(channels as u64)),
        ("hit_ratio", Value::Float(report.hit_ratio())),
        ("sim_device_us", Value::Float(report.sim.device_us)),
        ("sim_makespan_us", Value::Float(report.sim.makespan_us)),
        ("sim_resp_avg_us", Value::Float(report.sim.resp_avg_us)),
        ("sim_resp_p50_us", Value::Float(report.sim.resp_p50_us)),
        ("sim_resp_p99_us", Value::Float(report.sim.resp_p99_us)),
        ("sim_resp_p999_us", Value::Float(report.sim.resp_p999_us)),
    ];
    row
}

/// Macro replay on the sharded multi-queue engine: the same Financial1
/// trace as [`bench_replay`], striped over `shards` worker threads (see
/// `tpftl_sim::ShardedSsd`). The record carries the per-shard load split
/// so imbalance is visible next to the throughput number.
pub fn bench_replay_sharded(kind: FtlKind, samples: usize, requests: usize, shards: u32) -> Record {
    let workload = Workload::Financial1;
    let config = device_config(workload);
    let spec = workload.spec(requests);
    let (mut row, report) = replay_row(
        format!("replay_financial1_shards{shards}"),
        kind,
        samples,
        requests,
        || fresh_sharded(kind, &config, shards),
        |ssd| ssd.run(spec.iter(SEED)).expect("replay"),
    );
    row.extra = vec![
        ("requests_per_sec", Value::Float(1e9 / row.median())),
        ("hit_ratio", Value::Float(report.merged.hit_ratio())),
        (
            "avg_response_us",
            Value::Float(report.merged.sim.resp_avg_us),
        ),
        ("shards", Value::UInt(shards as u64)),
        ("load_imbalance", Value::Float(report.load.imbalance)),
    ];
    row
}

/// GC under sharding: a write-only stream over a pre-filled device keeps
/// every shard's garbage collector busy, measuring the engine when each
/// worker is compute-bound rather than queue-bound.
pub fn bench_sharded_write_gc(shards: u32, samples: usize, requests: usize) -> Record {
    let mut config = micro_config();
    config.prefill_frac = 1.0;
    let spec = SyntheticSpec {
        requests,
        address_bytes: config.logical_bytes,
        write_ratio: 1.0,
        ..SyntheticSpec::default()
    };
    let kind = FtlKind::Tpftl;
    let (mut row, report) = replay_row(
        "sharded_write_gc".to_string(),
        kind,
        samples,
        requests,
        || fresh_sharded(kind, &config, shards),
        |ssd| ssd.run(spec.iter(SEED)).expect("sharded write gc"),
    );
    row.extra = vec![
        ("hit_ratio", Value::Float(report.merged.hit_ratio())),
        ("erases", Value::UInt(report.merged.erase_count())),
        ("shards", Value::UInt(shards as u64)),
        ("load_imbalance", Value::Float(report.load.imbalance)),
    ];
    row
}

/// GC configuration for the GC-quality rows. `Multi` is the multi-stream
/// configuration the aging and multi-tenant rows measure: four hot/cold
/// data streams fed by the write-count temperature estimator, windowed
/// cost-benefit victim selection with the wear tiebreak. `Greedy`, the
/// single-stream baseline, keeps the defaults (greedy, one stream).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum GcVariant {
    Greedy,
    Multi,
}

impl GcVariant {
    fn label(self) -> &'static str {
        match self {
            GcVariant::Greedy => "greedy",
            GcVariant::Multi => "multi",
        }
    }

    fn apply(self, config: &mut SsdConfig) {
        match self {
            GcVariant::Greedy => {}
            GcVariant::Multi => {
                config.gc_policy = GcPolicy::Windowed { window: 16 };
                config.streams = StreamCount(4);
            }
        }
    }
}

/// The device-aging overwrite stream: write-only, Zipf-skewed over the
/// whole address space, so a small hot set is rewritten constantly while
/// the prefilled cold majority decays slowly — the page-lifetime mix that
/// makes single-stream GC copy cold data over and over.
fn aging_spec(config: &SsdConfig, requests: usize) -> SyntheticSpec {
    SyntheticSpec {
        name: "aging".to_string(),
        requests,
        address_bytes: config.logical_bytes,
        write_ratio: 1.0,
        seq_read_frac: 0.0,
        seq_write_frac: 0.0,
        locality: Locality {
            regions: 1024,
            theta: 1.2,
            active_frac: 1.0,
        },
        ..SyntheticSpec::default()
    }
}

/// Shared replay body of the GC-quality rows: runs `spec_requests` through
/// a fresh device per sample and reports GC copy amplification
/// ([`tpftl_sim::RunReport::write_amp`]) and wear evenness (`erase_cv`)
/// next to the timing.
fn bench_gc_quality(
    scenario: String,
    kind: FtlKind,
    config: SsdConfig,
    samples: usize,
    requests: usize,
    trace: impl Fn(u64) -> Box<dyn Iterator<Item = tpftl_trace::IoRequest>>,
) -> Record {
    let (mut row, report) = replay_row(
        scenario,
        kind,
        samples,
        requests,
        || fresh_ssd(kind, &config),
        |ssd| ssd.run(trace(SEED)).expect("replay"),
    );
    row.extra = vec![
        ("write_amp", Value::Float(report.write_amp())),
        ("erase_cv", Value::Float(report.erase_cv())),
        ("erases", Value::UInt(report.erase_count())),
        ("hit_ratio", Value::Float(report.hit_ratio())),
    ];
    row
}

/// Device-aging GC row: the device is prefilled to 90% utilization, then
/// the skewed overwrite stream of `aging_spec` keeps the collector
/// running for the whole replay. The [`GcVariant`] selects the GC
/// configuration; the scenario name carries it because bench-diff keys
/// rows by (scenario, ftl).
pub fn bench_aging_write_gc(
    kind: FtlKind,
    variant: GcVariant,
    samples: usize,
    requests: usize,
) -> Record {
    let mut config = micro_config();
    config.prefill_frac = 0.9;
    variant.apply(&mut config);
    let spec = aging_spec(&config, requests);
    bench_gc_quality(
        format!("aging_write_gc_{}", variant.label()),
        kind,
        config,
        samples,
        requests,
        move |seed| Box::new(spec.iter(seed)),
    )
}

/// Multi-tenant GC row: a hot small-footprint write-heavy tenant and a
/// cool wide one share a 90%-prefilled device ([`MultiTenantSpec`]), so
/// pages of very different lifetimes arrive interleaved — the workload
/// hot/cold stream separation exists for.
pub fn bench_tenant_mix(
    kind: FtlKind,
    variant: GcVariant,
    samples: usize,
    requests: usize,
) -> Record {
    let mut config = micro_config();
    config.prefill_frac = 0.9;
    variant.apply(&mut config);
    let spec = MultiTenantSpec {
        name: "tenant_mix".to_string(),
        requests,
        address_bytes: config.logical_bytes,
        tenants: vec![
            TenantSpec {
                write_ratio: 0.95,
                theta: 1.2,
                ..TenantSpec::default()
            },
            TenantSpec {
                write_ratio: 0.6,
                theta: 0.2,
                ..TenantSpec::default()
            },
        ],
        ..MultiTenantSpec::default()
    };
    bench_gc_quality(
        format!("tenant_mix_{}", variant.label()),
        kind,
        config,
        samples,
        requests,
        move |seed| Box::new(spec.iter(seed)),
    )
}

/// Open-loop steady-state drive (see `tpftl_sim::ShardedSsd::run_open_loop`):
/// the Financial1 trace's addresses offered at a fixed wall-clock arrival
/// rate through per-shard submission/completion queue pairs. Unlike every
/// other scenario, the payload is not ns/op but **offered vs achieved
/// throughput and wall-clock response percentiles measured against the
/// arrival schedule** (no coordinated omission) — the row's `ns_per_op`
/// (wall ns per offered request) is recorded for the table yet carries
/// machine noise by design, so open-loop rows are excluded from the
/// strict bench-diff gate.
pub fn bench_open_loop(
    kind: FtlKind,
    shards: u32,
    queue_depth: u32,
    offered_rps: u64,
    requests: usize,
) -> Record {
    let workload = Workload::Financial1;
    let mut config = device_config(workload);
    // The paper cache split N ways leaves S-FTL/CDFTL under their fixed
    // per-instance minimum (a worst-case translation page plus buffers),
    // so every open-loop row — same floor for all six FTLs, keeping the
    // comparison fair — guarantees 16 KiB of usable cache per shard.
    config.cache_bytes = config
        .cache_bytes
        .max(config.gtd_bytes() + shards as usize * 16 * 1024);
    let spec = workload.spec(requests);
    let out = fresh_sharded(kind, &config, shards)
        .run_open_loop(
            spec.iter(SEED),
            OpenLoopOpts {
                offered_rps: offered_rps as f64,
                queue_depth: queue_depth as usize,
            },
        )
        .expect("open-loop run");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Record {
        scenario: format!("open_loop_s{shards}_qd{queue_depth}_r{offered_rps}"),
        ftl: kind.label(),
        ops_per_iter: out.requests,
        samples: vec![out.wall_us * 1e3 / out.requests.max(1) as f64],
        extra: vec![
            ("offered_rps", Value::Float(out.offered_rps)),
            ("achieved_rps", Value::Float(out.achieved_rps)),
            ("resp_avg_us", Value::Float(out.resp_avg_us)),
            ("resp_p50_us", Value::Float(out.resp_p50_us)),
            ("resp_p99_us", Value::Float(out.resp_p99_us)),
            ("resp_p999_us", Value::Float(out.resp_p999_us)),
            ("queue_depth", Value::UInt(queue_depth as u64)),
            ("shards", Value::UInt(shards as u64)),
            ("sub_requests", Value::UInt(out.sub_requests)),
            ("backlog_peak", Value::UInt(out.backlog_peak)),
            ("parks", Value::UInt(out.doorbells.parks)),
            ("wakeups", Value::UInt(out.doorbells.wakeups)),
            ("cores", Value::UInt(cores as u64)),
            ("hit_ratio", Value::Float(out.report.merged.hit_ratio())),
        ],
    }
}

/// Runs the full scenario matrix; `quick` selects the CI smoke sizing.
/// `filter` restricts the run to scenarios whose `scenario/ftl` id
/// contains it — non-matching scenarios are skipped, not run-and-hidden,
/// so a filtered invocation is proportionally fast (and profileable).
/// `shard_counts` selects which sharded-replay rows to run (TPFTL only;
/// pass `&[]` to skip the sharded scenarios entirely). `channel_counts`
/// selects the channel-scaling replay rows (all five FTLs including
/// Optimal, per channel count; `&[]` — the default CLI behaviour — skips
/// them). `open_loop_rates`/`open_loop_depths` select the open-loop
/// saturation sweep: all six FTLs per (rate, depth) at the maximum of
/// [`SWEEP_OPEN_LOOP_SHARDS`], plus TPFTL shard-scaling rows at the
/// middle rate (`&[]` rates — the default — skips the sweep).
pub fn run_all(
    quick: bool,
    filter: Option<&str>,
    shard_counts: &[u32],
    channel_counts: &[u32],
    open_loop_rates: &[u64],
    open_loop_depths: &[u32],
) -> Vec<Record> {
    let (warmup, samples) = if quick { (1, 3) } else { (3, 9) };
    let (hit_ops, miss_ops, write_ops) = if quick {
        (1024, 128, 256)
    } else {
        (4096, 256, 512)
    };
    let replay_requests = if quick { 12_000 } else { 60_000 };

    let wanted =
        |scenario: &str, ftl: &str| filter.is_none_or(|f| format!("{scenario}/{ftl}").contains(f));
    let tpftl = FtlKind::Tpftl.label();
    let mut records = Vec::new();
    // The cached-mapping designs plus the LearnedFTL extension.
    for kind in FtlKind::PERSISTING {
        let name = &kind.label();
        if wanted("translate_hit", name) {
            records.push(bench_translate_hit(kind, warmup, samples, hit_ops));
        }
        if wanted("miss_scan", name) {
            records.push(bench_miss_scan(kind, warmup, samples, miss_ops));
        }
        if wanted("write_gc", name) {
            records.push(bench_write_gc(kind, warmup, samples, write_ops));
        }
        if wanted("replay_financial1", name) {
            records.push(bench_replay(kind, samples.min(3), replay_requests));
        }
    }
    for kind in [FtlKind::Learned, FtlKind::Dftl, FtlKind::Tpftl] {
        if wanted("replay_semiseq", &kind.label()) {
            records.push(bench_replay_semiseq(kind, samples.min(3), replay_requests));
        }
    }
    for workload in [Workload::Financial1, Workload::Financial2, Workload::MsrTs] {
        if wanted("trace_synth", workload.name()) {
            records.push(bench_trace_synth(workload, warmup, samples));
        }
    }
    let learned = FtlKind::Learned.label();
    for fragmented in [true, false] {
        let shape = if fragmented { "fragmented" } else { "linear" };
        if wanted(&format!("learned_fill_{shape}"), &learned) {
            records.push(bench_learned_fill(fragmented, warmup, samples, write_ops));
        }
    }
    if wanted("learned_request_miss", &learned) {
        records.push(bench_learned_request_miss(warmup, samples, write_ops));
    }
    if wanted("gc_valid_scan", "flash") {
        records.push(bench_gc_valid_scan(warmup, samples));
    }
    // Quick mode keeps the bucket 8 k deep: a pick that walks its bucket is
    // still tens of microseconds there, against a committed row of ~0.3 µs.
    let (pick_blocks, pick_ops) = if quick {
        (1 << 14, 4096)
    } else {
        (1 << 16, 8192)
    };
    for (policy, label) in [
        (GcPolicy::Greedy, "Greedy"),
        (GcPolicy::Windowed { window: 8 }, "Windowed8"),
        (GcPolicy::Windowed { window: 64 }, "Windowed64"),
    ] {
        if wanted("gc_pick_deep", label) {
            records.push(bench_gc_pick_deep(
                policy,
                label,
                pick_blocks,
                warmup,
                samples,
                pick_ops,
            ));
        }
    }
    // Quick mode still times 3 × 2 000 victims (~250 k migrated pages).
    let migrate_victims = if quick { 2000 } else { 4000 };
    for kind in [FtlKind::Tpftl, FtlKind::Dftl] {
        if wanted("gc_migrate", &kind.label()) {
            records.push(bench_gc_migrate(kind, warmup, samples, migrate_victims));
        }
    }
    // GC-quality rows: TPFTL and DFTL, single-stream greedy baseline vs
    // the multi-stream windowed configuration, on the aging
    // overwrite stream and the multi-tenant mix. Their payload is
    // write_amp / erase_cv rather than ns/op, so CI excludes them from
    // the strict latency gate and compares write_amp separately.
    let gc_requests = if quick { 12_000 } else { 60_000 };
    for kind in [FtlKind::Tpftl, FtlKind::Dftl] {
        let name = &kind.label();
        for variant in [GcVariant::Greedy, GcVariant::Multi] {
            if wanted(&format!("aging_write_gc_{}", variant.label()), name) {
                records.push(bench_aging_write_gc(
                    kind,
                    variant,
                    samples.min(3),
                    gc_requests,
                ));
            }
            if wanted(&format!("tenant_mix_{}", variant.label()), name) {
                records.push(bench_tenant_mix(kind, variant, samples.min(3), gc_requests));
            }
        }
    }
    for &shards in shard_counts {
        let label = format!("replay_financial1_shards{shards}");
        if wanted(&label, &tpftl) {
            records.push(bench_replay_sharded(
                FtlKind::Tpftl,
                samples.min(3),
                replay_requests,
                shards,
            ));
        }
    }
    if let Some(&max_shards) = shard_counts.iter().max() {
        if wanted("sharded_write_gc", &tpftl) {
            let gc_requests = if quick { 6_000 } else { 30_000 };
            records.push(bench_sharded_write_gc(
                max_shards,
                samples.min(3),
                gc_requests,
            ));
        }
    }
    for &channels in channel_counts {
        let label = format!("replay_financial1_chans{channels}");
        for kind in [
            FtlKind::Tpftl,
            FtlKind::Dftl,
            FtlKind::Sftl,
            FtlKind::Cdftl,
            FtlKind::Optimal,
        ] {
            if wanted(&label, &kind.label()) {
                records.push(bench_replay_channels(
                    kind,
                    samples.min(3),
                    replay_requests,
                    channels,
                ));
            }
        }
    }
    if !open_loop_rates.is_empty() {
        let ol_requests = if quick { 4_000 } else { 20_000 };
        let depths: &[u32] = if open_loop_depths.is_empty() {
            &SWEEP_OPEN_LOOP_DEPTHS
        } else {
            open_loop_depths
        };
        let all_shards = *SWEEP_OPEN_LOOP_SHARDS.last().unwrap();
        // All six FTLs (the five cached-mapping designs plus the Optimal
        // page-map upper bound) at every (rate, depth), full shard count.
        for &rate in open_loop_rates {
            for &depth in depths {
                let label = format!("open_loop_s{all_shards}_qd{depth}_r{rate}");
                for kind in [
                    FtlKind::Tpftl,
                    FtlKind::Dftl,
                    FtlKind::Sftl,
                    FtlKind::Cdftl,
                    FtlKind::Learned,
                    FtlKind::Optimal,
                ] {
                    if wanted(&label, &kind.label()) {
                        records.push(bench_open_loop(kind, all_shards, depth, rate, ol_requests));
                    }
                }
            }
        }
        // Shard-scaling rows: TPFTL at the middle rate across the shard
        // sweep (the maximum is already covered above).
        let mid_rate = open_loop_rates[open_loop_rates.len() / 2];
        for &shards in &SWEEP_OPEN_LOOP_SHARDS {
            if shards == all_shards {
                continue;
            }
            for &depth in depths {
                let label = format!("open_loop_s{shards}_qd{depth}_r{mid_rate}");
                if wanted(&label, &tpftl) {
                    records.push(bench_open_loop(
                        FtlKind::Tpftl,
                        shards,
                        depth,
                        mid_rate,
                        ol_requests,
                    ));
                }
            }
        }
    }
    records
}
