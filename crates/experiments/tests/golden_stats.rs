//! Golden-statistics regression test: fixed-seed synthetic runs must keep
//! producing bit-identical simulation statistics across refactors of the
//! mapping-cache internals (slab layout, hashers, index structures). The
//! goldens were recorded from the implementation at the time this test was
//! introduced; a diff here means a change is NOT behavior-preserving.
//!
//! If an *intentional* simulation-behaviour change lands (new policy, trace
//! generator change), re-record by running with `UPDATE_GOLDENS=1` printed
//! output: `cargo test -p tpftl-experiments --test golden_stats -- --nocapture`.

use tpftl_experiments::runner::{device_config, run_one, run_one_sharded, FtlKind, Scale};
use tpftl_sim::RunReport;
use tpftl_trace::presets::Workload;

/// The TPFTL/Financial1 golden, shared with the sharded-engine test below.
const TPFTL_FIN1_GOLDEN: &str = "TPFTL(rsbc) req=10000 lk=14046 hit=11654 rep=2137 drep=259 gcu=0 gch=0 upr=3012 upw=11034 tr=2651 tw=259 er=0 gcd=0 gcm=0 gct=0 gctm=0 ce=1212 cb=8192 resp=406f722c24b700d2";

/// The GC-heavy TPFTL/Financial1 golden (scale large enough that writes
/// exhaust the free pool). The `resp=` of this row and of the five other
/// 40 k-request rows moved, and nothing else did, when collections went
/// to the unit clocks' background lane; their GC counters moved when the
/// lane got its own open blocks and each collection erased its victim
/// before writing back the victim's mapping entries, and again when the
/// victim pick chose its class first (translation pages migrated per
/// translation victim fell from ~6 to ~2), and once more when a
/// collection pass, not each victim, became the unit of mapping
/// write-back (the six rows' translation writes fell 0.4–1.7 %), and when
/// the default pass ran up to 32 blocks past its trigger on devices with
/// more translation pages than a block holds (translation writes −4 to
/// −34 %; this row's erases 509 → 526, a short run erasing blocks ahead
/// of use), and when such devices' passes began to pick by age with a
/// 64-wide window (GC hits 382 → 111: older victims hold colder pages).
const TPFTL_FIN1_GC_GOLDEN: &str = "TPFTL(rsbc) req=40000 lk=56827 hit=48066 rep=11384 drep=726 gcu=3840 gch=111 upr=12056 upw=44771 tr=10849 tw=2088 er=523 gcd=495 gcm=3840 gct=28 gctm=9 ce=1213 cb=8190 resp=40702505d47ab536";

/// Unit-clock sim-timing goldens for the TPFTL/Financial1 case: the
/// 1-channel row pins the serial topology bit for bit; the 4x2 row pins
/// the multi-unit overlap arithmetic (re-recorded in PR 25, when blocks
/// became superblocks striped page by page across the units).
const SERIAL_SIM_GOLDEN: &str =
    "ch=1 way=1 dev=41424fd780000000 mk=4181eeb3f03e2cd0 ravg=406f722c24b700d2 p50=192 p99=832";
const WIDE_SIM_GOLDEN: &str =
    "ch=4 way=2 dev=413a087400000000 mk=4181eeb3f03e2cd0 ravg=4065e50c53047ffb p50=192 p99=384";

/// A compact, exact fingerprint of everything the paper's figures measure.
/// Response time (the unit-clock mean) is an f64 accumulation; its bits
/// are captured exactly so even a reordering of floating-point adds is
/// caught.
fn fingerprint(r: &RunReport) -> String {
    format!(
        "{} req={} lk={} hit={} rep={} drep={} gcu={} gch={} upr={} upw={} \
         tr={} tw={} er={} gcd={} gcm={} gct={} gctm={} ce={} cb={} resp={:016x}",
        r.ftl,
        r.ftl_stats.requests,
        r.ftl_stats.lookups,
        r.ftl_stats.hits,
        r.ftl_stats.replacements,
        r.ftl_stats.dirty_replacements,
        r.ftl_stats.gc_updates,
        r.ftl_stats.gc_hits,
        r.ftl_stats.user_page_reads,
        r.ftl_stats.user_page_writes,
        r.translation_reads(),
        r.translation_writes(),
        r.erase_count(),
        r.gc.data_victims,
        r.gc.data_pages_migrated,
        r.gc.trans_victims,
        r.gc.trans_pages_migrated,
        r.cached_entries,
        r.cache_bytes_used,
        r.sim.resp_avg_us.to_bits(),
    )
}

fn run(kind: FtlKind, workload: Workload, scale: f64) -> String {
    let config = device_config(workload);
    let report = run_one(kind, workload, Scale(scale), &config).expect("run");
    fingerprint(&report)
}

/// (kind, workload, scale, golden fingerprint), recorded pre-refactor.
fn cases() -> Vec<(FtlKind, Workload, f64, &'static str)> {
    vec![
        (
            FtlKind::Tpftl,
            Workload::Financial1,
            0.005,
            TPFTL_FIN1_GOLDEN,
        ),
        (
            FtlKind::variant(""),
            Workload::Financial1,
            0.005,
            "TPFTL(–) req=10000 lk=14046 hit=10887 rep=1947 drep=1556 gcu=0 gch=0 upr=3012 upw=11034 tr=4715 tw=1556 er=0 gcd=0 gcm=0 gct=0 gctm=0 ce=1212 cb=8192 resp=4071f536e8f56c5e",
        ),
        (FtlKind::Tpftl, Workload::MsrTs, 0.004, "TPFTL(rsbc) req=10000 lk=27773 hit=23466 rep=0 drep=0 gcu=0 gch=0 upr=5008 upw=22765 tr=4307 tw=0 er=0 gcd=0 gcm=0 gct=0 gctm=0 ce=10539 cb=65858 resp=409b321d1ade8ee0"),
        // Large enough that writes exhaust the over-provisioned free pool
        // on the prefilled device, pinning the GC paths too.
        (
            FtlKind::Tpftl,
            Workload::Financial1,
            0.02,
            TPFTL_FIN1_GC_GOLDEN,
        ),
        // The same GC-heavy scale for the other demand-paging FTLs, so
        // cache-core refactors can't silently drift their GC behaviour.
        (
            FtlKind::Sftl,
            Workload::Financial1,
            0.02,
            "S-FTL req=40000 lk=56827 hit=45893 rep=14529 drep=4547 gcu=3670 gch=431 upr=12056 upw=44771 tr=15810 tw=5818 er=554 gcd=473 gcm=3670 gct=81 gctm=41 ce=10337 cb=8080 resp=4071c14340192900",
        ),
        (
            FtlKind::Cdftl,
            Workload::Financial1,
            0.02,
            "CDFTL req=40000 lk=56827 hit=42531 rep=33700 drep=27701 gcu=3855 gch=52 upr=12056 upw=44771 tr=15914 tw=13724 er=690 gcd=490 gcm=3855 gct=200 gctm=89 ce=1535 cb=8192 resp=407464cc43217d51",
        ),
        (FtlKind::Dftl, Workload::Financial1, 0.005, "DFTL req=10000 lk=14046 hit=10815 rep=2207 drep=1716 gcu=0 gch=0 upr=3012 upw=11034 tr=4947 tw=1716 er=0 gcd=0 gcm=0 gct=0 gctm=0 ce=1024 cb=8192 resp=407230cbccc6fd99"),
        // LearnedFTL on the prefilled Financial1 volume: misses fill
        // segments from the sequential prefill table, the trace's
        // overwrites then split them and the one LRU evicts them, so the
        // fingerprint pins fitter, validator, split-invalidation and
        // eviction order together — and, since a miss also loads the rest of
        // its request and entries are charged 6 B in 8 B nodes, prefetch and
        // node accounting. (Both LearnedFTL rows re-recorded with those,
        // and again when a dirty eviction or a GC write-back began to take
        // every dirty entry of its region along: `tw` 2 814 → 644 and
        // 14 882 → 4 289.)
        (FtlKind::Learned, Workload::Financial1, 0.005, "LearnedFTL(e4) req=10000 lk=14046 hit=11820 rep=3011 drep=644 gcu=0 gch=0 upr=3012 upw=11034 tr=2870 tw=644 er=0 gcd=0 gcm=0 gct=0 gctm=0 ce=533 cb=8150 resp=40700ea9d34bb787"),
        (FtlKind::Sftl, Workload::Financial1, 0.005, "S-FTL req=10000 lk=14046 hit=12567 rep=1983 drep=675 gcu=0 gch=0 upr=3012 upw=11034 tr=2013 tw=675 er=0 gcd=0 gcm=0 gct=0 gctm=0 ce=30816 cb=8040 resp=40701de0b42a7b8c"),
        (FtlKind::Cdftl, Workload::Financial1, 0.005, "CDFTL req=10000 lk=14046 hit=10556 rep=7677 drep=5892 gcu=0 gch=0 upr=3012 upw=11034 tr=3490 tw=2635 er=0 gcd=0 gcm=0 gct=0 gctm=0 ce=1535 cb=8192 resp=40731bbedb14f735"),
        // GC-heavy pins of DFTL and LearnedFTL.
        (FtlKind::Dftl, Workload::Financial1, 0.02, "DFTL req=40000 lk=56827 hit=45126 rep=10677 drep=8596 gcu=3725 gch=63 upr=12056 upw=44771 tr=21805 tw=10104 er=622 gcd=478 gcm=3725 gct=144 gctm=67 ce=1024 cb=8192 resp=40737de7d5c9a7ec"),
        (FtlKind::Learned, Workload::Financial1, 0.02, "LearnedFTL(e4) req=40000 lk=56827 hit=46575 rep=13054 drep=1808 gcu=3664 gch=34 upr=12056 upw=44771 tr=13437 tw=3169 er=521 gcd=475 gcm=3664 gct=46 gctm=17 ce=700 cb=8192 resp=407088021671042e"),
    ]
}

/// Exact fingerprint of the unit-clock simulated timing: device time,
/// makespan and mean response as f64 bits, percentiles as bucket edges.
fn sim_fingerprint(r: &RunReport) -> String {
    format!(
        "ch={} way={} dev={:016x} mk={:016x} ravg={:016x} p50={} p99={}",
        r.sim.channels,
        r.sim.ways,
        r.sim.device_us.to_bits(),
        r.sim.makespan_us.to_bits(),
        r.sim.resp_avg_us.to_bits(),
        r.sim.resp_p50_us,
        r.sim.resp_p99_us,
    )
}

/// The 1-channel unit-clock timing is pinned bit-exactly, and a
/// multi-unit topology must change *only* the simulated timing — never the
/// op counters — while improving device time.
#[test]
fn unit_clock_sim_timing_is_pinned_and_topology_neutral() {
    let workload = Workload::Financial1;
    let config = device_config(workload);
    let serial = run_one(FtlKind::Tpftl, workload, Scale(0.005), &config).expect("run");
    assert_eq!(fingerprint(&serial), TPFTL_FIN1_GOLDEN);
    assert_eq!(
        sim_fingerprint(&serial),
        SERIAL_SIM_GOLDEN,
        "1-channel unit-clock timing drifted from the recorded golden"
    );

    let mut wide_config = config.clone();
    wide_config.topology.channels = 4;
    wide_config.topology.ways = 2;
    let wide = run_one(FtlKind::Tpftl, workload, Scale(0.005), &wide_config).expect("run");
    let counters = |fp: &str| {
        fp.rsplit_once(" resp=")
            .expect("resp is last")
            .0
            .to_string()
    };
    assert_eq!(
        counters(&fingerprint(&wide)),
        counters(TPFTL_FIN1_GOLDEN),
        "topology must not change op counts"
    );
    assert_eq!(
        sim_fingerprint(&wide),
        WIDE_SIM_GOLDEN,
        "4x2 unit-clock timing drifted from the recorded golden"
    );
    assert!(wide.sim.device_us < serial.sim.device_us);
    assert!(wide.sim.makespan_us <= serial.sim.makespan_us);
}

/// The sharded engine with one shard must be indistinguishable from the
/// single-queue simulator: same counters, same float bits — so `--shards 1`
/// anywhere in the tree is pinned to the recorded golden above.
#[test]
fn one_shard_replay_reproduces_the_golden_bit_for_bit() {
    let workload = Workload::Financial1;
    let config = device_config(workload);
    let report =
        run_one_sharded(FtlKind::Tpftl, workload, Scale(0.005), &config, 1).expect("sharded run");
    assert_eq!(
        fingerprint(&report.merged),
        TPFTL_FIN1_GOLDEN,
        "sharded engine with --shards 1 drifted from the single-queue golden"
    );
    assert_eq!(report.per_shard.len(), 1);
    assert_eq!(fingerprint(&report.per_shard[0]), TPFTL_FIN1_GOLDEN);
}

/// Sharded replay is deterministic across runs: the merge folds per-shard
/// reports in shard order, so even the float accumulations are stable
/// regardless of worker interleaving.
#[test]
fn four_shard_replay_is_run_to_run_deterministic() {
    let workload = Workload::Financial1;
    let config = device_config(workload);
    let run = || {
        run_one_sharded(FtlKind::Tpftl, workload, Scale(0.005), &config, 4).expect("sharded run")
    };
    let (a, b) = (run(), run());
    assert_eq!(fingerprint(&a.merged), fingerprint(&b.merged));
    assert_eq!(a, b);
}

#[test]
fn fixed_seed_statistics_are_stable() {
    let mut failures = Vec::new();
    for (kind, workload, scale, golden) in cases() {
        let actual = run(kind, workload, scale);
        if actual != golden {
            failures.push(format!(
                "{kind:?}/{workload:?}:\n  golden: {golden}\n  actual: {actual}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "simulation statistics drifted from the recorded goldens \
         (the change is not behavior-preserving):\n{}",
        failures.join("\n")
    );
}
