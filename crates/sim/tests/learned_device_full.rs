//! LearnedFTL at the library's default GC watermarks.
//!
//! A 64 MB device used to store the pair 2/3: collection started with one
//! free block left. While LearnedFTL paid for a grown segment set by
//! evicting mapping entries until the bytes fit — up to 35 dirty entries,
//! 35 translation-page programs, inside one page access, with the free pool
//! checked once before it — the semi-sequential replay ended in
//! `DeviceFull` at the first GC onset on each seed below (requests
//! 16 709 / 16 716 / 16 759 of seeds 19 / 30 / 37 single-queue; 12 of 41
//! seeds on 2 × 32 MB shards). An access now writes back three entries at
//! most (`no_call_chains_more_than_three_dirty_evictions` in
//! `tpftl_core::ftl::learned`), and every prefix here completes.
//!
//! These replays no longer reach that case. No low watermark is under
//! four (DESIGN.md §16, *The free-pool slack*): the 64 MB default is 4/5,
//! so GC starts with three free blocks or more, and even 35 write-backs
//! fit in the blocks left. The three-entry bound is pinned by
//! `learned::no_call_chains_more_than_three_dirty_evictions` alone; this
//! file is a smoke test of LearnedFTL's GC on the `semiseq` device.

use tpftl_core::ftl::LearnedFtl;
use tpftl_core::SsdConfig;
use tpftl_sim::{ShardedSsd, Ssd};
use tpftl_trace::SyntheticSpec;

/// The `semiseq` device of `BENCH_ftl.json` and `BENCHMARK.json`, at the
/// watermarks `SsdConfig::paper_default` gives it.
fn device() -> SsdConfig {
    let mut c = SsdConfig::paper_default(64 << 20);
    c.cache_bytes = c.gtd_bytes() + 16 * 1024;
    c.prefill_frac = 1.0;
    assert_eq!((c.gc_low_blocks, c.gc_high_blocks), (4, 5));
    c
}

/// The 1 M-request semi-sequential trace: 85 % sequential reads, 10 %
/// writes of which half are random.
fn semiseq(c: &SsdConfig) -> SyntheticSpec {
    SyntheticSpec {
        name: "semiseq".to_string(),
        requests: 1_000_000,
        address_bytes: c.logical_bytes,
        write_ratio: 0.1,
        seq_read_frac: 0.85,
        seq_write_frac: 0.5,
        mean_burst_len: 64.0,
        align_sectors: 8,
        ..SyntheticSpec::default()
    }
}

#[test]
fn semiseq_prefixes_complete_single_queue() {
    let c = device();
    for seed in [19, 30, 37] {
        let ftl = LearnedFtl::new(&c).expect("budget");
        let mut ssd = Ssd::new(ftl, c.clone()).expect("device");
        let done = ssd.run(semiseq(&c).iter(seed).take(20_000));
        assert!(done.is_ok(), "seed {seed}: {:?}", done.err());
    }
}

#[test]
fn semiseq_prefixes_complete_on_two_shards() {
    let c = device();
    for seed in [3, 5, 7, 2015] {
        let mut ssd = ShardedSsd::new(&c, 2, |_, c| LearnedFtl::new(c)).expect("device");
        let done = ssd.run(semiseq(&c).iter(seed).take(40_000));
        assert!(done.is_ok(), "seed {seed}: {:?}", done.err());
    }
}
