//! Randomized model tests over the FTL framework.
//!
//! * `LruList` against a `VecDeque` reference model.
//! * Every demand-paging FTL against a shadow mapping oracle under random
//!   workloads with GC pressure: all resolved mappings must point at the
//!   valid flash page holding that LPN, no LPN may own two valid pages, and
//!   cache budgets must hold at every step.
//!
//! The generators are driven by the in-tree seeded PRNG (`tpftl-rng`) —
//! proptest is unavailable offline — so every case is identified by its
//! seed and replays deterministically. Failures print the seed.

use std::collections::VecDeque;

use tpftl_core::driver;
use tpftl_core::env::SsdEnv;
use tpftl_core::ftl::{AccessCtx, FastFtl, Ftl, FtlKind, TpFtl, TpftlConfig, Zftl};
use tpftl_core::lru::LruList;
use tpftl_core::SsdConfig;
use tpftl_rng::Rng64;

// ---- LruList vs VecDeque model ----------------------------------------------

#[derive(Debug, Clone)]
enum LruOp {
    PushMru(u32),
    TouchNth(usize),
    RemoveNth(usize),
    PopLru,
}

fn lru_op(rng: &mut Rng64) -> LruOp {
    match rng.range_u32(0, 4) {
        0 => LruOp::PushMru(rng.next_u64() as u32),
        1 => LruOp::TouchNth(rng.range_usize(0, 64)),
        2 => LruOp::RemoveNth(rng.range_usize(0, 64)),
        _ => LruOp::PopLru,
    }
}

#[test]
fn lru_list_matches_vecdeque_model() {
    for seed in 0..512u64 {
        let mut rng = Rng64::seed_from_u64(0x1070 + seed);
        let n_ops = rng.range_usize(1, 200);
        let mut list = LruList::new();
        // Model: front = LRU, back = MRU; holds (value, handle).
        let mut model: VecDeque<(u32, tpftl_core::lru::LruIdx)> = VecDeque::new();

        for step in 0..n_ops {
            let op = lru_op(&mut rng);
            match op {
                LruOp::PushMru(v) => {
                    let idx = list.push_mru(v);
                    model.push_back((v, idx));
                }
                LruOp::TouchNth(n) => {
                    if !model.is_empty() {
                        let n = n % model.len();
                        let (v, idx) = model.remove(n).expect("in range");
                        list.touch(idx);
                        model.push_back((v, idx));
                    }
                }
                LruOp::RemoveNth(n) => {
                    if !model.is_empty() {
                        let n = n % model.len();
                        let (v, idx) = model.remove(n).expect("in range");
                        assert_eq!(list.remove(idx), v, "seed {seed} step {step}");
                    }
                }
                LruOp::PopLru => {
                    let got = list.pop_lru();
                    let want = model.pop_front().map(|(v, _)| v);
                    assert_eq!(got, want, "seed {seed} step {step}");
                }
            }
            assert_eq!(list.len(), model.len(), "seed {seed} step {step}");
            let order: Vec<u32> = list.iter_lru().map(|(_, v)| *v).collect();
            let want: Vec<u32> = model.iter().map(|(v, _)| *v).collect();
            assert_eq!(order, want, "seed {seed} step {step}");
        }
    }
}

/// Handles stay valid while unrelated entries churn: a surviving entry's
/// index must keep resolving to its value no matter how many pushes,
/// removals, and slab-slot reuses happen around it.
#[test]
fn lru_index_stability_under_churn() {
    let mut rng = Rng64::seed_from_u64(0x57AB);
    let mut list = LruList::new();
    let anchors: Vec<(u32, _)> = (0..16u32)
        .map(|v| (v | 0x8000_0000, list.push_mru(v | 0x8000_0000)))
        .collect();
    let mut churn: Vec<_> = Vec::new();
    for step in 0..10_000u32 {
        if churn.is_empty() || rng.gen_bool(0.55) {
            churn.push(list.push_mru(step));
        } else {
            let at = rng.range_usize(0, churn.len());
            list.remove(churn.swap_remove(at));
        }
        if step % 97 == 0 {
            for (v, idx) in &anchors {
                assert_eq!(list.get(*idx), Some(v), "anchor lost at step {step}");
            }
        }
    }
    for (v, idx) in &anchors {
        assert_eq!(list.get(*idx), Some(v));
    }
}

/// The slab recycles freed slots through its free list: steady-state churn
/// must not grow the slot arena beyond its high-water mark, however long it
/// runs.
#[test]
fn lru_free_list_reuses_slots_without_growth() {
    let mut rng = Rng64::seed_from_u64(0xF2EE);
    let mut list = LruList::new();
    let mut live: Vec<_> = (0..64u32).map(|v| list.push_mru(v)).collect();
    let high_water = list.slot_count();
    assert_eq!(high_water, 64);
    for step in 0..10_000u32 {
        // Replace a random entry: the removal frees a slot, the push must
        // take it back instead of extending the slab.
        let at = rng.range_usize(0, live.len());
        list.remove(live.swap_remove(at));
        live.push(list.push_mru(step));
        assert_eq!(list.len(), 64);
        assert_eq!(
            list.slot_count(),
            high_water,
            "slab grew during steady-state churn at step {step}"
        );
    }
    // Growth beyond the high-water mark allocates fresh slots again.
    live.push(list.push_mru(u32::MAX));
    assert_eq!(list.slot_count(), high_water + 1);
}

// ---- FTL mapping consistency under random workloads ---------------------------

/// The registry's configurations, plus deliberately small ZFTL/FAST
/// instances (4 zones, 3 log blocks) so zone switches and merges happen
/// within a few hundred accesses.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Registry(FtlKind),
    SmallZftl,
    SmallFast,
}

fn all_kinds() -> [Kind; 10] {
    [
        Kind::Registry(FtlKind::Optimal),
        Kind::Registry(FtlKind::Dftl),
        Kind::Registry(FtlKind::Sftl),
        Kind::Registry(FtlKind::Cdftl),
        Kind::SmallZftl,
        Kind::SmallFast,
        Kind::Registry(FtlKind::Tpftl),
        Kind::Registry(FtlKind::variant("")),
        Kind::Registry(FtlKind::variant("b")),
        Kind::Registry(FtlKind::variant("rs")),
    ]
}

fn build(kind: Kind, config: &SsdConfig) -> Box<dyn Ftl> {
    match kind {
        Kind::Registry(kind) => kind.build(config).expect("budget fits"),
        Kind::SmallZftl => Box::new(Zftl::new(config, 4).expect("budget fits")),
        Kind::SmallFast => Box::new(FastFtl::new(config, 3)),
    }
}

#[derive(Debug, Clone, Copy)]
struct Access {
    lpn_seed: u32,
    len: u32,
    write: bool,
}

fn access(rng: &mut Rng64) -> Access {
    Access {
        lpn_seed: rng.next_u64() as u32,
        len: rng.range_u32(1, 6),
        write: rng.gen_bool(0.5),
    }
}

fn accesses(rng: &mut Rng64, lo: usize, hi: usize) -> Vec<Access> {
    let n = rng.range_usize(lo, hi);
    (0..n).map(|_| access(rng)).collect()
}

#[test]
fn ftl_mapping_matches_flash_oracle() {
    // Each case runs a few hundred page accesses; keep the count moderate.
    for case in 0..48u64 {
        let mut rng = Rng64::seed_from_u64(0xF71 + case);
        let kinds = all_kinds();
        let kind = kinds[rng.range_usize(0, kinds.len())];
        let prefill = if rng.gen_bool(0.5) { 0.6 } else { 0.0 };
        let accesses = accesses(&mut rng, 50, 250);

        // 8 MB logical space, hot region to force GC and evictions.
        let mut config = SsdConfig::paper_default(8 << 20);
        // Small cache: S-FTL/CDFTL need a whole page + slack.
        config.cache_bytes = config.gtd_bytes() + 10 * 1024;
        // The block-mapping FAST FTL does not support pre-fill.
        config.prefill_frac = if matches!(kind, Kind::SmallFast) {
            0.0
        } else {
            prefill
        };
        let logical_pages = config.logical_pages() as u32;
        let mut env = SsdEnv::new(config.clone()).expect("env");
        let mut ftl = build(kind, &config);
        driver::bootstrap(ftl.as_mut(), &mut env).expect("bootstrap");

        // Shadow oracle of what has been written.
        let mut written = vec![false; logical_pages as usize];
        if config.prefill_frac > 0.0 {
            let n = (logical_pages as f64 * config.prefill_frac) as u32;
            for lpn in 0..n {
                written[lpn as usize] = true;
            }
        }

        for a in &accesses {
            // Concentrate in a hot quarter of the space to trigger GC.
            let start = a.lpn_seed % (logical_pages / 4);
            let len = a.len.min(logical_pages - start);
            driver::serve_request(ftl.as_mut(), &mut env, start, len, a.write).expect("serve");
            if a.write {
                for lpn in start..start + len {
                    written[lpn as usize] = true;
                }
            }
        }

        // Oracle 1: no LPN owns two valid data pages.
        let mut owner = std::collections::HashMap::new();
        for (ppn, tag, is_tp) in env.flash().scan_valid() {
            if !is_tp {
                assert!(
                    owner.insert(tag, ppn).is_none(),
                    "case {case} ({kind:?}): LPN {tag} double-mapped"
                );
            }
        }
        // Oracle 2: every written LPN resolves through the FTL to the
        // page that physically holds it; unwritten LPNs resolve to None.
        for lpn in 0..logical_pages {
            let got = ftl
                .translate(&mut env, lpn, &AccessCtx::single(false))
                .expect("translate");
            match (written[lpn as usize], got) {
                (true, Some(ppn)) => {
                    assert_eq!(
                        owner.get(&lpn).copied(),
                        Some(ppn),
                        "case {case} ({kind:?}): LPN {lpn}"
                    );
                }
                (true, None) => {
                    panic!("case {case} ({kind:?}): written LPN {lpn} lost its mapping")
                }
                (false, Some(_)) => panic!("case {case} ({kind:?}): unwritten LPN {lpn} is mapped"),
                (false, None) => {}
            }
        }
        // Oracle 3: lookup accounting is exact.
        assert_eq!(
            env.stats.lookups,
            accesses
                .iter()
                .map(|a| {
                    let start = a.lpn_seed % (logical_pages / 4);
                    a.len.min(logical_pages - start) as u64
                })
                .sum::<u64>()
                + logical_pages as u64,
            "case {case} ({kind:?})"
        );
    }
}

// ---- TPFTL-specific invariants ------------------------------------------------

/// The cache budget holds after every single access, for arbitrary
/// budgets and multi-page requests (this is the invariant a make-room /
/// insert mismatch violates: the eviction pass can dismantle the target
/// TP node, whose re-creation must be re-accounted).
#[test]
fn tpftl_budget_invariant_under_prefetching() {
    const FLAGS: [&str; 4] = ["rsbc", "rs", "r", ""];
    for case in 0..32u64 {
        let mut rng = Rng64::seed_from_u64(0xB4D6 + case);
        let budget = rng.range_usize(64, 2048);
        let flags = FLAGS[rng.range_usize(0, FLAGS.len())];
        let accesses = accesses(&mut rng, 50, 300);

        let mut config = SsdConfig::paper_default(8 << 20);
        config.cache_bytes = config.gtd_bytes() + budget;
        let logical_pages = config.logical_pages() as u32;
        let mut env = SsdEnv::new(config.clone()).expect("env");
        let mut ftl = TpFtl::new(&config, TpftlConfig::from_flags(flags)).expect("ftl");
        driver::bootstrap(&mut ftl, &mut env).expect("bootstrap");
        for a in &accesses {
            let start = a.lpn_seed % logical_pages;
            let len = a.len.min(logical_pages - start);
            driver::serve_request(&mut ftl, &mut env, start, len, a.write).expect("serve");
            assert!(
                ftl.cache_bytes_used() <= budget,
                "case {case}: budget {budget} exceeded: {} (flags {flags:?})",
                ftl.cache_bytes_used()
            );
        }
    }
}

/// One address translation performs at most one translation-page read
/// and at most one translation-page write (Section 4.5's guarantee).
#[test]
fn tpftl_at_most_one_read_and_update_per_translation() {
    for case in 0..32u64 {
        let mut rng = Rng64::seed_from_u64(0xA7F0 + case);
        let accesses = accesses(&mut rng, 30, 150);

        let mut config = SsdConfig::paper_default(8 << 20);
        config.cache_bytes = config.gtd_bytes() + 256;
        let logical_pages = config.logical_pages() as u32;
        let mut env = SsdEnv::new(config.clone()).expect("env");
        let mut ftl = TpFtl::new(&config, TpftlConfig::full()).expect("ftl");
        driver::bootstrap(&mut ftl, &mut env).expect("bootstrap");

        for a in &accesses {
            let lpn = a.lpn_seed % logical_pages;
            let before_r = env
                .flash()
                .stats()
                .of(tpftl_flash::OpPurpose::Translation)
                .reads;
            let before_w = env
                .flash()
                .stats()
                .of(tpftl_flash::OpPurpose::Translation)
                .writes;
            let _ = ftl
                .translate(
                    &mut env,
                    lpn,
                    &AccessCtx {
                        is_write: a.write,
                        remaining_in_request: a.len,
                    },
                )
                .expect("translate");
            let dr = env
                .flash()
                .stats()
                .of(tpftl_flash::OpPurpose::Translation)
                .reads
                - before_r;
            let dw = env
                .flash()
                .stats()
                .of(tpftl_flash::OpPurpose::Translation)
                .writes
                - before_w;
            assert!(
                dr <= 2,
                "case {case}: one load plus at most one writeback read, got {dr}"
            );
            assert!(
                dw <= 1,
                "case {case}: at most one translation update, got {dw}"
            );
        }
    }
}
