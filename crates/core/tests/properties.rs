//! Randomized model tests over the FTL framework.
//!
//! * `LruList` against a `VecDeque` reference model.
//! * Every FTL against the simulation tester's shadow (`tpftl_sim::tester`),
//!   with the axes each test pins.
//! * TPFTL's one-read-one-update bound per translation.
//!
//! The generators are driven by the in-tree seeded PRNG (`tpftl-rng`) —
//! proptest is unavailable offline — so every case is identified by its
//! seed and replays deterministically. Failures print the seed.

use std::collections::VecDeque;

use tpftl_core::driver;
use tpftl_core::env::SsdEnv;
use tpftl_core::ftl::{AccessCtx, Ftl, TpFtl, TpftlConfig};
use tpftl_core::lru::LruList;
use tpftl_core::SsdConfig;
use tpftl_flash::OpPurpose;
use tpftl_rng::Rng64;
use tpftl_sim::tester::{check, Case};

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

/// Every FTL, the small ZFTL among them, against the tester's shadow:
/// resolved mappings point at the one valid page holding the LPN,
/// unwritten LPNs own none, and the cache budget holds.
#[test]
fn ftl_mapping_matches_flash_oracle() {
    let ftls = "optimal dftl sftl cdftl zftl:4 tpftl tpftl:- tpftl:b tpftl:rs";
    for (ftl, prefill) in ftls.split(' ').flat_map(|f| [(f, 0.0), (f, 0.6)]) {
        let mut case = Case::plain(0xF71);
        (case.ftl, case.prefill) = (ftl, prefill);
        check(&case);
    }
}

// ---- TPFTL-specific invariants ------------------------------------------------

/// The cache budget holds at every probe, for small budgets and multi-page
/// requests (the invariant a make-room / insert mismatch breaks: the
/// eviction pass can dismantle the target TP node).
#[test]
fn tpftl_budget_invariant_under_prefetching() {
    let mut base = Case::plain(0xB4D6);
    base.sectors = 32.0;
    for ftl in ["tpftl", "tpftl:rs", "tpftl:r", "tpftl:-"] {
        for cache in [64, 256, 2048] {
            check(&Case { ftl, cache, ..base });
        }
    }
}

/// One address translation performs at most one translation-page read
/// and at most one translation-page write (Section 4.5's guarantee).
#[test]
fn tpftl_at_most_one_read_and_update_per_translation() {
    for case in 0..32u64 {
        let mut rng = Rng64::seed_from_u64(0xA7F0 + case);
        let accesses = rng.range_usize(30, 150);

        let mut config = SsdConfig::paper_default(8 << 20);
        config.cache_bytes = config.gtd_bytes() + 256;
        let logical_pages = config.logical_pages() as u32;
        let mut env = SsdEnv::new(config.clone()).expect("env");
        let mut ftl = TpFtl::new(&config, TpftlConfig::full()).expect("ftl");
        driver::bootstrap(&mut ftl, &mut env).expect("bootstrap");

        let io = |env: &SsdEnv| *env.flash().stats().of(OpPurpose::Translation);
        for _ in 0..accesses {
            let lpn_seed = rng.next_u64() as u32;
            let (len, write) = (rng.range_u32(1, 6), rng.gen_bool(0.5));
            let before = io(&env);
            let ctx = AccessCtx {
                is_write: write,
                remaining_in_request: len,
            };
            let _ = ftl
                .translate(&mut env, lpn_seed % logical_pages, &ctx)
                .expect("translate");
            let dr = io(&env).reads - before.reads;
            let dw = io(&env).writes - before.writes;
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
