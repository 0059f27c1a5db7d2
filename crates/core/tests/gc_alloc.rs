//! Pins "a steady-state GC pass performs no heap allocation" (DESIGN.md §9).
//!
//! This binary installs a counting global allocator. A small, fully
//! pre-filled device is aged with random overwrites until garbage
//! collection is steady; from then on every collection pass
//! (`gc::ensure_free`) runs with the counter armed (for the calling thread
//! only, so the harness's other threads cannot leak in) and not one of
//! them may allocate, under TPFTL, DFTL and LearnedFTL (whose GC
//! write-backs, like TPFTL's, append the region's dirty entries to the
//! batcher's scratch batch).
//!
//! Why none: a collection's buffers are the environment's scratch vectors,
//! which stop growing during the warm-up; translation payloads move by
//! re-binding their slab slot; the victim index is bitsets; and the block
//! manager's `wear_index` — a `BTreeSet`, which allocates a node on some
//! inserts (0.06 allocations per victim under TPFTL, 0.03 under DFTL, when
//! every policy kept one) — is not built by a single-stream manager, whose
//! pick never reads it. Each FTL runs twice: under the greedy pick this
//! device derives and under the 64-wide window the devices with longer
//! passes derive. Before the write-back batcher grouped its updates in
//! scratch (now a counting sort by translation page into buffers the
//! environment sizes once) it built a `BTreeMap` of `Vec`s per data
//! victim: 13 or more allocations each on the 512 MB Financial1 cell, and a mean of 20.0 per
//! victim (data and translation) on this device.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use tpftl_core::config::GcPolicy;
use tpftl_core::env::SsdEnv;
use tpftl_core::ftl::FtlKind;
use tpftl_core::{driver, gc, SsdConfig};
use tpftl_rng::Rng64;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed counter bump, and
// the thread-local it reads is const-initialised and has no destructor, so
// reading it never allocates or runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP_WRITES: u32 = 60_000;
const MEASURED_VICTIMS: u64 = 1_500;

/// Mean allocations per collected victim (data and translation victims as
/// they come) once GC is steady, and the number of data victims among them.
fn allocations_per_victim(kind: FtlKind, policy: GcPolicy) -> (f64, u64) {
    let mut config = SsdConfig::paper_default(64 << 20);
    config.prefill_frac = 1.0;
    config.gc_policy = policy;
    // Room for a few hundred entries: most migrated pages miss the cache
    // and go through the write-back batcher.
    config.cache_bytes = config.gtd_bytes() + 4 * 1024;
    let pages = config.logical_pages() as u32;
    let mut env = SsdEnv::new(config.clone()).expect("env");
    let mut ftl = kind.build(&config).expect("budget fits");
    driver::bootstrap(ftl.as_mut(), &mut env).expect("bootstrap");

    let mut rng = Rng64::seed_from_u64(0xA110C);
    let mut victims = 0u64;
    let mut writes = 0u32;
    while victims < MEASURED_VICTIMS {
        // `gc::ensure_free`, run here so the counter brackets each
        // collection pass; the driver's own call then finds nothing to do.
        let measured = writes > WARM_UP_WRITES;
        let collected = |env: &SsdEnv| env.gc_stats.data_victims + env.gc_stats.trans_victims;
        let before = collected(&env);
        ARMED.set(measured);
        let res = gc::ensure_free(ftl.as_mut(), &mut env);
        ARMED.set(false);
        res.expect("collect");
        if measured {
            victims += collected(&env) - before;
        }
        if writes == WARM_UP_WRITES {
            env.reset_stats();
        }
        driver::serve_request(ftl.as_mut(), &mut env, rng.range_u32(0, pages), 1, true)
            .expect("write");
        writes += 1;
    }
    let gc = &env.gc_stats;
    assert!(
        gc.data_victims + gc.trans_victims >= MEASURED_VICTIMS,
        "every measured victim went through the bracketed call"
    );
    assert!(
        env.stats.gc_updates > env.stats.gc_hits,
        "the batcher must have seen GC misses"
    );
    let mean = ALLOCATIONS.swap(0, Ordering::Relaxed) as f64 / victims as f64;
    (mean, gc.data_victims)
}

#[test]
fn steady_state_gc_allocates_less_than_once_per_victim() {
    // One test function: the counter is global, the arming per thread.
    let policies = [GcPolicy::Greedy, GcPolicy::Windowed { window: 64 }];
    for (kind, policy) in [FtlKind::Tpftl, FtlKind::Dftl, FtlKind::Learned]
        .into_iter()
        .flat_map(|kind| policies.map(|policy| (kind, policy)))
    {
        let (mean, data_victims) = allocations_per_victim(kind, policy);
        let label = kind.label();
        println!(
            "{label}, {policy:?}: {mean:.3} allocations per victim ({data_victims} data victims)"
        );
        assert!(data_victims >= MEASURED_VICTIMS / 4, "{label}, {policy:?}");
        assert!(
            mean == 0.0,
            "{label}, {policy:?}: {mean:.3} allocations per GC victim"
        );
    }
}
