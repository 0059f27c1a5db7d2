//! Pins the host memory a fresh device costs (DESIGN.md, *Slab-backed
//! translation payloads*).
//!
//! This binary installs a global allocator that tracks live heap bytes on
//! the calling thread. It builds and formats the 16 GB MSR device (the
//! `SsdEnv`: flash model, block manager, GTD) and asserts that what stays
//! allocated is at most 10 bytes per physical page. The flash model keeps 9
//! per page (state 1, tag 4, sequence stamp 4); per-block state (~62 B per
//! 64-page block, the flash model's and the block manager's) takes most of
//! the last byte. Formatting binds all 4 096 translation pages to one
//! shared all-unmapped payload, so it adds almost nothing. With 8-byte
//! stamps, a dense 4-byte `Ppn -> slot` index and a 4 KiB payload per
//! formatted page the same device held 17 bytes per page plus 16 MiB. The
//! FTL is built beside it and not counted: its tables follow the mapping
//! cache budget, not the device.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

use tpftl_core::env::SsdEnv;
use tpftl_core::SsdConfig;

struct Tracking;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn track(delta: i64) {
    if ARMED.with(Cell::get) {
        LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed counter update,
// and the thread-local it reads is const-initialised and has no
// destructor, so reading it never allocates or runs after thread teardown.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

#[test]
fn a_formatted_16_gb_device_holds_at_most_10_bytes_per_physical_page() {
    let config = SsdConfig::paper_default(16 << 30);
    let pages = config.geometry().total_pages();
    ARMED.set(true);
    let mut env = SsdEnv::new(config.clone()).expect("env");
    env.format().expect("format");
    ARMED.set(false);
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    let per_page = live as f64 / pages as f64;
    println!("{live} live bytes over {pages} physical pages: {per_page:.2} B per page");
    assert_eq!(
        env.gtd().iter_present().count(),
        config.num_vtpns() as usize
    );
    let census = env.flash().translation_store_census();
    assert_eq!(census.shared, config.num_vtpns() as usize);
    assert_eq!(census.slots, 0, "formatting took no private slot");
    assert!(per_page <= 10.0, "{per_page:.2} B per physical page");
}
