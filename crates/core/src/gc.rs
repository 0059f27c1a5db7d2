//! Garbage collection (Section 2/3.1 of the paper).
//!
//! A GC operation performs the paper's three steps: (1) pick a sealed
//! victim block, data or translation — the one with the fewest valid pages
//! under the paper's greedy policy, the best cost-benefit score among the
//! `window` fewest under [`GcPolicy::Windowed`](crate::config::GcPolicy);
//! (2) migrate the remaining valid pages, updating their mapping entries
//! (through the FTL, which decides GC hit vs. batched flash update) or the
//! GTD; (3) erase the block — a data victim as soon as no page of it is
//! valid, before its mapping entries are written back. The collector is a
//! free function generic over [`Ftl`] so that the FTL and the environment
//! can be borrowed simultaneously without cycles.
//!
//! Every flash op of a collection — migration reads and programs, the
//! FTL's GC-miss write-backs, the erase — goes to the unit clocks'
//! background lane (`tpftl_flash::UnitClocks`): it happens now in device
//! state and counters, but runs in simulated time in the device's idle
//! gaps, and a host program waits for it only to reuse the erased block.

use tpftl_flash::{Lpn, OpPurpose, Ppn, Vtpn};

use crate::blockmgr::AllocClass;
use crate::env::SsdEnv;
use crate::ftl::Ftl;
use crate::{FtlError, Result};

/// The fewest free blocks a page access may find without collecting
/// first: the access may take two (its stream's open block and the host's
/// translation block), the collection after it one before its erase
/// returns one, and a collection that opens both of the lane's blocks
/// takes one more than it returns, which the next one must still find
/// (DESIGN.md §16, *The free-pool slack*).
const MIN_LOW_BLOCKS: usize = 4;

/// The free-pool watermarks GC keeps, `(start below, stop at)`: the
/// configured pair, shifted up by as much as leaves the low one at four
/// or more (`MIN_LOW_BLOCKS`; DESIGN.md §16).
pub fn watermarks(env: &SsdEnv) -> (usize, usize) {
    let config = env.config();
    let slack = MIN_LOW_BLOCKS.saturating_sub(config.gc_low_blocks);
    (config.gc_low_blocks + slack, config.gc_high_blocks + slack)
}

/// Runs GC until the free pool reaches the high watermark, if it has
/// dropped below the low one (see [`watermarks`]). Call before serving
/// each page access.
///
/// # Errors
///
/// [`FtlError::DeviceFull`] when the pool is empty and nothing sealed is
/// reclaimable. With blocks left the loop just stops short: the device's
/// spare pages then sit in the open blocks — four of them with one
/// stream, a large share of a small device's over-provisioning — and
/// collecting resumes once the host has made garbage.
pub fn ensure_free<F: Ftl + ?Sized>(ftl: &mut F, env: &mut SsdEnv) -> Result<()> {
    let (low, high) = watermarks(env);
    if env.free_blocks() >= low {
        return Ok(());
    }
    while env.free_blocks() < high {
        match collect_one(ftl, env) {
            Err(FtlError::DeviceFull) if env.free_blocks() > 0 => break,
            res => res?,
        }
    }
    Ok(())
}

/// Collects exactly one victim block.
///
/// # Errors
///
/// [`FtlError::DeviceFull`] when no sealed block has a reclaimable page.
pub fn collect_one<F: Ftl + ?Sized>(ftl: &mut F, env: &mut SsdEnv) -> Result<()> {
    let policy = env.config().gc_policy;
    let (victim, class) = env.blocks.pick_victim(policy).ok_or(FtlError::DeviceFull)?;
    in_background(env, |env| match class {
        AllocClass::Data => collect_data_block(ftl, env, victim),
        AllocClass::Translation => collect_translation_block(env, victim),
    })
}

/// Runs `reclaim` with every flash op it issues sent to the unit clocks'
/// background lane (see the module doc): how the page-level collector
/// runs each collection.
pub(crate) fn in_background<R>(env: &mut SsdEnv, reclaim: impl FnOnce(&mut SsdEnv) -> R) -> R {
    env.flash.sim_background(true);
    let res = reclaim(env);
    env.flash.sim_background(false);
    res
}

fn collect_data_block<F: Ftl + ?Sized>(
    ftl: &mut F,
    env: &mut SsdEnv,
    victim: tpftl_flash::BlockId,
) -> Result<()> {
    // Victim scans reuse the environment's scratch buffers (taken here, put
    // back below), as do the FTL's miss buffer and write-back batcher, so a
    // steady-state GC pass performs no heap allocation
    // (`tests/gc_alloc.rs` counts them).
    let mut valid = std::mem::take(&mut env.gc_page_scratch);
    let mut moved = std::mem::take(&mut env.gc_moved_scratch);
    let res = migrate_data_pages(ftl, env, victim, &mut valid, &mut moved);
    env.gc_page_scratch = valid;
    env.gc_moved_scratch = moved;
    res
}

fn migrate_data_pages<F: Ftl + ?Sized>(
    ftl: &mut F,
    env: &mut SsdEnv,
    victim: tpftl_flash::BlockId,
    valid: &mut Vec<(Ppn, Lpn)>,
    moved: &mut Vec<(Lpn, Ppn)>,
) -> Result<()> {
    valid.clear();
    valid.extend(env.flash.valid_pages(victim));
    env.gc_stats.data_victims += 1;
    env.gc_stats.data_pages_migrated += valid.len() as u64;

    // In the lane each program follows its read, and the erase follows
    // every migration (no instant where a page's data exists nowhere).
    moved.clear();
    for &(old_ppn, lpn) in valid.iter() {
        env.flash.read_page(old_ppn, OpPurpose::GcData)?;
        let new_ppn = env.program_data_page(lpn, OpPurpose::GcData)?;
        env.invalidate_page(old_ppn)?;
        moved.push((lpn, new_ppn));
    }

    // The victim holds nothing valid now: erasing it before the mapping
    // write-backs gives the pool its block back before they may open a
    // lane translation block, so a collection never holds two fresh
    // blocks at once.
    env.flash.erase_block(victim, OpPurpose::GcData)?;
    env.blocks.on_erased(victim);

    // Mapping updates: cache hits are absorbed (and deferred as dirty
    // entries); misses are written back to translation pages by the FTL.
    let hits = ftl.on_gc_data_block(env, moved)?;
    env.stats.gc_updates += moved.len() as u64;
    env.stats.gc_hits += hits;
    Ok(())
}

fn collect_translation_block(env: &mut SsdEnv, victim: tpftl_flash::BlockId) -> Result<()> {
    let mut valid = std::mem::take(&mut env.gc_page_scratch);
    let res = migrate_translation_pages(env, victim, &mut valid);
    env.gc_page_scratch = valid;
    res
}

fn migrate_translation_pages(
    env: &mut SsdEnv,
    victim: tpftl_flash::BlockId,
    valid: &mut Vec<(Ppn, Vtpn)>,
) -> Result<()> {
    valid.clear();
    valid.extend(env.flash.valid_pages(victim));
    env.gc_stats.trans_victims += 1;
    env.gc_stats.trans_pages_migrated += valid.len() as u64;

    for &(old_ppn, vtpn) in valid.iter() {
        // Accounts the migration read and validates the source page.
        env.flash.read_page(old_ppn, OpPurpose::GcTranslation)?;
        // The original is retired only by the program that replaces it, so
        // a power loss mid-migration never leaves the table without a valid
        // copy of this translation page. The payload is not copied: its slab
        // slot moves to the new page inside the flash model.
        env.supersede_translation_page(vtpn, old_ppn, &[], OpPurpose::GcTranslation)?;
    }

    env.flash.erase_block(victim, OpPurpose::GcTranslation)?;
    env.blocks.on_erased(victim);
    Ok(())
}
