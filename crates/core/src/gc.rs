//! Garbage collection (Section 2/3.1 of the paper).
//!
//! A GC operation performs the paper's three steps: (1) pick a sealed
//! victim block — its class first, data or translation (a translation
//! block only at a third of the data head's valid pages), then within the
//! class the one with the fewest valid pages under the paper's greedy
//! policy, the best cost-benefit score among the `window` fewest under
//! [`GcPolicy::Windowed`](crate::config::GcPolicy), the default wherever
//! a pass spans more than one block;
//! (2) migrate the remaining valid pages; (3) erase the block as soon as
//! no page of it is valid. The collector is a free function generic over
//! [`Ftl`] so that the FTL and the environment can be borrowed
//! simultaneously without cycles.
//!
//! [`ensure_free`] is the collector's one entry point, and the unit of
//! mapping write-back is its *pass*: every victim one call collects. A
//! migrated translation page updates the GTD at once; a migrated data
//! page's new location joins the pass's list of moves, and after the
//! pass's last erase the FTL takes the whole list in one
//! [`Ftl::on_gc_data_block`] call, which absorbs the entries its cache
//! holds and writes the rest back once per translation page the pass
//! touched. The victims of one pass keep hitting the same translation
//! pages, so one write carries what per-victim write-backs spread over
//! several (DESIGN.md §9).
//!
//! A pass runs from below the low watermark up to the high one, as the
//! configuration stores them, so the gap between them sets its length.
//! `SsdConfig::default_gc` derives it from the geometry: one
//! block where the device has fewer translation pages than a block has
//! pages, else up to 32 blocks, and never fewer than the translation
//! pages fill, so each write-back carries the moves of several victims
//! and the pool a pass ends with leaves the next one its slack. On
//! Financial1 a long pass also finds emptier data victims, hot blocks
//! that had time to decay since the last pass (DESIGN.md §16), and its
//! derived pick weighs their age (DESIGN.md §15). A long
//! pass does not hold the host up: it runs in the idle lane described
//! below, and host ops overtake it. Its moves wait in memory the mapping
//! cache's budget does not count (`GcStats::moves_peak`).
//!
//! Every flash op of a pass — migration reads and programs, the erases,
//! the FTL's GC-miss write-backs — goes to the unit clocks' background
//! lane (`tpftl_flash::UnitClocks`): it happens now in device state and
//! counters, but runs in simulated time in the device's idle gaps, and a
//! host program waits for it only to reuse an erased block.

use tpftl_flash::{Lpn, OpPurpose, Ppn, Vtpn};

use crate::blockmgr::AllocClass;
use crate::env::SsdEnv;
use crate::ftl::Ftl;
use crate::{FtlError, Result};

/// Runs GC until the free pool reaches the high watermark, if it has
/// dropped below the low one, as one collection pass; the watermarks are
/// the configuration's `gc_low_blocks` and `gc_high_blocks`, as stored.
/// Call before serving each page access.
///
/// # Errors
///
/// [`FtlError::DeviceFull`] when the pool is empty and nothing sealed is
/// reclaimable. With blocks left the loop just stops short: the device's
/// spare pages then sit in the open blocks — four of them with one
/// stream, a large share of a small device's over-provisioning — and
/// collecting resumes once the host has made garbage.
pub fn ensure_free<F: Ftl + ?Sized>(ftl: &mut F, env: &mut SsdEnv) -> Result<()> {
    let (low, high) = (env.config().gc_low_blocks, env.config().gc_high_blocks);
    if env.free_blocks() >= low {
        return Ok(());
    }
    collect_pass(ftl, env, |env, moved| {
        while env.free_blocks() < high {
            match collect_victim(env, moved) {
                Err(FtlError::DeviceFull) if env.free_blocks() > 0 => break,
                res => res?,
            }
        }
        Ok(())
    })
}

/// Collects exactly one victim block, a pass of one: for unit tests that
/// need one victim whatever the watermarks.
///
/// # Errors
///
/// [`FtlError::DeviceFull`] when no sealed block has a reclaimable page.
#[cfg(test)]
pub(crate) fn collect_one<F: Ftl + ?Sized>(ftl: &mut F, env: &mut SsdEnv) -> Result<()> {
    collect_pass(ftl, env, collect_victim)
}

/// Runs `reclaim` with every flash op it issues sent to the unit clocks'
/// background lane (see the module doc): how the page-level collector
/// runs each collection pass.
pub(crate) fn in_background<R>(env: &mut SsdEnv, reclaim: impl FnOnce(&mut SsdEnv) -> R) -> R {
    env.flash.sim_background(true);
    let res = reclaim(env);
    env.flash.sim_background(false);
    res
}

/// One collection pass: `collect` migrates and erases victims, appending
/// every data page it moves to the pass's `(lpn, new_ppn)` list, and then
/// the FTL takes the whole list in one [`Ftl::on_gc_data_block`] call —
/// also when `collect` stopped on an error, since the moved pages' old
/// copies are gone either way. The first error is returned.
fn collect_pass<F: Ftl + ?Sized>(
    ftl: &mut F,
    env: &mut SsdEnv,
    collect: impl FnOnce(&mut SsdEnv, &mut Vec<(Lpn, Ppn)>) -> Result<()>,
) -> Result<()> {
    // The list is the environment's scratch (taken here, put back below),
    // as are the victim scans and the FTL's miss buffer and write-back
    // batcher, so a steady-state pass performs no heap allocation
    // (`tests/gc_alloc.rs` counts them).
    let mut moved = std::mem::take(&mut env.gc_moved_scratch);
    moved.clear();
    env.gc_stats.passes += 1;
    let res = in_background(env, |env| {
        let collected = collect(env, &mut moved);
        let peak = &mut env.gc_stats.moves_peak;
        *peak = (*peak).max(moved.len() as u64);
        if moved.is_empty() {
            return collected;
        }
        // Cache hits are absorbed (and deferred as dirty entries); misses
        // are written back, once per translation page the pass touched.
        let absorbed = ftl.on_gc_data_block(env, &moved).map(|hits| {
            env.stats.gc_updates += moved.len() as u64;
            env.stats.gc_hits += hits;
        });
        collected.and(absorbed)
    });
    env.gc_moved_scratch = moved;
    res
}

/// Picks one victim and reclaims it, appending a data victim's moves to
/// `moved`.
fn collect_victim(env: &mut SsdEnv, moved: &mut Vec<(Lpn, Ppn)>) -> Result<()> {
    let policy = env.config().gc_policy;
    let (victim, class) = env.blocks.pick_victim(policy).ok_or(FtlError::DeviceFull)?;
    // Both classes tag their pages with a `u32` (an LPN or a VTPN), so
    // they share the one scratch list.
    let mut valid = std::mem::take(&mut env.gc_page_scratch);
    let res = match class {
        AllocClass::Data => migrate_data_pages(env, victim, &mut valid, moved),
        AllocClass::Translation => migrate_translation_pages(env, victim, &mut valid),
    };
    env.gc_page_scratch = valid;
    res
}

fn migrate_data_pages(
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
    for &(old_ppn, lpn) in valid.iter() {
        env.flash.read_page(old_ppn, OpPurpose::GcData)?;
        let new_ppn = env.program_data_page(lpn, OpPurpose::GcData)?;
        env.invalidate_page(old_ppn)?;
        moved.push((lpn, new_ppn));
    }

    // The victim holds nothing valid now. Its mapping updates wait for the
    // end of the pass, so the pass's erases give the pool their blocks
    // back before the write-backs may open a lane translation block.
    env.flash.erase_block(victim, OpPurpose::GcData)?;
    env.blocks.on_erased(victim);
    Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftl::{AccessCtx, Dftl};
    use crate::{driver, recovery, SsdConfig};
    use tpftl_flash::PageState;

    /// A pass that collects one victim and then finds every other sealed
    /// block fully valid stops on `DeviceFull` with free blocks left, below
    /// its high watermark; the moves it made before it stopped still reach
    /// the mapping.
    #[test]
    fn a_pass_stopped_by_device_full_keeps_its_moves() {
        let mut config = SsdConfig::paper_default(8 << 20);
        config.prefill_frac = 1.0;
        // Watermarks no pass on this device reaches.
        let blocks = config.geometry().num_blocks;
        (config.gc_low_blocks, config.gc_high_blocks) = (blocks, blocks + 1);
        let mut env = SsdEnv::new(config.clone()).unwrap();
        let mut ftl = Dftl::new(&config).unwrap();
        driver::bootstrap(&mut ftl, &mut env).unwrap();
        // Overwrite the first 16 LPNs without collecting: the block the
        // prefill put them in is the only one with garbage.
        for lpn in 0..16 {
            let ctx = AccessCtx::single(true);
            let old = ftl
                .translate(&mut env, lpn, &ctx)
                .unwrap()
                .expect("prefilled");
            let new = env.program_data_page(lpn, OpPurpose::HostData).unwrap();
            env.invalidate_page(old).unwrap();
            ftl.update_mapping(&mut env, lpn, new).unwrap();
        }
        ensure_free(&mut ftl, &mut env).unwrap();
        let free = env.free_blocks();
        assert!(
            0 < free && free < config.gc_high_blocks,
            "{free} free blocks"
        );
        // Every LPN resolves, cached or persisted, to the page holding it.
        for lpn in 0..config.logical_pages() as Lpn {
            let cached = ftl.peek_cached(&env, lpn).unwrap();
            let ppn = cached
                .unwrap_or_else(|| recovery::lookup(&env, lpn))
                .expect("mapped");
            let at = (env.flash().state(ppn), env.flash().tag(ppn));
            assert_eq!(at, (Ok(PageState::Valid), Ok(lpn)), "LPN {lpn} at {ppn}");
        }
        assert_eq!(env.gc_stats.data_victims, 1);
        assert_eq!(env.stats.gc_updates, 64 - 16);
        // The pass held all of them until its write-back.
        assert_eq!(env.gc_stats.moves_peak, 64 - 16);
    }
}
