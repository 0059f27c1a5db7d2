//! A coarse block-level FTL (Section 2.1 of the paper).
//!
//! Block-level mapping keeps one RAM entry per 256 KB logical block; a page
//! can only live at the fixed offset `lpn % pages_per_block` inside its
//! mapped physical block. Overwriting an already-programmed offset forces a
//! *merge*: copy every valid page of the block (with the new data) into a
//! fresh block and erase the old one — the "very poor performance as a
//! result of maintaining such a rigid mapping regularity" the paper
//! describes. The paper does not evaluate this FTL; it uses its mapping
//! table size (4 B per block) to dimension the mapping cache, which
//! [`crate::SsdConfig::block_table_bytes`] reproduces. We implement it as a
//! working extension and comparison point.

use tpftl_flash::{BlockId, Lpn, OpPurpose, PageState, Ppn};

use crate::env::SsdEnv;
use crate::ftl::{AccessCtx, Ftl, TpDistEntry};
use crate::{gc, Result, SsdConfig};

/// The block-level FTL.
pub struct BlockLevelFtl {
    /// `lbn -> physical block`.
    map: Vec<Option<BlockId>>,
    pages_per_block: usize,
    /// Merges performed (the block-level FTL's "GC" metric).
    merges: u64,
}

impl BlockLevelFtl {
    /// Creates the FTL for `config`'s logical size.
    ///
    /// Pre-fill is not supported: the sequential pre-fill allocator packs
    /// pages without respecting block-fixed offsets.
    pub fn new(config: &SsdConfig) -> Self {
        let geom = config.geometry();
        let logical_blocks = (config.logical_bytes / geom.block_bytes() as u64) as usize;
        assert!(
            config.prefill_frac == 0.0,
            "the block-level FTL does not support pre-fill"
        );
        Self {
            map: vec![None; logical_blocks],
            pages_per_block: geom.pages_per_block,
            merges: 0,
        }
    }

    /// Number of full-block merges performed.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    fn split(&self, lpn: Lpn) -> (usize, usize) {
        (
            (lpn as usize) / self.pages_per_block,
            (lpn as usize) % self.pages_per_block,
        )
    }

    fn ppn_at(&self, env: &SsdEnv, pbn: BlockId, off: usize) -> Ppn {
        env.flash().geometry().first_ppn(pbn) + off as u32
    }

    /// Merge: rewrite the block with `lpn`'s new data at its fixed offset,
    /// carrying over every other valid page, then erase and free the old
    /// block.
    ///
    /// A block's pages are programmed in order, so the copies below `lpn`'s
    /// offset precede its program in the host's request; the copies above
    /// it and the erase only reclaim space, and run in the device's idle
    /// time like page-level GC ([`gc::in_background`]).
    fn merge_write(&mut self, env: &mut SsdEnv, lpn: Lpn, old_pbn: BlockId) -> Result<()> {
        self.merges += 1;
        let (lbn, off) = self.split(lpn);
        let new_pbn = env.blocks.take_raw_block()?;
        for i in 0..off {
            self.copy_page(env, lbn, old_pbn, new_pbn, i)?;
        }
        let src = self.ppn_at(env, old_pbn, off);
        let dst = self.ppn_at(env, new_pbn, off);
        env.flash.program_page_at(dst, lpn, OpPurpose::HostData)?;
        if env.flash.state(src)? == PageState::Valid {
            env.flash.invalidate(src)?;
        }
        gc::in_background(env, |env| -> Result<()> {
            for i in off + 1..self.pages_per_block {
                self.copy_page(env, lbn, old_pbn, new_pbn, i)?;
            }
            env.flash.erase_block(old_pbn, OpPurpose::GcData)?;
            Ok(())
        })?;
        env.blocks.release_raw_block(old_pbn);
        self.map[lbn] = Some(new_pbn);
        Ok(())
    }

    /// Copies offset `i` of logical block `lbn` from `old_pbn` to
    /// `new_pbn`, if it holds a valid page.
    fn copy_page(
        &self,
        env: &mut SsdEnv,
        lbn: usize,
        old_pbn: BlockId,
        new_pbn: BlockId,
        i: usize,
    ) -> Result<()> {
        let src = self.ppn_at(env, old_pbn, i);
        if env.flash.state(src)? == PageState::Valid {
            let copied_lpn = (lbn * self.pages_per_block + i) as Lpn;
            let dst = self.ppn_at(env, new_pbn, i);
            env.flash.read_page(src, OpPurpose::GcData)?;
            env.flash
                .program_page_at(dst, copied_lpn, OpPurpose::GcData)?;
            env.flash.invalidate(src)?;
        }
        Ok(())
    }
}

impl Ftl for BlockLevelFtl {
    fn name(&self) -> String {
        "BlockLevel".to_string()
    }

    fn translate(&mut self, env: &mut SsdEnv, lpn: Lpn, _ctx: &AccessCtx) -> Result<Option<Ppn>> {
        env.note_lookup(true); // The whole table is in RAM.
        let (lbn, off) = self.split(lpn);
        let Some(pbn) = self.map[lbn] else {
            return Ok(None);
        };
        let ppn = self.ppn_at(env, pbn, off);
        Ok((env.flash().state(ppn)? == PageState::Valid).then_some(ppn))
    }

    fn write_page(&mut self, env: &mut SsdEnv, lpn: Lpn, _ctx: &AccessCtx) -> Result<()> {
        env.note_lookup(true);
        env.stats.user_page_writes += 1;
        let (lbn, off) = self.split(lpn);
        match self.map[lbn] {
            None => {
                let pbn = env.blocks.take_raw_block()?;
                let dst = self.ppn_at(env, pbn, off);
                env.flash.program_page_at(dst, lpn, OpPurpose::HostData)?;
                self.map[lbn] = Some(pbn);
                Ok(())
            }
            Some(pbn) => {
                let dst = self.ppn_at(env, pbn, off);
                // Program in place if the offset is still reachable by the
                // block's write pointer; otherwise merge.
                let reachable = env.flash.next_free_ppn(pbn).is_some_and(|next| dst >= next);
                if reachable && env.flash.state(dst)? == PageState::Free {
                    env.flash.program_page_at(dst, lpn, OpPurpose::HostData)?;
                    Ok(())
                } else {
                    self.merge_write(env, lpn, pbn)
                }
            }
        }
    }

    fn update_mapping(&mut self, _env: &mut SsdEnv, _lpn: Lpn, _new_ppn: Ppn) -> Result<()> {
        unreachable!("block-level FTL handles writes in write_page")
    }

    fn on_gc_data_block(&mut self, _env: &mut SsdEnv, _moved: &[(Lpn, Ppn)]) -> Result<u64> {
        unreachable!("block-level FTL reclaims space via merges, not page-level GC")
    }

    fn uses_translation_pages(&self) -> bool {
        false
    }

    fn uses_page_level_gc(&self) -> bool {
        false
    }

    fn cache_bytes_used(&self) -> usize {
        self.map.len() * 4
    }

    fn cached_entries(&self) -> usize {
        self.map.iter().filter(|m| m.is_some()).count()
    }

    fn cached_tp_distribution(&self) -> Vec<TpDistEntry> {
        Vec::new() // No translation pages exist.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver;
    use crate::SsdConfig;

    fn setup() -> (BlockLevelFtl, SsdEnv) {
        let config = SsdConfig::paper_default(8 << 20);
        let mut env = SsdEnv::new(config.clone()).unwrap();
        let mut ftl = BlockLevelFtl::new(&config);
        driver::bootstrap(&mut ftl, &mut env).unwrap();
        (ftl, env)
    }

    #[test]
    fn table_size_matches_paper_rule() {
        let config = SsdConfig::paper_default(512 << 20);
        let ftl = BlockLevelFtl::new(&config);
        assert_eq!(ftl.cache_bytes_used(), config.block_table_bytes());
        assert_eq!(ftl.cache_bytes_used(), 8 * 1024);
    }

    #[test]
    fn sequential_writes_fill_block_in_place() {
        let (mut ftl, mut env) = setup();
        for lpn in 0..64u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(true)).unwrap();
        }
        assert_eq!(ftl.merges(), 0, "in-order fill needs no merge");
        assert_eq!(env.flash().stats().total_writes(), 64);
        for lpn in 0..64u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(false)).unwrap();
        }
    }

    #[test]
    fn overwrite_forces_merge() {
        let (mut ftl, mut env) = setup();
        for lpn in 0..64u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(true)).unwrap();
        }
        let writes = env.flash().stats().total_writes();
        let (frontier, queued) = (
            env.flash().sim_frontier_us(),
            env.flash().clocks().lane_queued(),
        );
        // Overwrite one page: merge copies the 63 others + the new page.
        driver::serve_page_access(&mut ftl, &mut env, 10, AccessCtx::single(true)).unwrap();
        assert_eq!(ftl.merges(), 1);
        assert_eq!(env.flash().stats().total_writes(), writes + 64);
        assert_eq!(env.flash().stats().total_erases(), 1);
        // The ten copies below offset 10 and the host's page run in front
        // of the request; the 53 copies above it and the erase wait in the
        // background lane.
        let geom = env.flash().geometry();
        let copy_us = geom.read_us + geom.write_us;
        assert_eq!(
            env.flash().sim_frontier_us(),
            frontier + 10.0 * copy_us + geom.write_us
        );
        assert_eq!(env.flash().clocks().lane_queued(), queued + 53 * 2 + 1);
        // All data still readable.
        for lpn in 0..64u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(false)).unwrap();
        }
    }

    #[test]
    fn backward_write_within_block_merges() {
        let (mut ftl, mut env) = setup();
        driver::serve_page_access(&mut ftl, &mut env, 10, AccessCtx::single(true)).unwrap();
        // Offset 5 is behind the write pointer: merge.
        driver::serve_page_access(&mut ftl, &mut env, 5, AccessCtx::single(true)).unwrap();
        assert_eq!(ftl.merges(), 1);
        driver::serve_page_access(&mut ftl, &mut env, 10, AccessCtx::single(false)).unwrap();
        driver::serve_page_access(&mut ftl, &mut env, 5, AccessCtx::single(false)).unwrap();
    }

    #[test]
    fn forward_skip_within_block_avoids_merge() {
        let (mut ftl, mut env) = setup();
        driver::serve_page_access(&mut ftl, &mut env, 5, AccessCtx::single(true)).unwrap();
        driver::serve_page_access(&mut ftl, &mut env, 20, AccessCtx::single(true)).unwrap();
        assert_eq!(ftl.merges(), 0);
        // The skipped pages read as unmapped.
        let r = ftl
            .translate(&mut env, 7, &AccessCtx::single(false))
            .unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn random_overwrites_are_costly() {
        let (mut ftl, mut env) = setup();
        // The paper's point: random writes at block granularity amplify
        // writes massively.
        for i in 0..200u32 {
            let lpn = (i * 37) % 256;
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(true)).unwrap();
        }
        let wa = env
            .flash()
            .stats()
            .write_amplification(env.stats.user_page_writes)
            .unwrap();
        assert!(wa > 5.0, "block-level WA should be large, got {wa}");
        // Still consistent.
        for i in 0..200u32 {
            let lpn = (i * 37) % 256;
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(false)).unwrap();
        }
    }
}
