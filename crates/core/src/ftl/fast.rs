//! A log-buffer hybrid FTL in the style of FAST (Lee et al., "A log
//! buffer-based flash translation layer using fully-associative sector
//! translation", ACM TECS 2007) — the hybrid class the paper's Section 2.1
//! positions page-level FTLs against.
//!
//! Data blocks are block-mapped (one RAM entry per 256 KB block, fixed
//! in-block offsets); a small set of *log blocks* absorbs the writes that
//! cannot go in place:
//!
//! * one **sequential (SW) log block** captures streams that start at
//!   block offset 0 and grow in order; when it completes it replaces the
//!   data block outright (*switch merge*), or is completed from the old
//!   data block's remaining pages (*partial merge*);
//! * **random (RW) log blocks** are fully associative: any page of any
//!   block may be appended, tracked by a page-level log mapping. When the
//!   log pool overflows, the oldest log block is reclaimed by *full
//!   merges* of every data block it holds pages for — the costly operation
//!   that makes hybrids "suffer from performance degradation in random
//!   write intensive workloads" (Section 2.1), which this implementation
//!   reproduces and the test suite demonstrates.
//!
//! Merges and log reclaims are this FTL's garbage collection: their ops
//! run in the device's idle time, like the page-level collector's
//! ([`gc::in_background`]).
//!
//! RAM cost: 4 B per logical block plus 8 B per live log page — far below
//! a page-level table, which is the hybrid's selling point the paper
//! acknowledges before rejecting hybrids on performance grounds.

use std::collections::{BTreeSet, HashMap, VecDeque};

use tpftl_flash::{BlockId, Lpn, OpPurpose, PageState, Ppn};

use crate::env::SsdEnv;
use crate::ftl::{AccessCtx, Ftl, TpDistEntry};
use crate::{gc, Result, SsdConfig};

/// State of the sequential log block.
#[derive(Debug, Clone, Copy)]
struct SwLog {
    /// The logical block it shadows.
    lbn: u32,
    /// Its physical block.
    pbn: BlockId,
    /// Next in-order offset expected.
    next_off: usize,
}

/// Merge counters, exposed for tests and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// SW log completed exactly and replaced the data block.
    pub switch_merges: u64,
    /// SW log completed by copying the data block's remaining pages.
    pub partial_merges: u64,
    /// Full merges of one data block (log + data consolidated).
    pub full_merges: u64,
}

/// The FAST-style hybrid FTL.
pub struct FastFtl {
    /// `lbn -> data block`.
    block_map: Vec<Option<BlockId>>,
    /// Latest out-of-place version of each page (in SW or RW logs).
    log_map: HashMap<Lpn, Ppn>,
    sw_log: Option<SwLog>,
    /// RW log blocks, oldest first; the back one absorbs appends.
    rw_logs: VecDeque<BlockId>,
    max_rw_logs: usize,
    pages_per_block: usize,
    merges: MergeStats,
}

impl FastFtl {
    /// Creates a FAST FTL with `max_rw_logs` random log blocks (the paper
    /// era's typical configuration is a handful; default via
    /// [`FastFtl::with_defaults`] is 8).
    pub fn new(config: &SsdConfig, max_rw_logs: usize) -> Self {
        assert!(max_rw_logs >= 1, "at least one RW log block");
        assert!(
            config.prefill_frac == 0.0,
            "the FAST FTL does not support pre-fill"
        );
        let geom = config.geometry();
        let logical_blocks = (config.logical_bytes / geom.block_bytes() as u64) as usize;
        Self {
            block_map: vec![None; logical_blocks],
            log_map: HashMap::new(),
            sw_log: None,
            rw_logs: VecDeque::new(),
            max_rw_logs,
            pages_per_block: geom.pages_per_block,
            merges: MergeStats::default(),
        }
    }

    /// FAST with 8 RW log blocks.
    pub fn with_defaults(config: &SsdConfig) -> Self {
        Self::new(config, 8)
    }

    /// Merge counters.
    pub fn merge_stats(&self) -> MergeStats {
        self.merges
    }

    fn split(&self, lpn: Lpn) -> (usize, usize) {
        (
            (lpn as usize) / self.pages_per_block,
            (lpn as usize) % self.pages_per_block,
        )
    }

    fn ppn_at(env: &SsdEnv, pbn: BlockId, off: usize) -> Ppn {
        env.flash().geometry().first_ppn(pbn) + off as u32
    }

    /// Latest valid location of `lpn`, if any.
    fn locate(&self, env: &SsdEnv, lpn: Lpn) -> Result<Option<Ppn>> {
        if let Some(&ppn) = self.log_map.get(&lpn) {
            return Ok(Some(ppn));
        }
        let (lbn, off) = self.split(lpn);
        if let Some(pbn) = self.block_map[lbn] {
            let ppn = Self::ppn_at(env, pbn, off);
            if env.flash().state(ppn)? == PageState::Valid {
                return Ok(Some(ppn));
            }
        }
        Ok(None)
    }

    fn invalidate_old(&mut self, env: &mut SsdEnv, lpn: Lpn) -> Result<()> {
        if let Some(ppn) = self.locate(env, lpn)? {
            env.invalidate_page(ppn)?;
            self.log_map.remove(&lpn);
        }
        Ok(())
    }

    /// Rebuilds data block `lbn` from the freshest version of every page
    /// (a *full merge* when log pages are involved; also the tail of a
    /// partial merge). Frees every source block that ends up empty.
    fn merge_block(&mut self, env: &mut SsdEnv, lbn: usize) -> Result<()> {
        debug_assert!(
            self.sw_log.is_none_or(|sw| sw.lbn as usize != lbn),
            "cannot merge under an active SW log"
        );
        self.merges.full_merges += 1;
        let new_pbn = env.blocks.take_raw_block()?;
        for off in 0..self.pages_per_block {
            let lpn = (lbn * self.pages_per_block + off) as Lpn;
            if let Some(src) = self.locate(env, lpn)? {
                env.flash.read_page(src, OpPurpose::GcData)?;
                let dst = Self::ppn_at(env, new_pbn, off);
                env.flash.program_page_at(dst, lpn, OpPurpose::GcData)?;
                env.invalidate_page(src)?;
                self.log_map.remove(&lpn);
            }
        }
        if let Some(old) = self.block_map[lbn] {
            env.flash.erase_block(old, OpPurpose::GcData)?;
            env.blocks.release_raw_block(old);
        }
        self.block_map[lbn] = Some(new_pbn);
        Ok(())
    }

    /// Reclaims the oldest RW log block by fully merging every data block
    /// it still holds valid pages for.
    fn reclaim_oldest_rw_log(&mut self, env: &mut SsdEnv) -> Result<()> {
        let victim = self.rw_logs.pop_front().expect("caller checked");
        // Deterministic order over the associated logical blocks.
        let lbns: BTreeSet<usize> = env
            .flash
            .valid_pages(victim)
            .map(|(_, lpn)| (lpn as usize) / self.pages_per_block)
            .collect();
        // If the active SW log shadows one of these blocks, close it first:
        // merging underneath it would let the later switch replace the
        // merged block with a partially-invalidated log block.
        if let Some(sw) = self.sw_log {
            if lbns.contains(&(sw.lbn as usize)) {
                self.close_sw_log(env)?;
            }
        }
        gc::in_background(env, |env| -> Result<()> {
            for lbn in lbns {
                self.merge_block(env, lbn)?;
            }
            debug_assert_eq!(env.flash().valid_pages_in(victim)?, 0);
            env.flash.erase_block(victim, OpPurpose::GcData)?;
            Ok(())
        })?;
        env.blocks.release_raw_block(victim);
        Ok(())
    }

    /// Appends `lpn` to the RW log, rotating/reclaiming log blocks.
    fn rw_log_append(&mut self, env: &mut SsdEnv, lpn: Lpn) -> Result<()> {
        let target = match self.rw_logs.back() {
            Some(&b) if env.flash().next_free_ppn(b).is_some() => b,
            _ => {
                if self.rw_logs.len() >= self.max_rw_logs {
                    self.reclaim_oldest_rw_log(env)?;
                }
                let b = env.blocks.take_raw_block()?;
                self.rw_logs.push_back(b);
                b
            }
        };
        let ppn = env.flash().next_free_ppn(target).expect("target has room");
        self.invalidate_old(env, lpn)?;
        env.flash.program_page(ppn, lpn, OpPurpose::HostData)?;
        self.log_map.insert(lpn, ppn);
        Ok(())
    }

    /// Finishes the current SW log: a *switch merge* if it is complete, a
    /// *partial merge* (copy the old block's remaining valid pages, then
    /// switch) otherwise.
    fn close_sw_log(&mut self, env: &mut SsdEnv) -> Result<()> {
        let Some(sw) = self.sw_log.take() else {
            return Ok(());
        };
        let lbn = sw.lbn as usize;
        let old = self.block_map[lbn];
        if sw.next_off == self.pages_per_block {
            self.merges.switch_merges += 1;
        } else {
            self.merges.partial_merges += 1;
        }
        gc::in_background(env, |env| -> Result<()> {
            for off in sw.next_off..self.pages_per_block {
                let lpn = (lbn * self.pages_per_block + off) as Lpn;
                if let Some(src) = self.locate(env, lpn)? {
                    env.flash.read_page(src, OpPurpose::GcData)?;
                    let dst = Self::ppn_at(env, sw.pbn, off);
                    env.flash.program_page_at(dst, lpn, OpPurpose::GcData)?;
                    env.invalidate_page(src)?;
                    self.log_map.remove(&lpn);
                }
            }
            // Switch: the SW log becomes the data block. Every page of the
            // old block was superseded by an SW write or copied by the
            // partial merge above; the erase fails loudly if that
            // invariant is ever broken.
            if let Some(old) = old {
                env.flash.erase_block(old, OpPurpose::GcData)?;
            }
            Ok(())
        })?;
        if let Some(old) = old {
            env.blocks.release_raw_block(old);
        }
        self.block_map[lbn] = Some(sw.pbn);
        // SW-resident pages are now data-block pages; newer versions that
        // escaped into the RW log keep their log mapping.
        let first = (lbn * self.pages_per_block) as Lpn;
        for off in 0..self.pages_per_block as u32 {
            let lpn = first + off;
            if let Some(&p) = self.log_map.get(&lpn) {
                if env.flash().geometry().block_of(p) == sw.pbn {
                    self.log_map.remove(&lpn);
                }
            }
        }
        Ok(())
    }

    fn sw_log_write(&mut self, env: &mut SsdEnv, lpn: Lpn) -> Result<()> {
        let (lbn, off) = self.split(lpn);
        let sw = self.sw_log.as_mut().expect("caller ensured");
        debug_assert!(sw.lbn as usize == lbn && sw.next_off == off);
        let dst = Self::ppn_at(env, sw.pbn, off);
        self.invalidate_old(env, lpn)?;
        env.flash.program_page_at(dst, lpn, OpPurpose::HostData)?;
        self.log_map.insert(lpn, dst);
        let sw = self.sw_log.as_mut().expect("still present");
        sw.next_off += 1;
        if sw.next_off == self.pages_per_block {
            self.close_sw_log(env)?;
        }
        Ok(())
    }
}

impl Ftl for FastFtl {
    fn name(&self) -> String {
        format!("FAST({})", self.max_rw_logs)
    }

    fn translate(&mut self, env: &mut SsdEnv, lpn: Lpn, _ctx: &AccessCtx) -> Result<Option<Ppn>> {
        env.note_lookup(true); // All mapping state is RAM-resident.
        self.locate(env, lpn)
    }

    fn write_page(&mut self, env: &mut SsdEnv, lpn: Lpn, _ctx: &AccessCtx) -> Result<()> {
        env.note_lookup(true);
        env.stats.user_page_writes += 1;
        let (lbn, off) = self.split(lpn);

        // While an SW log shadows this block, no in-place writes may touch
        // the data block (the switch would lose them): continue the stream
        // or divert to the RW log.
        if let Some(sw) = self.sw_log {
            if sw.lbn as usize == lbn {
                if sw.next_off == off {
                    return self.sw_log_write(env, lpn);
                }
                return self.rw_log_append(env, lpn);
            }
        }

        // In-place write into the data block when physically possible.
        if let Some(pbn) = self.block_map[lbn] {
            let dst = Self::ppn_at(env, pbn, off);
            let reachable = env
                .flash()
                .next_free_ppn(pbn)
                .is_some_and(|next| dst >= next);
            if reachable && env.flash().state(dst)? == PageState::Free {
                self.invalidate_old(env, lpn)?;
                env.flash.program_page_at(dst, lpn, OpPurpose::HostData)?;
                return Ok(());
            }
        }

        // Sequential log: streams starting at offset 0 and continuing in
        // order.
        match self.sw_log {
            Some(sw) if sw.lbn as usize == lbn && sw.next_off == off => {
                return self.sw_log_write(env, lpn);
            }
            _ if off == 0 => {
                self.close_sw_log(env)?;
                let pbn = env.blocks.take_raw_block()?;
                self.sw_log = Some(SwLog {
                    lbn: lbn as u32,
                    pbn,
                    next_off: 0,
                });
                return self.sw_log_write(env, lpn);
            }
            _ => {}
        }

        // Everything else goes to the fully-associative random log.
        self.rw_log_append(env, lpn)
    }

    fn update_mapping(&mut self, _env: &mut SsdEnv, _lpn: Lpn, _new_ppn: Ppn) -> Result<()> {
        unreachable!("FAST handles writes in write_page")
    }

    fn on_gc_data_block(&mut self, _env: &mut SsdEnv, _moved: &[(Lpn, Ppn)]) -> Result<u64> {
        unreachable!("FAST reclaims space via merges, not page-level GC")
    }

    fn uses_translation_pages(&self) -> bool {
        false
    }

    fn uses_page_level_gc(&self) -> bool {
        false
    }

    fn cache_bytes_used(&self) -> usize {
        // 4 B per logical block + 8 B per live log-mapped page.
        self.block_map.len() * 4 + self.log_map.len() * 8
    }

    fn cached_entries(&self) -> usize {
        self.block_map.iter().filter(|m| m.is_some()).count() + self.log_map.len()
    }

    fn cached_tp_distribution(&self) -> Vec<TpDistEntry> {
        Vec::new() // No translation pages exist.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver;

    fn setup() -> (FastFtl, SsdEnv) {
        let config = SsdConfig::paper_default(8 << 20);
        let mut env = SsdEnv::new(config.clone()).unwrap();
        let mut ftl = FastFtl::new(&config, 2);
        driver::bootstrap(&mut ftl, &mut env).unwrap();
        (ftl, env)
    }

    fn write(ftl: &mut FastFtl, env: &mut SsdEnv, lpn: Lpn) {
        driver::serve_page_access(ftl, env, lpn, AccessCtx::single(true)).unwrap();
    }

    fn read(ftl: &mut FastFtl, env: &mut SsdEnv, lpn: Lpn) {
        driver::serve_page_access(ftl, env, lpn, AccessCtx::single(false)).unwrap();
    }

    #[test]
    fn sequential_fill_switch_merges() {
        let (mut ftl, mut env) = setup();
        // Fill block 0 twice sequentially: both passes stream through the
        // SW log; the second one also erases the superseded data block.
        for lpn in 0..64u32 {
            write(&mut ftl, &mut env, lpn);
        }
        assert_eq!(
            ftl.merge_stats(),
            MergeStats {
                switch_merges: 1,
                ..MergeStats::default()
            },
            "first fill switches with no old block"
        );
        assert_eq!(env.flash().stats().total_erases(), 0);
        for lpn in 0..64u32 {
            write(&mut ftl, &mut env, lpn);
        }
        let m = ftl.merge_stats();
        assert_eq!(m.switch_merges, 2);
        assert_eq!(m.full_merges, 0);
        // One erase (the old data block), no page copies beyond user writes.
        assert_eq!(env.flash().stats().total_erases(), 1);
        for lpn in 0..64u32 {
            read(&mut ftl, &mut env, lpn);
        }
    }

    #[test]
    fn interrupted_stream_partial_merges() {
        let (mut ftl, mut env) = setup();
        for lpn in 0..64u32 {
            write(&mut ftl, &mut env, lpn);
        }
        // Rewrite only the first half, then start a stream on another
        // block; closing the SW log forces a partial merge.
        for lpn in 0..32u32 {
            write(&mut ftl, &mut env, lpn);
        }
        write(&mut ftl, &mut env, 64); // offset 0 of block 1
        let m = ftl.merge_stats();
        assert_eq!(m.partial_merges, 1);
        // Data intact: both halves readable.
        for lpn in 0..64u32 {
            read(&mut ftl, &mut env, lpn);
        }
    }

    #[test]
    fn random_writes_go_to_log_then_full_merge() {
        let (mut ftl, mut env) = setup();
        for lpn in 0..128u32 {
            write(&mut ftl, &mut env, lpn); // two data blocks in place
        }
        // Random single-page overwrites land in the RW log without merging.
        let writes_before = env.flash().stats().total_writes();
        write(&mut ftl, &mut env, 5);
        write(&mut ftl, &mut env, 70);
        write(&mut ftl, &mut env, 9);
        assert_eq!(
            env.flash().stats().total_writes(),
            writes_before + 3,
            "no merge yet"
        );
        assert_eq!(ftl.merge_stats().full_merges, 0);
        assert_eq!(ftl.log_map.len(), 3);
        // Overflow the 2-block log pool (2 * 64 appends) -> full merges.
        for i in 0..300u32 {
            write(&mut ftl, &mut env, (i * 37) % 128);
        }
        assert!(ftl.merge_stats().full_merges > 0);
        // Merges are reclamation: their ops went to the background lane.
        assert!(env.flash().clocks().lane_queued() > 0);
        // Everything still reads back correctly.
        for lpn in 0..128u32 {
            read(&mut ftl, &mut env, lpn);
        }
    }

    #[test]
    fn hybrid_ram_footprint_is_small() {
        let config = SsdConfig::paper_default(512 << 20);
        let ftl = FastFtl::with_defaults(&config);
        // Block table: 2048 blocks * 4 B = 8 KB, log map empty.
        assert_eq!(ftl.cache_bytes_used(), 8 * 1024);
    }

    /// The paper's Section 2.1 claim: hybrids degrade under random writes
    /// compared to a page-level FTL, due to costly full merges.
    #[test]
    fn random_write_wa_worse_than_page_level() {
        let config = SsdConfig::paper_default(8 << 20);
        let run_fast = {
            let mut env = SsdEnv::new(config.clone()).unwrap();
            let mut ftl = FastFtl::new(&config, 2);
            driver::bootstrap(&mut ftl, &mut env).unwrap();
            for i in 0..4_000u32 {
                let lpn = (i * librarian(i)) % 1024;
                driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(true))
                    .unwrap();
            }
            env.flash()
                .stats()
                .write_amplification(env.stats.user_page_writes)
                .unwrap()
        };
        let run_page = {
            let mut env = SsdEnv::new(config.clone()).unwrap();
            let mut ftl = crate::ftl::OptimalFtl::new(&config);
            driver::bootstrap(&mut ftl, &mut env).unwrap();
            for i in 0..4_000u32 {
                let lpn = (i * librarian(i)) % 1024;
                driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(true))
                    .unwrap();
            }
            env.flash()
                .stats()
                .write_amplification(env.stats.user_page_writes)
                .unwrap()
        };
        assert!(
            run_fast > run_page * 1.5,
            "hybrid WA {run_fast:.2} should far exceed page-level {run_page:.2}"
        );
    }

    /// Deterministic pseudo-random multiplier (avoids pulling in rand).
    fn librarian(i: u32) -> u32 {
        (i.wrapping_mul(2654435761) >> 16) | 1
    }

    #[test]
    fn consistency_under_mixed_traffic() {
        let (mut ftl, mut env) = setup();
        let mut written = std::collections::HashSet::new();
        for i in 0..6_000u32 {
            let lpn = (i.wrapping_mul(librarian(i))) % 2048;
            if i % 3 == 0 {
                read(&mut ftl, &mut env, lpn);
            } else {
                write(&mut ftl, &mut env, lpn);
                written.insert(lpn);
            }
        }
        // No LPN owns two valid pages, and every write is recoverable.
        let mut seen = std::collections::HashSet::new();
        for (_, tag, is_tp) in env.flash().scan_valid() {
            assert!(!is_tp);
            assert!(seen.insert(tag), "LPN {tag} double-mapped");
        }
        for &lpn in &written {
            let ppn = ftl
                .translate(&mut env, lpn, &AccessCtx::single(false))
                .unwrap()
                .expect("written page mapped");
            env.read_data_page(ppn, lpn).unwrap();
        }
    }
}
