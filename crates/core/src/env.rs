//! The SSD environment every FTL runs against.
//!
//! [`SsdEnv`] bundles the flash device, the block manager, the global
//! translation directory and the statistics counters, and exposes the only
//! operations an FTL may perform: data-page I/O, translation-page reads,
//! and the two translation-page write flavours the paper distinguishes —
//! the read-modify-write partial update (`T_fr + T_fw`, DFTL/TPFTL dirty
//! writebacks) and the full-page overwrite (`T_fw` only, the S-FTL case
//! noted under Equation 1).

use serde::{Deserialize, Serialize};
use tpftl_flash::{Flash, Lpn, OpPurpose, Ppn, Vtpn, PPN_NONE};

use crate::blockmgr::{AllocClass, BlockKind, BlockManager};
use crate::gtd::Gtd;
use crate::{FtlError, FtlStats, Result, SsdConfig};

/// Garbage-collection aggregates needed by the paper's models
/// (`N_gcd`, `V_d`, `N_gct`, `V_t`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GcStats {
    /// Data-block victims collected (`N_gcd`).
    pub data_victims: u64,
    /// Valid data pages migrated (`N_md`).
    pub data_pages_migrated: u64,
    /// Translation-block victims collected (`N_gct`).
    pub trans_victims: u64,
    /// Valid translation pages migrated (`N_mt`).
    pub trans_pages_migrated: u64,
    /// Collection passes run: `gc::ensure_free` calls that found the pool
    /// below the low watermark. Each writes its moves' mapping back once.
    /// 0 on reports recorded before it existed.
    #[serde(default)]
    pub passes: u64,
    /// The most data-page moves one pass held before its write-back
    /// (`(lpn, new_ppn)` pairs, 8 B each): controller RAM the mapping
    /// cache's budget does not count. A sharded run reports the largest
    /// shard's. 0 on reports recorded before it existed.
    #[serde(default)]
    pub moves_peak: u64,
}

impl GcStats {
    /// Mean valid pages per collected data block (`V_d`).
    pub fn vd_mean(&self) -> f64 {
        if self.data_victims == 0 {
            0.0
        } else {
            self.data_pages_migrated as f64 / self.data_victims as f64
        }
    }

    /// Mean valid pages per collected translation block (`V_t`).
    pub fn vt_mean(&self) -> f64 {
        if self.trans_victims == 0 {
            0.0
        } else {
            self.trans_pages_migrated as f64 / self.trans_victims as f64
        }
    }

    /// Adds `other`'s counters into `self` — the sharded engine's
    /// per-shard stats merge (integer sums and one maximum,
    /// order-independent).
    pub fn merge_from(&mut self, other: &GcStats) {
        self.data_victims += other.data_victims;
        self.data_pages_migrated += other.data_pages_migrated;
        self.trans_victims += other.trans_victims;
        self.trans_pages_migrated += other.trans_pages_migrated;
        self.passes += other.passes;
        self.moves_peak = self.moves_peak.max(other.moves_peak);
    }
}

/// Per-LPN write-temperature estimator: a decayed write count per page.
///
/// Each host write bumps its page's saturating 8-bit counter and the write
/// is routed to stream `floor(log2(count))` (clamped to the configured
/// stream count) — a page must be re-written within the decay window to
/// leave the cold stream, and doubling counts buy hotter streams. After
/// every `decay_every` host writes all counters halve, so idle pages cool
/// back toward stream 0 and the classes track the *recent* write rate, not
/// lifetime totals. GC migrations bypass the estimator entirely: a page
/// that survived collection is cold by demonstration and is demoted to
/// stream 0.
///
/// The estimator is volatile by design: a remount starts cold (everything
/// back in stream 0) and re-learns, so crash recovery never depends on it.
/// With one stream it keeps no state and classifies nothing.
#[derive(Debug, Clone)]
struct HeatTracker {
    /// Decayed write count per LPN; empty in the single-stream case.
    heat: Vec<u8>,
    /// Effective stream count (≥ 1).
    streams: usize,
    writes_since_decay: u64,
    /// Host writes between halvings — half an overwrite pass of the
    /// device: long enough that a genuinely hot page is re-written within
    /// it, short enough that yesterday's hot data cools.
    decay_every: u64,
}

impl HeatTracker {
    fn new(logical_pages: u64, streams: usize) -> Self {
        let streams = streams.max(1);
        Self {
            heat: if streams > 1 {
                vec![0; logical_pages as usize]
            } else {
                Vec::new()
            },
            streams,
            writes_since_decay: 0,
            decay_every: (logical_pages / 2).max(1024),
        }
    }

    /// Records a host write of `lpn` and returns its stream (0 = coldest).
    #[inline]
    fn on_host_write(&mut self, lpn: Lpn) -> usize {
        if self.streams == 1 {
            return 0;
        }
        let h = &mut self.heat[lpn as usize];
        *h = h.saturating_add(1);
        let stream = (*h as u32).ilog2() as usize;
        self.writes_since_decay += 1;
        if self.writes_since_decay >= self.decay_every {
            self.writes_since_decay = 0;
            for h in &mut self.heat {
                *h >>= 1;
            }
        }
        stream.min(self.streams - 1)
    }
}

/// Flash device + block manager + GTD + counters.
pub struct SsdEnv {
    config: SsdConfig,
    pub(crate) flash: Flash,
    pub(crate) blocks: BlockManager,
    pub(crate) gtd: Gtd,
    /// Cache-level counters; FTLs update them via the `note_*` helpers.
    pub stats: FtlStats,
    /// GC aggregates, updated by [`crate::gc`].
    pub gc_stats: GcStats,
    entries_per_tp: usize,
    /// `log2(entries_per_tp)` / `entries_per_tp - 1`: the per-page entry
    /// count is a power of two by construction, so the address-splitting
    /// helpers on the translate hot path can shift and mask instead of
    /// paying two hardware divisions per lookup.
    tp_shift: u32,
    tp_mask: u32,
    /// Scratch page for building translation payloads on the cold paths
    /// (first write of a page, format, prefill). Owned here, borrowed via
    /// `mem::take`, and put back — never reallocated in steady state.
    tp_scratch: Vec<Ppn>,
    /// Scratch for GC victim-page collection; owned here, used by
    /// [`crate::gc`] through `mem::take` so a GC pass allocates nothing.
    pub(crate) gc_page_scratch: Vec<(Ppn, u32)>,
    /// Scratch for the (LPN, new PPN) pairs a data-block collection moves.
    pub(crate) gc_moved_scratch: Vec<(Lpn, Ppn)>,
    /// The one GC-miss buffer: the moved pages an FTL's cache did not hold
    /// (`ftl::cmt::absorb_gc_moves`).
    pub(crate) gc_miss_scratch: Vec<(Lpn, Ppn)>,
    /// Scratch of `ftl::cmt::write_back_by_tp`'s counting sort: one slot
    /// per VTPN, sized here once (a page's update count, then its start,
    /// then its end in `wb_laid_scratch`); the updates laid out page by
    /// page as `(offset, ppn)`; and the one batch handed to each page's
    /// hook and write.
    pub(crate) wb_page_ends: Vec<u32>,
    pub(crate) wb_laid_scratch: Vec<(u16, Ppn)>,
    pub(crate) wb_batch_scratch: Vec<(u16, Ppn)>,
    /// Write-temperature estimator routing host writes to data streams.
    heat: HeatTracker,
}

impl SsdEnv {
    /// Creates a fully erased SSD per `config`; refuses its GC watermarks
    /// with [`FtlError::BadWatermarks`] if a pass cannot run with them.
    pub fn new(config: SsdConfig) -> Result<Self> {
        let geom = config.geometry();
        let flash = Flash::new(geom.clone())?;
        let blocks =
            BlockManager::with_streams(geom.num_blocks, geom.pages_per_block, config.streams.get());
        let gtd = Gtd::new(config.num_vtpns() as usize);
        Self::assemble(config, flash, blocks, gtd)
    }

    /// The one place the fields are listed: an environment around the
    /// given device state with empty scratch, a cold temperature estimator
    /// (volatile by design, so a remount re-learns) and zeroed statistics,
    /// if the configuration's GC watermarks are ones a pass can run with.
    fn assemble(config: SsdConfig, flash: Flash, blocks: BlockManager, gtd: Gtd) -> Result<Self> {
        config.check_watermarks()?;
        let entries_per_tp = config.entries_per_tp();
        assert!(
            entries_per_tp.is_power_of_two(),
            "entries_per_tp must be a power of two"
        );
        Ok(Self {
            entries_per_tp,
            tp_shift: entries_per_tp.trailing_zeros(),
            tp_mask: (entries_per_tp - 1) as u32,
            tp_scratch: Vec::new(),
            gc_page_scratch: Vec::new(),
            gc_moved_scratch: Vec::new(),
            gc_miss_scratch: Vec::new(),
            wb_page_ends: vec![0; config.num_vtpns() as usize],
            wb_laid_scratch: Vec::new(),
            wb_batch_scratch: Vec::new(),
            heat: HeatTracker::new(config.logical_pages(), config.streams.get() as usize),
            config,
            flash,
            blocks,
            gtd,
            stats: FtlStats::default(),
            gc_stats: GcStats::default(),
        })
    }

    /// Creates an SSD per `config` on a prebuilt flash device — typically
    /// one created with [`Flash::create_file`] so every state transition
    /// is mirrored to a backing device file. The device must be fully
    /// erased (this is the fresh-device constructor; remounting an
    /// already-written device goes through `recovery::crash_mount`) and
    /// its geometry must match the configuration.
    pub fn with_flash(config: SsdConfig, flash: Flash) -> Result<Self> {
        if flash.geometry() != &config.geometry() {
            return Err(
                tpftl_flash::FlashError::Media(tpftl_flash::MediaError::GeometryMismatch).into(),
            );
        }
        let mut env = Self::new(config)?;
        env.flash = flash;
        Ok(env)
    }

    /// The device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Read-only access to the flash device (stats, scanning oracles).
    pub fn flash(&self) -> &Flash {
        &self.flash
    }

    /// Current dependency frontier of the simulated device clock (see
    /// [`Flash::sim_frontier_us`]).
    #[inline]
    pub fn sim_frontier_us(&self) -> f64 {
        self.flash.sim_frontier_us()
    }

    /// Declares that upcoming flash ops depend only on ops completed by
    /// `t` (see [`Flash::sim_relax_to`]). The simulator uses this to let
    /// the pages of one host request overlap on independent units.
    #[inline]
    pub fn sim_relax_to(&mut self, t: f64) {
        self.flash.sim_relax_to(t);
    }

    /// Read-only access to the translation directory.
    pub fn gtd(&self) -> &Gtd {
        &self.gtd
    }

    /// Mapping entries per translation page.
    pub fn entries_per_tp(&self) -> usize {
        self.entries_per_tp
    }

    /// Translation page holding `lpn`'s entry.
    #[inline]
    pub fn vtpn_of(&self, lpn: Lpn) -> Vtpn {
        lpn >> self.tp_shift
    }

    /// Offset of `lpn`'s entry within its translation page.
    #[inline]
    pub fn offset_of(&self, lpn: Lpn) -> u16 {
        (lpn & self.tp_mask) as u16
    }

    /// Number of free blocks remaining.
    pub fn free_blocks(&self) -> usize {
        self.blocks.free_blocks()
    }

    /// Current use of `block`: free, open, sealed or being collected, and
    /// for data or translation pages.
    pub fn block_kind(&self, block: tpftl_flash::BlockId) -> BlockKind {
        self.blocks.kind(block)
    }

    /// Highest per-block erase count reached so far (lifetime limiter).
    pub fn max_wear(&self) -> u64 {
        self.blocks.max_wear()
    }

    /// Exact per-block erase-count sums `(blocks, Σw, Σw²)` over the whole
    /// device — integer moments, so merging shards stays exact and the
    /// erase-count CV can be computed after any merge.
    pub fn wear_summary(&self) -> (u64, u64, u64) {
        let blocks = self.flash.geometry().num_blocks;
        let (mut sum, mut sq) = (0u64, 0u64);
        for b in 0..blocks {
            let w = self
                .flash
                .erase_count(b as tpftl_flash::BlockId)
                .unwrap_or(0);
            sum += w;
            sq += w * w;
        }
        (blocks as u64, sum, sq)
    }

    /// Validates that `lpn` is inside the exported logical space.
    pub fn check_lpn(&self, lpn: Lpn) -> Result<()> {
        if (lpn as u64) < self.config.logical_pages() {
            Ok(())
        } else {
            Err(FtlError::OutOfLogicalSpace {
                lpn,
                logical_pages: self.config.logical_pages(),
            })
        }
    }

    // ---- Statistics helpers -------------------------------------------------

    /// Records an address-translation lookup.
    #[inline]
    pub fn note_lookup(&mut self, hit: bool) {
        self.stats.lookups += 1;
        if hit {
            self.stats.hits += 1;
        }
    }

    /// Records a mapping-cache replacement (`P_rd` bookkeeping).
    #[inline]
    pub fn note_replacement(&mut self, dirty: bool) {
        self.stats.replacements += 1;
        if dirty {
            self.stats.dirty_replacements += 1;
        }
    }

    /// Records a learned-index prediction outcome: validated hit or
    /// mispredict routed to the fallback path.
    #[inline]
    pub fn note_predict(&mut self, hit: bool) {
        if hit {
            self.stats.predict_hits += 1;
        } else {
            self.stats.mispredicts += 1;
        }
    }

    // ---- Data-page operations ----------------------------------------------

    /// Allocates and programs a data page for `lpn`; returns its PPN.
    ///
    /// While the flash is in background mode (a collection's migrations)
    /// the page goes to the lane's open data block, so data that survived
    /// a collection never shares a block with host writes. Otherwise host
    /// writes are classified by the write-temperature estimator and land
    /// in their stream's open block, anything else in stream 0's. With one
    /// stream (the default) the estimator is a no-op.
    pub fn program_data_page(&mut self, lpn: Lpn, purpose: OpPurpose) -> Result<Ppn> {
        let stream = match purpose {
            OpPurpose::HostData => self.heat.on_host_write(lpn),
            _ => 0,
        };
        let ppn = self.blocks.alloc_data_page(stream, &self.flash)?;
        self.flash.program_page(ppn, lpn, purpose)?;
        Ok(ppn)
    }

    /// Reads the data page at `ppn`, verifying it still belongs to `lpn` —
    /// a mismatch means the FTL's mapping is corrupt and is surfaced as
    /// [`FtlError::MappingCorruption`] rather than masked.
    pub fn read_data_page(&mut self, ppn: Ppn, lpn: Lpn) -> Result<()> {
        let info = self.flash.read_page(ppn, OpPurpose::HostData)?;
        if info.tag != lpn {
            // The strongest invariant the simulator checks: a resolved
            // mapping must point at the page that physically holds the LPN.
            return Err(FtlError::MappingCorruption {
                lpn,
                ppn,
                tag: info.tag,
            });
        }
        Ok(())
    }

    /// Invalidates a superseded page and re-indexes its block for GC.
    pub fn invalidate_page(&mut self, ppn: Ppn) -> Result<()> {
        self.flash.invalidate(ppn)?;
        self.reindex_invalidated(ppn)
    }

    /// The block-manager half of an invalidation the flash device has
    /// already performed: `ppn`'s block moves to its new valid-count bucket.
    fn reindex_invalidated(&mut self, ppn: Ppn) -> Result<()> {
        let block = self.flash.geometry().block_of(ppn);
        let valid = self.flash.valid_pages_in(block)?;
        self.blocks.on_invalidated(block, valid);
        Ok(())
    }

    // ---- Translation-page operations ----------------------------------------

    /// Reads the full mapping payload of translation page `vtpn`,
    /// accounting one page read of `purpose`. The payload is borrowed
    /// straight out of the flash model's slab (no copy, no allocation);
    /// callers that keep it call `.to_vec()`. A page that has never been
    /// written (possible only before [`SsdEnv::format`]) borrows the
    /// environment's persistent all-unmapped page without flash traffic.
    pub fn read_translation_entries(&mut self, vtpn: Vtpn, purpose: OpPurpose) -> Result<&[Ppn]> {
        match self.gtd.get(vtpn) {
            Some(ppn) => Ok(self.flash.read_translation_payload(ppn, purpose)?),
            // Never written (possible only before `format`): the flash
            // model's shared all-unmapped page, so this path allocates
            // nothing either.
            None => Ok(self.flash.unmapped_translation_payload()),
        }
    }

    /// Reads a single mapping entry of translation page `vtpn`, accounting
    /// one page read — the selective-caching miss path (DFTL loads one
    /// entry per miss), with neither a page copy nor an allocation.
    ///
    /// Kept out of line: inlining this into `translate` bloats the caller
    /// and measurably slows the cache-*hit* arm it shares a function with.
    #[inline(never)]
    pub fn read_translation_entry(
        &mut self,
        vtpn: Vtpn,
        offset: u16,
        purpose: OpPurpose,
    ) -> Result<Ppn> {
        match self.gtd.get(vtpn) {
            Some(ppn) => Ok(self.flash.read_translation_payload(ppn, purpose)?[offset as usize]),
            None => Ok(PPN_NONE),
        }
    }

    /// Partial translation-page update: read-modify-write, costing
    /// `T_fr + T_fw` (plus the first-write case with no prior page). This
    /// is the writeback path of DFTL/TPFTL dirty entries and of GC misses.
    ///
    /// The payload never surfaces: the flash model re-binds its slab slot
    /// to the new page and patches `updates` in place, so the steady-state
    /// writeback copies no page and allocates nothing.
    pub fn update_translation_page(
        &mut self,
        vtpn: Vtpn,
        updates: &[(u16, Ppn)],
        purpose: OpPurpose,
    ) -> Result<()> {
        // A translation writeback is a fire-and-forget persist: the mapping
        // lives on in RAM, so nothing the host does next waits for it. The
        // frontier is restored after the RMW; later ops touching the same
        // flash unit still serialize behind it through the unit clock.
        let fence = self.flash.sim_frontier_us();
        let res = self.update_translation_page_inner(vtpn, updates, purpose);
        self.flash.sim_relax_to(fence);
        res
    }

    fn update_translation_page_inner(
        &mut self,
        vtpn: Vtpn,
        updates: &[(u16, Ppn)],
        purpose: OpPurpose,
    ) -> Result<()> {
        match self.gtd.get(vtpn) {
            Some(old) => {
                // Accounts the `T_fr` read half and validates the source.
                let info = self.flash.read_page(old, purpose)?;
                if !info.is_translation {
                    return Err(FtlError::Flash(
                        tpftl_flash::FlashError::NotATranslationPage(old),
                    ));
                }
                self.supersede_translation_page(vtpn, old, updates, purpose)?;
            }
            None => {
                let mut payload = std::mem::take(&mut self.tp_scratch);
                payload.clear();
                payload.resize(self.entries_per_tp, PPN_NONE);
                for &(off, ppn) in updates {
                    payload[off as usize] = ppn;
                }
                let res = self.program_translation(vtpn, &payload, purpose);
                self.tp_scratch = payload;
                res?;
            }
        }
        Ok(())
    }

    /// Replaces translation page `vtpn`'s copy at `old` with a freshly
    /// allocated page holding the same payload plus `updates`, and retires
    /// `old` — one flash op, whose only fault point is the program. If that
    /// trips, `old` is still the valid copy and the GTD still points at it,
    /// so the table is never without a copy of this translation page. The
    /// caller has read (and so accounted and validated) `old`.
    pub(crate) fn supersede_translation_page(
        &mut self,
        vtpn: Vtpn,
        old: Ppn,
        updates: &[(u16, Ppn)],
        purpose: OpPurpose,
    ) -> Result<()> {
        let new_ppn = self
            .blocks
            .alloc_page(AllocClass::Translation, &self.flash)?;
        self.flash
            .supersede_translation_page(new_ppn, vtpn, old, updates, purpose)?;
        self.gtd.set(vtpn, new_ppn);
        self.reindex_invalidated(old)
    }

    /// Full translation-page overwrite from a cached copy: costs `T_fw`
    /// only (no read), the S-FTL/CDFTL victim-writeback case noted under
    /// Equation 1.
    pub fn write_translation_page_full(
        &mut self,
        vtpn: Vtpn,
        payload: &[Ppn],
        purpose: OpPurpose,
    ) -> Result<()> {
        // Fire-and-forget persist, like `update_translation_page`.
        let fence = self.flash.sim_frontier_us();
        let old = self.gtd.get(vtpn);
        // Program-before-invalidate, as in `update_translation_page`.
        let res = self.program_translation(vtpn, payload, purpose);
        self.flash.sim_relax_to(fence);
        res?;
        if let Some(old) = old {
            self.invalidate_page(old)?;
        }
        Ok(())
    }

    fn program_translation(
        &mut self,
        vtpn: Vtpn,
        payload: &[Ppn],
        purpose: OpPurpose,
    ) -> Result<()> {
        let ppn = self
            .blocks
            .alloc_page(AllocClass::Translation, &self.flash)?;
        self.flash
            .program_translation_page(ppn, vtpn, payload, purpose)?;
        self.gtd.set(vtpn, ppn);
        Ok(())
    }

    // ---- Bootstrap ----------------------------------------------------------

    /// Reconstructs an environment around an existing flash device at
    /// mount time (see [`crate::recovery::crash_mount`]): block bookkeeping is
    /// rebuilt by scanning the device, statistics start from zero.
    pub fn remount(config: SsdConfig, flash: Flash, gtd: Gtd) -> Result<Self> {
        let blocks = BlockManager::rebuild(&flash, config.streams.get())?;
        Self::assemble(config, flash, blocks, gtd)
    }

    /// Consumes the environment and returns the flash device, as a power
    /// cycle does (all RAM state is dropped).
    pub fn into_flash(self) -> Flash {
        self.flash
    }

    // ---- Power-loss fault injection ------------------------------------------

    /// Arms a power-loss [`tpftl_flash::FaultPlan`] on the underlying
    /// device; see [`tpftl_flash::Flash::arm_faults`].
    pub fn arm_faults(&mut self, plan: tpftl_flash::FaultPlan) {
        self.flash.arm_faults(plan);
    }

    /// The fatal operation, if an armed fault plan has fired.
    pub fn fault_fired(&self) -> Option<tpftl_flash::FaultRecord> {
        self.flash.fault_fired()
    }

    /// Writes every not-yet-present translation page (all-unmapped), so the
    /// mapping table fully exists on flash before the measured run, as in a
    /// formatted device.
    pub fn format(&mut self) -> Result<()> {
        let mut payload = std::mem::take(&mut self.tp_scratch);
        payload.clear();
        payload.resize(self.entries_per_tp, PPN_NONE);
        let res = self.format_missing(&payload);
        self.tp_scratch = payload;
        res
    }

    fn format_missing(&mut self, payload: &[Ppn]) -> Result<()> {
        for vtpn in 0..self.gtd.len() as Vtpn {
            if self.gtd.get(vtpn).is_none() {
                self.write_translation_page_full(vtpn, payload, OpPurpose::Translation)?;
            }
        }
        Ok(())
    }

    /// Sequentially writes the first `frac` of the logical space, creating
    /// data pages and their translation pages, so the measured run starts
    /// from a used device ("the SSD is in full use", Section 3.1). Call
    /// before [`SsdEnv::format`] and follow with [`SsdEnv::reset_stats`].
    pub fn prefill(&mut self, frac: f64) -> Result<()> {
        assert!((0.0..=1.0).contains(&frac), "prefill fraction out of range");
        let pages = (self.config.logical_pages() as f64 * frac) as u64;
        let mut payload = std::mem::take(&mut self.tp_scratch);
        let res = self.prefill_chunks(pages, &mut payload);
        self.tp_scratch = payload;
        res
    }

    fn prefill_chunks(&mut self, pages: u64, payload: &mut Vec<Ppn>) -> Result<()> {
        let mut lpn: Lpn = 0;
        // What `program_data_page` does per page, with the allocator asked
        // once per run: after it hands out a page, the rest of that page's
        // block is what it would hand out next for the same stream, as long
        // as each is programmed in turn and nothing else writes data.
        let (mut stream, mut run) = (0, 0..0);
        while (lpn as u64) < pages {
            let vtpn = self.vtpn_of(lpn);
            payload.clear();
            payload.resize(self.entries_per_tp, PPN_NONE);
            let chunk_end = (((vtpn as u64) + 1) * self.entries_per_tp as u64).min(pages) as Lpn;
            while lpn < chunk_end {
                let wanted = self.heat.on_host_write(lpn);
                let ppn = match run.next() {
                    Some(ppn) if wanted == stream => ppn,
                    _ => {
                        let first = self.blocks.alloc_data_page(wanted, &self.flash)?;
                        let block = self.flash.geometry().block_of(first);
                        let left = self.flash.free_pages_in(block)? as Ppn;
                        (stream, run) = (wanted, first + 1..first + left);
                        first
                    }
                };
                self.flash.program_page(ppn, lpn, OpPurpose::HostData)?;
                payload[self.offset_of(lpn) as usize] = ppn;
                lpn += 1;
            }
            self.write_translation_page_full(vtpn, payload, OpPurpose::Translation)?;
        }
        Ok(())
    }

    /// Clears every measurement counter (flash ops, cache counters, GC
    /// aggregates); device state is untouched.
    pub fn reset_stats(&mut self) {
        self.flash.reset_stats();
        self.stats = FtlStats::default();
        self.gc_stats = GcStats::default();
    }
}

// The sharded engine moves whole environments into worker threads; lock the
// guarantee in at compile time rather than discovering a stray `Rc` at a
// distant spawn site.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SsdEnv>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SsdConfig {
        // 4 MB logical space: 1024 pages, 1 translation page.
        SsdConfig::paper_default(4 << 20)
    }

    #[test]
    fn lpn_to_vtpn_mapping() {
        let env = SsdEnv::new(tiny_config()).unwrap();
        assert_eq!(env.vtpn_of(0), 0);
        assert_eq!(env.vtpn_of(1023), 0);
        assert_eq!(env.offset_of(1023), 1023);
        assert_eq!(env.offset_of(5), 5);
    }

    #[test]
    fn format_creates_all_translation_pages() {
        let mut env = SsdEnv::new(tiny_config()).unwrap();
        env.format().unwrap();
        assert_eq!(env.gtd().iter_present().count(), 1);
        // A second format is a no-op.
        let writes = env.flash().stats().total_writes();
        env.format().unwrap();
        assert_eq!(env.flash().stats().total_writes(), writes);
    }

    #[test]
    fn update_translation_page_rmw() {
        let mut env = SsdEnv::new(tiny_config()).unwrap();
        env.format().unwrap();
        env.reset_stats();
        env.update_translation_page(0, &[(5, 1234)], OpPurpose::Translation)
            .unwrap();
        // Read-modify-write: one read + one write.
        assert_eq!(env.flash().stats().translation_reads(), 1);
        assert_eq!(env.flash().stats().translation_writes(), 1);
        let entries = env
            .read_translation_entries(0, OpPurpose::Translation)
            .unwrap();
        assert_eq!(entries[5], 1234);
        assert_eq!(entries[6], PPN_NONE);
    }

    #[test]
    fn full_write_skips_read() {
        let mut env = SsdEnv::new(tiny_config()).unwrap();
        env.format().unwrap();
        env.reset_stats();
        let mut payload = vec![PPN_NONE; env.entries_per_tp()];
        payload[0] = 77;
        env.write_translation_page_full(0, &payload, OpPurpose::Translation)
            .unwrap();
        assert_eq!(env.flash().stats().translation_reads(), 0);
        assert_eq!(env.flash().stats().translation_writes(), 1);
        assert_eq!(
            env.read_translation_entries(0, OpPurpose::Translation)
                .unwrap()[0],
            77
        );
    }

    #[test]
    fn data_page_roundtrip_and_invalidation() {
        let mut env = SsdEnv::new(tiny_config()).unwrap();
        let p1 = env.program_data_page(9, OpPurpose::HostData).unwrap();
        env.read_data_page(p1, 9).unwrap();
        let p2 = env.program_data_page(9, OpPurpose::HostData).unwrap();
        env.invalidate_page(p1).unwrap();
        env.read_data_page(p2, 9).unwrap();
        assert_ne!(p1, p2);
    }

    #[test]
    fn wrong_lpn_read_is_mapping_corruption() {
        let mut env = SsdEnv::new(tiny_config()).unwrap();
        let p = env.program_data_page(1, OpPurpose::HostData).unwrap();
        let got = env.read_data_page(p, 2);
        assert!(
            matches!(got, Err(FtlError::MappingCorruption { lpn: 2, tag: 1, ppn }) if ppn == p)
        );
    }

    #[test]
    fn prefill_maps_requested_fraction() {
        let mut env = SsdEnv::new(tiny_config()).unwrap();
        env.prefill(0.5).unwrap();
        env.format().unwrap();
        let entries = env
            .read_translation_entries(0, OpPurpose::Translation)
            .unwrap()
            .to_vec();
        let mapped = entries.iter().filter(|&&p| p != PPN_NONE).count();
        assert_eq!(mapped, 512);
        // Every mapped entry resolves to a valid page holding that LPN.
        for (lpn, &ppn) in entries.iter().enumerate().take(512) {
            env.read_data_page(ppn, lpn as Lpn).unwrap();
        }
    }

    /// `prefill` asks the allocator once per run of pages; the device must
    /// end up as programming page by page leaves it — also where a hot LPN
    /// breaks a run by going to the other stream, and where the pre-fill
    /// stops in the middle of a block and of a translation page.
    #[test]
    fn prefill_equals_programming_page_by_page() {
        let mut cfg = SsdConfig::paper_default(8 << 20); // two translation pages
        cfg.streams = crate::config::StreamCount(2);
        let with_hot_lpns = || {
            let mut env = SsdEnv::new(cfg.clone()).unwrap();
            for lpn in [3, 700, 3, 1500, 700] {
                env.program_data_page(lpn, OpPurpose::HostData).unwrap();
            }
            env
        };
        let mut fast = with_hot_lpns();
        fast.prefill(0.7).unwrap();

        let mut slow = with_hot_lpns();
        let pages = (cfg.logical_pages() as f64 * 0.7) as Lpn;
        let mut payload = vec![PPN_NONE; slow.entries_per_tp()];
        for lpn in 0..pages {
            let ppn = slow.program_data_page(lpn, OpPurpose::HostData).unwrap();
            payload[slow.offset_of(lpn) as usize] = ppn;
            if slow.vtpn_of(lpn + 1) != slow.vtpn_of(lpn) || lpn + 1 == pages {
                slow.write_translation_page_full(
                    slow.vtpn_of(lpn),
                    &payload,
                    OpPurpose::Translation,
                )
                .unwrap();
                payload.fill(PPN_NONE);
            }
        }

        // LPN 3 was hot: it left its neighbours' run, which then resumed.
        let geom = fast.flash().geometry().clone();
        let mapped = fast
            .read_translation_entries(0, OpPurpose::Translation)
            .unwrap();
        assert_ne!(geom.block_of(mapped[3]), geom.block_of(mapped[2]));
        assert_eq!(mapped[4], mapped[2] + 1);
        let mapped = mapped.to_vec();
        let reference = slow.read_translation_entries(0, OpPurpose::Translation);
        assert_eq!(mapped, reference.unwrap());
        assert!(fast.flash().scan_valid().eq(slow.flash().scan_valid()));
        assert!(fast.gtd().iter_present().eq(slow.gtd().iter_present()));
        for ppn in 0..fast.flash().geometry().total_pages() as Ppn {
            assert_eq!(fast.flash().program_seq(ppn), slow.flash().program_seq(ppn));
        }
        for block in 0..fast.flash().geometry().num_blocks as u32 {
            assert_eq!(fast.blocks.kind(block), slow.blocks.kind(block));
        }
        assert_eq!(fast.blocks.sealed_blocks(), slow.blocks.sealed_blocks());
        assert_eq!(fast.heat.heat, slow.heat.heat);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut env = SsdEnv::new(tiny_config()).unwrap();
        env.format().unwrap();
        env.note_lookup(true);
        env.note_replacement(true);
        env.reset_stats();
        assert_eq!(env.stats, FtlStats::default());
        assert_eq!(env.flash().stats().total_writes(), 0);
    }

    #[test]
    fn hot_rewrites_leave_the_cold_stream() {
        let mut cfg = tiny_config();
        cfg.streams = crate::config::StreamCount(2);
        let mut env = SsdEnv::new(cfg).unwrap();
        // First writes are cold (count 1 → stream 0)...
        let cold = env.program_data_page(7, OpPurpose::HostData).unwrap();
        let other = env.program_data_page(8, OpPurpose::HostData).unwrap();
        let geom = env.flash().geometry().clone();
        assert_eq!(geom.block_of(cold), geom.block_of(other));
        // ...but a re-written page goes hot (count 2 → stream 1) and must
        // land in a different active block.
        let hot = env.program_data_page(7, OpPurpose::HostData).unwrap();
        assert_ne!(geom.block_of(hot), geom.block_of(cold));
        // A GC migration of the same hot LPN goes to the lane's own block,
        // whatever its heat: into neither stream's.
        let migrated = crate::gc::in_background(&mut env, |env| {
            env.program_data_page(7, OpPurpose::GcData).unwrap()
        });
        let block = geom.block_of(migrated);
        assert!(block != geom.block_of(cold) && block != geom.block_of(hot));
    }

    #[test]
    fn wear_summary_counts_every_block_exactly() {
        let mut env = SsdEnv::new(tiny_config()).unwrap();
        let blocks = env.flash().geometry().num_blocks as u64;
        assert_eq!(env.wear_summary(), (blocks, 0, 0));
        // Program one block full of dead pages (the extra program seals
        // it), then erase it: one block at wear 1.
        let geom = env.flash().geometry().clone();
        for _ in 0..=geom.pages_per_block {
            let ppn = env.program_data_page(1, OpPurpose::HostData).unwrap();
            env.invalidate_page(ppn).unwrap();
        }
        let (victim, _) = env
            .blocks
            .pick_victim(crate::config::GcPolicy::Greedy)
            .unwrap();
        env.flash.erase_block(victim, OpPurpose::GcData).unwrap();
        env.blocks.on_erased(victim);
        assert_eq!(env.wear_summary(), (blocks, 1, 1));
    }

    #[test]
    fn check_lpn_bounds() {
        let env = SsdEnv::new(tiny_config()).unwrap();
        assert!(env.check_lpn(1023).is_ok());
        assert!(matches!(
            env.check_lpn(1024),
            Err(FtlError::OutOfLogicalSpace { lpn: 1024, .. })
        ));
    }
}
