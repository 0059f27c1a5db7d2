//! S-FTL (Jiang et al., MSST'11).
//!
//! S-FTL's caching object is an *entire translation page*, shrunk according
//! to the sequentiality of the PPNs it holds: consecutive LPNs mapped to
//! consecutive PPNs collapse into one run, so a page costs
//! `8 + 8 × runs` bytes in the cache (capped at the raw `8 + 4 × entries`).
//! Cached pages live in an LRU list; a victim writeback programs the whole
//! page from the cached copy, costing `T_fw` only (the special case noted
//! under Equation 1 of the TPFTL paper).
//!
//! A small *dirty buffer* is reserved to postpone the replacement of
//! sparsely dispersed dirty entries: when an evicted page holds only a few
//! dirty entries, they are parked in the buffer (8 B each) instead of
//! forcing a page write; when the buffer fills, the entries sharing one
//! translation page are flushed in a batch (the ZFTL-style batch eviction
//! the TPFTL paper mentions). This makes S-FTL behave well on random
//! workloads while its page granularity exploits sequential ones.

use tpftl_flash::{Lpn, OpPurpose, Ppn, Vtpn, PPN_NONE};

use crate::env::SsdEnv;
use crate::ftl::cmt::{self, mapped, Entry, EntryCache, TpTally, VtpnTable, ENTRY_BYTES};
use crate::ftl::{AccessCtx, Ftl, TpDistEntry};
use crate::lru::{LruIdx, LruList};
use crate::{FtlError, Result, SsdConfig};

/// Per-page header bytes (VTPN, size, list links).
const PAGE_HEADER_BYTES: usize = 8;

/// Bytes per run descriptor (start offset, start PPN, length).
const RUN_BYTES: usize = 8;

/// A victim page with at most this many dirty entries is "sparse": its
/// dirty entries are parked in the dirty buffer instead of forcing a
/// full-page writeback.
const SPARSE_DIRTY_MAX: u32 = 8;

/// Counts the compression runs of a payload: maximal stretches where
/// `ppn[i+1] == ppn[i] + 1` (unmapped stretches of `PPN_NONE` also form
/// runs).
pub(crate) fn count_runs(entries: &[Ppn]) -> usize {
    if entries.is_empty() {
        return 0;
    }
    1 + entries.windows(2).filter(|w| !succ(w[0], w[1])).count()
}

/// Whether `b` continues a run started by `a`.
#[inline]
fn succ(a: Ppn, b: Ppn) -> bool {
    if a == PPN_NONE {
        b == PPN_NONE
    } else {
        b != PPN_NONE && b == a.wrapping_add(1)
    }
}

/// Change in run count when `entries[off]` is replaced by `new`, without a
/// full recount: only the two boundaries around `off` can change.
fn run_delta(entries: &[Ppn], off: usize, new: Ppn) -> isize {
    let old = entries[off];
    let mut breaks_before = 0isize;
    let mut breaks_after = 0isize;
    if off > 0 {
        breaks_before += !succ(entries[off - 1], old) as isize;
        breaks_after += !succ(entries[off - 1], new) as isize;
    }
    if off + 1 < entries.len() {
        breaks_before += !succ(old, entries[off + 1]) as isize;
        breaks_after += !succ(new, entries[off + 1]) as isize;
    }
    breaks_after - breaks_before
}

struct CachedPage {
    entries: Vec<Ppn>,
    /// Dirty bitmap, one bit per entry.
    dirty: Vec<u64>,
    dirty_count: u32,
    runs: usize,
    lru: LruIdx,
}

impl CachedPage {
    fn bytes(&self) -> usize {
        (PAGE_HEADER_BYTES + RUN_BYTES * self.runs).min(PAGE_HEADER_BYTES + 4 * self.entries.len())
    }

    fn is_dirty_at(&self, off: usize) -> bool {
        self.dirty[off / 64] >> (off % 64) & 1 == 1
    }

    fn set_dirty_at(&mut self, off: usize) {
        if !self.is_dirty_at(off) {
            self.dirty[off / 64] |= 1 << (off % 64);
            self.dirty_count += 1;
        }
    }

    /// Applies `new` at `off`, maintaining runs and the dirty bitmap.
    fn update(&mut self, off: usize, new: Ppn) {
        let delta = run_delta(&self.entries, off, new);
        self.runs = (self.runs as isize + delta) as usize;
        self.entries[off] = new;
        self.set_dirty_at(off);
    }

    fn dirty_offsets(&self) -> Vec<u16> {
        (0..self.entries.len())
            .filter(|&o| self.is_dirty_at(o))
            .map(|o| o as u16)
            .collect()
    }
}

/// The S-FTL baseline.
pub struct Sftl {
    /// Budget for cached pages.
    page_budget: usize,
    /// Budget for the dirty buffer.
    dbuf_budget: usize,
    pages: VtpnTable<CachedPage>,
    page_lru: LruList<Vtpn>,
    pages_bytes: usize,
    /// Dirty buffer: every entry is dirty; the LRU entry names the next
    /// batch to flush.
    dbuf: EntryCache,
    entries_per_tp: usize,
}

impl Sftl {
    /// Creates an S-FTL sized to the config's usable cache budget; 10 % of
    /// it is reserved as the dirty buffer.
    ///
    /// # Errors
    ///
    /// [`FtlError::CacheTooSmall`] if an incompressible page cannot fit.
    pub fn new(config: &SsdConfig) -> Result<Self> {
        let budget = config.usable_cache_bytes();
        let dbuf_budget = (budget / 10).max(2 * ENTRY_BYTES);
        let page_budget = budget.saturating_sub(dbuf_budget);
        let worst_page = PAGE_HEADER_BYTES + 4 * config.entries_per_tp();
        if page_budget < worst_page {
            return Err(FtlError::CacheTooSmall);
        }
        Ok(Self {
            page_budget,
            dbuf_budget,
            pages: VtpnTable::new(config.num_vtpns() as usize),
            page_lru: LruList::new(),
            pages_bytes: 0,
            dbuf: EntryCache::new(config.entries_per_tp()),
            entries_per_tp: config.entries_per_tp(),
        })
    }

    fn dbuf_bytes(&self) -> usize {
        self.dbuf.len() * ENTRY_BYTES
    }

    /// Flushes the dirty-buffer batch containing its LRU entry: every
    /// buffered entry of the same translation page goes out in one
    /// read-modify-write update.
    fn flush_dbuf_batch(&mut self, env: &mut SsdEnv) -> Result<()> {
        let Some(lru) = self.dbuf.peek_lru() else {
            return Ok(());
        };
        let vtpn = env.vtpn_of(lru.lpn);
        let mut updates: Vec<(u16, Ppn)> = self
            .dbuf
            .take_vtpn(vtpn)
            .iter()
            .map(|e| (env.offset_of(e.lpn), e.ppn))
            .collect();
        updates.sort_unstable_by_key(|u| u.0);
        env.note_replacement(true);
        env.update_translation_page(vtpn, &updates, OpPurpose::Translation)
    }

    fn put_dbuf(&mut self, env: &mut SsdEnv, lpn: Lpn, ppn: Ppn) -> Result<()> {
        if let Some(e) = self.dbuf.touch(lpn) {
            e.ppn = ppn;
            return Ok(());
        }
        while self.dbuf_bytes() + ENTRY_BYTES > self.dbuf_budget {
            self.flush_dbuf_batch(env)?;
        }
        self.dbuf.insert_mru(Entry::dirty(lpn, ppn));
        Ok(())
    }

    /// Evicts the LRU page: a densely dirty page is written back whole
    /// (`T_fw`); a sparsely dirty page parks its dirty entries in the
    /// buffer; a clean page is dropped.
    fn evict_page(&mut self, env: &mut SsdEnv) -> Result<()> {
        let Some((_, &vtpn)) = self.page_lru.peek_lru() else {
            return Err(FtlError::CacheTooSmall);
        };
        let page = self.pages.remove(vtpn).expect("LRU page cached");
        self.page_lru.remove(page.lru);
        self.pages_bytes -= page.bytes();
        if page.dirty_count == 0 {
            env.note_replacement(false);
        } else if page.dirty_count <= SPARSE_DIRTY_MAX {
            // Postpone sparse dirty entries via the dirty buffer.
            env.note_replacement(false);
            let base = vtpn * self.entries_per_tp as u32;
            for off in page.dirty_offsets() {
                self.put_dbuf(env, base + off as u32, page.entries[off as usize])?;
            }
        } else {
            env.note_replacement(true);
            env.write_translation_page_full(vtpn, &page.entries, OpPurpose::Translation)?;
        }
        Ok(())
    }

    /// Loads translation page `vtpn` into the cache (one `T_fr`), merging
    /// any buffered dirty entries of that page.
    fn load_page(&mut self, env: &mut SsdEnv, vtpn: Vtpn) -> Result<()> {
        let entries = env
            .read_translation_entries(vtpn, OpPurpose::Translation)?
            .to_vec();
        let words = entries.len().div_ceil(64);
        let mut page = CachedPage {
            runs: count_runs(&entries),
            entries,
            dirty: vec![0; words],
            dirty_count: 0,
            lru: self.page_lru.push_mru(vtpn),
        };
        // Merge buffered entries (they are newer than the flash copy).
        let base = vtpn * self.entries_per_tp as u32;
        for e in self.dbuf.take_vtpn(vtpn) {
            page.update((e.lpn - base) as usize, e.ppn);
        }
        // Make room, then insert (the fresh page is never the victim).
        while self.pages_bytes + page.bytes() > self.page_budget {
            self.evict_page(env)?;
        }
        self.pages_bytes += page.bytes();
        self.pages.insert(vtpn, page);
        Ok(())
    }

    /// Applies an update to a cached page, maintaining size accounting and
    /// re-shrinking to budget if fragmentation grew the page.
    fn update_cached(&mut self, env: &mut SsdEnv, vtpn: Vtpn, off: usize, ppn: Ppn) -> Result<()> {
        let page = &mut self.pages[vtpn]; // the caller checked
        let before = page.bytes();
        page.update(off, ppn);
        let after = page.bytes();
        self.pages_bytes = self.pages_bytes - before + after;
        while self.pages_bytes > self.page_budget {
            self.evict_page(env)?;
        }
        Ok(())
    }
}

impl Ftl for Sftl {
    fn name(&self) -> String {
        "S-FTL".to_string()
    }

    fn translate(&mut self, env: &mut SsdEnv, lpn: Lpn, _ctx: &AccessCtx) -> Result<Option<Ppn>> {
        let vtpn = env.vtpn_of(lpn);
        let off = env.offset_of(lpn) as usize;
        if let Some(page) = self.pages.get(vtpn) {
            env.note_lookup(true);
            let ppn = page.entries[off];
            let idx = page.lru;
            self.page_lru.touch(idx);
            return Ok(mapped(ppn));
        }
        if let Some(e) = self.dbuf.touch(lpn) {
            env.note_lookup(true);
            return Ok(Some(e.ppn));
        }
        env.note_lookup(false);
        self.load_page(env, vtpn)?;
        Ok(mapped(self.pages[vtpn].entries[off]))
    }

    fn update_mapping(&mut self, env: &mut SsdEnv, lpn: Lpn, new_ppn: Ppn) -> Result<()> {
        let vtpn = env.vtpn_of(lpn);
        let off = env.offset_of(lpn) as usize;
        if self.pages.contains(vtpn) {
            self.update_cached(env, vtpn, off, new_ppn)
        } else {
            // The preceding translate hit the dirty buffer.
            self.put_dbuf(env, lpn, new_ppn)
        }
    }

    fn on_gc_data_block(&mut self, env: &mut SsdEnv, moved: &[(Lpn, Ppn)]) -> Result<u64> {
        cmt::absorb_gc_moves(
            self,
            env,
            moved,
            |ftl, env, lpn, new_ppn| {
                let vtpn = env.vtpn_of(lpn);
                if ftl.pages.contains(vtpn) {
                    ftl.update_cached(env, vtpn, env.offset_of(lpn) as usize, new_ppn)?;
                } else if let Some(e) = ftl.dbuf.get_mut(lpn) {
                    e.ppn = new_ppn;
                } else {
                    return Ok(false);
                }
                Ok(true)
            },
            |_, _, _, _| {},
        )
    }

    fn cache_bytes_used(&self) -> usize {
        self.pages_bytes + self.dbuf_bytes()
    }

    fn cached_entries(&self) -> usize {
        self.pages.len() * self.entries_per_tp + self.dbuf.len()
    }

    fn peek_cached(&self, env: &SsdEnv, lpn: Lpn) -> crate::Result<Option<Option<Ppn>>> {
        if let Some(page) = self.pages.get(env.vtpn_of(lpn)) {
            return Ok(Some(mapped(page.entries[env.offset_of(lpn) as usize])));
        }
        Ok(self.dbuf.get(lpn).map(|e| mapped(e.ppn)))
    }

    fn mark_clean(&mut self, vtpn: Vtpn) {
        if let Some(page) = self.pages.get_mut(vtpn) {
            page.dirty.iter_mut().for_each(|w| *w = 0);
            page.dirty_count = 0;
        }
        // Flushed buffer entries are persisted; drop them from the buffer.
        self.dbuf.take_vtpn(vtpn);
    }

    fn cached_tp_distribution(&self) -> Vec<TpDistEntry> {
        let mut tally = TpTally::default();
        for (vtpn, p) in self.pages.iter() {
            tally.add(vtpn, p.entries.len() as u32, p.dirty_count);
        }
        // Dirty-buffer entries are cached (and dirty) too.
        self.dbuf.tally(&mut tally);
        tally.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver;
    use crate::ftl::AccessCtx;

    #[test]
    fn run_counting() {
        assert_eq!(count_runs(&[]), 0);
        assert_eq!(count_runs(&[5]), 1);
        assert_eq!(count_runs(&[5, 6, 7]), 1);
        assert_eq!(count_runs(&[5, 7, 8]), 2);
        assert_eq!(count_runs(&[PPN_NONE, PPN_NONE, 3, 4, 9]), 3);
        assert_eq!(count_runs(&[1, PPN_NONE, 2]), 3);
    }

    #[test]
    fn run_delta_matches_recount() {
        // Exhaustive over a small space: every single-position update.
        let vals = [0u32, 1, 2, 3, PPN_NONE];
        let mut entries = vec![0u32, 1, 5, PPN_NONE, 9, 10];
        for off in 0..entries.len() {
            for &new in &vals {
                let before = count_runs(&entries) as isize;
                let delta = run_delta(&entries, off, new);
                let old = entries[off];
                entries[off] = new;
                assert_eq!(
                    count_runs(&entries) as isize,
                    before + delta,
                    "off={off} old={old} new={new}"
                );
                entries[off] = old;
            }
        }
    }

    /// 8 MB device (2 translation pages); `budget` bytes usable cache.
    fn setup(budget: usize) -> (Sftl, SsdEnv) {
        let mut config = SsdConfig::paper_default(8 << 20);
        config.cache_bytes = config.gtd_bytes() + budget;
        let mut env = SsdEnv::new(config.clone()).unwrap();
        let mut ftl = Sftl::new(&config).unwrap();
        driver::bootstrap(&mut ftl, &mut env).unwrap();
        (ftl, env)
    }

    #[test]
    fn cache_too_small_rejected() {
        let mut config = SsdConfig::paper_default(8 << 20);
        config.cache_bytes = config.gtd_bytes() + 512;
        assert!(matches!(Sftl::new(&config), Err(FtlError::CacheTooSmall)));
    }

    #[test]
    fn page_granular_hit_after_one_miss() {
        let (mut ftl, mut env) = setup(8 << 10);
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(false)).unwrap();
        assert_eq!(env.stats.hits, 0);
        // Any entry of the same page now hits.
        for lpn in 1..100u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(false)).unwrap();
        }
        assert_eq!(env.stats.hits, 99);
        assert_eq!(env.flash().stats().translation_reads(), 1);
    }

    #[test]
    fn formatted_page_is_maximally_compressed() {
        let (mut ftl, mut env) = setup(8 << 10);
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(false)).unwrap();
        // All entries PPN_NONE: one run.
        assert_eq!(ftl.pages[0].runs, 1);
        assert_eq!(ftl.cache_bytes_used(), PAGE_HEADER_BYTES + RUN_BYTES);
    }

    #[test]
    fn prefilled_sequential_page_stays_compressed() {
        let mut config = SsdConfig::paper_default(8 << 20);
        config.cache_bytes = config.gtd_bytes() + (8 << 10);
        config.prefill_frac = 1.0;
        let mut env = SsdEnv::new(config.clone()).unwrap();
        let mut ftl = Sftl::new(&config).unwrap();
        driver::bootstrap(&mut ftl, &mut env).unwrap();
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(false)).unwrap();
        // Sequential prefill -> PPNs are consecutive -> very few runs.
        assert!(ftl.pages[0].runs <= 2, "runs={}", ftl.pages[0].runs);
    }

    #[test]
    fn fragmentation_grows_page_size() {
        let (mut ftl, mut env) = setup(8 << 10);
        // Scattered writes fragment the page's PPN space.
        for i in 0..20u32 {
            driver::serve_page_access(&mut ftl, &mut env, i * 37, AccessCtx::single(true)).unwrap();
        }
        let page = &ftl.pages[0];
        assert!(page.runs > 20, "runs={}", page.runs);
        assert_eq!(ftl.pages_bytes, page.bytes());
    }

    #[test]
    fn sparse_dirty_eviction_parks_in_buffer() {
        let (mut ftl, mut env) = setup(4800);
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(true)).unwrap();
        driver::serve_page_access(&mut ftl, &mut env, 1, AccessCtx::single(true)).unwrap();
        let tw = env.flash().stats().translation_writes();
        // Evict page 0 (2 dirty entries, sparse): parked, not written.
        ftl.evict_page(&mut env).unwrap();
        assert_eq!(
            env.flash().stats().translation_writes(),
            tw,
            "postponed, not written"
        );
        assert_eq!(ftl.dbuf.len(), 2);
        assert_eq!(env.stats.dirty_replacements, 0);
        // The buffered mappings still translate correctly (dbuf hits).
        let hits = env.stats.hits;
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(false)).unwrap();
        assert_eq!(env.stats.hits, hits + 1);
    }

    #[test]
    fn dense_dirty_eviction_writes_full_page() {
        let (mut ftl, mut env) = setup(4800);
        // Dirty more than SPARSE_DIRTY_MAX entries of page 0.
        for lpn in 0..(SPARSE_DIRTY_MAX + 4) {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(true)).unwrap();
        }
        let tr = env.flash().stats().translation_reads();
        let tw = env.flash().stats().translation_writes();
        ftl.evict_page(&mut env).unwrap();
        // Full-page writeback: one write and NO read (the cache holds the
        // whole page).
        assert_eq!(env.flash().stats().translation_writes(), tw + 1);
        assert_eq!(env.flash().stats().translation_reads(), tr);
        assert_eq!(env.stats.dirty_replacements, 1);
        // Written-back mappings are durable.
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(false)).unwrap();
    }

    #[test]
    fn dbuf_overflow_flushes_batch_per_page() {
        let (mut ftl, mut env) = setup(4800);
        // dbuf budget = budget/10 bytes.
        let cap_entries = ftl.dbuf_budget / ENTRY_BYTES;
        // Park dirty entries two at a time via sparse evictions until the
        // buffer must have overflowed.
        let mut next = 0u32;
        while (next as usize) < cap_entries + 4 {
            driver::serve_page_access(&mut ftl, &mut env, next, AccessCtx::single(true)).unwrap();
            driver::serve_page_access(&mut ftl, &mut env, next + 1, AccessCtx::single(true))
                .unwrap();
            ftl.evict_page(&mut env).unwrap();
            next += 2;
        }
        // The buffer stayed within budget and flushed at least one batch.
        assert!(ftl.dbuf_bytes() <= ftl.dbuf_budget);
        assert!(env.flash().stats().translation_writes() > 0);
        // All mappings still resolve.
        for lpn in 0..next {
            let ppn = ftl
                .translate(&mut env, lpn, &AccessCtx::single(false))
                .unwrap()
                .expect("written page mapped");
            env.read_data_page(ppn, lpn).unwrap();
        }
    }

    #[test]
    fn gc_updates_cached_page_and_buffer() {
        let (mut ftl, mut env) = setup(8 << 10);
        driver::serve_page_access(&mut ftl, &mut env, 5, AccessCtx::single(true)).unwrap();
        let new_ppn = env
            .program_data_page(5, tpftl_flash::OpPurpose::GcData)
            .unwrap();
        let hits = ftl.on_gc_data_block(&mut env, &[(5, new_ppn)]).unwrap();
        assert_eq!(hits, 1);
        assert_eq!(ftl.pages[0].entries[5], new_ppn);
        // A miss goes to flash, batched.
        let other = env
            .program_data_page(2000, tpftl_flash::OpPurpose::GcData)
            .unwrap();
        // Ensure a miss by evicting every cached page (page 0's one dirty
        // entry is parked in the buffer, not written).
        while ftl.pages.len() > 0 {
            ftl.evict_page(&mut env).unwrap();
        }
        let tw = env.flash().stats().translation_writes();
        let hits = ftl.on_gc_data_block(&mut env, &[(2000, other)]).unwrap();
        assert_eq!(hits, 0);
        assert_eq!(env.flash().stats().translation_writes(), tw + 1);
    }

    #[test]
    fn budget_respected_under_random_workload() {
        let (mut ftl, mut env) = setup((8 << 10) + 300);
        for i in 0..3000u32 {
            let lpn = (i * 701) % 2048;
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(i % 3 != 0))
                .unwrap();
            assert!(
                ftl.pages_bytes <= ftl.page_budget && ftl.dbuf_bytes() <= ftl.dbuf_budget,
                "budget exceeded at access {i}"
            );
        }
        // Size accounting is exact.
        let expect: usize = ftl.pages.iter().map(|(_, p)| p.bytes()).sum();
        assert_eq!(ftl.pages_bytes, expect);
        // No LPN is simultaneously in a cached page and the dirty buffer.
        for e in ftl.dbuf.iter_lru() {
            assert!(!ftl.pages.contains(env.vtpn_of(e.lpn)));
        }
    }
}
