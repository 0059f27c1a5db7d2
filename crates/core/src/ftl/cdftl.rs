//! CDFTL (Qin et al., RTAS'11).
//!
//! CDFTL layers two caches: a first-level **CMT** of individual mapping
//! entries (plain LRU) and a second-level **CTP** that caches a few entire
//! translation pages and serves as the CMT's kick-out buffer. Dirty-entry
//! replacements only occur in the CTP: a dirty CMT victim is absorbed into
//! its cached translation page when present; dirty entries whose page is
//! not cached are not evicted from the CMT unless their page is first
//! brought into the CTP ("dirty entries in CMT won't be replaced unless
//! they are also included in CTP" — Section 2.2 of the TPFTL paper). CTP
//! victims are written back whole (`T_fw`) when dirty.
//!
//! The TPFTL paper drops CDFTL from its plots because it "performs worse
//! than S-FTL in our experiments"; we implement and report it anyway.

use tpftl_flash::{Lpn, OpPurpose, Ppn, Vtpn};

use crate::env::SsdEnv;
use crate::ftl::cmt::{self, mapped, Entry, EntryCache, TpTally, VtpnTable, ENTRY_BYTES};
use crate::ftl::{AccessCtx, Ftl, TpDistEntry};
use crate::lru::{LruIdx, LruList};
use crate::{FtlError, Result, SsdConfig};

/// Header bytes per CTP page.
const PAGE_HEADER_BYTES: usize = 8;

/// Fraction of the usable budget given to the CMT (the rest is CTP).
const CMT_FRAC: f64 = 0.5;

struct CtpPage {
    entries: Vec<Ppn>,
    dirty: bool,
    lru: LruIdx,
}

/// The CDFTL baseline.
pub struct Cdftl {
    cmt_cap: usize,
    ctp_cap_pages: usize,
    cmt: EntryCache,
    ctp: VtpnTable<CtpPage>,
    ctp_lru: LruList<Vtpn>,
    entries_per_tp: usize,
}

impl Cdftl {
    /// Creates a CDFTL splitting the usable budget between CMT entries and
    /// whole CTP pages.
    ///
    /// # Errors
    ///
    /// [`FtlError::CacheTooSmall`] unless at least one CMT entry and one
    /// CTP page fit.
    pub fn new(config: &SsdConfig) -> Result<Self> {
        let budget = config.usable_cache_bytes();
        let page_bytes = PAGE_HEADER_BYTES + 4 * config.entries_per_tp();
        // Aim for an even split but guarantee at least one CTP page (the
        // kick-out buffer is mandatory); the CMT takes what remains.
        let ctp_cap_pages = (((budget as f64) * (1.0 - CMT_FRAC)) as usize / page_bytes).max(1);
        let cmt_cap = budget.saturating_sub(ctp_cap_pages * page_bytes) / ENTRY_BYTES;
        if cmt_cap == 0 {
            return Err(FtlError::CacheTooSmall);
        }
        Ok(Self {
            cmt_cap,
            ctp_cap_pages,
            cmt: EntryCache::new(config.entries_per_tp()),
            ctp: VtpnTable::new(config.num_vtpns() as usize),
            ctp_lru: LruList::new(),
            entries_per_tp: config.entries_per_tp(),
        })
    }

    /// Evicts the LRU CTP page, writing it back whole if dirty.
    fn evict_ctp(&mut self, env: &mut SsdEnv) -> Result<()> {
        let Some((_, &vtpn)) = self.ctp_lru.peek_lru() else {
            return Err(FtlError::CacheTooSmall);
        };
        let page = self.ctp.remove(vtpn).expect("LRU page cached");
        self.ctp_lru.remove(page.lru);
        env.note_replacement(page.dirty);
        if page.dirty {
            env.write_translation_page_full(vtpn, &page.entries, OpPurpose::Translation)?;
        }
        Ok(())
    }

    /// Loads `vtpn` into the CTP (one `T_fr`), evicting as needed.
    fn load_ctp(&mut self, env: &mut SsdEnv, vtpn: Vtpn) -> Result<()> {
        while self.ctp.len() >= self.ctp_cap_pages {
            self.evict_ctp(env)?;
        }
        let entries = env
            .read_translation_entries(vtpn, OpPurpose::Translation)?
            .to_vec();
        let lru = self.ctp_lru.push_mru(vtpn);
        self.ctp.insert(
            vtpn,
            CtpPage {
                entries,
                dirty: false,
                lru,
            },
        );
        Ok(())
    }

    /// Evicts one CMT entry per CDFTL's rule: the LRU entry that is clean
    /// or whose translation page is in the CTP; if every candidate is a
    /// dirty entry with an uncached page, the LRU entry's page is brought
    /// into the CTP first (kick-out buffer role).
    fn evict_cmt(&mut self, env: &mut SsdEnv) -> Result<()> {
        let candidate = self
            .cmt
            .iter_lru()
            .find(|e| !e.dirty || self.ctp.contains(env.vtpn_of(e.lpn)))
            .copied();
        let entry = match candidate {
            Some(e) => e,
            None => {
                let e = *self.cmt.peek_lru().expect("eviction from empty CMT");
                self.load_ctp(env, env.vtpn_of(e.lpn))?;
                e
            }
        };
        env.note_replacement(entry.dirty);
        if entry.dirty {
            let vtpn = env.vtpn_of(entry.lpn);
            let page = &mut self.ctp[vtpn]; // checked or loaded above
            page.entries[env.offset_of(entry.lpn) as usize] = entry.ppn;
            page.dirty = true;
        }
        self.cmt.remove(entry.lpn);
        Ok(())
    }

    /// Inserts into the CMT; the caller must have made room already (CMT
    /// eviction can itself reshuffle the CTP, so room is made *before* the
    /// target page is resolved).
    fn push_cmt(&mut self, lpn: Lpn, ppn: Ppn) {
        debug_assert!(self.cmt.len() < self.cmt_cap);
        self.cmt.insert_mru(Entry::clean(lpn, ppn));
    }
}

impl Ftl for Cdftl {
    fn name(&self) -> String {
        "CDFTL".to_string()
    }

    fn translate(&mut self, env: &mut SsdEnv, lpn: Lpn, _ctx: &AccessCtx) -> Result<Option<Ppn>> {
        if let Some(e) = self.cmt.touch(lpn) {
            env.note_lookup(true);
            return Ok(mapped(e.ppn));
        }
        let vtpn = env.vtpn_of(lpn);
        let off = env.offset_of(lpn) as usize;
        // Make CMT room first: evicting a dirty CMT entry can pull its own
        // page into the CTP, which must not displace the page resolved
        // below.
        while self.cmt.len() >= self.cmt_cap {
            self.evict_cmt(env)?;
        }
        if let Some(page) = self.ctp.get(vtpn) {
            // Second-level hit: no flash traffic, copy into the CMT.
            env.note_lookup(true);
            let ppn = page.entries[off];
            let idx = page.lru;
            self.ctp_lru.touch(idx);
            self.push_cmt(lpn, ppn);
            return Ok(mapped(ppn));
        }
        env.note_lookup(false);
        self.load_ctp(env, vtpn)?;
        let ppn = self.ctp[vtpn].entries[off];
        self.push_cmt(lpn, ppn);
        Ok(mapped(ppn))
    }

    fn update_mapping(&mut self, _env: &mut SsdEnv, lpn: Lpn, new_ppn: Ppn) -> Result<()> {
        self.cmt
            .get_mut(lpn)
            .expect("update_mapping contract: entry was translated immediately before")
            .remap(new_ppn);
        Ok(())
    }

    fn on_gc_data_block(&mut self, env: &mut SsdEnv, moved: &[(Lpn, Ppn)]) -> Result<u64> {
        cmt::absorb_gc_moves(
            self,
            env,
            moved,
            |ftl, env, lpn, new_ppn| {
                if let Some(e) = ftl.cmt.get_mut(lpn) {
                    e.remap(new_ppn);
                } else if let Some(page) = ftl.ctp.get_mut(env.vtpn_of(lpn)) {
                    page.entries[env.offset_of(lpn) as usize] = new_ppn;
                    page.dirty = true;
                } else {
                    return Ok(false);
                }
                Ok(true)
            },
            |_, _, _, _| {},
        )
    }

    fn cache_bytes_used(&self) -> usize {
        self.cmt.len() * ENTRY_BYTES
            + self.ctp.len() * (PAGE_HEADER_BYTES + 4 * self.entries_per_tp)
    }

    fn cached_entries(&self) -> usize {
        self.cmt.len() + self.ctp.len() * self.entries_per_tp
    }

    fn peek_cached(&self, env: &SsdEnv, lpn: Lpn) -> crate::Result<Option<Option<Ppn>>> {
        if let Some(e) = self.cmt.get(lpn) {
            return Ok(Some(mapped(e.ppn)));
        }
        Ok(self
            .ctp
            .get(env.vtpn_of(lpn))
            .map(|page| mapped(page.entries[env.offset_of(lpn) as usize])))
    }

    fn mark_clean(&mut self, vtpn: Vtpn) {
        // Sync dirty CMT values into the cached page (now equal to flash)
        // and clear both dirty states.
        let mut page = self.ctp.get_mut(vtpn);
        let per_tp = self.entries_per_tp;
        self.cmt.clean_vtpn(vtpn, |e| {
            if let Some(page) = &mut page {
                page.entries[e.lpn as usize % per_tp] = e.ppn;
            }
        });
        if let Some(page) = page {
            page.dirty = false;
        }
    }

    fn cached_tp_distribution(&self) -> Vec<TpDistEntry> {
        let mut tally = TpTally::default();
        self.cmt.tally(&mut tally);
        for (vtpn, p) in self.ctp.iter() {
            tally.add(vtpn, p.entries.len() as u32, p.dirty as u32);
        }
        tally.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver;
    use tpftl_flash::PPN_NONE;

    /// 8 MB device; CMT of `cmt_entries`, CTP of `ctp_pages`.
    fn setup(cmt_entries: usize, ctp_pages: usize) -> (Cdftl, SsdEnv) {
        let mut config = SsdConfig::paper_default(8 << 20);
        let page_bytes = PAGE_HEADER_BYTES + 4 * config.entries_per_tp();
        // CMT_FRAC splits 50/50, so size the budget accordingly.
        let budget = (cmt_entries * ENTRY_BYTES * 2).max(ctp_pages * page_bytes * 2);
        config.cache_bytes = config.gtd_bytes() + budget;
        let mut env = SsdEnv::new(config.clone()).unwrap();
        let mut ftl = Cdftl::new(&config).unwrap();
        // Override the derived capacities for precise tests.
        ftl.cmt_cap = cmt_entries;
        ftl.ctp_cap_pages = ctp_pages;
        driver::bootstrap(&mut ftl, &mut env).unwrap();
        (ftl, env)
    }

    #[test]
    fn cache_too_small_rejected() {
        let mut config = SsdConfig::paper_default(8 << 20);
        config.cache_bytes = config.gtd_bytes() + 1024;
        assert!(matches!(Cdftl::new(&config), Err(FtlError::CacheTooSmall)));
    }

    #[test]
    fn two_level_hits() {
        let (mut ftl, mut env) = setup(4, 1);
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(false)).unwrap();
        assert_eq!(env.stats.hits, 0);
        // Same entry: CMT hit.
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(false)).unwrap();
        assert_eq!(env.stats.hits, 1);
        // Different entry of the same page: CTP hit, no flash read.
        let tr = env.flash().stats().translation_reads();
        driver::serve_page_access(&mut ftl, &mut env, 500, AccessCtx::single(false)).unwrap();
        assert_eq!(env.stats.hits, 2);
        assert_eq!(env.flash().stats().translation_reads(), tr);
    }

    #[test]
    fn dirty_cmt_victim_absorbed_by_ctp() {
        let (mut ftl, mut env) = setup(2, 1);
        // Write LPN 0 (dirty in CMT, page 0 in CTP).
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(true)).unwrap();
        let tw = env.flash().stats().translation_writes();
        // Fill the CMT past capacity with same-page reads: the dirty entry
        // is absorbed into the CTP page, with NO translation write.
        for lpn in 1..4u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(false)).unwrap();
        }
        assert_eq!(env.flash().stats().translation_writes(), tw);
        let page = &ftl.ctp[0];
        assert!(page.dirty, "CTP page carries the absorbed update");
        assert_ne!(page.entries[0], PPN_NONE);
    }

    #[test]
    fn dirty_ctp_eviction_writes_full_page() {
        let (mut ftl, mut env) = setup(8, 1);
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(true)).unwrap();
        // Absorb the dirty entry into the CTP by cycling the CMT.
        for lpn in 1..9u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(false)).unwrap();
        }
        let (tr, tw) = (
            env.flash().stats().translation_reads(),
            env.flash().stats().translation_writes(),
        );
        // Load the other page: the dirty CTP page is written back whole.
        driver::serve_page_access(&mut ftl, &mut env, 1500, AccessCtx::single(false)).unwrap();
        assert_eq!(env.flash().stats().translation_writes(), tw + 1);
        // One read for the new page, none for the writeback.
        assert_eq!(env.flash().stats().translation_reads(), tr + 1);
        // Durable: re-reading LPN 0 resolves to a valid page.
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(false)).unwrap();
    }

    #[test]
    fn dirty_cmt_victim_with_uncached_page_pulls_page_in() {
        let (mut ftl, mut env) = setup(1, 1);
        // Write LPN 0: CMT holds one dirty entry, CTP holds page 0.
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(true)).unwrap();
        // Write LPN 1500 (page 1): CMT must evict the dirty entry 0, but
        // first its page is kicked out of the CTP by page 1... so the
        // eviction pulls page 0 back in. Everything must stay consistent.
        driver::serve_page_access(&mut ftl, &mut env, 1500, AccessCtx::single(true)).unwrap();
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(false)).unwrap();
        driver::serve_page_access(&mut ftl, &mut env, 1500, AccessCtx::single(false)).unwrap();
    }

    #[test]
    fn consistency_under_random_mix() {
        let (mut ftl, mut env) = setup(16, 1);
        for i in 0..2000u32 {
            let lpn = (i * 701) % 2048;
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(i % 3 != 0))
                .unwrap();
            assert!(ftl.cmt.len() <= 16);
            assert!(ftl.ctp.len() <= 1);
        }
        // Every valid data page is uniquely mapped.
        let mut seen = std::collections::HashSet::new();
        for (_, tag, is_tp) in env.flash().scan_valid() {
            if !is_tp {
                assert!(seen.insert(tag), "LPN {tag} has two valid pages");
            }
        }
    }
}
