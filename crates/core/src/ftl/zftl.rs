//! ZFTL (Wang, Zhang, Wang — ICCT 2011), as characterized in Section 2.2
//! of the TPFTL paper.
//!
//! ZFTL divides the logical space into *zones* and "only caches the
//! mapping information of a recently accessed Zone": a two-tier mechanism
//! whose second tier holds one *active translation page* and whose first
//! tier is an entry cache with a small reserved area used "to conduct
//! batch evictions". The design keeps cache consumption small and stable,
//! but "Zone switches are cumbersome and incur significant overhead" — an
//! access outside the active zone flushes every dirty entry and drops the
//! cached state, which this implementation reproduces (and the tests
//! measure).
//!
//! Not part of the paper's evaluation; included to round out the
//! related-work baselines.

use tpftl_flash::{Lpn, OpPurpose, Ppn, Vtpn};

use crate::env::SsdEnv;
use crate::ftl::cmt::{self, mapped, Entry, EntryCache, PageStep, TpTally, ENTRY_BYTES};
use crate::ftl::{AccessCtx, Ftl, TpDistEntry};
use crate::{FtlError, Result, SsdConfig};

/// Fraction of the first-tier budget reserved for the batch-eviction area.
const RESERVE_FRAC: f64 = 0.25;

/// The ZFTL baseline.
pub struct Zftl {
    /// Number of zones the logical space is divided into.
    zones: u32,
    /// Logical pages per zone.
    zone_pages: u32,
    /// Zone whose mappings are currently cached (`None` before first use).
    active_zone: Option<u32>,
    /// First tier: entry cache (active zone only).
    entries: EntryCache,
    cap_entries: usize,
    /// Reserved batch-eviction area: dirty victims parked until a batch
    /// sharing one translation page is flushed. Recency is never used.
    reserve: EntryCache,
    reserve_cap: usize,
    /// Second tier: the active translation page (full copy, clean).
    active_tp: Option<(Vtpn, Vec<Ppn>)>,
    entries_per_tp: usize,
    /// Zone switches performed (the overhead the paper calls out).
    zone_switches: u64,
}

/// Keeps the second tier coherent with updates persisted to `vtpn`.
fn patch_active_tp(active_tp: &mut Option<(Vtpn, Vec<Ppn>)>, vtpn: Vtpn, batch: &[(u16, Ppn)]) {
    if let Some((active_vtpn, payload)) = active_tp {
        if *active_vtpn == vtpn {
            for &(off, ppn) in batch {
                payload[off as usize] = ppn;
            }
        }
    }
}

impl Zftl {
    /// Creates a ZFTL with `zones` zones, sized to the config's usable
    /// cache budget (one full translation page for the second tier, the
    /// rest split between first-tier entries and the eviction reserve).
    ///
    /// # Errors
    ///
    /// [`FtlError::CacheTooSmall`] if the second-tier page does not fit.
    pub fn new(config: &SsdConfig, zones: u32) -> Result<Self> {
        assert!(zones >= 1, "at least one zone");
        let budget = config.usable_cache_bytes();
        let tp_bytes = 4 * config.entries_per_tp() + 8;
        let first_tier = budget.saturating_sub(tp_bytes);
        let reserve_cap = ((first_tier as f64 * RESERVE_FRAC) as usize / ENTRY_BYTES).max(2);
        let cap_entries = (first_tier / ENTRY_BYTES).saturating_sub(reserve_cap);
        if budget < tp_bytes || cap_entries == 0 {
            return Err(FtlError::CacheTooSmall);
        }
        let logical_pages = config.logical_pages() as u32;
        Ok(Self {
            zones,
            zone_pages: logical_pages.div_ceil(zones),
            active_zone: None,
            entries: EntryCache::new(config.entries_per_tp()),
            cap_entries,
            reserve: EntryCache::new(config.entries_per_tp()),
            reserve_cap,
            active_tp: None,
            entries_per_tp: config.entries_per_tp(),
            zone_switches: 0,
        })
    }

    /// ZFTL with 8 zones.
    pub fn with_defaults(config: &SsdConfig) -> Result<Self> {
        Self::new(config, 8)
    }

    /// Zone switches performed so far.
    pub fn zone_switches(&self) -> u64 {
        self.zone_switches
    }

    fn zone_of(&self, lpn: Lpn) -> u32 {
        lpn / self.zone_pages
    }

    /// Flushes the batch-eviction reserve, one update per translation page.
    fn flush_reserve(&mut self, env: &mut SsdEnv) -> Result<()> {
        let mut updates: Vec<(Lpn, Ppn)> = Vec::with_capacity(self.reserve.len());
        while let Some(e) = self.reserve.pop_lru() {
            updates.push((e.lpn, e.ppn));
        }
        updates.sort_unstable_by_key(|&(l, _)| l);
        let active_tp = &mut self.active_tp;
        cmt::write_back_by_tp(
            env,
            &updates,
            OpPurpose::Translation,
            |env, vtpn, step| match step {
                PageStep::Gather(_) => env.note_replacement(true),
                PageStep::Persisted(batch) => patch_active_tp(active_tp, vtpn, batch),
            },
        )
    }

    /// Parks a dirty first-tier victim in the reserve, flushing the reserve
    /// in batches when it fills.
    fn park(&mut self, env: &mut SsdEnv, victim: Entry) -> Result<()> {
        self.reserve.insert_mru(victim);
        if self.reserve.len() >= self.reserve_cap {
            self.flush_reserve(env)?;
        }
        Ok(())
    }

    /// The cumbersome zone switch: flush every dirty first-tier entry and
    /// the reserve, then drop all cached state.
    fn switch_zone(&mut self, env: &mut SsdEnv, zone: u32) -> Result<()> {
        if self.active_zone == Some(zone) {
            return Ok(());
        }
        self.zone_switches += 1;
        // Park every dirty entry in the reserve (flushing as it fills),
        // then flush the remainder.
        while let Some(e) = self.entries.pop_lru() {
            if e.dirty {
                self.park(env, e)?;
            }
        }
        self.flush_reserve(env)?;
        self.active_tp = None;
        self.active_zone = Some(zone);
        Ok(())
    }

    /// Evicts the first-tier LRU entry; dirty victims go to the reserve
    /// (batched flush when it fills).
    fn evict_entry(&mut self, env: &mut SsdEnv) -> Result<()> {
        let victim = self.entries.pop_lru().ok_or(FtlError::CacheTooSmall)?;
        env.note_replacement(victim.dirty);
        if victim.dirty {
            self.park(env, victim)?;
        }
        Ok(())
    }

    fn insert_entry(&mut self, env: &mut SsdEnv, lpn: Lpn, ppn: Ppn) -> Result<()> {
        while self.entries.len() >= self.cap_entries {
            self.evict_entry(env)?;
        }
        self.entries.insert_mru(Entry::clean(lpn, ppn));
        Ok(())
    }
}

impl Ftl for Zftl {
    fn name(&self) -> String {
        format!("ZFTL({})", self.zones)
    }

    fn translate(&mut self, env: &mut SsdEnv, lpn: Lpn, _ctx: &AccessCtx) -> Result<Option<Ppn>> {
        self.switch_zone(env, self.zone_of(lpn))?;
        // First tier.
        if let Some(e) = self.entries.touch(lpn) {
            env.note_lookup(true);
            return Ok(mapped(e.ppn));
        }
        // Eviction reserve still holds the freshest value.
        if let Some(e) = self.reserve.get(lpn) {
            env.note_lookup(true);
            return Ok(Some(e.ppn));
        }
        let vtpn = env.vtpn_of(lpn);
        let off = env.offset_of(lpn) as usize;
        // Second tier: the active translation page, loaded on a miss.
        let hit = self.active_tp.as_ref().is_some_and(|(v, _)| *v == vtpn);
        env.note_lookup(hit);
        if !hit {
            let payload = env
                .read_translation_entries(vtpn, OpPurpose::Translation)?
                .to_vec();
            self.active_tp = Some((vtpn, payload));
        }
        let ppn = self.active_tp.as_ref().expect("hit or just loaded").1[off];
        self.insert_entry(env, lpn, ppn)?;
        Ok(mapped(ppn))
    }

    fn update_mapping(&mut self, _env: &mut SsdEnv, lpn: Lpn, new_ppn: Ppn) -> Result<()> {
        // The entry may have been answered from the reserve.
        match self
            .entries
            .get_mut(lpn)
            .or_else(|| self.reserve.get_mut(lpn))
        {
            Some(e) => e.remap(new_ppn),
            None => self.reserve.insert_mru(Entry::dirty(lpn, new_ppn)),
        }
        Ok(())
    }

    fn on_gc_data_block(&mut self, env: &mut SsdEnv, moved: &[(Lpn, Ppn)]) -> Result<u64> {
        cmt::absorb_gc_moves(
            self,
            env,
            moved,
            |ftl, _, lpn, new_ppn| {
                let cached = ftl
                    .entries
                    .get_mut(lpn)
                    .or_else(|| ftl.reserve.get_mut(lpn));
                Ok(cached.map(|e| e.remap(new_ppn)).is_some())
            },
            |ftl, _, vtpn, step| {
                if let PageStep::Persisted(batch) = step {
                    patch_active_tp(&mut ftl.active_tp, vtpn, batch);
                }
            },
        )
    }

    fn cache_bytes_used(&self) -> usize {
        (self.entries.len() + self.reserve.len()) * ENTRY_BYTES
            + self.active_tp.as_ref().map_or(0, |(_, p)| 8 + 4 * p.len())
    }

    fn cached_entries(&self) -> usize {
        self.entries.len()
            + self.reserve.len()
            + self.active_tp.as_ref().map_or(0, |_| self.entries_per_tp)
    }

    fn cached_tp_distribution(&self) -> Vec<TpDistEntry> {
        let mut tally = TpTally::default();
        self.entries.tally(&mut tally);
        self.reserve.tally(&mut tally);
        if let Some((vtpn, p)) = &self.active_tp {
            tally.add(*vtpn, p.len() as u32, 0);
        }
        tally.finish()
    }

    fn peek_cached(&self, env: &SsdEnv, lpn: Lpn) -> Result<Option<Option<Ppn>>> {
        if let Some(e) = self.entries.get(lpn).or_else(|| self.reserve.get(lpn)) {
            return Ok(Some(mapped(e.ppn)));
        }
        Ok(self
            .active_tp
            .as_ref()
            .filter(|(vtpn, _)| *vtpn == env.vtpn_of(lpn))
            .map(|(_, payload)| mapped(payload[env.offset_of(lpn) as usize])))
    }

    fn mark_clean(&mut self, vtpn: Vtpn) {
        self.entries.clean_vtpn(vtpn, |_| {});
        // Flushed reserve entries are persisted; drop them.
        self.reserve.take_vtpn(vtpn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver;

    /// 16 MB device (4096 pages, 4 translation pages), 2 zones.
    fn setup(zones: u32) -> (Zftl, SsdEnv) {
        let mut config = SsdConfig::paper_default(16 << 20);
        config.cache_bytes = config.gtd_bytes() + 6 * 1024;
        let mut env = SsdEnv::new(config.clone()).unwrap();
        let mut ftl = Zftl::new(&config, zones).unwrap();
        driver::bootstrap(&mut ftl, &mut env).unwrap();
        (ftl, env)
    }

    #[test]
    fn cache_too_small_rejected() {
        let mut config = SsdConfig::paper_default(16 << 20);
        config.cache_bytes = config.gtd_bytes() + 1024;
        assert!(matches!(
            Zftl::new(&config, 4),
            Err(FtlError::CacheTooSmall)
        ));
    }

    #[test]
    fn within_zone_hits_via_both_tiers() {
        let (mut ftl, mut env) = setup(2);
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(false)).unwrap();
        assert_eq!(env.stats.hits, 0);
        // Same entry: first-tier hit.
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(false)).unwrap();
        // Same translation page, different entry: second-tier hit.
        driver::serve_page_access(&mut ftl, &mut env, 500, AccessCtx::single(false)).unwrap();
        assert_eq!(env.stats.hits, 2);
        assert_eq!(env.flash().stats().translation_reads(), 1);
        assert_eq!(ftl.zone_switches(), 1, "first access switched from no zone");
    }

    #[test]
    fn zone_switch_flushes_dirty_state() {
        let (mut ftl, mut env) = setup(2);
        // Dirty a few entries in zone 0.
        for lpn in 0..5u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(true)).unwrap();
        }
        let tw = env.flash().stats().translation_writes();
        // Touch zone 1 (pages 2048..4096): the switch flushes the batch.
        driver::serve_page_access(&mut ftl, &mut env, 3000, AccessCtx::single(false)).unwrap();
        assert_eq!(ftl.zone_switches(), 2);
        assert_eq!(
            env.flash().stats().translation_writes(),
            tw + 1,
            "all five dirty entries flushed in one batched update"
        );
        // Back to zone 0: data is durable.
        for lpn in 0..5u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(false)).unwrap();
        }
    }

    #[test]
    fn zone_ping_pong_is_expensive() {
        let (mut ftl, mut env) = setup(2);
        for i in 0..50u32 {
            let lpn = if i % 2 == 0 { i } else { 2048 + i };
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(true)).unwrap();
        }
        assert_eq!(ftl.zone_switches(), 50, "every access crosses zones");
        // The paper's point: zone switches dominate; plenty of flash ops.
        assert!(env.flash().stats().translation_reads() >= 25);
    }

    #[test]
    fn reserve_batches_dirty_evictions() {
        let (mut ftl, mut env) = setup(1);
        let cap = ftl.cap_entries;
        // Fill the first tier with dirty entries, then stream reads to
        // evict them: they park in the reserve and flush in batches.
        for lpn in 0..cap as u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(true)).unwrap();
        }
        let tw = env.flash().stats().translation_writes();
        for lpn in (cap as u32)..(cap as u32 + ftl.reserve_cap as u32 + 4) {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(false)).unwrap();
        }
        let new_writes = env.flash().stats().translation_writes() - tw;
        assert!(new_writes >= 1, "reserve overflow flushed");
        assert!(
            (new_writes as usize) < ftl.reserve_cap,
            "flushes are batched, not per-entry: {new_writes}"
        );
        assert!(ftl.cache_bytes_used() <= 6 * 1024);
    }

    #[test]
    fn consistency_under_mixed_traffic() {
        let (mut ftl, mut env) = setup(4);
        for i in 0..6_000u32 {
            let lpn = (i.wrapping_mul(2654435761) >> 14) % 4096;
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(i % 3 != 0))
                .unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        for (_, tag, is_tp) in env.flash().scan_valid() {
            if !is_tp {
                assert!(seen.insert(tag), "LPN {tag} double-mapped");
            }
        }
        // Flush + verify: the recovery oracle covers ZFTL too.
        crate::recovery::flush_cache(&mut ftl, &mut env).unwrap();
        crate::recovery::verify(&env).assert_clean();
    }
}
