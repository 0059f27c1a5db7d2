//! The mapping-cache kit shared by the demand-paging FTLs.
//!
//! The paper's taxonomy (Sections 2.2 and 3.2) has one substrate — DFTL's
//! cached mapping table, an LRU of `(LPN, PPN, dirty)` entries — that the
//! other designs extend: CDFTL and ZFTL put a second tier behind it, S-FTL
//! parks sparse dirty entries in one, LearnedFTL orders its entries and its
//! learned segments in one LRU. This module holds that substrate once:
//!
//! * [`EntryCache`] — the entry LRU with its LPN index;
//! * [`VtpnTable`] — per-translation-page state (TPFTL's nodes, CDFTL's
//!   and S-FTL's cached pages) indexed by VTPN;
//! * [`OffsetTables`] and their [`TablePool`] — the inside of a TP node
//!   (Section 4.1): where each cached entry of one translation page sits,
//!   found by its offset, and which of them are dirty; TPFTL's nodes and
//!   LearnedFTL's regions are built on it, at [`NODE_ENTRY_BYTES`] an entry
//!   and [`NODE_BYTES`] a node;
//! * [`write_back_by_tp`] — the per-translation-page batcher every FTL
//!   uses for GC misses (and ZFTL for its reserve flush), with a per-page
//!   hook for the designs that piggyback on or react to the write;
//! * [`absorb_gc_moves`] — the shape every `on_gc_data_block` has: offer
//!   each migrated page to the cache, batch what it did not hold;
//! * [`TpTally`] and [`mapped`] — the two small conversions every
//!   [`Ftl`](super::Ftl) implementation ends with.
//!
//! TPFTL's two-level lists, S-FTL's compressed pages and CDFTL's CTP keep
//! their own structures: they track dirtiness per node or per page, so an
//! [`EntryCache`] serving them would have to branch on its caller.

use std::collections::BTreeMap;

use tpftl_flash::{Lpn, OpPurpose, Ppn, Vtpn, PPN_NONE};

use crate::env::SsdEnv;
use crate::ftl::TpDistEntry;
use crate::hash::FxHashMap;
use crate::lru::{LruIdx, LruList};
use crate::Result;

/// Bytes one cached entry is charged: 4 B LPN + 4 B PPN (Section 2.2/4.1).
pub(crate) const ENTRY_BYTES: usize = 8;

/// Bytes an entry cached inside a TP node is charged: its LPN is the node's
/// VTPN plus a 10-bit offset, so offset, 4 B PPN and flags pack into 6 B
/// (Section 4.1's compression argument).
pub(crate) const NODE_ENTRY_BYTES: usize = 6;

/// Bytes of overhead per TP node (VTPN + list heads), "only a small
/// percentage" per Section 4.1.
pub(crate) const NODE_BYTES: usize = 8;

/// `Some(ppn)` unless `ppn` is the "not mapped yet" sentinel.
#[inline]
pub(crate) fn mapped(ppn: Ppn) -> Option<Ppn> {
    (ppn != PPN_NONE).then_some(ppn)
}

/// One cached mapping entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    pub lpn: Lpn,
    /// `PPN_NONE` caches "not mapped yet".
    pub ppn: Ppn,
    pub dirty: bool,
}

impl Entry {
    /// A clean entry, as loaded from a translation page.
    pub fn clean(lpn: Lpn, ppn: Ppn) -> Self {
        Self {
            lpn,
            ppn,
            dirty: false,
        }
    }

    /// A dirty entry: a mapping newer than its translation page.
    pub fn dirty(lpn: Lpn, ppn: Ppn) -> Self {
        Self {
            lpn,
            ppn,
            dirty: true,
        }
    }

    /// Points the entry at `ppn` and marks it dirty, in place.
    pub fn remap(&mut self, ppn: Ppn) {
        self.ppn = ppn;
        self.dirty = true;
    }
}

/// An LRU of mapping entries indexed by LPN.
///
/// Capacity is the caller's business (CDFTL and ZFTL count entries of one
/// tier, S-FTL bytes of a buffer), so nothing here evicts on its own.
pub(crate) struct EntryCache {
    index: FxHashMap<Lpn, LruIdx>,
    list: LruList<Entry>,
    entries_per_tp: u32,
}

impl EntryCache {
    pub fn new(entries_per_tp: usize) -> Self {
        Self {
            index: FxHashMap::default(),
            list: LruList::new(),
            entries_per_tp: entries_per_tp as u32,
        }
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }

    fn vtpn_of(&self, lpn: Lpn) -> Vtpn {
        lpn / self.entries_per_tp
    }

    /// The entry for `lpn`, leaving recency alone.
    pub fn get(&self, lpn: Lpn) -> Option<&Entry> {
        let idx = *self.index.get(&lpn)?;
        Some(self.list.get(idx).expect("indexed handle is live"))
    }

    /// The entry for `lpn`, for an in-place update that is not a use.
    pub fn get_mut(&mut self, lpn: Lpn) -> Option<&mut Entry> {
        let idx = *self.index.get(&lpn)?;
        Some(self.list.get_mut(idx).expect("indexed handle is live"))
    }

    /// The entry for `lpn`, after moving it to the MRU end.
    pub fn touch(&mut self, lpn: Lpn) -> Option<&mut Entry> {
        let idx = *self.index.get(&lpn)?;
        self.list.touch(idx);
        Some(self.list.get_mut(idx).expect("indexed handle is live"))
    }

    /// Inserts `entry`, whose LPN must not be cached, at the MRU end.
    pub fn insert_mru(&mut self, entry: Entry) {
        let idx = self.list.push_mru(entry);
        let prev = self.index.insert(entry.lpn, idx);
        debug_assert!(prev.is_none(), "LPN {} cached twice", entry.lpn);
    }

    /// The coldest entry.
    pub fn peek_lru(&self) -> Option<&Entry> {
        self.list.peek_lru().map(|(_, e)| e)
    }

    /// Removes and returns the coldest entry.
    pub fn pop_lru(&mut self) -> Option<Entry> {
        let e = self.list.pop_lru()?;
        self.index.remove(&e.lpn);
        Some(e)
    }

    /// Removes and returns the entry for `lpn`.
    pub fn remove(&mut self, lpn: Lpn) -> Option<Entry> {
        let idx = self.index.remove(&lpn)?;
        Some(self.list.remove(idx))
    }

    /// Entries from coldest to hottest.
    pub fn iter_lru(&self) -> impl Iterator<Item = &Entry> {
        self.list.iter_lru().map(|(_, e)| e)
    }

    /// Removes every entry of translation page `vtpn`, returning them from
    /// coldest to hottest; other pages' entries keep their order.
    pub fn take_vtpn(&mut self, vtpn: Vtpn) -> Vec<Entry> {
        let taken: Vec<Entry> = self
            .iter_lru()
            .filter(|e| self.vtpn_of(e.lpn) == vtpn)
            .copied()
            .collect();
        for e in &taken {
            self.remove(e.lpn);
        }
        taken
    }

    /// Marks every dirty entry of translation page `vtpn` clean, handing
    /// each to `flushed` first (in no particular order).
    pub fn clean_vtpn(&mut self, vtpn: Vtpn, mut flushed: impl FnMut(&Entry)) {
        let per_tp = self.entries_per_tp;
        self.list.for_each_value_mut(|e| {
            if e.dirty && e.lpn / per_tp == vtpn {
                flushed(e);
                e.dirty = false;
            }
        });
    }

    /// Adds every entry to `tally` under its translation page.
    pub fn tally(&self, tally: &mut TpTally) {
        for e in self.iter_lru() {
            tally.add(self.vtpn_of(e.lpn), 1, e.dirty as u32);
        }
    }
}

/// State kept per translation page, found by indexing with the VTPN: one
/// slot for each of the device's `SsdConfig::num_vtpns` pages, empty until
/// the page has state. The VTPN space is small and dense (128 pages on
/// the 512 MB device, 4 096 on 16 GB), so the table is a few hundred
/// kilobytes of host memory at most — simulator state like TPFTL's
/// `by_offset`, charged to no modelled cache — and a lookup is an indexed
/// load where a map keyed by VTPN hashes and probes.
pub(crate) struct VtpnTable<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> VtpnTable<T> {
    pub fn new(num_vtpns: usize) -> Self {
        Self {
            slots: std::iter::repeat_with(|| None).take(num_vtpns).collect(),
            len: 0,
        }
    }

    /// Number of pages that have state.
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn get(&self, vtpn: Vtpn) -> Option<&T> {
        self.slots.get(vtpn as usize)?.as_ref()
    }

    #[inline]
    pub fn get_mut(&mut self, vtpn: Vtpn) -> Option<&mut T> {
        self.slots.get_mut(vtpn as usize)?.as_mut()
    }

    pub fn contains(&self, vtpn: Vtpn) -> bool {
        self.get(vtpn).is_some()
    }

    /// Gives page `vtpn`, which has none, its state.
    pub fn insert(&mut self, vtpn: Vtpn, state: T) {
        let old = self.slots[vtpn as usize].replace(state);
        debug_assert!(old.is_none(), "translation page {vtpn} had state");
        self.len += 1;
    }

    pub fn remove(&mut self, vtpn: Vtpn) -> Option<T> {
        let old = self.slots.get_mut(vtpn as usize)?.take();
        self.len -= usize::from(old.is_some());
        old
    }

    /// The pages that have state, by ascending VTPN.
    pub fn iter(&self) -> impl Iterator<Item = (Vtpn, &T)> {
        let states = self.slots.iter().zip(0..);
        states.filter_map(|(slot, vtpn)| Some((vtpn, slot.as_ref()?)))
    }
}

/// The state of a page that is known to have some.
impl<T> std::ops::Index<Vtpn> for VtpnTable<T> {
    type Output = T;

    #[inline]
    fn index(&self, vtpn: Vtpn) -> &T {
        self.get(vtpn).expect("translation page has no state")
    }
}

impl<T> std::ops::IndexMut<Vtpn> for VtpnTable<T> {
    #[inline]
    fn index_mut(&mut self, vtpn: Vtpn) -> &mut T {
        self.get_mut(vtpn).expect("translation page has no state")
    }
}

/// A TP node's two per-offset tables. Which list the handles point into is
/// the owner's business (TPFTL: the node's own entry list; LearnedFTL: the one
/// LRU it shares with its segments). Tables come from a [`TablePool`] and go
/// back to it clear.
pub(crate) struct OffsetTables {
    /// Dense offset → handle table, one slot per entry of the translation
    /// page ([`LruIdx::NONE`] = not cached). An offset lookup is a single
    /// indexed load — the hottest operation of the whole FTL — instead of
    /// a hash probe.
    by_offset: Box<[LruIdx]>,
    /// Bit `offset` is set iff the entry cached for `offset` is dirty, one
    /// word per 64 offsets: collecting a node's dirty entries walks set
    /// bits instead of every entry of the list.
    dirty: Box<[u64]>,
}

impl OffsetTables {
    fn new(entries_per_tp: usize) -> Self {
        Self {
            by_offset: vec![LruIdx::NONE; entries_per_tp].into(),
            dirty: vec![0; entries_per_tp.div_ceil(64)].into(),
        }
    }

    /// Whether no offset is cached and none is dirty.
    pub fn is_clear(&self) -> bool {
        self.by_offset.iter().all(|i| i.is_none()) && self.dirty.iter().all(|&w| w == 0)
    }

    /// Handle of the entry caching `offset`, if any.
    #[inline]
    pub fn get(&self, offset: u16) -> Option<LruIdx> {
        let idx = self.by_offset[offset as usize];
        (!idx.is_none()).then_some(idx)
    }

    /// Records that `offset`, which is not cached, is cached behind `idx`
    /// (clean).
    #[inline]
    pub fn set(&mut self, offset: u16, idx: LruIdx) {
        debug_assert!(self.get(offset).is_none(), "offset {offset} cached twice");
        self.by_offset[offset as usize] = idx;
    }

    /// Forgets the entry cached for `offset`, and that it was dirty.
    #[inline]
    pub fn unset(&mut self, offset: u16) {
        self.by_offset[offset as usize] = LruIdx::NONE;
        self.dirty[offset as usize / 64] &= !(1 << (offset % 64));
    }

    #[inline]
    pub fn is_dirty(&self, offset: u16) -> bool {
        self.dirty[offset as usize / 64] & 1 << (offset % 64) != 0
    }

    #[inline]
    pub fn mark_dirty(&mut self, offset: u16) {
        self.dirty[offset as usize / 64] |= 1 << (offset % 64);
    }

    /// Number of dirty offsets.
    pub fn dirty_count(&self) -> u32 {
        self.dirty.iter().map(|w| w.count_ones()).sum()
    }

    /// Clears every dirty bit, handing each dirty offset and the handle
    /// cached for it to `f`, by ascending offset.
    pub fn drain_dirty(&mut self, mut f: impl FnMut(u16, LruIdx)) {
        for (base, word) in (0..).step_by(64).zip(self.dirty.iter_mut()) {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let offset = base + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(offset as u16, self.by_offset[offset]);
            }
        }
    }

    /// Clears every dirty bit.
    pub fn forget_dirty(&mut self) {
        self.dirty.fill(0);
    }
}

/// Recycled [`OffsetTables`] of dismantled nodes, so node churn stops
/// allocating once the pool covers the working set.
pub(crate) struct TablePool {
    entries_per_tp: usize,
    free: Vec<OffsetTables>,
}

impl TablePool {
    pub fn new(entries_per_tp: usize) -> Self {
        Self {
            entries_per_tp,
            free: Vec::new(),
        }
    }

    /// Fresh or recycled clear tables.
    pub fn alloc(&mut self) -> OffsetTables {
        let pooled = self.free.pop();
        pooled.unwrap_or_else(|| OffsetTables::new(self.entries_per_tp))
    }

    /// Takes back a dismantled node's tables: every entry removed, every one
    /// of them clean, hence clear again.
    pub fn recycle(&mut self, tables: OffsetTables) {
        debug_assert!(tables.is_clear(), "tables not cleared");
        self.free.push(tables);
    }

    /// Whether every pooled table is clear (what the tests audit).
    #[cfg(test)]
    pub fn is_clear(&self) -> bool {
        self.free.iter().all(OffsetTables::is_clear)
    }
}

/// Accumulates `(entries, dirty)` per translation page for
/// [`Ftl::cached_tp_distribution`](super::Ftl::cached_tp_distribution).
#[derive(Default)]
pub(crate) struct TpTally(BTreeMap<Vtpn, (u32, u32)>);

impl TpTally {
    pub fn add(&mut self, vtpn: Vtpn, entries: u32, dirty: u32) {
        let slot = self.0.entry(vtpn).or_default();
        slot.0 += entries;
        slot.1 += dirty;
    }

    /// The distribution, sorted by VTPN.
    pub fn finish(self) -> Vec<TpDistEntry> {
        self.0
            .into_iter()
            .map(|(vtpn, (entries, dirty))| TpDistEntry {
                vtpn,
                entries,
                dirty,
            })
            .collect()
    }
}

/// Where in one translation page's write-back a [`write_back_by_tp`] hook
/// is running.
pub(crate) enum PageStep<'a> {
    /// Before the write: the hook may add updates that ride along on it.
    Gather(&'a mut Vec<(u16, Ppn)>),
    /// After the write persisted exactly these updates.
    Persisted(&'a [(u16, Ppn)]),
}

/// Writes mapping updates back in batches: one read-modify-write per
/// translation page touched, in ascending VTPN order, updates within a
/// page in the order given, so a later update of an entry supersedes an
/// earlier one (a hook may append to a batch, never reorder it). `hook`
/// runs twice per page, around the write —
/// TPFTL and LearnedFTL piggyback their cached dirty entries in
/// [`PageStep::Gather`], ZFTL patches its active page in
/// [`PageStep::Persisted`].
///
/// Grouping is a stable counting sort by VTPN in the environment's
/// scratch: the updates are counted per page, the counts become each
/// page's start, and every `(offset, ppn)` is scattered into its page's
/// range in arrival order, so each page's batch is one slice. A call costs
/// O(n + V) for n updates and V translation pages and allocates nothing
/// once the scratch has grown.
pub(crate) fn write_back_by_tp(
    env: &mut SsdEnv,
    updates: &[(Lpn, Ppn)],
    purpose: OpPurpose,
    mut hook: impl FnMut(&mut SsdEnv, Vtpn, PageStep<'_>),
) -> Result<()> {
    if updates.is_empty() {
        return Ok(());
    }
    let mut ends = std::mem::take(&mut env.wb_page_ends);
    let mut laid = std::mem::take(&mut env.wb_laid_scratch);
    let mut batch = std::mem::take(&mut env.wb_batch_scratch);
    ends.fill(0);
    for &(lpn, _) in updates {
        ends[env.vtpn_of(lpn) as usize] += 1;
    }
    let mut start = 0;
    for slot in ends.iter_mut() {
        let count = *slot;
        *slot = start;
        start += count;
    }
    // Each page's slot walks from its start to its end as its updates land.
    laid.clear();
    laid.resize(updates.len(), (0, PPN_NONE));
    for &(lpn, ppn) in updates {
        let slot = &mut ends[env.vtpn_of(lpn) as usize];
        laid[*slot as usize] = (env.offset_of(lpn), ppn);
        *slot += 1;
    }
    let mut start = 0;
    let res = ends.iter().zip(0..).try_for_each(|(&end, vtpn)| {
        let page = &laid[start..end as usize];
        start = end as usize;
        if page.is_empty() {
            return Ok(());
        }
        batch.clear();
        batch.extend_from_slice(page);
        hook(env, vtpn, PageStep::Gather(&mut batch));
        env.update_translation_page(vtpn, &batch, purpose)?;
        hook(env, vtpn, PageStep::Persisted(&batch));
        Ok(())
    });
    env.wb_page_ends = ends;
    env.wb_laid_scratch = laid;
    env.wb_batch_scratch = batch;
    res
}

/// The body of an [`Ftl::on_gc_data_block`](super::Ftl::on_gc_data_block):
/// offers every migrated `(lpn, new_ppn)` to `absorb`, which returns
/// whether `ftl`'s cache held the mapping and took the new PPN (a GC hit),
/// then writes the misses back through [`write_back_by_tp`] with `hook`.
/// Returns the hit count. The misses collect in the environment's one
/// GC-miss buffer; `ftl` is threaded through so both closures can use it.
pub(crate) fn absorb_gc_moves<F>(
    ftl: &mut F,
    env: &mut SsdEnv,
    moved: &[(Lpn, Ppn)],
    mut absorb: impl FnMut(&mut F, &mut SsdEnv, Lpn, Ppn) -> Result<bool>,
    mut hook: impl FnMut(&mut F, &mut SsdEnv, Vtpn, PageStep<'_>),
) -> Result<u64> {
    let mut misses = std::mem::take(&mut env.gc_miss_scratch);
    misses.clear();
    let res = moved
        .iter()
        .try_fold(0u64, |hits, &(lpn, new_ppn)| {
            let hit = absorb(ftl, env, lpn, new_ppn)?;
            if !hit {
                misses.push((lpn, new_ppn));
            }
            Ok(hits + u64::from(hit))
        })
        .and_then(|hits| {
            write_back_by_tp(env, &misses, OpPurpose::GcTranslation, |env, vtpn, step| {
                hook(ftl, env, vtpn, step)
            })
            .map(|()| hits)
        });
    env.gc_miss_scratch = misses;
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver;
    use crate::ftl::{AccessCtx, Ftl, FtlKind};
    use crate::recovery;
    use crate::SsdConfig;

    /// Four entries per translation page, so a dozen LPNs span three pages.
    const PER_TP: u32 = 4;

    /// Every `EntryCache` operation against a `Vec` model (front = LRU):
    /// recency order under touch / in-place update / insert / remove,
    /// `take_vtpn` and `clean_vtpn` leaving other pages' entries and order
    /// alone, and the tally equal to a brute-force count — checked after
    /// each of 4000 seeded operations.
    #[test]
    fn entry_cache_matches_a_vec_model() {
        let mut rng = tpftl_rng::Rng64::seed_from_u64(0xC4E7);
        let mut cache = EntryCache::new(PER_TP as usize);
        let mut model: Vec<Entry> = Vec::new();
        for step in 0..4000 {
            let lpn = rng.range_u32(0, 3 * PER_TP);
            let ppn = rng.range_u32(100, 200);
            let vtpn = lpn / PER_TP;
            let at = model.iter().position(|e| e.lpn == lpn);
            match rng.range_u32(0, 8) {
                0 | 1 => match at {
                    None => {
                        let e = Entry::clean(lpn, ppn);
                        cache.insert_mru(e);
                        model.push(e);
                    }
                    Some(i) => {
                        let e = model.remove(i);
                        model.push(e);
                        assert_eq!(cache.touch(lpn).copied(), Some(e));
                    }
                },
                2 => {
                    let got = cache.get_mut(lpn).map(|e| e.remap(ppn)).is_some();
                    if let Some(i) = at {
                        model[i].remap(ppn);
                    }
                    assert_eq!(got, at.is_some());
                }
                3 => assert_eq!(cache.remove(lpn), at.map(|i| model.remove(i))),
                4 => {
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    assert_eq!(cache.peek_lru().copied(), want);
                    assert_eq!(cache.pop_lru(), want);
                }
                5 => {
                    let taken = cache.take_vtpn(vtpn);
                    let (want, rest): (Vec<Entry>, Vec<Entry>) =
                        model.iter().partition(|e| e.lpn / PER_TP == vtpn);
                    assert_eq!(taken, want, "step {step}");
                    model = rest;
                }
                6 => {
                    let mut flushed = Vec::new();
                    cache.clean_vtpn(vtpn, |e| flushed.push(*e));
                    let mut want = Vec::new();
                    for e in model.iter_mut().filter(|e| e.lpn / PER_TP == vtpn) {
                        if e.dirty {
                            want.push(*e);
                            e.dirty = false;
                        }
                    }
                    flushed.sort_by_key(|e| e.lpn);
                    want.sort_by_key(|e| e.lpn);
                    assert_eq!(flushed, want, "step {step}");
                }
                _ => assert_eq!(cache.get(lpn), at.map(|i| &model[i])),
            }
            assert_eq!(cache.len(), model.len(), "step {step}");
            let order: Vec<Entry> = cache.iter_lru().copied().collect();
            assert_eq!(order, model, "step {step}");

            let mut tally = TpTally::default();
            cache.tally(&mut tally);
            let brute: Vec<TpDistEntry> = (0..3)
                .map(|v| {
                    let of_page = model.iter().filter(|e| e.lpn / PER_TP == v);
                    TpDistEntry {
                        vtpn: v,
                        entries: of_page.clone().count() as u32,
                        dirty: of_page.filter(|e| e.dirty).count() as u32,
                    }
                })
                .filter(|d| d.entries > 0)
                .collect();
            assert_eq!(tally.finish(), brute, "step {step}");
        }
    }

    /// The batcher writes one page per VTPN in ascending order, runs the
    /// hook before and after each write, and persists what `Gather` added.
    #[test]
    fn write_back_by_tp_wraps_each_page_write_in_the_hook() {
        // 8 MB -> 2048 pages -> 2 translation pages of 1024 entries.
        let mut env = SsdEnv::new(SsdConfig::paper_default(8 << 20)).unwrap();
        env.format().unwrap();
        let writes = env.flash().stats().translation_writes();
        let mut steps = Vec::new();
        write_back_by_tp(
            &mut env,
            &[(1030, 5), (2, 6), (1029, 7)],
            OpPurpose::GcTranslation,
            |env, vtpn, step| match step {
                PageStep::Gather(batch) => {
                    steps.push((vtpn, "gather", batch.clone()));
                    if vtpn == 0 {
                        batch.push((9, 99));
                    }
                }
                PageStep::Persisted(batch) => {
                    let (off, ppn) = batch[0];
                    let stored = env.read_translation_entry(vtpn, off, OpPurpose::Translation);
                    assert_eq!(stored.unwrap(), ppn, "hook ran before the write");
                    steps.push((vtpn, "persisted", batch.to_vec()));
                }
            },
        )
        .unwrap();
        assert_eq!(
            steps,
            vec![
                (0, "gather", vec![(2, 6)]),
                (0, "persisted", vec![(2, 6), (9, 99)]),
                (1, "gather", vec![(6, 5), (5, 7)]),
                (1, "persisted", vec![(6, 5), (5, 7)]),
            ]
        );
        assert_eq!(env.flash().stats().translation_writes(), writes + 2);
        let stored = env.read_translation_entry(0, 9, OpPurpose::Translation);
        assert_eq!(stored.unwrap(), 99);
    }

    /// The `(vtpn, batch)` pairs `write_back_by_tp` hands its `Gather` hook,
    /// in the order it hands them.
    fn batches_seen(env: &mut SsdEnv, updates: &[(Lpn, Ppn)]) -> Vec<(Vtpn, Vec<(u16, Ppn)>)> {
        let mut seen = Vec::new();
        let purpose = OpPurpose::GcTranslation;
        write_back_by_tp(env, updates, purpose, |_, vtpn, step| {
            if let PageStep::Gather(batch) = step {
                seen.push((vtpn, batch.clone()));
            }
        })
        .unwrap();
        seen
    }

    /// The grouping the batcher had before its counting sort: one key per
    /// update, `vtpn << 32 | arrival index`, sorted, and a walk over runs.
    fn key_sorted(env: &SsdEnv, updates: &[(Lpn, Ppn)]) -> Vec<(Vtpn, Vec<(u16, Ppn)>)> {
        let key = |(&(lpn, _), i): (&(Lpn, Ppn), u64)| u64::from(env.vtpn_of(lpn)) << 32 | i;
        let mut keys: Vec<u64> = updates.iter().zip(0..).map(key).collect();
        keys.sort_unstable();
        let batch = |run: &[u64]| -> Vec<(u16, Ppn)> {
            let update = |&k: &u64| updates[k as u32 as usize];
            run.iter()
                .map(update)
                .map(|(lpn, ppn)| (env.offset_of(lpn), ppn))
                .collect()
        };
        let runs = keys.chunk_by(|a, b| a >> 32 == b >> 32);
        runs.map(|run| ((run[0] >> 32) as Vtpn, batch(run)))
            .collect()
    }

    /// The counting sort hands the hook the pages and batches the key sort
    /// did — for the empty list, one page, every page of a 128-page table,
    /// an LPN moved twice, the last page and 40 seeded random lists — and
    /// every page it writes then holds each updated entry's last PPN.
    #[test]
    fn write_back_by_tp_groups_as_the_key_sort_did() {
        // 512 MB -> 128 translation pages of 1024 entries.
        let mut env = SsdEnv::new(SsdConfig::paper_default(512 << 20)).unwrap();
        env.format().unwrap();
        let pages = env.config().num_vtpns() as u32;
        assert_eq!(pages, 128);
        let per_tp = env.entries_per_tp() as u32;
        let last = pages * per_tp - 1;
        let mut cases: Vec<Vec<(Lpn, Ppn)>> = vec![
            vec![],
            vec![(5, 11), (3, 12), (7, 13)],
            (0..pages)
                .rev()
                .map(|v| (v * per_tp + v, 100 + v))
                .collect(),
            vec![(2000, 21), (9, 22), (2000, 23), (10, 24)],
            vec![(last, 31), (0, 32), (last - 1, 33), (last, 34)],
        ];
        let mut rng = tpftl_rng::Rng64::seed_from_u64(0xC0DE);
        for _ in 0..40 {
            let n = rng.range_u32(1, 600);
            // Every other list crowds three pages, so offsets repeat.
            let span = [3 * per_tp, pages * per_tp][cases.len() % 2];
            let update = |_| (rng.range_u32(0, span), rng.range_u32(0, 1 << 20));
            cases.push((0..n).map(update).collect());
        }
        for (i, updates) in cases.iter().enumerate() {
            assert_eq!(
                batches_seen(&mut env, updates),
                key_sorted(&env, updates),
                "case {i}"
            );
            let mut shadow = FxHashMap::default();
            shadow.extend(updates.iter().copied());
            for (lpn, ppn) in shadow {
                let (vtpn, off) = (env.vtpn_of(lpn), env.offset_of(lpn));
                let stored = env.read_translation_entry(vtpn, off, OpPurpose::Translation);
                assert_eq!(stored.unwrap(), ppn, "case {i}, LPN {lpn}");
            }
        }
    }

    /// One pass's write-back in which one uncached LPN was moved twice,
    /// beside a moved cached dirty entry, behind the cached dirty entries of
    /// the same page: under TPFTL and LearnedFTL the page then holds what
    /// a shadow map says (what was cached, else what was persisted, then
    /// every move in order), none of its entries is dirty any more, and
    /// the cache holds the moved dirty entry's new PPN.
    #[test]
    fn a_pass_that_moves_an_lpn_twice_persists_the_shadow_map() {
        for kind in [FtlKind::Tpftl, FtlKind::Learned] {
            let mut config = SsdConfig::paper_default(8 << 20);
            config.cache_bytes = config.gtd_bytes() + 1024;
            let mut env = SsdEnv::new(config.clone()).unwrap();
            let mut ftl = kind.build(&config).unwrap();
            driver::bootstrap(&mut *ftl, &mut env).unwrap();
            for lpn in 0..300 {
                let ctx = AccessCtx::single(true);
                driver::serve_page_access(&mut *ftl, &mut env, lpn, ctx).unwrap();
            }
            let held = |ftl: &dyn Ftl, env: &SsdEnv, lpn| ftl.peek_cached(env, lpn).unwrap();
            let dirty = |ftl: &dyn Ftl| {
                let dist = ftl.cached_tp_distribution();
                dist.iter().find(|d| d.vtpn == 0).map_or(0, |d| d.dirty)
            };
            assert!(dirty(&*ftl) > 0, "{kind:?}: no dirty entry rides along");
            let uncached: Vec<Lpn> = (0..300)
                .filter(|&l| held(&*ftl, &env, l).is_none())
                .collect();
            // Cached with a PPN its page does not hold yet: dirty.
            let stale = |l| held(&*ftl, &env, l).is_some_and(|p| p != recovery::lookup(&env, l));
            let cached = (0..300).find(|&l| stale(l)).unwrap();
            let mut shadow: Vec<Option<Ppn>> = (0..env.entries_per_tp() as Lpn)
                .map(|lpn| held(&*ftl, &env, lpn).unwrap_or(recovery::lookup(&env, lpn)))
                .collect();
            let mut moved = Vec::new();
            for lpn in [uncached[0], cached, uncached[1], uncached[0], 1500] {
                let ppn = env.program_data_page(lpn, OpPurpose::GcData).unwrap();
                moved.push((lpn, ppn));
                if let Some(slot) = shadow.get_mut(lpn as usize) {
                    *slot = Some(ppn);
                }
            }
            ftl.on_gc_data_block(&mut env, &moved).unwrap();
            let page = env.read_translation_entries(0, OpPurpose::Translation);
            let page: Vec<Option<Ppn>> = page.unwrap().iter().map(|&p| mapped(p)).collect();
            assert_eq!(page, shadow, "{kind:?}");
            assert_eq!(dirty(&*ftl), 0, "{kind:?}");
            assert_eq!(
                held(&*ftl, &env, cached),
                Some(Some(moved[1].1)),
                "{kind:?}"
            );
            assert_eq!(recovery::lookup(&env, 1500), Some(moved[4].1), "{kind:?}");
        }
    }
}
