//! LearnedFTL: a learned page-level mapping that kills the double read.
//!
//! DFTL-style demand paging pays a translation-page read on every mapping
//! cache miss. Flash allocation is log-structured, so sequentially written
//! LPN ranges land on near-contiguous PPNs and LPN→PPN is piecewise
//! near-linear: it can be *learned*. This FTL caches, beside mapping
//! entries, linear segments with a fixed error bound ε, as cache lines like
//! any other: the miss that paid to read a translation page fits the run
//! around the offset it asked for ([`LearnedFtl::fill`]), and one LRU over
//! entries and per-region segment sets gives up the bytes. The entries are
//! loaded and kept TPFTL's way: the same miss also caches, from the page in
//! hand, what the rest of its request will ask for
//! ([`LearnedFtl::prefetch`], the paper's §4.3), a region's entries sit
//! in a TP node, found by offset and charged 6 bytes each (§4.1), and they
//! go back to flash together: a dirty eviction, like a GC write-back of
//! the region's page, persists every dirty entry of the region in that one
//! write and leaves the others cached clean (batch update, §4.4;
//! [`LearnedFtl::make_room`]). What keeps
//! the segments sound (DESIGN.md §13): a prediction is served only after the
//! OOB tag of its target page confirmed it (*no silent wrong PPN*); an
//! overwritten, migrated, written-back or mispredicted offset is split out
//! of its segment, never re-fitted; and segments are volatile — a power
//! cycle discards them.

use std::ops::RangeInclusive;

use tpftl_flash::{Lpn, OpPurpose, PageState, Ppn, Vtpn, PPN_NONE};

use crate::env::SsdEnv;
use crate::ftl::cmt::{self, mapped, OffsetTables, PageStep, TablePool};
use crate::ftl::cmt::{NODE_BYTES, NODE_ENTRY_BYTES as ENTRY_BYTES};
use crate::ftl::{AccessCtx, Ftl, TpDistEntry};
use crate::lru::{LruIdx, LruList};
use crate::{recovery, FtlError, Result, SsdConfig};

/// Default prediction error bound ε (in pages): mispredicts stay rare on
/// linear regions, yet a segment absorbs semi-sequential allocation jitter.
pub const DEFAULT_EPSILON: u32 = 4;

/// Modeled bytes per segment: start/end offsets, fixed-point base and slope.
const SEG_BYTES: usize = 16;

/// Fewest offsets a segment is worth its bytes for: entries are denser below.
const MIN_COVERED: usize = 4;

/// One learned segment: over in-region offsets `start..=end`, predicts
/// `round(base + slope * (off - start))`. `base` is the real-valued line
/// height at `start` (not a rounded PPN), so a split re-anchors the remnant
/// on the *same* line and its predictions are bit-identical to before.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start: u16,
    end: u16, // inclusive
    base: f64,
    slope: f64,
}

impl Segment {
    fn covered(&self) -> usize {
        (self.end - self.start) as usize + 1
    }

    /// The real-valued height of the line at `off`.
    fn line(&self, off: u16) -> f64 {
        debug_assert!(self.start <= off && off <= self.end);
        self.base + self.slope * f64::from(off - self.start)
    }

    /// The predicted PPN at `off`, or `None` when the line leaves the
    /// representable PPN range (never a silent wraparound).
    fn predict(&self, off: u16) -> Option<Ppn> {
        round_to_ppn(self.line(off))
    }
}

/// `x.round()` as a PPN, or `None` when that is negative, `PPN_NONE` or
/// more, or NaN — in integer arithmetic (`f64::round` is a library call on
/// baseline x86-64). `round` takes halves away from zero, so it lands in
/// `0..PPN_NONE` exactly for `x` in `(-0.5, PPN_NONE - 0.5)`; there a negative
/// `x` rounds to zero, else `t = x as u64` is `floor(x)`, `x - t` is exact and
/// `round` adds one when it reaches a half — where `floor(x + 0.5)` errs just
/// below a half, the sum rounding up (DESIGN.md §13).
fn round_to_ppn(x: f64) -> Option<Ppn> {
    if !(x > -0.5 && x < f64::from(PPN_NONE) - 0.5) {
        return None;
    }
    let p = if x < 0.0 {
        0
    } else {
        let t = x as u64;
        t + u64::from(x - t as f64 >= 0.5)
    };
    debug_assert_eq!(p as f64, x.round());
    Some(p as Ppn)
}

/// Whether `round_to_ppn(x)` is a PPN within ε of `stored`, decided on the
/// line: `round(x)` is `m` or more from `m - 0.5` on, `m` or less below `m + 0.5`.
fn rounds_within(x: f64, stored: Ppn, eps_f: f64) -> bool {
    let s = f64::from(stored);
    x > -0.5 && x < f64::from(PPN_NONE) - 0.5 && x >= s - eps_f - 0.5 && x < s + eps_f + 0.5
}

/// The feasible-slope cone after `d` points whose PPNs ascend by exactly one,
/// in closed form: point `j` bounds the slope by `fl((j ∓ ε) / j)`, exact
/// numerator, monotone `fl`; `1 − ε/j` rises and `1 + ε/j` falls in `j`, so
/// the running max/min are the last point's (and `lo <= 1 <= hi`).
fn unit_cone(d: usize, eps_f: f64) -> (f64, f64) {
    if d == 0 {
        return (f64::NEG_INFINITY, f64::INFINITY);
    }
    let d = d as f64;
    ((d - eps_f) / d, (d + eps_f) / d)
}

/// One step of the greedy shrinking-cone fit (LearnedFTL §3): the segment
/// that starts at the mapped offset `start`. Walk the run of mapped entries,
/// intersecting the feasible-slope interval point by point from the end of
/// its unit-stride prefix on ([`unit_cone`]), and close the segment before the
/// point that empties it (or at the run's end). The cone bounds the real-valued
/// line; a last pass cuts where |predict(off) − payload[off]| ≤ ε fails rounded.
fn fit_one(payload: &[Ppn], start: usize, eps: u32) -> Segment {
    let eps_f = f64::from(eps);
    let y0 = f64::from(payload[start]);
    // In `u64`: a run up to `PPN_NONE - 1` must not wrap, nor take a hole.
    let run = payload[start..].iter().zip(u64::from(payload[start])..);
    let run = run.take_while(|&(&p, unit)| p != PPN_NONE && u64::from(p) == unit);
    let mut stop = start + run.count();
    let (mut lo, mut hi) = unit_cone(stop - 1 - start, eps_f);
    while stop < payload.len() && payload[stop] != PPN_NONE {
        let dx = (stop - start) as f64;
        let y = f64::from(payload[stop]);
        let nlo = lo.max((y - eps_f - y0) / dx);
        let nhi = hi.min((y + eps_f - y0) / dx);
        if nlo > nhi {
            break;
        }
        lo = nlo;
        hi = nhi;
        stop += 1;
    }
    let end = stop - 1;
    let slope = if end == start { 0.0 } else { (lo + hi) / 2.0 };
    let mut seg = Segment {
        start: start as u16,
        end: end as u16,
        base: y0,
        slope,
    };
    let ok = |&k: &usize| rounds_within(seg.line(k as u16), payload[k], eps_f);
    let vend = (start..=end).take_while(ok).last().unwrap_or(start);
    seg.end = vend as u16;
    seg
}

/// The segment a miss at the mapped offset `off` fills: [`fit_one`] from the
/// start of the unit-stride run `off` sits in (so that the closed-form cone
/// carries it to `off` at least), if that is worth its bytes.
fn fit_around(payload: &[Ppn], off: usize, eps: u32) -> Option<Segment> {
    let unit = |k: usize| payload[k - 1].checked_add(1) == Some(payload[k]);
    let start = (1..=off).rev().find(|&k| !unit(k)).unwrap_or(0);
    let seg = fit_one(payload, start, eps);
    (usize::from(seg.end) >= off && seg.covered() >= MIN_COVERED).then_some(seg)
}

/// The index of the segment of `view` that covers `off`.
fn covering(view: &[Segment], off: u16) -> Option<usize> {
    let i = view.partition_point(|s| s.start <= off).checked_sub(1)?;
    (off <= view[i].end).then_some(i)
}

/// The TP node of a region (TPFTL §4.1): its cached entries, found by offset.
struct Node {
    /// Where each cached offset sits in the one LRU, and which are dirty.
    tables: OffsetTables,
    /// Cached entries; the node is dismantled with its last one.
    len: u32,
}

/// What is cached about one translation-page region.
#[derive(Default)]
struct Region {
    /// The live segments, sorted by `start`, disjoint; empty for none.
    view: Vec<Segment>,
    /// The view's place in the LRU: `Some` exactly while `view` is not empty.
    slot: Option<LruIdx>,
    /// `Some` exactly while the region has cached entries. (Boxed: one
    /// `Region` per VTPN is built at set-up, most of them never with a node.)
    node: Option<Box<Node>>,
}

/// What the one LRU orders and the one budget is spent on.
#[derive(Clone, Copy)]
enum Slot {
    /// A cached mapping entry, held in region `vtpn`'s node ([`ENTRY_BYTES`],
    /// and [`NODE_BYTES`] for the node); whether it is dirty is the node's bit.
    Entry { vtpn: Vtpn, off: u16, ppn: Ppn },
    /// All segments of one region ([`SEG_BYTES`] each), as one object.
    View(Vtpn),
}

impl Slot {
    /// The PPN an entry caches (`PPN_NONE` for "not mapped yet").
    fn entry_ppn(&self) -> Option<Ppn> {
        match *self {
            Slot::Entry { ppn, .. } => Some(ppn),
            Slot::View(_) => None,
        }
    }
}

/// The learned page-level FTL.
pub struct LearnedFtl {
    epsilon: u32,
    budget_bytes: usize,
    entries_per_tp: u32,
    regions: Vec<Region>, // by VTPN
    /// Total bytes charged for segments (`Σ view.len() · SEG_BYTES`).
    seg_bytes: usize,
    /// Cached entries, and the nodes that hold them, across all regions.
    entries: usize,
    nodes: usize,
    lru: LruList<Slot>,
    pool: TablePool,
    /// The update list of an eviction's write-back, reused.
    updates: Vec<(u16, Ppn)>,
}

impl LearnedFtl {
    /// Creates a LearnedFTL with the default ε; learned segments and
    /// mapping entries share the config's usable cache budget.
    ///
    /// # Errors
    ///
    /// [`FtlError::CacheTooSmall`] if not even one segment fits it.
    pub fn new(config: &SsdConfig) -> Result<Self> {
        Self::with_epsilon(config, DEFAULT_EPSILON)
    }

    /// As [`LearnedFtl::new`], with an explicit error bound `epsilon`.
    pub fn with_epsilon(config: &SsdConfig, epsilon: u32) -> Result<Self> {
        if config.usable_cache_bytes() < SEG_BYTES {
            return Err(FtlError::CacheTooSmall);
        }
        Ok(Self {
            epsilon,
            budget_bytes: config.usable_cache_bytes(),
            entries_per_tp: config.entries_per_tp() as u32,
            regions: (0..config.num_vtpns()).map(|_| Region::default()).collect(),
            seg_bytes: 0,
            entries: 0,
            nodes: 0,
            lru: LruList::new(),
            pool: TablePool::new(config.entries_per_tp()),
            updates: Vec::new(),
        })
    }

    /// The error bound ε this instance validates predictions against.
    pub fn epsilon(&self) -> u32 {
        self.epsilon
    }

    /// Learned segments currently held, across all regions.
    pub fn segment_count(&self) -> usize {
        self.seg_bytes / SEG_BYTES
    }

    /// Where the entry cached for `vtpn:off` sits in the LRU.
    #[inline]
    fn handle(&self, vtpn: Vtpn, off: u16) -> Option<LruIdx> {
        self.regions[vtpn as usize].node.as_ref()?.tables.get(off)
    }

    fn is_dirty(&self, vtpn: Vtpn, off: u16) -> bool {
        let node = self.regions[vtpn as usize].node.as_ref();
        node.is_some_and(|n| n.tables.is_dirty(off))
    }

    /// Points the entry cached for `vtpn:off` at `new_ppn` and marks it
    /// dirty, moving it to the MRU end if this is a use; `false` without one.
    fn remap(&mut self, vtpn: Vtpn, off: u16, new_ppn: Ppn, touch: bool) -> bool {
        let Some(node) = &mut self.regions[vtpn as usize].node else {
            return false;
        };
        let Some(idx) = node.tables.get(off) else {
            return false;
        };
        if touch {
            self.lru.touch(idx);
        }
        let Some(Slot::Entry { ppn, .. }) = self.lru.get_mut(idx) else {
            return false;
        };
        *ppn = new_ppn;
        node.tables.mark_dirty(off);
        true
    }

    /// What one more entry of region `vtpn` costs: its node too, if it is
    /// the first.
    fn entry_cost(&self, vtpn: Vtpn) -> usize {
        let first = self.regions[vtpn as usize].node.is_none();
        ENTRY_BYTES + if first { NODE_BYTES } else { 0 }
    }

    /// Caches `ppn` for `vtpn:off`, which is not cached and has its room, as
    /// the hottest slot.
    fn push_entry(&mut self, vtpn: Vtpn, off: u16, ppn: Ppn, dirty: bool) {
        let idx = self.lru.push_mru(Slot::Entry { vtpn, off, ppn });
        let node = self.regions[vtpn as usize].node.get_or_insert_with(|| {
            self.nodes += 1;
            let tables = self.pool.alloc();
            Box::new(Node { tables, len: 0 })
        });
        node.tables.set(off, idx);
        if dirty {
            node.tables.mark_dirty(off);
        }
        node.len += 1;
        self.entries += 1;
    }

    /// Takes the entry behind `idx`, cached for `vtpn:off`, out of the LRU
    /// and of its node, and the node out of the region with its last entry.
    fn remove_entry(&mut self, idx: LruIdx, vtpn: Vtpn, off: u16) {
        self.lru.remove(idx);
        self.entries -= 1;
        let region = &mut self.regions[vtpn as usize];
        let node = region.node.as_mut().expect("cached entries have a node");
        node.tables.unset(off);
        node.len -= 1;
        if let Some(empty) = region.node.take_if(|n| n.len == 0) {
            self.pool.recycle(empty.tables);
            self.nodes -= 1;
        }
    }

    /// Forgets everything learned about region `vtpn`.
    fn drop_view(&mut self, vtpn: Vtpn) {
        let region = &mut self.regions[vtpn as usize];
        if let Some(idx) = region.slot.take() {
            self.lru.remove(idx);
            self.seg_bytes -= region.view.len() * SEG_BYTES;
            region.view.clear();
        }
    }

    /// Invalidates the prediction point `off` of region `vtpn`: the covering
    /// segment is split around it, remnants re-anchored on the same line and
    /// those too short to pay for themselves dropped. Two remnants cost one
    /// more segment: without room for it only the longer one stays.
    fn split_covering(&mut self, vtpn: Vtpn, off: u16) {
        let room = self.cache_bytes_used() + SEG_BYTES <= self.budget_bytes;
        let segs = &mut self.regions[vtpn as usize].view;
        let Some(i) = covering(segs, off) else {
            return;
        };
        let s = segs[i];
        let worth = |covered: u16| usize::from(covered) >= MIN_COVERED;
        let left = worth(off - s.start).then(|| Segment { end: off - 1, ..s });
        let mut right = worth(s.end - off).then_some(s);
        if let Some(r) = &mut right {
            (r.start, r.base) = (off + 1, s.line(off + 1));
        }
        match (left, right) {
            (Some(l), Some(r)) if room => {
                segs[i] = l;
                segs.insert(i + 1, r);
                self.seg_bytes += SEG_BYTES;
            }
            (Some(l), Some(r)) => segs[i] = if r.covered() > l.covered() { r } else { l },
            (Some(one), None) | (None, Some(one)) => segs[i] = one,
            (None, None) => {
                segs.remove(i);
                self.seg_bytes -= SEG_BYTES;
                if segs.is_empty() {
                    self.drop_view(vtpn);
                }
            }
        }
    }

    /// Marks every dirty entry of region `vtpn` clean, appending its
    /// `(off, ppn)` to `out` by ascending offset.
    fn drain_dirty(&mut self, vtpn: Vtpn, out: &mut Vec<(u16, Ppn)>) {
        let Some(node) = &mut self.regions[vtpn as usize].node else {
            return;
        };
        let lru = &self.lru;
        node.tables.drain_dirty(|off, idx| {
            let ppn = lru.get(idx).and_then(Slot::entry_ppn);
            out.push((off, ppn.expect("dirty bits name cached entries")));
        });
    }

    /// Splits every offset of `written` out of region `vtpn`'s view: a
    /// segment filled while they were dirty was fitted on the page's old
    /// values there.
    fn split_written(&mut self, vtpn: Vtpn, written: &[(u16, Ppn)]) {
        for &(off, _) in written {
            self.split_covering(vtpn, off);
        }
    }

    /// Evicts least recently used slots until `need(self)` more bytes — never
    /// more than a segment's — fit the budget. A view is dropped whole. A
    /// dirty entry takes every dirty entry of its region back with it in one
    /// translation-page write (batch update, TPFTL §4.4): the others stay
    /// cached, now clean, and all of them are split out of the view. Those
    /// splits are made while the victim's bytes are still charged, so they
    /// find no room to grow and a pass frees 6 B at least (14 B with the
    /// node, which adds 8 B to what the next entry of that region needs): a
    /// call writes back three translation pages at most.
    fn make_room(&mut self, env: &mut SsdEnv, need: impl Fn(&Self) -> usize) -> Result<()> {
        while self.cache_bytes_used() + need(self) > self.budget_bytes {
            debug_assert!(need(self) <= SEG_BYTES);
            match self.lru.peek_lru().map(|(idx, &slot)| (idx, slot)) {
                None => return Err(FtlError::CacheTooSmall),
                Some((_, Slot::View(vtpn))) => self.drop_view(vtpn),
                Some((idx, Slot::Entry { vtpn, off, .. })) => {
                    let before = self.cache_bytes_used();
                    let dirty = self.is_dirty(vtpn, off);
                    env.note_replacement(dirty);
                    if dirty {
                        let mut updates = std::mem::take(&mut self.updates);
                        updates.clear();
                        self.drain_dirty(vtpn, &mut updates);
                        let res =
                            env.update_translation_page(vtpn, &updates, OpPurpose::Translation);
                        self.split_written(vtpn, &updates);
                        self.updates = updates;
                        res?;
                    }
                    self.remove_entry(idx, vtpn, off);
                    debug_assert!(self.cache_bytes_used() + ENTRY_BYTES <= before);
                }
            }
        }
        Ok(())
    }

    /// Room for one more entry of `vtpn:span`, a request in progress, out of
    /// what costs nothing to give up. `false` if the next victim is a dirty
    /// entry (*a prefetch never pays a write-back*) or something that request
    /// is about to use: an entry of its span, the region's view.
    fn free_room(&mut self, vtpn: Vtpn, span: &RangeInclusive<u16>, replaced: &mut u64) -> bool {
        while self.cache_bytes_used() + self.entry_cost(vtpn) > self.budget_bytes {
            match self.lru.peek_lru().map(|(idx, &slot)| (idx, slot)) {
                Some((_, Slot::View(other))) if other != vtpn => self.drop_view(other),
                Some((idx, Slot::Entry { vtpn: v, off, .. }))
                    if !(self.is_dirty(v, off) || v == vtpn && span.contains(&off)) =>
                {
                    *replaced += 1;
                    self.remove_entry(idx, v, off);
                }
                _ => return false,
            }
        }
        true
    }

    fn insert(
        &mut self,
        env: &mut SsdEnv,
        vtpn: Vtpn,
        off: u16,
        ppn: Ppn,
        dirty: bool,
    ) -> Result<()> {
        self.make_room(env, |ftl| ftl.entry_cost(vtpn))?;
        self.push_entry(vtpn, off, ppn, dirty);
        Ok(())
    }

    /// Fills region `vtpn`'s view from its translation page, which the miss at
    /// the mapped offset `off` just paid to read: the segment around `off`
    /// replaces those it overlaps, the view becomes the hottest slot and the
    /// LRU gives up the bytes. `None` if nothing of it is cached afterwards (no
    /// segment there is worth its bytes), else whether the view answers for
    /// `off` now (a fit that rounds wrong at `off` itself has the point split
    /// out).
    fn fill(&mut self, env: &mut SsdEnv, vtpn: Vtpn, off: u16) -> Result<Option<bool>> {
        let tp = env.gtd().get(vtpn).expect("the miss just read this page");
        let payload = env.flash().peek_translation_payload(tp);
        let payload = payload.expect("the GTD points at translation pages");
        let Some(seg) = fit_around(payload, usize::from(off), self.epsilon) else {
            return Ok(None);
        };
        // The fitter decides on the line; this is the same bound in integers.
        debug_assert!((seg.start..=seg.end).all(|k| seg
            .predict(k)
            .is_some_and(|p| p.abs_diff(payload[usize::from(k)]) <= self.epsilon)));
        let exact = seg.predict(off) == Some(payload[usize::from(off)]);
        let region = &mut self.regions[vtpn as usize];
        let a = region.view.partition_point(|s| s.end < seg.start);
        let b = region.view.partition_point(|s| s.start <= seg.end);
        region.view.splice(a..b, [seg]);
        self.seg_bytes = self.seg_bytes + SEG_BYTES - (b - a) * SEG_BYTES;
        match region.slot {
            Some(idx) => self.lru.touch(idx),
            None => region.slot = Some(self.lru.push_mru(Slot::View(vtpn))),
        }
        if !exact {
            self.split_covering(vtpn, off);
        }
        self.make_room(env, |_| 0)?;
        debug_assert!(self.cache_bytes_used() <= self.budget_bytes);
        let view = &self.regions[vtpn as usize].view;
        let at = |k| covering(view, k).is_some();
        Ok((at(seg.start) || at(seg.end)).then(|| at(off)))
    }

    /// Request-level prefetch (TPFTL §4.3): the translation page the miss at
    /// `lpn` just read also holds the entries of the `ahead` pages its request
    /// has still to come. Up to the page boundary, those that are neither
    /// cached nor covered by a segment are cached clean from it — no flash
    /// read, and ([`LearnedFtl::free_room`]) no write-back: the prefetch stops
    /// where room would cost one. `with_own` starts at `lpn` itself.
    fn prefetch(&mut self, env: &mut SsdEnv, lpn: Lpn, ahead: u32, with_own: bool) {
        let (vtpn, off) = (env.vtpn_of(lpn), env.offset_of(lpn));
        let last = (u32::from(off) + ahead).min(self.entries_per_tp - 1) as u16;
        let span = off + u16::from(!with_own)..=last;
        if span.is_empty() {
            return;
        }
        let tp = env.gtd.get(vtpn);
        let Some(payload) = tp.and_then(|tp| env.flash.peek_translation_payload(tp)) else {
            return;
        };
        let mut replaced = 0;
        for o in span {
            let view = &self.regions[vtpn as usize].view;
            if self.handle(vtpn, o).is_some() || covering(view, o).is_some() {
                continue;
            }
            if !self.free_room(vtpn, &(off..=last), &mut replaced) {
                break;
            }
            let ppn = payload[usize::from(o)];
            // Nothing since the miss's read may have moved the page on.
            debug_assert_eq!(mapped(ppn), recovery::lookup(env, lpn + u32::from(o - off)));
            self.push_entry(vtpn, o, ppn, false);
        }
        env.stats.replacements += replaced;
    }
}

impl Ftl for LearnedFtl {
    fn name(&self) -> String {
        format!("LearnedFTL(e{})", self.epsilon)
    }

    fn translate(&mut self, env: &mut SsdEnv, lpn: Lpn, ctx: &AccessCtx) -> Result<Option<Ppn>> {
        let (vtpn, off) = (env.vtpn_of(lpn), env.offset_of(lpn));
        if let Some(idx) = self.handle(vtpn, off) {
            self.lru.touch(idx);
            if let Some(ppn) = self.lru.get(idx).and_then(Slot::entry_ppn) {
                env.note_lookup(true);
                return Ok(mapped(ppn));
            }
        }
        let Region { view, slot, .. } = &self.regions[vtpn as usize];
        if let Some(pred) = covering(view, off).and_then(|i| view[i].predict(off)) {
            let valid = matches!(env.flash.state(pred), Ok(PageState::Valid));
            if valid
                && env.flash.peek_translation_payload(pred).is_none()
                && env.flash.tag(pred) == Ok(lpn)
            {
                // The one valid data page holding `lpn` *is* its mapping.
                env.note_lookup(true);
                env.note_predict(true);
                self.lru.touch(slot.expect("views have slots"));
                return Ok(Some(pred));
            }
            // Mispredict. A readable target cost one wasted speculative read;
            // an unreadable one (freed, torn, out of range) was rejected free.
            env.note_predict(false);
            if valid {
                env.flash.read_page(pred, OpPurpose::Translation)?;
            }
            // Excise only the lying point: the remnants predict as before.
            self.split_covering(vtpn, off);
        }
        env.note_lookup(false);
        let ppn = env.read_translation_entry(vtpn, off, OpPurpose::Translation)?;
        let filled = match ppn {
            PPN_NONE => None,
            _ => self.fill(env, vtpn, off)?,
        };
        if filled.is_none() {
            self.insert(env, vtpn, off, ppn, false)?;
        }
        // A fill that split `off` out may have paid its three write-backs:
        // the miss's own entry rides with the prefetch, kept if it is free.
        self.prefetch(env, lpn, ctx.remaining_in_request, filled == Some(false));
        Ok(mapped(ppn))
    }

    fn update_mapping(&mut self, env: &mut SsdEnv, lpn: Lpn, new_ppn: Ppn) -> Result<()> {
        let (vtpn, off) = (env.vtpn_of(lpn), env.offset_of(lpn));
        self.split_covering(vtpn, off);
        // A translate served by a segment left no entry behind.
        if self.remap(vtpn, off, new_ppn, true) {
            return Ok(());
        }
        self.insert(env, vtpn, off, new_ppn, true)
    }

    fn on_gc_data_block(&mut self, env: &mut SsdEnv, moved: &[(Lpn, Ppn)]) -> Result<u64> {
        let absorb = |ftl: &mut Self, env: &mut SsdEnv, lpn, new_ppn| {
            let (vtpn, off) = (env.vtpn_of(lpn), env.offset_of(lpn));
            ftl.split_covering(vtpn, off);
            Ok(ftl.remap(vtpn, off, new_ppn, false))
        };
        // The write-back of a page the pass moved uncached entries of also
        // takes the region's cached dirty entries along (TPFTL §4.4).
        let piggyback = |ftl: &mut Self, _: &mut SsdEnv, vtpn, step: PageStep<'_>| {
            if let PageStep::Gather(updates) = step {
                // The misses are uncached, so no drained offset repeats
                // one of theirs and the batch needs no sort.
                debug_assert!(
                    ftl.regions[vtpn as usize].node.as_ref().is_none_or(|node| {
                        updates.iter().all(|&(off, _)| !node.tables.is_dirty(off))
                    }),
                    "a GC miss of region {vtpn} is a cached dirty entry"
                );
                let from = updates.len();
                ftl.drain_dirty(vtpn, updates);
                ftl.split_written(vtpn, &updates[from..]);
            }
        };
        cmt::absorb_gc_moves(self, env, moved, absorb, piggyback)
    }

    fn cache_bytes_used(&self) -> usize {
        self.entries * ENTRY_BYTES + self.nodes * NODE_BYTES + self.seg_bytes
    }

    fn cached_entries(&self) -> usize {
        self.entries
    }

    fn peek_cached(&self, env: &SsdEnv, lpn: Lpn) -> Result<Option<Option<Ppn>>> {
        let idx = self.handle(env.vtpn_of(lpn), env.offset_of(lpn));
        let ppn = idx.and_then(|idx| self.lru.get(idx)?.entry_ppn());
        Ok(ppn.map(mapped))
    }

    fn mark_clean(&mut self, vtpn: Vtpn) {
        if let Some(node) = &mut self.regions[vtpn as usize].node {
            node.tables.forget_dirty();
        }
        // No write-back is left to split out what was dirty when it was fitted.
        self.drop_view(vtpn);
    }

    fn cached_tp_distribution(&self) -> Vec<TpDistEntry> {
        // Segments are clean derived state: a flush persists entries only.
        let nodes = self.regions.iter().zip(0..);
        nodes
            .filter_map(|(region, vtpn)| {
                let node = region.node.as_ref()?;
                Some(TpDistEntry {
                    vtpn,
                    entries: node.len,
                    dirty: node.tables.dirty_count(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{driver, gc, recovery};

    /// 8 MB logical space (2048 pages, 2 translation pages) with a cache
    /// budget of `bytes` usable bytes, prefilling `prefill` of the space.
    fn setup(bytes: usize, prefill: f64) -> (LearnedFtl, SsdEnv) {
        let mut config = SsdConfig::paper_default(8 << 20);
        config.cache_bytes = config.gtd_bytes() + bytes;
        config.prefill_frac = prefill;
        let mut env = SsdEnv::new(config.clone()).unwrap();
        let mut ftl = LearnedFtl::new(&config).unwrap();
        driver::bootstrap(&mut ftl, &mut env).unwrap();
        (ftl, env)
    }

    fn access(ftl: &mut LearnedFtl, env: &mut SsdEnv, lpn: Lpn, write: bool) {
        driver::serve_page_access(ftl, env, lpn, AccessCtx::single(write)).unwrap();
    }

    /// Everything a prediction depends on, comparable bit for bit.
    fn bits(s: &Segment) -> (u16, u16, u64, u64) {
        (s.start, s.end, s.base.to_bits(), s.slope.to_bits())
    }

    #[test]
    fn cache_too_small_rejected() {
        let mut config = SsdConfig::paper_default(8 << 20);
        config.cache_bytes = config.gtd_bytes() + ENTRY_BYTES;
        let built = LearnedFtl::new(&config);
        assert!(matches!(built, Err(FtlError::CacheTooSmall)));
    }

    #[test]
    fn sequential_prefill_translates_with_zero_flash_reads() {
        let (mut ftl, mut env) = setup(1024, 0.5);
        assert_eq!(ftl.segment_count(), 0, "nothing is fitted before a miss");
        // The miss that pays for the region's translation page fills its line.
        access(&mut ftl, &mut env, 700, false);
        assert_eq!(env.flash().stats().translation_reads(), 1);
        assert_eq!((ftl.segment_count(), ftl.cached_entries()), (1, 0));
        assert_eq!(ftl.regions[0].view[0].covered(), 1024);
        env.reset_stats();
        for lpn in [0u32, 5, 511, 700, 1000] {
            access(&mut ftl, &mut env, lpn, false);
        }
        assert_eq!((env.stats.predict_hits, env.stats.mispredicts), (5, 0));
        assert_eq!(env.stats.hits, 5, "predict hits count as cache hits");
        // The entire point: not a single translation-page read.
        assert_eq!(env.flash().stats().translation_reads(), 0);
    }

    #[test]
    fn overwrite_splits_segment_and_routes_to_fallback() {
        let (mut ftl, mut env) = setup(64, 0.5);
        access(&mut ftl, &mut env, 500, false);
        assert_eq!(ftl.segment_count(), 1);
        access(&mut ftl, &mut env, 10, true);
        assert_eq!(ftl.segment_count(), 2, "overwrite must split the segment");
        // Neighbours still predict exactly off the remnants.
        env.reset_stats();
        access(&mut ftl, &mut env, 9, false);
        access(&mut ftl, &mut env, 11, false);
        assert_eq!(env.stats.predict_hits, 2);
        // Evict the dirty entry for LPN 10, then re-read it: offset 10 is
        // uncovered now, so the read must take the GTD fallback path.
        for lpn in 1600..1610u32 {
            access(&mut ftl, &mut env, lpn, true);
        }
        assert!(ftl.handle(0, 10).is_none(), "entry 10 must be evicted");
        env.reset_stats();
        access(&mut ftl, &mut env, 10, false);
        let s = &env.stats;
        assert_eq!((s.predict_hits, s.mispredicts), (0, 0), "split left a liar");
        // The fallback's read (a dirty eviction may add an RMW read on top).
        assert!(env.flash().stats().translation_reads() >= 1);
    }

    #[test]
    fn inexact_fit_mispredicts_are_validated_and_fall_back() {
        // Manufacture a region whose mapping is within ε of a line everywhere
        // although the rounded prediction is wrong at many a point — the
        // mispredict arm, exercised deterministically.
        let config = SsdConfig::paper_default(8 << 20);
        let mut env = SsdEnv::new(config.clone()).unwrap();
        let mut ftl = LearnedFtl::new(&config).unwrap();
        let mut payload = vec![PPN_NONE; env.entries_per_tp()];
        for off in 0..64u32 {
            // Stride the allocator: burn a page between mappings so PPNs
            // advance by 2, except at two bump offsets where the burn is
            // skipped — a single line of slope just under 2, but no rounded
            // prediction can be right both before and after the bumps.
            if off > 0 && off != 29 && off != 51 {
                env.program_data_page(2000, OpPurpose::HostData).unwrap();
            }
            let ppn = env.program_data_page(off, OpPurpose::HostData).unwrap();
            payload[off as usize] = ppn;
        }
        env.write_translation_page_full(0, &payload, OpPurpose::Translation)
            .unwrap();
        env.format().unwrap();
        env.reset_stats();
        for off in 0..64u32 {
            access(&mut ftl, &mut env, off, false);
        }
        assert!(ftl.segment_count() > 0, "the line must fit within ε");
        assert!(env.stats.predict_hits > 0, "some points round exactly");
        assert!(env.stats.mispredicts > 0, "some points round wrong");
        // Every mispredict was caught by OOB validation and resolved via the
        // fallback (read_data_page would have failed on a wrong PPN). Every
        // non-predicted access costs one translation read, and every
        // mispredict additionally charged one wasted speculative read.
        assert_eq!(
            env.flash().stats().translation_reads(),
            64 - env.stats.predict_hits + env.stats.mispredicts
        );
    }

    #[test]
    fn budget_never_exceeded() {
        let (mut ftl, mut env) = setup(128, 0.5);
        for i in 0..400u32 {
            access(&mut ftl, &mut env, (i * 37) % 2048, i % 3 != 0);
            assert!(ftl.cache_bytes_used() <= 128);
        }
    }

    #[test]
    fn gc_churn_keeps_mappings_consistent() {
        let (mut ftl, mut env) = setup(512, 0.0);
        for i in 0..3000u32 {
            let lpn = if i % 2 == 0 {
                (i / 2) % 64
            } else {
                100 + (i / 2) % 1800
            };
            access(&mut ftl, &mut env, lpn, true);
        }
        assert!(env.stats.gc_updates > 0, "GC never migrated pages");
        // (`read_data_page` fails on a page that does not hold the LPN.)
        (0..64).for_each(|lpn| access(&mut ftl, &mut env, lpn, false));
    }

    #[test]
    fn learned_state_is_volatile_and_misses_refill_it() {
        let (mut ftl, mut env) = setup(1024, 0.5);
        access(&mut ftl, &mut env, 3, false);
        let learned = bits(&ftl.regions[0].view[0]);
        // A power cycle constructs a fresh FTL: no learned state survives,
        // and mounting fits nothing.
        let config = env.config().clone();
        let flash = env.into_flash();
        let (mut env2, _) = recovery::crash_mount(flash, config.clone()).unwrap();
        let mut fresh = LearnedFtl::new(&config).unwrap();
        fresh.after_bootstrap(&mut env2).unwrap();
        assert_eq!((fresh.segment_count(), fresh.cached_entries()), (0, 0));
        // The first miss pays one translation read and learns the same line.
        access(&mut fresh, &mut env2, 900, false);
        assert_eq!(env2.flash().stats().translation_reads(), 1);
        assert_eq!(bits(&fresh.regions[0].view[0]), learned);
    }

    /// Satellite property test: the fitter versus a brute-force oracle,
    /// over 500 seeded random mapping tables mixing sequential runs,
    /// semi-sequential (jittered) runs, holes, and pure noise.
    ///
    /// Pinned properties, for the segment [`fit_one`] starts at every mapped
    /// offset of each table:
    /// 1. it is in-bounds and never covers a hole;
    /// 2. every prediction over a covered offset is within ε of the
    ///    stored mapping (brute-force check of every single offset);
    /// 3. under the OOB validation model, every offset is either
    ///    predicted *exactly* or routed to fallback — a wrong PPN is
    ///    never silently returned;
    /// 4. what a miss there fills ([`fit_around`]) is the segment from the
    ///    start of the unit-stride run around the offset, if and only if
    ///    that covers the offset and at least [`MIN_COVERED`] offsets;
    /// 5. across the corpus both arms actually occur (exact hits and
    ///    within-ε mispredicts, fills and refusals), so neither dichotomy
    ///    is vacuous.
    #[test]
    fn fitter_property_vs_brute_force_oracle_500_tables() {
        let mut rng = tpftl_rng::Rng64::seed_from_u64(0x5EED_1EA2);
        let n = 1024usize;
        let (mut exact_total, mut mispredict_total, mut covered_total) = (0u64, 0u64, 0u64);
        let (mut filled, mut declined) = (0u64, 0u64);
        for table_i in 0..500 {
            let mut table = vec![PPN_NONE; n];
            let mut off = 0usize;
            while off < n {
                let len = (rng.below(64) + 1) as usize;
                let end = (off + len).min(n);
                match rng.below(4) {
                    0 => {} // hole
                    1 => {
                        // Strictly sequential run.
                        let base = rng.below(1 << 20) as Ppn;
                        for (k, slot) in table[off..end].iter_mut().enumerate() {
                            *slot = base + k as Ppn;
                        }
                    }
                    2 => {
                        // Semi-sequential: jittered increments of 1..=3.
                        let mut v = rng.below(1 << 20) as Ppn;
                        for slot in table[off..end].iter_mut() {
                            *slot = v;
                            v += 1 + rng.below(3) as Ppn;
                        }
                    }
                    _ => {
                        // Pure noise.
                        for slot in table[off..end].iter_mut() {
                            *slot = rng.below(1 << 22) as Ppn;
                        }
                    }
                }
                off = end;
            }
            let unit = |k: usize| table[k - 1] != PPN_NONE && table[k - 1] + 1 == table[k];
            for off in (0..n).filter(|&off| table[off] != PPN_NONE) {
                let s = fit_one(&table, off, DEFAULT_EPSILON);
                assert!(usize::from(s.start) == off && (s.end as usize) < n);
                covered_total += s.covered() as u64;
                for o in s.start..=s.end {
                    let actual = table[o as usize];
                    assert_ne!(actual, PPN_NONE, "table {table_i}: segment covers hole");
                    let p = s
                        .predict(o)
                        .unwrap_or_else(|| panic!("table {table_i}: prediction out of range"));
                    assert!(
                        p.abs_diff(actual) <= DEFAULT_EPSILON,
                        "table {table_i} off {o}: predicted {p}, actual {actual}"
                    );
                    // OOB validation model: the reverse map accepts the
                    // prediction iff it is exactly the live mapping.
                    if p == actual {
                        exact_total += 1;
                    } else {
                        mispredict_total += 1; // routed to fallback
                    }
                }
                let start = (1..=off).rev().find(|&k| !unit(k)).unwrap_or(0);
                let run = fit_one(&table, start, DEFAULT_EPSILON);
                let fills = usize::from(run.end) >= off && run.covered() >= MIN_COVERED;
                let got = fit_around(&table, off, DEFAULT_EPSILON);
                assert_eq!(got.as_ref().map(bits), fills.then(|| bits(&run)));
                *if fills { &mut filled } else { &mut declined } += 1;
            }
        }
        assert_eq!(exact_total + mispredict_total, covered_total);
        assert!(exact_total > 0, "corpus produced no exact predictions");
        assert!(
            mispredict_total > 0,
            "corpus produced no within-ε mispredicts"
        );
        assert!(
            filled.min(declined) > 10_000,
            "{filled} fills, {declined} refusals"
        );
    }

    /// `round_to_ppn` is `f64::round` followed by the range check, on the
    /// values where the two could part — around each half, at both ends of
    /// the PPN range, where `f64` stops holding fractions, on non-numbers —
    /// and on seeded lines, negative ones included. (In a debug build the
    /// function checks itself as well; this runs in release too.)
    #[test]
    fn integer_rounding_is_round_then_range_check() {
        let by_libm = |x: f64| {
            let p = x.round();
            (0.0..f64::from(PPN_NONE)).contains(&p).then_some(p as Ppn)
        };
        let top = f64::from(PPN_NONE);
        for x in rounding_edges(&[]) {
            assert_eq!(round_to_ppn(x), by_libm(x), "x = {x:e}");
        }
        assert_eq!(round_to_ppn(BELOW_HALF), Some(0));
        assert_eq!(round_to_ppn(-BELOW_HALF), Some(0));
        assert_eq!(round_to_ppn(-0.5), None);
        assert_eq!(round_to_ppn(top - 0.5), None);
        assert_eq!(round_to_ppn(top - 0.5 - 1e-6), Some(PPN_NONE - 1));

        let mut rng = tpftl_rng::Rng64::seed_from_u64(0x2047D);
        for _ in 0..20_000 {
            // A line through a random height with a slope in (−4, 4), in
            // steps of 2⁻²⁰, sampled along a region.
            let base = rng.below(1 << 33) as f64 / 2.0 - 1024.0;
            let slope = (rng.below(1 << 23) as f64 - (1 << 22) as f64) / (1 << 20) as f64;
            let seg = Segment {
                start: 0,
                end: 1023,
                base,
                slope,
            };
            for off in [0, 1, 2, 511, 1023] {
                let x = base + slope * f64::from(off);
                assert_eq!(seg.predict(off), by_libm(x), "x = {x:e}");
            }
        }
    }

    /// 0.5 − 2⁻⁵⁴: `floor(x + 0.5)` says 1.
    const BELOW_HALF: f64 = 0.49999999999999994;

    /// The values where rounding, the range check and a comparison against
    /// a bound could part: non-numbers, both ends of the PPN range, where
    /// `f64` stops holding fractions, and each half around a few integers
    /// and around `more`, with both neighbours of every one.
    fn rounding_edges(more: &[f64]) -> Vec<f64> {
        let top = f64::from(PPN_NONE);
        let mut edges = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::MIN_POSITIVE,
            top - 0.5,
            top - 1.0,
            top,
            4294967296.0 + 1.0,
            4294967296.0 - 1.0,
            1e300,
            -1e300,
        ];
        let arounds = [0.0, 1.0, 2.0, 1023.0, 8388608.0, top - 1.0];
        for around in arounds.iter().chain(more) {
            for half in [-0.5, -BELOW_HALF, BELOW_HALF, 0.5] {
                let x: f64 = around + half;
                // The neighbours of each value, too.
                edges.extend([
                    x,
                    f64::from_bits(x.to_bits() + 1),
                    f64::from_bits(x.to_bits() - 1),
                ]);
            }
        }
        edges
    }

    /// Deciding on the line ([`rounds_within`]) is rounding to a PPN and
    /// comparing the integers, on the rounding edge set and around every
    /// bound the comparison has, for stored PPNs at both ends of the range.
    #[test]
    fn interval_test_is_round_then_compare() {
        for eps in [0u32, 1, 4, 17] {
            for stored in [0, eps, 1 << 20, PPN_NONE - 1 - eps, PPN_NONE - 1] {
                let (s, e) = (f64::from(stored), f64::from(eps));
                let bounds = [s - e - 1.0, s - e, s, s + e, s + e + 1.0];
                for x in rounding_edges(&bounds) {
                    let by_integer = round_to_ppn(x).is_some_and(|p| p.abs_diff(stored) <= eps);
                    assert_eq!(
                        rounds_within(x, stored, e),
                        by_integer,
                        "x = {x:e}, stored {stored}, eps {eps}"
                    );
                }
            }
        }
    }

    /// [`fit_one`] as it was before it knew about unit-stride runs and
    /// before it verified on the line: every point through the cone, every
    /// covered offset through `predict`. The reference for the test below.
    fn fit_one_pointwise(payload: &[Ppn], start: usize, eps: u32) -> Segment {
        let eps_f = f64::from(eps);
        let y0 = f64::from(payload[start]);
        let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
        let mut stop = start + 1;
        while stop < payload.len() && payload[stop] != PPN_NONE {
            let dx = (stop - start) as f64;
            let y = f64::from(payload[stop]);
            let nlo = lo.max((y - eps_f - y0) / dx);
            let nhi = hi.min((y + eps_f - y0) / dx);
            if nlo > nhi {
                break;
            }
            lo = nlo;
            hi = nhi;
            stop += 1;
        }
        let end = stop - 1;
        let slope = if end == start { 0.0 } else { (lo + hi) / 2.0 };
        let mut seg = Segment {
            start: start as u16,
            end: end as u16,
            base: y0,
            slope,
        };
        let near = |k: usize, p: Ppn| p.abs_diff(payload[k]) <= eps;
        let ok = |&k: &usize| seg.predict(k as u16).is_some_and(|p| near(k, p));
        seg.end = (start..=end).take_while(ok).last().unwrap_or(start) as u16;
        seg
    }

    /// The closed-form cone is the point-by-point cone bit for bit, for every
    /// run length a region can hold and runs at the bottom, in the middle and
    /// at the very top of the PPN range; and a fit that enters the cone loop
    /// at the end of such a run — which then ends the table, meets a hole
    /// (after a run up to `PPN_NONE - 1` the hole is the very number a
    /// wrapping successor would be), or goes on within or beyond ε of the
    /// line — is the fit that walked every point.
    #[test]
    fn unit_stride_entry_is_the_pointwise_cone() {
        for (eps, d) in [0u32, 1, 4, 17]
            .into_iter()
            .flat_map(|e| (1..=1024).map(move |d| (e, d)))
        {
            let eps_f = f64::from(eps);
            for base in [0, 1 << 20, PPN_NONE - 1 - d] {
                let y0 = f64::from(base);
                let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
                for j in 1..=d {
                    let (dx, y) = (f64::from(j), f64::from(base + j));
                    lo = lo.max((y - eps_f - y0) / dx);
                    hi = hi.min((y + eps_f - y0) / dx);
                    assert!(lo <= hi, "the cone of a unit run emptied at {j}");
                }
                let (clo, chi) = unit_cone(d as usize, eps_f);
                assert_eq!(
                    (clo.to_bits(), chi.to_bits()),
                    (lo.to_bits(), hi.to_bits()),
                    "eps {eps}, base {base}, run of {d}"
                );

                let run: Vec<Ppn> = (base..=base + d).collect();
                // Three more points parallel to the line, `by` off it towards
                // the inside of the PPN range.
                let inward = if base > 1 << 20 { -1 } else { 1 };
                let on = |by: u32| {
                    let next = i64::from(base + d) + inward * i64::from(by);
                    (1..4).map(|k| Ppn::try_from(next + k).unwrap()).collect()
                };
                let tails: [Vec<Ppn>; 4] = [
                    vec![],
                    vec![PPN_NONE, 0, 1, 2],
                    on(eps.max(3)),
                    on(2 * eps + 3),
                ];
                for (t, tail) in tails.iter().enumerate() {
                    let table = [&run[..], &tail[..]].concat();
                    assert_eq!(
                        bits(&fit_one(&table, 0, eps)),
                        bits(&fit_one_pointwise(&table, 0, eps)),
                        "eps {eps}, base {base}, run of {d}, tail {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn fitter_handles_degenerate_tables() {
        // A single mapped point fits one singleton segment, too short to
        // fill a view with.
        let mut one = vec![PPN_NONE; 8];
        one[3] = 42;
        let seg = fit_one(&one, 3, DEFAULT_EPSILON);
        assert_eq!((seg.start, seg.end), (3, 3));
        assert_eq!(seg.predict(3), Some(42));
        assert!(fit_around(&one, 3, DEFAULT_EPSILON).is_none());
        // A run up to the last PPN there is, then the hole a wrapping
        // successor would be: the walk to the run's start stops at neither.
        let top: Vec<Ppn> = [0, 4, 3, 2, 1].map(|below| PPN_NONE - below).into();
        let seg = fit_around(&top, 4, DEFAULT_EPSILON).expect("four in a row");
        assert_eq!((seg.start, seg.end), (1, 4));
    }

    /// No `translate` or `update_mapping` of a request of 1 to 16 pages
    /// writes back more than three dirty entries: a fill needs a segment's
    /// 16 B, an entry 14 B with its node, each eviction frees 6 B at least,
    /// the split a write-back makes never grows, and a prefetch pays none.
    #[test]
    fn no_call_chains_more_than_three_dirty_evictions() {
        for bytes in [16, 24, 64, 200, 1024] {
            let (mut ftl, mut env) = setup(bytes, 1.0);
            let mut rng = tpftl_rng::Rng64::seed_from_u64(0xD127 + bytes as u64);
            let (mut worst, mut prefetched) = (0, 0);
            for step in 0..3000 {
                // Mostly writes, clustered enough for fills to find runs.
                let start = (rng.below(16) * 128 + rng.below(40)) as Lpn;
                let (pages, is_write) = (1 + rng.below(16) as u32, rng.below(4) > 0);
                for (lpn, left) in (start..start + pages).zip((0..pages).rev()) {
                    gc::ensure_free(&mut ftl, &mut env).unwrap();
                    let ctx = AccessCtx {
                        is_write,
                        remaining_in_request: left,
                    };
                    let before = (env.stats.dirty_replacements, ftl.cached_entries());
                    let old = ftl.translate(&mut env, lpn, &ctx).unwrap();
                    worst = worst.max(env.stats.dirty_replacements - before.0);
                    prefetched += ftl.cached_entries().saturating_sub(before.1 + 1);
                    if is_write {
                        let new = env.program_data_page(lpn, OpPurpose::HostData).unwrap();
                        env.invalidate_page(old.expect("prefilled")).unwrap();
                        let before = env.stats.dirty_replacements;
                        ftl.update_mapping(&mut env, lpn, new).unwrap();
                        worst = worst.max(env.stats.dirty_replacements - before);
                    }
                    assert!(worst <= 3, "budget {bytes}: {worst} in one call");
                }
                if step % 16 == 0 {
                    audit(&ftl);
                }
            }
            assert!(worst >= 1, "budget {bytes}: no call evicted a dirty entry");
            assert!(prefetched > 0 || bytes < 64, "budget {bytes}: no prefetch");
        }
    }

    /// A formatted 2-region device whose region 0 maps offsets 0..64 to pages
    /// scattered so that no miss there finds a run worth a segment, and offsets
    /// 64..128 to one sequential run; everything else is unmapped.
    fn fragmented(bytes: usize) -> (LearnedFtl, SsdEnv) {
        let mut config = SsdConfig::paper_default(8 << 20);
        config.cache_bytes = config.gtd_bytes() + bytes;
        let mut env = SsdEnv::new(config.clone()).unwrap();
        let ftl = LearnedFtl::new(&config).unwrap();
        let mut payload = vec![PPN_NONE; env.entries_per_tp()];
        for lpn in (0..64).map(|k| k * 45 % 64).chain(64..128) {
            payload[lpn as usize] = env.program_data_page(lpn, OpPurpose::HostData).unwrap();
        }
        assert!((0..64).all(|off| fit_around(&payload, off, DEFAULT_EPSILON).is_none()));
        env.write_translation_page_full(0, &payload, OpPurpose::Translation)
            .unwrap();
        env.format().unwrap();
        env.reset_stats();
        (ftl, env)
    }

    /// One page access of a read request that has `left` more pages to come.
    fn read_ahead(ftl: &mut LearnedFtl, env: &mut SsdEnv, lpn: Lpn, left: u32) {
        let ctx = AccessCtx {
            is_write: false,
            remaining_in_request: left,
        };
        driver::serve_page_access(ftl, env, lpn, ctx).unwrap();
    }

    fn cached(ftl: &LearnedFtl, env: &SsdEnv, lpns: std::ops::Range<Lpn>) -> Vec<Lpn> {
        let held = |lpn: &Lpn| ftl.peek_cached(env, *lpn).unwrap().is_some();
        lpns.filter(held).collect()
    }

    #[test]
    fn request_over_a_fragmented_region_costs_one_translation_read() {
        let (mut ftl, mut env) = fragmented(1024);
        driver::serve_request(&mut ftl, &mut env, 8, 4, false).unwrap();
        assert_eq!((env.stats.lookups, env.stats.hits), (4, 3));
        assert_eq!(env.flash().stats().translation_reads(), 1);
        assert_eq!((ftl.segment_count(), ftl.cached_entries()), (0, 4));
        assert_eq!(cached(&ftl, &env, 0..64), [8, 9, 10, 11]);
        // Writes are loaded the same way, and dirtied one by one.
        driver::serve_request(&mut ftl, &mut env, 20, 3, true).unwrap();
        assert_eq!(env.flash().stats().translation_reads(), 2);
        let dist = ftl.cached_tp_distribution();
        assert_eq!((dist[0].entries, dist[0].dirty), (7, 3));
        audit(&ftl);
    }

    #[test]
    fn prefetch_stops_at_the_page_boundary_and_caches_unmapped_entries() {
        let (mut ftl, mut env) = fragmented(1024);
        // Four pages at the end of region 0, four at the start of region 1.
        driver::serve_request(&mut ftl, &mut env, 1020, 8, false).unwrap();
        assert_eq!((env.stats.lookups, env.stats.hits), (8, 6));
        assert_eq!(env.flash().stats().translation_reads(), 2);
        assert_eq!(
            cached(&ftl, &env, 1000..1100),
            (1020..1028).collect::<Vec<_>>()
        );
        // "Not mapped yet" is cached as a miss caches it.
        assert_eq!(ftl.peek_cached(&env, 1023).unwrap(), Some(None));
        audit(&ftl);
    }

    #[test]
    fn prefetch_skips_what_is_cached_and_what_a_view_covers() {
        let (mut ftl, mut env) = fragmented(1024);
        access(&mut ftl, &mut env, 70, false);
        assert_eq!((ftl.segment_count(), ftl.cached_entries()), (1, 0));
        assert_eq!(ftl.regions[0].view[0].covered(), 64);
        access(&mut ftl, &mut env, 61, false);
        env.reset_stats();
        // 60 misses; 61 is cached, 62 and 63 are loaded, 64..=68 predicted.
        driver::serve_request(&mut ftl, &mut env, 60, 9, false).unwrap();
        assert_eq!(env.flash().stats().translation_reads(), 1);
        assert_eq!((env.stats.hits, env.stats.predict_hits), (8, 5));
        assert_eq!(cached(&ftl, &env, 0..128), [60, 61, 62, 63]);
        assert_eq!(ftl.segment_count(), 1);
        audit(&ftl);
    }

    #[test]
    fn prefetch_stops_where_room_would_cost_a_write_back_or_the_request_itself() {
        // Room for one node of three entries.
        let (mut ftl, mut env) = fragmented(NODE_BYTES + 3 * ENTRY_BYTES);
        access(&mut ftl, &mut env, 11, false);
        access(&mut ftl, &mut env, 0, true);
        let reads = env.flash().stats().translation_reads();
        // 8 is loaded; 9 would have to evict 11, which the request will use.
        read_ahead(&mut ftl, &mut env, 8, 3);
        assert_eq!(env.flash().stats().translation_reads(), reads + 1);
        assert_eq!(env.stats.replacements, 0);
        assert_eq!(cached(&ftl, &env, 0..64), [0, 8, 11]);
        // The miss at 9 pays for its own room; 10 would have to evict entry 0,
        // which is dirty.
        read_ahead(&mut ftl, &mut env, 9, 2);
        assert_eq!(
            (env.stats.replacements, env.stats.dirty_replacements),
            (1, 0)
        );
        assert_eq!(cached(&ftl, &env, 0..64), [0, 8, 9]);
        assert_eq!(ftl.cached_tp_distribution()[0].dirty, 1);
        // The miss at 10 writes entry 0 back; 8 is behind the request now, a
        // victim like any other.
        read_ahead(&mut ftl, &mut env, 10, 1);
        assert_eq!(
            (env.stats.replacements, env.stats.dirty_replacements),
            (3, 1)
        );
        assert_eq!(cached(&ftl, &env, 0..64), [9, 10, 11]);
        read_ahead(&mut ftl, &mut env, 11, 0);
        assert_eq!(env.flash().stats().translation_reads(), reads + 4);
        assert_eq!((env.stats.lookups, env.stats.hits), (6, 1));
        audit(&ftl);
    }

    /// The translation-page writes made so far, GC's included.
    fn translation_writes(env: &SsdEnv) -> u64 {
        env.flash().stats().translation_writes()
    }

    /// Region 0's cached `(entries, dirty)`.
    fn region0(ftl: &LearnedFtl) -> (u32, u32) {
        let dist = ftl.cached_tp_distribution();
        let node = dist.iter().find(|d| d.vtpn == 0);
        node.map_or((0, 0), |d| (d.entries, d.dirty))
    }

    /// What the cache holds for each of `lpns`, all of them cached.
    fn cached_ppns(ftl: &LearnedFtl, env: &SsdEnv, lpns: &[Lpn]) -> Vec<Option<Ppn>> {
        let held = |&lpn: &Lpn| ftl.peek_cached(env, lpn).unwrap().expect("cached");
        lpns.iter().map(held).collect()
    }

    /// What the translation pages hold for each of `lpns`.
    fn persisted_ppns(env: &SsdEnv, lpns: &[Lpn]) -> Vec<Option<Ppn>> {
        lpns.iter().map(|&lpn| recovery::lookup(env, lpn)).collect()
    }

    #[test]
    fn a_dirty_eviction_writes_back_its_whole_region_once() {
        // Room for two nodes of two entries each.
        let (mut ftl, mut env) = fragmented(2 * NODE_BYTES + 4 * ENTRY_BYTES);
        for lpn in 0..3 {
            access(&mut ftl, &mut env, lpn, true);
        }
        assert_eq!(region0(&ftl), (3, 3));
        let dirty = cached_ppns(&ftl, &env, &[0, 1, 2]);
        let writes = translation_writes(&env);
        // Region 1 is unmapped: its entries cost no read and evict by recency.
        access(&mut ftl, &mut env, 1024, false);
        access(&mut ftl, &mut env, 1025, false);
        assert_eq!(translation_writes(&env), writes + 1, "one write for three");
        assert_eq!(persisted_ppns(&env, &[0, 1, 2]), dirty);
        assert_eq!(cached(&ftl, &env, 0..64), [1, 2]);
        assert_eq!(region0(&ftl), (2, 0));
        // The survivors are clean now: evicting them writes nothing.
        access(&mut ftl, &mut env, 1026, false);
        access(&mut ftl, &mut env, 1027, false);
        assert_eq!(cached(&ftl, &env, 0..64), []);
        assert_eq!(translation_writes(&env), writes + 1);
        let s = &env.stats;
        assert_eq!((s.replacements, s.dirty_replacements), (3, 1));
        audit(&ftl);
    }

    /// Moves the data page of `lpn` as a collection would, and hands the
    /// move to `ftl`.
    fn gc_move(ftl: &mut LearnedFtl, env: &mut SsdEnv, lpn: Lpn) -> Ppn {
        let old = recovery::lookup(env, lpn).expect("mapped");
        let new = env.program_data_page(lpn, OpPurpose::GcData).unwrap();
        env.invalidate_page(old).unwrap();
        ftl.on_gc_data_block(env, &[(lpn, new)]).unwrap();
        new
    }

    #[test]
    fn a_gc_write_back_takes_the_regions_dirty_entries_along() {
        let (mut ftl, mut env) = fragmented(1024);
        access(&mut ftl, &mut env, 0, true);
        access(&mut ftl, &mut env, 1, true);
        assert_eq!(region0(&ftl), (2, 2));
        let dirty = cached_ppns(&ftl, &env, &[0, 1]);
        // GC moves LPN 5, which is not cached: its page is written back.
        let writes = translation_writes(&env);
        let new = gc_move(&mut ftl, &mut env, 5);
        assert_eq!(translation_writes(&env), writes + 1);
        assert_eq!(recovery::lookup(&env, 5), Some(new));
        assert_eq!(persisted_ppns(&env, &[0, 1]), dirty);
        assert_eq!(region0(&ftl), (2, 0));
        audit(&ftl);
    }

    /// A fill over two dirty offsets, one write-back of both — by a dirty
    /// eviction or by GC — and the eviction of what is left clean: a re-read
    /// at ε = 0, where a mispredict can only be a stale point, mispredicts
    /// nothing.
    #[test]
    fn a_batched_write_back_splits_every_point_a_fill_fitted_stale() {
        for by_gc in [false, true] {
            // Room for a segment and one node of three entries.
            let (_, mut env) = fragmented(SEG_BYTES + NODE_BYTES + 3 * ENTRY_BYTES);
            let mut ftl = LearnedFtl::with_epsilon(env.config(), 0).unwrap();
            // The write of 66 fills 64..=127 and splits 66 out, dropping
            // 64..=65; that of 70 drops 67..=69.
            access(&mut ftl, &mut env, 66, true);
            access(&mut ftl, &mut env, 70, true);
            assert_eq!(region0(&ftl), (2, 2));
            // A miss at 64 fills 64..=127 again from the page, which still
            // holds the old mappings of the two dirty offsets.
            access(&mut ftl, &mut env, 64, false);
            let view = &ftl.regions[0].view;
            assert_eq!((view.len(), view[0].start, view[0].end), (1, 64, 127));
            let writes = translation_writes(&env);
            if by_gc {
                gc_move(&mut ftl, &mut env, 5);
                assert_eq!(region0(&ftl), (2, 0));
            }
            // Region 1's node takes the room: 66 is evicted, taking 70 back
            // with it if GC has not, then 70, clean now, goes for nothing.
            access(&mut ftl, &mut env, 1024, false);
            assert_eq!(translation_writes(&env), writes + 1, "by GC: {by_gc}");
            assert_eq!(cached(&ftl, &env, 0..128), []);
            env.reset_stats();
            for lpn in [70, 66, 72] {
                access(&mut ftl, &mut env, lpn, false);
            }
            let stale = env.stats.mispredicts;
            assert_eq!(stale, 0, "by GC: {by_gc}: a written-back point stayed");
            audit(&ftl);
        }
    }

    /// What a slot stands for: `(false, lpn)` an entry, `(true, vtpn)` a view.
    type Key = (bool, u32);

    /// Checks everything that must hold between the LRU, the region nodes
    /// and views, the table pool and the byte count; returns the LRU, coldest
    /// first.
    fn audit(ftl: &LearnedFtl) -> Vec<Key> {
        let mut order = Vec::new();
        for (idx, slot) in ftl.lru.iter_lru() {
            let (key, indexed) = match *slot {
                Slot::Entry { vtpn, off, .. } => {
                    let lpn = vtpn * ftl.entries_per_tp + u32::from(off);
                    ((false, lpn), ftl.handle(vtpn, off))
                }
                Slot::View(vtpn) => ((true, vtpn), ftl.regions[vtpn as usize].slot),
            };
            assert_eq!(indexed, Some(idx), "{key:?}");
            order.push(key);
        }
        let views = order.iter().filter(|k| k.0).count();
        assert_eq!(ftl.entries, order.len() - views);
        let slots = ftl.regions.iter().filter(|r| r.slot.is_some());
        assert_eq!(views, slots.count());
        let (mut segments, mut entries, mut nodes) = (0, 0, 0);
        for (vtpn, Region { view, slot, node }) in ftl.regions.iter().enumerate() {
            assert_eq!(slot.is_some(), !view.is_empty(), "region {vtpn}");
            segments += view.len();
            let worth = |s: &Segment| s.start <= s.end && s.covered() >= MIN_COVERED;
            assert!(view.iter().all(worth), "region {vtpn}: {view:?}");
            assert!(view.iter().all(|s| u32::from(s.end) < ftl.entries_per_tp));
            let disjoint = view.windows(2).all(|w| w[0].end < w[1].start);
            assert!(disjoint, "region {vtpn}: {view:?}");
            // Every table slot names the LRU slot of that very entry (the
            // loop above checked the other direction), only cached offsets
            // are dirty, and a node holds something.
            let Some(Node { tables, len }) = node.as_deref() else {
                continue;
            };
            let mut cached = 0;
            for off in 0..ftl.entries_per_tp as u16 {
                let Some(idx) = tables.get(off) else {
                    assert!(!tables.is_dirty(off), "region {vtpn}: {off} not cached");
                    continue;
                };
                let at = matches!(ftl.lru.get(idx), Some(&Slot::Entry { vtpn: v, off: o, .. })
                    if (v as usize, o) == (vtpn, off));
                assert!(at, "region {vtpn}: the slot of {off} is not its entry");
                cached += 1;
            }
            assert!(
                cached > 0 && cached == *len,
                "region {vtpn}: {cached} != {len}"
            );
            entries += cached as usize;
            nodes += 1;
        }
        assert_eq!((ftl.entries, ftl.nodes), (entries, nodes));
        assert!(ftl.pool.is_clear(), "a pooled table kept a slot or a bit");
        let bytes = entries * ENTRY_BYTES + nodes * NODE_BYTES + segments * SEG_BYTES;
        assert_eq!(
            (ftl.segment_count(), ftl.cache_bytes_used()),
            (segments, bytes)
        );
        assert!(bytes <= ftl.budget_bytes, "{bytes} B cached");
        order
    }

    /// The one LRU against a brute-force reference, a `Vec<(stamp, Key)>`
    /// kept from outside: 24 000 seeded reads, writes (GC moves whenever the
    /// pool runs low, and some on demand) and flushes on a 2-region device,
    /// at three budgets. After every step [`audit`] holds, and
    /// * what an access used is the hottest slot: a write its entry, a read
    ///   the entry it hit, else the view that predicted, else whichever of
    ///   the two it brought in — and a flush or a GC pass stamps nothing;
    /// * the slots that kept their stamp kept their order, and a slot that
    ///   left is colder than all of them — the evicted slot is always the
    ///   least recently used — unless it is a view that a split or a flush
    ///   could have emptied in this step.
    #[test]
    fn one_lru_evicts_by_recency_against_a_brute_force_model() {
        for bytes in [48, 160, 1024] {
            let (mut ftl, mut env) = setup(bytes, 0.75);
            let mut rng = tpftl_rng::Rng64::seed_from_u64(0x11C0 + bytes as u64);
            let mut model: Vec<(u64, Key)> = Vec::new();
            let (mut evicted_entries, mut evicted_views) = (0u64, 0u64);
            for stamp in 1..=8000u64 {
                let lpn = match rng.below(3) {
                    0 => rng.below(2048),
                    _ => rng.below(8) * 256 + rng.below(48),
                } as Lpn;
                let mine = [(false, lpn), (true, lpn / ftl.entries_per_tp)];
                let kept: Vec<Key> = model.iter().map(|&(_, k)| k).collect();
                // Whether the step is an access, and whether it may have
                // emptied any view by splitting rather than by evicting.
                let (accessed, any_view) = match rng.below(40) {
                    0 => {
                        recovery::flush_cache(&mut ftl, &mut env).unwrap();
                        (false, true)
                    }
                    1 => {
                        // Nothing to reclaim yet is fine.
                        let done = gc::collect_one(&mut ftl, &mut env);
                        assert!(matches!(done, Ok(()) | Err(FtlError::DeviceFull)));
                        (false, true)
                    }
                    op => {
                        let write = op % 2 == 0;
                        let before = (env.gc_stats.data_victims, env.stats.dirty_replacements);
                        let predicted = env.stats.predict_hits;
                        access(&mut ftl, &mut env, lpn, write);
                        let hottest = audit(&ftl).pop().expect("an access caches something");
                        let hit = kept.contains(&mine[0]);
                        let wanted = match (write || hit, env.stats.predict_hits > predicted) {
                            (true, _) => &mine[..1],
                            (false, true) => &mine[1..],
                            (false, false) => &mine[..],
                        };
                        assert!(wanted.contains(&hottest), "step {stamp}: {hottest:?}");
                        // A GC move splits where the page is mapped, a
                        // write-back in the evicted entry's region.
                        let after = (env.gc_stats.data_victims, env.stats.dirty_replacements);
                        (true, after != before)
                    }
                };
                let now = audit(&ftl);
                // The coldest slots that are in the order they were in kept
                // their stamp; the others are new or were used.
                let mut at = 0;
                let in_order = now.iter().take_while(|k| {
                    let found = kept[at..].iter().position(|m| m == *k);
                    at += found.map_or(0, |p| p + 1);
                    found.is_some()
                });
                let unstamped = in_order.count();
                let stamped = &now[unstamped..];
                assert!(stamped.iter().all(|k| accessed && mine.contains(k)));
                // (A used slot that was the hottest already is in order too.)
                let quiet = now[..unstamped].iter().filter(|k| !mine.contains(k));
                let coldest_kept = quiet.map(|k| kept.iter().position(|m| m == k)).min();
                for (pos, k) in kept.iter().enumerate().filter(|(_, k)| !now.contains(k)) {
                    let emptied = k.0 && (any_view || *k == mine[1]);
                    assert!(
                        emptied || coldest_kept.is_none_or(|c| Some(pos) < c),
                        "step {stamp}: {k:?} left before a colder slot"
                    );
                    *if k.0 {
                        &mut evicted_views
                    } else {
                        &mut evicted_entries
                    } += u64::from(!emptied);
                }
                model.retain(|(_, k)| now[..unstamped].contains(k));
                model.extend(stamped.iter().map(|&k| (stamp, k)));
                assert!(model.windows(2).all(|w| w[0].0 <= w[1].0));
                assert!(model.iter().map(|(_, k)| k).eq(&now));
            }
            assert!(evicted_entries > 500, "budget {bytes}: {evicted_entries}");
            assert!(evicted_views > 0 || bytes == 1024, "budget {bytes}");
        }
    }
}
