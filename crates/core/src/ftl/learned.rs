//! LearnedFTL: a learned page-level mapping that kills the double read.
//!
//! DFTL-style demand paging pays a translation-page read on every mapping
//! cache miss — the "double read" (one flash read to learn where the data
//! is, one to fetch it). LearnedFTL observes that flash allocation is
//! log-structured: sequentially (or semi-sequentially) written LPN ranges
//! land on near-contiguous PPNs, so the LPN→PPN function is piecewise
//! near-linear and can be *learned*. This FTL keeps, per translation-page
//! region, a set of piecewise-linear segments with a fixed error bound ε,
//! greedily fitted whenever a translation page is written back. A cache
//! miss first consults the segments: a predicted PPN is validated against
//! the out-of-band reverse map of the target page (free — the subsequent
//! host data read returns the OOB tag anyway), and only a mispredict falls
//! back to the demand-paged GTD path, charging one wasted speculative read
//! when the mispredicted page was readable.
//!
//! Three invariants keep the design sound:
//!
//! * **No silent wrong PPN.** A prediction is served only if the target
//!   page is valid, is a data page, and its OOB tag equals the looked-up
//!   LPN. Because data is programmed before the superseded copy is
//!   invalidated *within* one page access, at most one valid data page per
//!   LPN exists whenever `translate` runs — a passing check identifies the
//!   current mapping, bit-exactly.
//! * **Segments are invalidated on overwrite and GC migration.** An
//!   overwritten, migrated, or mispredicted offset splits its covering
//!   segment around the stale point; the two remnants keep predicting the
//!   same real-valued line, so their exactness is untouched.
//! * **Learned state is volatile.** Segments live only in this struct:
//!   a power cycle discards them, and [`LearnedFtl::warm_up`] (also run by
//!   [`Ftl::after_bootstrap`]) rebuilds them from the persisted translation
//!   pages with zero flash traffic, via the mount-scan peek path.

use tpftl_flash::{Lpn, OpPurpose, PageState, Ppn, Vtpn, PPN_NONE};

use crate::env::SsdEnv;
use crate::ftl::cmt::{self, mapped, Entry, EntryCache, PageStep, TpTally, ENTRY_BYTES};
use crate::ftl::{AccessCtx, Ftl, TpDistEntry};
use crate::{FtlError, Result, SsdConfig};

/// Default prediction error bound ε (in pages). Small enough that a
/// mispredicted speculative read stays rare on linear regions, large
/// enough that the greedy fitter absorbs the small allocation jitter of
/// semi-sequential writes into long segments.
pub const DEFAULT_EPSILON: u32 = 4;

/// Modeled bytes per learned segment (start/end offsets + fixed-point
/// base and slope — the hardware encoding LearnedFTL assumes).
const SEG_BYTES: usize = 16;

/// Minimum offsets a segment must cover to be worth its footprint: below
/// this, plain CMT entries are denser than the segment describing them.
const MIN_COVERED: usize = 4;

/// Per-region segment cap; a region too fragmented to fit under it keeps
/// only its longest segments (the rest route to the fallback path).
const MAX_SEGS_PER_REGION: usize = 32;

/// One learned segment: over in-region offsets `start..=end`, predicts
/// `round(base + slope * (off - start))`.
///
/// `base` is the real-valued line height at `start` (not a rounded PPN),
/// so splitting a segment re-anchors the remnant on the *same* line and
/// every surviving prediction is bit-identical to before the split.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start: u16,
    /// Inclusive.
    end: u16,
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

    /// Everything a prediction depends on, comparable bit for bit.
    fn bits(&self) -> (u16, u16, u64, u64) {
        (
            self.start,
            self.end,
            self.base.to_bits(),
            self.slope.to_bits(),
        )
    }
}

/// Whether two segment lists predict the same everywhere, bit for bit.
fn same_bits(a: &[Segment], b: &[Segment]) -> bool {
    a.iter().map(Segment::bits).eq(b.iter().map(Segment::bits))
}

/// `x.round()` as a PPN, or `None` when that is negative, `PPN_NONE` or
/// more, or NaN — in integer arithmetic, because `f64::round` is a library
/// call on baseline x86-64 and this runs once per fitted offset.
///
/// `round` takes halves away from zero, so it lands in `0..PPN_NONE`
/// exactly for `x` in `(-0.5, PPN_NONE - 0.5)`, an interval whose ends are
/// representable; a NaN fails both comparisons. Inside it a negative `x`
/// rounds to zero. Otherwise `t = x as u64` is `floor(x)` with nothing
/// lost (`x < 2^32`), `x - t` is exact (`t <= x < t + 1` puts both within
/// a factor of two of each other, or `t` is zero), and `round` adds one
/// exactly when that fraction reaches a half — which `floor(x + 0.5)`
/// would get wrong just below a half, where the sum rounds up.
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
/// line: `round` takes halves away from zero, so it is `m` or more from
/// `m - 0.5` on and `m` or less below `m + 0.5` — all bounds representable.
fn rounds_within(x: f64, stored: Ppn, eps_f: f64) -> bool {
    let s = f64::from(stored);
    x > -0.5 && x < f64::from(PPN_NONE) - 0.5 && x >= s - eps_f - 0.5 && x < s + eps_f + 0.5
}

/// The feasible-slope cone after `d` points whose PPNs ascend by exactly
/// one, in closed form: point `j` bounds the slope by `fl((j ∓ ε) / j)` with
/// an exact numerator, `fl` is monotone, `1 − ε/j` rises and `1 + ε/j` falls
/// in `j`, so the running max/min are the last point's (and `lo <= 1 <= hi`).
fn unit_cone(d: usize, eps_f: f64) -> (f64, f64) {
    if d == 0 {
        return (f64::NEG_INFINITY, f64::INFINITY);
    }
    let d = d as f64;
    ((d - eps_f) / d, (d + eps_f) / d)
}

/// One step of the greedy shrinking-cone fit (LearnedFTL §3): the raw
/// segment that starts at the mapped offset `start`. Walk the run of
/// mapped entries, intersecting the feasible-slope interval point by
/// point from the end of its unit-stride prefix on ([`unit_cone`]); when
/// the interval empties (or the run ends), close the segment at the
/// previous point. A closing verification pass re-checks every covered
/// offset under the *rounded* prediction (the cone guarantees only the
/// real-valued bound) and truncates at the first violation, so the
/// segment satisfies |predict(off) − payload[off]| ≤ ε exactly.
///
/// Also returns the offset the cone stopped at (`payload.len()` when it
/// ran off the end): the step read `payload[start..=stop]` and nothing
/// else, which is what makes the fit restartable (see [`FitMemo`]). The
/// cone stops right after the segment's end unless the verification pass
/// cut the segment short.
fn fit_one(payload: &[Ppn], start: usize, eps: u32) -> (Segment, usize) {
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
    // Rounding verification: shrink to the prefix where the integer
    // prediction really is within ε of the stored mapping.
    let ok = |&k: &usize| rounds_within(seg.line(k as u16), payload[k], eps_f);
    let vend = (start..=end).take_while(ok).last().unwrap_or(start);
    seg.end = vend as u16;
    (seg, stop)
}

/// The first mapped offset at or after `from`, or `payload.len()`.
fn next_mapped(payload: &[Ppn], from: usize) -> usize {
    payload[from..]
        .iter()
        .position(|&p| p != PPN_NONE)
        .map_or(payload.len(), |d| from + d)
}

/// Host-side memo of a region's last greedy fit — simulator state, not
/// modelled device RAM: [`Ftl::cache_bytes_used`] does not charge it.
///
/// The fit is a pure left-to-right function of the payload: the raw
/// (pre-trim) segment that starts at `s` depends only on the entries from
/// `s` up to where the next one starts — `overreach` more at worst — and
/// where the next one starts depends only on those too. So after a
/// write-back changed an offset, every raw segment before the last one
/// that starts (`overreach` or more) below it stands, and as soon as the
/// re-run pass is about to start a segment where the old pass started
/// one, beyond the changed offset, the rest of the old fit stands too.
/// [`FitMemo::update`] re-fits only what lies between.
#[derive(Debug)]
struct FitMemo {
    /// Bit `s` is set iff a raw segment starts at offset `s`. All clear,
    /// the memo knows nothing and the next update fits from scratch.
    starts: Box<[u64]>,
    /// No fit read further than this many entries beyond the start of
    /// the raw segment after it: the most by which a cone outran its
    /// segment's verified end (which takes a line that leaves the PPN
    /// range). Kept as a bound, so never lowered short of `clear`.
    overreach: usize,
    /// The raw segments covering at least [`MIN_COVERED`] offsets — what
    /// `refit` trims to the segment budget — by ascending `start`.
    fits: Vec<Segment>,
    /// The region's live view is exactly the `view.len()` longest of `fits`
    /// (set by the refit that installs one, cleared by `split_covering`'s
    /// edits and by `clear`): [`keep_longest`]'s choices are nested in `room`.
    view_is_top: bool,
}

impl FitMemo {
    /// A memo that knows nothing, for a region of `entries` offsets.
    fn new(entries: usize) -> Self {
        Self {
            starts: vec![0; entries.div_ceil(64)].into(),
            overreach: 0,
            fits: Vec::new(),
            view_is_top: false,
        }
    }

    fn clear(&mut self) {
        self.starts.fill(0);
        self.overreach = 0;
        self.fits.clear();
        self.view_is_top = false;
    }

    fn is_start(&self, off: usize) -> bool {
        self.starts[off / 64] >> (off % 64) & 1 == 1
    }

    /// The last offset below `below` that starts a raw segment.
    fn last_start_below(&self, below: usize) -> Option<usize> {
        let top = |w: usize, bits: u64| w * 64 + 63 - bits.leading_zeros() as usize;
        let (w, bit) = (below / 64, below % 64);
        let partial = self.starts.get(w).map_or(0, |&x| x & ((1 << bit) - 1));
        if partial != 0 {
            return Some(top(w, partial));
        }
        let w = self.starts[..w].iter().rposition(|&x| x != 0)?;
        Some(top(w, self.starts[w]))
    }

    /// Forgets the starts at the offsets `from..to`.
    fn clear_starts(&mut self, from: usize, to: usize) {
        if from == to {
            return;
        }
        let (first, last) = (from / 64, (to - 1) / 64);
        let head = !0u64 << (from % 64);
        let tail = !0u64 >> (63 - (to - 1) % 64);
        if first == last {
            self.starts[first] &= !(head & tail);
        } else {
            self.starts[first] &= !head;
            self.starts[first + 1..last].fill(0);
            self.starts[last] &= !tail;
        }
    }

    /// Brings the memo in line with `payload`, which differs from the
    /// table it was last fitted on at most at the offsets `at` (ascending);
    /// returns whether `fits` changed in any bit. `buf` is a buffer to reuse.
    fn update(&mut self, payload: &[Ppn], eps: u32, at: &[u16], buf: &mut Vec<Segment>) -> bool {
        let n = payload.len();
        let (mut c, mut moved) = (0, false);
        while let Some(&lo) = at.get(c) {
            let lo = usize::from(lo);
            // Restart at the last raw segment that starts so far below
            // `lo` that no fit before it read `lo`; failing that, at 0.
            let from = self
                .last_start_below(lo.saturating_sub(self.overreach))
                .unwrap_or(0);
            buf.clear();
            // The pass has re-fitted every offset below `done` and will
            // start its next segment at `start`.
            let mut done = from;
            let mut start = next_mapped(payload, from);
            loop {
                // Old starts the new pass stepped over are gone.
                self.clear_starts(done, start);
                // Resynchronised: past `lo` and about to start where the
                // old pass started one, on entries it saw the same.
                if start == n || (start > lo && self.is_start(start)) {
                    break;
                }
                let (seg, stop) = fit_one(payload, start, eps);
                let end = usize::from(seg.end);
                self.starts[start / 64] |= 1 << (start % 64);
                self.overreach = self.overreach.max(stop - end - 1);
                if seg.covered() >= MIN_COVERED {
                    buf.push(seg);
                }
                done = start + 1;
                start = next_mapped(payload, end + 1);
            }
            let a = self.fits.partition_point(|s| usize::from(s.start) < from);
            let b = a + self.fits[a..].partition_point(|s| usize::from(s.start) < start);
            if !same_bits(&self.fits[a..b], buf) {
                self.fits.splice(a..b, buf.drain(..));
                moved = true;
            }
            // The new fits read the changed offsets below `start`.
            c = at.partition_point(|&o| usize::from(o) < start).max(c + 1);
        }
        moved
    }

    /// Whether `self` is the fit `fresh`, the from-scratch fit of the same
    /// payload, bit for bit.
    fn matches(&self, fresh: &FitMemo) -> bool {
        self.starts == fresh.starts
            && self.overreach >= fresh.overreach
            && same_bits(&self.fits, &fresh.fits)
    }
}

/// The from-scratch fit of `payload`: the incremental fit of a memo that
/// knows nothing, so started at offset 0 and never resynchronising.
fn fit_region(payload: &[Ppn], eps: u32) -> FitMemo {
    let mut memo = FitMemo::new(payload.len());
    memo.update(payload, eps, &[0], &mut Vec::new());
    memo
}

/// Appends to `out` the `room` segments of `fits` (a region of `entries`
/// offsets, ascending by `start`) that cover the most offsets, ties to the
/// lower start — all of them if there are no more — still ascending.
///
/// That order is the ascending order of one `u32` per segment, its count
/// of uncovered offsets above its start, and no two are equal. So only the
/// keys are selected on, in the reused buffer `keys`, and the segments at
/// or below the `room`-th key are copied across in the order they are in.
fn keep_longest(
    fits: &[Segment],
    room: usize,
    entries: usize,
    keys: &mut Vec<u32>,
    out: &mut Vec<Segment>,
) {
    if fits.len() <= room {
        out.extend_from_slice(fits);
    } else if room > 0 {
        let key = |s: &Segment| ((entries - s.covered()) as u32) << 16 | u32::from(s.start);
        keys.clear();
        keys.extend(fits.iter().map(key));
        let cut = *keys.select_nth_unstable(room - 1).1;
        out.extend(fits.iter().filter(|s| key(s) <= cut));
    }
}

/// What is learned about one translation-page region. Volatile, all of it.
struct Region {
    /// The live segments, sorted by `start`, disjoint; empty for none.
    view: Vec<Segment>,
    /// The last raw fit, and whether `view` still is what it installed.
    memo: FitMemo,
}

/// The index of the segment of `view` that covers `off`.
fn covering(view: &[Segment], off: u16) -> Option<usize> {
    let i = view.partition_point(|s| s.start <= off).checked_sub(1)?;
    (off <= view[i].end).then_some(i)
}

/// The learned page-level FTL.
pub struct LearnedFtl {
    epsilon: u32,
    budget_bytes: usize,
    seg_budget_bytes: usize,
    /// Learned index and fit memo per region, indexed by VTPN.
    regions: Vec<Region>,
    /// Total bytes charged for segments (`Σ view.len() · SEG_BYTES`).
    seg_bytes: usize,
    /// Fallback CMT: flat LRU of individual entries, as DFTL's cache but
    /// unsegmented — the learned index already protects the sequential
    /// ranges an SLRU would.
    cmt: EntryCache,
    /// Buffers `refit` reuses from call to call.
    scratch: Scratch,
}

#[derive(Default)]
struct Scratch {
    /// The changed offsets of the refit in progress, ascending.
    changed: Vec<u16>,
    /// The segments [`FitMemo::update`] is about to splice in.
    fits: Vec<Segment>,
    /// One trim key per raw fit of the region being trimmed.
    keys: Vec<u32>,
}

impl LearnedFtl {
    /// Creates a LearnedFTL with the default ε whose learned index and
    /// fallback CMT share the config's usable cache budget (segments
    /// capped at half of it).
    ///
    /// # Errors
    ///
    /// [`FtlError::CacheTooSmall`] if not even one CMT entry fits beside
    /// a full segment budget.
    pub fn new(config: &SsdConfig) -> Result<Self> {
        Self::with_epsilon(config, DEFAULT_EPSILON)
    }

    /// Creates a LearnedFTL with an explicit error bound `epsilon`.
    ///
    /// # Errors
    ///
    /// [`FtlError::CacheTooSmall`], as [`LearnedFtl::new`].
    pub fn with_epsilon(config: &SsdConfig, epsilon: u32) -> Result<Self> {
        let budget_bytes = config.usable_cache_bytes();
        if budget_bytes < 2 * ENTRY_BYTES {
            return Err(FtlError::CacheTooSmall);
        }
        Ok(Self {
            epsilon,
            budget_bytes,
            seg_budget_bytes: budget_bytes / 2,
            regions: std::iter::repeat_with(|| Region {
                view: Vec::new(),
                memo: FitMemo::new(config.entries_per_tp()),
            })
            .take(config.num_vtpns() as usize)
            .collect(),
            seg_bytes: 0,
            cmt: EntryCache::new(config.entries_per_tp()),
            scratch: Scratch::default(),
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

    /// Rebuilds the whole learned index from the persisted translation
    /// pages — the warm-up pass run at bootstrap and after a remount
    /// (recovery discards all learned state; see `crate::recovery`).
    /// Costs no flash reads: it uses the same free payload peek the
    /// mount-time scan uses.
    pub fn warm_up(&mut self, env: &SsdEnv) {
        for vtpn in 0..env.gtd().len() as Vtpn {
            // An empty memo makes this the from-scratch fit.
            self.regions[vtpn as usize].memo.clear();
            self.refit(env, vtpn, [0]);
        }
    }

    /// The predicted PPN for `off` in region `vtpn`, if a segment covers
    /// it and the line stays in range.
    fn predict_at(&self, vtpn: Vtpn, off: u16) -> Option<Ppn> {
        let view = &self.regions[vtpn as usize].view;
        view[covering(view, off)?].predict(off)
    }

    /// Re-fits region `vtpn` from its persisted translation page, which
    /// the caller just wrote back with new values at the offsets `changed`
    /// — called on every translation-page writeback (dirty CMT eviction,
    /// GC batch update) and from [`LearnedFtl::warm_up`]. Only the part of
    /// the greedy fit that read a changed offset is redone (see
    /// [`FitMemo`]); the result is the from-scratch fit all the same.
    /// Keeps only segments covering at least [`MIN_COVERED`] offsets, caps
    /// the region at [`MAX_SEGS_PER_REGION`], and trims (longest coverage
    /// first, ties to the lower start) to the global segment budget —
    /// unless that would reinstall the view it found, which it then leaves.
    fn refit(&mut self, env: &SsdEnv, vtpn: Vtpn, changed: impl IntoIterator<Item = u16>) {
        let Region { view, memo } = &mut self.regions[vtpn as usize];
        // The budget with the region's own bytes given back.
        let others = self.seg_bytes - view.len() * SEG_BYTES;
        let tp = env.gtd().get(vtpn);
        let Some(payload) = tp.and_then(|tp| env.flash().peek_translation_payload(tp)) else {
            self.seg_bytes = others;
            view.clear();
            memo.clear();
            return;
        };
        let scratch = &mut self.scratch;
        scratch.changed.clear();
        scratch.changed.extend(changed);
        scratch.changed.sort_unstable();
        let moved = memo.update(payload, self.epsilon, &scratch.changed, &mut scratch.fits);
        debug_assert!(
            memo.matches(&fit_region(payload, self.epsilon)),
            "incremental refit of region {vtpn} after changes at {:?} left the from-scratch fit",
            scratch.changed
        );
        let room = ((self.seg_budget_bytes - others) / SEG_BYTES).min(MAX_SEGS_PER_REGION);
        if !moved && memo.view_is_top && room.min(memo.fits.len()) == view.len() {
            debug_assert!({
                let (mut keys, mut full) = (Vec::new(), Vec::new());
                keep_longest(&memo.fits, room, payload.len(), &mut keys, &mut full);
                same_bits(&full, view)
            });
            return;
        }
        view.clear();
        keep_longest(&memo.fits, room, payload.len(), &mut scratch.keys, view);
        self.seg_bytes = others + view.len() * SEG_BYTES;
        memo.view_is_top = true;
    }

    /// Invalidates the prediction point `off` of region `vtpn` after an
    /// overwrite or GC migration: the covering segment is split around
    /// `off`, remnants re-anchored on the same real-valued line (their
    /// predictions are bit-identical to before), and remnants too short
    /// to pay for themselves are dropped.
    fn split_covering(&mut self, vtpn: Vtpn, off: u16) {
        let Region { view: segs, memo } = &mut self.regions[vtpn as usize];
        let Some(i) = covering(segs, off) else {
            return;
        };
        let s = segs[i];
        memo.view_is_top = false;
        let worth = |r: &Segment| r.covered() >= MIN_COVERED;
        let left = (off > s.start)
            .then(|| Segment { end: off - 1, ..s })
            .filter(worth);
        let right = (off < s.end)
            .then(|| Segment {
                start: off + 1,
                base: s.base + s.slope * f64::from(off + 1 - s.start),
                ..s
            })
            .filter(worth);
        match (left, right) {
            (Some(l), Some(r)) if self.seg_bytes + SEG_BYTES > self.seg_budget_bytes => {
                // A two-way split would net one extra segment over budget;
                // keep the longer remnant (ties favour the left one).
                segs[i] = if r.covered() > l.covered() { r } else { l };
            }
            (Some(l), Some(r)) => {
                segs[i] = l;
                segs.insert(i + 1, r);
                self.seg_bytes += SEG_BYTES;
            }
            (Some(one), None) | (None, Some(one)) => segs[i] = one,
            (None, None) => {
                segs.remove(i);
                self.seg_bytes -= SEG_BYTES;
            }
        }
    }

    /// Evicts the CMT's LRU entry, writing it back alone if dirty (and
    /// re-fitting its region from the freshly persisted page).
    fn evict_one(&mut self, env: &mut SsdEnv) -> Result<()> {
        let victim = self.cmt.pop_lru().ok_or(FtlError::CacheTooSmall)?;
        env.note_replacement(victim.dirty);
        if victim.dirty {
            let (vtpn, off) = (env.vtpn_of(victim.lpn), env.offset_of(victim.lpn));
            env.update_translation_page(vtpn, &[(off, victim.ppn)], OpPurpose::Translation)?;
            self.refit(env, vtpn, [off]);
        }
        Ok(())
    }

    fn insert(&mut self, env: &mut SsdEnv, entry: Entry) -> Result<()> {
        while (self.cmt.len() + 1) * ENTRY_BYTES + self.seg_bytes > self.budget_bytes {
            self.evict_one(env)?;
        }
        self.cmt.insert_mru(entry);
        Ok(())
    }
}

impl Ftl for LearnedFtl {
    fn name(&self) -> String {
        format!("LearnedFTL(e{})", self.epsilon)
    }

    fn translate(&mut self, env: &mut SsdEnv, lpn: Lpn, _ctx: &AccessCtx) -> Result<Option<Ppn>> {
        if let Some(e) = self.cmt.touch(lpn) {
            env.note_lookup(true);
            return Ok(mapped(e.ppn));
        }
        let vtpn = env.vtpn_of(lpn);
        let off = env.offset_of(lpn);
        if let Some(pred) = self.predict_at(vtpn, off) {
            let valid = matches!(env.flash.state(pred), Ok(PageState::Valid));
            if valid
                && env.flash.peek_translation_payload(pred).is_none()
                && env.flash.tag(pred) == Ok(lpn)
            {
                // Validated against the OOB reverse map: `pred` is the one
                // valid data page holding `lpn`, so it *is* the current
                // mapping — served with zero translation reads (the host
                // data read that follows doubles as the OOB fetch).
                env.note_lookup(true);
                env.note_predict(true);
                return Ok(Some(pred));
            }
            // Mispredict. A readable target cost one wasted speculative
            // read; an unreadable one (freed, torn, out of range) was
            // rejected by its OOB state for free.
            env.note_predict(false);
            if valid {
                env.flash.read_page(pred, OpPurpose::Translation)?;
            }
            // Excise only the lying point: on an ε-inexact fit the
            // remnants still predict their own offsets exactly.
            self.split_covering(vtpn, off);
        }
        env.note_lookup(false);
        let ppn = env.read_translation_entry(vtpn, off, OpPurpose::Translation)?;
        self.insert(env, Entry::clean(lpn, ppn))?;
        Ok(mapped(ppn))
    }

    fn update_mapping(&mut self, env: &mut SsdEnv, lpn: Lpn, new_ppn: Ppn) -> Result<()> {
        self.split_covering(env.vtpn_of(lpn), env.offset_of(lpn));
        // Unlike DFTL, a translate served by the learned index leaves no
        // CMT entry behind, so the write path must insert-if-absent.
        if let Some(e) = self.cmt.touch(lpn) {
            e.remap(new_ppn);
            return Ok(());
        }
        self.insert(env, Entry::dirty(lpn, new_ppn))
    }

    fn on_gc_data_block(&mut self, env: &mut SsdEnv, moved: &[(Lpn, Ppn)]) -> Result<u64> {
        cmt::absorb_gc_moves(
            self,
            env,
            moved,
            |ftl, env, lpn, new_ppn| {
                ftl.split_covering(env.vtpn_of(lpn), env.offset_of(lpn));
                Ok(ftl.cmt.get_mut(lpn).map(|e| e.remap(new_ppn)).is_some())
            },
            |ftl, env, vtpn, step| {
                // The freshly persisted page is the fitting opportunity: GC
                // lays migrated pages out near-contiguously, exactly the
                // pattern the segments capture.
                if let PageStep::Persisted(batch) = step {
                    ftl.refit(env, vtpn, batch.iter().map(|&(off, _)| off));
                }
            },
        )
    }

    fn after_bootstrap(&mut self, env: &mut SsdEnv) -> Result<()> {
        self.warm_up(env);
        Ok(())
    }

    fn cache_bytes_used(&self) -> usize {
        self.cmt.len() * ENTRY_BYTES + self.seg_bytes
    }

    fn cached_entries(&self) -> usize {
        self.cmt.len()
    }

    fn peek_cached(&self, _env: &SsdEnv, lpn: Lpn) -> Result<Option<Option<Ppn>>> {
        Ok(self.cmt.get(lpn).map(|e| mapped(e.ppn)))
    }

    fn mark_clean(&mut self, vtpn: Vtpn) {
        self.cmt.clean_vtpn(vtpn, |_| {});
        // The flush rewrote the region's page without a refit: what the
        // memo remembers is no longer a fit of what is persisted.
        self.regions[vtpn as usize].memo.clear();
    }

    fn cached_tp_distribution(&self) -> Vec<TpDistEntry> {
        // Learned segments are clean derived state; only CMT entries count
        // as cached mapping entries (they are what a flush must persist).
        let mut tally = TpTally::default();
        self.cmt.tally(&mut tally);
        tally.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver;

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

    #[test]
    fn cache_too_small_rejected() {
        let mut config = SsdConfig::paper_default(8 << 20);
        config.cache_bytes = config.gtd_bytes() + ENTRY_BYTES;
        assert!(matches!(
            LearnedFtl::new(&config),
            Err(FtlError::CacheTooSmall)
        ));
    }

    #[test]
    fn sequential_prefill_translates_with_zero_flash_reads() {
        let (mut ftl, mut env) = setup(1024, 0.5);
        assert!(ftl.segment_count() > 0, "warm-up fitted no segments");
        for lpn in [0u32, 5, 511, 1000] {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(false)).unwrap();
        }
        assert_eq!(env.stats.predict_hits, 4);
        assert_eq!(env.stats.mispredicts, 0);
        assert_eq!(env.stats.hits, 4, "predict hits count as cache hits");
        // The entire point: not a single translation-page read.
        assert_eq!(env.flash().stats().translation_reads(), 0);
    }

    #[test]
    fn overwrite_splits_segment_and_routes_to_fallback() {
        let (mut ftl, mut env) = setup(64, 0.5);
        let segs_before = ftl.segment_count();
        driver::serve_page_access(&mut ftl, &mut env, 10, AccessCtx::single(true)).unwrap();
        assert!(
            ftl.segment_count() > segs_before,
            "overwrite must split the covering segment"
        );
        // Neighbours still predict exactly off the remnants.
        env.reset_stats();
        driver::serve_page_access(&mut ftl, &mut env, 9, AccessCtx::single(false)).unwrap();
        driver::serve_page_access(&mut ftl, &mut env, 11, AccessCtx::single(false)).unwrap();
        assert_eq!(env.stats.predict_hits, 2);
        // Evict the dirty entry for LPN 10, then re-read it: offset 10 is
        // uncovered now, so the read must take the GTD fallback path and
        // still resolve correctly (read_data_page panics otherwise).
        for lpn in 600..610u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(true)).unwrap();
        }
        assert!(ftl.cmt.get(10).is_none(), "entry 10 must be evicted");
        env.reset_stats();
        driver::serve_page_access(&mut ftl, &mut env, 10, AccessCtx::single(false)).unwrap();
        assert_eq!(env.stats.predict_hits, 0);
        assert_eq!(env.stats.mispredicts, 0, "split must not leave a liar");
        // At least the fallback's translation read (a dirty eviction the
        // insert forces may add an RMW read on top).
        assert!(env.flash().stats().translation_reads() >= 1);
    }

    #[test]
    fn inexact_fit_mispredicts_are_validated_and_fall_back() {
        // Manufacture a region whose mapping is linear with slope 1.5:
        // within ε of a line everywhere, but the rounded prediction is
        // wrong at every other point — the mispredict arm, exercised
        // deterministically.
        let config = SsdConfig::paper_default(8 << 20);
        let mut env = SsdEnv::new(config.clone()).unwrap();
        let mut ftl = LearnedFtl::new(&config).unwrap();
        let mut payload = vec![PPN_NONE; env.entries_per_tp()];
        for off in 0..64u32 {
            // Stride the allocator: burn a page between mappings so PPNs
            // advance by 2, except at two bump offsets where the burn is
            // skipped — the mapping is within ε of a single line of slope
            // just under 2, but no rounded prediction can be right both
            // before and after the bumps.
            if off > 0 && off != 29 && off != 51 {
                env.program_data_page(2000, OpPurpose::HostData).unwrap();
            }
            let ppn = env.program_data_page(off, OpPurpose::HostData).unwrap();
            payload[off as usize] = ppn;
        }
        env.write_translation_page_full(0, &payload, OpPurpose::Translation)
            .unwrap();
        env.format().unwrap();
        ftl.after_bootstrap(&mut env).unwrap();
        env.reset_stats();
        assert!(ftl.segment_count() > 0, "the 1.5-line must fit within ε");
        for off in 0..64u32 {
            driver::serve_page_access(&mut ftl, &mut env, off, AccessCtx::single(false)).unwrap();
        }
        assert!(env.stats.predict_hits > 0, "some points round exactly");
        assert!(env.stats.mispredicts > 0, "some points round wrong");
        // Every mispredict was caught by OOB validation and resolved via
        // the fallback (read_data_page above would have panicked on any
        // silent wrong PPN). Accounting: every non-predicted access costs
        // one translation read, and every mispredict additionally charged
        // one wasted speculative read.
        assert_eq!(
            env.flash().stats().translation_reads(),
            64 - env.stats.predict_hits + env.stats.mispredicts
        );
    }

    #[test]
    fn budget_never_exceeded() {
        let (mut ftl, mut env) = setup(128, 0.5);
        for i in 0..400u32 {
            driver::serve_page_access(
                &mut ftl,
                &mut env,
                (i * 37) % 2048,
                AccessCtx::single(i % 3 != 0),
            )
            .unwrap();
            assert!(ftl.cache_bytes_used() <= 128);
            assert!(ftl.seg_bytes <= ftl.seg_budget_bytes);
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
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(true)).unwrap();
        }
        assert!(env.stats.gc_updates > 0, "GC never migrated pages");
        for lpn in 0..64u32 {
            let ppn = ftl
                .translate(&mut env, lpn, &AccessCtx::single(false))
                .unwrap()
                .unwrap();
            env.read_data_page(ppn, lpn).unwrap();
        }
    }

    #[test]
    fn learned_state_is_volatile_and_warm_up_rebuilds_it() {
        let (ftl, env) = setup(1024, 0.5);
        assert!(ftl.segment_count() > 0);
        // A power cycle constructs a fresh FTL: no learned state survives.
        let config = env.config().clone();
        let flash = env.into_flash();
        let (env2, _) = crate::recovery::crash_mount(flash, config.clone()).unwrap();
        let mut fresh = LearnedFtl::new(&config).unwrap();
        assert_eq!(fresh.segment_count(), 0);
        assert_eq!(fresh.cached_entries(), 0);
        fresh.warm_up(&env2);
        assert_eq!(
            fresh.segment_count(),
            {
                let mut reference = LearnedFtl::new(&config).unwrap();
                reference.warm_up(&env2);
                reference.segment_count()
            },
            "warm-up must be deterministic"
        );
        assert!(fresh.segment_count() > 0, "warm-up rebuilds the index");
        // And the rebuild cost no flash traffic at all.
        assert_eq!(env2.flash().stats().total_reads(), 0);
    }

    /// Satellite property test: the fitter versus a brute-force oracle,
    /// over 500 seeded random mapping tables mixing sequential runs,
    /// semi-sequential (jittered) runs, holes, and pure noise.
    ///
    /// Pinned properties:
    /// 1. segments are sorted, disjoint, in-bounds, and never cover a
    ///    hole;
    /// 2. every prediction over a covered offset is within ε of the
    ///    stored mapping (brute-force check of every single offset);
    /// 3. under the OOB validation model, every offset is either
    ///    predicted *exactly* or routed to fallback — a wrong PPN is
    ///    never silently returned;
    /// 4. across the corpus both arms actually occur (exact hits and
    ///    within-ε mispredicts), so the dichotomy is not vacuous;
    /// 5. after each of 70 seeded edits per table (see [`seeded_edit`]) the
    ///    incrementally updated memo is the from-scratch fit of the edited
    ///    table, bit for bit — and so it is on 500 small tables at the PPN
    ///    floor, where fits get cut short;
    /// 6. `update` says the kept fits changed exactly when they did, in any
    ///    bit, and says no when run again on the table it just fitted — and
    ///    the corpus has plenty of edits of either kind.
    #[test]
    fn fitter_property_vs_brute_force_oracle_500_tables() {
        let mut rng = tpftl_rng::Rng64::seed_from_u64(0x5EED_1EA2);
        let n = 1024usize;
        let (mut exact_total, mut mispredict_total, mut covered_total) = (0u64, 0u64, 0u64);
        let mut moved_total = 0u64;
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
            let mut memo = fit_region(&table, DEFAULT_EPSILON);
            // Every raw segment, not only the ones long enough to keep.
            let segs: Vec<Segment> = (0..n)
                .filter(|&off| memo.is_start(off))
                .map(|off| fit_one(&table, off, DEFAULT_EPSILON).0)
                .collect();
            assert!(
                segs.iter()
                    .filter(|s| s.covered() >= MIN_COVERED)
                    .map(Segment::bits)
                    .eq(memo.fits.iter().map(Segment::bits)),
                "table {table_i}: kept segments are not the long raw segments"
            );
            let mut prev_end: i64 = -1;
            for s in &segs {
                assert!(
                    i64::from(s.start) > prev_end,
                    "table {table_i}: overlapping/unsorted segments"
                );
                assert!(s.start <= s.end && (s.end as usize) < n);
                prev_end = i64::from(s.end);
            }
            // Brute force over *every* offset of the table.
            for o in 0..n as u16 {
                let covering = segs.iter().find(|s| s.start <= o && o <= s.end);
                let actual = table[o as usize];
                match covering {
                    None => {} // fallback path, trivially safe
                    Some(s) => {
                        assert_ne!(actual, PPN_NONE, "table {table_i}: segment covers hole");
                        covered_total += 1;
                        let p = s
                            .predict(o)
                            .unwrap_or_else(|| panic!("table {table_i}: prediction out of range"));
                        assert!(
                            (i64::from(p) - i64::from(actual)).unsigned_abs()
                                <= u64::from(DEFAULT_EPSILON),
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
                }
            }
            let mut scratch = Vec::new();
            for edit_i in 0..70u64 {
                let changed = seeded_edit(&mut rng, &mut table, &memo, edit_i % 7);
                let before = memo.fits.clone();
                let moved = memo.update(&table, DEFAULT_EPSILON, &changed, &mut scratch);
                assert!(
                    memo.matches(&fit_region(&table, DEFAULT_EPSILON)),
                    "table {table_i} edit {edit_i} at {changed:?}: incremental fit diverged"
                );
                assert_eq!(
                    moved,
                    !same_bits(&before, &memo.fits),
                    "table {table_i} edit {edit_i} at {changed:?}: wrong about `fits` changing"
                );
                moved_total += u64::from(moved);
                // What a refit with nothing new to say does: nothing.
                assert!(!memo.update(&table, DEFAULT_EPSILON, &changed, &mut scratch));
            }
        }
        // A line that dips below PPN 0 has its segment cut short by the
        // verification pass: the one way a fit reads beyond the start of
        // the next segment (`overreach`). Tables at the PPN floor do that.
        let mut overreaching = 0;
        for table_i in 0..500 {
            let mut table: Vec<Ppn> = (0..64).map(|_| rng.below(12) as Ppn).collect();
            let mut memo = fit_region(&table, DEFAULT_EPSILON);
            for _ in 0..16 {
                let off = rng.below(64) as u16;
                table[usize::from(off)] = rng.below(12) as Ppn;
                memo.update(&table, DEFAULT_EPSILON, &[off], &mut Vec::new());
                assert!(
                    memo.matches(&fit_region(&table, DEFAULT_EPSILON)),
                    "floor table {table_i} at {off}: incremental fit diverged"
                );
            }
            overreaching += usize::from(memo.overreach > 0);
        }
        assert!(overreaching > 0, "no fit at the PPN floor was cut short");
        let edits = 500 * 70;
        assert!(
            moved_total > edits / 10 && moved_total < edits * 9 / 10,
            "{moved_total} of {edits} edits changed the kept fits: one arm is all but untested"
        );
        assert_eq!(exact_total + mispredict_total, covered_total);
        assert!(exact_total > 0, "corpus produced no exact predictions");
        assert!(
            mispredict_total > 0,
            "corpus produced no within-ε mispredicts; the validation arm is untested"
        );
    }

    /// One seeded edit of `table`, of the `kind`-th shape a write-back
    /// gives a translation page, aimed with the help of the table's current
    /// fit `memo`. Returns the changed offsets, ascending.
    fn seeded_edit(
        rng: &mut tpftl_rng::Rng64,
        table: &mut [Ppn],
        memo: &FitMemo,
        kind: u64,
    ) -> Vec<u16> {
        let n = table.len();
        let pick = |rng: &mut tpftl_rng::Rng64, len: usize| rng.below(len as u64) as usize;
        let fresh = |rng: &mut tpftl_rng::Rng64| rng.below(1 << 22) as Ppn;
        // Continues the run on the left, so that it may grow or merge.
        let continuing = |table: &[Ppn], off: usize| match off.checked_sub(1).map(|p| table[p]) {
            Some(left) if left != PPN_NONE => left + 1,
            _ => 7,
        };
        let mut changed = Vec::new();
        match kind {
            // Overwrite strictly inside a long run.
            0 if !memo.fits.is_empty() => {
                let s = memo.fits[pick(rng, memo.fits.len())];
                let off = usize::from(s.start) + 1 + pick(rng, s.covered() - 2);
                table[off] = fresh(rng);
                changed.push(off);
            }
            // Map a hole between two runs, merging them if the line allows.
            1 => {
                let bridges: Vec<usize> = (1..n - 1)
                    .filter(|&o| {
                        table[o] == PPN_NONE && table[o - 1] != PPN_NONE && table[o + 1] != PPN_NONE
                    })
                    .collect();
                let off = match bridges.len() {
                    0 => pick(rng, n),
                    len => bridges[pick(rng, len)],
                };
                table[off] = continuing(table, off);
                changed.push(off);
            }
            // Unmap a mapped offset.
            2 => {
                let from = pick(rng, n);
                let off = (0..n)
                    .map(|d| (from + d) % n)
                    .find(|&o| table[o] != PPN_NONE);
                let off = off.unwrap_or(from);
                table[off] = PPN_NONE;
                changed.push(off);
            }
            // The two ends of the table: map, remap or unmap.
            3 | 4 => {
                let off = if kind == 3 { 0 } else { n - 1 };
                table[off] = match rng.below(3) {
                    0 => PPN_NONE,
                    1 => fresh(rng),
                    _ => continuing(table, off),
                };
                changed.push(off);
            }
            // On either side of a raw segment boundary.
            5 => {
                let from = pick(rng, n);
                let start = (from..n).find(|&o| memo.is_start(o)).unwrap_or(from);
                let off = (start + pick(rng, 3)).saturating_sub(1).min(n - 1);
                table[off] = if rng.below(2) == 0 {
                    fresh(rng)
                } else {
                    continuing(table, off)
                };
                changed.push(off);
            }
            // A GC batch: a few runs of pages laid out contiguously at
            // their new home, plus stragglers.
            _ => {
                for _ in 0..1 + rng.below(3) {
                    let (start, base) = (pick(rng, n), fresh(rng));
                    let len = 1 + pick(rng, 40);
                    let run = &mut table[start..(start + len).min(n)];
                    for (k, slot) in run.iter_mut().enumerate() {
                        *slot = base + k as Ppn;
                        changed.push(start + k);
                    }
                }
                for _ in 0..rng.below(4) {
                    let off = pick(rng, n);
                    table[off] = fresh(rng);
                    changed.push(off);
                }
            }
        }
        changed.sort_unstable();
        changed.into_iter().map(|off| off as u16).collect()
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
    fn fit_one_pointwise(payload: &[Ppn], start: usize, eps: u32) -> (Segment, usize) {
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
        let mut vend = start;
        for (k, &stored) in payload.iter().enumerate().take(end + 1).skip(start) {
            let ok = seg
                .predict(k as u16)
                .is_some_and(|p| p.abs_diff(stored) <= eps);
            if !ok {
                break;
            }
            vend = k;
        }
        seg.end = vend as u16;
        (seg, stop)
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
                    let (got, got_stop) = fit_one(&table, 0, eps);
                    let (want, want_stop) = fit_one_pointwise(&table, 0, eps);
                    assert_eq!(
                        (got.bits(), got_stop),
                        (want.bits(), want_stop),
                        "eps {eps}, base {base}, run of {d}, tail {t}"
                    );
                }
            }
        }
    }

    /// The key-select trim keeps what sorting the segments themselves by
    /// (coverage descending, start ascending) and re-sorting the survivors
    /// by start kept, for every `room` from none to all of them.
    #[test]
    fn keep_longest_matches_sorting_the_segments() {
        let mut rng = tpftl_rng::Rng64::seed_from_u64(0x7219);
        let mut keys = Vec::new();
        for _ in 0..200 {
            // Disjoint segments with many coverage ties, up to offset 1023.
            let mut fits = Vec::new();
            let mut start = rng.below(8) as u16;
            while start < 1000 {
                let end = (start + MIN_COVERED as u16 - 1 + rng.below(6) as u16).min(1023);
                fits.push(Segment {
                    start,
                    end,
                    base: f64::from(start),
                    slope: 1.0,
                });
                start = end + 1 + rng.below(30) as u16;
            }
            for room in [0, 1, 2, 3, MAX_SEGS_PER_REGION, fits.len() - 1, fits.len()] {
                let mut want = fits.clone();
                want.sort_by(|a, b| b.covered().cmp(&a.covered()).then(a.start.cmp(&b.start)));
                want.truncate(room);
                want.sort_by_key(|s| s.start);
                let mut got = Vec::new();
                keep_longest(&fits, room, 1024, &mut keys, &mut got);
                assert!(same_bits(&got, &want), "room {room} of {}", fits.len());
            }
        }
        // The largest region `u16` offsets allow: the keys still fit.
        let long = Segment {
            start: 0,
            end: u16::MAX - 10,
            base: 0.0,
            slope: 1.0,
        };
        let short = Segment {
            start: u16::MAX - 9,
            end: u16::MAX,
            ..long
        };
        let mut got = Vec::new();
        keep_longest(&[long, short], 1, 1 << 16, &mut keys, &mut got);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].bits(), long.bits());
    }

    /// The word-wise start search and range clear against the bit-by-bit
    /// forms they replaced, at every offset pair of a three-word memo.
    #[test]
    fn fit_memo_word_operations_match_bit_loops() {
        let mut rng = tpftl_rng::Rng64::seed_from_u64(0xB175);
        for round in 0..40 {
            let mut memo = FitMemo::new(150);
            for off in 0..150 {
                // Sparse, dense and empty memos.
                if rng.below(40) < round {
                    memo.starts[off / 64] |= 1 << (off % 64);
                }
            }
            for below in 0..=150 {
                let want = (0..below).rev().find(|&off| memo.is_start(off));
                assert_eq!(memo.last_start_below(below), want, "below {below}");
            }
            let (from, to) = (rng.below(151) as usize, rng.below(151) as usize);
            let (from, to) = (from.min(to), from.max(to));
            let mut want = memo.starts.clone();
            for off in from..to {
                want[off / 64] &= !(1 << (off % 64));
            }
            memo.clear_starts(from, to);
            assert_eq!(memo.starts, want, "clearing {from}..{to}");
        }
    }

    #[test]
    fn fitter_handles_degenerate_tables() {
        let starts = |payload: &[Ppn]| {
            let memo = fit_region(payload, DEFAULT_EPSILON);
            let starts = (0..payload.len()).filter(|&off| memo.is_start(off));
            (starts.collect::<Vec<_>>(), memo.fits.len())
        };
        assert_eq!(starts(&[]), (vec![], 0));
        assert_eq!(starts(&[PPN_NONE; 16]), (vec![], 0));
        // A single mapped point fits one singleton segment, too short to
        // keep.
        let mut one = vec![PPN_NONE; 8];
        one[3] = 42;
        assert_eq!(starts(&one), (vec![3], 0));
        let (seg, stop) = fit_one(&one, 3, DEFAULT_EPSILON);
        assert_eq!((seg.start, seg.end, stop), (3, 3, 4));
        assert_eq!(seg.predict(3), Some(42));
    }

    /// `flush_cache` rewrites a region's translation page and tells the FTL
    /// only `mark_clean`: the next refit of that region must not trust a
    /// memo fitted on the page as it was before the flush.
    #[test]
    fn flush_between_refits_does_not_leave_a_stale_memo() {
        let (mut ftl, mut env) = setup(1024, 0.5);
        let write = |ftl: &mut LearnedFtl, env: &mut SsdEnv, lpn: Lpn| {
            driver::serve_page_access(ftl, env, lpn, AccessCtx::single(true)).unwrap();
        };
        let drain = |ftl: &mut LearnedFtl, env: &mut SsdEnv| {
            while ftl.cached_entries() > 0 {
                ftl.evict_one(env).unwrap();
            }
        };
        // Break region 0's one line in the middle, so that a later refit
        // near the end restarts beyond offset 100.
        write(&mut ftl, &mut env, 500);
        drain(&mut ftl, &mut env);
        assert!(
            ftl.regions[0].memo.is_start(502),
            "the overwrite split the line"
        );
        // Offset 100 reaches flash through the flush, not through a refit.
        write(&mut ftl, &mut env, 100);
        crate::recovery::flush_cache(&mut ftl, &mut env).unwrap();
        // A dirty eviction into the same region.
        write(&mut ftl, &mut env, 900);
        drain(&mut ftl, &mut env);
        let mut scratch = LearnedFtl::new(env.config()).unwrap();
        scratch.warm_up(&env);
        assert!(ftl.regions[0].memo.matches(&scratch.regions[0].memo));
        assert!(
            same_bits(&ftl.regions[0].view, &scratch.regions[0].view),
            "segments differ from the from-scratch fit: {:?} vs {:?}",
            ftl.regions[0].view,
            scratch.regions[0].view
        );
        assert!(
            scratch.regions[0].view.iter().any(|s| s.end == 99),
            "the flushed overwrite of offset 100 must show in the fit"
        );
    }

    /// The early return of `refit` hangs on one flag. A refit that finds it
    /// set, the kept fits unchanged and room for as many segments as the view
    /// holds leaves the view alone; everything that edits the view or the
    /// fit behind the other's back clears it, and the next refit rebuilds.
    #[test]
    fn refit_rebuilds_the_view_exactly_when_something_changed_it() {
        const NOTHING: [u16; 0] = [];
        // Region 0 is one line over all 1024 offsets, region 1 is unmapped.
        let (mut ftl, env) = setup(1024, 0.5);
        let whole = ftl.regions[0].view.clone();
        assert_eq!((whole.len(), whole[0].covered()), (1, 1024));
        assert!(ftl.regions[0].memo.view_is_top, "warm-up installs the view");

        // An overwrite inside the line splits it in two; the persisted page
        // still holds the old mapping, so the refit puts the line back.
        ftl.split_covering(0, 500);
        assert_eq!(ftl.segment_count(), 2);
        assert!(!ftl.regions[0].memo.view_is_top);
        ftl.refit(&env, 0, NOTHING);
        assert!(same_bits(&ftl.regions[0].view, &whole));
        assert_eq!(ftl.segment_count(), 1);

        // A split whose right remnant is too short to keep leaves the count
        // at one: only the flag tells the refit that the view was edited.
        ftl.split_covering(0, 1022);
        assert_eq!(ftl.segment_count(), 1);
        assert_eq!(ftl.regions[0].view[0].end, 1021);
        ftl.refit(&env, 0, NOTHING);
        assert!(same_bits(&ftl.regions[0].view, &whole));

        // A point no segment covers edits nothing.
        ftl.split_covering(1, 7);
        assert!(ftl.regions[0].memo.view_is_top);

        // Forgetting the fit forgets that the view came from it, whether a
        // flush does it or the next warm-up.
        ftl.mark_clean(0);
        assert!(!ftl.regions[0].memo.view_is_top);
        assert!(same_bits(&ftl.regions[0].view, &whole), "the view stands");
        ftl.refit(&env, 0, [3]);
        assert!(ftl.regions[0].memo.view_is_top);
        ftl.regions[0].view[0].end = 9;
        ftl.warm_up(&env);
        assert!(same_bits(&ftl.regions[0].view, &whole));
        assert_eq!(ftl.segment_count(), 1);
    }

    /// Room for one more segment extends a trimmed view although neither it
    /// nor the fit behind it changed.
    #[test]
    fn refit_extends_the_view_when_room_grows() {
        // Room for three segments in all.
        let mut config = SsdConfig::paper_default(8 << 20);
        config.cache_bytes = config.gtd_bytes() + 6 * SEG_BYTES;
        let mut env = SsdEnv::new(config.clone()).unwrap();
        let mut ftl = LearnedFtl::new(&config).unwrap();
        // Region 0: runs of 10, 9, 8, 7 and 6 offsets, a hole after each.
        // Region 1: one run of 4.
        let mut pages = [vec![PPN_NONE; 1024], vec![PPN_NONE; 1024]];
        let mut off = 0;
        for len in (6..=10).rev() {
            for k in 0..len {
                pages[0][off + k] = (100 * len + k) as Ppn;
            }
            off += len + 1;
        }
        pages[1][..4].copy_from_slice(&[70, 71, 72, 73]);
        for (vtpn, page) in pages.iter().enumerate() {
            env.write_translation_page_full(vtpn as Vtpn, page, OpPurpose::Translation)
                .unwrap();
        }
        ftl.refit(&env, 1, [0]);
        ftl.refit(&env, 0, [0]);
        let covered = |ftl: &LearnedFtl| -> Vec<usize> {
            ftl.regions[0].view.iter().map(Segment::covered).collect()
        };
        assert_eq!(ftl.regions[0].memo.fits.len(), 5);
        assert_eq!((covered(&ftl), ftl.segment_count()), (vec![10, 9], 3));
        // Same room: the refit has nothing to do.
        ftl.refit(&env, 0, [0]);
        assert_eq!(covered(&ftl), [10, 9]);
        // Region 1 loses its segment (neither remnant is worth keeping).
        ftl.split_covering(1, 1);
        assert_eq!(ftl.segment_count(), 2);
        ftl.refit(&env, 0, [0]);
        assert_eq!((covered(&ftl), ftl.segment_count()), (vec![10, 9, 8], 3));
        assert!(ftl.seg_bytes <= ftl.seg_budget_bytes);
    }

    #[test]
    fn dirty_eviction_persists_and_refits() {
        let (mut ftl, mut env) = setup(64, 0.5);
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(true)).unwrap();
        // Push the dirty entry out with colder traffic.
        for lpn in 1200..1210u32 {
            driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(false)).unwrap();
        }
        assert!(env.stats.dirty_replacements >= 1);
        // The persisted table now holds the new mapping; a cold re-read
        // resolves it (via segment or fallback, either way correctly).
        driver::serve_page_access(&mut ftl, &mut env, 0, AccessCtx::single(false)).unwrap();
    }
}
