//! Block allocation and victim selection.
//!
//! The device is partitioned the way the paper's Figure 3 shows: *data
//! blocks* hold user pages, *translation blocks* hold the mapping table.
//! Programs go to *open* blocks, each written by one side only: the host
//! has one per data stream and one for translation pages, and the
//! background lane that garbage collection runs in has one for migrated
//! data and one for translation pages. So a host program never lands in
//! a block a queued collection is filling. Sealed blocks are indexed by
//! class and valid-page count so the collector finds its victim in O(1).
//!
//! The free pool is a FIFO that erases append to. The host opens the
//! oldest free block, the one whose erase is likeliest to have run
//! already; the lane opens the newest, whose erase is queued ahead of the
//! lane's own programs, so a lane allocation never makes a host op wait.
//!
//! Data streams are the hot/cold separation device: the environment
//! classifies each host write by temperature and routes it to a stream, so
//! pages with similar lifetimes share blocks and blocks die together
//! instead of trapping one long-lived page each. Open blocks are
//! volatile: [`BlockManager::rebuild`] seals every partially-written block
//! and reopens nothing, so crash recovery never depends on them.
//!
//! The victim is picked class first. Each class, data and translation,
//! has its own valid-count index, and the class whose head (fewest valid
//! pages, then smallest id) is collected is chosen by
//! `BlockManager::victim_class`: a zero-valid head wins, else the
//! translation head only if it holds at most a third of the data head's
//! valid pages (`TRANS_VICTIM_RATIO`). A translation page is rewritten
//! far more often than a data page, so a translation block left alone
//! empties soon, and copying its pages at the data pool's utilisation is
//! waste (DESIGN.md §15, *Class-first victims*).
//!
//! Each index is allocation-free and ordered by construction: bucket `v` —
//! the class's sealed blocks with exactly `v` valid pages — is a two-level
//! bitset over block ids (`IdSet`: a bit per block, a summary bit per
//! 64-block word), and a bucket-occupancy bitmap on top locates the lowest
//! non-empty bucket. Insert and remove flip a bit at each level; "smallest
//! id in bucket `v`" and "next id after `x`" are a `trailing_zeros` per
//! level, whatever the bucket holds. Within a class, victim order is
//! therefore (valid count asc, block id asc) — bit order.

use std::collections::{BTreeSet, VecDeque};

use tpftl_flash::{BlockId, Flash, Ppn};

use crate::config::GcPolicy;
use crate::{FtlError, Result};

/// Most candidates a pick examines, whatever window the policy asks for —
/// a bounded candidate set, as sampling-based GC schemes use on real devices.
pub(crate) const CANDIDATE_CAP: usize = 64;

/// A translation head with `v_t` valid pages is collected before a data
/// head with `v_d` only if `TRANS_VICTIM_RATIO · v_t ≤ v_d`. Swept over
/// 2, 3 and 4 on Financial1 and `semiseq` (DESIGN.md §15): 2 gains less
/// write amplification, 4 pushes LearnedFTL's p99.9 response up by 9–12 %.
const TRANS_VICTIM_RATIO: usize = 3;

/// Wear spread a multi-stream manager tolerates before its static
/// wear-leveling arm turns over the least-worn sealed block, and the rate
/// limit (picks between turn-overs) it runs at (see
/// [`BlockManager::static_turnover`]). Both are tight: stream separation
/// makes frozen cold blocks the rule rather than the exception, so the
/// spread grows fast and the turn-over must keep pace.
const WINDOWED_WEAR_DELTA: u32 = 4;
const WINDOWED_TURNOVER_RATE: u32 = 4;

/// Candidates `policy` scores per pick: greedy is the window of one.
fn window(policy: GcPolicy) -> usize {
    match policy {
        GcPolicy::Greedy => 1,
        GcPolicy::Windowed { window } => window.max(1) as usize,
    }
}

/// What a block is currently used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// In the free pool.
    Free,
    /// Actively absorbing data-page programs.
    ActiveData,
    /// Actively absorbing translation-page programs.
    ActiveTranslation,
    /// Fully programmed data block.
    SealedData,
    /// Fully programmed translation block.
    SealedTranslation,
    /// Picked as a GC victim; its pages are being migrated and it is no
    /// longer indexed in the valid-count buckets.
    Collecting,
}

/// The two allocation classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocClass {
    /// User data pages.
    Data,
    /// Translation pages.
    Translation,
}

/// The class of a sealed block; `None` for any other kind.
fn sealed_class(kind: BlockKind) -> Option<AllocClass> {
    match kind {
        BlockKind::SealedData => Some(AllocClass::Data),
        BlockKind::SealedTranslation => Some(AllocClass::Translation),
        _ => None,
    }
}

/// Index of the lowest set bit at or after bit `from` of `words`.
fn next_set(words: &[u64], from: usize) -> Option<usize> {
    let first = from / 64;
    let rest = *words.get(first)? & (!0 << (from % 64));
    let (w, bits) = if rest != 0 {
        (first, rest)
    } else {
        let w = first + 1 + words[first + 1..].iter().position(|&x| x != 0)?;
        (w, words[w])
    };
    Some(w * 64 + bits.trailing_zeros() as usize)
}

/// A set of block ids that iterates in ascending order: one bit per block
/// in `leaf`, and in `summary` one bit per `leaf` word, set iff that word
/// is non-zero — so a lookup skips 4096 absent ids per summary word.
#[derive(Debug, Clone)]
struct IdSet {
    leaf: Vec<u64>,
    summary: Vec<u64>,
    len: u32,
}

impl IdSet {
    fn new(num_blocks: usize) -> Self {
        let words = num_blocks.div_ceil(64);
        Self {
            leaf: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            len: 0,
        }
    }

    /// O(1), no allocation.
    fn insert(&mut self, id: BlockId) {
        let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
        debug_assert!(self.leaf[w] & bit == 0, "block {id} indexed twice");
        self.leaf[w] |= bit;
        self.summary[w / 64] |= 1 << (w % 64);
        self.len += 1;
    }

    /// O(1), no allocation.
    fn remove(&mut self, id: BlockId) {
        let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
        debug_assert!(
            self.leaf[w] & bit != 0,
            "block {id} missing from its bucket"
        );
        self.leaf[w] &= !bit;
        if self.leaf[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        self.len -= 1;
    }

    /// The members in ascending order: one `trailing_zeros` per member,
    /// one per non-empty word the summary names.
    fn iter(&self) -> Ids<'_> {
        Ids {
            set: self,
            from: 0,
            word: 0,
            bits: 0,
        }
    }

    /// Smallest member `>= from`: the rest of `from`'s own word, else the
    /// first later non-empty word the summary names.
    fn next(&self, from: usize) -> Option<BlockId> {
        let first = from / 64;
        let id = match next_set(self.leaf.get(first..=first)?, from % 64) {
            Some(bit) => first * 64 + bit,
            None => {
                let w = next_set(&self.summary, first + 1)?;
                w * 64 + self.leaf[w].trailing_zeros() as usize
            }
        };
        Some(id as BlockId)
    }
}

/// [`IdSet::iter`]: the members of `set` from leaf word `word` on, the
/// rest of that word in `bits` and the summary bits still to visit from
/// `from`.
struct Ids<'a> {
    set: &'a IdSet,
    from: usize,
    word: usize,
    bits: u64,
}

impl Iterator for Ids<'_> {
    type Item = BlockId;

    fn next(&mut self) -> Option<BlockId> {
        while self.bits == 0 {
            self.word = next_set(&self.set.summary, self.from)?;
            self.from = self.word + 1;
            self.bits = self.set.leaf[self.word];
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((self.word * 64 + bit) as BlockId)
    }
}

/// One class's sealed blocks by valid count: bucket `v` holds the blocks
/// with exactly `v` valid pages, and `occupancy` has one bit per bucket,
/// set iff the bucket is non-empty.
#[derive(Debug, Clone)]
struct ValidIndex {
    buckets: Vec<IdSet>,
    occupancy: Vec<u64>,
    len: usize,
}

impl ValidIndex {
    fn new(num_blocks: usize, pages_per_block: usize) -> Self {
        Self {
            buckets: vec![IdSet::new(num_blocks); pages_per_block + 1],
            occupancy: vec![0; pages_per_block / 64 + 1],
            len: 0,
        }
    }

    fn insert(&mut self, block: BlockId, v: usize) {
        self.buckets[v].insert(block);
        self.occupancy[v / 64] |= 1 << (v % 64);
        self.len += 1;
    }

    fn remove(&mut self, block: BlockId, v: usize) {
        self.buckets[v].remove(block);
        if self.buckets[v].len == 0 {
            self.occupancy[v / 64] &= !(1 << (v % 64));
        }
        self.len -= 1;
    }

    /// The first reclaimable block (fewer than `pages_per_block` valid
    /// pages) in (valid count asc, block id asc) order, with its valid
    /// count: the smallest id in the lowest occupied bucket below
    /// `pages_per_block`.
    fn head(&self, pages_per_block: usize) -> Option<(usize, BlockId)> {
        let v = next_set(&self.occupancy, 0).filter(|&v| v < pages_per_block)?;
        Some((v, self.buckets[v].next(0)?))
    }
}

/// Where each writer's open block sits in [`BlockManager::open`]: the
/// host's translation block, the lane's translation and data blocks, then
/// one data block per host stream, coldest first.
const HOST_TRANS: usize = 0;
const LANE_TRANS: usize = 1;
const LANE_DATA: usize = 2;
const STREAM_0: usize = 3;

/// Allocator and GC victim index over the device's blocks.
#[derive(Debug, Clone)]
pub struct BlockManager {
    kind: Vec<BlockKind>,
    /// Erased blocks, oldest erase first.
    free: VecDeque<BlockId>,
    /// The open block in each slot ([`HOST_TRANS`] and the rest).
    open: Vec<Option<BlockId>>,
    /// The sealed blocks of each class by valid count, indexed by
    /// `AllocClass as usize`.
    index: [ValidIndex; 2],
    pages_per_block: usize,
    /// Monotonic event counter; stamps seals for cost-benefit aging.
    seq: u64,
    /// Seal timestamp per block.
    seal_seq: Vec<u64>,
    /// Valid count per sealed block (mirrors the bucket it sits in).
    sealed_valid: Vec<u32>,
    /// Erase cycles per block (mirrors the flash wear counters).
    wear: Vec<u32>,
    /// Sealed blocks ordered by wear, for static wear leveling: `None`
    /// until a pick first reads it (see [`BlockManager::static_turnover`]),
    /// so a run under a policy that never does keeps no such index.
    wear_index: Option<BTreeSet<(u32, BlockId)>>,
    /// Highest erase count any block has reached.
    max_wear: u32,
    /// Picks since the last static wear-leveling turn-over (rate limiter).
    picks_since_static: u32,
}

impl BlockManager {
    /// Creates a single-stream manager over `num_blocks` erased blocks.
    pub fn new(num_blocks: usize, pages_per_block: usize) -> Self {
        Self::with_streams(num_blocks, pages_per_block, 1)
    }

    /// Creates a manager with `streams` host data streams (clamped to at
    /// least one), each with its own open block. Stream 0 is the coldest.
    pub fn with_streams(num_blocks: usize, pages_per_block: usize, streams: u32) -> Self {
        Self {
            kind: vec![BlockKind::Free; num_blocks],
            free: (0..num_blocks as BlockId).collect(),
            open: vec![None; STREAM_0 + streams.max(1) as usize],
            index: [0; 2].map(|_| ValidIndex::new(num_blocks, pages_per_block)),
            pages_per_block,
            seq: 0,
            seal_seq: vec![0; num_blocks],
            sealed_valid: vec![0; num_blocks],
            wear: vec![0; num_blocks],
            wear_index: None,
            max_wear: 0,
            picks_since_static: 0,
        }
    }

    /// Reconstructs the manager from an existing flash device at mount
    /// time. Untouched blocks go to the free pool; any block with
    /// programmed pages is conservatively sealed (no block is open after a
    /// restart), classified as a translation block if it holds a
    /// valid translation page. Wear is seeded from the device's per-block
    /// erase counters.
    pub fn rebuild(flash: &Flash, streams: u32) -> Result<Self> {
        let geom = flash.geometry().clone();
        let mut mgr = Self::with_streams(geom.num_blocks, geom.pages_per_block, streams);
        mgr.free.clear();
        for b in 0..geom.num_blocks as BlockId {
            let wear = flash.erase_count(b).map_err(FtlError::Flash)? as u32;
            mgr.wear[b as usize] = wear;
            mgr.max_wear = mgr.max_wear.max(wear);
            let free_pages = flash.free_pages_in(b).map_err(FtlError::Flash)?;
            if free_pages == geom.pages_per_block {
                mgr.kind[b as usize] = BlockKind::Free;
                mgr.free.push_back(b);
                continue;
            }
            let is_translation = flash
                .valid_pages(b)
                .any(|(ppn, _)| flash.peek_translation_payload(ppn).is_some());
            let sealed_kind = if is_translation {
                BlockKind::SealedTranslation
            } else {
                BlockKind::SealedData
            };
            mgr.seal_block(b, sealed_kind, flash)?;
        }
        Ok(mgr)
    }

    /// Number of blocks in the free pool.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Current use of `block`.
    pub fn kind(&self, block: BlockId) -> BlockKind {
        self.kind[block as usize]
    }

    /// Returns the PPN to program next for `class`: from the lane's open
    /// block of that class while `flash` is in background mode, else from
    /// the host's (stream 0 for data; temperature-routed callers use
    /// [`BlockManager::alloc_data_page`]).
    ///
    /// The caller must program the returned page before asking again.
    pub fn alloc_page(&mut self, class: AllocClass, flash: &Flash) -> Result<Ppn> {
        match class {
            AllocClass::Data => self.alloc_data_page(0, flash),
            AllocClass::Translation => self.alloc_in(HOST_TRANS, flash),
        }
    }

    /// Number of data streams this manager partitions host writes into.
    pub fn streams(&self) -> usize {
        self.open.len() - STREAM_0
    }

    /// Returns the PPN to program next for a data page: from the lane's
    /// open data block while `flash` is in background mode, else from
    /// `stream`'s (clamped to the configured stream count). No two of
    /// these share a block.
    pub fn alloc_data_page(&mut self, stream: usize, flash: &Flash) -> Result<Ppn> {
        self.alloc_in(STREAM_0 + stream.min(self.streams() - 1), flash)
    }

    /// The next page of the host's open block `slot`, or of the lane's
    /// block of the same class while `flash` is in background mode. A
    /// full block is sealed and a free one opened in its place: the newest
    /// for the lane, the oldest for the host (see the module doc).
    fn alloc_in(&mut self, slot: usize, flash: &Flash) -> Result<Ppn> {
        let lane = flash.clocks().background();
        let trans = slot == HOST_TRANS;
        let slot = match (lane, trans) {
            (false, _) => slot,
            (true, true) => LANE_TRANS,
            (true, false) => LANE_DATA,
        };
        let (active, sealed) = if trans {
            (BlockKind::ActiveTranslation, BlockKind::SealedTranslation)
        } else {
            (BlockKind::ActiveData, BlockKind::SealedData)
        };
        if let Some(b) = self.open[slot] {
            if let Some(ppn) = flash.next_free_ppn(b) {
                return Ok(ppn);
            }
            // Cleared first: with an empty pool this call fails below, and a
            // retry must not seal `b` a second time.
            self.open[slot] = None;
            self.seal_block(b, sealed, flash)?;
        }
        let b = if lane {
            self.free.pop_back()
        } else {
            self.free.pop_front()
        };
        let b = b.ok_or(FtlError::DeviceFull)?;
        self.kind[b as usize] = active;
        self.open[slot] = Some(b);
        flash.next_free_ppn(b).ok_or(FtlError::DeviceFull) // A free-pool block is always erased.
    }

    /// Seals an exhausted active block and indexes it for the collector.
    fn seal_block(&mut self, b: BlockId, sealed_kind: BlockKind, flash: &Flash) -> Result<()> {
        let class = sealed_class(sealed_kind).expect("a sealed kind");
        self.kind[b as usize] = sealed_kind;
        let valid = flash.valid_pages_in(b).map_err(FtlError::Flash)?;
        self.index[class as usize].insert(b, valid);
        self.seq += 1;
        self.seal_seq[b as usize] = self.seq;
        self.sealed_valid[b as usize] = valid as u32;
        if let Some(index) = &mut self.wear_index {
            index.insert((self.wear[b as usize], b));
        }
        Ok(())
    }

    /// Re-indexes a sealed block after one of its pages was invalidated.
    /// `new_valid` is the block's valid count *after* the invalidation.
    pub fn on_invalidated(&mut self, block: BlockId, new_valid: usize) {
        // Active blocks are indexed when sealed; free blocks have no valid
        // pages to invalidate.
        if let Some(class) = sealed_class(self.kind[block as usize]) {
            // The page was valid before, so the block was in bucket
            // `new_valid + 1`.
            let index = &mut self.index[class as usize];
            index.remove(block, new_valid + 1);
            index.insert(block, new_valid);
            self.sealed_valid[block as usize] = new_valid as u32;
        }
    }

    /// Picks the GC victim according to `policy`. Fully-valid blocks are
    /// only ever returned by the static wear-leveling arm; otherwise `None`
    /// means the device is genuinely full.
    pub fn pick_victim(&mut self, policy: GcPolicy) -> Option<(BlockId, AllocClass)> {
        let (b, class) = self.pick(window(policy))?;
        self.claim(b, class);
        Some((b, class))
    }

    /// Takes `b` out of `class`'s valid-count index and the wear index.
    fn claim(&mut self, b: BlockId, class: AllocClass) {
        self.index[class as usize].remove(b, self.sealed_valid[b as usize] as usize);
        if let Some(index) = &mut self.wear_index {
            index.remove(&(self.wear[b as usize], b));
        }
        // Only `seal_block` fills the indexes, every pick reads one of
        // them, and claiming takes the block out of its class's index and
        // the wear index.
        let kind = std::mem::replace(&mut self.kind[b as usize], BlockKind::Collecting);
        debug_assert_eq!(sealed_class(kind), Some(class), "claimed a {kind:?} block");
    }

    /// The one victim pick. With more than one stream the static
    /// wear-leveling arm engages first: stream separation freezes cold
    /// blocks at low wear forever (they stay nearly fully valid, so no
    /// valid-count policy ever collects them), and without the turn-over
    /// the erase spread grows without bound. A single-stream manager has
    /// no frozen-block problem — every write shares one active block — so
    /// the pick stays a pure victim choice there and never builds the wear
    /// index. Then [`BlockManager::victim_class`] chooses the class, and
    /// [`BlockManager::pick_windowed`] the victim within it — unless the
    /// class's head has no valid page: a free reclaim, which no score can
    /// beat.
    fn pick(&mut self, window: usize) -> Option<(BlockId, AllocClass)> {
        if self.streams() > 1 {
            if let Some(b) = self.static_turnover() {
                let class = sealed_class(self.kind[b as usize]);
                return Some((b, class.expect("the wear index holds sealed blocks only")));
            }
        }
        let (class, (valid, head)) = self.victim_class()?;
        if valid == 0 {
            return Some((head, class));
        }
        Some((self.pick_windowed(class, window)?, class))
    }

    /// The class to collect and its head — its reclaimable block with the
    /// fewest valid pages, then the smallest id — as `(valid, id)`. A head
    /// with no valid page wins outright (if both have none, the smaller
    /// id); otherwise the translation head wins only if
    /// `TRANS_VICTIM_RATIO · v_t ≤ v_d`. A class with no reclaimable block
    /// leaves the pick to the other; `None` if neither has one.
    fn victim_class(&self) -> Option<(AllocClass, (usize, BlockId))> {
        let head = |class: AllocClass| self.index[class as usize].head(self.pages_per_block);
        match (head(AllocClass::Data), head(AllocClass::Translation)) {
            (None, None) => None,
            (Some(d), None) => Some((AllocClass::Data, d)),
            (None, Some(t)) => Some((AllocClass::Translation, t)),
            (Some(d @ (vd, bd)), Some(t @ (vt, bt))) => {
                let trans = if vd == 0 && vt == 0 {
                    bt < bd
                } else {
                    TRANS_VICTIM_RATIO * vt <= vd
                };
                Some(if trans {
                    (AllocClass::Translation, t)
                } else {
                    (AllocClass::Data, d)
                })
            }
        }
    }

    /// Static wear leveling, the multi-stream arm of the pick: when the
    /// wear spread exceeds [`WINDOWED_WEAR_DELTA`], turn over the
    /// least-worn sealed block so its cold data moves onto worn blocks and
    /// the block rejoins the hot rotation. Such a block is usually fully
    /// valid (that is *why* it never wears), so the turn-over frees
    /// little; rate-limit it to every [`WINDOWED_TURNOVER_RATE`]th pick so
    /// the collector always makes progress in between, and defer it
    /// entirely while the free pool is critically low — migrating a
    /// fully-valid victim can seal both the data and the translation
    /// active block (two fresh-block pops) before its erase returns one,
    /// so firing it with fewer than two free blocks can exhaust the pool
    /// mid-collection.
    ///
    /// The wear index is built here, the first time it is read, from what
    /// it indexes — the sealed blocks of `kind` at their `wear`, which does
    /// not change while a block is sealed — and kept current by
    /// `seal_block` and `claim` from then on: the same set an index kept
    /// from the start would hold.
    fn static_turnover(&mut self) -> Option<BlockId> {
        self.picks_since_static += 1;
        if self.picks_since_static < WINDOWED_TURNOVER_RATE || self.free.len() < 2 {
            return None;
        }
        let index = self.wear_index.get_or_insert_with(|| {
            let sealed = |&b: &BlockId| {
                let kind = self.kind[b as usize];
                matches!(kind, BlockKind::SealedData | BlockKind::SealedTranslation)
            };
            let blocks = 0..self.kind.len() as BlockId;
            blocks
                .filter(sealed)
                .map(|b| (self.wear[b as usize], b))
                .collect()
        });
        let &(wear, b) = index.iter().next()?;
        if self.max_wear - wear > WINDOWED_WEAR_DELTA {
            self.picks_since_static = 0;
            return Some(b);
        }
        None
    }

    /// The victim within `class`, windowed cost-benefit: scores only the
    /// first `window` entries of the class's candidate order (valid asc,
    /// id asc) — i.e. a bounded window of its min-valid buckets — by
    /// `(1 − u) / 2u · age`, breaking exact score ties toward the
    /// least-worn block (then the smaller id). With `window == 1` the
    /// single candidate is the class's greedy victim. The class's head has
    /// a valid page ([`BlockManager::pick`] takes a free reclaim before
    /// calling this), so every candidate does.
    fn pick_windowed(&self, class: AllocClass, window: usize) -> Option<BlockId> {
        let index = &self.index[class as usize];
        let np = self.pages_per_block as f64;
        let mut left = window.min(CANDIDATE_CAP);
        let mut best: Option<(f64, u32, BlockId)> = None;
        let mut bucket = next_set(&index.occupancy, 0);
        'walk: while let Some(valid) = bucket.filter(|&v| v < self.pages_per_block) {
            // A bucket's blocks share `(1 − u) / 2u`: one division each.
            let u = valid as f64 / np;
            let gain = (1.0 - u) / (2.0 * u);
            for b in index.buckets[valid].iter() {
                let age = (self.seq - self.seal_seq[b as usize]) as f64 + 1.0;
                let score = gain * age;
                let wear = self.wear[b as usize];
                if best.is_none_or(|(s, w, i)| score > s || (score == s && (wear, b) < (w, i))) {
                    best = Some((score, wear, b));
                }
                left -= 1;
                if left == 0 {
                    break 'walk;
                }
            }
            bucket = next_set(&index.occupancy, valid + 1);
        }
        best.map(|(_, _, b)| b)
    }

    /// Returns an erased block to the free pool.
    pub fn on_erased(&mut self, block: BlockId) {
        debug_assert!(matches!(self.kind[block as usize], BlockKind::Collecting));
        self.kind[block as usize] = BlockKind::Free;
        let w = &mut self.wear[block as usize];
        *w += 1;
        self.max_wear = self.max_wear.max(*w);
        self.free.push_back(block);
    }

    /// Highest erase count any block has reached.
    pub fn max_wear(&self) -> u64 {
        self.max_wear as u64
    }

    /// Seals the host's open block of `class` (stream 0 for data) without
    /// allocating a replacement (test hook for precise sealed states).
    #[cfg(test)]
    pub(crate) fn seal_active(&mut self, flash: &Flash, class: AllocClass) {
        let (slot, sealed_kind) = match class {
            AllocClass::Data => (STREAM_0, BlockKind::SealedData),
            AllocClass::Translation => (HOST_TRANS, BlockKind::SealedTranslation),
        };
        let b = self.open[slot].take().expect("an open block to seal");
        self.seal_block(b, sealed_kind, flash)
            .expect("block in range");
    }

    /// Number of sealed blocks currently indexed for collection.
    pub fn sealed_blocks(&self) -> usize {
        self.index.iter().map(|index| index.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::iter::successors;
    use tpftl_flash::{FlashGeometry, FlashTopology, OpPurpose};

    /// A device of `num_blocks` four-page blocks.
    fn flash_of(num_blocks: usize) -> Flash {
        flash_with(num_blocks, 4)
    }

    /// A device of `num_blocks` blocks of `pages_per_block` pages.
    fn flash_with(num_blocks: usize, pages_per_block: usize) -> Flash {
        Flash::new(FlashGeometry {
            page_bytes: 4096,
            pages_per_block,
            num_blocks,
            read_us: 25.0,
            write_us: 200.0,
            erase_us: 1500.0,
            topology: FlashTopology::default(),
        })
        .unwrap()
    }

    #[test]
    fn alloc_rotates_and_seals() {
        let mut flash = flash_of(4);
        let mut mgr = BlockManager::new(4, 4);
        assert_eq!(mgr.free_blocks(), 4);
        // Fill one block's worth of data pages.
        for i in 0..4u32 {
            let ppn = mgr.alloc_page(AllocClass::Data, &flash).unwrap();
            assert_eq!(ppn, i);
            flash.program_page(ppn, i, OpPurpose::HostData).unwrap();
        }
        assert_eq!(mgr.kind(0), BlockKind::ActiveData);
        // Next alloc seals block 0 and rotates to block 1.
        let ppn = mgr.alloc_page(AllocClass::Data, &flash).unwrap();
        assert_eq!(ppn, 4);
        assert_eq!(mgr.kind(0), BlockKind::SealedData);
        assert_eq!(mgr.kind(1), BlockKind::ActiveData);
        assert_eq!(mgr.free_blocks(), 2);
        assert_eq!(mgr.sealed_blocks(), 1);
    }

    #[test]
    fn data_and_translation_use_separate_actives() {
        let flash = flash_of(4);
        let mut mgr = BlockManager::new(4, 4);
        let d = mgr.alloc_page(AllocClass::Data, &flash).unwrap();
        let t = mgr.alloc_page(AllocClass::Translation, &flash).unwrap();
        assert_ne!(
            flash.geometry().block_of(d),
            flash.geometry().block_of(t),
            "classes must not share a block"
        );
    }

    #[test]
    fn victim_is_min_valid_sealed() {
        let mut flash = flash_of(4);
        let mut mgr = BlockManager::new(4, 4);
        // Seal two data blocks.
        for i in 0..8u32 {
            let ppn = mgr.alloc_page(AllocClass::Data, &flash).unwrap();
            flash.program_page(ppn, i, OpPurpose::HostData).unwrap();
        }
        let _ = mgr.alloc_page(AllocClass::Data, &flash).unwrap(); // seals block 1
                                                                   // Invalidate 3 pages of block 1, 1 page of block 0.
        for ppn in [4u32, 5, 6] {
            flash.invalidate(ppn).unwrap();
            mgr.on_invalidated(1, flash.valid_pages_in(1).unwrap());
        }
        flash.invalidate(0).unwrap();
        mgr.on_invalidated(0, flash.valid_pages_in(0).unwrap());
        let (victim, class) = mgr.pick_victim(GcPolicy::Greedy).unwrap();
        assert_eq!(victim, 1, "block 1 has fewer valid pages");
        assert_eq!(class, AllocClass::Data);
        // Block 0 is next.
        assert_eq!(mgr.pick_victim(GcPolicy::Greedy).unwrap().0, 0);
        // Nothing else is sealed.
        assert!(mgr.pick_victim(GcPolicy::Greedy).is_none());
    }

    #[test]
    fn fully_valid_blocks_never_picked() {
        let mut flash = flash_of(4);
        let mut mgr = BlockManager::new(4, 4);
        for i in 0..4u32 {
            let ppn = mgr.alloc_page(AllocClass::Data, &flash).unwrap();
            flash.program_page(ppn, i, OpPurpose::HostData).unwrap();
        }
        let _ = mgr.alloc_page(AllocClass::Data, &flash).unwrap(); // seals block 0, fully valid
        assert!(mgr.pick_victim(GcPolicy::Greedy).is_none());
    }

    #[test]
    fn erase_returns_to_pool() {
        let mut flash = flash_of(4);
        let mut mgr = BlockManager::new(4, 4);
        for i in 0..4u32 {
            let ppn = mgr.alloc_page(AllocClass::Data, &flash).unwrap();
            flash.program_page(ppn, i, OpPurpose::HostData).unwrap();
        }
        let _ = mgr.alloc_page(AllocClass::Data, &flash).unwrap();
        for ppn in 0..4u32 {
            flash.invalidate(ppn).unwrap();
            mgr.on_invalidated(0, flash.valid_pages_in(0).unwrap());
        }
        let (victim, _) = mgr.pick_victim(GcPolicy::Greedy).unwrap();
        assert_eq!(victim, 0);
        flash.erase_block(0, OpPurpose::GcData).unwrap();
        mgr.on_erased(0);
        assert_eq!(mgr.kind(0), BlockKind::Free);
        assert_eq!(mgr.free_blocks(), 3);
    }

    /// Seals `n` data blocks with `valid[i]` valid pages each.
    fn sealed_setup(valid: &[usize]) -> (Flash, BlockManager) {
        let n = valid.len();
        let mut flash = flash_of(n + 1);
        let mut mgr = BlockManager::new(n + 1, 4);
        for (i, &v) in valid.iter().enumerate() {
            let b = seal_with(&mut mgr, &mut flash, v);
            assert_eq!(b, i as BlockId);
        }
        (flash, mgr)
    }

    /// Fills the next data block the allocator hands out, leaves `valid`
    /// pages valid, seals it, and returns its id.
    fn seal_with(mgr: &mut BlockManager, flash: &mut Flash, valid: usize) -> BlockId {
        seal_in(mgr, flash, AllocClass::Data, valid)
    }

    /// [`seal_with`] for a block of `class`.
    fn seal_in(
        mgr: &mut BlockManager,
        flash: &mut Flash,
        class: AllocClass,
        valid: usize,
    ) -> BlockId {
        let ppb = flash.geometry().pages_per_block;
        let mut first = 0;
        for p in 0..ppb {
            let ppn = mgr.alloc_page(class, flash).unwrap();
            if p == 0 {
                first = ppn;
            }
            flash.program_page(ppn, ppn, OpPurpose::HostData).unwrap();
        }
        let block = flash.geometry().block_of(first);
        for p in 0..(ppb - valid) as u32 {
            flash.invalidate(first + p).unwrap();
            mgr.on_invalidated(block, flash.valid_pages_in(block).unwrap());
        }
        mgr.seal_active(flash, class);
        block
    }

    /// An eight-page-block manager with one sealed block per `(class,
    /// valid)`, sealed in order (block `i` is the `i`-th).
    fn classes_setup(blocks: &[(AllocClass, usize)]) -> BlockManager {
        let n = blocks.len();
        let mut flash = flash_with(n + 2, 8);
        let mut mgr = BlockManager::new(n + 2, 8);
        for (i, &(class, valid)) in blocks.iter().enumerate() {
            assert_eq!(seal_in(&mut mgr, &mut flash, class, valid), i as BlockId);
        }
        mgr
    }

    /// With no valid page in either head the smaller id wins, whatever its
    /// class — and it wins over any ratio.
    #[test]
    fn class_pick_breaks_a_zero_valid_tie_by_id_across_classes() {
        use AllocClass::{Data, Translation};
        for (first, second) in [(Data, Translation), (Translation, Data)] {
            let mut mgr = classes_setup(&[(first, 0), (second, 0)]);
            assert_eq!(mgr.pick_victim(GcPolicy::Greedy), Some((0, first)));
            assert_eq!(mgr.pick_victim(GcPolicy::Greedy), Some((1, second)));
        }
        let mut mgr = classes_setup(&[(Translation, 1), (Data, 0)]);
        assert_eq!(mgr.pick_victim(GcPolicy::Greedy), Some((1, Data)));
    }

    /// `3 · v_t ≤ v_d`: a translation head holding a third of the data
    /// head's valid pages is collected first, under every window.
    #[test]
    fn class_pick_takes_a_translation_head_at_a_third_of_the_data_head() {
        use AllocClass::{Data, Translation};
        for policy in [GcPolicy::Greedy, GcPolicy::Windowed { window: 64 }] {
            let mut mgr = classes_setup(&[(Data, 6), (Translation, 2)]);
            assert_eq!(mgr.pick_victim(policy), Some((1, Translation)));
            let mut mgr = classes_setup(&[(Data, 3), (Translation, 1), (Data, 7)]);
            assert_eq!(mgr.pick_victim(policy), Some((1, Translation)));
        }
    }

    /// One valid page more than a third of the data head's, and the data
    /// head is collected although the translation head has fewer.
    #[test]
    fn class_pick_leaves_a_translation_head_just_above_a_third() {
        use AllocClass::{Data, Translation};
        for (vd, vt) in [(5, 2), (6, 3), (2, 1), (7, 3)] {
            let mut mgr = classes_setup(&[(Data, vd), (Translation, vt)]);
            assert_eq!(
                mgr.pick_victim(GcPolicy::Greedy),
                Some((0, Data)),
                "v_d {vd}, v_t {vt}"
            );
        }
    }

    /// A class with nothing reclaimable — no sealed block, or only fully
    /// valid ones — leaves the pick to the other, whatever its valid count.
    #[test]
    fn class_pick_collects_the_other_class_when_one_has_nothing() {
        use AllocClass::{Data, Translation};
        let mut mgr = classes_setup(&[(Translation, 7), (Translation, 5)]);
        assert_eq!(mgr.pick_victim(GcPolicy::Greedy), Some((1, Translation)));
        let mut mgr = classes_setup(&[(Data, 8), (Translation, 7)]);
        assert_eq!(mgr.pick_victim(GcPolicy::Greedy), Some((1, Translation)));
        let mut mgr = classes_setup(&[(Data, 1), (Translation, 8)]);
        assert_eq!(mgr.pick_victim(GcPolicy::Greedy), Some((0, Data)));
        assert_eq!(mgr.pick_victim(GcPolicy::Greedy), None);
    }

    #[test]
    fn cost_benefit_prefers_older_block_at_equal_utilization() {
        // Blocks 0 and 1 both have 2 valid pages; 0 was sealed earlier
        // (older age) so cost-benefit must pick it; block 2 is hot-full.
        let (_flash, mut mgr) = sealed_setup(&[2, 2, 4]);
        let (victim, _) = mgr.pick_victim(GcPolicy::Windowed { window: 64 }).unwrap();
        assert_eq!(victim, 0);
    }

    #[test]
    fn cost_benefit_takes_free_reclaims_immediately() {
        let (_flash, mut mgr) = sealed_setup(&[2, 0, 3]);
        let (victim, _) = mgr.pick_victim(GcPolicy::Windowed { window: 64 }).unwrap();
        assert_eq!(victim, 1, "a zero-valid block is a free win");
    }

    /// A 6-block device for the static wear-leveling arm: block 0 sealed
    /// cold with `cold_valid` valid pages at wear 0, blocks 1–3 held out of
    /// the free queue (still `Free`, but never handed out), blocks 4 and 5
    /// churned to wear `hot_wear` each. One block is free at every pick of
    /// the churn, so the arm stays deferred and never touches block 0; it
    /// ends with both hot blocks free.
    fn cold_block_setup(streams: u32, cold_valid: usize, hot_wear: u32) -> (Flash, BlockManager) {
        let mut flash = flash_of(6);
        let mut mgr = BlockManager::with_streams(6, 4, streams);
        assert_eq!(seal_with(&mut mgr, &mut flash, cold_valid), 0);
        for held in 1..=3 {
            assert_eq!(mgr.free.pop_front(), Some(held));
        }
        for _ in 0..2 * hot_wear {
            let hot = seal_with(&mut mgr, &mut flash, 1);
            let (victim, _) = mgr.pick_victim(GcPolicy::Greedy).unwrap();
            assert_eq!(victim, hot, "block 0 stays sealed and cold");
            for (ppn, _) in flash.valid_pages(victim).collect::<Vec<_>>() {
                flash.invalidate(ppn).unwrap();
            }
            flash.erase_block(victim, OpPurpose::GcData).unwrap();
            mgr.on_erased(victim);
        }
        assert_eq!((mgr.max_wear(), mgr.free_blocks()), (hot_wear as u64, 2));
        (flash, mgr)
    }

    /// Under two streams the least-worn sealed block is turned over once
    /// the spread exceeds Δ = 4 — not at 4 — although a free reclaim is
    /// sealed beside it.
    #[test]
    fn static_leveling_turns_over_cold_blocks() {
        for spread in [WINDOWED_WEAR_DELTA, WINDOWED_WEAR_DELTA + 1] {
            let (mut flash, mut mgr) = cold_block_setup(2, 3, spread);
            let hot = seal_with(&mut mgr, &mut flash, 0);
            mgr.free.push_back(1); // two free blocks again
            let (victim, _) = mgr.pick_victim(GcPolicy::Windowed { window: 8 }).unwrap();
            let expect = if spread > WINDOWED_WEAR_DELTA { 0 } else { hot };
            assert_eq!(victim, expect, "spread {spread}");
        }
    }

    /// A *fully valid* cold block is invisible to the candidate order, but
    /// the rate-limited static arm still turns it over on the 4th pick.
    #[test]
    fn static_leveling_reaches_full_blocks() {
        let (_flash, mut mgr) = cold_block_setup(2, 4, WINDOWED_WEAR_DELTA + 1);
        mgr.picks_since_static = 0; // as a turn-over leaves it
        let policy = GcPolicy::Windowed { window: 8 };
        // Only block 0 is sealed and it is fully valid: nothing to score,
        // so the first 3 picks return None...
        for _ in 0..WINDOWED_TURNOVER_RATE - 1 {
            assert!(mgr.pick_victim(policy).is_none());
        }
        // ...and the 4th triggers the static turn-over.
        assert_eq!(mgr.pick_victim(policy).unwrap().0, 0);
    }

    /// The free-pool guard: a turn-over waits, however overdue, until two
    /// blocks are free; a single-stream manager has no such arm at all.
    #[test]
    fn static_leveling_waits_for_two_free_blocks() {
        let policy = GcPolicy::Windowed { window: 8 };
        let (_flash, mut mgr) = cold_block_setup(2, 4, WINDOWED_WEAR_DELTA + 1);
        let held = mgr.free.pop_front().unwrap();
        for _ in 0..2 * WINDOWED_TURNOVER_RATE {
            assert!(mgr.pick_victim(policy).is_none(), "one free block");
        }
        mgr.free.push_back(held);
        assert_eq!(mgr.pick_victim(policy).unwrap().0, 0, "two free blocks");

        let (_flash, mut mgr) = cold_block_setup(1, 4, WINDOWED_WEAR_DELTA + 1);
        for _ in 0..2 * WINDOWED_TURNOVER_RATE {
            assert!(mgr.pick_victim(policy).is_none(), "one stream");
        }
        assert!(mgr.wear_index.is_none());
    }

    /// The per-bucket `BTreeSet` victim index, one per class, and a
    /// brute-force class-first pick as an oracle: the bitset indexes must
    /// produce the *identical* victim sequence for every policy, or
    /// fixed-seed replays diverge.
    struct BucketOracle {
        /// `buckets[class][v]`: the class's sealed blocks with `v` valid.
        buckets: [Vec<BTreeSet<BlockId>>; 2],
        class: Vec<AllocClass>,
        pages_per_block: usize,
        seq: u64,
        seal_seq: Vec<u64>,
        sealed_valid: Vec<u32>,
        wear: Vec<u32>,
        wear_index: BTreeSet<(u32, BlockId)>,
        max_wear: u32,
        picks_since_static: u32,
    }

    impl BucketOracle {
        fn new(num_blocks: usize, pages_per_block: usize) -> Self {
            Self {
                buckets: [0; 2].map(|_| vec![BTreeSet::new(); pages_per_block + 1]),
                class: vec![AllocClass::Data; num_blocks],
                pages_per_block,
                seq: 0,
                seal_seq: vec![0; num_blocks],
                sealed_valid: vec![0; num_blocks],
                wear: vec![0; num_blocks],
                wear_index: BTreeSet::new(),
                max_wear: 0,
                picks_since_static: 0,
            }
        }

        fn bucket(&mut self, b: BlockId, valid: usize) -> &mut BTreeSet<BlockId> {
            &mut self.buckets[self.class[b as usize] as usize][valid]
        }

        fn on_seal(&mut self, b: BlockId, class: AllocClass, valid: usize) {
            self.class[b as usize] = class;
            self.bucket(b, valid).insert(b);
            self.seq += 1;
            self.seal_seq[b as usize] = self.seq;
            self.sealed_valid[b as usize] = valid as u32;
            self.wear_index.insert((self.wear[b as usize], b));
        }

        fn on_invalidated(&mut self, b: BlockId, new_valid: usize) {
            assert!(self.bucket(b, new_valid + 1).remove(&b));
            self.bucket(b, new_valid).insert(b);
            self.sealed_valid[b as usize] = new_valid as u32;
        }

        fn on_claim(&mut self, b: BlockId) {
            let valid = self.sealed_valid[b as usize] as usize;
            assert!(self.bucket(b, valid).remove(&b));
            self.wear_index.remove(&(self.wear[b as usize], b));
        }

        fn on_erased(&mut self, b: BlockId) {
            let w = &mut self.wear[b as usize];
            *w += 1;
            self.max_wear = self.max_wear.max(*w);
        }

        /// Mirrors [`BlockManager::static_turnover`], with the live free
        /// count passed in (the oracle has no free pool of its own).
        fn static_turnover(&mut self, free_now: usize) -> Option<BlockId> {
            self.picks_since_static += 1;
            if self.picks_since_static < WINDOWED_TURNOVER_RATE || free_now < 2 {
                return None;
            }
            let &(wear, b) = self.wear_index.iter().next()?;
            if self.max_wear - wear > WINDOWED_WEAR_DELTA {
                self.picks_since_static = 0;
                return Some(b);
            }
            None
        }

        /// `class`'s reclaimable blocks in `BTreeSet` order, capped.
        fn candidates(&self, class: AllocClass) -> impl Iterator<Item = BlockId> + '_ {
            self.buckets[class as usize][..self.pages_per_block]
                .iter()
                .flat_map(|bucket| bucket.iter().copied())
                .take(CANDIDATE_CAP)
        }

        /// Brute-force pick: the smallest zero-valid id of either class if
        /// there is one; else the class whose head the ratio rule (or the
        /// other class's emptiness) names, and in it the best-scored of the
        /// first `window(policy)` candidates.
        fn pick(
            &mut self,
            policy: GcPolicy,
            free_now: usize,
            multi_stream: bool,
        ) -> Option<(BlockId, AllocClass)> {
            if multi_stream {
                if let Some(b) = self.static_turnover(free_now) {
                    return Some((b, self.class[b as usize]));
                }
            }
            let [data, trans] = &self.buckets;
            if let Some(&b) = data[0].union(&trans[0]).next() {
                return Some((b, self.class[b as usize]));
            }
            let head_valid = |class| {
                let b = self.candidates(class).next()?;
                Some(self.sealed_valid[b as usize] as usize)
            };
            let class = match (
                head_valid(AllocClass::Data),
                head_valid(AllocClass::Translation),
            ) {
                (Some(vd), Some(vt)) if vt * TRANS_VICTIM_RATIO > vd => AllocClass::Data,
                (_, Some(_)) => AllocClass::Translation,
                (Some(_), None) => AllocClass::Data,
                (None, None) => return None,
            };
            let np = self.pages_per_block as f64;
            let mut best: Option<(f64, u32, BlockId)> = None;
            for b in self.candidates(class).take(window(policy)) {
                let u = self.sealed_valid[b as usize] as f64 / np;
                let age = (self.seq - self.seal_seq[b as usize]) as f64 + 1.0;
                let score = (1.0 - u) / (2.0 * u) * age;
                let wear = self.wear[b as usize];
                if best.is_none_or(|(s, w, i)| score > s || (score == s && (wear, b) < (w, i))) {
                    best = Some((score, wear, b));
                }
            }
            best.map(|(_, _, b)| (b, class))
        }
    }

    /// Seeded seal/invalidate/pick/erase fuzz on an `n_blocks` device of
    /// eight-page blocks, each sealed as data or translation at random: the
    /// per-class bucket bitsets must yield the same victim sequence, class
    /// included, as the `BTreeSet` oracle for every policy. Three phases
    /// per (policy, seed):
    ///
    /// 1. all but 12 blocks are sealed up front — on even seeds at one
    ///    valid count (a bucket as deep as the device, the MSR shape), on
    ///    odd seeds at random counts — so ids span every leaf and summary
    ///    word the size has;
    /// 2. 400 random seal / invalidate / pick-and-erase steps;
    /// 3. the indexes are picked dry, one compared victim at a time.
    fn fuzz_against_oracle(n_blocks: usize, seeds: u64) {
        use tpftl_rng::Rng64;

        const PPB: usize = 8;
        // Every policy the fuzz covers, as (first 200 random steps, from
        // then on): the last column widens the window midway — the pick
        // takes its policy per call and keeps no state that depends on it.
        let windowed = |window| GcPolicy::Windowed { window };
        let columns = [
            (GcPolicy::Greedy, GcPolicy::Greedy),
            (windowed(1), windowed(1)),
            (windowed(4), windowed(4)),
            (windowed(64), windowed(64)),
            (GcPolicy::Greedy, windowed(4)),
        ];
        for (pi, (early, late)) in columns.into_iter().enumerate() {
            for seed in 0..seeds {
                let mut rng = Rng64::seed_from_u64(0xB10C + seed * 7 + pi as u64);
                let mut flash = flash_with(n_blocks, PPB);
                // Odd seeds run a two-stream manager so the static
                // wear-leveling arm (multi-stream only) is part of the
                // fuzzed surface; the extra stream is never written, so
                // every other code path is identical.
                let mut mgr = BlockManager::with_streams(n_blocks, PPB, 1 + (seed % 2) as u32);
                let mut oracle = BucketOracle::new(n_blocks, PPB);
                let mut sealed: Vec<BlockId> = Vec::new();
                // Seals a block of a random class in both indexes.
                let seal = |mgr: &mut BlockManager,
                            oracle: &mut BucketOracle,
                            flash: &mut Flash,
                            rng: &mut Rng64,
                            valid: usize| {
                    let class = if rng.range_u32(0, 2) == 0 {
                        AllocClass::Data
                    } else {
                        AllocClass::Translation
                    };
                    let b = seal_in(mgr, flash, class, valid);
                    oracle.on_seal(b, class, valid);
                    b
                };

                let deep_valid = rng.range_usize(0, PPB);
                for _ in 12..n_blocks {
                    let valid = if seed % 2 == 0 {
                        deep_valid
                    } else {
                        rng.range_usize(0, PPB + 1)
                    };
                    sealed.push(seal(&mut mgr, &mut oracle, &mut flash, &mut rng, valid));
                }

                // Picks through both indexes, compares, and erases the
                // victim; returns it.
                let pick_and_erase = |mgr: &mut BlockManager,
                                      oracle: &mut BucketOracle,
                                      flash: &mut Flash,
                                      policy: GcPolicy| {
                    let expect = oracle.pick(policy, mgr.free_blocks(), mgr.streams() > 1);
                    let got = mgr.pick_victim(policy);
                    assert_eq!(
                        got, expect,
                        "victim mismatch, policy {policy:?}, {n_blocks} blocks, seed {seed}"
                    );
                    let (b, _) = got?;
                    oracle.on_claim(b);
                    for (ppn, _) in flash.valid_pages(b).collect::<Vec<_>>() {
                        flash.invalidate(ppn).unwrap();
                    }
                    flash.erase_block(b, OpPurpose::GcData).unwrap();
                    mgr.on_erased(b);
                    oracle.on_erased(b);
                    Some(b)
                };

                for step in 0..400 {
                    let policy = if step < 200 { early } else { late };
                    match rng.range_u32(0, 4) {
                        // Seal a fresh block with a random valid count.
                        0 | 1 => {
                            if mgr.free_blocks() == 0 {
                                continue;
                            }
                            let valid = rng.range_usize(0, PPB + 1);
                            sealed.push(seal(&mut mgr, &mut oracle, &mut flash, &mut rng, valid));
                        }
                        // Invalidate one valid page of a random sealed block.
                        2 => {
                            let Some(&b) = sealed.get(rng.range_usize(0, sealed.len().max(1)))
                            else {
                                continue;
                            };
                            let pages: Vec<_> = flash.valid_pages(b).collect();
                            if pages.is_empty() {
                                continue;
                            }
                            let (ppn, _) = pages[rng.range_usize(0, pages.len())];
                            flash.invalidate(ppn).unwrap();
                            let now_valid = flash.valid_pages_in(b).unwrap();
                            mgr.on_invalidated(b, now_valid);
                            oracle.on_invalidated(b, now_valid);
                        }
                        // Pick a victim; sequences must agree exactly.
                        _ => {
                            let picked = pick_and_erase(&mut mgr, &mut oracle, &mut flash, policy);
                            if let Some(b) = picked {
                                sealed.retain(|&s| s != b);
                            }
                        }
                    }
                    assert_eq!(mgr.sealed_blocks(), sealed.len(), "seed {seed}");
                }

                // A pick fails only once nothing reclaimable is left (the
                // static arm runs before the class pick, never in its
                // place), so the first `None` means dry.
                let mut picked = 0;
                while pick_and_erase(&mut mgr, &mut oracle, &mut flash, late).is_some() {
                    picked += 1;
                }
                for (class, buckets) in [AllocClass::Data, AllocClass::Translation]
                    .into_iter()
                    .zip(&oracle.buckets)
                {
                    assert!(buckets[..PPB].iter().all(BTreeSet::is_empty));
                    let index = &mgr.index[class as usize];
                    assert!(index.head(PPB).is_none());
                }
                // The wear index exists iff some pick went to read it: the
                // oracle keeps its own from the first seal, the manager
                // builds one at its first overdue multi-stream pick, after
                // seals and claims it never recorded.
                assert_eq!(mgr.wear_index.is_some(), mgr.streams() > 1);
                assert_eq!(mgr.sealed_blocks() + picked, sealed.len(), "seed {seed}");
            }
        }
    }

    #[test]
    fn victim_sequence_matches_btreeset_oracle() {
        fuzz_against_oracle(12, 48);
    }

    /// Ids on both sides of a 64-block leaf word.
    #[test]
    fn victim_sequence_matches_btreeset_oracle_across_a_word() {
        fuzz_against_oracle(130, 12);
    }

    /// Ids on both sides of a 4096-block summary word, on a device whose
    /// size is not a multiple of 64.
    #[test]
    fn victim_sequence_matches_btreeset_oracle_across_a_summary_word() {
        fuzz_against_oracle(4200, 4);
    }

    /// `IdSet::next` at every boundary of the two levels: first and last
    /// bit of a leaf word, of a summary word, and of a device that ends
    /// mid-word (4200) or exactly on a summary word (8192).
    #[test]
    fn id_set_next_at_word_and_summary_boundaries() {
        for n in [4200usize, 8192] {
            let edges = [0, 63, 64, 4095, 4096, n as BlockId - 1];
            let mut set = IdSet::new(n);
            assert_eq!(set.next(0), None);
            // Alone in the set: found from every start at or below it, and
            // from nowhere above it (`id + 1` may be one past the device).
            for &id in &edges {
                set.insert(id);
                for &from in &edges {
                    assert_eq!(set.next(from as usize), (from <= id).then_some(id));
                }
                assert_eq!(set.next(id as usize + 1), None);
                set.remove(id);
                assert_eq!((set.next(0), set.len), (None, 0));
            }
            // Together: iteration is ascending whatever the insert order,
            // and removing the minimum exposes the next one.
            for &id in edges.iter().rev() {
                set.insert(id);
            }
            let ids: Vec<_> = successors(set.next(0), |&b| set.next(b as usize + 1)).collect();
            assert_eq!(ids, edges);
            for &id in &edges {
                assert_eq!(set.next(0), Some(id));
                set.remove(id);
            }
            assert!(set.leaf.iter().chain(&set.summary).all(|&w| w == 0));
        }
    }

    /// `Greedy` is a name for the window of one (and a window of zero is
    /// clamped to it): one routine serves both, so there is nothing else
    /// for the two to differ in.
    #[test]
    fn windowed_one_is_exactly_greedy() {
        let windowed = |window| GcPolicy::Windowed { window };
        for policy in [GcPolicy::Greedy, windowed(1), windowed(0)] {
            assert_eq!(window(policy), 1, "{policy:?}");
        }
    }

    #[test]
    fn windowed_scores_cost_benefit_inside_the_window() {
        // Block 1 has fewer valid pages (the greedy victim) but block 0 is
        // far older: stretch the age gap so the cost-benefit score inside
        // the window overrides pure greed and turns over the old block.
        let (_flash, mut mgr) = sealed_setup(&[2, 1]);
        mgr.seq = 10;
        mgr.seal_seq[0] = 1;
        mgr.seal_seq[1] = 10;
        let mut greedy = mgr.clone();
        assert_eq!(greedy.pick_victim(GcPolicy::Greedy).unwrap().0, 1);
        // score(0) = (1 − 0.5)/(2·0.5) · 10 = 5; score(1) = 1.5 · 1 = 1.5.
        let (victim, _) = mgr.pick_victim(GcPolicy::Windowed { window: 8 }).unwrap();
        assert_eq!(victim, 0, "the much older block wins the score");
    }

    #[test]
    fn windowed_breaks_score_ties_toward_less_worn_blocks() {
        // Two blocks with equal valid counts; sealed_setup seals them one
        // seq tick apart, so align the seal stamps to force an exact score
        // tie, then wear block 0: the tiebreak must pick the fresh block 1
        // although both the id order and the age order would say 0.
        let (_flash, mut mgr) = sealed_setup(&[1, 1]);
        mgr.seal_seq[0] = mgr.seal_seq[1];
        mgr.wear[0] = 5;
        let (victim, _) = mgr.pick_victim(GcPolicy::Windowed { window: 8 }).unwrap();
        assert_eq!(victim, 1, "equal scores fall back to the wear tiebreak");
    }

    /// The lane opens the newest free block — the one erased last, whose
    /// erase is queued ahead of the lane's own programs — and the host the
    /// oldest; neither ever writes into the other's open block.
    #[test]
    fn lane_takes_the_newest_free_block_and_the_host_the_oldest() {
        let mut flash = flash_of(8);
        let mut mgr = BlockManager::new(8, 4);
        let fill = |mgr: &mut BlockManager, flash: &mut Flash, lane: bool| {
            flash.sim_background(lane);
            let ppn = mgr.alloc_page(AllocClass::Data, flash).unwrap();
            flash.program_page(ppn, ppn, OpPurpose::HostData).unwrap();
            flash.sim_background(false);
            flash.geometry().block_of(ppn)
        };
        assert_eq!(fill(&mut mgr, &mut flash, false), 0);
        assert_eq!(fill(&mut mgr, &mut flash, true), 7);
        flash.sim_background(true);
        let lane_tp = mgr.alloc_page(AllocClass::Translation, &flash).unwrap();
        flash.sim_background(false);
        let host_tp = mgr.alloc_page(AllocClass::Translation, &flash).unwrap();
        let block = |ppn| flash.geometry().block_of(ppn);
        assert_eq!((block(lane_tp), block(host_tp)), (6, 1));
        // Free pool 2..=5. The host fills block 0 and kills its pages; its
        // next page seals 0 and opens the oldest free block, 2.
        for _ in 0..3 {
            assert_eq!(fill(&mut mgr, &mut flash, false), 0);
        }
        for ppn in 0..4 {
            flash.invalidate(ppn).unwrap();
            mgr.on_invalidated(0, flash.valid_pages_in(0).unwrap());
        }
        assert_eq!(fill(&mut mgr, &mut flash, false), 2);
        assert_eq!(
            mgr.pick_victim(GcPolicy::Greedy),
            Some((0, AllocClass::Data))
        );
        flash.erase_block(0, OpPurpose::GcData).unwrap();
        mgr.on_erased(0);
        // Free pool 3, 4, 5, 0: the lane's next block is 0, just erased...
        for _ in 0..3 {
            assert_eq!(fill(&mut mgr, &mut flash, true), 7);
        }
        assert_eq!(fill(&mut mgr, &mut flash, true), 0);
        // ...and the host's is 3, the oldest.
        for _ in 0..3 {
            assert_eq!(fill(&mut mgr, &mut flash, false), 2);
        }
        assert_eq!(fill(&mut mgr, &mut flash, false), 3);
    }

    #[test]
    fn streams_never_share_an_active_block() {
        let flash = flash_of(4);
        let mut mgr = BlockManager::with_streams(4, 4, 2);
        let cold = mgr.alloc_data_page(0, &flash).unwrap();
        let hot = mgr.alloc_data_page(1, &flash).unwrap();
        assert_ne!(
            flash.geometry().block_of(cold),
            flash.geometry().block_of(hot),
            "streams must not share a block"
        );
        assert_eq!(mgr.streams(), 2);
        // Out-of-range stream indices clamp instead of panicking.
        let clamped = mgr.alloc_data_page(9, &flash).unwrap();
        assert_eq!(
            flash.geometry().block_of(clamped),
            flash.geometry().block_of(hot)
        );
    }

    /// Property: however allocations interleave across streams, every
    /// block only ever receives pages from one stream between erases.
    #[test]
    fn active_blocks_never_mix_streams() {
        use tpftl_rng::Rng64;

        const N_BLOCKS: usize = 24;
        const PPB: usize = 4;
        for seed in 0..24u64 {
            let mut rng = Rng64::seed_from_u64(0x57EA + seed);
            let streams = 2 + (seed % 3) as u32; // 2..=4 streams
            let mut flash = flash_of(N_BLOCKS);
            let mut mgr = BlockManager::with_streams(N_BLOCKS, PPB, streams);
            // Which stream wrote each block (None = erased / untouched).
            let mut owner: Vec<Option<usize>> = vec![None; N_BLOCKS];
            let mut programmed: Vec<Vec<Ppn>> = vec![Vec::new(); N_BLOCKS];
            for op in 0..600u32 {
                let stream = rng.range_usize(0, streams as usize);
                let Ok(ppn) = mgr.alloc_data_page(stream, &flash) else {
                    // Device full: reclaim the greedy victim and move on.
                    let Some((victim, _)) = mgr.pick_victim(GcPolicy::Greedy) else {
                        break;
                    };
                    for p in programmed[victim as usize].drain(..) {
                        flash.invalidate(p).unwrap();
                    }
                    flash.erase_block(victim, OpPurpose::GcData).unwrap();
                    mgr.on_erased(victim);
                    owner[victim as usize] = None;
                    continue;
                };
                flash.program_page(ppn, op, OpPurpose::HostData).unwrap();
                let block = flash.geometry().block_of(ppn) as usize;
                match owner[block] {
                    None => owner[block] = Some(stream),
                    Some(s) => assert_eq!(
                        s, stream,
                        "seed {seed}: block {block} mixed streams {s} and {stream}"
                    ),
                }
                programmed[block].push(ppn);
            }
        }
    }

    #[test]
    fn device_full_reported() {
        let mut flash = flash_of(4);
        let mut mgr = BlockManager::new(4, 4);
        // Fill every page of the device: the pool is drained and the last
        // block is active but exhausted.
        for i in 0..16u32 {
            let ppn = mgr.alloc_page(AllocClass::Data, &flash).unwrap();
            flash.program_page(ppn, i, OpPurpose::HostData).unwrap();
        }
        assert_eq!(mgr.free_blocks(), 0);
        // Every way of asking for space says so — repeatedly: the failed
        // call seals the exhausted active block exactly once.
        for _ in 0..2 {
            for class in [AllocClass::Data, AllocClass::Translation] {
                assert_eq!(mgr.alloc_page(class, &flash), Err(FtlError::DeviceFull));
            }
            assert_eq!(mgr.sealed_blocks(), 4);
        }
        // All four sealed blocks are fully valid: nothing to collect.
        assert!(mgr.pick_victim(GcPolicy::Greedy).is_none());

        // The collector turns that `None` into the same error.
        let config = crate::SsdConfig::paper_default(4 << 20);
        let mut env = crate::env::SsdEnv::new(config.clone()).unwrap();
        let mut ftl = crate::ftl::OptimalFtl::new(&config);
        let ppb = config.geometry().pages_per_block as u32;
        for lpn in 0..=2 * ppb {
            env.program_data_page(lpn, OpPurpose::HostData).unwrap();
        }
        assert_eq!(env.blocks.sealed_blocks(), 2);
        assert_eq!(
            crate::gc::collect_one(&mut ftl, &mut env),
            Err(FtlError::DeviceFull)
        );
    }
}
