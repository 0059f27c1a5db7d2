//! TPFTL — the paper's contribution (Section 4).
//!
//! The mapping cache is organized as **two-level LRU lists**: a page-level
//! structure of *TP nodes* (one per translation page with cached entries),
//! each holding an entry-level LRU list of its cached mapping entries. The
//! position of a TP node is decided by its *page-level hotness*, defined as
//! the average hotness (last-access stamp) of its entry nodes; we maintain
//! the order in a position-tracked binary min-heap keyed by that average,
//! so victim selection (the coldest node) is `O(1)` and repositioning is
//! `O(log n)` worst case — and allocation-free, unlike a balanced tree.
//!
//! Four independently switchable techniques (the Figure 7/8 ablations):
//!
//! * `r` — **request-level prefetching** (Section 4.3): on the first miss of
//!   a multi-page request, load all the request's entries instead of one,
//!   so a request causes at most one miss per translation page it spans.
//! * `s` — **selective prefetching** (Section 4.3): a counter tracks the
//!   number change of TP nodes (+1 on load, −1 on eviction); when it falls
//!   by the threshold, sequential accesses are assumed and each miss also
//!   prefetches as many successors as the requested entry has cached
//!   consecutive predecessors in its translation page.
//! * `b` — **batch-update replacement** (Section 4.4): when a dirty entry
//!   is evicted, *all* dirty entries of its TP node are written back in the
//!   same translation-page update; only the victim leaves the cache, the
//!   rest stay clean. The same batching is applied when a GC miss updates a
//!   cached translation page.
//! * `c` — **clean-first replacement** (Section 4.4): the victim is the LRU
//!   *clean* entry of the LRU TP node; only if none exists is the LRU dirty
//!   entry chosen.
//!
//! Prefetching is bounded by the two rules of Section 4.5: it never crosses
//! the translation-page boundary, and the replacement it forces stays
//! within the single LRU TP node (the prefetch length is reduced
//! otherwise), so one address translation performs at most one translation
//! page read and at most one update. Without `b` each dirty victim is its
//! own update, so there the prefetch is also reduced rather than pay a
//! second one.
//!
//! Cached entries are stored compressed (Section 4.1): the LPN is implied
//! by the node's VTPN plus a 10-bit in-page offset, so an entry costs 6
//! bytes against DFTL's 8 (the Figure 10 space-utilization gain); a TP node
//! costs 8 bytes of overhead.

use tpftl_flash::{Lpn, OpPurpose, Ppn, Vtpn};

use crate::env::SsdEnv;
use crate::ftl::cmt::{self, mapped, OffsetTables, PageStep, TablePool, TpTally, VtpnTable};
use crate::ftl::cmt::{NODE_BYTES, NODE_ENTRY_BYTES as ENTRY_BYTES};
use crate::ftl::{AccessCtx, Ftl, TpDistEntry};
use crate::lru::{LruIdx, LruList};
use crate::{FtlError, Result, SsdConfig};

/// Which TPFTL techniques are enabled; the Figure 7/8 ablation knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpftlConfig {
    /// `r`: request-level prefetching.
    pub request_prefetch: bool,
    /// `s`: selective prefetching.
    pub selective_prefetch: bool,
    /// `b`: batch-update replacement.
    pub batch_update: bool,
    /// `c`: clean-first replacement.
    pub clean_first: bool,
    /// Selective-prefetch activation threshold (the paper found 3 works
    /// well empirically; Section 4.3).
    pub counter_threshold: i32,
}

impl TpftlConfig {
    /// The complete TPFTL (`rsbc`).
    pub fn full() -> Self {
        Self {
            request_prefetch: true,
            selective_prefetch: true,
            batch_update: true,
            clean_first: true,
            counter_threshold: 3,
        }
    }

    /// The bare two-level-LRU variant (`–` in Figures 7/8).
    pub fn baseline() -> Self {
        Self {
            request_prefetch: false,
            selective_prefetch: false,
            batch_update: false,
            clean_first: false,
            counter_threshold: 3,
        }
    }

    /// Builds a configuration from the paper's monogram (`"rsbc"`, `"b"`,
    /// `"rs"`, ..., `""` for the bare variant).
    ///
    /// # Panics
    ///
    /// Panics on letters outside `r`, `s`, `b`, `c`.
    pub fn from_flags(flags: &str) -> Self {
        let mut cfg = Self::baseline();
        for ch in flags.chars() {
            match ch {
                'r' => cfg.request_prefetch = true,
                's' => cfg.selective_prefetch = true,
                'b' => cfg.batch_update = true,
                'c' => cfg.clean_first = true,
                other => panic!("unknown TPFTL flag {other:?}"),
            }
        }
        cfg
    }

    /// The monogram describing this configuration (`"–"` if none).
    pub fn flags(&self) -> String {
        let mut s = String::new();
        if self.request_prefetch {
            s.push('r');
        }
        if self.selective_prefetch {
            s.push('s');
        }
        if self.batch_update {
            s.push('b');
        }
        if self.clean_first {
            s.push('c');
        }
        if s.is_empty() {
            s.push('–');
        }
        s
    }
}

#[derive(Debug, Clone, Copy)]
struct EntryNode {
    offset: u16,
    /// `PPN_NONE` caches "not mapped yet".
    ppn: Ppn,
    dirty: bool,
    /// Last-access stamp; feeds the node's page-level hotness.
    stamp: u64,
}

struct TpNode {
    /// Entry-level LRU list (MRU = hottest entry).
    entries: LruList<EntryNode>,
    /// Where each cached offset sits in `entries`, and which are dirty.
    tables: OffsetTables,
    /// Sum of entry stamps; hotness = sum / len.
    stamp_sum: u64,
    dirty_count: u32,
    /// Current key in the page-level order ((hotness, vtpn)).
    hot_key: u64,
    /// Index of this node's slot in [`TpFtl::order`]; maintained by the
    /// heap primitives so a reposition starts at the right slot without a
    /// search.
    heap_pos: u32,
}

impl TpNode {
    fn new(tables: OffsetTables) -> Self {
        Self {
            entries: LruList::new(),
            tables,
            stamp_sum: 0,
            dirty_count: 0,
            hot_key: 0,
            heap_pos: 0,
        }
    }

    /// Points the entry behind `idx`, cached for `offset`, at `ppn` and
    /// marks it dirty.
    #[inline]
    fn remap(&mut self, idx: LruIdx, offset: u16, ppn: Ppn) {
        let e = self.entries.get_mut(idx).expect("valid handle");
        e.ppn = ppn;
        if !e.dirty {
            e.dirty = true;
            self.tables.mark_dirty(offset);
            self.dirty_count += 1;
        }
    }

    /// Marks every dirty entry clean, appending its `(offset, ppn)` to
    /// `out` by ascending offset: the update list of the write-back that
    /// persists them.
    fn drain_dirty(&mut self, out: &mut Vec<(u16, Ppn)>) {
        let entries = &mut self.entries;
        self.tables.drain_dirty(|offset, idx| {
            let e = entries.get_mut(idx);
            let e = e.expect("dirty bit names a cached entry");
            e.dirty = false;
            out.push((offset, e.ppn));
        });
        self.dirty_count = 0;
    }

    /// Marks every entry clean without writing anything back.
    fn forget_dirty(&mut self) {
        self.entries.for_each_value_mut(|e| e.dirty = false);
        self.tables.forget_dirty();
        self.dirty_count = 0;
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn hotness(&self) -> u64 {
        if self.entries.is_empty() {
            0
        } else {
            self.stamp_sum / self.entries.len() as u64
        }
    }
}

/// The TPFTL flash translation layer.
pub struct TpFtl {
    cfg: TpftlConfig,
    budget_bytes: usize,
    nodes: VtpnTable<TpNode>,
    /// Page-level order: a binary min-heap over `(hotness, vtpn)`, coldest
    /// node at the root. Only two queries are ever needed — peek the
    /// coldest node and move one node after its hotness changes — so the
    /// heap replaces a balanced tree: peeks are `O(1)`, repositions sift a
    /// level or two in the common case (a touch barely moves a node's
    /// average stamp), and no tree nodes are allocated or freed on the
    /// translate hot path. Victim selection is identical because the
    /// minimum of the same key set under the same total order is unique.
    order: Vec<(u64, Vtpn)>,
    bytes_used: usize,
    /// Global access clock driving entry stamps.
    clock: u64,
    /// The Section 4.3 counter: +1 per TP-node load, −1 per eviction.
    counter: i32,
    selective_active: bool,
    /// Recycled tables of dismantled nodes.
    table_pool: TablePool,
    /// Reusable buffer for the request path's batch writebacks: taken,
    /// filled, returned — never reallocated once grown. Miss-path payloads
    /// are borrowed from the flash slab and need no buffer at all.
    scratch_updates: Vec<(u16, Ppn)>,
}

impl TpFtl {
    /// Creates a TPFTL with the given technique set, sized to the config's
    /// usable cache budget.
    ///
    /// # Errors
    ///
    /// [`FtlError::CacheTooSmall`] if a node plus one entry does not fit.
    pub fn new(config: &SsdConfig, cfg: TpftlConfig) -> Result<Self> {
        let budget_bytes = config.usable_cache_bytes();
        if budget_bytes < NODE_BYTES + ENTRY_BYTES {
            return Err(FtlError::CacheTooSmall);
        }
        Ok(Self {
            cfg,
            budget_bytes,
            nodes: VtpnTable::new(config.num_vtpns() as usize),
            order: Vec::new(),
            bytes_used: 0,
            clock: 0,
            counter: 0,
            selective_active: false,
            table_pool: TablePool::new(config.entries_per_tp()),
            scratch_updates: Vec::new(),
        })
    }

    /// Whether selective prefetching is currently active (test hook).
    pub fn selective_active(&self) -> bool {
        self.selective_active
    }

    /// The configured technique set.
    pub fn config(&self) -> &TpftlConfig {
        &self.cfg
    }

    // ---- Page-level order maintenance ---------------------------------------
    //
    // Invariant: `order[n.heap_pos] == (n.hot_key, vtpn)` for every cached
    // node `n`, and `order` satisfies the min-heap property under the
    // lexicographic order on `(hot_key, vtpn)`.

    /// Swaps two heap slots and fixes both nodes' back-pointers.
    fn heap_swap(order: &mut [(u64, Vtpn)], nodes: &mut VtpnTable<TpNode>, a: usize, b: usize) {
        order.swap(a, b);
        nodes[order[a].1].heap_pos = a as u32;
        nodes[order[b].1].heap_pos = b as u32;
    }

    fn heap_sift_up(order: &mut [(u64, Vtpn)], nodes: &mut VtpnTable<TpNode>, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if order[i] < order[parent] {
                Self::heap_swap(order, nodes, i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(order: &mut [(u64, Vtpn)], nodes: &mut VtpnTable<TpNode>, mut i: usize) {
        loop {
            let left = 2 * i + 1;
            if left >= order.len() {
                break;
            }
            let right = left + 1;
            let child = if right < order.len() && order[right] < order[left] {
                right
            } else {
                left
            };
            if order[child] < order[i] {
                Self::heap_swap(order, nodes, i, child);
                i = child;
            } else {
                break;
            }
        }
    }

    /// Adds `vtpn` (whose node must already be in `nodes`, with `hot_key`
    /// set) to the heap.
    fn heap_insert(&mut self, vtpn: Vtpn) {
        let i = self.order.len();
        let node = &mut self.nodes[vtpn];
        node.heap_pos = i as u32;
        self.order.push((node.hot_key, vtpn));
        Self::heap_sift_up(&mut self.order, &mut self.nodes, i);
    }

    /// Re-keys the heap slot `i` to `new_key` and restores the heap
    /// property. The slot's node must already carry `hot_key == new_key`.
    fn heap_update(&mut self, i: usize, new_key: u64) {
        let old_key = self.order[i].0;
        if new_key == old_key {
            return;
        }
        self.order[i].0 = new_key;
        if new_key < old_key {
            Self::heap_sift_up(&mut self.order, &mut self.nodes, i);
        } else {
            Self::heap_sift_down(&mut self.order, &mut self.nodes, i);
        }
    }

    /// Removes the heap slot `i` (the dismantled node itself is left to the
    /// caller to drop from `nodes`).
    fn heap_remove(&mut self, i: usize) {
        let last = self.order.pop().expect("removal from empty heap");
        if i < self.order.len() {
            self.order[i] = last;
            self.nodes[last.1].heap_pos = i as u32;
            Self::heap_sift_up(&mut self.order, &mut self.nodes, i);
            Self::heap_sift_down(&mut self.order, &mut self.nodes, i);
        }
    }

    /// Recomputes `vtpn`'s hotness key and repositions its heap slot.
    fn reposition(&mut self, vtpn: Vtpn) {
        let node = &mut self.nodes[vtpn];
        let new_key = node.hotness();
        node.hot_key = new_key;
        let i = node.heap_pos as usize;
        debug_assert_eq!(self.order[i].1, vtpn, "heap back-pointer out of sync");
        self.heap_update(i, new_key);
    }

    fn on_node_created(&mut self) {
        self.counter += 1;
        if self.counter >= self.cfg.counter_threshold {
            self.selective_active = false;
            self.counter = 0;
        }
    }

    fn on_node_removed(&mut self) {
        self.counter -= 1;
        if self.counter <= -self.cfg.counter_threshold {
            self.selective_active = true;
            self.counter = 0;
        }
    }

    // ---- Entry plumbing ------------------------------------------------------

    /// Hit path: if `vtpn:offset` is cached, returns its PPN after the MRU
    /// move, stamp refresh and node reposition — one node lookup for the
    /// probe and the touch combined.
    fn lookup_touch(&mut self, vtpn: Vtpn, offset: u16) -> Option<Ppn> {
        let node = self.nodes.get_mut(vtpn)?;
        let idx = node.tables.get(offset)?;
        node.entries.touch(idx);
        let e = node.entries.get_mut(idx).expect("valid handle");
        let ppn = e.ppn;
        node.stamp_sum -= e.stamp;
        e.stamp = self.clock;
        node.stamp_sum += self.clock;
        let new_key = node.stamp_sum / node.entries.len() as u64;
        node.hot_key = new_key;
        let i = node.heap_pos as usize;
        self.heap_update(i, new_key);
        Some(ppn)
    }

    fn cached_ppn(&self, vtpn: Vtpn, offset: u16) -> Option<Ppn> {
        let node = self.nodes.get(vtpn)?;
        let idx = node.tables.get(offset)?;
        Some(node.entries.get(idx).expect("valid handle").ppn)
    }

    /// Number of consecutive cached predecessors of `offset` in `vtpn`
    /// (the selective-prefetch length rule, Section 4.3).
    fn cached_predecessors(&self, vtpn: Vtpn, offset: u16) -> usize {
        let Some(node) = self.nodes.get(vtpn) else {
            return 0;
        };
        let mut n = 0;
        let mut off = offset;
        while off > 0 && node.tables.get(off - 1).is_some() {
            n += 1;
            off -= 1;
        }
        n
    }

    /// Inserts a fresh entry (assumes capacity has been made).
    fn insert_entry(&mut self, vtpn: Vtpn, offset: u16, ppn: Ppn) {
        let created = !self.nodes.contains(vtpn);
        if created {
            self.bytes_used += NODE_BYTES;
            let tables = self.table_pool.alloc();
            self.nodes.insert(vtpn, TpNode::new(tables));
            self.heap_insert(vtpn);
        }
        let node = &mut self.nodes[vtpn];
        let idx = node.entries.push_mru(EntryNode {
            offset,
            ppn,
            dirty: false,
            stamp: self.clock,
        });
        node.tables.set(offset, idx);
        node.stamp_sum += self.clock;
        self.bytes_used += ENTRY_BYTES;
        self.reposition(vtpn);
        if created {
            self.on_node_created();
        }
    }

    /// Picks the victim entry inside `node` per the replacement policy:
    /// LRU clean entry when clean-first is on, else the LRU entry.
    fn pick_victim_in(&self, vtpn: Vtpn) -> (LruIdx, EntryNode) {
        let node = &self.nodes[vtpn];
        if self.cfg.clean_first {
            if let Some((idx, e)) = node
                .entries
                .iter_lru()
                .find(|(_, e)| !e.dirty)
                .map(|(i, e)| (i, *e))
            {
                return (idx, e);
            }
        }
        let (idx, e) = node.entries.peek_lru().expect("nodes are never empty");
        (idx, *e)
    }

    /// Evicts one entry from the coldest TP node, handling writeback and
    /// batch-update; returns whether it wrote a translation page.
    fn evict_one(&mut self, env: &mut SsdEnv) -> Result<bool> {
        let &(_, vtpn) = self.order.first().expect("eviction from empty cache");
        let (victim_idx, victim) = self.pick_victim_in(vtpn);
        env.note_replacement(victim.dirty);

        if victim.dirty {
            if self.cfg.batch_update {
                // Write back every dirty entry of the node in one update,
                // by ascending offset; the others stay cached, now clean
                // (Section 4.4). The update list lives in a reusable
                // scratch buffer.
                let mut updates = std::mem::take(&mut self.scratch_updates);
                updates.clear();
                self.nodes[vtpn].drain_dirty(&mut updates);
                let res = env.update_translation_page(vtpn, &updates, OpPurpose::Translation);
                self.scratch_updates = updates;
                res?;
            } else {
                env.update_translation_page(
                    vtpn,
                    &[(victim.offset, victim.ppn)],
                    OpPurpose::Translation,
                )?;
                // The victim leaves the cache below, its dirty bit with it.
                self.nodes[vtpn].dirty_count -= 1;
            }
        }

        // Remove the (now persisted) victim.
        let node = &mut self.nodes[vtpn];
        let e = node.entries.remove(victim_idx);
        node.tables.unset(e.offset);
        node.stamp_sum -= e.stamp;
        self.bytes_used -= ENTRY_BYTES;
        if node.entries.is_empty() {
            let i = node.heap_pos as usize;
            self.heap_remove(i);
            let node = self.nodes.remove(vtpn).expect("present");
            self.table_pool.recycle(node.tables);
            self.bytes_used -= NODE_BYTES;
            self.on_node_removed();
        } else {
            self.reposition(vtpn);
        }
        Ok(victim.dirty)
    }

    /// Makes room for loading `1 + prefetch` entries into `vtpn` (which may
    /// not exist yet), reducing `prefetch` so that the forced replacement
    /// stays within the single LRU TP node (Section 4.5, rule 2). Without
    /// batch update every dirty victim is a translation write, so there a
    /// prefetch pays for at most one: after it, a dirty victim shortens the
    /// prefetch instead (else one long request writes back a page per entry
    /// of the node, in one access). Returns the final prefetch length.
    fn make_room(&mut self, env: &mut SsdEnv, vtpn: Vtpn, mut prefetch: usize) -> Result<usize> {
        let mut wrote = false;
        loop {
            // Re-evaluated every iteration: an eviction can dismantle the
            // target node itself, re-introducing its NODE_BYTES cost.
            let node_cost = if self.nodes.contains(vtpn) {
                0
            } else {
                NODE_BYTES
            };
            let need = node_cost + (1 + prefetch) * ENTRY_BYTES;
            let free = self.budget_bytes.saturating_sub(self.bytes_used);
            if need <= free {
                return Ok(prefetch);
            }
            let deficit = need - free;
            let evictions = deficit.div_ceil(ENTRY_BYTES);
            let lru = self.order.first().map(|&(_, v)| v);
            let lru_len = lru.map_or(0, |v| self.nodes[v].len());
            let second_write = wrote && lru.is_some_and(|v| self.pick_victim_in(v).1.dirty);
            if prefetch == 0 || (evictions <= lru_len && !second_write) {
                // Evict one entry and re-evaluate. When prefetch is already
                // 0 the requested entry must be loaded regardless, even if
                // that crosses into a second node.
                wrote |= self.evict_one(env)? && !self.cfg.batch_update;
            } else {
                prefetch -= 1;
            }
        }
    }
}

impl Ftl for TpFtl {
    fn name(&self) -> String {
        format!("TPFTL({})", self.cfg.flags())
    }

    fn translate(&mut self, env: &mut SsdEnv, lpn: Lpn, ctx: &AccessCtx) -> Result<Option<Ppn>> {
        self.clock += 1;
        let vtpn = env.vtpn_of(lpn);
        let offset = env.offset_of(lpn);

        if let Some(ppn) = self.lookup_touch(vtpn, offset) {
            env.note_lookup(true);
            return Ok(mapped(ppn));
        }
        env.note_lookup(false);

        // Prefetch length: the larger of the request-level remainder and
        // the selective predecessor run, clipped to the page boundary.
        let req_len = if self.cfg.request_prefetch {
            ctx.remaining_in_request as usize
        } else {
            0
        };
        let sel_len = if self.cfg.selective_prefetch && self.selective_active {
            self.cached_predecessors(vtpn, offset)
        } else {
            0
        };
        let boundary = env.entries_per_tp() - 1 - offset as usize;
        let want = req_len.max(sel_len).min(boundary);

        let granted = self.make_room(env, vtpn, want)?;

        // One translation-page read serves the requested entry and every
        // prefetched successor (they share the page by rule 1). The payload
        // is borrowed straight out of the flash model's slab — the miss
        // path copies single entries into the cache, never a whole page.
        let payload = env.read_translation_entries(vtpn, OpPurpose::Translation)?;
        let requested_ppn = payload[offset as usize];
        for i in 0..=granted as u16 {
            let off = offset + i;
            if self.cached_ppn(vtpn, off).is_none() {
                self.insert_entry(vtpn, off, payload[off as usize]);
            }
        }
        Ok(mapped(requested_ppn))
    }

    fn update_mapping(&mut self, env: &mut SsdEnv, lpn: Lpn, new_ppn: Ppn) -> Result<()> {
        let vtpn = env.vtpn_of(lpn);
        let offset = env.offset_of(lpn);
        let node = self
            .nodes
            .get_mut(vtpn)
            .expect("update_mapping contract: entry was translated immediately before");
        let idx = node.tables.get(offset).expect("entry cached");
        node.remap(idx, offset, new_ppn);
        Ok(())
    }

    fn on_gc_data_block(&mut self, env: &mut SsdEnv, moved: &[(Lpn, Ppn)]) -> Result<u64> {
        cmt::absorb_gc_moves(
            self,
            env,
            moved,
            |ftl, env, lpn, new_ppn| {
                let offset = env.offset_of(lpn);
                let Some((node, idx)) = ftl
                    .nodes
                    .get_mut(env.vtpn_of(lpn))
                    .and_then(|n| n.tables.get(offset).map(|idx| (n, idx)))
                else {
                    return Ok(false);
                };
                node.remap(idx, offset, new_ppn);
                Ok(true)
            },
            |ftl, _, vtpn, step| {
                let PageStep::Gather(updates) = step else {
                    return;
                };
                // Piggyback every cached dirty entry of this page on the
                // unavoidable update (Section 4.4), marking them clean.
                // The batch needs no sort: a dirty entry is cached, so its
                // offset is none of the misses'; the only offset the misses
                // repeat, an LPN the pass moved twice, arrives in move
                // order, and the write applies a batch in order.
                if ftl.cfg.batch_update {
                    if let Some(node) = ftl.nodes.get_mut(vtpn) {
                        debug_assert!(
                            updates.iter().all(|&(off, _)| !node.tables.is_dirty(off)),
                            "a GC miss of page {vtpn} is a cached dirty entry"
                        );
                        if node.dirty_count > 0 {
                            node.drain_dirty(updates);
                        }
                    }
                }
            },
        )
    }

    fn cache_bytes_used(&self) -> usize {
        self.bytes_used
    }

    fn cached_entries(&self) -> usize {
        self.nodes.iter().map(|(_, n)| n.len()).sum()
    }

    fn peek_cached(&self, env: &SsdEnv, lpn: Lpn) -> crate::Result<Option<Option<Ppn>>> {
        Ok(self
            .cached_ppn(env.vtpn_of(lpn), env.offset_of(lpn))
            .map(mapped))
    }

    fn mark_clean(&mut self, vtpn: Vtpn) {
        if let Some(node) = self.nodes.get_mut(vtpn) {
            node.forget_dirty();
        }
    }

    fn cached_tp_distribution(&self) -> Vec<TpDistEntry> {
        let mut tally = TpTally::default();
        for (vtpn, n) in self.nodes.iter() {
            tally.add(vtpn, n.len() as u32, n.dirty_count);
        }
        tally.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver;
    use tpftl_flash::PPN_NONE;

    /// 8 MB logical space (2048 pages, 2 translation pages), cache budget
    /// of `bytes` for the FTL structures.
    fn setup(bytes: usize, flags: &str) -> (TpFtl, SsdEnv) {
        setup_sized(8 << 20, bytes, flags)
    }

    fn setup_sized(logical: u64, bytes: usize, flags: &str) -> (TpFtl, SsdEnv) {
        let mut config = SsdConfig::paper_default(logical);
        config.cache_bytes = config.gtd_bytes() + bytes;
        let mut env = SsdEnv::new(config.clone()).unwrap();
        let mut ftl = TpFtl::new(&config, TpftlConfig::from_flags(flags)).unwrap();
        driver::bootstrap(&mut ftl, &mut env).unwrap();
        (ftl, env)
    }

    fn read(ftl: &mut TpFtl, env: &mut SsdEnv, lpn: Lpn) {
        driver::serve_page_access(ftl, env, lpn, AccessCtx::single(false)).unwrap();
    }

    fn write(ftl: &mut TpFtl, env: &mut SsdEnv, lpn: Lpn) {
        driver::serve_page_access(ftl, env, lpn, AccessCtx::single(true)).unwrap();
    }

    /// Every node's dirty bitmap is the set of its dirty entries and
    /// `dirty_count` its population; every pooled table is clear.
    fn assert_dirty_bitmaps_in_sync(ftl: &TpFtl) {
        for (vtpn, node) in ftl.nodes.iter() {
            for (idx, e) in node.entries.iter_lru() {
                assert_eq!(node.tables.get(e.offset), Some(idx), "vtpn {vtpn}");
                assert_eq!(node.tables.is_dirty(e.offset), e.dirty, "vtpn {vtpn}");
            }
            let dirty = node.entries.iter_lru().filter(|(_, e)| e.dirty).count();
            assert_eq!(node.tables.dirty_count() as usize, dirty, "vtpn {vtpn}");
            assert_eq!(node.dirty_count as usize, dirty, "vtpn {vtpn}");
        }
        assert!(ftl.table_pool.is_clear());
    }

    #[test]
    fn flags_roundtrip() {
        assert_eq!(TpftlConfig::full().flags(), "rsbc");
        assert_eq!(TpftlConfig::baseline().flags(), "–");
        assert_eq!(TpftlConfig::from_flags("bc").flags(), "bc");
        assert_eq!(TpftlConfig::from_flags("rs").flags(), "rs");
        assert_eq!(
            TpFtl::new(&SsdConfig::paper_default(8 << 20), TpftlConfig::full())
                .unwrap()
                .name(),
            "TPFTL(rsbc)"
        );
    }

    #[test]
    fn miss_then_hit_two_level() {
        let (mut ftl, mut env) = setup(1024, "");
        write(&mut ftl, &mut env, 7);
        assert_eq!(env.stats.lookups, 1);
        assert_eq!(env.stats.hits, 0);
        read(&mut ftl, &mut env, 7);
        assert_eq!(env.stats.hits, 1);
        let d = ftl.cached_tp_distribution();
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].vtpn, d[0].entries, d[0].dirty), (0, 1, 1));
        assert_eq!(ftl.cache_bytes_used(), NODE_BYTES + ENTRY_BYTES);
    }

    #[test]
    fn entry_compression_fits_more_than_dftl() {
        // 120 bytes: DFTL would fit 15 entries; TPFTL fits (120-8)/6 = 18
        // in one node.
        let (mut ftl, mut env) = setup(120, "");
        for lpn in 0..50u32 {
            read(&mut ftl, &mut env, lpn);
        }
        assert!(ftl.cached_entries() >= 18, "got {}", ftl.cached_entries());
        assert!(ftl.cache_bytes_used() <= 120);
    }

    #[test]
    fn victim_comes_from_coldest_node() {
        let (mut ftl, mut env) = setup(NODE_BYTES * 2 + ENTRY_BYTES * 4, "");
        // Node 0 entries (cold), then node 1 entries (hot).
        read(&mut ftl, &mut env, 0);
        read(&mut ftl, &mut env, 1);
        read(&mut ftl, &mut env, 1024);
        read(&mut ftl, &mut env, 1025);
        // Cache full (2 nodes + 4 entries). Next load evicts from node 0.
        read(&mut ftl, &mut env, 1026);
        let d = ftl.cached_tp_distribution();
        let node0 = d.iter().find(|e| e.vtpn == 0).unwrap();
        assert_eq!(node0.entries, 1, "coldest node must have shrunk");
        assert_eq!(env.stats.replacements, 1);
    }

    #[test]
    fn clean_first_prefers_clean_victims() {
        let (mut ftl, mut env) = setup(NODE_BYTES + ENTRY_BYTES * 3, "c");
        write(&mut ftl, &mut env, 0); // dirty, LRU-most after later reads
        read(&mut ftl, &mut env, 1); // clean
        read(&mut ftl, &mut env, 2); // clean
                                     // Full: 1 node + 3 entries. Loading a 4th evicts LRU *clean* (1).
        read(&mut ftl, &mut env, 3);
        assert_eq!(env.stats.replacements, 1);
        assert_eq!(env.stats.dirty_replacements, 0);
        let node = ftl.cached_tp_distribution()[0];
        assert_eq!(node.dirty, 1, "dirty entry survived");
        assert!(ftl.cached_ppn(0, 0).is_some(), "dirty entry 0 still cached");
        assert!(ftl.cached_ppn(0, 1).is_none(), "clean LRU entry 1 evicted");
    }

    #[test]
    fn without_clean_first_lru_is_evicted() {
        let (mut ftl, mut env) = setup(NODE_BYTES + ENTRY_BYTES * 3, "");
        write(&mut ftl, &mut env, 0);
        read(&mut ftl, &mut env, 1);
        read(&mut ftl, &mut env, 2);
        read(&mut ftl, &mut env, 3);
        // Victim is the LRU entry (0), which is dirty -> one writeback.
        assert_eq!(env.stats.dirty_replacements, 1);
        assert!(ftl.cached_ppn(0, 0).is_none());
    }

    #[test]
    fn batch_update_flushes_whole_node() {
        let (mut ftl, mut env) = setup(NODE_BYTES + ENTRY_BYTES * 3, "b");
        // Three dirty entries; evicting one flushes all three in ONE
        // translation page update.
        write(&mut ftl, &mut env, 0);
        write(&mut ftl, &mut env, 1);
        write(&mut ftl, &mut env, 2);
        let tw = env.flash().stats().translation_writes();
        read(&mut ftl, &mut env, 3);
        assert_eq!(env.flash().stats().translation_writes(), tw + 1);
        assert_eq!(env.stats.dirty_replacements, 1);
        let node = ftl.cached_tp_distribution()[0];
        assert_eq!(node.dirty, 0, "all entries became clean");
        assert_eq!(node.entries, 3, "only the victim left the cache");
        // The flushed mappings are durable: drop the cache state by
        // re-reading them and checking data resolves.
        for lpn in 1..3u32 {
            read(&mut ftl, &mut env, lpn);
        }
    }

    #[test]
    fn without_batch_update_each_dirty_eviction_writes() {
        let (mut ftl, mut env) = setup(NODE_BYTES + ENTRY_BYTES * 3, "");
        write(&mut ftl, &mut env, 0);
        write(&mut ftl, &mut env, 1);
        write(&mut ftl, &mut env, 2);
        let tw = env.flash().stats().translation_writes();
        // Two loads -> two dirty evictions -> two separate updates.
        read(&mut ftl, &mut env, 3);
        read(&mut ftl, &mut env, 4);
        assert_eq!(env.flash().stats().translation_writes(), tw + 2);
        assert_eq!(env.stats.dirty_replacements, 2);
        // One dirty entry (2) is left, and one bit for it.
        assert_eq!(ftl.cached_tp_distribution()[0].dirty, 1);
        assert_dirty_bitmaps_in_sync(&ftl);
    }

    #[test]
    fn request_prefetch_single_miss_per_request() {
        let (mut ftl, mut env) = setup(1024, "r");
        driver::serve_request(&mut ftl, &mut env, 100, 8, false).unwrap();
        assert_eq!(env.stats.lookups, 8);
        assert_eq!(env.stats.hits, 7, "one miss for the whole request");
        assert_eq!(env.flash().stats().translation_reads(), 1);
    }

    #[test]
    fn request_prefetch_respects_page_boundary() {
        let (mut ftl, mut env) = setup(1024, "r");
        // Request crosses the vtpn 0/1 boundary at LPN 1024: two misses.
        driver::serve_request(&mut ftl, &mut env, 1020, 8, false).unwrap();
        assert_eq!(env.stats.lookups, 8);
        assert_eq!(env.stats.hits, 6);
        assert_eq!(env.flash().stats().translation_reads(), 2);
    }

    #[test]
    fn selective_prefetch_activates_on_node_shrinkage() {
        // 64 MB -> 16 translation pages, room for many sparse nodes.
        let (mut ftl, mut env) = setup_sized(64 << 20, NODE_BYTES * 10 + ENTRY_BYTES * 20, "s");
        assert!(!ftl.selective_active());
        // Load 10 sparse nodes with 2 entries each (fills the cache).
        for v in 1..=10u32 {
            read(&mut ftl, &mut env, v * 1024);
            read(&mut ftl, &mut env, v * 1024 + 500);
        }
        // A sequential run concentrates loads in one node while evictions
        // dismantle the sparse nodes one by one; each node removal
        // decrements the counter until it trips the threshold.
        for lpn in 0..24u32 {
            read(&mut ftl, &mut env, lpn);
        }
        assert!(
            ftl.selective_active(),
            "sequential phase must activate prefetching"
        );
    }

    #[test]
    fn selective_prefetch_loads_successor_run() {
        let (mut ftl, mut env) = setup(4096, "s");
        // Warm two consecutive entries without prefetching.
        read(&mut ftl, &mut env, 10);
        read(&mut ftl, &mut env, 11);
        ftl.selective_active = true; // force active for a focused test
                                     // Miss on 12 has 2 cached predecessors (10, 11) -> prefetch 13, 14.
        read(&mut ftl, &mut env, 12);
        assert!(ftl.cached_ppn(0, 13).is_some(), "successor 13 prefetched");
        assert!(ftl.cached_ppn(0, 14).is_some(), "successor 14 prefetched");
        assert!(
            ftl.cached_ppn(0, 15).is_none(),
            "prefetch length is bounded"
        );
        // 13/14 now hit without flash reads.
        let tr = env.flash().stats().translation_reads();
        read(&mut ftl, &mut env, 13);
        read(&mut ftl, &mut env, 14);
        assert_eq!(env.flash().stats().translation_reads(), tr);
    }

    #[test]
    fn prefetch_limited_by_lru_node_size() {
        // Budget: 2 nodes + 4 entries. Node A holds 1 entry (cold), node B
        // 3 entries. A miss with a large request wants many entries but the
        // LRU node only has 1 evictable entry.
        let (mut ftl, mut env) = setup(NODE_BYTES * 2 + ENTRY_BYTES * 4, "r");
        read(&mut ftl, &mut env, 1024); // node B=vtpn1 (cold after A reads)
        read(&mut ftl, &mut env, 0);
        read(&mut ftl, &mut env, 1);
        read(&mut ftl, &mut env, 2); // node A=vtpn0 hot with 3 entries
                                     // Miss on LPN 512 with 7 remaining pages: wants 8 entries, but the
                                     // replacement must stay within the LRU node (vtpn1, 1 entry), so
                                     // the prefetch is reduced to fit.
        driver::serve_request(&mut ftl, &mut env, 512, 8, false).unwrap();
        // The load was reduced: cache stayed within budget throughout.
        assert!(ftl.cache_bytes_used() <= NODE_BYTES * 2 + ENTRY_BYTES * 4);
        // vtpn1's node was dismantled first (it was coldest).
        let d = ftl.cached_tp_distribution();
        assert!(
            d.iter().all(|e| e.vtpn == 0),
            "cold vtpn1 node evicted: {d:?}"
        );
    }

    #[test]
    fn gc_miss_piggybacks_cached_dirty_entries() {
        let (mut ftl, mut env) = setup(NODE_BYTES + ENTRY_BYTES * 8, "b");
        // Dirty a few entries of vtpn 0, out of offset order and in more
        // than one bitmap word, and keep them cached.
        for lpn in [700, 1, 64, 0] {
            write(&mut ftl, &mut env, lpn);
        }
        // Simulate GC misses on the same translation page.
        let moved = vec![(
            512u32,
            env.program_data_page(512, OpPurpose::GcData).unwrap(),
        )];
        let tw = env.flash().stats().translation_writes();
        let hits = ftl.on_gc_data_block(&mut env, &moved).unwrap();
        assert_eq!(hits, 0);
        assert_eq!(env.flash().stats().translation_writes(), tw + 1);
        // The cached dirty entries were flushed alongside, in one update
        // (still in the batcher's buffer): the miss, then the dirty
        // entries ascending by offset.
        assert_eq!(ftl.cached_tp_distribution()[0].dirty, 0);
        assert_dirty_bitmaps_in_sync(&ftl);
        let offsets: Vec<u16> = env.wb_batch_scratch.iter().map(|u| u.0).collect();
        assert_eq!(offsets, [512, 0, 1, 64, 700]);
        // And are durable in flash.
        let entries = env
            .read_translation_entries(0, OpPurpose::Translation)
            .unwrap();
        assert_ne!(entries[0], PPN_NONE);
        assert_ne!(entries[1], PPN_NONE);
    }

    #[test]
    fn gc_hit_updates_in_cache_without_flash_write() {
        let (mut ftl, mut env) = setup(1024, "");
        write(&mut ftl, &mut env, 5);
        let new_ppn = env.program_data_page(5, OpPurpose::GcData).unwrap();
        let tw = env.flash().stats().translation_writes();
        let hits = ftl.on_gc_data_block(&mut env, &[(5, new_ppn)]).unwrap();
        assert_eq!(hits, 1);
        assert_eq!(env.flash().stats().translation_writes(), tw);
        assert_eq!(ftl.cached_ppn(0, 5), Some(new_ppn));
    }

    #[test]
    fn budget_respected_under_random_workload() {
        let (mut ftl, mut env) = setup(200, "rsbc");
        for i in 0..3000u32 {
            let lpn = (i * 701) % 2048;
            driver::serve_page_access(
                &mut ftl,
                &mut env,
                lpn,
                AccessCtx {
                    is_write: i % 3 != 0,
                    remaining_in_request: (i % 5),
                },
            )
            .unwrap();
            assert!(
                ftl.cache_bytes_used() <= 200,
                "budget exceeded at access {i}"
            );
        }
        // Invariants: node byte accounting is exact.
        let expect: usize = ftl
            .nodes
            .iter()
            .map(|(_, n)| NODE_BYTES + n.len() * ENTRY_BYTES)
            .sum();
        assert_eq!(ftl.cache_bytes_used(), expect);
        assert_eq!(ftl.order.len(), ftl.nodes.len());
    }

    #[test]
    fn mapping_consistency_under_gc_pressure() {
        let (mut ftl, mut env) = setup(400, "rsbc");
        for i in 0..4000u32 {
            let lpn = if i % 2 == 0 {
                (i / 2) % 48
            } else {
                100 + (i / 2) % 1700
            };
            write(&mut ftl, &mut env, lpn);
            assert_dirty_bitmaps_in_sync(&ftl);
        }
        assert!(env.stats.gc_updates > 0, "GC must have migrated pages");
        // Every written LPN resolves to the valid page that holds it, and
        // no LPN has two valid pages.
        let mut seen = std::collections::HashSet::new();
        for (_, tag, is_tp) in env.flash().scan_valid() {
            if !is_tp {
                assert!(seen.insert(tag), "LPN {tag} has two valid pages");
            }
        }
        for lpn in 0..48u32 {
            let ppn = ftl
                .translate(&mut env, lpn, &AccessCtx::single(false))
                .unwrap()
                .expect("hot page mapped");
            env.read_data_page(ppn, lpn).unwrap();
        }
    }

    #[test]
    fn hotness_average_orders_nodes() {
        let (mut ftl, mut env) = setup(4096, "");
        // Node 0: one old access. Node 1: one recent access. Then touch
        // node 0 repeatedly -> its average rises above node 1's.
        read(&mut ftl, &mut env, 0);
        read(&mut ftl, &mut env, 1024);
        for _ in 0..5 {
            read(&mut ftl, &mut env, 0);
        }
        let coldest = ftl.order.first().unwrap().1;
        assert_eq!(coldest, 1, "node 1 (vtpn 1) must now be coldest");
    }

    #[test]
    fn order_heap_invariants_hold_under_random_workload() {
        let (mut ftl, mut env) = setup_sized(64 << 20, 400, "rsbc");
        for i in 0..4000u32 {
            let lpn = (i.wrapping_mul(2654435761) >> 8) % 16384;
            driver::serve_page_access(
                &mut ftl,
                &mut env,
                lpn,
                AccessCtx {
                    is_write: i % 4 == 0,
                    remaining_in_request: (i % 7),
                },
            )
            .unwrap();
            // The heap mirrors the node table exactly...
            assert_eq!(ftl.order.len(), ftl.nodes.len());
            assert_dirty_bitmaps_in_sync(&ftl);
        }
        assert!(
            ftl.order.len() >= 4,
            "workload too small to exercise the heap"
        );
        // ...every slot's key and back-pointer are in sync with its node...
        for (i, &(key, vtpn)) in ftl.order.iter().enumerate() {
            let node = &ftl.nodes[vtpn];
            assert_eq!(node.heap_pos as usize, i, "back-pointer of vtpn {vtpn}");
            assert_eq!(node.hot_key, key, "stale key for vtpn {vtpn}");
            assert_eq!(node.hotness(), key, "key != hotness for vtpn {vtpn}");
        }
        // ...and the min-heap property holds, so order[0] is the coldest.
        for i in 1..ftl.order.len() {
            let parent = (i - 1) / 2;
            assert!(
                ftl.order[parent] <= ftl.order[i],
                "heap property violated at slot {i}"
            );
        }
    }

    /// A collection pass can move one LPN twice (its first new page sits
    /// in a lane block that the same pass collects). Uncached, both moves
    /// are in one page's write-back batch, in move order, ahead of the
    /// cached dirty entries that ride along; the later PPN must be what
    /// the translation page holds.
    #[test]
    fn a_later_gc_move_of_an_lpn_wins_its_write_back() {
        let (mut ftl, mut env) = setup(4 << 10, "rsbc");
        for lpn in 0..300 {
            write(&mut ftl, &mut env, lpn);
        }
        let dirty = ftl.nodes.get(0).map_or(0, |n| n.dirty_count);
        assert!(dirty > 100, "too few dirty entries ride along: {dirty}");
        // PPNs on the device (2 368 pages), the later ones 500 higher.
        let moved: Vec<(Lpn, Ppn)> = [1_000, 1_500]
            .iter()
            .flat_map(|&base| (500..700).map(move |lpn| (lpn, base + lpn)))
            .collect();
        assert_eq!(ftl.on_gc_data_block(&mut env, &moved).unwrap(), 0);
        let tp = env
            .read_translation_entries(0, OpPurpose::Translation)
            .unwrap();
        for lpn in 500..700 {
            assert_eq!(tp[lpn as usize], 1_500 + lpn, "LPN {lpn} in the page");
        }
        for lpn in 500..700 {
            let got = crate::recovery::lookup(&env, lpn);
            assert_eq!(got, Some(1_500 + lpn), "LPN {lpn} by lookup");
        }
    }
}
