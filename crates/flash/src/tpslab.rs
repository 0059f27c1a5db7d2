//! Slab-backed store for translation-page payloads.
//!
//! Payloads live in one contiguous arena of fixed-size slots (one slot =
//! `entries_per_translation_page` PPNs) with a free-list, so programming,
//! reading and dropping a payload is index arithmetic — no hashing, no
//! per-page heap allocation in steady state.
//!
//! A *binding* ties a valid translation page to a slot. It exists exactly
//! while its page is `Valid`: invalidation drops it (recycling a private
//! slot), a supersede *moves* it from the page that stops being valid to the
//! page that starts, and a block erase never finds one because erases
//! require zero valid pages.
//!
//! Slot 0 is the shared all-unmapped payload: every page programmed with
//! nothing but `PPN_NONE` binds it and owns no slot, so a freshly formatted
//! device holds one payload, not one per translation page. It is read-only:
//! the first supersede that patches a mapping into such a page copies it
//! into a fresh slot, and `remove` never recycles it.
//!
//! Bindings are found through a per-block index: `group_of[block]` names a
//! group of `pages_per_block` slot ids, one per page of the block. A group
//! exists only while its block holds a binding, so data blocks cost one
//! `u32` each and the index follows the translation blocks, not the device.

use crate::{Ppn, PPN_NONE};

const SLOT_NONE: u32 = u32::MAX;
const GROUP_NONE: u32 = u32::MAX;
/// The shared, read-only all-unmapped payload.
const SHARED: u32 = 0;

/// Arena of translation payloads indexed by physical page number.
#[derive(Debug, Clone)]
pub(crate) struct TpSlab {
    /// PPNs per slot (= mapping entries per translation page).
    entries: usize,
    pages_per_block: u32,
    /// Slot payloads back to back; slot `s` is `arena[s*entries..][..entries]`
    /// and slot 0 is the shared all-unmapped payload.
    arena: Vec<Ppn>,
    /// Recycled private slot indices awaiting reuse.
    free: Vec<u32>,
    /// Per block: its index group, or `GROUP_NONE`.
    group_of: Vec<u32>,
    /// Group `g`'s slot ids (`SLOT_NONE` = unbound) at
    /// `slots[g*pages_per_block..][..pages_per_block]`.
    slots: Vec<u32>,
    /// Per group: how many of its pages are bound.
    bound: Vec<u32>,
    /// Released groups awaiting reuse (every slot id `SLOT_NONE`).
    free_groups: Vec<u32>,
}

/// Occupancy of the translation-payload store, counted from its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpStoreCensus {
    /// Valid translation pages bound to the shared all-unmapped payload.
    pub shared: usize,
    /// Valid translation pages bound to a private slot.
    pub private: usize,
    /// Blocks holding an index group.
    pub groups: usize,
    /// Private slots the arena holds, in use or free.
    pub slots: usize,
    /// Whether the shared payload still reads all-unmapped.
    pub shared_unmapped: bool,
}

impl TpSlab {
    pub(crate) fn new(num_blocks: usize, pages_per_block: usize, entries: usize) -> Self {
        Self {
            entries,
            pages_per_block: pages_per_block as u32,
            arena: vec![PPN_NONE; entries],
            free: Vec::new(),
            group_of: vec![GROUP_NONE; num_blocks],
            slots: Vec::new(),
            bound: Vec::new(),
            free_groups: Vec::new(),
        }
    }

    /// `ppn`'s block and its position in that block's group.
    #[inline]
    fn locate(&self, ppn: Ppn) -> (usize, usize) {
        let block = ppn / self.pages_per_block;
        (
            block as usize,
            (ppn - block * self.pages_per_block) as usize,
        )
    }

    /// The slot bound to `ppn`, or `SLOT_NONE`.
    #[inline]
    fn slot_of(&self, ppn: Ppn) -> u32 {
        let (block, off) = self.locate(ppn);
        match self.group_of[block] {
            GROUP_NONE => SLOT_NONE,
            g => self.slots[g as usize * self.pages_per_block as usize + off],
        }
    }

    /// Whether `ppn` holds a translation payload.
    #[inline]
    pub(crate) fn contains(&self, ppn: Ppn) -> bool {
        self.slot_of(ppn) != SLOT_NONE
    }

    /// The payload bound to `ppn`, if any.
    #[inline]
    pub(crate) fn get(&self, ppn: Ppn) -> Option<&[Ppn]> {
        let slot = self.slot_of(ppn);
        (slot != SLOT_NONE).then(|| &self.arena[slot as usize * self.entries..][..self.entries])
    }

    /// The shared all-unmapped payload.
    #[inline]
    pub(crate) fn shared(&self) -> &[Ppn] {
        &self.arena[..self.entries]
    }

    fn alloc_slot(&mut self) -> u32 {
        match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = self.arena.len() / self.entries;
                self.arena.resize(self.arena.len() + self.entries, 0);
                slot as u32
            }
        }
    }

    /// Binds `slot` to the unbound page `ppn`, giving its block a group if
    /// it has none.
    fn bind(&mut self, ppn: Ppn, slot: u32) {
        let (block, off) = self.locate(ppn);
        let ppb = self.pages_per_block as usize;
        let g = match self.group_of[block] {
            GROUP_NONE => {
                let g = match self.free_groups.pop() {
                    Some(g) => g,
                    None => {
                        self.slots.resize(self.slots.len() + ppb, SLOT_NONE);
                        self.bound.push(0);
                        self.bound.len() as u32 - 1
                    }
                };
                self.group_of[block] = g;
                g as usize
            }
            g => g as usize,
        };
        let id = &mut self.slots[g * ppb + off];
        debug_assert_eq!(*id, SLOT_NONE, "page already holds a payload");
        *id = slot;
        self.bound[g] += 1;
    }

    /// Unbinds `ppn` and returns the slot it held (`SLOT_NONE` if none),
    /// releasing its block's group once the block holds no binding.
    #[inline]
    fn unbind(&mut self, ppn: Ppn) -> u32 {
        let (block, off) = self.locate(ppn);
        let g = self.group_of[block];
        if g == GROUP_NONE {
            return SLOT_NONE;
        }
        let g = g as usize;
        let slot = std::mem::replace(
            &mut self.slots[g * self.pages_per_block as usize + off],
            SLOT_NONE,
        );
        if slot != SLOT_NONE {
            self.bound[g] -= 1;
            if self.bound[g] == 0 {
                self.group_of[block] = GROUP_NONE;
                self.free_groups.push(g as u32);
            }
        }
        slot
    }

    /// Binds `ppn` to `payload`: the shared payload if it maps nothing,
    /// else a fresh slot filled from it.
    pub(crate) fn insert(&mut self, ppn: Ppn, payload: &[Ppn]) {
        debug_assert_eq!(payload.len(), self.entries);
        let slot = if payload.iter().all(|&p| p == PPN_NONE) {
            SHARED
        } else {
            let slot = self.alloc_slot();
            self.arena[slot as usize * self.entries..][..self.entries].copy_from_slice(payload);
            slot
        };
        self.bind(ppn, slot);
    }

    /// Moves `src`'s binding to `dst` and patches `updates` into its slot in
    /// place — the read-modify-write path: `src` ends unbound and nothing is
    /// copied, except that the first patch mapping a page bound to the
    /// shared payload copies it into a fresh slot.
    pub(crate) fn rebind(&mut self, dst: Ppn, src: Ppn, updates: &[(u16, Ppn)]) {
        let mut slot = self.unbind(src);
        debug_assert_ne!(slot, SLOT_NONE, "source page has no payload");
        if slot == SHARED && updates.iter().any(|&(_, p)| p != PPN_NONE) {
            slot = self.alloc_slot();
            let at = slot as usize * self.entries;
            self.arena.copy_within(..self.entries, at);
        }
        if slot != SHARED {
            let payload = &mut self.arena[slot as usize * self.entries..][..self.entries];
            for &(off, ppn) in updates {
                payload[off as usize] = ppn;
            }
        }
        self.bind(dst, slot);
    }

    /// Unbinds `ppn`, if bound, and recycles its private slot.
    #[inline]
    pub(crate) fn remove(&mut self, ppn: Ppn) {
        let slot = self.unbind(ppn);
        if slot != SLOT_NONE && slot != SHARED {
            self.free.push(slot);
        }
    }

    /// Counts bindings and groups by walking the index.
    pub(crate) fn census(&self) -> TpStoreCensus {
        let ppb = self.pages_per_block as usize;
        let (mut shared, mut private, mut groups) = (0, 0, 0);
        for &g in self.group_of.iter().filter(|&&g| g != GROUP_NONE) {
            groups += 1;
            for &slot in &self.slots[g as usize * ppb..][..ppb] {
                match slot {
                    SLOT_NONE => {}
                    SHARED => shared += 1,
                    _ => private += 1,
                }
            }
        }
        TpStoreCensus {
            shared,
            private,
            groups,
            slots: self.arena.len() / self.entries - 1,
            shared_unmapped: self.shared().iter().all(|&p| p == PPN_NONE),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 blocks of 4 pages, 4 entries per payload.
    fn slab() -> TpSlab {
        TpSlab::new(2, 4, 4)
    }

    #[test]
    fn slots_are_recycled() {
        let mut slab = slab();
        slab.insert(0, &[1, 2, 3, 4]);
        slab.insert(1, &[5, 6, 7, 8]);
        assert_eq!(slab.census().slots, 2);
        slab.remove(0);
        assert!(!slab.contains(0));
        // The freed slot is reused: the arena does not grow.
        slab.insert(2, &[9, 9, 9, 9]);
        assert_eq!(slab.census().slots, 2);
        assert_eq!(slab.get(2).unwrap(), &[9, 9, 9, 9]);
        assert_eq!(slab.get(1).unwrap(), &[5, 6, 7, 8]);
    }

    #[test]
    fn rmw_churn_never_grows_the_arena_past_the_live_page_count() {
        let mut slab = slab();
        slab.insert(3, &[10, 11, 12, 13]);
        slab.rebind(4, 3, &[(1, 99), (3, 77)]);
        assert_eq!(slab.get(4).unwrap(), &[10, 99, 12, 77]);
        assert!(!slab.contains(3), "the slot moved with the supersede");
        let mut old = 4u32;
        for dst in [5u32, 6, 7] {
            slab.rebind(dst, old, &[(0, dst)]);
            old = dst;
        }
        assert_eq!(slab.census().slots, 1, "one live page, one slot");
        assert!(slab.free.is_empty());
        assert_eq!(slab.get(7).unwrap(), &[7, 99, 12, 77]);
    }

    #[test]
    fn remove_absent_is_a_noop() {
        let mut slab = TpSlab::new(2, 2, 2);
        slab.remove(1);
        assert!(slab.get(1).is_none());
        assert_eq!(slab.census().groups, 0);
    }

    #[test]
    fn unmapped_pages_share_one_payload_until_patched() {
        let mut slab = slab();
        let none = [PPN_NONE; 4];
        for ppn in 0..4 {
            slab.insert(ppn, &none);
        }
        let c = slab.census();
        assert_eq!((c.shared, c.private, c.slots, c.groups), (4, 0, 0, 1));
        // A move without patches (GC migration) keeps sharing.
        slab.rebind(4, 0, &[]);
        assert_eq!(slab.get(4).unwrap(), &none);
        assert_eq!(slab.census().slots, 0);
        // The first patch copies the shared payload into a fresh slot.
        slab.rebind(5, 1, &[(2, 42)]);
        assert_eq!(slab.get(5).unwrap(), &[PPN_NONE, PPN_NONE, 42, PPN_NONE]);
        assert_eq!(
            slab.get(2).unwrap(),
            &none,
            "the shared payload is untouched"
        );
        let c = slab.census();
        assert_eq!((c.shared, c.private, c.slots), (3, 1, 1));
        assert!(c.shared_unmapped);
        // Removing a shared binding recycles nothing.
        slab.remove(2);
        slab.remove(3);
        assert!(slab.free.is_empty());
        assert_eq!(slab.get(4).unwrap(), &none);
    }

    #[test]
    fn a_block_keeps_its_group_only_while_it_holds_a_binding() {
        let mut slab = slab();
        slab.insert(1, &[1, 2, 3, 4]);
        assert_eq!(slab.census().groups, 1);
        // Moving the only binding of block 0 into block 1 releases block 0's
        // group, which block 1 then takes.
        slab.rebind(6, 1, &[]);
        assert_eq!(slab.group_of, [GROUP_NONE, 0]);
        slab.remove(6);
        assert_eq!(slab.census().groups, 0);
        assert_eq!(slab.free_groups, [0]);
        assert!(slab.slots.iter().all(|&s| s == SLOT_NONE));
    }
}
