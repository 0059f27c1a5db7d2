//! Slab-backed store for translation-page payloads.
//!
//! Payloads live in one contiguous arena of fixed-size slots (one slot =
//! `entries_per_translation_page` PPNs) with a free-list and a dense
//! `Ppn -> slot` index, so programming, reading and dropping a payload is
//! index arithmetic — no hashing, no per-page heap allocation in steady
//! state. A slot exists exactly while its page is `Valid`: invalidation
//! recycles the slot, a supersede *moves* it from the page that stops being
//! valid to the page that starts, and a block erase never finds one because
//! erases require zero valid pages.

use crate::Ppn;

const SLOT_NONE: u32 = u32::MAX;

/// Arena of translation payloads indexed by physical page number.
#[derive(Debug, Clone)]
pub(crate) struct TpSlab {
    /// PPNs per slot (= mapping entries per translation page).
    entries: usize,
    /// Slot payloads back to back; slot `s` is `arena[s*entries..][..entries]`.
    arena: Vec<Ppn>,
    /// Dense page index: the slot bound to `ppn`, or `SLOT_NONE`.
    slot_of: Vec<u32>,
    /// Recycled slot indices awaiting reuse.
    free: Vec<u32>,
}

impl TpSlab {
    pub(crate) fn new(total_pages: usize, entries: usize) -> Self {
        Self {
            entries,
            arena: Vec::new(),
            slot_of: vec![SLOT_NONE; total_pages],
            free: Vec::new(),
        }
    }

    /// Whether `ppn` holds a translation payload.
    #[inline]
    pub(crate) fn contains(&self, ppn: Ppn) -> bool {
        self.slot_of[ppn as usize] != SLOT_NONE
    }

    /// The payload bound to `ppn`, if any.
    #[inline]
    pub(crate) fn get(&self, ppn: Ppn) -> Option<&[Ppn]> {
        let slot = self.slot_of[ppn as usize];
        (slot != SLOT_NONE).then(|| &self.arena[slot as usize * self.entries..][..self.entries])
    }

    fn alloc_slot(&mut self) -> usize {
        match self.free.pop() {
            Some(slot) => slot as usize,
            None => {
                let slot = self.arena.len() / self.entries;
                self.arena.resize(self.arena.len() + self.entries, 0);
                slot
            }
        }
    }

    /// Binds a fresh slot to `ppn`, filled from `payload`.
    pub(crate) fn insert(&mut self, ppn: Ppn, payload: &[Ppn]) {
        debug_assert_eq!(payload.len(), self.entries);
        debug_assert!(!self.contains(ppn), "page already holds a payload");
        let slot = self.alloc_slot();
        self.arena[slot * self.entries..][..self.entries].copy_from_slice(payload);
        self.slot_of[ppn as usize] = slot as u32;
    }

    /// Moves `src`'s slot to `dst` and patches `updates` into it in place —
    /// the read-modify-write path: `src` ends unbound, nothing is copied,
    /// the arena never grows.
    pub(crate) fn rebind(&mut self, dst: Ppn, src: Ppn, updates: &[(u16, Ppn)]) {
        debug_assert!(!self.contains(dst), "page already holds a payload");
        let slot = std::mem::replace(&mut self.slot_of[src as usize], SLOT_NONE);
        debug_assert_ne!(slot, SLOT_NONE, "source page has no payload");
        let payload = &mut self.arena[slot as usize * self.entries..][..self.entries];
        for &(off, ppn) in updates {
            payload[off as usize] = ppn;
        }
        self.slot_of[dst as usize] = slot;
    }

    /// Unbinds `ppn`'s slot, if any, and recycles it.
    pub(crate) fn remove(&mut self, ppn: Ppn) {
        let slot = std::mem::replace(&mut self.slot_of[ppn as usize], SLOT_NONE);
        if slot != SLOT_NONE {
            self.free.push(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_recycled() {
        let mut slab = TpSlab::new(8, 4);
        slab.insert(0, &[1, 2, 3, 4]);
        slab.insert(1, &[5, 6, 7, 8]);
        assert_eq!(slab.arena.len(), 8);
        slab.remove(0);
        assert!(!slab.contains(0));
        // The freed slot is reused: the arena does not grow.
        slab.insert(2, &[9, 9, 9, 9]);
        assert_eq!(slab.arena.len(), 8);
        assert_eq!(slab.get(2).unwrap(), &[9, 9, 9, 9]);
        assert_eq!(slab.get(1).unwrap(), &[5, 6, 7, 8]);
    }

    #[test]
    fn rmw_churn_never_grows_the_arena_past_the_live_page_count() {
        let mut slab = TpSlab::new(8, 4);
        slab.insert(3, &[10, 11, 12, 13]);
        slab.rebind(4, 3, &[(1, 99), (3, 77)]);
        assert_eq!(slab.get(4).unwrap(), &[10, 99, 12, 77]);
        assert!(!slab.contains(3), "the slot moved with the supersede");
        let mut old = 4u32;
        for dst in [5u32, 6, 7] {
            slab.rebind(dst, old, &[(0, dst)]);
            old = dst;
        }
        assert_eq!(slab.arena.len(), 4, "one live page, one slot");
        assert!(slab.free.is_empty());
        assert_eq!(slab.get(7).unwrap(), &[7, 99, 12, 77]);
    }

    #[test]
    fn remove_absent_is_a_noop() {
        let mut slab = TpSlab::new(4, 2);
        slab.remove(1);
        assert!(slab.get(1).is_none());
    }
}
