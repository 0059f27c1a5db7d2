//! A slab-backed intrusive LRU list.
//!
//! Every cache design in this crate (DFTL's segmented CMT, CDFTL's
//! CMT/CTP, S-FTL's page list and dirty buffer, TPFTL's entry-level lists)
//! needs the same primitive: a doubly-linked recency list with O(1)
//! insert/touch/remove through stable handles that an index (hash map) can
//! hold. `LruList` provides it without per-node allocation; handles carry a
//! generation counter so a stale handle (use-after-remove, an FTL bug) is
//! detected instead of silently corrupting the list.

/// Sentinel for "no neighbour".
const NIL: u32 = u32::MAX;

/// Stable handle to an element of an [`LruList`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LruIdx {
    slot: u32,
    gen: u32,
}

impl LruIdx {
    /// Sentinel handle that resolves to nothing, for dense index tables
    /// (`Box<[LruIdx]>`) where an `Option` would double the entry size.
    /// No live handle ever equals it: slots never reach `u32::MAX`.
    pub const NONE: LruIdx = LruIdx {
        slot: NIL,
        gen: u32::MAX,
    };

    /// Whether this is the [`LruIdx::NONE`] sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self.slot == NIL
    }
}

impl Default for LruIdx {
    fn default() -> Self {
        Self::NONE
    }
}

#[derive(Debug, Clone)]
struct Slot<V> {
    prev: u32, // toward MRU
    next: u32, // toward LRU
    gen: u32,
    val: Option<V>,
}

/// A doubly-linked LRU list over a slab.
///
/// The *MRU* end holds the most recently used element, the *LRU* end the
/// coldest one.
///
/// # Examples
///
/// ```
/// use tpftl_core::lru::LruList;
///
/// let mut l = LruList::new();
/// let a = l.push_mru('a');
/// let b = l.push_mru('b');
/// assert_eq!(l.peek_lru(), Some((a, &'a')));
/// l.touch(a); // 'a' becomes hottest
/// assert_eq!(l.peek_lru(), Some((b, &'b')));
/// assert_eq!(l.pop_lru(), Some('b'));
/// assert_eq!(l.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct LruList<V> {
    slots: Vec<Slot<V>>,
    free: Vec<u32>,
    mru: u32,
    lru: u32,
    len: usize,
}

impl<V> Default for LruList<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> LruList<V> {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            mru: NIL,
            lru: NIL,
            len: 0,
        }
    }

    /// Number of slab slots ever allocated (live + free-list). Stays flat
    /// under churn when the free list is reused correctly.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn slot(&self, idx: LruIdx) -> &Slot<V> {
        let s = &self.slots[idx.slot as usize];
        assert!(
            s.gen == idx.gen && s.val.is_some(),
            "stale LRU handle {idx:?} (cache bookkeeping bug)"
        );
        s
    }

    /// Inserts `val` at the MRU end and returns its handle.
    pub fn push_mru(&mut self, val: V) -> LruIdx {
        let slot = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                sl.val = Some(val);
                sl.prev = NIL;
                sl.next = self.mru;
                s
            }
            None => {
                self.slots.push(Slot {
                    prev: NIL,
                    next: self.mru,
                    gen: 0,
                    val: Some(val),
                });
                (self.slots.len() - 1) as u32
            }
        };
        if self.mru != NIL {
            self.slots[self.mru as usize].prev = slot;
        }
        self.mru = slot;
        if self.lru == NIL {
            self.lru = slot;
        }
        self.len += 1;
        LruIdx {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.mru = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.lru = prev;
        }
    }

    /// Removes the element behind `idx` and returns it.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is stale.
    pub fn remove(&mut self, idx: LruIdx) -> V {
        self.slot(idx); // validate
        self.unlink(idx.slot);
        let sl = &mut self.slots[idx.slot as usize];
        let val = sl.val.take().expect("validated above");
        sl.gen = sl.gen.wrapping_add(1);
        self.free.push(idx.slot);
        self.len -= 1;
        val
    }

    /// Moves `idx` to the MRU end.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is stale.
    pub fn touch(&mut self, idx: LruIdx) {
        self.slot(idx); // validate
        if self.mru == idx.slot {
            return;
        }
        self.unlink(idx.slot);
        let sl = &mut self.slots[idx.slot as usize];
        sl.prev = NIL;
        sl.next = self.mru;
        if self.mru != NIL {
            self.slots[self.mru as usize].prev = idx.slot;
        }
        self.mru = idx.slot;
        if self.lru == NIL {
            self.lru = idx.slot;
        }
    }

    /// Shared access to the element behind `idx`, or `None` if stale.
    pub fn get(&self, idx: LruIdx) -> Option<&V> {
        let s = self.slots.get(idx.slot as usize)?;
        if s.gen == idx.gen {
            s.val.as_ref()
        } else {
            None
        }
    }

    /// Mutable access to the element behind `idx`, or `None` if stale.
    pub fn get_mut(&mut self, idx: LruIdx) -> Option<&mut V> {
        let s = self.slots.get_mut(idx.slot as usize)?;
        if s.gen == idx.gen {
            s.val.as_mut()
        } else {
            None
        }
    }

    /// Handle and value of the coldest element.
    pub fn peek_lru(&self) -> Option<(LruIdx, &V)> {
        if self.lru == NIL {
            return None;
        }
        let s = &self.slots[self.lru as usize];
        Some((
            LruIdx {
                slot: self.lru,
                gen: s.gen,
            },
            s.val.as_ref().expect("linked slots are occupied"),
        ))
    }

    /// Removes and returns the coldest element.
    pub fn pop_lru(&mut self) -> Option<V> {
        let (idx, _) = self.peek_lru()?;
        Some(self.remove(idx))
    }

    /// Applies `f` to every element, in unspecified (slab) order, without
    /// touching recency. The allocation-free alternative to collecting
    /// `iter_lru` handles just to call `get_mut` on each.
    pub fn for_each_value_mut<F: FnMut(&mut V)>(&mut self, mut f: F) {
        for s in &mut self.slots {
            if let Some(v) = s.val.as_mut() {
                f(v);
            }
        }
    }

    /// Iterates from the LRU (coldest) end toward the MRU end.
    pub fn iter_lru(&self) -> IterLru<'_, V> {
        IterLru {
            list: self,
            cur: self.lru,
        }
    }
}

/// Iterator from coldest to hottest; see [`LruList::iter_lru`].
pub struct IterLru<'a, V> {
    list: &'a LruList<V>,
    cur: u32,
}

impl<'a, V> Iterator for IterLru<'a, V> {
    type Item = (LruIdx, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let s = &self.list.slots[self.cur as usize];
        let idx = LruIdx {
            slot: self.cur,
            gen: s.gen,
        };
        self.cur = s.prev;
        Some((idx, s.val.as_ref().expect("linked slots are occupied")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_touch_pop_order() {
        let mut l = LruList::new();
        let a = l.push_mru(1);
        let _b = l.push_mru(2);
        let _c = l.push_mru(3);
        assert_eq!(l.len(), 3);
        // Order (LRU->MRU): 1, 2, 3.
        assert_eq!(
            l.iter_lru().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        l.touch(a);
        // Now: 2, 3, 1.
        assert_eq!(
            l.iter_lru().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![2, 3, 1]
        );
        assert_eq!(l.pop_lru(), Some(2));
        assert_eq!(l.pop_lru(), Some(3));
        assert_eq!(l.pop_lru(), Some(1));
        assert_eq!(l.pop_lru(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn remove_middle() {
        let mut l = LruList::new();
        let _a = l.push_mru(1);
        let b = l.push_mru(2);
        let _c = l.push_mru(3);
        assert_eq!(l.remove(b), 2);
        assert_eq!(
            l.iter_lru().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![1, 3]
        );
    }

    #[test]
    fn stale_handle_detected() {
        let mut l = LruList::new();
        let a = l.push_mru(1);
        l.remove(a);
        assert!(l.get(a).is_none());
        let b = l.push_mru(2); // reuses the slot
        assert_eq!(l.get(b), Some(&2));
        assert!(l.get(a).is_none(), "old generation must not resolve");
    }

    #[test]
    #[should_panic(expected = "stale LRU handle")]
    fn stale_touch_panics() {
        let mut l = LruList::new();
        let a = l.push_mru(1);
        l.remove(a);
        l.push_mru(2);
        l.touch(a);
    }

    #[test]
    fn get_mut_updates() {
        let mut l = LruList::new();
        let a = l.push_mru(10);
        *l.get_mut(a).unwrap() += 5;
        assert_eq!(l.get(a), Some(&15));
    }

    #[test]
    fn slot_reuse_keeps_len_consistent() {
        let mut l = LruList::new();
        for round in 0..3 {
            let idxs: Vec<_> = (0..10).map(|i| l.push_mru(i + round * 10)).collect();
            assert_eq!(l.len(), 10);
            for idx in idxs {
                l.remove(idx);
            }
            assert_eq!(l.len(), 0);
        }
        // Slab did not grow beyond the 10 concurrent elements.
        assert!(l.slots.len() <= 10);
    }
}
