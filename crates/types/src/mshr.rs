//! A fixed-capacity slot pool for lazily-cleaned MSHR models.
//!
//! The TLB miss-status table tracks a small set of outstanding misses
//! keyed by page: entries are inserted at allocate time and expire when
//! the simulated clock passes their completion cycle. (Caches keep only
//! completion times, with no key to look up, and use a min-heap instead:
//! see `itpx_mem::Cache`.) The previous implementations used
//! `Vec::retain` (compacting move per expiry) and `BTreeMap` (node
//! allocation per miss) on the hottest simulator paths.
//!
//! [`SlotPool`] replaces both: a boxed-once array of `Option<T>` slots
//! sized to the MSHR capacity. Expiry tombstones a slot in place and
//! insertion reuses the first free slot, so steady-state operation
//! performs no allocation and no element moves. If the lazily-cleaned
//! model transiently overflows its nominal capacity (completions recorded
//! before earlier entries expire), the pool grows once and keeps the
//! larger footprint — still allocation-free afterwards.
//!
//! Slot order is a deterministic function of the insert/expire history, so
//! simulations using it are exactly reproducible; consumers must not
//! derive *decisions* from slot order alone (the TLB only takes
//! order-insensitive views: counts, minima, and key lookups).

/// Fixed-capacity pool of live entries with in-place expiry.
#[derive(Debug, Clone)]
pub struct SlotPool<T> {
    slots: Vec<Option<T>>,
    live: usize,
}

impl<T> SlotPool<T> {
    /// A pool with `capacity` preallocated slots (at least one).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: (0..capacity.max(1)).map(|_| None).collect(),
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts an entry into the first free slot, growing only if every
    /// slot is occupied.
    pub fn insert(&mut self, value: T) {
        self.live += 1;
        for slot in &mut self.slots {
            if slot.is_none() {
                *slot = Some(value);
                return;
            }
        }
        // itpx-allow: hot-alloc grow-once pool: pushes only until the slot count matches peak occupancy, then reuses tombstoned slots
        self.slots.push(Some(value));
    }

    /// Drops every entry for which `keep` returns `false`, tombstoning its
    /// slot in place (no compaction).
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        for slot in &mut self.slots {
            if matches!(slot, Some(v) if !keep(v)) {
                *slot = None;
                self.live -= 1;
            }
        }
    }

    /// Iterates live entries in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// Iterates live entries mutably in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }

    /// The first live entry matching `pred`.
    pub fn find(&self, pred: impl FnMut(&&T) -> bool) -> Option<&T> {
        self.iter().find(pred)
    }

    /// Mutable access to the first live entry matching `pred`.
    pub fn find_mut(&mut self, mut pred: impl FnMut(&T) -> bool) -> Option<&mut T> {
        self.iter_mut().find(|v| pred(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_len() {
        let mut p = SlotPool::with_capacity(4);
        assert!(p.is_empty());
        p.insert(10u64);
        p.insert(20);
        assert_eq!(p.len(), 2);
        assert_eq!(p.iter().copied().min(), Some(10));
    }

    #[test]
    fn retain_tombstones_in_place() {
        let mut p = SlotPool::with_capacity(4);
        for v in [5u64, 6, 7] {
            p.insert(v);
        }
        p.retain(|&v| v > 5);
        assert_eq!(p.len(), 2);
        // The freed slot (index 0) is reused before any later slot.
        p.insert(99);
        let seen: Vec<u64> = p.iter().copied().collect();
        assert_eq!(seen, vec![99, 6, 7]);
    }

    #[test]
    fn overflow_grows_once_and_keeps_capacity() {
        let mut p = SlotPool::with_capacity(2);
        for v in 0..5u64 {
            p.insert(v);
        }
        assert_eq!(p.len(), 5);
        p.retain(|&v| v >= 4);
        assert_eq!(p.len(), 1);
        // Reuses freed slots rather than growing further.
        for v in 10..14u64 {
            p.insert(v);
        }
        assert_eq!(p.len(), 5);
        assert_eq!(p.iter().count(), 5);
    }

    #[test]
    fn keyed_lookup_and_update() {
        let mut p: SlotPool<(u64, u64)> = SlotPool::with_capacity(4);
        p.insert((1, 100));
        p.insert((2, 200));
        assert_eq!(p.find(|(k, _)| *k == 2), Some(&(2, 200)));
        if let Some(e) = p.find_mut(|(k, _)| *k == 1) {
            e.1 = 111;
        }
        assert_eq!(p.find(|(k, _)| *k == 1), Some(&(1, 111)));
        assert_eq!(p.find(|(k, _)| *k == 3), None);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut p = SlotPool::with_capacity(0);
        p.insert(1u8);
        assert_eq!(p.len(), 1);
    }
}
