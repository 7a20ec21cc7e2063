//! A free-list slab keyed by generational ids.
//!
//! Simulations routinely track entities whose lifecycle spans several events
//! (an in-flight transmission, a job in service). Keeping every such record in
//! an append-only `Vec` makes memory grow linearly with simulated time; the
//! slab instead reclaims an entry as soon as its lifecycle ends, so resident
//! entries are bounded by the number of *concurrent* entities regardless of
//! run length.
//!
//! Ids are generational: a [`SlotId`] names `(slot index, generation)`, and
//! the generation is bumped every time a slot is vacated. A stale id therefore
//! can never silently alias a recycled slot; looking one up is a loud panic,
//! which turns any lifecycle bug in an event handler into an immediate failure
//! instead of a corrupted statistic.

use crate::snapshot::{SnapshotError, State};

/// Generational identifier of a slab entry, suitable for embedding in event
/// payloads (it is `Copy` and 8 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SlotId {
    index: u32,
    generation: u32,
}

crate::state!(struct SlotId { index, generation });

impl SlotId {
    /// Construct an id directly from its parts. Real ids come from
    /// [`Slab::insert`]; this is for tests and serialization round-trips, and
    /// an id that does not name a live entry panics on lookup like any other
    /// stale id.
    pub const fn from_parts(index: u32, generation: u32) -> Self {
        SlotId { index, generation }
    }

    /// The slot index this id names.
    pub const fn index(&self) -> u32 {
        self.index
    }

    /// The generation this id was issued at.
    pub const fn generation(&self) -> u32 {
        self.generation
    }
}

#[derive(Debug)]
enum Slot<T> {
    Occupied { generation: u32, value: T },
    Vacant { generation: u32, next_free: u32 },
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot::Vacant {
            generation: 0,
            next_free: NONE,
        }
    }
}

crate::state!(impl[T: State + Default] enum Slot<T> {
    Occupied { generation, value },
    Vacant { generation, next_free },
});

/// Sentinel for "no next free slot".
const NONE: u32 = u32::MAX;

/// A generational free-list slab: O(1) insert/remove through an intrusive
/// free list, with a high-water mark for memory-boundedness regression tests.
///
/// Its checkpoint state is every slot with its generation, the free-list
/// links and the counters, so ids issued before a checkpoint (e.g. embedded
/// in pending events) stay valid in the restored slab and future inserts
/// reuse slots in the identical order.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    len: usize,
    high_water: usize,
}

crate::state!(impl[T: State + Default] struct Slab<T> {
    slots, free_head, len, high_water
} then Self::check_free_list);

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Create an empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: NONE,
            len: 0,
            high_water: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest number of entries ever live at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of slots ever allocated (live + free-listed).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Store a value, reusing a vacated slot when one is available.
    pub fn insert(&mut self, value: T) -> SlotId {
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        if self.free_head != NONE {
            let index = self.free_head;
            let slot = &mut self.slots[index as usize];
            let generation = match *slot {
                Slot::Vacant {
                    generation,
                    next_free,
                } => {
                    self.free_head = next_free;
                    generation
                }
                Slot::Occupied { .. } => unreachable!("free list points at an occupied slot"),
            };
            *slot = Slot::Occupied { generation, value };
            SlotId { index, generation }
        } else {
            let index = u32::try_from(self.slots.len()).expect("more than u32::MAX live entries");
            self.slots.push(Slot::Occupied {
                generation: 0,
                value,
            });
            SlotId {
                index,
                generation: 0,
            }
        }
    }

    /// Free an entry and return its value. Panics on a stale or vacant id.
    pub fn remove(&mut self, id: SlotId) -> T {
        let slot = &mut self.slots[id.index as usize];
        match slot {
            Slot::Occupied { generation, .. } if *generation == id.generation => {
                let vacant = Slot::Vacant {
                    generation: id.generation.wrapping_add(1),
                    next_free: self.free_head,
                };
                let old = std::mem::replace(slot, vacant);
                self.free_head = id.index;
                self.len -= 1;
                match old {
                    Slot::Occupied { value, .. } => value,
                    Slot::Vacant { .. } => unreachable!(),
                }
            }
            _ => panic!("stale or vacant SlotId {id:?} removed"),
        }
    }

    /// Whether `id` names a live entry (not a stale, vacant or out-of-range
    /// slot).
    pub fn contains(&self, id: SlotId) -> bool {
        matches!(
            self.slots.get(id.index as usize),
            Some(Slot::Occupied { generation, .. }) if *generation == id.generation
        )
    }

    /// Look up a live entry. Panics on a stale or vacant id.
    pub fn get(&self, id: SlotId) -> &T {
        match &self.slots[id.index as usize] {
            Slot::Occupied { generation, value } if *generation == id.generation => value,
            _ => panic!("stale or vacant SlotId {id:?} read"),
        }
    }

    /// Mutable lookup. Panics on a stale or vacant id.
    pub fn get_mut(&mut self, id: SlotId) -> &mut T {
        match &mut self.slots[id.index as usize] {
            Slot::Occupied { generation, value } if *generation == id.generation => value,
            _ => panic!("stale or vacant SlotId {id:?} written"),
        }
    }

    /// Validate a loaded slab: the free list must link every vacant slot
    /// exactly once and the counters must agree with the slots, or a later
    /// insert would panic or alias a live entry.
    fn check_free_list(&mut self) -> Result<(), SnapshotError> {
        let vacant = self
            .slots
            .iter()
            .filter(|slot| matches!(slot, Slot::Vacant { .. }))
            .count();
        let mut linked = 0;
        let mut next = self.free_head;
        while next != NONE {
            match self.slots.get(next as usize) {
                Some(Slot::Vacant { next_free, .. }) if linked < vacant => {
                    linked += 1;
                    next = *next_free;
                }
                _ => return Err(SnapshotError::custom("slab free list is corrupt")),
            }
        }
        if linked != vacant || self.len + vacant != self.slots.len() || self.high_water < self.len {
            return Err(SnapshotError::custom("slab counters are corrupt"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{StateReader, StateWriter};

    #[test]
    fn insert_get_remove_round_trip() {
        let mut slab: Slab<u32> = Slab::new();
        let a = slab.insert(1);
        let b = slab.insert(2);
        assert_eq!(slab.len(), 2);
        assert!(!slab.is_empty());
        assert_eq!(*slab.get(a), 1);
        assert_eq!(*slab.get(b), 2);
        *slab.get_mut(a) += 10;
        assert_eq!(*slab.get(a), 11);
        assert_eq!(slab.remove(a), 11);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.remove(b), 2);
        assert_eq!(slab.len(), 0);
        assert!(slab.is_empty());
    }

    #[test]
    fn slots_are_reused_and_capacity_stays_bounded() {
        let mut slab: Slab<usize> = Slab::new();
        for round in 0..1000 {
            let a = slab.insert(round);
            let b = slab.insert(round + 1);
            slab.remove(a);
            slab.remove(b);
        }
        assert_eq!(slab.capacity(), 2, "two slots should be recycled forever");
        assert_eq!(slab.high_water(), 2);
        assert_eq!(slab.len(), 0);
    }

    #[test]
    fn free_list_is_lifo_and_generations_advance() {
        let mut slab: Slab<u32> = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        let b = slab.insert(2);
        // Same slot, new generation.
        assert_eq!(slab.capacity(), 1);
        assert_ne!(a, b);
        assert_eq!(*slab.get(b), 2);
    }

    #[test]
    #[should_panic(expected = "stale or vacant")]
    fn stale_id_lookup_panics() {
        let mut slab: Slab<u32> = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        slab.insert(2); // recycles the slot with a new generation
        let _ = slab.get(a);
    }

    #[test]
    #[should_panic(expected = "stale or vacant")]
    fn double_remove_panics() {
        let mut slab: Slab<u32> = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        slab.remove(a);
    }

    #[test]
    #[should_panic(expected = "stale or vacant")]
    fn forged_id_panics() {
        let mut slab: Slab<u32> = Slab::new();
        let a = slab.insert(1);
        let forged = SlotId::from_parts(0, 99);
        assert_ne!(a, forged);
        let _ = slab.get(forged);
    }

    fn checkpoint(slab: &Slab<u32>) -> Vec<u8> {
        let mut w = StateWriter::new();
        slab.save(&mut w);
        w.finish()
    }

    fn restore(bytes: &[u8]) -> Result<Slab<u32>, SnapshotError> {
        StateReader::new(bytes)?.read()
    }

    #[test]
    fn snapshot_restore_preserves_ids_free_list_and_insert_order() {
        let mut slab: Slab<u32> = Slab::new();
        let a = slab.insert(10);
        let b = slab.insert(20);
        let c = slab.insert(30);
        slab.remove(b);
        slab.remove(a); // free list now LIFO: a, then b

        let mut restored = restore(&checkpoint(&slab)).unwrap();
        // Pre-snapshot ids stay valid...
        assert_eq!(*restored.get(c), 30);
        assert_eq!(restored.len(), slab.len());
        assert_eq!(restored.high_water(), slab.high_water());
        // ...stale ids still panic-by-generation (checked via insert below),
        // and future inserts reuse slots in the identical order.
        for _ in 0..3 {
            let x = slab.insert(7);
            let y = restored.insert(7);
            assert_eq!(x, y);
        }
    }

    #[test]
    fn restore_rejects_a_corrupt_free_list() {
        let mut slab: Slab<u32> = Slab::new();
        let a = slab.insert(1);
        slab.insert(2);
        slab.remove(a);
        // A free list pointing at the live slot, or at itself.
        for free_head in [1, 0] {
            let mut bad: Slab<u32> = restore(&checkpoint(&slab)).unwrap();
            bad.free_head = free_head;
            if let Slot::Vacant { next_free, .. } = &mut bad.slots[0] {
                *next_free = 0;
            }
            assert!(restore(&checkpoint(&bad)).is_err());
        }
    }

    #[test]
    fn slot_id_accessors_expose_parts() {
        let id = SlotId::from_parts(3, 9);
        assert_eq!(id.index(), 3);
        assert_eq!(id.generation(), 9);
    }

    #[test]
    fn high_water_tracks_peak_concurrency() {
        let mut slab: Slab<usize> = Slab::new();
        let ids: Vec<SlotId> = (0..5).map(|i| slab.insert(i)).collect();
        for id in ids {
            slab.remove(id);
        }
        for i in 0..3 {
            let id = slab.insert(i);
            slab.remove(id);
        }
        assert_eq!(slab.high_water(), 5);
    }
}
