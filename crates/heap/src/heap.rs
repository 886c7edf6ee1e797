//! The slot-arena heap of one simulated process.

use crate::object::{HeapRef, ObjectRecord};
use acdgc_model::{ModelError, ObjId, ProcId, RefId, Slot};
use rustc_hash::FxHashSet;

/// Aggregate heap statistics, maintained incrementally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    pub allocated_total: u64,
    pub freed_total: u64,
    pub live_objects: usize,
    /// Reference fields held by live objects (local and remote edges).
    /// Per-edge cost probes read E in O(1) here instead of walking the
    /// heap.
    pub ref_fields: u64,
}

#[derive(Clone, Debug)]
struct SlotEntry {
    /// Incremented every time the slot is freed; allocation stamps the
    /// current value into the object so stale `ObjId`s are detectable.
    generation: u32,
    record: Option<ObjectRecord>,
}

/// Object heap of one process: slot arena with free-list reuse, a root set,
/// and a reference-edit API. All mutation goes through methods so that
/// structural invariants (valid slots, root membership) hold by
/// construction; the collectors in [`crate::lgc`] rely on them.
#[derive(Clone, Debug)]
pub struct Heap {
    proc: ProcId,
    slots: Vec<SlotEntry>,
    free: Vec<Slot>,
    roots: FxHashSet<Slot>,
    stats: HeapStats,
}

impl Heap {
    pub fn new(proc: ProcId) -> Self {
        Heap {
            proc,
            slots: Vec::new(),
            free: Vec::new(),
            roots: FxHashSet::default(),
            stats: HeapStats::default(),
        }
    }

    pub fn proc(&self) -> ProcId {
        self.proc
    }

    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Number of slots ever used (live + free); collectors size mark
    /// bitmaps from this.
    pub fn slot_upper_bound(&self) -> usize {
        self.slots.len()
    }

    /// Allocate an object with the given simulated payload size.
    pub fn alloc(&mut self, payload_words: u32) -> ObjId {
        self.stats.allocated_total += 1;
        self.stats.live_objects += 1;
        if let Some(slot) = self.free.pop() {
            let entry = &mut self.slots[slot as usize];
            debug_assert!(entry.record.is_none(), "free list slot was occupied");
            entry.record = Some(ObjectRecord::new(entry.generation, payload_words));
            ObjId::new(self.proc, slot, entry.generation)
        } else {
            let slot = self.slots.len() as Slot;
            self.slots.push(SlotEntry {
                generation: 0,
                record: Some(ObjectRecord::new(0, payload_words)),
            });
            ObjId::new(self.proc, slot, 0)
        }
    }

    /// Free a slot directly. Normal reclamation goes through
    /// [`crate::lgc::sweep`]; this is the primitive it uses.
    pub(crate) fn free_slot(&mut self, slot: Slot) -> Option<ObjectRecord> {
        let entry = self.slots.get_mut(slot as usize)?;
        let record = entry.record.take()?;
        entry.generation = entry.generation.wrapping_add(1);
        self.roots.remove(&slot);
        self.free.push(slot);
        self.stats.freed_total += 1;
        self.stats.live_objects -= 1;
        self.stats.ref_fields -= record.refs.len() as u64;
        Some(record)
    }

    fn check(&self, id: ObjId) -> Result<(), ModelError> {
        if id.proc != self.proc {
            return Err(ModelError::UnknownProcess(id.proc));
        }
        match self.slots.get(id.slot as usize) {
            Some(SlotEntry {
                generation,
                record: Some(_),
            }) if *generation == id.generation => Ok(()),
            _ => Err(ModelError::DanglingObject(id)),
        }
    }

    /// Borrow an object record by validated handle.
    pub fn get(&self, id: ObjId) -> Result<&ObjectRecord, ModelError> {
        self.check(id)?;
        Ok(self.slots[id.slot as usize].record.as_ref().unwrap())
    }

    pub fn get_mut(&mut self, id: ObjId) -> Result<&mut ObjectRecord, ModelError> {
        self.check(id)?;
        Ok(self.slots[id.slot as usize].record.as_mut().unwrap())
    }

    /// Borrow by raw slot (collector-internal; no generation check).
    pub fn get_slot(&self, slot: Slot) -> Option<&ObjectRecord> {
        self.slots.get(slot as usize)?.record.as_ref()
    }

    /// Whether `id` still names a live allocation.
    pub fn contains(&self, id: ObjId) -> bool {
        self.check(id).is_ok()
    }

    /// Current `ObjId` for an occupied slot, if any.
    pub fn id_of_slot(&self, slot: Slot) -> Option<ObjId> {
        let entry = self.slots.get(slot as usize)?;
        entry
            .record
            .as_ref()
            .map(|_| ObjId::new(self.proc, slot, entry.generation))
    }

    // --- roots -----------------------------------------------------------

    /// Make `id` a local root (global variable / stack reference).
    pub fn add_root(&mut self, id: ObjId) -> Result<(), ModelError> {
        self.check(id)?;
        self.roots.insert(id.slot);
        Ok(())
    }

    pub fn remove_root(&mut self, id: ObjId) -> Result<bool, ModelError> {
        self.check(id)?;
        Ok(self.roots.remove(&id.slot))
    }

    pub fn is_root(&self, id: ObjId) -> bool {
        self.check(id).is_ok() && self.roots.contains(&id.slot)
    }

    pub fn roots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.roots.iter().copied()
    }

    // --- reference edits --------------------------------------------------

    /// Add a reference field `from -> to`.
    pub fn add_ref(&mut self, from: ObjId, to: HeapRef) -> Result<(), ModelError> {
        if let HeapRef::Local(slot) = to {
            if self.get_slot(slot).is_none() {
                return Err(ModelError::BadSlot(slot));
            }
        }
        self.get_mut(from)?.refs.push(to);
        self.stats.ref_fields += 1;
        Ok(())
    }

    /// Remove one occurrence of `to` from `from`'s fields.
    pub fn remove_ref(&mut self, from: ObjId, to: HeapRef) -> Result<(), ModelError> {
        let record = self.get_mut(from)?;
        match record.refs.iter().position(|&r| r == to) {
            Some(pos) => {
                record.refs.swap_remove(pos);
                self.stats.ref_fields -= 1;
                Ok(())
            }
            None => Err(ModelError::MissingReference),
        }
    }

    /// Iterate `(slot, record)` over live objects.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &ObjectRecord)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.record.as_ref().map(|r| (i as Slot, r)))
    }

    /// All remote references held anywhere in the heap (live objects only).
    pub fn all_remote_refs(&self) -> FxHashSet<RefId> {
        self.iter().flat_map(|(_, rec)| rec.remote_refs()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> Heap {
        Heap::new(ProcId(0))
    }

    #[test]
    fn alloc_and_get() {
        let mut h = heap();
        let a = h.alloc(4);
        assert_eq!(h.get(a).unwrap().payload_words, 4);
        assert_eq!(h.stats().live_objects, 1);
        assert!(h.contains(a));
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut h = heap();
        let a = h.alloc(1);
        assert!(h.free_slot(a.slot).is_some());
        let b = h.alloc(1);
        assert_eq!(a.slot, b.slot, "slot must be reused");
        assert_ne!(a.generation, b.generation);
        assert!(!h.contains(a), "stale handle must be rejected");
        assert!(h.contains(b));
        assert!(matches!(h.get(a), Err(ModelError::DanglingObject(_))));
    }

    #[test]
    fn roots_are_cleared_on_free() {
        let mut h = heap();
        let a = h.alloc(1);
        h.add_root(a).unwrap();
        assert!(h.is_root(a));
        h.free_slot(a.slot);
        let b = h.alloc(1);
        assert!(!h.is_root(b), "reused slot must not inherit rootness");
    }

    #[test]
    fn add_and_remove_refs() {
        let mut h = heap();
        let a = h.alloc(1);
        let b = h.alloc(1);
        h.add_ref(a, HeapRef::Local(b.slot)).unwrap();
        h.add_ref(a, HeapRef::Remote(RefId(7))).unwrap();
        assert_eq!(h.get(a).unwrap().refs.len(), 2);
        h.remove_ref(a, HeapRef::Local(b.slot)).unwrap();
        assert_eq!(
            h.remove_ref(a, HeapRef::Local(b.slot)),
            Err(ModelError::MissingReference)
        );
        assert_eq!(h.all_remote_refs().len(), 1);
    }

    #[test]
    fn add_ref_to_missing_slot_fails() {
        let mut h = heap();
        let a = h.alloc(1);
        assert_eq!(
            h.add_ref(a, HeapRef::Local(99)),
            Err(ModelError::BadSlot(99))
        );
    }

    #[test]
    fn duplicate_refs_allowed_and_removed_one_at_a_time() {
        let mut h = heap();
        let a = h.alloc(1);
        let b = h.alloc(1);
        h.add_ref(a, HeapRef::Local(b.slot)).unwrap();
        h.add_ref(a, HeapRef::Local(b.slot)).unwrap();
        h.remove_ref(a, HeapRef::Local(b.slot)).unwrap();
        assert_eq!(h.get(a).unwrap().refs.len(), 1);
    }

    #[test]
    fn wrong_process_handle_rejected() {
        let mut h = heap();
        let a = h.alloc(1);
        let foreign = ObjId::new(ProcId(1), a.slot, a.generation);
        assert!(matches!(h.get(foreign), Err(ModelError::UnknownProcess(_))));
    }

    #[test]
    fn iter_skips_freed() {
        let mut h = heap();
        let a = h.alloc(1);
        let _b = h.alloc(1);
        h.free_slot(a.slot);
        assert_eq!(h.iter().count(), 1);
        assert_eq!(h.stats().freed_total, 1);
    }
}
