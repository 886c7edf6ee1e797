//! Flat snapshot representation, independent of live heap structures.
//!
//! [`SnapshotData`] is what the codecs serialize: the full object graph of
//! a process (objects, fields, roots) plus its remoting tables. It is the
//! analogue of the serialized image Rotor/.Net write to disk; the S1
//! experiment measures encoding it.

use acdgc_heap::{Heap, HeapRef};
use acdgc_model::{ObjId, ProcId, RefId, SimTime, Slot};
use acdgc_remoting::RemotingTables;

/// One serialized object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapObject {
    pub slot: Slot,
    pub generation: u32,
    pub payload_words: u32,
    pub refs: Vec<HeapRef>,
}

/// One serialized stub entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapStub {
    pub ref_id: RefId,
    pub target: ObjId,
    pub ic: u64,
}

/// One serialized scion entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapScion {
    pub ref_id: RefId,
    pub target: ObjId,
    pub from_proc: ProcId,
    pub ic: u64,
}

/// A full process snapshot.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SnapshotData {
    pub proc: ProcId,
    pub taken_at: SimTime,
    pub objects: Vec<SnapObject>,
    pub roots: Vec<Slot>,
    pub stubs: Vec<SnapStub>,
    pub scions: Vec<SnapScion>,
}

impl SnapshotData {
    /// Total reference-field count, a proxy for graph density.
    pub fn edge_count(&self) -> usize {
        self.objects.iter().map(|o| o.refs.len()).sum()
    }
}

/// Capture the current state of a process into a flat snapshot. Objects,
/// roots and tables are emitted in deterministic (slot / ref-id) order.
pub fn capture(heap: &Heap, tables: &RemotingTables, taken_at: SimTime) -> SnapshotData {
    let mut objects: Vec<SnapObject> = heap
        .iter()
        .map(|(slot, rec)| SnapObject {
            slot,
            generation: rec.generation,
            payload_words: rec.payload_words,
            refs: rec.refs.clone(),
        })
        .collect();
    objects.sort_unstable_by_key(|o| o.slot);

    let mut roots: Vec<Slot> = heap.roots().collect();
    roots.sort_unstable();

    let mut stubs: Vec<SnapStub> = tables
        .stubs()
        .map(|s| SnapStub {
            ref_id: s.ref_id,
            target: s.target,
            ic: s.ic,
        })
        .collect();
    stubs.sort_unstable_by_key(|s| s.ref_id);

    let mut scions: Vec<SnapScion> = tables
        .scions()
        .map(|s| SnapScion {
            ref_id: s.ref_id,
            target: s.target,
            from_proc: s.from_proc,
            ic: s.ic,
        })
        .collect();
    scions.sort_unstable_by_key(|s| s.ref_id);

    SnapshotData {
        proc: heap.proc(),
        taken_at,
        objects,
        roots,
        stubs,
        scions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_is_deterministic_and_complete() {
        let mut heap = Heap::new(ProcId(0));
        let mut tables = RemotingTables::new(ProcId(0));
        let a = heap.alloc(2);
        let b = heap.alloc(3);
        heap.add_ref(b, HeapRef::Local(a.slot)).unwrap();
        heap.add_ref(a, HeapRef::Remote(RefId(1))).unwrap();
        heap.add_root(a).unwrap();
        tables.add_stub(RefId(1), ObjId::new(ProcId(1), 0, 0), SimTime(0));
        tables.add_scion(RefId(2), b, ProcId(2), SimTime(0));

        let snap1 = capture(&heap, &tables, SimTime(9));
        let snap2 = capture(&heap, &tables, SimTime(9));
        assert_eq!(snap1, snap2);
        assert_eq!(snap1.objects.len(), 2);
        assert_eq!(snap1.roots, vec![a.slot]);
        assert_eq!(snap1.stubs.len(), 1);
        assert_eq!(snap1.scions.len(), 1);
        assert_eq!(snap1.edge_count(), 2);
        assert_eq!(snap1.taken_at, SimTime(9));
    }

    #[test]
    fn freed_objects_not_captured() {
        let mut heap = Heap::new(ProcId(0));
        let tables = RemotingTables::new(ProcId(0));
        let _keep = heap.alloc(1);
        let _gone = heap.alloc(1);
        // Collect: nothing is rooted, both die.
        acdgc_heap::collect(&mut heap, &[]);
        let snap = capture(&heap, &tables, SimTime(0));
        assert!(snap.objects.is_empty());
    }
}
