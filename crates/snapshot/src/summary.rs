//! Graph summarization: the DCDA's view of a process.
//!
//! "This summarization transforms a snapshot of an application graph into a
//! set of scions and stubs, with their corresponding associations" (§3).
//! The traversal is breadth-first, as in the paper, and runs once from the
//! roots plus once per scion; internal references disappear entirely.

use acdgc_heap::lgc::closure;
use acdgc_heap::Heap;
use acdgc_model::{ProcId, RefId, SimTime};
use acdgc_remoting::RemotingTables;
use rustc_hash::FxHashMap;

/// Summary of one scion (incoming remote reference).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScionSummary {
    pub ref_id: RefId,
    /// Process holding the matching stub.
    pub from_proc: ProcId,
    /// Invocation counter captured at snapshot time.
    pub ic: u64,
    /// Stubs (in this process) transitively reachable from the scion's
    /// target object — the paper's `StubsFrom`. Sorted for determinism.
    pub stubs_from: Vec<RefId>,
    /// Whether the scion's target is reachable from this process's local
    /// roots; such scions are never cycle candidates.
    pub target_locally_reachable: bool,
    /// Last invocation received through the scion before the snapshot;
    /// drives the candidate-age heuristic.
    pub last_invoked: SimTime,
    /// Scion incarnation under its reference id (ABA guard for verdict
    /// deletions).
    pub incarnation: u32,
    /// Pin count captured at snapshot time. A pinned scion has an export
    /// or invocation in flight — it is mutator-active by definition and
    /// must not be treated as a cycle candidate.
    pub pinned: u32,
}

/// Summary of one stub (outgoing remote reference).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StubSummary {
    pub ref_id: RefId,
    /// Process owning the target object (where the matching scion lives).
    pub target_proc: ProcId,
    /// Invocation counter captured at snapshot time.
    pub ic: u64,
    /// Scions (in this process) that transitively lead to this stub — the
    /// paper's `ScionsTo`. Sorted for determinism.
    pub scions_to: Vec<RefId>,
    /// The paper's `Local.Reach` bit: the stub is reachable from a local
    /// root, so any path through it is live and detection must not follow.
    pub local_reach: bool,
}

/// The summarized graph of one process at one instant: everything the
/// cycle detector is allowed to know about the process.
#[derive(Clone, Debug, Default)]
pub struct SummarizedGraph {
    pub proc: ProcId,
    /// Monotone per-process version; bumped on every summarization.
    pub version: u64,
    pub taken_at: SimTime,
    pub scions: FxHashMap<RefId, ScionSummary>,
    pub stubs: FxHashMap<RefId, StubSummary>,
}

impl SummarizedGraph {
    /// Empty summary (a process that has never snapshot).
    pub fn empty(proc: ProcId) -> Self {
        SummarizedGraph {
            proc,
            ..SummarizedGraph::default()
        }
    }

    pub fn scion(&self, r: RefId) -> Option<&ScionSummary> {
        self.scions.get(&r)
    }

    pub fn stub(&self, r: RefId) -> Option<&StubSummary> {
        self.stubs.get(&r)
    }
}

/// Compare two summaries for semantic equality, ignoring version/time.
pub fn summaries_equivalent(a: &SummarizedGraph, b: &SummarizedGraph) -> bool {
    if a.proc != b.proc || a.scions.len() != b.scions.len() || a.stubs.len() != b.stubs.len() {
        return false;
    }
    a.scions.iter().all(|(r, s)| b.scion(*r) == Some(s))
        && a.stubs.iter().all(|(r, s)| b.stub(*r) == Some(s))
}

/// Summarize the current heap + remoting state of a process.
///
/// The result is equivalent to summarizing a serialized snapshot taken at
/// the same instant (the codecs round-trip [`crate::SnapshotData`]
/// losslessly); reading the live structures directly just avoids paying
/// serialization cost twice in the simulator.
pub fn summarize(
    heap: &Heap,
    tables: &RemotingTables,
    version: u64,
    taken_at: SimTime,
) -> SummarizedGraph {
    let root_closure = closure(heap, heap.roots());

    let mut scions: FxHashMap<RefId, ScionSummary> = FxHashMap::default();
    let mut scions_to: FxHashMap<RefId, Vec<RefId>> = FxHashMap::default();

    // One BFS per scion: StubsFrom, plus the inverted ScionsTo index.
    for scion in tables.scions() {
        let reach = closure(heap, [scion.target.slot]);
        let mut stubs_from: Vec<RefId> = reach
            .stubs
            .iter()
            .copied()
            .filter(|r| tables.stub(*r).is_some())
            .collect();
        stubs_from.sort_unstable();
        for &stub_ref in &stubs_from {
            scions_to.entry(stub_ref).or_default().push(scion.ref_id);
        }
        scions.insert(
            scion.ref_id,
            ScionSummary {
                ref_id: scion.ref_id,
                from_proc: scion.from_proc,
                ic: scion.ic,
                stubs_from,
                target_locally_reachable: root_closure.slots.contains(scion.target.slot as usize),
                last_invoked: scion.last_invoked,
                incarnation: scion.incarnation,
                pinned: scion.pinned,
            },
        );
    }

    // Stub summaries: every stub reachable from a root or from some scion.
    let mut stubs: FxHashMap<RefId, StubSummary> = FxHashMap::default();
    let interesting: Vec<RefId> = scions_to
        .keys()
        .copied()
        .chain(root_closure.stubs.iter().copied())
        .collect();
    for ref_id in interesting {
        if stubs.contains_key(&ref_id) {
            continue;
        }
        let Some(stub) = tables.stub(ref_id) else {
            continue;
        };
        let mut to = scions_to.remove(&ref_id).unwrap_or_default();
        to.sort_unstable();
        to.dedup();
        stubs.insert(
            ref_id,
            StubSummary {
                ref_id,
                target_proc: stub.target.proc,
                ic: stub.ic,
                scions_to: to,
                local_reach: root_closure.stubs.contains(&ref_id),
            },
        );
    }

    SummarizedGraph {
        proc: heap.proc(),
        version,
        taken_at,
        scions,
        stubs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdgc_heap::HeapRef;
    use acdgc_model::ObjId;

    /// P0 heap: scion(r1) -> a -> b -> stub(r2); root -> c -> stub(r3).
    fn fixture() -> (Heap, RemotingTables) {
        let mut heap = Heap::new(ProcId(0));
        let mut tables = RemotingTables::new(ProcId(0));
        let a = heap.alloc(1);
        let b = heap.alloc(1);
        let c = heap.alloc(1);
        heap.add_ref(a, HeapRef::Local(b.slot)).unwrap();
        heap.add_ref(b, HeapRef::Remote(RefId(2))).unwrap();
        heap.add_ref(c, HeapRef::Remote(RefId(3))).unwrap();
        heap.add_root(c).unwrap();
        tables.add_scion(RefId(1), a, ProcId(1), SimTime(0));
        tables.add_stub(RefId(2), ObjId::new(ProcId(2), 0, 0), SimTime(0));
        tables.add_stub(RefId(3), ObjId::new(ProcId(3), 0, 0), SimTime(0));
        (heap, tables)
    }

    #[test]
    fn stubs_from_follows_local_chain() {
        let (heap, tables) = fixture();
        let s = summarize(&heap, &tables, 1, SimTime(10));
        let scion = s.scion(RefId(1)).unwrap();
        assert_eq!(scion.stubs_from, vec![RefId(2)]);
        assert!(!scion.target_locally_reachable);
        assert_eq!(s.version, 1);
        assert_eq!(s.taken_at, SimTime(10));
    }

    #[test]
    fn scions_to_is_inverse_of_stubs_from() {
        let (heap, tables) = fixture();
        let s = summarize(&heap, &tables, 1, SimTime(0));
        let stub = s.stub(RefId(2)).unwrap();
        assert_eq!(stub.scions_to, vec![RefId(1)]);
        assert!(!stub.local_reach);
    }

    #[test]
    fn root_reachable_stub_flagged() {
        let (heap, tables) = fixture();
        let s = summarize(&heap, &tables, 1, SimTime(0));
        let stub = s.stub(RefId(3)).unwrap();
        assert!(stub.local_reach);
        assert!(stub.scions_to.is_empty());
    }

    #[test]
    fn locally_reachable_scion_target_flagged() {
        let (mut heap, mut tables) = fixture();
        // Root c also points at the scion target a.
        let c = heap.id_of_slot(2).unwrap();
        let a = heap.id_of_slot(0).unwrap();
        heap.add_ref(c, HeapRef::Local(a.slot)).unwrap();
        tables.add_scion(RefId(9), a, ProcId(2), SimTime(0));
        let s = summarize(&heap, &tables, 1, SimTime(0));
        assert!(s.scion(RefId(9)).unwrap().target_locally_reachable);
        // And the stub reachable from a is now also root-reachable.
        assert!(s.stub(RefId(2)).unwrap().local_reach);
    }

    #[test]
    fn internal_references_are_summarized_away() {
        let (heap, tables) = fixture();
        let s = summarize(&heap, &tables, 1, SimTime(0));
        // The summary contains only scions and stubs, never objects: the
        // a->b edge is gone, only its consequence (r1 leads to r2) remains.
        assert_eq!(s.scions.len(), 1);
        assert_eq!(s.stubs.len(), 2);
    }

    #[test]
    fn multiple_scions_to_one_stub() {
        let mut heap = Heap::new(ProcId(0));
        let mut tables = RemotingTables::new(ProcId(0));
        let a = heap.alloc(1);
        let b = heap.alloc(1);
        let shared = heap.alloc(1);
        heap.add_ref(a, HeapRef::Local(shared.slot)).unwrap();
        heap.add_ref(b, HeapRef::Local(shared.slot)).unwrap();
        heap.add_ref(shared, HeapRef::Remote(RefId(5))).unwrap();
        tables.add_scion(RefId(1), a, ProcId(1), SimTime(0));
        tables.add_scion(RefId(2), b, ProcId(2), SimTime(0));
        tables.add_stub(RefId(5), ObjId::new(ProcId(3), 0, 0), SimTime(0));
        let s = summarize(&heap, &tables, 1, SimTime(0));
        assert_eq!(
            s.stub(RefId(5)).unwrap().scions_to,
            vec![RefId(1), RefId(2)]
        );
        assert_eq!(s.scion(RefId(1)).unwrap().stubs_from, vec![RefId(5)]);
        assert_eq!(s.scion(RefId(2)).unwrap().stubs_from, vec![RefId(5)]);
    }

    #[test]
    fn captured_ics_reflect_table_state() {
        let (heap, mut tables) = fixture();
        tables
            .record_receive_through_scion(RefId(1), SimTime(5))
            .unwrap();
        tables.record_send_through_stub(RefId(2)).unwrap();
        tables.record_send_through_stub(RefId(2)).unwrap();
        let s = summarize(&heap, &tables, 2, SimTime(6));
        assert_eq!(s.scion(RefId(1)).unwrap().ic, 1);
        assert_eq!(s.scion(RefId(1)).unwrap().last_invoked, SimTime(5));
        assert_eq!(s.stub(RefId(2)).unwrap().ic, 2);
    }

    #[test]
    fn stub_unreachable_from_anywhere_is_omitted() {
        let mut heap = Heap::new(ProcId(0));
        let mut tables = RemotingTables::new(ProcId(0));
        // A garbage object (no roots, no scions) holds the only reference
        // to stub r7: the summary must not mention r7.
        let dead = heap.alloc(1);
        heap.add_ref(dead, HeapRef::Remote(RefId(7))).unwrap();
        tables.add_stub(RefId(7), ObjId::new(ProcId(1), 0, 0), SimTime(0));
        let s = summarize(&heap, &tables, 1, SimTime(0));
        assert!(s.stub(RefId(7)).is_none());
    }

    #[test]
    fn empty_summary() {
        let s = SummarizedGraph::empty(ProcId(4));
        assert_eq!(s.proc, ProcId(4));
        assert_eq!(s.version, 0);
        assert!(s.scions.is_empty());
    }
}
