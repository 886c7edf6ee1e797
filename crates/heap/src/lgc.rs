//! Mark-sweep local garbage collector.
//!
//! The LGC traces from two seed sets, as required by the reference-listing
//! algorithm (§4 of the paper):
//!
//! * the process's local **roots**, and
//! * the **scion targets** supplied by the remoting layer (objects kept
//!   alive solely because remote processes reference them).
//!
//! The mark is one breadth-first closure over both seed sets. Besides
//! reclaiming unreachable slots, it reports the live stub set: the basis of
//! `NewSetStubs` messages, and, by its complement over the stub table
//! ([`MarkResult::dead_stubs_among`]), the stubs that died with this
//! collection. `Local.Reach` is the summarizer's to compute, not the LGC's.

use crate::heap::Heap;
use acdgc_model::{BitSet, ObjId, RefId, Slot};
use rustc_hash::FxHashSet;

/// Transitive closure over local edges from a seed set: the slots reached
/// and the remote references (stubs) encountered along the way.
#[derive(Clone, Debug, Default)]
pub struct Closure {
    pub slots: BitSet,
    pub stubs: FxHashSet<RefId>,
}

/// Breadth-first closure from `seeds` following only local edges; remote
/// references are recorded, not followed (they are this process's stubs).
///
/// Breadth-first matches the paper's summarization choice ("It transverses
/// the graph, breadth-first, in order to minimize overhead").
pub fn closure(heap: &Heap, seeds: impl IntoIterator<Item = Slot>) -> Closure {
    let mut out = Closure {
        slots: BitSet::with_capacity(heap.slot_upper_bound()),
        stubs: FxHashSet::default(),
    };
    trace(heap, seeds, &mut out.slots, &mut out.stubs, &mut Vec::new());
    out
}

/// The breadth-first closure behind [`closure`] and the mark, into
/// caller-owned buffers: `slots` and `stubs` are cleared and refilled
/// (their allocations are kept), and `queue` is the worklist.
fn trace(
    heap: &Heap,
    seeds: impl IntoIterator<Item = Slot>,
    slots: &mut BitSet,
    stubs: &mut FxHashSet<RefId>,
    queue: &mut Vec<Slot>,
) {
    slots.clear();
    stubs.clear();
    queue.clear();
    for seed in seeds {
        if heap.get_slot(seed).is_some() && slots.insert(seed as usize) {
            queue.push(seed);
        }
    }
    let mut cursor = 0;
    while cursor < queue.len() {
        let slot = queue[cursor];
        cursor += 1;
        let record = heap.get_slot(slot).expect("queued slot must be occupied");
        for &field in &record.refs {
            match field {
                crate::object::HeapRef::Local(next) => {
                    if heap.get_slot(next).is_some() && slots.insert(next as usize) {
                        queue.push(next);
                    }
                }
                crate::object::HeapRef::Remote(ref_id) => {
                    stubs.insert(ref_id);
                }
            }
        }
    }
}

/// Result of the mark phase.
#[derive(Clone, Debug, Default)]
pub struct MarkResult {
    /// Slots reachable from roots or scion targets: the live set.
    pub live: BitSet,
    /// Stubs held by any live object: the `NewSetStubs` content.
    pub live_stubs: FxHashSet<RefId>,
}

impl MarkResult {
    /// Filter a stub-table iteration down to the stubs this mark did *not*
    /// reach — the ones the integration mode must remove (`VmIntegrated`)
    /// or condemn (`WeakRefMonitor`). Input order is preserved.
    pub fn dead_stubs_among(&self, stubs: impl IntoIterator<Item = RefId>) -> Vec<RefId> {
        stubs
            .into_iter()
            .filter(|r| !self.live_stubs.contains(r))
            .collect()
    }
}

/// Mark phase: one closure from the roots and the scion targets.
pub fn mark(heap: &Heap, scion_targets: &[Slot]) -> MarkResult {
    let mut out = MarkResult {
        live: BitSet::with_capacity(heap.slot_upper_bound()),
        live_stubs: FxHashSet::default(),
    };
    mark_into(heap, scion_targets, &mut out, &mut Vec::new());
    out
}

fn mark_into(heap: &Heap, scion_targets: &[Slot], out: &mut MarkResult, queue: &mut Vec<Slot>) {
    let seeds = heap.roots().chain(scion_targets.iter().copied());
    trace(heap, seeds, &mut out.live, &mut out.live_stubs, queue);
}

/// Result of the sweep phase.
#[derive(Clone, Debug, Default)]
pub struct SweepResult {
    /// Handles of the reclaimed objects (their pre-free identity).
    pub freed: Vec<ObjId>,
}

/// Sweep: free every slot not in `live`. The stubs that die with it are
/// [`MarkResult::dead_stubs_among`]'s to find, so `_live_stubs` is unread;
/// it keeps the signature callers outside this workspace compile against.
pub fn sweep(heap: &mut Heap, live: &BitSet, _live_stubs: &FxHashSet<RefId>) -> SweepResult {
    let mut result = SweepResult::default();
    sweep_into(heap, live, &mut result.freed);
    result
}

fn sweep_into(heap: &mut Heap, live: &BitSet, freed: &mut Vec<ObjId>) {
    freed.clear();
    for slot in 0..heap.slot_upper_bound() as Slot {
        if live.contains(slot as usize) {
            continue;
        }
        if let Some(id) = heap.id_of_slot(slot) {
            heap.free_slot(slot).expect("occupied slot");
            freed.push(id);
        }
    }
}

/// One full collection: its mark, what its sweep freed (in slot order),
/// and the worklist, kept so the next [`collect_into`] reuses them all.
#[derive(Clone, Debug, Default)]
pub struct Collection {
    pub mark: MarkResult,
    pub freed: Vec<ObjId>,
    queue: Vec<Slot>,
}

/// One full mark-sweep collection with the given scion targets.
pub fn collect(heap: &mut Heap, scion_targets: &[Slot]) -> Collection {
    let mut out = Collection::default();
    collect_into(heap, scion_targets, &mut out);
    out
}

/// [`collect`] into a caller-owned [`Collection`], which is cleared and
/// refilled: a process that keeps one allocates nothing in a steady-state
/// collection.
pub fn collect_into(heap: &mut Heap, scion_targets: &[Slot], out: &mut Collection) {
    mark_into(heap, scion_targets, &mut out.mark, &mut out.queue);
    sweep_into(heap, &out.mark.live, &mut out.freed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::HeapRef;
    use acdgc_model::ProcId;

    fn chain(heap: &mut Heap, n: usize) -> Vec<ObjId> {
        let ids: Vec<ObjId> = (0..n).map(|_| heap.alloc(1)).collect();
        for w in ids.windows(2) {
            heap.add_ref(w[0], HeapRef::Local(w[1].slot)).unwrap();
        }
        ids
    }

    #[test]
    fn unreachable_objects_are_swept() {
        let mut h = Heap::new(ProcId(0));
        let ids = chain(&mut h, 3);
        h.add_root(ids[0]).unwrap();
        let orphan = h.alloc(1);
        let result = collect(&mut h, &[]);
        assert_eq!(result.freed, vec![orphan]);
        assert_eq!(h.stats().live_objects, 3);
    }

    #[test]
    fn scion_targets_keep_objects_alive() {
        let mut h = Heap::new(ProcId(0));
        let ids = chain(&mut h, 3);
        // No roots at all: only the scion target protects the chain.
        let result = collect(&mut h, &[ids[0].slot]);
        assert!(result.freed.is_empty());
        assert!(result.mark.live.contains(ids[2].slot as usize));
    }

    #[test]
    fn dead_stub_reporting() {
        let mut h = Heap::new(ProcId(0));
        let holder = h.alloc(1);
        h.add_ref(holder, HeapRef::Remote(RefId(42))).unwrap();
        // holder is garbage: its stub must be reported dead.
        let result = collect(&mut h, &[]);
        assert_eq!(result.freed, vec![holder]);
        assert_eq!(result.mark.dead_stubs_among([RefId(42)]), vec![RefId(42)]);
    }

    #[test]
    fn stub_shared_with_live_holder_survives() {
        let mut h = Heap::new(ProcId(0));
        let live = h.alloc(1);
        h.add_root(live).unwrap();
        let dead = h.alloc(1);
        h.add_ref(live, HeapRef::Remote(RefId(1))).unwrap();
        h.add_ref(dead, HeapRef::Remote(RefId(1))).unwrap();
        let result = collect(&mut h, &[]);
        assert_eq!(result.freed, vec![dead]);
        assert!(
            result.mark.dead_stubs_among([RefId(1)]).is_empty(),
            "stub still held by a live object must not be reported dead"
        );
        assert!(result.mark.live_stubs.contains(&RefId(1)));
    }

    #[test]
    fn local_cycle_is_collected() {
        let mut h = Heap::new(ProcId(0));
        let a = h.alloc(1);
        let b = h.alloc(1);
        h.add_ref(a, HeapRef::Local(b.slot)).unwrap();
        h.add_ref(b, HeapRef::Local(a.slot)).unwrap();
        let result = collect(&mut h, &[]);
        assert_eq!(result.freed.len(), 2, "local cycles are collected");
    }

    #[test]
    fn closure_records_stubs_without_following() {
        let mut h = Heap::new(ProcId(0));
        let a = h.alloc(1);
        let b = h.alloc(1);
        h.add_ref(a, HeapRef::Local(b.slot)).unwrap();
        h.add_ref(b, HeapRef::Remote(RefId(5))).unwrap();
        let c = closure(&h, [a.slot]);
        assert_eq!(c.slots.count(), 2);
        assert!(c.stubs.contains(&RefId(5)));
    }

    #[test]
    fn collect_into_reuses_buffers_and_matches() {
        let mut h = Heap::new(ProcId(0));
        let ids = chain(&mut h, 4);
        h.add_root(ids[0]).unwrap();
        h.add_ref(ids[3], HeapRef::Remote(RefId(9))).unwrap();
        let orphan = h.alloc(1);
        let mut kept = Collection::default();
        collect_into(&mut h, &[], &mut kept);
        assert_eq!(kept.freed, vec![orphan]);
        // Cut the chain: the second run must fully reset the kept buffers.
        h.remove_ref(ids[1], HeapRef::Local(ids[2].slot)).unwrap();
        let mut fresh_heap = h.clone();
        collect_into(&mut h, &[], &mut kept);
        let fresh = collect(&mut fresh_heap, &[]);
        assert_eq!(kept.freed, fresh.freed);
        assert_eq!(
            kept.mark.live.iter().collect::<Vec<_>>(),
            fresh.mark.live.iter().collect::<Vec<_>>()
        );
        assert!(kept.mark.live_stubs.is_empty());
    }

    #[test]
    fn closure_tolerates_dangling_seed() {
        let mut h = Heap::new(ProcId(0));
        let a = h.alloc(1);
        h.free_slot(a.slot);
        let c = closure(&h, [a.slot]);
        assert!(c.slots.is_empty());
    }

    #[test]
    fn self_referencing_root_survives() {
        let mut h = Heap::new(ProcId(0));
        let a = h.alloc(1);
        h.add_ref(a, HeapRef::Local(a.slot)).unwrap();
        h.add_root(a).unwrap();
        let result = collect(&mut h, &[]);
        assert!(result.freed.is_empty());
    }

    #[test]
    fn sweep_is_idempotent() {
        let mut h = Heap::new(ProcId(0));
        let _orphan = h.alloc(1);
        let first = collect(&mut h, &[]);
        assert_eq!(first.freed.len(), 1);
        let second = collect(&mut h, &[]);
        assert!(second.freed.is_empty());
    }

    #[test]
    fn diamond_graph_marked_once() {
        // a -> b, a -> c, b -> d, c -> d : closure must visit d once.
        let mut h = Heap::new(ProcId(0));
        let a = h.alloc(1);
        let b = h.alloc(1);
        let c = h.alloc(1);
        let d = h.alloc(1);
        h.add_ref(a, HeapRef::Local(b.slot)).unwrap();
        h.add_ref(a, HeapRef::Local(c.slot)).unwrap();
        h.add_ref(b, HeapRef::Local(d.slot)).unwrap();
        h.add_ref(c, HeapRef::Local(d.slot)).unwrap();
        let cl = closure(&h, [a.slot]);
        assert_eq!(cl.slots.count(), 4);
    }
}
