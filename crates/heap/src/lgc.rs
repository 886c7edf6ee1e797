//! Mark-sweep local garbage collector.
//!
//! The LGC traces from two seed sets, as required by the reference-listing
//! algorithm (§4 of the paper):
//!
//! * the process's local **roots**, and
//! * the **scion targets** supplied by the remoting layer (objects kept
//!   alive solely because remote processes reference them).
//!
//! Besides reclaiming unreachable slots, it reports the reachability facts
//! consumed upstream: the root-reachable slot set (needed for the
//! summarizer's `Local.Reach` bits), the live stub set (the basis of
//! `NewSetStubs` messages) and the stubs that died with this collection.

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

/// Reusable buffers for [`closure_into`]. Call sites that trace
/// repeatedly (periodic collections, every snapshot) keep one of these and
/// amortize the mark bitmap and worklist allocations to zero.
#[derive(Clone, Debug, Default)]
pub struct ClosureScratch {
    queue: Vec<Slot>,
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
    closure_into(heap, seeds, &mut out, &mut ClosureScratch::default());
    out
}

/// [`closure`] writing into caller-owned buffers: `out` is cleared and
/// refilled (its `BitSet` and hash-set allocations are kept), and the
/// breadth-first worklist lives in `scratch`.
pub fn closure_into(
    heap: &Heap,
    seeds: impl IntoIterator<Item = Slot>,
    out: &mut Closure,
    scratch: &mut ClosureScratch,
) {
    out.slots.clear();
    out.stubs.clear();
    let queue = &mut scratch.queue;
    queue.clear();
    for seed in seeds {
        if heap.get_slot(seed).is_some() && out.slots.insert(seed as usize) {
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
                    if heap.get_slot(next).is_some() && out.slots.insert(next as usize) {
                        queue.push(next);
                    }
                }
                crate::object::HeapRef::Remote(ref_id) => {
                    out.stubs.insert(ref_id);
                }
            }
        }
    }
}

/// Result of the mark phase.
#[derive(Clone, Debug)]
pub struct MarkResult {
    /// Slots reachable from local roots only.
    pub root_reachable: BitSet,
    /// Slots reachable from roots or scion targets: the live set.
    pub live: BitSet,
    /// Stubs held by root-reachable objects (their `Local.Reach` is true).
    pub root_reachable_stubs: FxHashSet<RefId>,
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

/// Mark phase: trace from roots, then extend with the scion targets.
pub fn mark(heap: &Heap, scion_targets: &[Slot]) -> MarkResult {
    let from_roots = closure(heap, heap.roots());
    let full = closure(heap, heap.roots().chain(scion_targets.iter().copied()));
    MarkResult {
        root_reachable: from_roots.slots,
        live: full.slots,
        root_reachable_stubs: from_roots.stubs,
        live_stubs: full.stubs,
    }
}

/// Result of the sweep phase.
#[derive(Clone, Debug, Default)]
pub struct SweepResult {
    /// Handles of the reclaimed objects (their pre-free identity).
    pub freed: Vec<ObjId>,
    /// Remote references that were held *only* by reclaimed objects: the
    /// corresponding stubs are dead and must leave the remoting table.
    pub dead_stubs: Vec<RefId>,
}

/// Sweep: free every slot not in `live`, collecting the stubs that die.
pub fn sweep(heap: &mut Heap, live: &BitSet, live_stubs: &FxHashSet<RefId>) -> SweepResult {
    let mut result = SweepResult::default();
    let mut dead_stub_set: FxHashSet<RefId> = FxHashSet::default();
    let upper = heap.slot_upper_bound() as Slot;
    for slot in 0..upper {
        if live.contains(slot as usize) {
            continue;
        }
        if let Some(id) = heap.id_of_slot(slot) {
            let record = heap.free_slot(slot).expect("occupied slot");
            result.freed.push(id);
            for ref_id in record.remote_refs() {
                if !live_stubs.contains(&ref_id) {
                    dead_stub_set.insert(ref_id);
                }
            }
        }
    }
    result.dead_stubs = dead_stub_set.into_iter().collect();
    result.dead_stubs.sort_unstable();
    result
}

/// Result of a full collection.
#[derive(Clone, Debug)]
pub struct CollectResult {
    pub mark: MarkResult,
    pub sweep: SweepResult,
}

/// One full mark-sweep collection with the given scion targets.
pub fn collect(heap: &mut Heap, scion_targets: &[Slot]) -> CollectResult {
    let mark = mark(heap, scion_targets);
    let sweep = sweep(heap, &mark.live, &mark.live_stubs);
    CollectResult { mark, sweep }
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
        assert_eq!(result.sweep.freed, vec![orphan]);
        assert_eq!(h.stats().live_objects, 3);
    }

    #[test]
    fn scion_targets_keep_objects_alive() {
        let mut h = Heap::new(ProcId(0));
        let ids = chain(&mut h, 3);
        // No roots at all: only the scion target protects the chain.
        let result = collect(&mut h, &[ids[0].slot]);
        assert!(result.sweep.freed.is_empty());
        assert!(result.mark.live.contains(ids[2].slot as usize));
        assert!(
            !result.mark.root_reachable.contains(ids[0].slot as usize),
            "scion-kept objects are not root-reachable"
        );
    }

    #[test]
    fn root_reachable_vs_live_distinction() {
        let mut h = Heap::new(ProcId(0));
        let rooted = h.alloc(1);
        h.add_root(rooted).unwrap();
        let scion_kept = h.alloc(1);
        let mark = mark(&h, &[scion_kept.slot]);
        assert!(mark.root_reachable.contains(rooted.slot as usize));
        assert!(!mark.root_reachable.contains(scion_kept.slot as usize));
        assert!(mark.live.contains(scion_kept.slot as usize));
    }

    #[test]
    fn dead_stub_reporting() {
        let mut h = Heap::new(ProcId(0));
        let holder = h.alloc(1);
        h.add_ref(holder, HeapRef::Remote(RefId(42))).unwrap();
        // holder is garbage: its stub must be reported dead.
        let result = collect(&mut h, &[]);
        assert_eq!(result.sweep.freed, vec![holder]);
        assert_eq!(result.sweep.dead_stubs, vec![RefId(42)]);
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
        assert_eq!(result.sweep.freed, vec![dead]);
        assert!(
            result.sweep.dead_stubs.is_empty(),
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
        assert_eq!(result.sweep.freed.len(), 2, "local cycles are collected");
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
    fn closure_into_reuses_buffers_and_matches() {
        let mut h = Heap::new(ProcId(0));
        let ids = chain(&mut h, 4);
        h.add_ref(ids[3], HeapRef::Remote(RefId(9))).unwrap();
        let fresh = closure(&h, [ids[0].slot]);
        let mut out = Closure::default();
        let mut scratch = ClosureScratch::default();
        // Pre-dirty the buffers: closure_into must fully reset them.
        out.slots.insert(123);
        out.stubs.insert(RefId(77));
        closure_into(&h, [ids[0].slot], &mut out, &mut scratch);
        // Compare contents, not representation: the pre-dirtied bitset
        // keeps its larger backing allocation after the clear.
        assert_eq!(
            out.slots.iter().collect::<Vec<_>>(),
            fresh.slots.iter().collect::<Vec<_>>()
        );
        assert_eq!(out.stubs, fresh.stubs);
        // Second run over a different seed reuses the same allocations.
        closure_into(&h, [ids[2].slot], &mut out, &mut scratch);
        assert_eq!(out.slots.count(), 2);
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
        assert!(result.sweep.freed.is_empty());
    }

    #[test]
    fn sweep_is_idempotent() {
        let mut h = Heap::new(ProcId(0));
        let _orphan = h.alloc(1);
        let first = collect(&mut h, &[]);
        assert_eq!(first.sweep.freed.len(), 1);
        let second = collect(&mut h, &[]);
        assert!(second.sweep.freed.is_empty());
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
