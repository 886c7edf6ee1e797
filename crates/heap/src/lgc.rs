//! Mark-sweep local garbage collector.
//!
//! The LGC traces from two seed sets, as required by the reference-listing
//! algorithm (§4 of the paper):
//!
//! * the process's local **roots**, and
//! * the **scion targets** supplied by the remoting layer (objects kept
//!   alive solely because remote processes reference them).
//!
//! Besides reclaiming unreachable slots, a mark reports the live stub set:
//! the basis of `NewSetStubs` messages, and, by its complement over the
//! stub table ([`MarkResult::dead_stubs_among`]), the stubs that died with
//! this collection.
//!
//! The runtimes do not mark with this module. A process's collection marks
//! with its summarizer's Tarjan pass (`acdgc_snapshot::SccEngine::collect`),
//! which visits exactly the set [`mark`] visits and keeps the condensation
//! for the next snapshot, then frees the rest with [`sweep_into`]. The
//! breadth-first [`mark`], [`closure`] and [`collect`] stay for the
//! summarization oracle, the Hughes baseline, tests and the benchmark's
//! layer probes.

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

/// The breadth-first closure behind [`closure`] and [`mark`], into the
/// given buffers: `slots` and `stubs` are cleared and refilled, and
/// `queue` is the worklist.
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
    let seeds = heap.roots().chain(scion_targets.iter().copied());
    trace(
        heap,
        seeds,
        &mut out.live,
        &mut out.live_stubs,
        &mut Vec::new(),
    );
    out
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
    sweep_into(heap, |slot| live.contains(slot as usize), &mut result.freed);
    result
}

/// Free every occupied slot `is_live` rejects. `freed` is cleared and
/// refilled with the reclaimed handles in slot order (its allocation is
/// kept).
pub fn sweep_into(heap: &mut Heap, is_live: impl Fn(Slot) -> bool, freed: &mut Vec<ObjId>) {
    freed.clear();
    for slot in 0..heap.slot_upper_bound() as Slot {
        if is_live(slot) {
            continue;
        }
        if let Some(id) = heap.id_of_slot(slot) {
            heap.free_slot(slot).expect("occupied slot");
            freed.push(id);
        }
    }
}

/// One full breadth-first mark-sweep collection with the given scion
/// targets: the mark, and what the sweep freed (in slot order).
pub fn collect(heap: &mut Heap, scion_targets: &[Slot]) -> (MarkResult, SweepResult) {
    let marked = mark(heap, scion_targets);
    let swept = sweep(heap, &marked.live, &marked.live_stubs);
    (marked, swept)
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
        let (_, swept) = collect(&mut h, &[]);
        assert_eq!(swept.freed, vec![orphan]);
        assert_eq!(h.stats().live_objects, 3);
    }

    #[test]
    fn scion_targets_keep_objects_alive() {
        let mut h = Heap::new(ProcId(0));
        let ids = chain(&mut h, 3);
        // No roots at all: only the scion target protects the chain.
        let (marked, swept) = collect(&mut h, &[ids[0].slot]);
        assert!(swept.freed.is_empty());
        assert!(marked.live.contains(ids[2].slot as usize));
    }

    #[test]
    fn dead_stub_reporting() {
        let mut h = Heap::new(ProcId(0));
        let holder = h.alloc(1);
        h.add_ref(holder, HeapRef::Remote(RefId(42))).unwrap();
        // holder is garbage: its stub must be reported dead.
        let (marked, swept) = collect(&mut h, &[]);
        assert_eq!(swept.freed, vec![holder]);
        assert_eq!(marked.dead_stubs_among([RefId(42)]), vec![RefId(42)]);
    }

    #[test]
    fn stub_shared_with_live_holder_survives() {
        let mut h = Heap::new(ProcId(0));
        let live = h.alloc(1);
        h.add_root(live).unwrap();
        let dead = h.alloc(1);
        h.add_ref(live, HeapRef::Remote(RefId(1))).unwrap();
        h.add_ref(dead, HeapRef::Remote(RefId(1))).unwrap();
        let (marked, swept) = collect(&mut h, &[]);
        assert_eq!(swept.freed, vec![dead]);
        assert!(
            marked.dead_stubs_among([RefId(1)]).is_empty(),
            "stub still held by a live object must not be reported dead"
        );
        assert!(marked.live_stubs.contains(&RefId(1)));
    }

    #[test]
    fn local_cycle_is_collected() {
        let mut h = Heap::new(ProcId(0));
        let a = h.alloc(1);
        let b = h.alloc(1);
        h.add_ref(a, HeapRef::Local(b.slot)).unwrap();
        h.add_ref(b, HeapRef::Local(a.slot)).unwrap();
        let (_, swept) = collect(&mut h, &[]);
        assert_eq!(swept.freed.len(), 2, "local cycles are collected");
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
    fn sweep_into_reuses_its_buffer_and_matches_sweep() {
        let mut h = Heap::new(ProcId(0));
        let ids = chain(&mut h, 4);
        h.add_root(ids[0]).unwrap();
        let orphan = h.alloc(1);
        let mut freed = vec![orphan, orphan];
        let live = mark(&h, &[]).live;
        sweep_into(&mut h, |slot| live.contains(slot as usize), &mut freed);
        assert_eq!(freed, vec![orphan], "the buffer is cleared first");
        // Cut the chain: the predicate alone decides, in slot order.
        h.remove_ref(ids[1], HeapRef::Local(ids[2].slot)).unwrap();
        let mut twin = h.clone();
        let live = mark(&h, &[]).live;
        sweep_into(&mut h, |slot| live.contains(slot as usize), &mut freed);
        let (_, swept) = collect(&mut twin, &[]);
        assert_eq!(freed, swept.freed);
        assert_eq!(freed, vec![ids[2], ids[3]]);
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
        let (_, swept) = collect(&mut h, &[]);
        assert!(swept.freed.is_empty());
    }

    #[test]
    fn sweep_is_idempotent() {
        let mut h = Heap::new(ProcId(0));
        let _orphan = h.alloc(1);
        let (_, first) = collect(&mut h, &[]);
        assert_eq!(first.freed.len(), 1);
        let (_, second) = collect(&mut h, &[]);
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
