//! Property tests for the heap and the mark-sweep LGC.

use acdgc_heap::{collect, lgc, Heap, HeapRef};
use acdgc_model::{ObjId, ProcId, RefId, Slot};
use proptest::prelude::*;

/// A recipe for building a heap deterministically from proptest inputs.
#[derive(Debug, Clone)]
struct HeapRecipe {
    objects: usize,
    edges: Vec<(usize, usize)>,
    remote: Vec<(usize, u64)>,
    roots: Vec<usize>,
    scion_targets: Vec<usize>,
}

fn recipe() -> impl Strategy<Value = HeapRecipe> {
    (2usize..24).prop_flat_map(|objects| {
        (
            Just(objects),
            prop::collection::vec((0..objects, 0..objects), 0..48),
            prop::collection::vec((0..objects, 0u64..8), 0..12),
            prop::collection::vec(0..objects, 0..4),
            prop::collection::vec(0..objects, 0..4),
        )
            .prop_map(
                |(objects, edges, remote, roots, scion_targets)| HeapRecipe {
                    objects,
                    edges,
                    remote,
                    roots,
                    scion_targets,
                },
            )
    })
}

fn build(recipe: &HeapRecipe) -> (Heap, Vec<ObjId>, Vec<Slot>) {
    let mut heap = Heap::new(ProcId(0));
    let ids: Vec<ObjId> = (0..recipe.objects).map(|_| heap.alloc(1)).collect();
    for &(f, t) in &recipe.edges {
        heap.add_ref(ids[f], HeapRef::Local(ids[t].slot)).unwrap();
    }
    for &(f, r) in &recipe.remote {
        heap.add_ref(ids[f], HeapRef::Remote(RefId(r))).unwrap();
    }
    for &r in &recipe.roots {
        heap.add_root(ids[r]).unwrap();
    }
    let scions: Vec<Slot> = recipe.scion_targets.iter().map(|&i| ids[i].slot).collect();
    (heap, ids, scions)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// After a collection, exactly the closure of roots ∪ scion targets
    /// survives.
    #[test]
    fn collect_leaves_exactly_the_reachable(recipe in recipe()) {
        let (mut heap, ids, scions) = build(&recipe);
        let expected = lgc::closure(
            &heap,
            heap.roots().chain(scions.iter().copied()).collect::<Vec<_>>(),
        );
        let expected_count = expected.slots.count();
        let (marked, _) = collect(&mut heap, &scions);
        prop_assert_eq!(heap.stats().live_objects, expected_count);
        for id in &ids {
            prop_assert_eq!(
                heap.contains(*id),
                expected.slots.contains(id.slot as usize),
                "object {:?}", id
            );
        }
        // Live stubs reported == remote refs of surviving objects.
        prop_assert_eq!(marked.live_stubs, heap.all_remote_refs());
    }

    /// Collection is idempotent: a second run frees nothing.
    #[test]
    fn collect_is_idempotent(recipe in recipe()) {
        let (mut heap, _ids, scions) = build(&recipe);
        let (first, _) = collect(&mut heap, &scions);
        let (second, swept) = collect(&mut heap, &scions);
        prop_assert!(swept.freed.is_empty());
        prop_assert!(second
            .dead_stubs_among(first.live_stubs.iter().copied())
            .is_empty());
    }

    /// The mark is exactly the closure of roots ∪ scion targets: its live
    /// set that closure's slots, its live stubs that closure's stubs.
    #[test]
    fn mark_is_the_closure_of_roots_and_scion_targets(recipe in recipe()) {
        let (heap, _ids, scions) = build(&recipe);
        let mark = lgc::mark(&heap, &scions);
        let expected = lgc::closure(&heap, heap.roots().chain(scions.iter().copied()));
        prop_assert_eq!(
            mark.live.iter().collect::<Vec<_>>(),
            expected.slots.iter().collect::<Vec<_>>()
        );
        prop_assert_eq!(mark.live_stubs, expected.stubs);
    }

    /// Slot reuse never resurrects a stale handle.
    #[test]
    fn stale_handles_stay_stale(recipe in recipe()) {
        let (mut heap, ids, scions) = build(&recipe);
        collect(&mut heap, &scions);
        let dead: Vec<ObjId> = ids.iter().copied().filter(|o| !heap.contains(*o)).collect();
        // Allocate as many new objects as were freed: slots get reused.
        for _ in 0..dead.len() {
            heap.alloc(1);
        }
        for d in dead {
            prop_assert!(!heap.contains(d), "stale {:?} resurrected", d);
        }
    }
}
