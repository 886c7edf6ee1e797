//! Property tests: the single-pass SCC engine (dense and aliased), the
//! adaptive dispatcher and the reference per-scion summarizer all agree —
//! on arbitrary static worlds and across arbitrary mutation sequences (edge edits,
//! root flips, local collections, stub/scion churn, scion re-incarnation,
//! invocations). The engine's output is checked for *exact* equality with
//! the reference (same maps, same sorted vectors, same incarnation and
//! `local_reach` bits), not just semantic equivalence.

use acdgc_heap::{lgc, Heap, HeapRef};
use acdgc_model::{ObjId, ProcId, RefId, SimTime};
use acdgc_remoting::RemotingTables;
use acdgc_snapshot::{summarize, SccEngine, SummarizePath};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[derive(Debug, Clone)]
struct WorldRecipe {
    payloads: Vec<u32>,
    edges: Vec<(usize, usize)>,
    roots: Vec<usize>,
    stubs: Vec<(usize, u16)>,  // (holder, target proc)
    scions: Vec<(usize, u16)>, // (target, from proc)
}

fn world_recipe() -> impl Strategy<Value = WorldRecipe> {
    (1usize..12).prop_flat_map(|objects| {
        (
            prop::collection::vec(0u32..4, objects..=objects),
            prop::collection::vec((0..objects, 0..objects), 0..28),
            prop::collection::vec(0..objects, 0..4),
            prop::collection::vec((0..objects, 1u16..4), 0..6),
            prop::collection::vec((0..objects, 1u16..4), 0..6),
        )
            .prop_map(|(payloads, edges, roots, stubs, scions)| WorldRecipe {
                payloads,
                edges,
                roots,
                stubs,
                scions,
            })
    })
}

struct World {
    heap: Heap,
    tables: RemotingTables,
    next_ref: u64,
    clock: u64,
}

fn build(recipe: &WorldRecipe) -> World {
    let mut heap = Heap::new(ProcId(0));
    let mut tables = RemotingTables::new(ProcId(0));
    let ids: Vec<ObjId> = recipe.payloads.iter().map(|&p| heap.alloc(p)).collect();
    for &(f, t) in &recipe.edges {
        heap.add_ref(ids[f], HeapRef::Local(ids[t].slot)).unwrap();
    }
    for &r in &recipe.roots {
        heap.add_root(ids[r]).unwrap();
    }
    let mut next_ref = 0u64;
    for &(holder, proc) in &recipe.stubs {
        let r = RefId(next_ref);
        next_ref += 1;
        tables.add_stub(r, ObjId::new(ProcId(proc), r.0 as u32, 0), SimTime(0));
        heap.add_ref(ids[holder], HeapRef::Remote(r)).unwrap();
    }
    for &(target, proc) in &recipe.scions {
        if tables.scion_for_source(ProcId(proc), ids[target]).is_none() {
            let r = RefId(next_ref);
            next_ref += 1;
            tables.add_scion(r, ids[target], ProcId(proc), SimTime(0));
        }
    }
    World {
        heap,
        tables,
        next_ref,
        clock: 1,
    }
}

/// Apply one mutation.
fn apply(world: &mut World, op: (u8, usize, usize)) {
    let (kind, a, b) = op;
    let n = world.heap.slot_upper_bound().max(1);
    let sa = (a % n) as u32;
    let now = SimTime(world.clock);
    match kind % 9 {
        0 => {
            // Add a local edge.
            let to_slot = (b % n) as u32;
            if let (Some(from), Some(to)) =
                (world.heap.id_of_slot(sa), world.heap.id_of_slot(to_slot))
            {
                world.heap.add_ref(from, HeapRef::Local(to.slot)).unwrap();
            }
        }
        1 => {
            // Remove one reference field.
            if let Some(from) = world.heap.id_of_slot(sa) {
                let refs = world.heap.get(from).unwrap().refs.clone();
                if !refs.is_empty() {
                    world.heap.remove_ref(from, refs[b % refs.len()]).unwrap();
                }
            }
        }
        2 => {
            if let Some(id) = world.heap.id_of_slot(sa) {
                world.heap.add_root(id).unwrap();
            }
        }
        3 => {
            if let Some(id) = world.heap.id_of_slot(sa) {
                world.heap.remove_root(id).unwrap();
            }
        }
        4 => {
            // Local collection: frees slots and kills orphaned stubs.
            let targets = world.tables.scion_target_slots();
            let result = lgc::collect(&mut world.heap, &targets);
            world.tables.remove_dead_stubs(&result.sweep.dead_stubs);
        }
        5 => {
            // New stub held by an existing object.
            if let Some(holder) = world.heap.id_of_slot(sa) {
                let r = RefId(world.next_ref);
                world.next_ref += 1;
                world.tables.add_stub(
                    r,
                    ObjId::new(ProcId(1 + (b % 3) as u16), r.0 as u32, 0),
                    now,
                );
                world.heap.add_ref(holder, HeapRef::Remote(r)).unwrap();
            }
        }
        6 => {
            // New scion protecting an existing object.
            if let Some(target) = world.heap.id_of_slot(sa) {
                let from = ProcId(1 + (b % 3) as u16);
                if world.tables.scion_for_source(from, target).is_none() {
                    let r = RefId(world.next_ref);
                    world.next_ref += 1;
                    world.tables.add_scion(r, target, from, now);
                }
            }
        }
        7 => {
            // Remove a scion; sometimes re-establish it under the same
            // RefId, which must bump the incarnation everywhere.
            let ids: Vec<RefId> = world.tables.scions().map(|s| s.ref_id).collect();
            if !ids.is_empty() {
                let r = ids[a % ids.len()];
                let old = world.tables.remove_scion(r).unwrap();
                if b % 2 == 0 {
                    if let Some(target) = world.heap.id_of_slot(old.target.slot) {
                        world.tables.add_scion(r, target, old.from_proc, now);
                    }
                }
            }
        }
        _ => {
            // Invocation arriving through a scion.
            let ids: Vec<RefId> = world.tables.scions().map(|s| s.ref_id).collect();
            if !ids.is_empty() {
                let r = ids[a % ids.len()];
                world.tables.record_receive_through_scion(r, now).unwrap();
            }
        }
    }
    world.clock += 1;
}

/// The summarizers agree on the current world state; the engine is held
/// to exact output equality with the reference.
fn check(world: &World, engine: &mut SccEngine, version: u64) -> Result<(), TestCaseError> {
    let t = SimTime(world.clock);
    let reference = summarize(&world.heap, &world.tables, version, t);
    let by_engine = engine.summarize(&world.heap, &world.tables, version, t);
    prop_assert_eq!(&by_engine.scions, &reference.scions);
    prop_assert_eq!(&by_engine.stubs, &reference.stubs);
    prop_assert_eq!(by_engine.proc, reference.proc);
    // The adaptive dispatcher must be exact whichever path it picks —
    // these small worlds mostly land on the reference side of the cost
    // model, and the reuse of `engine` right after a dense run also
    // exercises scratch/cache invalidation across the two entry points.
    let by_adaptive = engine.summarize_adaptive(&world.heap, &world.tables, version, t);
    prop_assert_eq!(&by_adaptive.scions, &reference.scions);
    prop_assert_eq!(&by_adaptive.stubs, &reference.stubs);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Static worlds: one-shot agreement of all implementations.
    #[test]
    fn engine_matches_reference_on_static_worlds(recipe in world_recipe()) {
        let world = build(&recipe);
        let mut engine = SccEngine::new();
        check(&world, &mut engine, 1)?;
    }

    /// Mutation sequences: after every mutation the persistent engine
    /// (scratch reuse path) still matches a from-scratch reference
    /// summarization.
    #[test]
    fn summarizers_agree_across_mutation_sequences(
        recipe in world_recipe(),
        ops in prop::collection::vec((0u8..9, 0usize..64, 0usize..64), 0..20),
    ) {
        let mut world = build(&recipe);
        let mut engine = SccEngine::new();
        let mut version = 1;
        check(&world, &mut engine, version)?;
        for op in ops {
            apply(&mut world, op);
            version += 1;
            check(&world, &mut engine, version)?;
        }
    }

    /// Worlds built to straddle the adaptive dispatcher's cost boundary:
    /// disjoint scion chains (the engine's aliasing sweet spot) plus a
    /// converging web (the reference's worst case), with the total scion
    /// count sweeping across the Reference/Engine switchover. Adaptive
    /// output must equal the reference exactly on both sides, and the
    /// decision must agree with the cost model in the regimes where the
    /// model's answer is forced: with S <= 2 scions the reference bound
    /// (S+1)·graph never exceeds the engine's 3·graph floor, and with
    /// S >= 4 the world is large enough that it always does.
    #[test]
    fn adaptive_exact_across_dispatch_boundary(
        chains in 0usize..24,
        len in 1usize..6,
        web in 0usize..12,
        root_hub in 0u8..2,
    ) {
        let mut heap = Heap::new(ProcId(0));
        let mut tables = RemotingTables::new(ProcId(0));
        let mut next_scion = 0u64;
        for _ in 0..chains {
            let ids: Vec<ObjId> = (0..len).map(|_| heap.alloc(1)).collect();
            for pair in ids.windows(2) {
                heap.add_ref(pair[0], HeapRef::Local(pair[1].slot)).unwrap();
            }
            let stub = RefId(1000 + next_scion);
            tables.add_scion(RefId(next_scion), ids[0], ProcId(1), SimTime(0));
            tables.add_stub(stub, ObjId::new(ProcId(1), stub.0 as u32, 0), SimTime(0));
            heap.add_ref(*ids.last().unwrap(), HeapRef::Remote(stub)).unwrap();
            next_scion += 1;
        }
        if web > 0 {
            let hub = heap.alloc(1);
            tables.add_stub(RefId(999), ObjId::new(ProcId(2), 0, 0), SimTime(0));
            heap.add_ref(hub, HeapRef::Remote(RefId(999))).unwrap();
            if root_hub == 1 {
                heap.add_root(hub).unwrap();
            }
            for _ in 0..web {
                let spoke = heap.alloc(1);
                heap.add_ref(spoke, HeapRef::Local(hub.slot)).unwrap();
                tables.add_scion(RefId(next_scion), spoke, ProcId(3), SimTime(0));
                next_scion += 1;
            }
        }
        let mut engine = SccEngine::new();
        let reference = summarize(&heap, &tables, 1, SimTime(0));
        let adaptive = engine.summarize_adaptive(&heap, &tables, 1, SimTime(0));
        prop_assert_eq!(&adaptive.scions, &reference.scions);
        prop_assert_eq!(&adaptive.stubs, &reference.stubs);
        let d = engine.last_dispatch();
        prop_assert_eq!(d.scions, chains + web);
        if chains + web <= 2 {
            prop_assert_eq!(d.path, SummarizePath::Reference);
        } else if chains + web >= 4 {
            prop_assert_eq!(d.path, SummarizePath::Engine);
        }
    }

    /// Clean re-summarizations (no mutator events between snapshots) keep
    /// the implementations in agreement through the engine's scratch-reuse
    /// path.
    #[test]
    fn repeated_clean_snapshots_stay_in_agreement(recipe in world_recipe()) {
        let world = build(&recipe);
        let mut engine = SccEngine::new();
        for version in 1..4u64 {
            check(&world, &mut engine, version)?;
        }
    }
}
