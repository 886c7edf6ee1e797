//! Property tests: the SCC engine, which summarizes every snapshot, equals
//! the oracle — [`summarize`], the paper's per-scion breadth-first
//! formulation — on arbitrary static worlds and across arbitrary mutation
//! sequences (edge edits, root flips, local collections, stub/scion churn,
//! scion re-incarnation, invocations). Equality is *exact* (same maps, same
//! sorted vectors, same incarnation and `local_reach` bits), not just
//! semantic equivalence.

use acdgc_heap::{lgc, Heap, HeapRef};
use acdgc_model::{ObjId, ProcId, RefId, SimTime};
use acdgc_remoting::RemotingTables;
use acdgc_snapshot::{summarize, SccEngine};
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
            let mark = lgc::collect(&mut world.heap, &targets).mark;
            let dead = mark.dead_stubs_among(world.tables.stubs().map(|s| s.ref_id));
            world.tables.remove_dead_stubs(&dead);
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

/// The engine's summary of `heap` + `tables` equals the oracle's exactly.
fn exact(
    engine: &mut SccEngine,
    heap: &Heap,
    tables: &RemotingTables,
    version: u64,
    t: SimTime,
) -> Result<(), TestCaseError> {
    let oracle = summarize(heap, tables, version, t);
    let by_engine = engine.summarize(heap, tables, version, t);
    prop_assert_eq!(&by_engine.scions, &oracle.scions);
    prop_assert_eq!(&by_engine.stubs, &oracle.stubs);
    prop_assert_eq!(by_engine.proc, oracle.proc);
    Ok(())
}

fn check(world: &World, engine: &mut SccEngine, version: u64) -> Result<(), TestCaseError> {
    let t = SimTime(world.clock);
    exact(engine, &world.heap, &world.tables, version, t)
}

/// Allocate an object holding a fresh stub `r`.
fn stub_holder(heap: &mut Heap, tables: &mut RemotingTables, r: RefId) -> ObjId {
    let holder = heap.alloc(1);
    tables.add_stub(r, ObjId::new(ProcId(2), r.0 as u32, 0), SimTime(0));
    heap.add_ref(holder, HeapRef::Remote(r)).unwrap();
    holder
}

/// Worlds shaped for the condensation Tarjan records: chains with back
/// edges (large SCCs), edges between chains in both directions (so fields
/// reach finished components through tree and non-tree edges alike),
/// repeated fields, stubs held inside SCCs, and roots anywhere.
#[derive(Debug, Clone)]
struct SccRecipe {
    chains: Vec<usize>,
    /// (chain, a, b): an edge from the later to the earlier of positions
    /// `a` and `b` of one chain.
    back: Vec<(usize, usize, usize)>,
    /// (from, to) over all objects, in allocation order.
    cross: Vec<(usize, usize)>,
    /// Fields (by index into those added) added a second time.
    dups: Vec<usize>,
    stubs: Vec<usize>,
    scions: Vec<usize>,
    roots: Vec<usize>,
}

fn scc_recipe() -> impl Strategy<Value = SccRecipe> {
    let objects = 0usize..1_000;
    (
        prop::collection::vec(2usize..40, 1..5),
        prop::collection::vec((0usize..5, 0usize..40, 0usize..40), 0..12),
        prop::collection::vec((objects.clone(), objects.clone()), 0..16),
        prop::collection::vec(0usize..1_000, 0..8),
        prop::collection::vec(objects.clone(), 0..10),
        prop::collection::vec(objects.clone(), 1..12),
        prop::collection::vec(objects, 0..4),
    )
        .prop_map(
            |(chains, back, cross, dups, stubs, scions, roots)| SccRecipe {
                chains,
                back,
                cross,
                dups,
                stubs,
                scions,
                roots,
            },
        )
}

fn build_scc(recipe: &SccRecipe) -> (Heap, RemotingTables) {
    let mut heap = Heap::new(ProcId(0));
    let mut tables = RemotingTables::new(ProcId(0));
    let chains: Vec<Vec<ObjId>> = recipe
        .chains
        .iter()
        .map(|&len| (0..len).map(|_| heap.alloc(1)).collect())
        .collect();
    let all: Vec<ObjId> = chains.iter().flatten().copied().collect();
    let obj = |i: usize| all[i % all.len()];
    let mut fields: Vec<(ObjId, HeapRef)> = Vec::new();
    for chain in &chains {
        for pair in chain.windows(2) {
            fields.push((pair[0], HeapRef::Local(pair[1].slot)));
        }
    }
    for &(c, a, b) in &recipe.back {
        let chain = &chains[c % chains.len()];
        let (a, b) = (a % chain.len(), b % chain.len());
        fields.push((chain[a.max(b)], HeapRef::Local(chain[a.min(b)].slot)));
    }
    for &(from, to) in &recipe.cross {
        fields.push((obj(from), HeapRef::Local(obj(to).slot)));
    }
    for (k, &holder) in recipe.stubs.iter().enumerate() {
        let r = RefId(1_000 + k as u64);
        tables.add_stub(r, ObjId::new(ProcId(1), k as u32, 0), SimTime(0));
        fields.push((obj(holder), HeapRef::Remote(r)));
    }
    let added = fields.len();
    for &d in &recipe.dups {
        fields.push(fields[d % added]);
    }
    for (holder, field) in fields {
        heap.add_ref(holder, field).unwrap();
    }
    for &r in &recipe.roots {
        heap.add_root(obj(r)).unwrap();
    }
    for (k, &target) in recipe.scions.iter().enumerate() {
        if tables.scion_for_source(ProcId(2), obj(target)).is_none() {
            tables.add_scion(RefId(k as u64), obj(target), ProcId(2), SimTime(0));
        }
    }
    (heap, tables)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// SCC-heavy worlds: large components, fields into finished ones.
    #[test]
    fn engine_exact_on_large_sccs_and_finished_components(recipe in scc_recipe()) {
        let (heap, tables) = build_scc(&recipe);
        exact(&mut SccEngine::new(), &heap, &tables, 1, SimTime(0))?;
    }

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

    /// Disjoint scion chains (the aliasing sweet spot) plus a converging
    /// web (the per-scion oracle's worst case), 0–36 scions. Half the worlds
    /// keep to 0–2 scions, where most production snapshots are; there
    /// `Local.Reach` carries the summary, so rooted objects hold stubs (one
    /// also reaching into a chain) and garbage objects hold stubs (one also
    /// pointing into a chain) that must not surface.
    #[test]
    fn engine_exact_on_chains_webs_and_held_stubs(
        chains in 0usize..24,
        len in 1usize..6,
        web in 0usize..12,
        root_hub in 0u8..2,
        few in 0u8..2,
        rooted in 0usize..4,
        garbage in 0usize..4,
    ) {
        let (chains, web) = if few == 1 {
            (chains % 3, web % (3 - chains % 3))
        } else {
            (chains, web)
        };
        let mut heap = Heap::new(ProcId(0));
        let mut tables = RemotingTables::new(ProcId(0));
        let mut next_scion = 0u64;
        let mut heads = Vec::new();
        for _ in 0..chains {
            let ids: Vec<ObjId> = (0..len).map(|_| heap.alloc(1)).collect();
            for pair in ids.windows(2) {
                heap.add_ref(pair[0], HeapRef::Local(pair[1].slot)).unwrap();
            }
            let stub = RefId(1000 + next_scion);
            tables.add_scion(RefId(next_scion), ids[0], ProcId(1), SimTime(0));
            tables.add_stub(stub, ObjId::new(ProcId(1), stub.0 as u32, 0), SimTime(0));
            heap.add_ref(*ids.last().unwrap(), HeapRef::Remote(stub)).unwrap();
            heads.push(ids[0]);
            next_scion += 1;
        }
        if web > 0 {
            let hub = stub_holder(&mut heap, &mut tables, RefId(999));
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
        for k in 0..rooted {
            let holder = stub_holder(&mut heap, &mut tables, RefId(2000 + k as u64));
            heap.add_root(holder).unwrap();
            if k == 1 && !heads.is_empty() {
                heap.add_ref(holder, HeapRef::Local(heads[0].slot)).unwrap();
            }
        }
        for k in 0..garbage {
            let holder = stub_holder(&mut heap, &mut tables, RefId(3000 + k as u64));
            if k == 1 && !heads.is_empty() {
                heap.add_ref(holder, HeapRef::Local(heads[heads.len() - 1].slot)).unwrap();
            }
        }
        exact(&mut SccEngine::new(), &heap, &tables, 1, SimTime(0))?;
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
