//! Property tests: both snapshot codecs round-trip every snapshot, and
//! summarizing a decoded snapshot is equivalent to summarizing the live
//! structures (the simulator's shortcut is sound).

use acdgc_heap::{Heap, HeapRef};
use acdgc_model::{ObjId, ProcId, RefId, SimTime};
use acdgc_remoting::RemotingTables;
use acdgc_snapshot::{capture, summarize, CompactCodec, SnapshotCodec, VerboseCodec};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct WorldRecipe {
    payloads: Vec<u32>,
    edges: Vec<(usize, usize)>,
    roots: Vec<usize>,
    stubs: Vec<(usize, u16, u64)>,  // (holder, target proc, ic)
    scions: Vec<(usize, u16, u64)>, // (target, from proc, ic)
}

fn world_recipe() -> impl Strategy<Value = WorldRecipe> {
    (1usize..16).prop_flat_map(|objects| {
        (
            prop::collection::vec(0u32..6, objects..=objects),
            prop::collection::vec((0..objects, 0..objects), 0..32),
            prop::collection::vec(0..objects, 0..3),
            prop::collection::vec((0..objects, 1u16..4, 0u64..9), 0..6),
            prop::collection::vec((0..objects, 1u16..4, 0u64..9), 0..6),
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

fn build(recipe: &WorldRecipe) -> (Heap, RemotingTables) {
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
    for &(holder, proc, ic) in &recipe.stubs {
        let target = ObjId::new(ProcId(proc), next_ref as u32, 0);
        if tables.stub_for_target(target).is_some() {
            continue;
        }
        let r = RefId(next_ref);
        next_ref += 1;
        tables.add_stub(r, target, SimTime(0));
        for _ in 0..ic {
            tables.record_send_through_stub(r).unwrap();
        }
        heap.add_ref(ids[holder], HeapRef::Remote(r)).unwrap();
    }
    for &(target, proc, ic) in &recipe.scions {
        if tables.scion_for_source(ProcId(proc), ids[target]).is_some() {
            continue;
        }
        let r = RefId(next_ref);
        next_ref += 1;
        tables.add_scion(r, ids[target], ProcId(proc), SimTime(0));
        for i in 0..ic {
            tables.record_receive_through_scion(r, SimTime(i)).unwrap();
        }
    }
    (heap, tables)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn both_codecs_round_trip(recipe in world_recipe()) {
        let (heap, tables) = build(&recipe);
        let snap = capture(&heap, &tables, SimTime(17));
        let via_verbose = VerboseCodec.decode(&VerboseCodec.encode(&snap)).unwrap();
        prop_assert_eq!(&via_verbose, &snap);
        let via_compact = CompactCodec.decode(&CompactCodec.encode(&snap)).unwrap();
        prop_assert_eq!(&via_compact, &snap);
    }

    #[test]
    fn codecs_agree_through_each_other(recipe in world_recipe()) {
        // Decode one codec's image, re-encode with the other: stable.
        let (heap, tables) = build(&recipe);
        let snap = capture(&heap, &tables, SimTime(0));
        let verbose_image = VerboseCodec.encode(&snap);
        let decoded = VerboseCodec.decode(&verbose_image).unwrap();
        let compact_image = CompactCodec.encode(&decoded);
        let final_snap = CompactCodec.decode(&compact_image).unwrap();
        prop_assert_eq!(final_snap, snap);
    }

    /// Summaries computed from a decoded snapshot match summaries computed
    /// from the live structures: the DCDA sees the same world either way.
    #[test]
    fn summary_of_snapshot_equals_summary_of_live(recipe in world_recipe()) {
        let (heap, tables) = build(&recipe);
        let snap = capture(&heap, &tables, SimTime(3));
        let image = CompactCodec.encode(&snap);
        let decoded = CompactCodec.decode(&image).unwrap();
        // Rebuild heap+tables from the snapshot.
        let mut heap2 = Heap::new(decoded.proc);
        let mut slot_map = std::collections::HashMap::new();
        for o in &decoded.objects {
            let id = heap2.alloc(o.payload_words);
            slot_map.insert(o.slot, id);
        }
        for o in &decoded.objects {
            let from = slot_map[&o.slot];
            for r in &o.refs {
                match r {
                    HeapRef::Local(s) => {
                        let to = slot_map[s];
                        heap2.add_ref(from, HeapRef::Local(to.slot)).unwrap();
                    }
                    HeapRef::Remote(rr) => {
                        heap2.add_ref(from, HeapRef::Remote(*rr)).unwrap();
                    }
                }
            }
        }
        for s in &decoded.roots {
            heap2.add_root(slot_map[s]).unwrap();
        }
        let mut tables2 = RemotingTables::new(decoded.proc);
        for s in &decoded.stubs {
            tables2.add_stub(s.ref_id, s.target, SimTime(0));
            for _ in 0..s.ic {
                tables2.record_send_through_stub(s.ref_id).unwrap();
            }
        }
        for s in &decoded.scions {
            let target = slot_map[&s.target.slot];
            tables2.add_scion(s.ref_id, target, s.from_proc, SimTime(0));
            for _ in 0..s.ic {
                tables2.record_receive_through_scion(s.ref_id, SimTime(0)).unwrap();
            }
        }
        let live = summarize(&heap, &tables, 1, SimTime(0));
        let rebuilt = summarize(&heap2, &tables2, 1, SimTime(0));
        // Compare the reachability structure (ICs differ in last_invoked
        // times, which capture() does not carry for stubs).
        prop_assert_eq!(live.scions.len(), rebuilt.scions.len());
        prop_assert_eq!(live.stubs.len(), rebuilt.stubs.len());
        for (r, s) in &live.scions {
            let o = &rebuilt.scions[r];
            prop_assert_eq!(&s.stubs_from, &o.stubs_from);
            prop_assert_eq!(s.target_locally_reachable, o.target_locally_reachable);
            prop_assert_eq!(s.ic, o.ic);
        }
        for (r, s) in &live.stubs {
            let o = &rebuilt.stubs[r];
            prop_assert_eq!(&s.scions_to, &o.scions_to);
            prop_assert_eq!(s.local_reach, o.local_reach);
            prop_assert_eq!(s.ic, o.ic);
        }
    }
}
