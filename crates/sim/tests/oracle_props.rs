//! The oracle's dense live set against the shadow graph.
//!
//! Random systems take random edit sequences: allocations (which reuse
//! the slots earlier collections freed, so generations move), roots
//! added and removed, local and remote edges added and removed, stubs
//! and scions removed, local collections and deliveries. A removed scion
//! lets its target be freed under a surviving stub, whose target is then
//! stale. After every edit one reused [`LiveSet`] is recomputed in place
//! and must equal both a fresh one and the allocated part of
//! [`ShadowGraph::live`] over the same processes (the shadow graph
//! follows a stub to its target without asking whether the target still
//! exists; the oracle names allocated objects only), and every stale
//! [`ObjId`] (its slot freed, perhaps reused) must read as dead.

use acdgc_heap::HeapRef;
use acdgc_model::{GcConfig, NetConfig, ObjId, ProcId};
use acdgc_sim::{global_live_procs, LiveSet, ShadowGraph, System};
use proptest::prelude::*;
use rustc_hash::FxHashSet;

const PROCS: usize = 3;

#[derive(Clone, Debug)]
enum Op {
    Alloc(usize),
    AddRoot(usize),
    RemoveRoot(usize),
    AddLocal(usize, usize),
    RemoveLocal(usize, usize),
    AddRemote(usize, usize),
    DropRemote(usize, usize),
    RemoveStub(usize, usize),
    RemoveScion(usize, usize),
    Collect(usize),
    Drain,
}

/// One edit, weighted by kind; `a` and `b` pick objects, processes or
/// fields modulo what exists.
fn op() -> impl Strategy<Value = Op> {
    (0..27u8, 0..64usize, 0..64usize).prop_map(|(kind, a, b)| match kind {
        0..=3 => Op::Alloc(a % PROCS),
        4..=6 => Op::AddRoot(a),
        7..=8 => Op::RemoveRoot(a),
        9..=12 => Op::AddLocal(a, b),
        13..=14 => Op::RemoveLocal(a, b),
        15..=17 => Op::AddRemote(a, b),
        18..=19 => Op::DropRemote(a, b),
        20 => Op::RemoveStub(a % PROCS, b),
        21 => Op::RemoveScion(a % PROCS, b),
        22..=25 => Op::Collect(a % PROCS),
        _ => Op::Drain,
    })
}

/// The `k`-th field of `obj` that `pick` accepts, cycling.
fn nth_field<T>(
    sys: &System,
    obj: ObjId,
    k: usize,
    pick: impl Fn(HeapRef) -> Option<T>,
) -> Option<T> {
    let record = sys.proc(obj.proc).heap.get(obj).ok()?;
    let fields: Vec<T> = record.refs.iter().filter_map(|&r| pick(r)).collect();
    let n = fields.len();
    fields.into_iter().nth(k.checked_rem(n)?)
}

/// Apply one edit; errors (a stale or cross-process handle) are edits
/// that did nothing.
fn apply(sys: &mut System, ever: &mut Vec<ObjId>, op: &Op) {
    let obj = |i: usize| ever[i % ever.len()];
    match *op {
        Op::Alloc(p) => {
            let id = sys.alloc(ProcId(p as u16), 1);
            ever.push(id);
            // Every third fresh object is rooted at birth, so live
            // structure grows beside garbage.
            if ever.len().is_multiple_of(3) {
                let _ = sys.add_root(id);
            }
        }
        Op::AddRoot(i) => {
            let _ = sys.add_root(obj(i));
        }
        Op::RemoveRoot(i) => {
            let _ = sys.remove_root(obj(i));
        }
        Op::AddLocal(i, j) => {
            let from = obj(i);
            let heap = &sys.proc(from.proc).heap;
            let to: Vec<ObjId> = ever
                .iter()
                .copied()
                .filter(|&o| o.proc == from.proc && heap.contains(o))
                .collect();
            if !to.is_empty() {
                let _ = sys.add_local_ref(from, to[j % to.len()]);
            }
        }
        Op::RemoveLocal(i, k) => {
            let from = obj(i);
            if let Some(slot) = nth_field(sys, from, k, HeapRef::as_local) {
                let _ = sys
                    .proc_mut(from.proc)
                    .heap
                    .remove_ref(from, HeapRef::Local(slot));
            }
        }
        Op::AddRemote(i, j) => {
            let _ = sys.create_remote_ref(obj(i), obj(j));
        }
        Op::DropRemote(i, k) => {
            let from = obj(i);
            if let Some(r) = nth_field(sys, from, k, HeapRef::as_remote) {
                let _ = sys.drop_remote_ref(from, r);
            }
        }
        Op::RemoveStub(p, k) => {
            let tables = &mut sys.proc_mut(ProcId(p as u16)).tables;
            let stubs: Vec<_> = tables.stubs().map(|s| s.ref_id).collect();
            if !stubs.is_empty() {
                tables.remove_stub(stubs[k % stubs.len()]);
            }
        }
        Op::RemoveScion(p, k) => {
            let tables = &mut sys.proc_mut(ProcId(p as u16)).tables;
            let scions: Vec<_> = tables.scions().map(|s| s.ref_id).collect();
            if !scions.is_empty() {
                tables.remove_scion(scions[k % scions.len()]);
            }
        }
        Op::Collect(p) => sys.run_lgc(ProcId(p as u16)),
        Op::Drain => sys.drain_network(),
    }
}

fn set(live: &LiveSet) -> FxHashSet<ObjId> {
    live.iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn live_set_equals_the_shadow_graph(
        seed in 0..u64::MAX,
        initial in 1..12usize,
        ops in prop::collection::vec(op(), 1..80),
    ) {
        let mut sys = System::new(PROCS, GcConfig::manual(), NetConfig::instant(), seed);
        let mut ever: Vec<ObjId> = (0..initial)
            .map(|i| sys.alloc(ProcId((i % PROCS) as u16), 1))
            .collect();
        let mut scratch = LiveSet::new();
        for (step, op) in ops.iter().enumerate() {
            apply(&mut sys, &mut ever, op);
            let procs = sys.procs();
            scratch.compute(procs);
            let fresh = global_live_procs(procs);
            let allocated = |id: &ObjId| procs[id.proc.index()].heap.contains(*id);
            let shadow: FxHashSet<ObjId> = ShadowGraph::shadow_of(procs)
                .live()
                .into_iter()
                .filter(allocated)
                .collect();
            prop_assert_eq!(&set(&scratch), &shadow, "step {}: {:?}, reused set", step, op);
            prop_assert_eq!(&set(&fresh), &shadow, "step {}: {:?}, fresh set", step, op);
            prop_assert_eq!(scratch.len(), shadow.len());
            prop_assert_eq!(scratch.is_empty(), shadow.is_empty());
            for id in &ever {
                prop_assert_eq!(
                    scratch.contains(id),
                    allocated(id) && shadow.contains(id),
                    "step {}: {:?} after {:?}", step, id, op
                );
            }
        }
    }
}
