//! Global reachability oracle.
//!
//! The oracle computes, with perfect knowledge of every heap and table,
//! the set of objects transitively reachable from *any* local root in the
//! system, crossing remote references through their stubs. Nothing the
//! collectors do consults the oracle — it exists to let tests and ablation
//! experiments judge them:
//!
//! * **safety**: a reclaimed object must never be oracle-live at the
//!   moment of reclamation;
//! * **completeness**: after mutator quiescence and enough GC rounds,
//!   every oracle-dead object must be reclaimed — including every
//!   distributed cycle, which is exactly what acyclic DGC alone cannot do.
//!
//! References in flight inside application messages are protected by
//! scion pins, not by the oracle; an object kept only by an in-flight
//! message is oracle-dead but never reclaimed, which is the conservative
//! direction.
//!
//! The live set is a [`LiveSet`]: one `u64` mark per process and slot,
//! holding the number of the pass that reached the slot and the
//! generation the pass saw there, beside one reused work stack. A new
//! pass bumps the number, so nothing is cleared or reallocated between
//! passes (the marks only grow with the heaps), and a stale [`ObjId`]
//! reads as dead because its generation no longer matches. The set is
//! exactly the allocated part of what [`ShadowGraph::live`] computes from
//! the same heaps (the shadow graph follows a stub to its target without
//! asking whether the target still exists), the independent reference
//! `tests/oracle_props.rs` holds it to.

use crate::process::Process;
use crate::system::System;
use acdgc_heap::HeapRef;
use acdgc_model::{ObjId, ProcId, RefId, Slot};
use rustc_hash::{FxHashMap, FxHashSet};

/// The objects one oracle pass found reachable from any local root.
///
/// Reusable: [`LiveSet::compute`] overwrites the previous answer without
/// clearing anything, so a driver that audits often keeps one and
/// recomputes it in place.
#[derive(Clone, Debug, Default)]
pub struct LiveSet {
    /// Number of the latest pass; 0 before the first, so zeroed marks
    /// never read as reached.
    pass: u32,
    /// `marks[p][slot]` is `pass << 32 | generation` for the slots pass
    /// `pass` found live; anything else is left over from an earlier pass.
    marks: Vec<Vec<u64>>,
    /// Live objects per process.
    counts: Vec<usize>,
    /// Reached `(process index, slot)`s whose fields are not yet read.
    stack: Vec<(usize, Slot)>,
}

impl LiveSet {
    /// An empty set with no marks allocated.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recompute the set over `procs`, where `procs[i]` is `ProcId(i)`.
    pub fn compute(&mut self, procs: &[Process]) {
        self.pass = match self.pass.checked_add(1) {
            Some(pass) => pass,
            None => {
                // Every stored stamp is now ambiguous; start over once
                // every 2^32 passes.
                self.marks.iter_mut().for_each(|m| m.fill(0));
                1
            }
        };
        let pass = self.pass;
        let stamp = u64::from(pass) << 32;
        let reached = |mark: u64| (mark >> 32) as u32 == pass;
        self.marks.resize_with(procs.len(), Vec::new);
        self.counts.clear();
        self.counts.resize(procs.len(), 0);
        let LiveSet {
            marks,
            counts,
            stack,
            ..
        } = self;
        for (marks, proc) in marks.iter_mut().zip(procs) {
            let slots = proc.heap.slot_upper_bound();
            if marks.len() < slots {
                marks.resize(slots, 0);
            }
        }
        let reach = |marks: &mut [Vec<u64>], stack: &mut Vec<_>, p: usize, slot: Slot| {
            if let Some(mark) = marks[p].get_mut(slot as usize) {
                if !reached(*mark) {
                    *mark = stamp;
                    stack.push((p, slot));
                }
            }
        };
        for (p, proc) in procs.iter().enumerate() {
            for slot in proc.heap.roots() {
                reach(marks, stack, p, slot);
            }
        }
        // A slot is marked when first reached and stamped with its
        // generation when its fields are read, so each slot entry is read
        // once. Fields are pushed in reverse: a chain is walked in slot
        // order.
        while let Some((p, slot)) = stack.pop() {
            let proc = &procs[p];
            let Some((id, record)) = proc.heap.occupant(slot) else {
                // A field naming a free slot: nothing lives there.
                marks[p][slot as usize] = 0;
                continue;
            };
            marks[p][slot as usize] = stamp | u64::from(id.generation);
            counts[p] += 1;
            for field in record.refs.iter().rev() {
                match *field {
                    HeapRef::Local(next) => reach(marks, stack, p, next),
                    HeapRef::Remote(ref_id) => {
                        let Some(stub) = proc.tables.stub(ref_id) else {
                            continue;
                        };
                        // A stale target (its slot freed, perhaps
                        // reused) is dead; the stub reaches nothing.
                        let target = stub.target;
                        let q = target.proc.index();
                        if procs[q].heap.contains(target) {
                            reach(marks, stack, q, target.slot);
                        }
                    }
                }
            }
        }
    }

    /// Whether the last pass found `id` live. A stale id (its slot freed,
    /// perhaps reused) is not.
    pub fn contains(&self, id: &ObjId) -> bool {
        let mark = u64::from(self.pass) << 32 | u64::from(id.generation);
        self.marks
            .get(id.proc.index())
            .and_then(|marks| marks.get(id.slot as usize))
            == Some(&mark)
    }

    /// Number of live objects at process `p`.
    fn count(&self, p: ProcId) -> usize {
        self.counts.get(p.index()).copied().unwrap_or(0)
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Whether nothing is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every live object, by process, then slot.
    pub fn iter(&self) -> impl Iterator<Item = ObjId> + '_ {
        (0..self.marks.len()).flat_map(move |p| {
            self.slots(p)
                .map(move |(slot, generation)| ObjId::new(ProcId(p as u16), slot, generation))
        })
    }

    /// The live slots of process `p`, with their generations. The scan
    /// stops at the last one.
    fn slots(&self, p: usize) -> impl Iterator<Item = (Slot, u32)> + '_ {
        let pass = self.pass;
        let marks = self.marks.get(p).map_or(&[][..], Vec::as_slice);
        marks
            .iter()
            .enumerate()
            .filter(move |&(_, &m)| (m >> 32) as u32 == pass)
            .take(self.count(ProcId(p as u16)))
            .map(|(slot, &m)| (slot as Slot, m as u32))
    }
}

/// All objects reachable from any local root, across processes.
pub fn global_live(system: &System) -> LiveSet {
    global_live_procs(system.procs())
}

/// [`global_live`] over a bare process slice, for runtimes that do not
/// wrap their processes in a [`System`] (the threaded runtime hands the
/// oracle its final unwrapped processes). `procs[i]` must be `ProcId(i)`.
pub fn global_live_procs(procs: &[Process]) -> LiveSet {
    let mut live = LiveSet::new();
    live.compute(procs);
    live
}

/// How many of `refs` — remote references, each with the process holding
/// it — are still live: some object of `live` at the holder still holds
/// the reference. A scion may be deleted exactly when its reference is
/// not live, even if the *target* object remains live through other
/// paths (its own roots or other references). One pass over each
/// holder's live objects answers all of that holder's references; a
/// reference listed twice counts twice.
pub fn live_ref_count(procs: &[Process], live: &LiveSet, refs: &[(RefId, ProcId)]) -> usize {
    let mut count = 0;
    for (i, &(_, holder)) in refs.iter().enumerate() {
        // The first of a holder's references answers for all of them; a
        // holder with nothing live holds nothing.
        if refs[..i].iter().any(|&(_, h)| h == holder) || live.count(holder) == 0 {
            continue;
        }
        let mut unheld: Vec<RefId> = refs
            .iter()
            .filter(|&&(_, h)| h == holder)
            .map(|&(r, _)| r)
            .collect();
        let asked = unheld.len();
        let heap = &procs[holder.index()].heap;
        for (slot, _) in live.slots(holder.index()) {
            if unheld.is_empty() {
                break;
            }
            if let Some(record) = heap.get_slot(slot) {
                for held in record.remote_refs() {
                    unheld.retain(|&r| r != held);
                }
            }
        }
        count += asked - unheld.len();
    }
    count
}

/// One graph edit performed by a concurrent mutator, recorded while the
/// owning process lock was held (so the log's order is consistent with
/// every per-object order the heaps observed).
///
/// The log exists for verification only: [`ShadowGraph::apply_log`]
/// replays it over a pre-run snapshot of the object graph to recompute
/// ground-truth liveness for a run whose mutator raced the collectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutOp {
    /// A fresh object appeared (optionally rooted at birth).
    Allocate {
        /// The new object.
        obj: ObjId,
        /// Whether it was rooted in the same critical section.
        rooted: bool,
    },
    /// `obj` became a local root.
    AddRoot(ObjId),
    /// `obj` stopped being a local root.
    RemoveRoot(ObjId),
    /// A local edge `from -> to` was added.
    AddLocalRef(ObjId, ObjId),
    /// A local edge `from -> to` was removed.
    RemoveLocalRef(ObjId, ObjId),
    /// `from` gained a remote edge through `ref_id`, which designates `to`.
    AddRemoteRef(ObjId, RefId, ObjId),
    /// `from` lost its remote edge through `ref_id`.
    RemoveRemoteRef(ObjId, RefId),
}

/// An edge in the shadow graph: local edges name their target directly,
/// remote edges go through the reference id (resolved via
/// [`ShadowGraph::ref_targets`], mirroring stub indirection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShadowRef {
    Direct(ObjId),
    Via(RefId),
}

/// A pure object-graph model — no stubs, scions, pins or collectors —
/// built from the pre-run heaps and advanced by replaying a [`MutOp`] log.
///
/// Its [`Self::live`] set is the ground truth a concurrent run is judged
/// against: the collectors may not delete any shadow-live object
/// (safety), and must eventually delete every shadow-dead one
/// (completeness), no matter how the mutator raced them.
#[derive(Clone, Debug, Default)]
pub struct ShadowGraph {
    roots: FxHashSet<ObjId>,
    edges: FxHashMap<ObjId, Vec<ShadowRef>>,
    ref_targets: FxHashMap<RefId, ObjId>,
}

impl ShadowGraph {
    /// Capture the object graph of `procs` (typically before a run
    /// starts). Remote references resolve through the current stub tables.
    pub fn shadow_of(procs: &[Process]) -> Self {
        let mut g = ShadowGraph::default();
        for proc in procs {
            for slot in proc.heap.roots() {
                if let Some(id) = proc.heap.id_of_slot(slot) {
                    g.roots.insert(id);
                }
            }
            for (slot, record) in proc.heap.iter() {
                let Some(id) = proc.heap.id_of_slot(slot) else {
                    continue;
                };
                let out = g.edges.entry(id).or_default();
                for target_slot in record.local_refs() {
                    if let Some(target) = proc.heap.id_of_slot(target_slot) {
                        out.push(ShadowRef::Direct(target));
                    }
                }
                for ref_id in record.remote_refs() {
                    out.push(ShadowRef::Via(ref_id));
                    if let Some(stub) = proc.tables.stub(ref_id) {
                        g.ref_targets.insert(ref_id, stub.target);
                    }
                }
            }
        }
        g
    }

    /// Replay a mutation log over the captured graph.
    pub fn apply_log(&mut self, log: &[MutOp]) {
        for op in log {
            match *op {
                MutOp::Allocate { obj, rooted } => {
                    self.edges.entry(obj).or_default();
                    if rooted {
                        self.roots.insert(obj);
                    }
                }
                MutOp::AddRoot(o) => {
                    self.roots.insert(o);
                }
                MutOp::RemoveRoot(o) => {
                    self.roots.remove(&o);
                }
                MutOp::AddLocalRef(from, to) => {
                    self.edges
                        .entry(from)
                        .or_default()
                        .push(ShadowRef::Direct(to));
                }
                MutOp::RemoveLocalRef(from, to) => {
                    if let Some(out) = self.edges.get_mut(&from) {
                        if let Some(i) = out.iter().position(|r| *r == ShadowRef::Direct(to)) {
                            out.swap_remove(i);
                        }
                    }
                }
                MutOp::AddRemoteRef(from, ref_id, to) => {
                    self.edges
                        .entry(from)
                        .or_default()
                        .push(ShadowRef::Via(ref_id));
                    self.ref_targets.insert(ref_id, to);
                }
                MutOp::RemoveRemoteRef(from, ref_id) => {
                    if let Some(out) = self.edges.get_mut(&from) {
                        if let Some(i) = out.iter().position(|r| *r == ShadowRef::Via(ref_id)) {
                            out.swap_remove(i);
                        }
                    }
                }
            }
        }
    }

    /// Ground-truth live set: everything reachable from the shadow roots.
    pub fn live(&self) -> FxHashSet<ObjId> {
        let mut live: FxHashSet<ObjId> = FxHashSet::default();
        let mut queue: Vec<ObjId> = self.roots.iter().copied().collect();
        live.extend(queue.iter().copied());
        while let Some(id) = queue.pop() {
            let Some(out) = self.edges.get(&id) else {
                continue;
            };
            for r in out {
                let target = match r {
                    ShadowRef::Direct(t) => Some(*t),
                    ShadowRef::Via(ref_id) => self.ref_targets.get(ref_id).copied(),
                };
                if let Some(t) = target {
                    if live.insert(t) {
                        queue.push(t);
                    }
                }
            }
        }
        live
    }
}

/// Oracle-live object counts per process (completeness assertions).
pub fn live_count_by_proc(system: &System) -> Vec<(ProcId, usize)> {
    let live = global_live(system);
    (0..system.num_procs())
        .map(|i| ProcId(i as u16))
        .map(|p| (p, live.count(p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdgc_model::{GcConfig, NetConfig};

    fn system(n: usize) -> System {
        System::new(n, GcConfig::manual(), NetConfig::instant(), 7)
    }

    #[test]
    fn local_chain_reachability() {
        let mut sys = system(1);
        let p = ProcId(0);
        let a = sys.alloc(p, 1);
        let b = sys.alloc(p, 1);
        let orphan = sys.alloc(p, 1);
        sys.add_local_ref(a, b).unwrap();
        sys.add_root(a).unwrap();
        let live = global_live(&sys);
        assert!(live.contains(&a) && live.contains(&b));
        assert!(!live.contains(&orphan));
    }

    #[test]
    fn crosses_remote_references() {
        let mut sys = system(2);
        let a = sys.alloc(ProcId(0), 1);
        let b = sys.alloc(ProcId(1), 1);
        let c = sys.alloc(ProcId(1), 1);
        sys.create_remote_ref(a, b).unwrap();
        sys.add_local_ref(b, c).unwrap();
        sys.add_root(a).unwrap();
        let live = global_live(&sys);
        assert_eq!(live.len(), 3);
        assert!(live.contains(&c), "remote hop then local hop");
    }

    #[test]
    fn unrooted_distributed_cycle_is_dead() {
        let mut sys = system(2);
        let a = sys.alloc(ProcId(0), 1);
        let b = sys.alloc(ProcId(1), 1);
        sys.create_remote_ref(a, b).unwrap();
        sys.create_remote_ref(b, a).unwrap();
        let live = global_live(&sys);
        assert!(live.is_empty(), "cycle with no roots is garbage");
        sys.add_root(a).unwrap();
        assert_eq!(
            global_live(&sys).len(),
            2,
            "rooting either end revives both"
        );
    }

    #[test]
    fn shadow_matches_oracle_on_static_graph() {
        let mut sys = system(2);
        let a = sys.alloc(ProcId(0), 1);
        let b = sys.alloc(ProcId(1), 1);
        let c = sys.alloc(ProcId(1), 1);
        sys.create_remote_ref(a, b).unwrap();
        sys.add_local_ref(b, c).unwrap();
        sys.add_root(a).unwrap();
        let shadow = ShadowGraph::shadow_of(sys.procs());
        assert_eq!(shadow.live(), global_live(&sys).iter().collect());
    }

    #[test]
    fn shadow_replay_tracks_mutations() {
        let mut sys = system(2);
        let a = sys.alloc(ProcId(0), 1);
        let b = sys.alloc(ProcId(1), 1);
        sys.create_remote_ref(a, b).unwrap();
        sys.add_root(a).unwrap();
        let mut shadow = ShadowGraph::shadow_of(sys.procs());
        assert_eq!(shadow.live().len(), 2);
        // A new rooted object gains a local edge; the remote edge drops.
        let c = ObjId::new(ProcId(0), 99, 0);
        let r = sys
            .proc(ProcId(0))
            .heap
            .get(a)
            .unwrap()
            .remote_refs()
            .next()
            .unwrap();
        shadow.apply_log(&[
            MutOp::Allocate {
                obj: c,
                rooted: true,
            },
            MutOp::AddLocalRef(c, a),
            MutOp::RemoveRoot(a),
            MutOp::RemoveRemoteRef(a, r),
        ]);
        let live = shadow.live();
        assert!(live.contains(&c) && live.contains(&a), "c roots a");
        assert!(!live.contains(&b), "dropped remote edge kills b");
        // Re-adding the remote edge (re-export) revives b.
        shadow.apply_log(&[MutOp::AddRemoteRef(a, r, b)]);
        assert!(shadow.live().contains(&b));
    }

    #[test]
    fn a_stale_id_reads_dead_after_its_slot_is_reused() {
        let mut sys = system(1);
        let p = ProcId(0);
        let old = sys.alloc(p, 1);
        sys.run_lgc(p);
        let new = sys.alloc(p, 1);
        assert_eq!((old.slot, old.generation + 1), (new.slot, new.generation));
        sys.add_root(new).unwrap();
        let live = global_live(&sys);
        assert!(live.contains(&new) && !live.contains(&old));
        assert_eq!(live.iter().collect::<Vec<_>>(), vec![new]);
    }

    #[test]
    fn a_reused_set_forgets_the_previous_pass() {
        let mut sys = system(2);
        let a = sys.alloc(ProcId(0), 1);
        let b = sys.alloc(ProcId(1), 1);
        sys.create_remote_ref(a, b).unwrap();
        sys.add_root(a).unwrap();
        let mut live = LiveSet::new();
        assert!(live.is_empty() && !live.contains(&a));
        live.compute(sys.procs());
        assert_eq!(live.len(), 2);
        sys.remove_root(a).unwrap();
        live.compute(sys.procs());
        assert!(live.is_empty() && !live.contains(&a) && !live.contains(&b));
        assert_eq!(live.iter().count(), 0);
        // The pass number wraps: the marks are cleared once, not misread.
        sys.add_root(b).unwrap();
        live.pass = u32::MAX;
        live.compute(sys.procs());
        assert_eq!(live.pass, 1);
        assert!(live.contains(&b) && !live.contains(&a));
        assert_eq!(live.len(), 1);
    }

    #[test]
    fn one_pass_per_holder_counts_each_live_reference() {
        let mut sys = system(3);
        let [a, b, c, d, e] = [0, 1, 1, 2, 2].map(|p| sys.alloc(ProcId(p), 1));
        let ab = sys.create_remote_ref(a, b).unwrap();
        let cd = sys.create_remote_ref(c, d).unwrap();
        let be = sys.create_remote_ref(b, e).unwrap();
        sys.add_root(a).unwrap();
        let live = global_live(&sys);
        let (p0, p1) = (ProcId(0), ProcId(1));
        // `c` is garbage, so its reference is not live; a duplicate
        // query counts twice.
        let refs = [(ab, p0), (cd, p1), (be, p1), (ab, p0)];
        assert_eq!(live_ref_count(sys.procs(), &live, &refs), 3);
        assert_eq!(live_ref_count(sys.procs(), &live, &[(ab, p1)]), 0);
        // Each answer comes from its own holder's objects.
        assert_eq!(live_ref_count(sys.procs(), &live, &[(be, p0), (be, p1)]), 1);
        assert_eq!(live_ref_count(sys.procs(), &live, &[]), 0);
    }

    #[test]
    fn per_proc_counts() {
        let mut sys = system(2);
        let a = sys.alloc(ProcId(0), 1);
        let b = sys.alloc(ProcId(1), 1);
        sys.create_remote_ref(a, b).unwrap();
        sys.add_root(a).unwrap();
        let counts = live_count_by_proc(&sys);
        assert_eq!(counts, vec![(ProcId(0), 1), (ProcId(1), 1)]);
    }
}
