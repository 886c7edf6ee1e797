//! Single-pass SCC-condensation engine: the mark of every local
//! collection and the summarizer of every snapshot.
//!
//! The paper defines summarization (§3) by the facts it produces —
//! `StubsFrom`, `ScionsTo` and `Local.Reach` — not by an algorithm.
//! [`crate::summarize`] transcribes it as one breadth-first traversal
//! **per scion**: O(S·(V+E)) for S scions over a heap with V objects and E
//! references, almost all of it redundant: two scions whose targets reach
//! the same strongly connected component of the local heap see, from that
//! point on, exactly the same stubs. It stays as the test oracle.
//!
//! This engine computes the same facts from **one** walk over the heap's
//! fields:
//!
//! 1. One iterative Tarjan pass condenses the local object graph into its
//!    SCC DAG and records the condensation as it goes — O(V+E). Tarjan
//!    emits components callees-first, so every condensation edge points
//!    from a later-emitted component to an earlier one. While the DFS
//!    scans a field it pushes onto two pending stacks: a remote field its
//!    `RefId`, a local field into an already-emitted component that
//!    component's id (as does a parent whose child frame just emitted
//!    one). Everything pushed above a component root's stack heights
//!    belongs to that component; at emission it is sorted, deduplicated
//!    and closed into two CSR lists (one flat list plus an end offset per
//!    component): successor components and directly held references.
//! 2. The directly held references are numbered against the stub table as
//!    it is *now*: one bit per table stub, in ascending `RefId` order; a
//!    reference with no table stub is dropped.
//! 3. Local root reachability is propagated **forward** over those lists
//!    (descending emission index), marking every component reachable from
//!    a root and collecting the stubs those components hold directly (the
//!    `Local.Reach` bits) — O(components + condensation edges).
//! 4. Reachable-stub sets are propagated **bottom-up** over the same lists
//!    (ascending emission index, i.e. reverse topological order): each
//!    component's [`BitSet`] is the union of its direct stub bits and the
//!    sets of its successor components. Each union is a word-parallel OR —
//!    O(condensation edges·W/64) for a W-stub universe. Sets live in a slot
//!    pool indexed through `reach_of`: a component with no direct stubs and
//!    out-degree ≤ 1 *inherits* its successor's pool slot in O(1) instead
//!    of copying a full-width bitset (aliased propagation), so on disjoint
//!    scion chains the whole propagation collapses to pointer assignments.
//! 5. A scion's `StubsFrom` is then just its target component's bitset,
//!    decoded; `ScionsTo` is the inversion — O(S·W/64 + output).
//!
//! Steps 2–5 read the condensation and the tables, never the heap's
//! fields.
//!
//! **Where the walk happens.** A local collection ([`SccEngine::collect`])
//! runs step 1 seeded from the roots and the scion targets: it visits
//! exactly the set a breadth-first mark visits, and the sweep frees every
//! slot it did not visit. The condensation then covers every occupied
//! slot, and the engine seals it with the heap's [`Epoch`]. A later
//! [`SccEngine::summarize`] at that same epoch skips step 1 and runs steps
//! 2–5 against the tables of the moment; at any other epoch it condenses
//! every occupied slot first (and seals that). Reuse cannot change the
//! output: an unchanged epoch means unchanged fields, stub numbering is
//! redone per snapshot, and a scion created or deleted since targets an
//! occupied (hence condensed) slot or a freed one, which summarizes empty.
//!
//! Stub bit indices are assigned in ascending `RefId` order, so decoding a
//! bitset yields the sorted `stubs_from` vector the oracle produces — the
//! engine's output is **identical** to [`crate::summarize`]'s, not just
//! equivalent (property-tested in `tests/engine_props.rs`).
//!
//! All intermediate state lives in the engine and is reused across calls:
//! a steady-state snapshot performs no scratch allocations (only the
//! returned [`SummarizedGraph`] is freshly allocated).

use crate::summary::{ScionSummary, StubSummary, SummarizedGraph};
use acdgc_heap::{lgc, Epoch, Heap, HeapRef};
use acdgc_model::{BitSet, ObjId, RefId, SimTime, Slot};
use acdgc_remoting::RemotingTables;
use rustc_hash::FxHashMap;

const UNVISITED: u32 = u32::MAX;

/// Pool slot holding the canonical empty reachable-stub set.
const EMPTY_SLOT: u32 = 0;

/// Which implementation summarized: always the engine.
// Shim for the benchmark's pinned API; ROADMAP direction 2 deletes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SummarizePath {
    /// The SCC-condensation engine with aliased propagation.
    #[default]
    Engine,
}

/// What the last [`SccEngine::summarize`] run did; exposed for tests,
/// benches and forensics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    pub path: SummarizePath,
    /// The condensation was reused from the last collection or snapshot
    /// (the heap's epoch had not moved): no heap field was read.
    pub reused: bool,
    /// Components whose reachable-stub set was inherited by reference
    /// (no direct stubs, out-degree ≤ 1).
    pub inherited_components: usize,
    /// Components that materialized an owned bitset.
    pub unioned_components: usize,
}

/// What [`SccEngine::collect`] reclaimed and kept.
#[derive(Clone, Copy, Debug)]
pub struct Collected<'a> {
    /// Handles of the freed objects, in slot order.
    pub freed: &'a [ObjId],
    /// References held by surviving objects, ascending: the live stubs.
    pub live_stubs: &'a [RefId],
}

/// One DFS frame of [`SccEngine`]'s Tarjan pass: the slot, its next field
/// index, and the pending stacks' heights when the slot was entered.
#[derive(Clone, Copy, Debug)]
struct Frame {
    slot: Slot,
    cursor: u32,
    succ_from: u32,
    stubs_from: u32,
}

/// Per-component lists in compressed sparse row form: one flat list plus
/// the exclusive end offset of each component's row.
#[derive(Clone, Debug)]
struct Csr<T> {
    items: Vec<T>,
    end: Vec<u32>,
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Csr {
            items: Vec::new(),
            end: Vec::new(),
        }
    }
}

impl<T: Copy + Ord> Csr<T> {
    fn clear(&mut self) {
        self.items.clear();
        self.end.clear();
    }

    fn row(&self, c: usize) -> &[T] {
        let start = if c == 0 { 0 } else { self.end[c - 1] as usize };
        &self.items[start..self.end[c] as usize]
    }

    /// Close the next row with the distinct entries of `pending[from..]`,
    /// in ascending order, and take them off `pending`.
    fn push_row(&mut self, pending: &mut Vec<T>, from: u32) {
        let from = from as usize;
        pending[from..].sort_unstable();
        let start = self.items.len();
        for &x in &pending[from..] {
            if self.items.len() == start || self.items.last() != Some(&x) {
                self.items.push(x);
            }
        }
        self.end.push(self.items.len() as u32);
        pending.truncate(from);
    }
}

/// Reusable mark-and-summarize engine. One engine per process; see the
/// module docs for the algorithm.
#[derive(Clone, Debug, Default)]
pub struct SccEngine {
    // --- Tarjan state, indexed by slot -----------------------------------
    dfs_num: Vec<u32>,
    low: Vec<u32>,
    on_stack: Vec<bool>,
    comp_of: Vec<u32>,
    stack: Vec<Slot>,
    /// Explicit DFS frames; recursion would overflow the thread stack on
    /// long object chains.
    frames: Vec<Frame>,
    /// Pending successor component ids / directly held references of the
    /// components still open on the DFS path (see the module docs).
    pending_succ: Vec<u32>,
    pending_refs: Vec<RefId>,
    // --- condensation, indexed by component emission order ---------------
    /// Distinct successor components of each component.
    succ: Csr<u32>,
    /// Distinct references each component's members hold directly,
    /// whether or not the stub table has them.
    direct: Csr<RefId>,
    /// The heap epoch the condensation covers every occupied slot of.
    sealed: Option<Epoch>,
    /// What the last collection freed, and the references it kept.
    freed: Vec<ObjId>,
    live_stubs: Vec<RefId>,
    // --- per-snapshot state, indexed by component ---------------------------
    /// `direct` numbered against the current stub table.
    direct_bits: Csr<u32>,
    /// Component is reachable from a local root.
    comp_root: Vec<bool>,
    /// Pool slot holding component `c`'s reachable-stub set. Aliased
    /// propagation maps many chain components to one shared slot;
    /// [`EMPTY_SLOT`] is the shared empty set.
    reach_of: Vec<u32>,
    /// Bitset pool; `pool_len` slots are live for the current run, the
    /// rest are retained allocations from earlier runs.
    pool: Vec<BitSet>,
    pool_len: usize,
    // --- stub universe ----------------------------------------------------
    /// Table stubs in ascending `RefId` order; position = bit index.
    stub_ids: Vec<RefId>,
    /// Stubs held directly by root-reachable objects (`Local.Reach`).
    root_stub_bits: BitSet,
    // --- counters of the last run -----------------------------------------
    dispatch: DispatchStats,
}

impl SccEngine {
    pub fn new() -> Self {
        SccEngine::default()
    }

    /// One local collection: condense from the roots and `scion_targets`
    /// (the set a breadth-first mark visits), free every slot the pass did
    /// not visit, and seal the condensation with the heap's epoch after
    /// the sweep, for the next [`SccEngine::summarize`] to reuse.
    pub fn collect(&mut self, heap: &mut Heap, scion_targets: &[Slot]) -> Collected<'_> {
        self.condense(heap, heap.roots().chain(scion_targets.iter().copied()));
        let visited = &self.dfs_num;
        lgc::sweep_into(
            heap,
            |slot| visited[slot as usize] != UNVISITED,
            &mut self.freed,
        );
        self.live_stubs.clear();
        self.live_stubs.extend_from_slice(&self.direct.items);
        self.live_stubs.sort_unstable();
        self.live_stubs.dedup();
        self.sealed = Some(heap.epoch());
        Collected {
            freed: &self.freed,
            live_stubs: &self.live_stubs,
        }
    }

    /// Summarize the current heap + remoting state; output is identical to
    /// [`crate::summarize`] on the same inputs. Reuses the condensation of
    /// the last collection or snapshot if the heap has not been written
    /// since.
    pub fn summarize(
        &mut self,
        heap: &Heap,
        tables: &RemotingTables,
        version: u64,
        taken_at: SimTime,
    ) -> SummarizedGraph {
        let reused = self.sealed == Some(heap.epoch());
        if !reused {
            self.condense(heap, 0..heap.slot_upper_bound() as Slot);
            self.sealed = Some(heap.epoch());
        }
        self.dispatch.reused = reused;
        self.number_stubs(tables);
        self.mark_root_components(heap.roots());
        self.propagate_reach();
        self.build_summary(heap, tables, version, taken_at)
    }

    // Shim for the benchmark's pinned API; ROADMAP direction 2 deletes it.
    #[doc(hidden)]
    pub fn summarize_condensed(
        &mut self,
        heap: &Heap,
        tables: &RemotingTables,
        version: u64,
        taken_at: SimTime,
    ) -> SummarizedGraph {
        self.summarize(heap, tables, version, taken_at)
    }

    // Shim for the benchmark's pinned API; ROADMAP direction 2 deletes it.
    #[doc(hidden)]
    pub fn summarize_adaptive(
        &mut self,
        heap: &Heap,
        tables: &RemotingTables,
        version: u64,
        taken_at: SimTime,
    ) -> SummarizedGraph {
        self.summarize(heap, tables, version, taken_at)
    }

    /// The counters of the most recent [`SccEngine::summarize`].
    pub fn last_dispatch(&self) -> DispatchStats {
        self.dispatch
    }

    #[inline]
    fn begin_visit(&mut self, v: Slot, counter: &mut u32) {
        let vi = v as usize;
        self.dfs_num[vi] = *counter;
        self.low[vi] = *counter;
        *counter += 1;
        self.stack.push(v);
        self.on_stack[vi] = true;
        self.frames.push(Frame {
            slot: v,
            cursor: 0,
            succ_from: self.pending_succ.len() as u32,
            stubs_from: self.pending_refs.len() as u32,
        });
    }

    /// Iterative Tarjan from `seeds` (unoccupied seeds are skipped),
    /// recording the condensation (`succ`, `direct`) as components are
    /// emitted. Components are emitted callees-first: every
    /// cross-component edge lands in a component with a smaller emission
    /// index. Unseals: the caller decides what the result covers.
    fn condense(&mut self, heap: &Heap, seeds: impl Iterator<Item = Slot>) {
        let n = heap.slot_upper_bound();
        self.sealed = None;
        self.dfs_num.clear();
        self.dfs_num.resize(n, UNVISITED);
        self.low.clear();
        self.low.resize(n, 0);
        self.on_stack.clear();
        self.on_stack.resize(n, false);
        self.comp_of.clear();
        self.comp_of.resize(n, UNVISITED);
        self.stack.clear();
        self.frames.clear();
        self.pending_succ.clear();
        self.pending_refs.clear();
        self.succ.clear();
        self.direct.clear();

        let mut counter: u32 = 0;
        for start_slot in seeds {
            // The dense array first: after a large component most starts
            // stop there, without touching the slot arena.
            let start = start_slot as usize;
            if self.dfs_num.get(start) != Some(&UNVISITED) || heap.get_slot(start_slot).is_none() {
                continue;
            }
            self.begin_visit(start_slot, &mut counter);
            while let Some(&Frame {
                slot: v, cursor, ..
            }) = self.frames.last()
            {
                let vi = v as usize;
                let refs = &heap.get_slot(v).expect("visited slot occupied").refs;
                let mut i = cursor as usize;
                let mut descended = false;
                while i < refs.len() {
                    match refs[i] {
                        HeapRef::Local(w) if heap.get_slot(w).is_some() => {
                            let wi = w as usize;
                            if self.dfs_num[wi] == UNVISITED {
                                self.frames.last_mut().expect("frame exists").cursor = i as u32 + 1;
                                self.begin_visit(w, &mut counter);
                                descended = true;
                                break;
                            }
                            if self.on_stack[wi] {
                                self.low[vi] = self.low[vi].min(self.dfs_num[wi]);
                            } else {
                                self.pending_succ.push(self.comp_of[wi]);
                            }
                        }
                        HeapRef::Local(_) => {}
                        HeapRef::Remote(r) => self.pending_refs.push(r),
                    }
                    i += 1;
                }
                if descended {
                    continue;
                }
                let frame = self.frames.pop().expect("frame exists");
                let emitted = self.low[vi] == self.dfs_num[vi];
                if emitted {
                    let c = self.succ.end.len() as u32;
                    loop {
                        let w = self.stack.pop().expect("tarjan stack nonempty");
                        self.on_stack[w as usize] = false;
                        self.comp_of[w as usize] = c;
                        if w == v {
                            break;
                        }
                    }
                    self.succ.push_row(&mut self.pending_succ, frame.succ_from);
                    self.direct
                        .push_row(&mut self.pending_refs, frame.stubs_from);
                }
                if let Some(&Frame { slot: parent, .. }) = self.frames.last() {
                    let pi = parent as usize;
                    self.low[pi] = self.low[pi].min(self.low[vi]);
                    if emitted {
                        self.pending_succ.push(self.comp_of[vi]);
                    }
                }
            }
        }
    }

    /// Index the stub table (ascending `RefId` = bit order, so decoding a
    /// bitset emits the sorted stub lists the reference summarizer
    /// produces) and number each component's direct references against
    /// it. Rows stay ascending: the numbering is monotone.
    fn number_stubs(&mut self, tables: &RemotingTables) {
        self.stub_ids.clear();
        self.stub_ids.extend(tables.stubs().map(|s| s.ref_id));
        self.stub_ids.sort_unstable();
        self.direct_bits.clear();
        for c in 0..self.direct.end.len() {
            for r in self.direct.row(c) {
                if let Ok(bit) = self.stub_ids.binary_search(r) {
                    self.direct_bits.items.push(bit as u32);
                }
            }
            self.direct_bits
                .end
                .push(self.direct_bits.items.len() as u32);
        }
    }

    /// Forward reachability from local roots over the condensation, plus
    /// the `Local.Reach` stub bits (stubs held directly by root-reachable
    /// objects). Descending emission order visits predecessors first.
    fn mark_root_components(&mut self, roots: impl Iterator<Item = Slot>) {
        let num = self.succ.end.len();
        self.comp_root.clear();
        self.comp_root.resize(num, false);
        self.root_stub_bits.clear();
        // A freed slot leaves the root set, so every root has a component.
        for slot in roots {
            self.comp_root[self.comp_of[slot as usize] as usize] = true;
        }
        for c in (0..num).rev() {
            if !self.comp_root[c] {
                continue;
            }
            for &cw in self.succ.row(c) {
                self.comp_root[cw as usize] = true;
            }
            for &bit in self.direct_bits.row(c) {
                self.root_stub_bits.insert(bit as usize);
            }
        }
    }

    /// Bottom-up reachable-stub propagation: ascending emission order is
    /// reverse topological order, so every successor component's set is
    /// final when it is unioned in. Sets live in a pool addressed through
    /// `reach_of`; a component holding no stubs directly and seeing at most
    /// one distinct successor component takes its successor's pool slot
    /// instead of materializing a set — the chains that dominate disjoint
    /// scion topologies then cost O(1) per component instead of O(W/64).
    fn propagate_reach(&mut self) {
        let num = self.succ.end.len();
        self.reach_of.clear();
        if self.pool.is_empty() {
            self.pool.push(BitSet::default());
        }
        self.pool[EMPTY_SLOT as usize].clear();
        self.pool_len = 1;
        let mut inherited = 0usize;
        let mut unioned = 0usize;
        for c in 0..num {
            let (succ, direct) = (self.succ.row(c), self.direct_bits.row(c));
            debug_assert!(
                succ.iter().all(|&cw| (cw as usize) < c),
                "tarjan emission order violated"
            );
            let slot = if direct.is_empty() && succ.len() <= 1 {
                inherited += 1;
                match succ.first() {
                    Some(&cw) => self.reach_of[cw as usize],
                    None => EMPTY_SLOT,
                }
            } else {
                unioned += 1;
                if self.pool_len == self.pool.len() {
                    self.pool.push(BitSet::default());
                }
                let s = self.pool_len;
                self.pool_len += 1;
                let (finished, rest) = self.pool.split_at_mut(s);
                let current = &mut rest[0];
                current.clear();
                for &bit in direct {
                    current.insert(bit as usize);
                }
                for &cw in succ {
                    let src = self.reach_of[cw as usize] as usize;
                    debug_assert!(src < s, "successor slot allocated after its reader");
                    current.union_with(&finished[src]);
                }
                s as u32
            };
            self.reach_of.push(slot);
        }
        self.dispatch.inherited_components = inherited;
        self.dispatch.unioned_components = unioned;
    }

    /// Decode the per-component facts into the summary form.
    fn build_summary(
        &self,
        heap: &Heap,
        tables: &RemotingTables,
        version: u64,
        taken_at: SimTime,
    ) -> SummarizedGraph {
        let mut scions: FxHashMap<RefId, ScionSummary> = FxHashMap::default();
        // Keyed by stub bit.
        let mut scions_to: FxHashMap<usize, Vec<RefId>> = FxHashMap::default();
        for scion in tables.scions() {
            let slot = scion.target.slot;
            let (stubs_from, target_locally_reachable) = if heap.get_slot(slot).is_some() {
                let c = self.comp_of[slot as usize] as usize;
                let mut from = Vec::new();
                for bit in self.pool[self.reach_of[c] as usize].iter() {
                    from.push(self.stub_ids[bit]);
                    scions_to.entry(bit).or_default().push(scion.ref_id);
                }
                (from, self.comp_root[c])
            } else {
                // Dangling target (freed slot): nothing reachable, exactly
                // like the reference's empty closure from a dead seed.
                (Vec::new(), false)
            };
            scions.insert(
                scion.ref_id,
                ScionSummary {
                    ref_id: scion.ref_id,
                    from_proc: scion.from_proc,
                    ic: scion.ic,
                    stubs_from,
                    target_locally_reachable,
                    last_invoked: scion.last_invoked,
                    incarnation: scion.incarnation,
                    pinned: scion.pinned,
                },
            );
        }

        // A stub appears in the summary iff some scion reaches it or a
        // root-reachable object holds it; the bit universe is the stub
        // table, so no existence filtering is needed.
        for bit in self.root_stub_bits.iter() {
            scions_to.entry(bit).or_default();
        }
        let mut stubs: FxHashMap<RefId, StubSummary> = FxHashMap::default();
        for (bit, mut to) in scions_to {
            let ref_id = self.stub_ids[bit];
            let stub = tables.stub(ref_id).expect("bit universe is the stub table");
            to.sort_unstable();
            to.dedup();
            stubs.insert(
                ref_id,
                StubSummary {
                    ref_id,
                    target_proc: stub.target.proc,
                    ic: stub.ic,
                    scions_to: to,
                    local_reach: self.root_stub_bits.contains(bit),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summaries_equivalent;
    use crate::summary::summarize;
    use acdgc_model::{ObjId, ProcId};

    fn assert_matches_reference(heap: &Heap, tables: &RemotingTables) {
        let mut engine = SccEngine::new();
        let by_engine = engine.summarize(heap, tables, 7, SimTime(3));
        let by_reference = summarize(heap, tables, 7, SimTime(3));
        assert!(
            summaries_equivalent(&by_engine, &by_reference),
            "engine: {by_engine:?}\nreference: {by_reference:?}"
        );
        assert_eq!(by_engine.version, 7);
        assert_eq!(by_engine.taken_at, SimTime(3));
    }

    /// scion(r1) -> a -> b -> stub(r2); root -> c -> stub(r3).
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
    fn matches_reference_on_fixture() {
        let (heap, tables) = fixture();
        assert_matches_reference(&heap, &tables);
    }

    #[test]
    fn chain_summary_facts() {
        let (heap, tables) = fixture();
        let mut engine = SccEngine::new();
        let s = engine.summarize(&heap, &tables, 1, SimTime(10));
        let scion = s.scion(RefId(1)).unwrap();
        assert_eq!(scion.stubs_from, vec![RefId(2)]);
        assert!(!scion.target_locally_reachable);
        assert_eq!(s.stub(RefId(2)).unwrap().scions_to, vec![RefId(1)]);
        assert!(!s.stub(RefId(2)).unwrap().local_reach);
        assert!(s.stub(RefId(3)).unwrap().local_reach);
        assert!(s.stub(RefId(3)).unwrap().scions_to.is_empty());
    }

    #[test]
    fn local_cycle_collapses_to_one_component() {
        // scion -> a <-> b -> stub; the cycle is one SCC, so both members
        // share one reachable-stub set.
        let mut heap = Heap::new(ProcId(0));
        let mut tables = RemotingTables::new(ProcId(0));
        let a = heap.alloc(1);
        let b = heap.alloc(1);
        heap.add_ref(a, HeapRef::Local(b.slot)).unwrap();
        heap.add_ref(b, HeapRef::Local(a.slot)).unwrap();
        heap.add_ref(b, HeapRef::Remote(RefId(5))).unwrap();
        tables.add_scion(RefId(1), a, ProcId(1), SimTime(0));
        tables.add_scion(RefId(2), b, ProcId(2), SimTime(0));
        tables.add_stub(RefId(5), ObjId::new(ProcId(3), 0, 0), SimTime(0));
        assert_matches_reference(&heap, &tables);
        let mut engine = SccEngine::new();
        let s = engine.summarize(&heap, &tables, 1, SimTime(0));
        assert_eq!(s.scion(RefId(1)).unwrap().stubs_from, vec![RefId(5)]);
        assert_eq!(s.scion(RefId(2)).unwrap().stubs_from, vec![RefId(5)]);
        assert_eq!(
            s.stub(RefId(5)).unwrap().scions_to,
            vec![RefId(1), RefId(2)]
        );
    }

    #[test]
    fn shared_tail_and_root_overlap() {
        // Two scion chains converge on a shared tail holding two stubs;
        // a root also reaches one chain, flipping Local.Reach and
        // target_locally_reachable.
        let mut heap = Heap::new(ProcId(0));
        let mut tables = RemotingTables::new(ProcId(0));
        let a = heap.alloc(1);
        let b = heap.alloc(1);
        let tail = heap.alloc(1);
        let rooted = heap.alloc(1);
        heap.add_ref(a, HeapRef::Local(tail.slot)).unwrap();
        heap.add_ref(b, HeapRef::Local(tail.slot)).unwrap();
        heap.add_ref(tail, HeapRef::Remote(RefId(10))).unwrap();
        heap.add_ref(tail, HeapRef::Remote(RefId(11))).unwrap();
        heap.add_ref(rooted, HeapRef::Local(b.slot)).unwrap();
        heap.add_root(rooted).unwrap();
        tables.add_scion(RefId(1), a, ProcId(1), SimTime(0));
        tables.add_scion(RefId(2), b, ProcId(2), SimTime(0));
        tables.add_stub(RefId(10), ObjId::new(ProcId(3), 0, 0), SimTime(0));
        tables.add_stub(RefId(11), ObjId::new(ProcId(3), 1, 0), SimTime(0));
        assert_matches_reference(&heap, &tables);
        let mut engine = SccEngine::new();
        let s = engine.summarize(&heap, &tables, 1, SimTime(0));
        assert!(!s.scion(RefId(1)).unwrap().target_locally_reachable);
        assert!(s.scion(RefId(2)).unwrap().target_locally_reachable);
        assert!(s.stub(RefId(10)).unwrap().local_reach);
        assert_eq!(
            s.scion(RefId(1)).unwrap().stubs_from,
            vec![RefId(10), RefId(11)]
        );
    }

    #[test]
    fn dangling_scion_target_is_empty() {
        let heap = Heap::new(ProcId(0));
        let mut tables = RemotingTables::new(ProcId(0));
        // Scion whose target slot was never allocated (e.g. freed before
        // the snapshot): the reference seeds an empty closure from it.
        tables.add_scion(
            RefId(1),
            ObjId::new(ProcId(0), 99, 0),
            ProcId(1),
            SimTime(0),
        );
        assert_matches_reference(&heap, &tables);
        let mut engine = SccEngine::new();
        let s = engine.summarize(&heap, &tables, 1, SimTime(0));
        let scion = s.scion(RefId(1)).unwrap();
        assert!(scion.stubs_from.is_empty());
        assert!(!scion.target_locally_reachable);
    }

    #[test]
    fn heap_held_refs_without_table_stub_are_ignored() {
        let mut heap = Heap::new(ProcId(0));
        let mut tables = RemotingTables::new(ProcId(0));
        let a = heap.alloc(1);
        // r9 is held in the heap but has no stub table entry (e.g. removed
        // by the monitor between edits): it must not surface anywhere.
        heap.add_ref(a, HeapRef::Remote(RefId(9))).unwrap();
        heap.add_root(a).unwrap();
        tables.add_scion(RefId(1), a, ProcId(1), SimTime(0));
        assert_matches_reference(&heap, &tables);
        let mut engine = SccEngine::new();
        let s = engine.summarize(&heap, &tables, 1, SimTime(0));
        assert!(s.stub(RefId(9)).is_none());
        assert!(s.scion(RefId(1)).unwrap().stubs_from.is_empty());
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 200k-object chain: a recursive Tarjan would blow the stack.
        let mut heap = Heap::new(ProcId(0));
        let mut tables = RemotingTables::new(ProcId(0));
        let n = 200_000;
        let ids: Vec<ObjId> = (0..n).map(|_| heap.alloc(1)).collect();
        for pair in ids.windows(2) {
            heap.add_ref(pair[0], HeapRef::Local(pair[1].slot)).unwrap();
        }
        heap.add_ref(ids[n - 1], HeapRef::Remote(RefId(2))).unwrap();
        tables.add_scion(RefId(1), ids[0], ProcId(1), SimTime(0));
        tables.add_stub(RefId(2), ObjId::new(ProcId(1), 0, 0), SimTime(0));
        let mut engine = SccEngine::new();
        let s = engine.summarize(&heap, &tables, 1, SimTime(0));
        assert_eq!(s.scion(RefId(1)).unwrap().stubs_from, vec![RefId(2)]);
    }

    #[test]
    fn engine_reuse_across_mutations_stays_exact() {
        let (mut heap, mut tables) = fixture();
        let mut engine = SccEngine::new();
        let first = engine.summarize(&heap, &tables, 1, SimTime(0));
        assert!(summaries_equivalent(
            &first,
            &summarize(&heap, &tables, 1, SimTime(0))
        ));
        // Mutate: new rooted object adopting the scion chain, plus a new
        // stub, then re-run on the same engine (scratch reuse path).
        let d = heap.alloc(1);
        let a = heap.id_of_slot(0).unwrap();
        heap.add_ref(d, HeapRef::Local(a.slot)).unwrap();
        heap.add_ref(d, HeapRef::Remote(RefId(8))).unwrap();
        heap.add_root(d).unwrap();
        tables.add_stub(RefId(8), ObjId::new(ProcId(4), 0, 0), SimTime(1));
        let second = engine.summarize(&heap, &tables, 2, SimTime(2));
        assert!(summaries_equivalent(
            &second,
            &summarize(&heap, &tables, 2, SimTime(2))
        ));
        assert!(second.scion(RefId(1)).unwrap().target_locally_reachable);
        assert!(second.stub(RefId(2)).unwrap().local_reach);
    }

    #[test]
    fn collect_frees_the_unvisited_and_seals_for_the_snapshot() {
        let (mut heap, tables) = fixture();
        let a = heap.id_of_slot(0).unwrap();
        let orphan = heap.alloc(1);
        heap.add_ref(orphan, HeapRef::Remote(RefId(4))).unwrap();
        heap.add_ref(orphan, HeapRef::Local(a.slot)).unwrap();
        let mut engine = SccEngine::new();
        let swept = engine.collect(&mut heap, &tables.scion_target_slots());
        assert_eq!(swept.freed, &[orphan]);
        assert_eq!(swept.live_stubs, &[RefId(2), RefId(3)]);
        engine.summarize(&heap, &tables, 1, SimTime(0));
        assert!(engine.last_dispatch().reused, "no write since the sweep");
        assert_matches_reference(&heap, &tables);
        engine.summarize(&heap, &tables, 2, SimTime(0));
        assert!(engine.last_dispatch().reused, "a snapshot seals too");
        heap.remove_root(heap.id_of_slot(2).unwrap()).unwrap();
        let s = engine.summarize(&heap, &tables, 3, SimTime(0));
        assert!(!engine.last_dispatch().reused, "a write forces the walk");
        assert!(s.stub(RefId(3)).is_none(), "c is no longer a root");
    }

    #[test]
    fn a_clone_never_reuses_the_original_condensation() {
        let (heap, tables) = fixture();
        let mut engine = SccEngine::new();
        engine.summarize(&heap, &tables, 1, SimTime(0));
        let twin = heap.clone();
        engine.summarize(&twin, &tables, 2, SimTime(0));
        assert!(!engine.last_dispatch().reused);
    }

    #[test]
    fn empty_world() {
        let heap = Heap::new(ProcId(0));
        let tables = RemotingTables::new(ProcId(0));
        let mut engine = SccEngine::new();
        let s = engine.summarize(&heap, &tables, 1, SimTime(0));
        assert!(s.scions.is_empty());
        assert!(s.stubs.is_empty());
    }

    /// `chains` disjoint scion chains of `len` objects, each ending in a
    /// stub — the all-out-degree-≤1 shape the aliased propagation targets.
    fn chain_world(chains: usize, len: usize) -> (Heap, RemotingTables) {
        let mut heap = Heap::new(ProcId(0));
        let mut tables = RemotingTables::new(ProcId(0));
        for chain in 0..chains {
            let ids: Vec<ObjId> = (0..len).map(|_| heap.alloc(1)).collect();
            for pair in ids.windows(2) {
                heap.add_ref(pair[0], HeapRef::Local(pair[1].slot)).unwrap();
            }
            let stub = RefId((chains + chain) as u64);
            tables.add_scion(RefId(chain as u64), ids[0], ProcId(1), SimTime(0));
            tables.add_stub(stub, ObjId::new(ProcId(1), chain as u32, 0), SimTime(0));
            heap.add_ref(*ids.last().unwrap(), HeapRef::Remote(stub))
                .unwrap();
        }
        (heap, tables)
    }

    #[test]
    fn aliased_propagation_inherits_chains() {
        let (heap, tables) = chain_world(8, 25);
        assert_matches_reference(&heap, &tables);
        // Every interior chain component (24 of 25 per chain) inherits its
        // successor's set; only the stub-holding tails materialize one.
        let mut engine = SccEngine::new();
        engine.summarize(&heap, &tables, 1, SimTime(0));
        let d = engine.last_dispatch();
        assert_eq!((d.inherited_components, d.unioned_components), (8 * 24, 8));
    }

    #[test]
    fn one_giant_component_and_leaf_scions() {
        // The big-heap shape: a rooted ring with chords (one SCC) holding
        // 50 stubs, and 300 leaf singletons that are scion targets.
        let mut heap = Heap::new(ProcId(0));
        let mut tables = RemotingTables::new(ProcId(0));
        let ring: Vec<ObjId> = (0..2_000).map(|_| heap.alloc(1)).collect();
        for (i, &obj) in ring.iter().enumerate() {
            for to in [(i + 1) % ring.len(), i * 7 % ring.len()] {
                heap.add_ref(obj, HeapRef::Local(ring[to].slot)).unwrap();
            }
        }
        heap.add_root(ring[0]).unwrap();
        for k in 0..50u64 {
            let stub = RefId(1_000 + k);
            tables.add_stub(stub, ObjId::new(ProcId(1), k as u32, 0), SimTime(0));
            heap.add_ref(ring[k as usize * 37], HeapRef::Remote(stub))
                .unwrap();
        }
        // A tail off the root with every field doubled: each second copy
        // is a non-tree edge into a component already emitted.
        let (t1, t2) = (heap.alloc(1), heap.alloc(1));
        for (from, to) in [(ring[0], t1), (t1, t2), (ring[0], t1), (t1, t2)] {
            heap.add_ref(from, HeapRef::Local(to.slot)).unwrap();
        }
        for k in 0..300u64 {
            tables.add_scion(RefId(k), heap.alloc(1), ProcId(1), SimTime(0));
        }
        assert_matches_reference(&heap, &tables);
        let mut engine = SccEngine::new();
        engine.summarize(&heap, &tables, 1, SimTime(0));
        let d = engine.last_dispatch();
        // The ring materializes one set; the tail (one distinct successor
        // each) and every leaf (none) hold nothing and inherit.
        assert_eq!((d.inherited_components, d.unioned_components), (302, 1));
    }
}
