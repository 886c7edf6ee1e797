//! `big_heap`: 4 processes × 10,000 live objects (a rooted chain plus n/2
//! random local edges) and 400 remote references per process. Each round
//! drops 20 remote references, allocates 200 unreferenced objects per
//! process and exports 20 fresh references through invocations (table
//! writes beside the collector's table reads), then runs one `gc_round`.
//! Only acyclic garbage: the detector stays idle, LGC and summarization do
//! the work.
//!
//! The issue's prototype was five times this size (4 × 50,000). At that
//! size a process's working set (≈ 12 MB) lives in the host's shared L3,
//! and run-to-run timing spread was 9–18 %, which no regression bound
//! survives; at 10,000 objects it stays near the core's own L2 and the
//! spread is 2–3 %. The proportions (references per object, drops, exports
//! and allocations per round) are the prototype's.
//!
//! Remote references designate *leaf* objects held by nothing else, so a
//! dropped reference strands its leaf and the reference-listing path
//! (dead stub → `NewSetStubs` → scion deletion → next LGC) has something
//! to reclaim. The invocations travel over one fixed *service* reference
//! per ordered process pair, designating the callee's rooted chain head:
//! imported references hang off a locally reachable object, so their
//! scions are never detection candidates.

use super::Scale;
use crate::api::{ObjId, ProcId, RefId};
use crate::driver::Harness;
use crate::rng::SplitMix;

pub const PROCS: usize = 4;
/// References exported per invocation (the paper's Table 1 call shape).
pub const EXPORTS_PER_CALL: usize = 10;
const MAX_ROUNDS: usize = 100;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Round {
    /// Remote references to drop, as indices into the pool of droppable
    /// references (taken modulo its size when applied).
    pub drops: Vec<u32>,
    /// (caller, callee) of each exporting invocation.
    pub calls: Vec<(u16, u16)>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Live chain objects per process.
    pub chain: usize,
    /// Random extra local edges per process, as chain indices.
    pub local_edges: Vec<Vec<(u32, u32)>>,
    /// Initial remote references per process: (holder chain index, owner).
    pub remote: Vec<Vec<(u32, u16)>>,
    /// Unreferenced objects allocated per process per round.
    pub allocs: usize,
    pub rounds: Vec<Round>,
}

fn other_proc(rng: &mut SplitMix, p: usize) -> u16 {
    ((p + 1 + rng.below(PROCS - 1)) % PROCS) as u16
}

pub fn generate(rng: SplitMix, scale: Scale) -> Plan {
    let chain = scale.pick(10_000, 1_500);
    let remote_refs = scale.pick(400, 60);
    let rounds = scale.pick(120, 6);
    let (drops, exports) = (remote_refs / 20, remote_refs / 20);
    let mut edges = rng.fork(1);
    let mut refs = rng.fork(2);
    let mut ops = rng.fork(3);
    Plan {
        chain,
        local_edges: (0..PROCS)
            .map(|_| {
                (0..chain / 2)
                    .map(|_| (edges.below(chain) as u32, edges.below(chain) as u32))
                    .collect()
            })
            .collect(),
        remote: (0..PROCS)
            .map(|p| {
                (0..remote_refs)
                    .map(|_| (refs.below(chain) as u32, other_proc(&mut refs, p)))
                    .collect()
            })
            .collect(),
        allocs: chain / 50,
        rounds: (0..rounds)
            .map(|_| Round {
                drops: (0..drops).map(|_| ops.next_u64() as u32).collect(),
                calls: (0..exports / EXPORTS_PER_CALL)
                    .map(|k| {
                        let p = k % PROCS;
                        (p as u16, other_proc(&mut ops, p))
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// A droppable remote reference: `holder` designates `leaf` through `r`.
struct Held {
    holder: ObjId,
    r: RefId,
    leaf: ObjId,
}

/// The initial topology, built outside the timed region.
pub struct Built {
    heads: Vec<ObjId>,
    /// `service[p][q]`: the reference from p's chain head to q's.
    service: Vec<Vec<Option<RefId>>>,
    pool: Vec<Held>,
}

pub fn prepare(plan: &Plan, h: &mut Harness) -> Built {
    let mut chains: Vec<Vec<ObjId>> = Vec::with_capacity(PROCS);
    for p in 0..PROCS {
        let chain: Vec<ObjId> = (0..plan.chain)
            .map(|_| h.sim.alloc(ProcId(p as u16)))
            .collect();
        h.sim.add_root(chain[0]);
        for pair in chain.windows(2) {
            h.sim.add_local_ref(pair[0], pair[1]);
        }
        for &(a, b) in &plan.local_edges[p] {
            h.sim.add_local_ref(chain[a as usize], chain[b as usize]);
        }
        chains.push(chain);
    }
    let mut service = vec![vec![None; PROCS]; PROCS];
    for p in 0..PROCS {
        for q in 0..PROCS {
            if p != q {
                service[p][q] = Some(h.sim.create_remote_ref(chains[p][0], chains[q][0]));
            }
        }
    }
    let mut pool = Vec::new();
    for (p, refs) in plan.remote.iter().enumerate() {
        for &(holder, owner) in refs {
            let holder = chains[p][holder as usize];
            let leaf = h.sim.alloc(ProcId(owner));
            let r = h.sim.create_remote_ref(holder, leaf);
            pool.push(Held { holder, r, leaf });
        }
    }
    Built {
        heads: chains.iter().map(|c| c[0]).collect(),
        service,
        pool,
    }
}

pub fn execute(plan: &Plan, h: &mut Harness, built: Built) {
    let Built {
        heads,
        service,
        mut pool,
    } = built;
    for round in &plan.rounds {
        h.begin_mutator();
        for &raw in &round.drops {
            let held = pool.swap_remove(raw as usize % pool.len());
            h.sim.drop_remote_ref(held.holder, held.r);
            let id = h.plant(vec![held.leaf], false, 1);
            h.garbage_now(id);
        }
        for p in 0..PROCS {
            let batch: Vec<ObjId> = (0..plan.allocs)
                .map(|_| h.sim.alloc(ProcId(p as u16)))
                .collect();
            let id = h.plant(batch, false, plan.allocs as u64);
            h.garbage_now(id);
        }
        for &(p, q) in &round.calls {
            let leaves: Vec<ObjId> = (0..EXPORTS_PER_CALL)
                .map(|_| h.sim.alloc(ProcId(p)))
                .collect();
            let via = service[p as usize][q as usize].expect("distinct processes");
            h.sim.invoke_exporting(ProcId(p), via, leaves.clone());
            // Land the call now, so the import is mutator work and the
            // collector's first drain carries collector traffic only.
            h.sim.drain_network();
            for leaf in leaves {
                let r = h
                    .sim
                    .stub_for_target(ProcId(q), leaf)
                    .expect("the import created a stub");
                pool.push(Held {
                    holder: heads[q as usize],
                    r,
                    leaf,
                });
            }
        }
        h.end_mutator();
        h.round();
    }
    // The last rounds' garbage needs up to two more rounds.
    h.collect_to_fixpoint(MAX_ROUNDS);
}
