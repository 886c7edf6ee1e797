//! `churn_lossy`: 8 processes in periodic mode (`GcConfig::default()`,
//! `run_for` in 10 ms slices) over a network with 0.1–2 ms latency, 30 %
//! GC-message drop and 10 % duplication. Each epoch un-anchors the rings
//! planted three epochs earlier, plants two anchored rings, and invokes
//! along live rings' references (racing IC bumps); after the last epoch
//! everything is un-anchored and the run continues until nothing is left.

use super::Scale;
use crate::api::{ObjId, ProcId, RefId};
use crate::driver::{Harness, StructId};
use crate::rng::SplitMix;

pub const PROCS: usize = 8;
pub const OBJS_PER_PROC: usize = 3;
pub const RINGS_PER_EPOCH: usize = 2;
pub const INVOKES_PER_EPOCH: usize = 8;
/// Epochs a ring stays anchored.
pub const LIVE_EPOCHS: usize = 3;
/// 10 ms slices per epoch: an epoch is one default LGC period.
pub const SLICES_PER_EPOCH: usize = 5;
/// Simulated time allowed after the last epoch for the tail to drain.
const TAIL_DEADLINE_US: u64 = 120_000_000;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Invoke {
    /// Which of the live rings, oldest first (taken modulo their count).
    pub ring: u32,
    /// Which reference of that ring (taken modulo its span).
    pub edge: u32,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Epoch {
    /// Participating processes of each ring planted, in ring order.
    pub plant: Vec<Vec<u16>>,
    pub invokes: Vec<Invoke>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    pub epochs: Vec<Epoch>,
}

pub fn generate(rng: SplitMix, scale: Scale) -> Plan {
    let epochs = scale.pick(6_000, 120);
    let mut rings = rng.fork(1);
    let mut calls = rng.fork(2);
    let epochs = (0..epochs)
        .map(|_| Epoch {
            plant: (0..RINGS_PER_EPOCH)
                .map(|_| {
                    let span = 2 + rings.below(5);
                    let start = rings.below(PROCS);
                    (0..span).map(|k| ((start + k) % PROCS) as u16).collect()
                })
                .collect(),
            invokes: (0..INVOKES_PER_EPOCH)
                .map(|_| Invoke {
                    ring: calls.next_u64() as u32,
                    edge: calls.next_u64() as u32,
                })
                .collect(),
        })
        .collect();
    Plan { epochs }
}

struct LiveRing {
    id: StructId,
    procs: Vec<ProcId>,
    refs: Vec<RefId>,
    anchor: ObjId,
}

fn unanchor(h: &mut Harness, ring: LiveRing) {
    h.sim.remove_root(ring.anchor);
    h.garbage_now(ring.id);
}

pub fn execute(plan: &Plan, h: &mut Harness) {
    // Anchored rings, oldest first.
    let mut live: std::collections::VecDeque<LiveRing> = Default::default();
    for epoch in &plan.epochs {
        h.begin_mutator();
        while live.len() > RINGS_PER_EPOCH * (LIVE_EPOCHS - 1) {
            let ring = live.pop_front().expect("non-empty");
            unanchor(h, ring);
        }
        for ring in &epoch.plant {
            let procs: Vec<ProcId> = ring.iter().map(|&p| ProcId(p)).collect();
            let (heads, refs, anchor) = h.sim.ring(&procs, OBJS_PER_PROC, true);
            let anchor = anchor.expect("anchored ring");
            let objects = (procs.len() * OBJS_PER_PROC + 1) as u64;
            let id = h.plant(heads, true, objects);
            live.push_back(LiveRing {
                id,
                procs,
                refs,
                anchor,
            });
        }
        for call in &epoch.invokes {
            let ring = &live[call.ring as usize % live.len()];
            let n = ring.refs.len();
            let edge = call.edge as usize % n;
            // refs[i] runs from the tail at procs[i-1] to the head at procs[i].
            let caller = ring.procs[(edge + n - 1) % n];
            let sent = h.sim.invoke_oneway(caller, ring.refs[edge]);
            assert!(sent, "a live ring's stub is gone");
        }
        h.end_mutator();
        for _ in 0..SLICES_PER_EPOCH {
            h.slice();
        }
    }
    h.begin_mutator();
    while let Some(ring) = live.pop_front() {
        unanchor(h, ring);
    }
    h.end_mutator();
    let deadline = h.sim.clock_us() + TAIL_DEADLINE_US;
    while h.sim.total_live_objects() > 0 && h.sim.clock_us() < deadline {
        h.slice();
    }
}
