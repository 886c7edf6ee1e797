//! Drives one repetition of a workload against the simulator.
//!
//! The workloads call [`Harness::round`] / [`Harness::slice`] for every
//! collector quantum and bracket their own operations with
//! [`Harness::begin_mutator`] / [`Harness::end_mutator`]. Untraced, a
//! quantum is one `gc_round()` / `run_for(10 ms)` call between two
//! `Instant::now()` reads and nothing else; traced, the same quantum is
//! driven phase by phase under spans (see `trace.rs`).

use crate::api::{ObjId, Sim, SimMicros};
use crate::trace::Tracer;
use std::time::Instant;

/// One simulated `run_for` slice of the periodic workload.
pub const SLICE_US: SimMicros = 10_000;
/// Simulated time `System::gc_round` advances the clock by.
pub const ROUND_US: SimMicros = 1_000;

/// What a workload planted, for the per-structure and per-object figures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Planted {
    /// Tracked structures (rings, ladders, garbage batches, dropped leaves).
    pub structures: u64,
    /// Structures that are distributed cycles.
    pub cycles: u64,
    /// Objects that were, or became, garbage.
    pub garbage_objects: u64,
}

struct Tracked {
    /// Simulated time the structure became garbage; `None` while live.
    garbage_at: Option<SimMicros>,
    members: Vec<ObjId>,
    /// Members before this index are known to be gone.
    next: usize,
}

/// Handle to a planted structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StructId(usize);

pub struct Harness<'t> {
    pub sim: Sim,
    tracer: Option<&'t mut Tracer>,
    quanta_ns: Vec<u64>,
    tracked: Vec<Tracked>,
    pending: Vec<usize>,
    lags_us: Vec<SimMicros>,
    planted: Planted,
    rounds: u64,
}

/// What one repetition measured, apart from the simulator's own counters.
pub struct Driven {
    pub sim: Sim,
    pub quanta_ns: Vec<u64>,
    pub lags_us: Vec<SimMicros>,
    pub planted: Planted,
    pub structures_reclaimed: u64,
    pub rounds: u64,
}

impl<'t> Harness<'t> {
    pub fn new(sim: Sim, tracer: Option<&'t mut Tracer>) -> Harness<'t> {
        Harness {
            sim,
            tracer,
            quanta_ns: Vec::new(),
            tracked: Vec::new(),
            pending: Vec::new(),
            lags_us: Vec::new(),
            planted: Planted::default(),
            rounds: 0,
        }
    }

    pub fn finish(self) -> Driven {
        Driven {
            structures_reclaimed: self.lags_us.len() as u64,
            sim: self.sim,
            quanta_ns: self.quanta_ns,
            lags_us: self.lags_us,
            planted: self.planted,
            rounds: self.rounds,
        }
    }

    /// Open / close the repetition's root span (traced runs only).
    pub fn open_rep(&mut self, index: u32) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.spans.open_rep(index);
        }
    }

    pub fn close_rep(&mut self) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.spans.close();
        }
    }

    // --- mutator side ----------------------------------------------------

    pub fn begin_mutator(&mut self) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.spans.open("mutator");
        }
    }

    pub fn end_mutator(&mut self) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.spans.close();
        }
    }

    /// Register a structure of `objects` objects whose `members` are
    /// watched for reclamation. It is live until [`Harness::garbage_now`].
    pub fn plant(&mut self, members: Vec<ObjId>, is_cycle: bool, objects: u64) -> StructId {
        self.planted.structures += 1;
        self.planted.cycles += u64::from(is_cycle);
        self.planted.garbage_objects += objects;
        self.tracked.push(Tracked {
            garbage_at: None,
            members,
            next: 0,
        });
        StructId(self.tracked.len() - 1)
    }

    /// The structure became garbage at the current simulated time.
    pub fn garbage_now(&mut self, id: StructId) {
        self.tracked[id.0].garbage_at = Some(self.sim.clock_us());
        self.pending.push(id.0);
    }

    // --- collector side --------------------------------------------------

    /// One manual collector quantum: `System::gc_round`.
    pub fn round(&mut self) {
        match self.tracer.as_deref_mut() {
            None => {
                let t = Instant::now();
                self.sim.gc_round();
                self.quanta_ns.push(t.elapsed().as_nanos() as u64);
            }
            Some(tracer) => {
                let ns = tracer.round(&mut self.sim, self.rounds);
                self.quanta_ns.push(ns);
            }
        }
        self.rounds += 1;
        self.observe();
    }

    /// One periodic collector quantum: `System::run_for(10 ms)`.
    pub fn slice(&mut self) {
        match self.tracer.as_deref_mut() {
            None => {
                let t = Instant::now();
                self.sim.run_for_us(SLICE_US);
                self.quanta_ns.push(t.elapsed().as_nanos() as u64);
            }
            Some(tracer) => {
                let ns = tracer.slice(&mut self.sim, self.rounds);
                self.quanta_ns.push(ns);
            }
        }
        self.rounds += 1;
        self.observe();
    }

    /// The benchmark's copy of `System::collect_to_fixpoint`: alternate
    /// `eager_combine` round by round, stop after three quiet rounds.
    pub fn collect_to_fixpoint(&mut self, max_rounds: usize) -> usize {
        let original = self.sim.eager_combine();
        let mut quiet = 0;
        let mut ran = max_rounds;
        for round in 1..=max_rounds {
            self.sim.set_eager_combine(round % 2 == 0 || original);
            let before = self.progress();
            self.round();
            if before == self.progress() {
                quiet += 1;
                if quiet >= 3 {
                    ran = round;
                    break;
                }
            } else {
                quiet = 0;
            }
        }
        self.sim.set_eager_combine(original);
        ran
    }

    fn progress(&self) -> (usize, usize, u64) {
        (
            self.sim.total_live_objects(),
            self.sim.total_scions(),
            self.sim.metrics().cycles_detected,
        )
    }

    /// Record the lag of every pending structure that is now fully gone.
    fn observe(&mut self) {
        let now = self.sim.clock_us();
        let (sim, tracked, lags) = (&self.sim, &mut self.tracked, &mut self.lags_us);
        self.pending.retain(|&i| {
            let s = &mut tracked[i];
            while s.next < s.members.len() && !sim.contains(s.members[s.next]) {
                s.next += 1;
            }
            if s.next < s.members.len() {
                return true;
            }
            lags.push(now - s.garbage_at.expect("pending structures are garbage"));
            false
        });
    }
}
