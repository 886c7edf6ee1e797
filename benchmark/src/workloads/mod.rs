//! The four seeded workloads. Each module generates a plan — plain data
//! drawn from the benchmark's own PRNG — and executes it against a
//! [`Harness`]; the simulator receives only the generated operations.

pub mod big_heap;
pub mod churn_lossy;
pub mod ladder;
pub mod rings;

use crate::api::Sim;
use crate::driver::Harness;
use crate::rng::SplitMix;

/// Workload sizes: the committed size, or one small enough for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Rings,
    Ladder,
    ChurnLossy,
    BigHeap,
}

pub const ALL: [Workload; 4] = [
    Workload::Rings,
    Workload::Ladder,
    Workload::ChurnLossy,
    Workload::BigHeap,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Rings => "rings",
            Workload::Ladder => "ladder",
            Workload::ChurnLossy => "churn_lossy",
            Workload::BigHeap => "big_heap",
        }
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::Rings => "many small disjoint garbage rings: every layer does a little, per-scion candidate duplication shows",
            Workload::Ladder => "diamond ladders with 2^s converging paths: the detector algebra, CDM sizing and network queue do all the work",
            Workload::ChurnLossy => "periodic mode under 30% GC-message loss with racing invocations: retries, backoff, NSS and the IC barrier decide the result",
            Workload::BigHeap => "large live heaps with only acyclic garbage: LGC and summarization set the pause, the detector is idle",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs periodic GC phases (`run_for` slices)
    /// rather than manual rounds.
    pub fn periodic(self) -> bool {
        self == Workload::ChurnLossy
    }
}

/// A generated operation stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Plan {
    Rings(rings::Plan),
    Ladder(ladder::Plan),
    ChurnLossy(churn_lossy::Plan),
    BigHeap(big_heap::Plan),
}

impl Plan {
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Plan {
        let rng = SplitMix::new(seed);
        match workload {
            Workload::Rings => Plan::Rings(rings::generate(rng, scale)),
            Workload::Ladder => Plan::Ladder(ladder::generate(rng, scale)),
            Workload::ChurnLossy => Plan::ChurnLossy(churn_lossy::generate(rng, scale)),
            Workload::BigHeap => Plan::BigHeap(big_heap::generate(rng, scale)),
        }
    }

    /// A fresh simulator of the workload's configuration. `seed` derives
    /// the simulator's own RNGs (network latency, loss, duplication).
    pub fn build_sim(&self, seed: u64) -> Sim {
        match self {
            Plan::Rings(_) => Sim::manual(rings::PROCS, seed),
            Plan::Ladder(_) => Sim::manual(ladder::PROCS, seed),
            Plan::ChurnLossy(_) => Sim::periodic_lossy(churn_lossy::PROCS, seed),
            Plan::BigHeap(_) => Sim::manual(big_heap::PROCS, seed),
        }
    }

    /// Build the initial topology, outside the timed region. Only
    /// `big_heap` starts from one.
    pub fn prepare(&self, h: &mut Harness) -> Prepared {
        match self {
            Plan::BigHeap(p) => Some(big_heap::prepare(p, h)),
            _ => None,
        }
    }

    /// The timed region: mutator operations and collection to fixpoint.
    pub fn execute(&self, h: &mut Harness, prepared: Prepared) {
        match self {
            Plan::Rings(p) => rings::execute(p, h),
            Plan::Ladder(p) => ladder::execute(p, h),
            Plan::ChurnLossy(p) => churn_lossy::execute(p, h),
            Plan::BigHeap(p) => {
                big_heap::execute(p, h, prepared.expect("big_heap prepares its heap"))
            }
        }
    }
}

/// What [`Plan::prepare`] built.
pub type Prepared = Option<big_heap::Built>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{holds_remote, ProcId};
    use crate::driver::Planted;

    fn harness(plan: &Plan) -> Harness<'static> {
        let mut sim = plan.build_sim(1);
        sim.set_check_safety(true);
        Harness::new(sim, None)
    }

    /// Objects a plan will turn into garbage, computed from the plan alone.
    fn planned_garbage(plan: &Plan) -> u64 {
        match plan {
            Plan::Rings(p) => p
                .waves
                .iter()
                .flatten()
                .map(|ring| (ring.len() * rings::OBJS_PER_PROC) as u64)
                .sum(),
            Plan::Ladder(p) => p
                .waves
                .iter()
                .flatten()
                .map(|l| (l.procs.len() * l.width) as u64)
                .sum(),
            Plan::ChurnLossy(p) => p
                .epochs
                .iter()
                .flat_map(|e| &e.plant)
                .map(|ring| (ring.len() * churn_lossy::OBJS_PER_PROC + 1) as u64)
                .sum(),
            Plan::BigHeap(p) => p
                .rounds
                .iter()
                .map(|r| (r.drops.len() + big_heap::PROCS * p.allocs) as u64)
                .sum(),
        }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream_of_similar_size() {
        for w in ALL {
            let a = Plan::generate(w, 11, Scale::Smoke);
            assert_eq!(a, Plan::generate(w, 11, Scale::Smoke), "{}", w.name());
            let b = Plan::generate(w, 12, Scale::Smoke);
            assert_ne!(a, b, "{}", w.name());
            let (ga, gb) = (planned_garbage(&a) as f64, planned_garbage(&b) as f64);
            assert!((ga - gb).abs() / ga < 0.05, "{}: {ga} vs {gb}", w.name());
        }
        // At the committed size the draws average out further.
        let a = planned_garbage(&Plan::generate(Workload::ChurnLossy, 1, Scale::Full)) as f64;
        let b = planned_garbage(&Plan::generate(Workload::ChurnLossy, 2, Scale::Full)) as f64;
        assert!((a - b).abs() / a < 0.02);
    }

    #[test]
    fn rings_are_garbage_from_birth_with_every_span_equally_often() {
        let plan = Plan::generate(Workload::Rings, 5, Scale::Smoke);
        let Plan::Rings(p) = &plan else {
            unreachable!()
        };
        for wave in &p.waves {
            for span in rings::SPANS {
                let n = wave.iter().filter(|r| r.len() == span).count();
                assert_eq!(n, wave.len() / rings::SPANS.len());
            }
            // Consecutive distinct processes: a rotation of 0..16.
            for ring in wave {
                assert!(ring
                    .windows(2)
                    .all(|w| (w[0] as usize + 1) % rings::PROCS == w[1] as usize));
            }
        }
        let mut h = harness(&plan);
        plan.execute(&mut h, None);
        let d = h.finish();
        let rings: u64 = p.waves.iter().map(|w| w.len() as u64).sum();
        assert_eq!(
            d.planted,
            Planted {
                structures: rings,
                cycles: rings,
                garbage_objects: planned_garbage(&plan)
            }
        );
        assert_eq!(d.structures_reclaimed, rings);
        assert_eq!((d.sim.total_live_objects(), d.sim.violations()), (0, 0));
        assert_eq!(d.sim.metrics().objects_reclaimed, planned_garbage(&plan));
    }

    #[test]
    fn a_ladder_is_all_garbage_and_fully_connected_stage_to_stage() {
        let ladder = ladder::Ladder {
            procs: vec![3, 0, 6, 1],
            width: 2,
        };
        let plan = Plan::Ladder(ladder::Plan {
            waves: vec![vec![ladder.clone()]],
        });
        let mut h = harness(&plan);
        let objects = ladder::build(&mut h, &ladder);
        assert_eq!(objects.len(), 8);
        assert_eq!(h.sim.total_live_objects(), 8);
        assert_eq!(h.sim.garbage_left(), 8, "nothing roots a ladder");
        // One stub/scion pair per (holder process, target object).
        assert_eq!(h.sim.total_scions(), 8);
        for (i, &from) in objects.iter().enumerate() {
            let stage = i / 2;
            assert_eq!(from.proc, ProcId(ladder.procs[stage]));
            for k in 0..2 {
                let to = objects[((stage + 1) % 4) * 2 + k];
                let r = h.sim.stub_for_target(from.proc, to).expect("pair exists");
                assert!(holds_remote(&h.sim, from, r));
            }
        }
        // The committed mix: six 6x2 for each 8x2, one ladder per wave.
        let Plan::Ladder(full) = Plan::generate(Workload::Ladder, 1, Scale::Full) else {
            unreachable!()
        };
        let stages: Vec<usize> = full.waves.iter().map(|w| w[0].procs.len()).collect();
        assert_eq!(stages, [6, 6, 6, 6, 6, 6, 8]);
        assert!(full.waves.iter().all(|w| w.len() == 1 && w[0].width == 2));
    }

    #[test]
    fn churn_rings_are_live_while_anchored_and_garbage_after() {
        let plan = Plan::generate(Workload::ChurnLossy, 9, Scale::Smoke);
        let Plan::ChurnLossy(p) = &plan else {
            unreachable!()
        };
        assert!(p
            .epochs
            .iter()
            .all(|e| e.plant.len() == churn_lossy::RINGS_PER_EPOCH
                && e.invokes.len() == churn_lossy::INVOKES_PER_EPOCH
                && e.plant.iter().all(|r| (2..=6).contains(&r.len()))));
        // Two epochs in: everything planted so far is anchored, so live.
        let head = Plan::ChurnLossy(churn_lossy::Plan {
            epochs: p.epochs[..2].to_vec(),
        });
        let mut sim = head.build_sim(1);
        let mut live = 0;
        for epoch in &p.epochs[..2] {
            for ring in &epoch.plant {
                let procs: Vec<ProcId> = ring.iter().map(|&q| ProcId(q)).collect();
                sim.ring(&procs, churn_lossy::OBJS_PER_PROC, true);
                live += ring.len() * churn_lossy::OBJS_PER_PROC + 1;
            }
        }
        assert_eq!((sim.total_live_objects(), sim.garbage_left()), (live, 0));
        // The whole plan: every ring ends up un-anchored and reclaimed.
        let mut h = harness(&plan);
        plan.execute(&mut h, None);
        let d = h.finish();
        let rings = (p.epochs.len() * churn_lossy::RINGS_PER_EPOCH) as u64;
        assert_eq!((d.planted.structures, d.planted.cycles), (rings, rings));
        assert_eq!(d.planted.garbage_objects, planned_garbage(&plan));
        assert_eq!(d.structures_reclaimed, rings);
        assert_eq!((d.sim.total_live_objects(), d.sim.violations()), (0, 0));
        let (m, n) = (d.sim.metrics(), d.sim.net_stats());
        assert!(m.invocations as usize == p.epochs.len() * churn_lossy::INVOKES_PER_EPOCH);
        assert!(n.dropped > 0 && n.duplicated > 0);
    }

    #[test]
    fn big_heap_is_live_and_sheds_only_acyclic_garbage() {
        let plan = Plan::generate(Workload::BigHeap, 3, Scale::Smoke);
        let Plan::BigHeap(p) = &plan else {
            unreachable!()
        };
        let mut h = harness(&plan);
        let prepared = plan.prepare(&mut h);
        let remote: usize = p.remote.iter().map(Vec::len).sum();
        let service = big_heap::PROCS * (big_heap::PROCS - 1);
        assert_eq!(
            h.sim.total_live_objects(),
            big_heap::PROCS * p.chain + remote
        );
        assert_eq!(h.sim.garbage_left(), 0, "the prepared heap is all live");
        assert_eq!(h.sim.total_scions(), remote + service);
        plan.execute(&mut h, prepared);
        let d = h.finish();
        let drops: usize = p.rounds.iter().map(|r| r.drops.len()).sum();
        let exports: usize =
            p.rounds.iter().map(|r| r.calls.len()).sum::<usize>() * big_heap::EXPORTS_PER_CALL;
        assert_eq!(d.planted.cycles, 0);
        assert_eq!(d.planted.garbage_objects, planned_garbage(&plan));
        assert_eq!(d.structures_reclaimed, d.planted.structures);
        assert_eq!(d.sim.garbage_left(), 0);
        assert_eq!(
            d.sim.total_live_objects(),
            big_heap::PROCS * p.chain + remote + exports - drops
        );
        let m = d.sim.metrics();
        assert_eq!((m.detections_started, m.cdms_delivered), (0, 0));
        assert_eq!(m.refs_exported as usize, exports);
        assert_eq!(d.sim.violations(), 0);
    }
}
