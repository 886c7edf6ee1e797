//! `ladder`: waves of all-garbage diamond ladders — `s` stages on `s`
//! processes, `w` objects per stage, every object of stage *i* holding a
//! remote reference to every object of stage *i+1 mod s*, so a detection
//! faces `w^s` converging paths. 6×2 ladders run to completion inside
//! `detection_budget`; 8×2 ladders exhaust it and are finished by the
//! eager-combine rounds.

use super::Scale;
use crate::api::{ObjId, ProcId};
use crate::driver::Harness;
use crate::rng::SplitMix;

pub const PROCS: usize = 8;
const MAX_ROUNDS: usize = 1_000;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ladder {
    /// One process per stage, in stage order.
    pub procs: Vec<u16>,
    pub width: usize,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    pub waves: Vec<Vec<Ladder>>,
}

pub fn generate(rng: SplitMix, scale: Scale) -> Plan {
    // Stage counts of the waves of one repetition, one ladder per wave:
    // six that complete inside the budget for each one that exhausts it.
    // The six 6×2 storms together outlast the 8×2 storm (about 59 % of the
    // collector's time to 41 %), so the time-weighted median pause is a
    // 6×2 storm and the 90th percentile the 8×2 storm.
    let stages: &[usize] = match scale {
        Scale::Full => &[6, 6, 6, 6, 6, 6, 8],
        Scale::Smoke => &[4, 4],
    };
    let waves = stages
        .iter()
        .enumerate()
        .map(|(w, &s)| {
            let mut rng = rng.fork(w as u64);
            // A seeded choice of `s` of the 8 processes, in seeded order.
            let mut procs: Vec<u16> = (0..PROCS as u16).collect();
            rng.shuffle(&mut procs);
            procs.truncate(s);
            vec![Ladder { procs, width: 2 }]
        })
        .collect();
    Plan { waves }
}

/// Build one ladder; returns every object, stage by stage.
pub fn build(h: &mut Harness, ladder: &Ladder) -> Vec<ObjId> {
    let stages: Vec<Vec<ObjId>> = ladder
        .procs
        .iter()
        .map(|&p| (0..ladder.width).map(|_| h.sim.alloc(ProcId(p))).collect())
        .collect();
    let s = stages.len();
    for i in 0..s {
        for &from in &stages[i] {
            for &to in &stages[(i + 1) % s] {
                h.sim.create_remote_ref(from, to);
            }
        }
    }
    stages.into_iter().flatten().collect()
}

pub fn execute(plan: &Plan, h: &mut Harness) {
    for wave in &plan.waves {
        h.begin_mutator();
        for ladder in wave {
            let objects = build(h, ladder);
            let count = objects.len() as u64;
            let id = h.plant(objects, true, count);
            h.garbage_now(id);
        }
        h.end_mutator();
        h.collect_to_fixpoint(MAX_ROUNDS);
    }
}
