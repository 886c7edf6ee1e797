//! `rings`: waves of disjoint all-garbage rings on 16 processes, each wave
//! collected to fixpoint. The paper's base case (Fig. 3 generalised).

use super::Scale;
use crate::api::ProcId;
use crate::driver::Harness;
use crate::rng::SplitMix;

pub const PROCS: usize = 16;
pub const SPANS: [usize; 4] = [2, 4, 8, 16];
pub const OBJS_PER_PROC: usize = 2;
const MAX_ROUNDS: usize = 1_000;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    /// wave → ring → participating processes in ring order.
    pub waves: Vec<Vec<Vec<u16>>>,
}

pub fn generate(rng: SplitMix, scale: Scale) -> Plan {
    let waves = scale.pick(20, 2);
    let rings_per_wave = scale.pick(256, 32);
    let waves = (0..waves)
        .map(|w| {
            let mut rng = rng.fork(w as u64);
            // Every span equally often, in seeded order: the mix is the
            // same for every seed, only order and placement change.
            let mut spans: Vec<usize> = (0..rings_per_wave).map(|i| SPANS[i % 4]).collect();
            rng.shuffle(&mut spans);
            spans
                .into_iter()
                .map(|span| {
                    let start = rng.below(PROCS);
                    (0..span).map(|k| ((start + k) % PROCS) as u16).collect()
                })
                .collect()
        })
        .collect();
    Plan { waves }
}

pub fn execute(plan: &Plan, h: &mut Harness) {
    for wave in &plan.waves {
        h.begin_mutator();
        for ring in wave {
            let procs: Vec<ProcId> = ring.iter().map(|&p| ProcId(p)).collect();
            let (heads, _, _) = h.sim.ring(&procs, OBJS_PER_PROC, false);
            let id = h.plant(heads, true, (ring.len() * OBJS_PER_PROC) as u64);
            h.garbage_now(id);
        }
        h.end_mutator();
        h.collect_to_fixpoint(MAX_ROUNDS);
    }
}
