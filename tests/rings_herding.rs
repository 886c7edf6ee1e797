//! The k processes of a k-ring must not all start on it in the same scan.
//!
//! 256 disjoint all-garbage rings over 16 processes (the benchmark's
//! `rings` wave) leave every process ~120 eligible scions and a scan cap of
//! 4. When the cap kept the most stale, every process kept the same oldest
//! rings — `last_invoked` and `RefId` both follow global creation order —
//! so each ring was convicted once per scion while ~245 rings waited:
//! 1,405 convictions and 26 rounds for these 256 cycles. The cap now
//! keeps the fewest-tried first in a per-process salted order, and the
//! clock gap between plantings must not matter: 1 µs apart there are no
//! staleness ties left for a tie-break to act on.

use acdgc::model::rng::splitmix64;
use acdgc::model::{GcConfig, NetConfig, ProcId, SimDuration};
use acdgc::sim::{scenarios, System};

const PROCS: usize = 16;
const RINGS: usize = 256;
const SPANS: [usize; 4] = [2, 4, 8, 16];
const OBJS_PER_PROC: usize = 2;

/// Plant the wave with the clock advanced by `gap` between rings, collect
/// to fixpoint, return (convictions, rounds).
fn collect_wave(gap: SimDuration) -> (u64, usize) {
    let mut sys = System::new(PROCS, GcConfig::manual(), NetConfig::instant(), 16);
    assert!(sys.check_safety);
    assert_eq!(sys.config().max_candidates_per_scan, 4);
    for i in 0..RINGS {
        let start = splitmix64(i as u64) as usize % PROCS;
        let procs: Vec<ProcId> = (0..SPANS[i % 4])
            .map(|k| ProcId(((start + k) % PROCS) as u16))
            .collect();
        scenarios::ring(&mut sys, &procs, OBJS_PER_PROC, false);
        sys.advance(gap);
    }
    assert!(sys.oracle_live().is_empty());
    let rounds = sys.collect_to_fixpoint(100);
    assert_eq!(
        sys.total_live_objects(),
        0,
        "gap {gap:?}: {:?}",
        sys.metrics
    );
    assert_eq!(sys.total_scions(), 0, "gap {gap:?}");
    assert_eq!(sys.metrics.safety_violations(), 0);
    (sys.metrics.cycles_detected, rounds)
}

#[test]
fn a_wave_of_rings_is_drained_without_herding() {
    for gap_us in [0, 1, 50] {
        let (convictions, rounds) = collect_wave(SimDuration::from_micros(gap_us));
        eprintln!("gap {gap_us} us: {convictions} convictions of {RINGS} rings, {rounds} rounds");
        assert!(
            convictions <= 2 * RINGS as u64,
            "gap {gap_us} us: {convictions} convictions of {RINGS} rings"
        );
        // The last three rounds of a fixpoint are the quiet ones.
        assert!(rounds <= 12, "gap {gap_us} us: {rounds} rounds");
    }
}
