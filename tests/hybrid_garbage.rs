//! Hybrid distributed garbage (§2: "detects and reclaims cyclic, acyclic
//! and hybrid distributed garbage through cooperation of the acyclic
//! collector and the cyclic detector").
//!
//! Three shapes the cooperation must handle:
//! * *downstream* — acyclic garbage hanging off a garbage cycle: the
//!   detector breaks the cycle, the acyclic layer sweeps the tail (unless
//!   a per-process chain ran down the tail and its verdict took both);
//! * *upstream* — a garbage cycle reachable only from acyclic garbage:
//!   the cycle's scions carry dependencies on the upstream chain, so
//!   detection must wait for the acyclic layer (the paper's §3.1 closing
//!   remark about "upstream acyclic garbage"), then conclude;
//! * *chained cycles* — a garbage cycle whose members reference a second
//!   cycle: reclaiming the first exposes the second.

use acdgc::model::{GcConfig, NetConfig, ProcId, SimDuration};
use acdgc::sim::{scenarios, System};

fn manual(n: usize) -> System {
    System::new(n, GcConfig::manual(), NetConfig::instant(), 33)
}

#[test]
fn downstream_acyclic_tail_swept_after_cycle_breaks() {
    let mut sys = manual(4);
    let procs: Vec<ProcId> = (0..3).map(ProcId).collect();
    let ring = scenarios::ring(&mut sys, &procs, 1, false);
    // A tail hanging off the ring: ring head -> t1@P3 -> t2@P0.
    let t1 = sys.alloc(ProcId(3), 1);
    let t2 = sys.alloc(ProcId(0), 1);
    sys.create_remote_ref(ring.heads[0], t1).unwrap();
    sys.create_remote_ref(t1, t2).unwrap();
    assert!(sys.oracle_live().is_empty());

    let rounds = sys.collect_to_fixpoint(20);
    assert_eq!(
        sys.total_live_objects(),
        0,
        "ring + tail fully reclaimed in {rounds} rounds; {:?}",
        sys.metrics
    );
    // Which layer frees the tail is not pinned: a per-process chain that
    // follows the tail to its end witnesses the tail's scions too.
    assert!(sys.metrics.cycles_detected >= 1, "the ring needed the DCDA");
    assert_eq!(sys.total_scions(), 0);
    assert_eq!(sys.metrics.safety_violations(), 0);
}

#[test]
fn upstream_acyclic_chain_resolves_then_cycle_falls() {
    let mut sys = manual(4);
    let procs: Vec<ProcId> = (0..3).map(ProcId).collect();
    let ring = scenarios::ring(&mut sys, &procs, 1, false);
    // Upstream chain: u1@P3 -> u2@P0 -> ring head; nothing roots u1.
    let u1 = sys.alloc(ProcId(3), 1);
    let u2 = sys.alloc(ProcId(0), 1);
    sys.create_remote_ref(u1, u2).unwrap();
    sys.add_local_ref(u2, ring.heads[0]).unwrap();
    assert!(sys.oracle_live().is_empty());

    // First detection attempt: the upstream reference u1 -> u2 appears as
    // an unresolved dependency on the path, so no cycle can be concluded
    // yet — but nothing unsafe happens and the acyclic layer reclaims the
    // chain; subsequent rounds finish the job.
    let rounds = sys.collect_to_fixpoint(20);
    assert_eq!(
        sys.total_live_objects(),
        0,
        "rounds={rounds} {:?}",
        sys.metrics
    );
    assert_eq!(sys.metrics.safety_violations(), 0);
}

#[test]
fn upstream_chain_with_root_blocks_until_dropped() {
    let mut sys = manual(4);
    let procs: Vec<ProcId> = (0..3).map(ProcId).collect();
    let ring = scenarios::ring(&mut sys, &procs, 1, false);
    let u1 = sys.alloc(ProcId(3), 1);
    let u2 = sys.alloc(ProcId(0), 1);
    sys.add_root(u1).unwrap();
    sys.create_remote_ref(u1, u2).unwrap();
    sys.add_local_ref(u2, ring.heads[0]).unwrap();

    sys.collect_to_fixpoint(10);
    assert_eq!(sys.total_live_objects(), 5, "rooted chain holds the ring");
    assert_eq!(sys.metrics.cycles_detected, 0);

    sys.remove_root(u1).unwrap();
    sys.collect_to_fixpoint(20);
    assert_eq!(sys.total_live_objects(), 0, "{:?}", sys.metrics);
    assert_eq!(sys.metrics.safety_violations(), 0);
}

#[test]
fn chained_cycles_fall_in_sequence() {
    let mut sys = manual(4);
    let procs: Vec<ProcId> = (0..4).map(ProcId).collect();
    let first = scenarios::ring(&mut sys, &procs, 1, false);
    let second = scenarios::ring(&mut sys, &procs, 1, false);
    // First ring's head references the second ring's head: the second is
    // garbage only once the first is reclaimed... in fact both are garbage
    // immediately (nothing roots the first), but the second's scions carry
    // a dependency on the first until it dies.
    sys.add_local_ref(first.heads[0], second.heads[0]).unwrap();
    assert!(sys.oracle_live().is_empty());

    let rounds = sys.collect_to_fixpoint(30);
    assert_eq!(
        sys.total_live_objects(),
        0,
        "both chained rings reclaimed in {rounds} rounds; {:?}",
        sys.metrics
    );
    // One verdict may cover both rings (a per-process chain witnesses the
    // dependency and its resolution in one walk); at least one is needed.
    assert!(sys.metrics.cycles_detected >= 1, "{:?}", sys.metrics);
    assert_eq!(sys.total_scions(), 0);
    assert_eq!(sys.metrics.safety_violations(), 0);
}

#[test]
fn dense_overlapping_cycles_fixpoint() {
    // Several rings sharing processes, plus cross links: a dense garbage
    // clump. The fixpoint must clear everything without safety issues.
    let mut sys = manual(5);
    let procs: Vec<ProcId> = (0..5).map(ProcId).collect();
    let rings: Vec<_> = (0..4)
        .map(|_| scenarios::ring(&mut sys, &procs, 1, false))
        .collect();
    for w in rings.windows(2) {
        sys.add_local_ref(w[0].heads[0], w[1].heads[0]).unwrap();
        sys.add_local_ref(w[1].heads[2], w[0].heads[2]).unwrap();
    }
    assert!(sys.oracle_live().is_empty());
    let rounds = sys.collect_to_fixpoint(40);
    assert_eq!(
        sys.total_live_objects(),
        0,
        "rounds={rounds} {:?}",
        sys.metrics
    );
    assert_eq!(sys.metrics.safety_violations(), 0);
}

#[test]
fn half_live_clump_collects_only_the_dead_half() {
    let mut sys = manual(5);
    let procs: Vec<ProcId> = (0..5).map(ProcId).collect();
    let dead = scenarios::ring(&mut sys, &procs, 2, false);
    let live = scenarios::ring(&mut sys, &procs, 2, true);
    // Dead ring references the live ring (outbound references to live data
    // do not make garbage live).
    sys.add_local_ref(dead.heads[0], live.heads[0]).unwrap();
    let expected = sys.oracle_live().len();
    assert_eq!(expected, 11);
    sys.collect_to_fixpoint(30);
    assert_eq!(sys.total_live_objects(), expected, "{:?}", sys.metrics);
    assert_eq!(sys.metrics.safety_violations(), 0);
    // And when the live ring dies too, everything goes.
    sys.remove_root(live.anchor.unwrap()).unwrap();
    sys.collect_to_fixpoint(30);
    assert_eq!(sys.total_live_objects(), 0);
}

#[test]
fn periodic_mode_handles_hybrid_clump() {
    let mut sys = System::new(5, GcConfig::default(), NetConfig::default(), 44);
    let procs: Vec<ProcId> = (0..5).map(ProcId).collect();
    let ring = scenarios::ring(&mut sys, &procs, 2, false);
    let tail = sys.alloc(ProcId(0), 1);
    sys.create_remote_ref(ring.heads[1], tail).ok();
    sys.run_for(SimDuration::from_millis(10_000));
    assert_eq!(sys.total_live_objects(), 0, "{:?}", sys.metrics);
    assert_eq!(sys.metrics.safety_violations(), 0);
}
