//! Termination and bounded-work guarantees.
//!
//! The paper argues termination from monotone algebra growth; this suite
//! pins the implementation's concrete bounds: per-detection traffic is
//! capped by the budget, walks by hops and slack, and the system-wide
//! fixpoint loop never livelocks even on worst-case dense garbage.

use acdgc::model::{GcConfig, NetConfig, ObjId, ProcId, SimDuration};
use acdgc::sim::System;

/// Complete digraph of remote references over `procs` processes with
/// `objs` objects each: every object references every object in every
/// other process (pairs shared per process-target). Maximal density.
fn complete_clump(procs: usize, objs: usize, seed: u64) -> System {
    let mut sys = System::new(procs, GcConfig::manual(), NetConfig::instant(), seed);
    let all: Vec<ObjId> = (0..procs)
        .flat_map(|p| {
            (0..objs)
                .map(|_| sys.alloc(ProcId(p as u16), 1))
                .collect::<Vec<_>>()
        })
        .collect();
    for &a in &all {
        for &b in &all {
            if a.proc != b.proc {
                sys.create_remote_ref(a, b).unwrap();
            }
        }
    }
    sys
}

#[test]
fn one_detection_respects_its_budget() {
    let mut sys = complete_clump(4, 3, 80);
    sys.config_mut().detection_budget = 200;
    sys.advance(SimDuration::from_millis(1));
    for p in 0..4 {
        sys.take_snapshot(ProcId(p));
    }
    // One detection from one scion of the clump.
    let scion = sys
        .proc(ProcId(0))
        .tables
        .scions()
        .map(|s| s.ref_id)
        .min()
        .unwrap();
    sys.initiate_detection(ProcId(0), scion);
    sys.drain_network();
    assert!(
        sys.metrics.cdms_sent <= 200,
        "budget bounds traffic: {} CDMs",
        sys.metrics.cdms_sent
    );
}

#[test]
fn dense_clump_is_collected_within_bounded_rounds() {
    let mut sys = complete_clump(3, 3, 81);
    assert!(sys.oracle_live().is_empty());
    let rounds = sys.collect_to_fixpoint(30);
    assert_eq!(
        sys.total_live_objects(),
        0,
        "complete 3x3 clump reclaimed (rounds={rounds}); {:?}",
        sys.metrics
    );
}

#[test]
fn anchored_dense_clump_survives_and_probes_are_bounded() {
    let mut sys = complete_clump(3, 2, 82);
    // Root one object: the whole clump is live (complete digraph).
    let rooted = sys
        .proc(ProcId(0))
        .heap
        .id_of_slot(0)
        .expect("first object");
    sys.add_root(rooted).unwrap();
    let live = sys.oracle_live().len();
    assert_eq!(live, 6);
    sys.collect_to_fixpoint(15);
    assert_eq!(sys.total_live_objects(), 6, "{:?}", sys.metrics);
    // Every probe died by local-reach pruning or dependency residue;
    // bounded traffic either way.
    assert!(sys.metrics.cdms_sent < 50_000);
    assert_eq!(sys.metrics.cycles_detected, 0);
}

#[test]
fn fixpoint_loop_exits_on_uncollectable_residue() {
    // A clump kept alive by a root: collect_to_fixpoint must return after
    // its two quiet rounds rather than spinning to max_rounds.
    let mut sys = complete_clump(3, 2, 83);
    let rooted = sys.proc(ProcId(0)).heap.id_of_slot(0).unwrap();
    sys.add_root(rooted).unwrap();
    let rounds = sys.collect_to_fixpoint(50);
    assert!(rounds < 50, "fixpoint detected in {rounds} rounds");
}

#[test]
fn hop_cap_is_a_hard_backstop() {
    // Pathological config: no termination rule, tiny hop cap. The walk
    // must die by the cap, never loop.
    let mut cfg = GcConfig::manual();
    cfg.branch_termination = false;
    cfg.max_hops = 16;
    cfg.detection_budget = 1_000_000;
    let mut sys = System::new(2, cfg, NetConfig::instant(), 84);
    let a = sys.alloc(ProcId(0), 1);
    let b = sys.alloc(ProcId(1), 1);
    sys.create_remote_ref(a, b).unwrap();
    sys.create_remote_ref(b, a).unwrap();
    sys.advance(SimDuration::from_millis(1));
    sys.take_snapshot(ProcId(0));
    sys.take_snapshot(ProcId(1));
    let scion = sys
        .proc(ProcId(0))
        .tables
        .scions()
        .map(|s| s.ref_id)
        .next()
        .unwrap();
    sys.initiate_detection(ProcId(0), scion);
    sys.drain_network();
    // The 2-ring cancels on the second delivery, well inside the cap; but
    // had it looped (no growth rule), the cap would have cut it.
    assert!(sys.metrics.cdms_sent <= 17 + 1);
    assert!(sys.metrics.cycles_detected >= 1 || sys.metrics.detections_dropped_hops >= 1);
}
