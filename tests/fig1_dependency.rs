//! F1 — Figure 1, "Identifying dependencies in cycles": the remote
//! reference `w_P4 → x_P1` converges on the cycle and must be accounted as
//! an extra dependency; while `w` is live the cycle is never collected,
//! and once `w` dies the acyclic DGC removes the dependency and the
//! detector completes.

use acdgc::dcda::{self, Cdm, MatchResult, Outcome, TerminateReason};
use acdgc::model::{DetectionId, GcConfig, NetConfig, ProcId, SimDuration};
use acdgc::sim::{scenarios, System};

fn prepared() -> (System, scenarios::Fig1) {
    // Strict §3.1 step 15 semantics so the walk dies exactly where the
    // paper's argument says it does (the default slack would let it probe
    // a few more non-growing hops before giving up — same verdict).
    let mut cfg = GcConfig::manual();
    cfg.nongrowth_slack = 0;
    let mut sys = System::new(4, cfg, NetConfig::instant(), 4);
    let fig = scenarios::fig1(&mut sys);
    sys.advance(SimDuration::from_millis(1));
    for p in 0..4 {
        sys.run_lgc(ProcId(p));
    }
    sys.drain_network();
    for p in 0..4 {
        sys.take_snapshot(ProcId(p));
    }
    (sys, fig)
}

#[test]
fn dependency_is_recorded_and_blocks_detection() {
    let (sys, fig) = prepared();
    let cfg = sys.config().clone();
    let p1 = ProcId(0); // x's process
    let p2 = ProcId(1); // y's process
    let p3 = ProcId(2); // z's process

    // x's incoming references: r_zx (cycle) and r_wx (dependency). The
    // summary at P1 must list both as ScionsTo of x's outgoing stub.
    let s1 = &sys.proc(p1).summary;
    let stub = s1.stub(fig.r_xy).unwrap();
    let mut to = stub.scions_to.clone();
    to.sort();
    let mut expect = vec![fig.r_zx, fig.r_wx];
    expect.sort();
    assert_eq!(to, expect, "both converging references are dependencies");

    // Walk a detection from P2 (scion of x -> y) around the ring.
    let s2 = &sys.proc(p2).summary;
    let ic = s2.scion(fig.r_xy).unwrap().ic;
    let out = dcda::initiate(
        s2,
        Cdm::initiate(DetectionId(0), p2, fig.r_xy, ic),
        fig.r_xy,
        &cfg,
    );
    let cdm = out.forwards()[0].cdm.clone();
    let out = dcda::deliver(&sys.proc(p3).summary, cdm, fig.r_yz, &cfg);
    let cdm = out.forwards()[0].cdm.clone();
    // At P1 the dependency on w's reference enters the source set.
    let out = dcda::deliver(&sys.proc(p1).summary, cdm, fig.r_zx, &cfg);
    let cdm = out.forwards()[0].cdm.clone();
    assert!(
        cdm.source.contains_key(&fig.r_wx),
        "Fig. 1: w -> x accounted as extra dependency"
    );
    // Closing the ring at P2: the dependency is unresolved, no cycle; and
    // no derivation adds information, so the walk dies.
    match cdm.matching(true) {
        MatchResult::Pending => {
            assert!(cdm.residue().unresolved.contains(&fig.r_wx));
        }
        other => panic!("expected pending, got {other:?}"),
    }
    let out = dcda::deliver(&sys.proc(p2).summary, cdm, fig.r_xy, &cfg);
    assert_eq!(
        out,
        Outcome::Terminated(TerminateReason::NoNewInformation),
        "unresolved dependency blocks the conclusion"
    );
}

#[test]
fn live_dependency_prevents_collection_indefinitely() {
    let (mut sys, _fig) = prepared();
    sys.collect_to_fixpoint(10);
    assert_eq!(sys.total_live_objects(), 4, "w and the cycle all survive");
    assert_eq!(sys.metrics.cycles_detected, 0);
    assert_eq!(sys.metrics.safety_violations(), 0);
}

#[test]
fn dropping_the_dependency_unblocks_collection() {
    let (mut sys, fig) = prepared();
    sys.collect_to_fixpoint(6);
    assert_eq!(sys.total_live_objects(), 4);

    // w dies: the acyclic DGC reclaims it and its reference; the next
    // summaries no longer carry the dependency and the detector completes.
    sys.remove_root(fig.w).unwrap();
    let rounds = sys.collect_to_fixpoint(20);
    assert_eq!(
        sys.total_live_objects(),
        0,
        "cycle reclaimed after the dependency died ({rounds} rounds); {:?}",
        sys.metrics
    );
    assert!(sys.metrics.cycles_detected >= 1);
    assert_eq!(sys.metrics.safety_violations(), 0);
    sys.check_invariants().unwrap();
}

#[test]
fn dependency_from_live_branch_only_blocks_its_cycle() {
    // A second, independent garbage ring in the same processes must be
    // collected even while Fig. 1's dependency keeps its own cycle alive.
    let (mut sys, _fig) = prepared();
    let procs: Vec<ProcId> = (0..4).map(ProcId).collect();
    let _ring = scenarios::ring(&mut sys, &procs, 1, false);
    let live_before = sys.total_live_objects();
    sys.collect_to_fixpoint(20);
    assert_eq!(
        sys.total_live_objects(),
        4,
        "ring collected, fig1 objects survive (was {live_before})"
    );
    assert_eq!(sys.metrics.safety_violations(), 0);
}

#[test]
fn dependency_resolved_when_w_joins_the_garbage() {
    // Variant: w is unrooted but still holds its reference — it becomes
    // upstream acyclic garbage. The acyclic DGC must clear it first, then
    // the cycle goes. This is the paper's "cyclic garbage whose
    // reachability is dependent of upstream acyclic garbage".
    let (mut sys, fig) = prepared();
    sys.remove_root(fig.w).unwrap();
    // One detection attempt *before* the acyclic layer catches up: the
    // dependency is still in the summaries, so no conclusion yet.
    sys.initiate_detection(ProcId(1), fig.r_xy);
    sys.drain_network();
    assert_eq!(sys.metrics.cycles_detected, 0);
    // Now let the rounds run: w is collected, r_wx dies, then the cycle.
    sys.collect_to_fixpoint(20);
    assert_eq!(sys.total_live_objects(), 0, "{:?}", sys.metrics);
    assert_eq!(sys.metrics.safety_violations(), 0);
}
