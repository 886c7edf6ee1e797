//! F3 — Figure 3, "A simple distributed garbage cycle": step-by-step
//! reproduction of the worked algebra of §3 (steps 1–26).
//!
//! Term mapping (one incoming reference per object, see DESIGN.md):
//! `F_P2 ≙ r_bf`, `Q_P4 ≙ r_jq`, `O_P3 ≙ r_so`, `D_P1 ≙ r_kd`.

use acdgc::dcda::{self, Cdm, MatchResult, Outcome, TerminateReason};
use acdgc::model::{DetectionId, GcConfig, NetConfig, ProcId, RefId, SimDuration};
use acdgc::sim::{scenarios, System};

fn keys(map: &dcda::EntryMap<u64>) -> Vec<RefId> {
    map.keys().copied().collect()
}

/// Build Fig. 3, cut the root, run one LGC + snapshot everywhere so every
/// process has a published summary of the garbage cycle.
fn prepared() -> (System, scenarios::Fig3) {
    let mut sys = System::new(4, GcConfig::manual(), NetConfig::instant(), 1);
    let fig = scenarios::fig3(&mut sys);
    sys.remove_root(fig.a).unwrap();
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
fn algebra_trace_matches_paper_steps_1_through_26() {
    let (sys, fig) = prepared();
    let cfg = sys.config().clone();

    // Steps 1-4 at P2: Alg_0 = {{F_P2} -> {}}; StubsFrom(F_P2) = {Q_P4};
    // Alg_1 = {{F_P2} -> {Q_P4}}; send to P4.
    let s2 = &sys.proc(fig.p2).summary;
    let ic = s2.scion(fig.r_bf).unwrap().ic;
    let alg0 = Cdm::initiate(DetectionId(0), fig.p2, fig.r_bf, ic);
    assert_eq!(keys(&alg0.source), vec![fig.r_bf], "Alg_0 source = {{F}}");
    assert!(alg0.target.is_empty(), "Alg_0 target = {{}}");
    let out = dcda::initiate(s2, alg0, fig.r_bf, &cfg);
    let fws = out.forwards();
    assert_eq!(fws.len(), 1);
    assert_eq!(fws[0].dest, fig.p4, "step 4: send Alg_1 to P4");
    assert_eq!(fws[0].via, fig.r_jq);
    let alg1 = fws[0].cdm.clone();
    assert_eq!(keys(&alg1.source), vec![fig.r_bf]);
    assert_eq!(keys(&alg1.target), vec![fig.r_jq]);

    // Steps 5-7 at P4: matching(Alg_1) has no intersection; no cycle.
    match alg1.matching(true) {
        MatchResult::Pending {
            unresolved,
            wavefront,
        } => {
            assert_eq!(unresolved, vec![fig.r_bf], "step 6: {{F}} unresolved");
            assert_eq!(wavefront, vec![fig.r_jq]);
        }
        other => panic!("step 7 expects pending, got {other:?}"),
    }

    // Steps 8-11 at P4: Alg_2 = {{F,Q} -> {Q,O}}; send to P3.
    let s4 = &sys.proc(fig.p4).summary;
    let out = dcda::deliver(s4, alg1, fig.r_jq, &cfg);
    let fws = out.forwards();
    assert_eq!(fws.len(), 1);
    assert_eq!(fws[0].dest, fig.p3, "step 11: send Alg_2 to P3");
    let alg2 = fws[0].cdm.clone();
    let mut expect = vec![fig.r_bf, fig.r_jq];
    expect.sort();
    assert_eq!(keys(&alg2.source), expect);
    let mut expect = vec![fig.r_jq, fig.r_so];
    expect.sort();
    assert_eq!(keys(&alg2.target), expect);

    // Steps 12-14 at P3: Matching(Alg_2) => {{F} -> {O}}.
    match alg2.matching(true) {
        MatchResult::Pending {
            unresolved,
            wavefront,
        } => {
            assert_eq!(unresolved, vec![fig.r_bf], "step 13: dependency on F");
            assert_eq!(wavefront, vec![fig.r_so], "step 13: wavefront at O");
        }
        other => panic!("step 14 expects pending, got {other:?}"),
    }

    // Steps 15-17 at P3: Alg_3 = {{F,Q,O} -> {Q,O,D}}; send to P1.
    let s3 = &sys.proc(fig.p3).summary;
    let out = dcda::deliver(s3, alg2, fig.r_so, &cfg);
    let fws = out.forwards();
    assert_eq!(fws[0].dest, fig.p1, "step 17: send Alg_3 to P1");
    let alg3 = fws[0].cdm.clone();
    let mut expect = vec![fig.r_bf, fig.r_jq, fig.r_so];
    expect.sort();
    assert_eq!(keys(&alg3.source), expect);

    // Steps 18-20 at P1: Matching(Alg_3) => {{F} -> {D}}.
    match alg3.matching(true) {
        MatchResult::Pending {
            unresolved,
            wavefront,
        } => {
            assert_eq!(unresolved, vec![fig.r_bf]);
            assert_eq!(wavefront, vec![fig.r_kd]);
        }
        other => panic!("step 20 expects pending, got {other:?}"),
    }

    // Steps 21-23 at P1: Alg_4 closes the ring; send to P2.
    let s1 = &sys.proc(fig.p1).summary;
    let out = dcda::deliver(s1, alg3, fig.r_kd, &cfg);
    let fws = out.forwards();
    assert_eq!(fws[0].dest, fig.p2, "step 23: send Alg_4 to P2");
    assert_eq!(fws[0].via, fig.r_bf, "step 21: StubsFrom(D) = {{F}}");
    let alg4 = fws[0].cdm.clone();
    let mut expect = vec![fig.r_bf, fig.r_jq, fig.r_so, fig.r_kd];
    expect.sort();
    assert_eq!(keys(&alg4.source), expect.clone());
    assert_eq!(keys(&alg4.target), expect);

    // Steps 24-26 at P2: Matching(Alg_4) => {{} -> {}} => cycle found.
    assert_eq!(alg4.matching(true), MatchResult::CycleFound);
    let s2 = &sys.proc(fig.p2).summary;
    let out = dcda::deliver(s2, alg4, fig.r_bf, &cfg);
    let Outcome::CycleFound { delete } = out else {
        panic!("step 26 expects a cycle verdict, got {out:?}");
    };
    let deleted: Vec<RefId> = delete.iter().map(|&(_, r, _, _)| r).collect();
    assert!(
        deleted.contains(&fig.r_bf),
        "step 26: the scion accounting for the reference to F_P2 is deleted"
    );
    // The verdict covers the whole matched set (the implementation deletes
    // every proven-garbage scion; the paper's single deletion plus acyclic
    // unravelling reaches the same end state).
    assert_eq!(deleted.len(), 4);
}

#[test]
fn rooted_cycle_terminates_at_p1_local_reach() {
    // Same walk but with A_P1 still rooted: the stub B->F at P1 is
    // locally reachable and the detection must die there (§2.1).
    let mut sys = System::new(4, GcConfig::manual(), NetConfig::instant(), 1);
    let fig = scenarios::fig3(&mut sys);
    sys.advance(SimDuration::from_millis(1));
    for p in 0..4 {
        sys.take_snapshot(ProcId(p));
    }
    let cfg = sys.config().clone();

    let s2 = &sys.proc(fig.p2).summary;
    let ic = s2.scion(fig.r_bf).unwrap().ic;
    let cdm = Cdm::initiate(DetectionId(0), fig.p2, fig.r_bf, ic);
    let out = dcda::initiate(s2, cdm, fig.r_bf, &cfg);
    let cdm = out.forwards()[0].cdm.clone();
    let out = dcda::deliver(&sys.proc(fig.p4).summary, cdm, fig.r_jq, &cfg);
    let cdm = out.forwards()[0].cdm.clone();
    let out = dcda::deliver(&sys.proc(fig.p3).summary, cdm, fig.r_so, &cfg);
    let cdm = out.forwards()[0].cdm.clone();
    let out = dcda::deliver(&sys.proc(fig.p1).summary, cdm, fig.r_kd, &cfg);
    assert_eq!(
        out,
        Outcome::Terminated(TerminateReason::AllStubsLocallyReachable),
        "the live root in P1 stops the walk"
    );
}

#[test]
fn end_to_end_unravelling_after_detection() {
    // After the detector deletes F's scion, reference listing alone must
    // unravel the whole ring: LGC at P2 kills J's stub, NewSetStubs kills
    // Q's scion at P4, and so on around the ring.
    let (mut sys, fig) = prepared();
    sys.initiate_detection(fig.p2, fig.r_bf);
    sys.drain_network();
    assert_eq!(sys.metrics.cycles_detected, 1);
    assert!(sys.proc(fig.p2).tables.scion(fig.r_bf).is_none());

    // Objects are still there until LGC rounds run.
    assert_eq!(sys.total_live_objects(), 13, "A was already collected");
    let rounds = sys.collect_to_fixpoint(12);
    assert_eq!(
        sys.total_live_objects(),
        0,
        "acyclic DGC unravelled the ring in {rounds} rounds"
    );
    assert_eq!(sys.total_scions(), 0);
    assert_eq!(sys.metrics.safety_violations(), 0);
    sys.check_invariants().unwrap();
}

#[test]
fn detection_is_stateless_between_hops() {
    // Processing the same CDM twice against the same summary produces the
    // same outcome: nothing at the process remembers the first pass.
    let (sys, fig) = prepared();
    let cfg = sys.config().clone();
    let s2 = &sys.proc(fig.p2).summary;
    let ic = s2.scion(fig.r_bf).unwrap().ic;
    let make = || Cdm::initiate(DetectionId(0), fig.p2, fig.r_bf, ic);
    let a = dcda::initiate(s2, make(), fig.r_bf, &cfg);
    let b = dcda::initiate(s2, make(), fig.r_bf, &cfg);
    assert_eq!(a, b);
}
