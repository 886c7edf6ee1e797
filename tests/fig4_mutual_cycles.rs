//! F4 — Figure 4, "Mutually-linked distributed cycles": reproduction of
//! the §3.1 worked example, including the extra dependency `Y_P5`, the
//! branch-equality termination of step 15, and cycle discovery at P5.
//!
//! Term mapping: `F ≙ r_df`, `V ≙ r_fv`, `K ≙ r_fk`, `T ≙ r_wt`,
//! `D ≙ r_td`, `ZB ≙ r_kzb`, `Y ≙ r_zby`.

use acdgc::dcda::{self, Cdm, MatchResult, OutboundCdm, Outcome, Residue, Walk};
use acdgc::model::{DetectionId, GcConfig, NetConfig, ProcId, RefId, SimDuration};
use acdgc::sim::{scenarios, System};

fn keys(map: &dcda::EntryMap<u64>) -> Vec<RefId> {
    map.keys().copied().collect()
}

fn sorted(mut v: Vec<RefId>) -> Vec<RefId> {
    v.sort();
    v
}

/// §3.1's derivations at the walk's first fan-out: the forwards of the
/// per-reference side. Exactly one per-process chain rides beside them.
fn section_3_1_derivations(out: &Outcome) -> Vec<&OutboundCdm> {
    let (chains, derivations): (Vec<_>, Vec<_>) = out
        .forwards()
        .iter()
        .partition(|f| f.cdm.walk == Walk::PerProcess);
    assert_eq!(chains.len(), 1, "one chain beside the derivations: {out:?}");
    assert!(derivations.iter().all(|f| f.cdm.walk == Walk::PerReference));
    derivations
}

fn prepared() -> (System, scenarios::Fig4) {
    // The worked example of §3.1 uses the strict step 15 rule: a stale
    // derivation is terminated immediately (slack 0).
    let mut cfg = GcConfig::manual();
    cfg.nongrowth_slack = 0;
    let mut sys = System::new(6, cfg, NetConfig::instant(), 2);
    let fig = scenarios::fig4(&mut sys);
    sys.advance(SimDuration::from_millis(1));
    for p in 0..6 {
        sys.take_snapshot(ProcId(p));
    }
    (sys, fig)
}

#[test]
fn algebra_trace_matches_section_3_1() {
    let (sys, fig) = prepared();
    let cfg = sys.config().clone();

    // Steps 1-3 at P2: StubsFrom(F) = {V, K} — two derivations.
    let s2 = &sys.proc(fig.p2).summary;
    assert_eq!(
        sorted(s2.scion(fig.r_df).unwrap().stubs_from.clone()),
        sorted(vec![fig.r_fv, fig.r_fk]),
        "step 1: StubsFrom(F_P2) = {{V_P5, K_P3}}"
    );
    let ic = s2.scion(fig.r_df).unwrap().ic;
    let out = dcda::initiate(
        s2,
        Cdm::initiate(DetectionId(0), fig.p2, fig.r_df, ic),
        fig.r_df,
        &cfg,
    );
    let fws = section_3_1_derivations(&out);
    assert_eq!(fws.len(), 2, "steps 2-3: two CDM derivations");
    let alg1a = fws.iter().find(|f| f.via == fig.r_fv).unwrap();
    let alg1b = fws.iter().find(|f| f.via == fig.r_fk).unwrap();
    assert_eq!(alg1a.dest, fig.p5);
    assert_eq!(alg1b.dest, fig.p3);
    assert_eq!(keys(&alg1a.cdm.source), vec![fig.r_df]);
    assert_eq!(keys(&alg1a.cdm.target), vec![fig.r_fv]);

    // Steps 4-6 at P5: StubsFrom(V) = {T}; ScionsTo({T}) adds Y as an
    // extra dependency. Alg_2a = {{F,V,Y} -> {V,T}}, send to P4.
    let s5 = &sys.proc(fig.p5).summary;
    assert_eq!(
        s5.scion(fig.r_fv).unwrap().stubs_from,
        vec![fig.r_wt],
        "step 4: StubsFrom(V_P5) = {{T_P4}}"
    );
    assert_eq!(
        sorted(s5.stub(fig.r_wt).unwrap().scions_to.clone()),
        sorted(vec![fig.r_fv, fig.r_zby]),
        "step 5: ScionsTo({{T_P4}}) includes Y_P5"
    );
    let out = dcda::deliver(s5, alg1a.cdm.clone(), fig.r_fv, &cfg);
    let fws = out.forwards();
    assert_eq!(fws.len(), 1);
    assert_eq!(fws[0].dest, fig.p4, "step 6: send to P4");
    let alg2a = fws[0].cdm.clone();
    assert_eq!(
        keys(&alg2a.source),
        sorted(vec![fig.r_df, fig.r_fv, fig.r_zby]),
        "step 6: source = {{F, V, Y}}"
    );
    assert_eq!(
        keys(&alg2a.target),
        sorted(vec![fig.r_fv, fig.r_wt]),
        "step 6: target = {{V, T}}"
    );

    // Step 7 at P4: Alg_3a = {{F,V,Y,T} -> {V,T,D}}, send to P1.
    let out = dcda::deliver(&sys.proc(fig.p4).summary, alg2a, fig.r_wt, &cfg);
    let alg3a = out.forwards()[0].cdm.clone();
    assert_eq!(out.forwards()[0].dest, fig.p1);
    assert_eq!(
        keys(&alg3a.source),
        sorted(vec![fig.r_df, fig.r_fv, fig.r_zby, fig.r_wt])
    );
    assert_eq!(
        keys(&alg3a.target),
        sorted(vec![fig.r_fv, fig.r_wt, fig.r_td])
    );

    // Step 8 at P1: Alg_4a = {{F,V,Y,T,D} -> {V,T,D,F}}, send to P2.
    let out = dcda::deliver(&sys.proc(fig.p1).summary, alg3a, fig.r_td, &cfg);
    let alg4a = out.forwards()[0].cdm.clone();
    assert_eq!(out.forwards()[0].dest, fig.p2);
    assert_eq!(
        keys(&alg4a.target),
        sorted(vec![fig.r_fv, fig.r_wt, fig.r_td, fig.r_df])
    );

    // Steps 9-11 at P2: Matching(Alg_4a) => {{Y} -> {}}: the left cycle
    // has been traversed but an unresolved dependency on Y_P5 remains.
    match alg4a.matching(true) {
        MatchResult::Pending => {
            let Residue {
                unresolved,
                wavefront,
            } = alg4a.residue();
            assert_eq!(unresolved, vec![fig.r_zby], "step 10: {{Y_P5}} remains");
            assert!(wavefront.is_empty(), "step 10: target side fully matched");
        }
        other => panic!("step 11 expects pending, got {other:?}"),
    }

    // Steps 12-15 at P2: two derivations; the one along V equals Alg_4a
    // (no new information) and must be terminated; the one along K is
    // forwarded to P3.
    let out = dcda::deliver(&sys.proc(fig.p2).summary, alg4a, fig.r_df, &cfg);
    let fws = out.forwards();
    assert_eq!(
        fws.len(),
        1,
        "step 15: branch along V terminated, only K forwarded"
    );
    assert_eq!(fws[0].via, fig.r_fk);
    assert_eq!(fws[0].dest, fig.p3, "step 13: send Alg_5a,a to P3");
    let alg5aa = fws[0].cdm.clone();

    // Steps 16-18 at P3: Matching => {{Y} -> {K}}.
    match alg5aa.matching(true) {
        MatchResult::Pending => {
            let Residue {
                unresolved,
                wavefront,
            } = alg5aa.residue();
            assert_eq!(unresolved, vec![fig.r_zby], "step 17");
            assert_eq!(wavefront, vec![fig.r_fk], "step 17");
        }
        other => panic!("step 18 expects pending, got {other:?}"),
    }

    // Steps 19-20 at P3: StubsFrom(K) = {ZB}; send Alg_6a,a to P6.
    let out = dcda::deliver(&sys.proc(fig.p3).summary, alg5aa, fig.r_fk, &cfg);
    assert_eq!(out.forwards()[0].dest, fig.p6, "step 20: send to P6");
    assert_eq!(
        out.forwards()[0].via,
        fig.r_kzb,
        "step 19: StubsFrom(K)={{ZB}}"
    );
    let alg6aa = out.forwards()[0].cdm.clone();

    // Steps 21-24 at P6: Matching => {{Y} -> {ZB}}; forward to P5 along Y.
    match alg6aa.matching(true) {
        MatchResult::Pending => {
            let Residue {
                unresolved,
                wavefront,
            } = alg6aa.residue();
            assert_eq!(unresolved, vec![fig.r_zby], "step 21");
            assert_eq!(wavefront, vec![fig.r_kzb], "step 21");
        }
        other => panic!("step 22 expects pending, got {other:?}"),
    }
    let out = dcda::deliver(&sys.proc(fig.p6).summary, alg6aa, fig.r_kzb, &cfg);
    assert_eq!(
        out.forwards()[0].dest,
        fig.p5,
        "step 24: send Alg_7a,a to P5"
    );
    assert_eq!(
        out.forwards()[0].via,
        fig.r_zby,
        "step 23: StubsFrom(ZB)={{Y}}"
    );
    let alg7aa = out.forwards()[0].cdm.clone();

    // Steps 25-26 at P5: Matching(Alg_7a,a) => {{} -> {}} — cycle found.
    assert_eq!(alg7aa.matching(true), MatchResult::CycleFound, "step 25");
    let out = dcda::deliver(&sys.proc(fig.p5).summary, alg7aa, fig.r_zby, &cfg);
    let Outcome::CycleFound { delete } = out else {
        panic!("step 26 expects a cycle verdict, got {out:?}");
    };
    assert!(
        delete
            .iter()
            .any(|&(p, r, _, _)| p == fig.p5 && r == fig.r_zby),
        "step 26: cycle found at P5, Y's scion deleted"
    );
    assert_eq!(delete.len(), 7, "all seven matched references are garbage");
}

#[test]
fn detection_also_succeeds_from_the_other_derivation() {
    // §3.1 closing remark: the cycles "could have also been detected if
    // derivation Alg_1b (step 3) had been continued". Walk that branch.
    let (sys, fig) = prepared();
    let cfg = sys.config().clone();
    let s2 = &sys.proc(fig.p2).summary;
    let ic = s2.scion(fig.r_df).unwrap().ic;
    let out = dcda::initiate(
        s2,
        Cdm::initiate(DetectionId(1), fig.p2, fig.r_df, ic),
        fig.r_df,
        &cfg,
    );
    let alg1b = section_3_1_derivations(&out)
        .into_iter()
        .find(|f| f.via == fig.r_fk)
        .unwrap()
        .cdm
        .clone();
    // P3 -> P6 -> P5 -> P4 -> P1 -> P2; at P2 the remaining V-branch goes
    // around the left cycle and eventually closes.
    let out = dcda::deliver(&sys.proc(fig.p3).summary, alg1b, fig.r_fk, &cfg);
    let cdm = out.forwards()[0].cdm.clone();
    let out = dcda::deliver(&sys.proc(fig.p6).summary, cdm, fig.r_kzb, &cfg);
    let cdm = out.forwards()[0].cdm.clone();
    let out = dcda::deliver(&sys.proc(fig.p5).summary, cdm, fig.r_zby, &cfg);
    let cdm = out.forwards()[0].cdm.clone();
    assert_eq!(out.forwards()[0].via, fig.r_wt);
    let out = dcda::deliver(&sys.proc(fig.p4).summary, cdm, fig.r_wt, &cfg);
    let cdm = out.forwards()[0].cdm.clone();
    let out = dcda::deliver(&sys.proc(fig.p1).summary, cdm, fig.r_td, &cfg);
    let cdm = out.forwards()[0].cdm.clone();
    let out = dcda::deliver(&sys.proc(fig.p2).summary, cdm, fig.r_df, &cfg);
    // Unresolved dependency on V's path: continue along r_fv only.
    let fws = out.forwards();
    assert_eq!(fws.len(), 1);
    assert_eq!(fws[0].via, fig.r_fv);
    let cdm = fws[0].cdm.clone();
    let out = dcda::deliver(&sys.proc(fig.p5).summary, cdm, fig.r_fv, &cfg);
    let Outcome::CycleFound { delete } = out else {
        panic!("expected the mirror walk to close at P5, got {out:?}");
    };
    assert!(delete
        .iter()
        .any(|&(p, r, _, _)| p == fig.p5 && r == fig.r_fv));
}

#[test]
fn end_to_end_both_cycles_reclaimed() {
    let (mut sys, fig) = prepared();
    sys.initiate_detection(fig.p2, fig.r_df);
    sys.drain_network();
    assert!(sys.metrics.cycles_detected >= 1, "{:?}", sys.metrics);
    let rounds = sys.collect_to_fixpoint(25);
    assert_eq!(
        sys.total_live_objects(),
        0,
        "everything reclaimed within {rounds} rounds; {:?}",
        sys.metrics
    );
    assert_eq!(sys.total_scions(), 0);
    assert_eq!(sys.metrics.safety_violations(), 0);
    sys.check_invariants().unwrap();
}

#[test]
fn no_new_information_rule_prevents_livelock() {
    // With branch termination ON, a full fixpoint run forwards a bounded
    // number of CDMs. (Ablation A2 shows the unbounded behaviour.)
    let (mut sys, _fig) = prepared();
    sys.collect_to_fixpoint(25);
    assert_eq!(sys.total_live_objects(), 0);
    assert!(
        sys.metrics.cdms_sent < 200,
        "bounded forwarding: {} CDMs",
        sys.metrics.cdms_sent
    );
}
