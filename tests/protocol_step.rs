//! The protocol step, read from the effects it returns: for every
//! `Outcome` variant, which counter moves, which event is recorded and
//! what the driver is handed — including the credit rules that a runtime
//! can otherwise only show through its channels, and the Lamport stamp
//! each send carries.

use acdgc::dcda::{Cdm, OutboundCdm, Outcome, TerminateReason, Walk, FULL_CREDIT};
use acdgc::heap::HeapRef;
use acdgc::model::{DetectionId, GcConfig, ObjId, ProcId, RefId, SimTime, TraceConfig};
use acdgc::obs::Event;
use acdgc::remoting::NewSetStubs;
use acdgc::sim::{Credit, Effect, GcMsg, Metrics, Process, Step};

const ME: ProcId = ProcId(0);
const PEER: ProcId = ProcId(1);
const INITIATOR: ProcId = ProcId(2);
const ID: DetectionId = DetectionId(7);
const ARRIVING: u64 = FULL_CREDIT / 4;

fn traced() -> GcConfig {
    GcConfig {
        trace: TraceConfig::on(),
        ..GcConfig::manual()
    }
}

/// A process owning one object protected by scion `r` from `PEER`.
fn process_with_scion(cfg: &GcConfig, r: RefId) -> Process {
    let mut p = Process::new(ME, cfg);
    let obj = p.heap.alloc(1);
    p.tables.add_scion(r, obj, PEER, SimTime(0));
    p.refresh_summary(SimTime(1));
    p
}

/// Run `f` as one step at `p` beside a merged ledger; returns its result,
/// what it moved in the process's ledger, the merged ledger, and the
/// effects it returned.
fn step<R>(
    p: &mut Process,
    cfg: &GcConfig,
    f: impl FnOnce(&mut Process, &mut Step<'_>) -> R,
) -> (R, Metrics, Metrics, Vec<Effect>) {
    let before = p.metrics;
    let (mut merged, mut out) = (Metrics::default(), Vec::new());
    let mut cx = Step {
        cfg,
        now: SimTime(5),
        merged: Some(&mut merged),
        out: &mut out,
    };
    let r = f(p, &mut cx);
    (r, p.metrics.since(&before), merged, out)
}

/// Feed one outcome (as if a CDM carrying `ARRIVING` credit from
/// `INITIATOR` had just been expanded at hop 3) through the step; returns
/// the own and merged ledgers, the effects, and the last recorded event.
fn apply(
    p: &mut Process,
    cfg: &GcConfig,
    outcome: Outcome,
) -> (Metrics, Metrics, Vec<Effect>, Event) {
    let apply = |p: &mut Process, cx: &mut Step<'_>| {
        p.apply_outcome(cx, ID, 3, INITIATOR, ARRIVING, outcome)
    };
    let (_, own, merged, effects) = step(p, cfg, apply);
    let last = p.obs.events().last().expect("an event").event.clone();
    (own, merged, effects, last)
}

/// The Lamport stamps of `p`'s recorded events that `pick` selects.
fn stamps(p: &Process, pick: fn(&Event) -> bool) -> Vec<u64> {
    let picked = p.obs.events().filter(|r| pick(&r.event));
    picked.map(|r| r.lamport).collect()
}

fn settled(clean: bool) -> Effect {
    Effect::Settle(Credit {
        id: ID,
        initiator: INITIATOR,
        credit: ARRIVING,
        clean,
    })
}

fn branch(dest: ProcId, via: RefId) -> OutboundCdm {
    OutboundCdm {
        dest,
        via,
        cdm: Cdm::initiate(ID, INITIATOR, RefId(1), 0),
    }
}

/// `branch(dest, via)` as the step returns it, sent at clock `lamport`.
fn sent_branch(dest: ProcId, via: RefId, lamport: u64) -> Effect {
    let cdm = branch(dest, via).cdm;
    let msg = GcMsg::Cdm { via, cdm };
    Effect::Send { dest, lamport, msg }
}

#[test]
fn every_terminal_outcome_counts_records_and_settles_its_credit_once() {
    // (outcome, the one counter it bumps, settles clean?, event recorded)
    type Counter = fn(&mut Metrics) -> &mut u64;
    type Row = (Outcome, Counter, bool, fn(&Event) -> bool);
    let terminated = |r| Outcome::Terminated(r);
    let table: Vec<Row> = vec![
        (
            Outcome::DroppedNoScion,
            |m| &mut m.detections_dropped_no_scion,
            false,
            |e| matches!(e, Event::DetectionDropped { hop: 3, .. }),
        ),
        (
            Outcome::DroppedHopCap,
            |m| &mut m.detections_dropped_hops,
            false,
            |e| matches!(e, Event::DetectionDropped { hop: 3, .. }),
        ),
        (
            Outcome::AbortedIcMismatch {
                ref_id: RefId(9),
                source_ic: 1,
                target_ic: 2,
            },
            |m| &mut m.detections_aborted_ic,
            false,
            |e| {
                matches!(
                    e,
                    Event::DetectionAborted {
                        source_ic: 1,
                        target_ic: 2,
                        ..
                    }
                )
            },
        ),
        (
            Outcome::CycleFound { delete: vec![] },
            |m| &mut m.cycles_detected,
            false,
            |e| matches!(e, Event::CycleDetected { scions: 0, .. }),
        ),
        (
            terminated(TerminateReason::NoStubs),
            |m| &mut m.detections_terminated_no_stubs,
            true,
            |e| matches!(e, Event::DetectionTerminated { .. }),
        ),
        (
            terminated(TerminateReason::AllStubsLocallyReachable),
            |m| &mut m.detections_terminated_local,
            true,
            |e| matches!(e, Event::DetectionTerminated { .. }),
        ),
        (
            terminated(TerminateReason::NoNewInformation),
            |m| &mut m.detections_terminated_no_new_info,
            true,
            |e| matches!(e, Event::DetectionTerminated { .. }),
        ),
        (
            terminated(TerminateReason::BudgetExhausted),
            |m| &mut m.detections_terminated_budget,
            false,
            |e| matches!(e, Event::DetectionTerminated { .. }),
        ),
    ];
    let cfg = traced();
    for (outcome, counter, clean, event_ok) in table {
        let label = format!("{outcome:?}");
        let mut p = Process::new(ME, &cfg);
        let (own, merged, effects, event) = apply(&mut p, &cfg, outcome);
        let mut only = Metrics::default();
        *counter(&mut only) = 1;
        assert_eq!(own, only, "{label}: its counter and no other");
        assert_eq!(own, merged, "{label}: own and merged ledgers move together");
        assert_eq!(effects, vec![settled(clean)], "{label}: one settlement");
        assert!(event_ok(&event), "{label}: recorded {event:?}");
    }
}

#[test]
fn forwarding_sends_each_branch_in_order_and_settles_nothing() {
    let cfg = traced();
    let mut p = Process::new(ME, &cfg);
    let outcome = Outcome::Forwarded {
        out: vec![branch(PEER, RefId(4)), branch(INITIATOR, RefId(5))],
        branches_pruned_local: 2,
        branches_no_new_info: 1,
        branches_starved: 0,
    };
    let (own, merged, effects, event) = apply(&mut p, &cfg, outcome);
    assert_eq!(own, merged);
    assert_eq!(
        (
            own.cdms_sent,
            own.branches_pruned_local,
            own.branches_no_new_info
        ),
        (2, 2, 1)
    );
    assert!(own.max_cdm_bytes > 0);
    // Each send carries the stamp of its own `CdmSent`, not a later one.
    let sent = stamps(&p, |e| matches!(e, Event::CdmSent { .. }));
    assert!(sent[0] < sent[1]);
    assert_eq!(
        effects,
        vec![
            sent_branch(PEER, RefId(4), sent[0]),
            sent_branch(INITIATOR, RefId(5), sent[1]),
        ],
        "the credit rides the forwarded branches"
    );
    assert!(matches!(
        event,
        Event::CdmSent {
            to: INITIATOR,
            via: RefId(5),
            ..
        }
    ));
    let forwarded = p.obs.events().any(|r| {
        matches!(
            r.event,
            Event::CdmForwarded {
                branches: 2,
                pruned_local: 2,
                ..
            }
        )
    });
    assert!(forwarded);
}

#[test]
fn starved_branches_add_one_zero_credit_unclean_settlement() {
    let cfg = traced();
    let mut p = Process::new(ME, &cfg);
    let outcome = Outcome::Forwarded {
        out: vec![branch(PEER, RefId(4))],
        branches_pruned_local: 0,
        branches_no_new_info: 3,
        branches_starved: 3,
    };
    let (_, _, effects, _) = apply(&mut p, &cfg, outcome);
    let starved = Effect::Settle(Credit {
        id: ID,
        initiator: INITIATOR,
        credit: 0,
        clean: false,
    });
    let sent = stamps(&p, |e| matches!(e, Event::CdmSent { .. }));
    assert_eq!(effects, vec![starved, sent_branch(PEER, RefId(4), sent[0])]);
}

#[test]
fn a_split_sends_the_chain_first_and_its_credits_sum_to_the_arriving_one() {
    // The scion's target holds references into two other processes: an
    // undivided walk arriving through it splits here.
    let cfg = traced();
    let r = RefId(1);
    let mut p = process_with_scion(&cfg, r);
    let obj = p.tables.scion(r).unwrap().target;
    for (stub, at) in [(RefId(4), PEER), (RefId(5), INITIATOR)] {
        p.tables.add_stub(stub, ObjId::new(at, 0, 0), SimTime(0));
        p.heap.add_ref(obj, HeapRef::Remote(stub)).unwrap();
    }
    p.refresh_summary(SimTime(2));
    let mut cdm = Cdm::initiate(ID, INITIATOR, RefId(9), 0);
    (cdm.budget, cdm.credit) = (64, ARRIVING + 1);
    let msg = GcMsg::Cdm { via: r, cdm };
    let (_, _, _, effects) = step(&mut p, &cfg, |p, cx| p.on_message(cx, PEER, 0, msg));
    let sent: Vec<&Cdm> = effects
        .iter()
        .map(|e| match e {
            Effect::Send {
                msg: GcMsg::Cdm { cdm, .. },
                ..
            } => cdm,
            other => panic!("nothing settles, the credit rides the forwards: {other:?}"),
        })
        .collect();
    let walks: Vec<Walk> = sent.iter().map(|c| c.walk).collect();
    assert_eq!(
        walks,
        [Walk::PerProcess, Walk::PerReference, Walk::PerReference],
        "the chain first, then the paper's derivations"
    );
    assert_eq!(sent.iter().map(|c| c.credit).sum::<u64>(), ARRIVING + 1);
    assert_eq!(sent[0].credit, ARRIVING / 2 + 1, "the larger half");
    assert_eq!(sent.iter().map(|c| c.budget).sum::<u32>(), 63);
    assert_eq!(p.metrics.cdms_sent, 3);
}

#[test]
fn a_cycle_verdict_deletes_own_scions_inline_and_sends_the_rest_in_order() {
    let cfg = traced();
    let own_scion = RefId(1);
    let mut p = process_with_scion(&cfg, own_scion);
    let inc = p.tables.scion(own_scion).unwrap().incarnation;
    let outcome = Outcome::CycleFound {
        delete: vec![
            (PEER, RefId(8), 0, 0),
            (ME, own_scion, inc, 0),
            (INITIATOR, RefId(9), 0, 0),
        ],
    };
    let (own, merged, effects, event) = apply(&mut p, &cfg, outcome);
    assert_eq!(own, merged);
    assert_eq!((own.cycles_detected, own.scions_deleted_by_dcda), (1, 1));
    assert!(p.tables.scion(own_scion).is_none());
    assert!(
        p.summary.scion(own_scion).is_none(),
        "published summary forgets it too"
    );
    // Each deletion is stamped as of its own send: the one after the
    // inline deletion carries the `ScionDeleted` record's stamp.
    let verdict = stamps(&p, |e| matches!(e, Event::CycleDetected { .. }));
    let inline = stamps(&p, |e| matches!(e, Event::ScionDeleted { .. }));
    let delete = |dest, scion, lamport| {
        let msg = GcMsg::DeleteScion {
            scion,
            incarnation: 0,
            ic: 0,
        };
        Effect::Send { dest, lamport, msg }
    };
    assert_eq!(
        effects,
        vec![
            settled(false),
            delete(PEER, RefId(8), verdict[0]),
            delete(INITIATOR, RefId(9), inline[0]),
        ]
    );
    assert!(matches!(event, Event::ScionDeleted { scion, .. } if scion == own_scion));
}

#[test]
fn delete_scion_is_refused_on_pin_incarnation_or_moved_counter() {
    let r = RefId(1);
    let attempt = |cfg: &GcConfig, prepare: fn(&mut Process, RefId), inc_off: u32, ic: u64| {
        let mut p = process_with_scion(cfg, r);
        prepare(&mut p, r);
        let inc = p.tables.scion(r).unwrap().incarnation + inc_off;
        let msg = GcMsg::DeleteScion {
            scion: r,
            incarnation: inc,
            ic,
        };
        let (deleted, own, _, effects) = step(&mut p, cfg, |p, cx| p.on_message(cx, PEER, 0, msg));
        assert_eq!(deleted.is_empty(), p.tables.scion(r).is_some());
        assert_eq!(own.scions_deleted_by_dcda, deleted.len() as u64);
        assert!(effects.is_empty(), "a deletion sends nothing");
        deleted.first().map(|&(scion, holder)| {
            assert_eq!(scion, r);
            holder
        })
    };
    let cfg = GcConfig::manual();
    let nothing: fn(&mut Process, RefId) = |_, _| {};
    assert_eq!(attempt(&cfg, nothing, 0, 0), Some(PEER), "matching verdict");
    assert_eq!(attempt(&cfg, nothing, 1, 0), None, "other incarnation");
    assert_eq!(
        attempt(&cfg, nothing, 0, 1),
        None,
        "counter moved (IC barrier)"
    );
    assert_eq!(
        attempt(&cfg, |p, r| p.tables.pin_scion(r).unwrap(), 0, 0),
        None,
        "pinned"
    );
    let invoked: fn(&mut Process, RefId) = |p, r| {
        p.tables
            .record_receive_through_scion(r, SimTime(2))
            .unwrap();
    };
    assert_eq!(
        attempt(&cfg, invoked, 0, 0),
        None,
        "invoked since the verdict"
    );
    let a1 = GcConfig {
        ic_barrier: false,
        ..GcConfig::manual()
    };
    assert_eq!(
        attempt(&a1, invoked, 0, 0),
        Some(PEER),
        "A1 ablation skips the counter"
    );
}

#[test]
fn initiation_from_an_unknown_scion_consumes_no_detection_id() {
    let cfg = GcConfig::manual();
    let mut p = Process::new(ME, &cfg);
    let unknown = |p: &mut Process, cx: &mut Step<'_>| {
        p.initiate(cx, RefId(3), || panic!("no id for an unknown scion"))
    };
    let (_, own, _, effects) = step(&mut p, &cfg, unknown);
    assert_eq!(own.detections_dropped_no_scion, 1);
    assert_eq!(own.detections_started, 0);
    assert!(effects.is_empty());

    // A known scion whose target holds no stubs terminates on the spot
    // and settles the full credit cleanly with this process as initiator.
    let mut p = process_with_scion(&cfg, RefId(1));
    let (_, own, _, effects) = step(&mut p, &cfg, |p, cx| p.initiate(cx, RefId(1), || ID));
    assert_eq!(own.detections_started, 1);
    let full = Effect::Settle(Credit {
        id: ID,
        initiator: ME,
        credit: FULL_CREDIT,
        clean: true,
    });
    assert_eq!(effects, vec![full]);
}

#[test]
fn published_sets_and_acks_are_each_stamped_by_their_own_record() {
    let cfg = traced();
    let mut p = Process::new(ME, &cfg);
    let obj = p.heap.alloc(1);
    p.heap.add_root(obj).unwrap();
    p.tables
        .add_stub(RefId(4), ObjId::new(PEER, 0, 0), SimTime(0));
    p.heap.add_ref(obj, HeapRef::Remote(RefId(4))).unwrap();
    let deliver = |p: &mut Process, from, msg| {
        let (deleted, _, _, effects) = step(p, &cfg, |p, cx| p.on_message(cx, from, 0, msg));
        assert!(deleted.is_empty() && effects.is_empty(), "{effects:?}");
    };
    let set_from_initiator = |seq| {
        let (from, lgc_at, live_refs) = (INITIATOR, SimTime(seq), vec![]);
        GcMsg::Nss(NewSetStubs {
            from,
            seq,
            lgc_at,
            live_refs,
            ack: 0,
        })
    };
    let collect = |p: &mut Process| {
        step(p, &cfg, |p, cx| {
            let work = p.lgc_step(&cfg, 3, cx.now, None);
            p.publish_nss(cx, work.nss)
        })
    };

    // The first collection sends a set to each peer; the acknowledgement
    // owed to INITIATOR rides its set.
    deliver(&mut p, INITIATOR, set_from_initiator(3));
    let (pending, own, _, effects) = collect(&mut p);
    assert!(pending);
    assert_eq!((own.nss_sent, own.nss_acks_sent), (2, 0));
    let sent = stamps(&p, |e| matches!(e, Event::NssSent { .. }));
    let [Effect::Send {
        dest: PEER,
        lamport: l0,
        msg: GcMsg::Nss(to_peer),
    }, Effect::Send {
        dest: INITIATOR,
        lamport: l1,
        msg: GcMsg::Nss(to_initiator),
    }] = &effects[..]
    else {
        panic!("one set per peer, in peer order: {effects:?}");
    };
    assert_eq!((*l0, *l1), (sent[0], sent[1]));
    assert_eq!(
        (&to_peer.live_refs[..], to_initiator.ack),
        (&[RefId(4)][..], 3)
    );

    // Both confirmed, then a newer set from INITIATOR: the acknowledgement
    // it is owed goes bare, since no set goes back to carry it.
    deliver(&mut p, PEER, GcMsg::NssAck { seq: to_peer.seq });
    deliver(
        &mut p,
        INITIATOR,
        GcMsg::NssAck {
            seq: to_initiator.seq,
        },
    );
    deliver(&mut p, INITIATOR, set_from_initiator(4));
    let (pending, _, _, effects) = collect(&mut p);
    assert!(!pending);
    let acked = stamps(&p, |e| matches!(e, Event::NssAcked { .. }));
    let msg = GcMsg::NssAck { seq: 4 };
    let bare = Effect::Send {
        dest: INITIATOR,
        lamport: acked[0],
        msg,
    };
    assert_eq!(effects, vec![bare]);
}
