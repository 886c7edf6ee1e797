//! The protocol step against a fake outbox: for every `Outcome` variant,
//! which counter moves, which event is recorded and which effects reach
//! the driver — including the credit rules that a runtime can otherwise
//! only show through its channels.

use acdgc::dcda::{Cdm, OutboundCdm, Outcome, TerminateReason, Walk, FULL_CREDIT};
use acdgc::heap::HeapRef;
use acdgc::model::{DetectionId, GcConfig, ObjId, ProcId, RefId, SimTime, TraceConfig};
use acdgc::obs::Event;
use acdgc::remoting::NewSetStubs;
use acdgc::sim::{Credit, Metrics, Outbox, Process, Step};

const ME: ProcId = ProcId(0);
const PEER: ProcId = ProcId(1);
const INITIATOR: ProcId = ProcId(2);
const ID: DetectionId = DetectionId(7);
const ARRIVING: u64 = FULL_CREDIT / 4;

#[derive(Debug, PartialEq)]
enum Effect {
    Cdm { dest: ProcId, via: RefId },
    Delete { owner: ProcId, scion: RefId },
    Credit(Credit),
}

/// The effects in order, and beside them every CDM sent.
#[derive(Default)]
struct FakeOutbox(Vec<Effect>, Vec<Cdm>);

impl Outbox for FakeOutbox {
    fn send_cdm(&mut self, _from: &mut Process, dest: ProcId, via: RefId, cdm: Cdm) {
        self.0.push(Effect::Cdm { dest, via });
        self.1.push(cdm);
    }
    fn send_delete_scion(&mut self, _: &mut Process, owner: ProcId, scion: RefId, _: u32, _: u64) {
        self.0.push(Effect::Delete { owner, scion });
    }
    fn settle_credit(&mut self, _from: &mut Process, credit: Credit) {
        self.0.push(Effect::Credit(credit));
    }
    fn send_nss(&mut self, _: &mut Process, _: ProcId, _: NewSetStubs) {
        unreachable!("no test here builds a stub set");
    }
}

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

/// Feed one outcome (as if a CDM carrying `ARRIVING` credit from
/// `INITIATOR` had just been expanded at hop 3) through the step; returns
/// the own and merged ledgers, the effects, and the last recorded event.
fn apply(
    p: &mut Process,
    cfg: &GcConfig,
    outcome: Outcome,
) -> (Metrics, Metrics, Vec<Effect>, Event) {
    let before = p.metrics;
    let (mut merged, mut out) = (Metrics::default(), FakeOutbox::default());
    let mut cx = Step {
        cfg,
        now: SimTime(5),
        merged: Some(&mut merged),
        out: &mut out,
    };
    p.apply_outcome(&mut cx, ID, 3, INITIATOR, ARRIVING, outcome);
    let last = p.obs.events().last().expect("an event").event.clone();
    (p.metrics.since(&before), merged, out.0, last)
}

fn settled(clean: bool) -> Effect {
    Effect::Credit(Credit {
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
    assert_eq!(
        effects,
        vec![
            Effect::Cdm {
                dest: PEER,
                via: RefId(4)
            },
            Effect::Cdm {
                dest: INITIATOR,
                via: RefId(5)
            },
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
    let starved = Effect::Credit(Credit {
        id: ID,
        initiator: INITIATOR,
        credit: 0,
        clean: false,
    });
    assert_eq!(
        effects,
        vec![
            starved,
            Effect::Cdm {
                dest: PEER,
                via: RefId(4)
            }
        ]
    );
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
    let mut out = FakeOutbox::default();
    let mut cx = Step {
        cfg: &cfg,
        now: SimTime(5),
        merged: None,
        out: &mut out,
    };
    p.on_cdm(&mut cx, r, cdm, PEER, 0);
    let FakeOutbox(effects, sent) = out;
    assert!(
        effects.iter().all(|e| matches!(e, Effect::Cdm { .. })),
        "nothing settles, the credit rides the forwards: {effects:?}"
    );
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
    assert_eq!(
        effects,
        vec![
            settled(false),
            Effect::Delete {
                owner: PEER,
                scion: RefId(8)
            },
            Effect::Delete {
                owner: INITIATOR,
                scion: RefId(9)
            },
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
        let mut out = FakeOutbox::default();
        let mut cx = Step {
            cfg,
            now: SimTime(5),
            merged: None,
            out: &mut out,
        };
        let holder = p.on_delete_scion(&mut cx, r, inc, ic);
        assert_eq!(holder.is_some(), p.tables.scion(r).is_none());
        assert_eq!(
            p.metrics.scions_deleted_by_dcda,
            u64::from(holder.is_some())
        );
        assert!(out.0.is_empty(), "a deletion sends nothing");
        holder
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
    let mut out = FakeOutbox::default();
    let mut cx = Step {
        cfg: &cfg,
        now: SimTime(5),
        merged: None,
        out: &mut out,
    };
    p.initiate(&mut cx, RefId(3), || panic!("no id for an unknown scion"));
    assert_eq!(p.metrics.detections_dropped_no_scion, 1);
    assert_eq!(p.metrics.detections_started, 0);

    // A known scion whose target holds no stubs terminates on the spot
    // and settles the full credit cleanly with this process as initiator.
    let mut p = process_with_scion(&cfg, RefId(1));
    let mut cx = Step {
        cfg: &cfg,
        now: SimTime(5),
        merged: None,
        out: &mut out,
    };
    p.initiate(&mut cx, RefId(1), || ID);
    assert_eq!(p.metrics.detections_started, 1);
    let full = Effect::Credit(Credit {
        id: ID,
        initiator: ME,
        credit: FULL_CREDIT,
        clean: true,
    });
    assert_eq!(out.0, vec![full]);
}
