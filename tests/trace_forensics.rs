//! Detection-lifecycle forensics over the `acdgc-obs` tracing subsystem:
//! the Figure 4 acceptance walk (a detected cycle's full cross-process CDM
//! path must be reconstructable from the trace alone), the lifecycle
//! balance invariants as properties over random garbage graphs, and
//! sequential/threaded parity of the per-process metrics ledgers.

use acdgc::model::{
    DetectionId, GcConfig, NetConfig, ProcId, SimDuration, TraceConfig, TraceFilter,
};
use acdgc::obs::{Event, Trace};
use acdgc::sim::scenarios::{self, random_graph, RandomGraphParams};
use acdgc::sim::{merged_metrics, threaded, Metrics, System, ThreadedOptions};
use proptest::prelude::*;
use std::time::Duration;

fn traced_manual() -> GcConfig {
    GcConfig {
        trace: TraceConfig::on(),
        ..GcConfig::manual()
    }
}

fn fig4_prepared(cfg: GcConfig) -> (System, scenarios::Fig4) {
    let mut sys = System::new(6, cfg, NetConfig::instant(), 2);
    let fig = scenarios::fig4(&mut sys);
    sys.advance(SimDuration::from_millis(1));
    for p in 0..6 {
        sys.take_snapshot(ProcId(p));
    }
    (sys, fig)
}

/// The lifecycle ledger of one fully-drained detection under a reliable
/// network: every CDM announced by a forward step was sent, every sent CDM
/// was delivered, and every processing step (the initiation plus one per
/// delivery) ended in exactly one of {forward, terminal}.
fn assert_balanced(trace: &Trace, id: DetectionId, context: &str) {
    let path = trace.detection(id);
    let b = path.balance();
    assert!(b.started, "{context}: {id} has no DetectionStarted");
    assert_eq!(b.delivered, b.sent, "{context}: {id} lost CDMs in flight");
    assert_eq!(
        b.branches, b.sent,
        "{context}: {id} forward steps announced {} branches but {} CdmSent events exist",
        b.branches, b.sent
    );
    assert_eq!(
        b.terminals + b.forward_steps,
        1 + b.delivered,
        "{context}: {id} processing steps must each forward or terminate exactly once \
         (terminals={} forwards={} delivered={})",
        b.terminals,
        b.forward_steps,
        b.delivered
    );
    path.check_hops_increase()
        .unwrap_or_else(|e| panic!("{context}: {e}\n{}", path.render()));
}

// -------------------------------------------------------------------------
// Acceptance: Figure 4 forensics.
// -------------------------------------------------------------------------

#[test]
fn fig4_trace_reconstructs_full_cdm_paths() {
    let (mut sys, fig) = fig4_prepared(GcConfig {
        nongrowth_slack: 0,
        ..traced_manual()
    });
    sys.initiate_detection(fig.p2, fig.r_df);
    sys.drain_network();

    let trace = sys.trace();
    assert_eq!(trace.overwritten, 0, "default capacity must not overwrite");
    let cycles = trace.detected_cycles();
    assert!(
        !cycles.is_empty(),
        "the fig4 walk finds at least one cycle: {:?}",
        sys.metrics
    );
    for id in trace.detection_ids() {
        assert_balanced(&trace, id, "fig4");
    }
    // The §3.1 worked walk: initiated at P2, the winning derivation hops
    // P2 → P5 → P4 → P1 → P2 → P3 → P6 → P5 and concludes there — the
    // reconstructed path must cross all six processes in that order.
    let winning = cycles
        .iter()
        .map(|&id| trace.detection(id))
        .find(|p| p.procs().len() == 6)
        .expect("a cycle-finding walk that crossed every process");
    assert_eq!(winning.initiator(), Some(fig.p2));
    assert!(winning.found_cycle());
    let rendered = winning.render();
    assert!(
        rendered.contains("=> cycle(") && rendered.contains("-->"),
        "rendered path shows hops and the verdict: {rendered}"
    );
    // Phase clocks ran: each of the six snapshots timed its summarizer
    // pass, and every CDM processing step fed the handling histogram.
    let phases = trace.merged_phases();
    let summarize = phases.get(acdgc::obs::Phase::Summarize).count();
    assert!(summarize >= 6, "six snapshots time their summarizer");
    assert!(phases.get(acdgc::obs::Phase::CdmHandling).count() >= 1);
}

#[test]
fn fig4_scion_deletions_follow_the_verdict() {
    let (mut sys, fig) = fig4_prepared(traced_manual());
    sys.initiate_detection(fig.p2, fig.r_df);
    sys.drain_network();
    sys.collect_to_fixpoint(25);
    assert_eq!(sys.total_live_objects(), 0);

    let trace = sys.trace();
    let deletions = trace
        .events
        .iter()
        .filter(|r| matches!(r.event, Event::ScionDeleted { .. }))
        .count() as u64;
    assert_eq!(
        deletions, sys.metrics.scions_deleted_by_dcda,
        "every DCDA deletion leaves a ScionDeleted event"
    );
    assert!(deletions >= 7, "fig4 deletes the seven cycle references");
}

// -------------------------------------------------------------------------
// Satellite: disabled tracing records nothing, metrics still flow.
// -------------------------------------------------------------------------

#[test]
fn disabled_trace_records_nothing_but_metrics_flow() {
    let (mut sys, fig) = fig4_prepared(GcConfig::manual());
    sys.initiate_detection(fig.p2, fig.r_df);
    sys.drain_network();
    assert!(sys.metrics.cycles_detected >= 1);
    let trace = sys.trace();
    assert!(
        trace.events.is_empty(),
        "disabled tracing buffers no events"
    );
    assert_eq!(trace.merged_phases().total_count(), 0);
}

#[test]
fn tiny_ring_capacity_truncates_and_reports() {
    let cfg = GcConfig {
        trace: TraceConfig {
            enabled: true,
            capacity: 4,
            ..TraceConfig::default()
        },
        ..GcConfig::manual()
    };
    let (mut sys, fig) = fig4_prepared(cfg);
    sys.initiate_detection(fig.p2, fig.r_df);
    sys.drain_network();
    let trace = sys.trace();
    assert!(trace.events.len() <= 6 * 4);
    assert!(
        trace.overwritten > 0,
        "a 4-event ring under the fig4 walk must overwrite"
    );
}

#[test]
fn filtered_trace_suppresses_families_but_histograms_still_feed() {
    let cfg = GcConfig {
        trace: TraceConfig {
            enabled: true,
            filter: TraceFilter {
                detections: true,
                nss: false,
                phases: false,
                quiescence: false,
                mutator: false,
            },
            ..TraceConfig::on()
        },
        ..GcConfig::manual()
    };
    let (mut sys, fig) = fig4_prepared(cfg);
    sys.initiate_detection(fig.p2, fig.r_df);
    sys.drain_network();
    sys.collect_to_fixpoint(25);

    let trace = sys.trace();
    // Suppressed families never reach the ring...
    assert!(
        trace.events.iter().all(|r| !matches!(
            r.event,
            Event::NssSent { .. }
                | Event::NssApplied { .. }
                | Event::NssAcked { .. }
                | Event::PhaseStarted { .. }
                | Event::PhaseEnded { .. }
                | Event::VoteCast { .. }
                | Event::VoteRescinded { .. }
        )),
        "filtered families must be suppressed before entering the ring"
    );
    // ...while the detections family passes whole: balanced paths and the
    // cycle verdict are still fully reconstructable.
    let cycles = trace.detected_cycles();
    assert!(!cycles.is_empty(), "detections family still records");
    for id in trace.detection_ids() {
        assert_balanced(&trace, id, "filtered fig4");
    }
    // Phase histograms sit beside the ring and keep feeding even though
    // PhaseStarted/PhaseEnded events were filtered out.
    let phases = trace.merged_phases();
    assert!(
        phases.total_count() > 0,
        "phase histograms must keep feeding under an event filter"
    );
    assert!(phases.get(acdgc::obs::Phase::CdmHandling).count() >= 1);
}

// -------------------------------------------------------------------------
// Satellite: per-process metrics attribution.
// -------------------------------------------------------------------------

#[test]
fn per_process_metrics_sum_to_the_merged_ledger() {
    let (mut sys, fig) = fig4_prepared(GcConfig::manual());
    sys.initiate_detection(fig.p2, fig.r_df);
    sys.drain_network();
    sys.collect_to_fixpoint(25);

    let mut summed = Metrics::default();
    for p in 0..6 {
        summed.absorb(sys.metrics_for(ProcId(p)));
    }
    assert_eq!(
        summed, sys.metrics,
        "every counter bump must be attributed to exactly one process"
    );
    // Attribution is meaningful: the initiator alone started detections
    // from r_df, and the walk delivered CDMs to several other processes.
    assert!(sys.metrics_for(fig.p2).detections_started >= 1);
    let receiving = (0..6)
        .filter(|&p| sys.metrics_for(ProcId(p)).cdms_delivered > 0)
        .count();
    assert!(receiving >= 2, "CDM deliveries span processes: {receiving}");
}

// -------------------------------------------------------------------------
// Properties: lifecycle invariants over random garbage graphs.
// -------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// For every detection the trace ever saw: the balance ledger closes
    /// (each processing step forwards xor terminates; every DetectionStarted
    /// is closed by its branches' terminal events) and hops strictly
    /// increase along every reconstructed path.
    #[test]
    fn detection_lifecycle_invariants_hold_on_random_graphs(
        seed in 0u64..1_000_000,
        procs in 2usize..6,
        objs in 4usize..24,
        remote_degree in 0.2f64..2.0,
    ) {
        let mut sys = System::new(procs, traced_manual(), NetConfig::instant(), seed);
        let mut rng = acdgc::model::rng::component_rng(seed, "trace-prop");
        random_graph(&mut sys, &mut rng, &RandomGraphParams {
            objects_per_proc: objs,
            local_degree: 1.5,
            remote_degree,
            root_probability: 0.2,
        });
        sys.config_mut().candidate_age = SimDuration::ZERO;
        sys.config_mut().candidate_backoff = SimDuration::ZERO;
        sys.collect_to_fixpoint(15);

        let trace = sys.trace();
        prop_assume!(trace.overwritten == 0);
        let ids = trace.detection_ids();
        prop_assert_eq!(ids.len() as u64, sys.metrics.detections_started,
            "one DetectionStarted per initiation");
        for id in ids {
            assert_balanced(&trace, id, "random graph");
        }
    }

    /// Cross-process generalization of `check_hops_increase`: Lamport
    /// stamps strictly increase along every
    /// reconstructed `DetectionPath` — each process's steps tick its own
    /// clock, and every cross-process delivery witnesses the piggybacked
    /// send stamp, so no hop can appear to precede its cause. The merged
    /// trace must also pass the global causal check.
    #[test]
    fn lamport_stamps_increase_along_every_detection_path(
        seed in 0u64..1_000_000,
        procs in 2usize..6,
        objs in 4usize..24,
        remote_degree in 0.2f64..2.0,
    ) {
        let cfg = GcConfig {
            trace: TraceConfig::on(),
            ..GcConfig::manual()
        };
        let mut sys = System::new(procs, cfg, NetConfig::instant(), seed);
        let mut rng = acdgc::model::rng::component_rng(seed, "lamport-prop");
        random_graph(&mut sys, &mut rng, &RandomGraphParams {
            objects_per_proc: objs,
            local_degree: 1.5,
            remote_degree,
            root_probability: 0.2,
        });
        sys.config_mut().candidate_age = SimDuration::ZERO;
        sys.config_mut().candidate_backoff = SimDuration::ZERO;
        sys.collect_to_fixpoint(15);

        let trace = sys.trace();
        prop_assume!(trace.overwritten == 0);
        prop_assert!(trace.events.iter().all(|r| r.lamport > 0),
            "tracing stamps every surviving event");
        let causal = acdgc::obs::check_causal(&trace).violations;
        prop_assert!(causal.is_empty(), "global causal check: {:?}", causal);
        for id in trace.detection_ids() {
            let path = trace.detection(id);
            path.check_lamport_increases()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", path.render()));
        }
    }
}

// -------------------------------------------------------------------------
// Satellite: threaded runtime parity (events + merged per-process ledger).
// -------------------------------------------------------------------------

#[test]
fn threaded_trace_and_metrics_parity() {
    let mut sys = System::new(4, GcConfig::manual(), NetConfig::instant(), 9);
    let ids: Vec<ProcId> = (0..4).map(ProcId).collect();
    scenarios::ring(&mut sys, &ids, 2, false);
    assert!(sys.oracle_live().is_empty());

    let procs = sys.into_procs();
    let before = merged_metrics(&procs);
    let cfg = GcConfig {
        trace: TraceConfig::on(),
        candidate_backoff: SimDuration::from_micros(300),
        candidate_backoff_max: SimDuration::from_millis(5),
        ..GcConfig::manual()
    };
    let run = threaded::run_concurrent_collection_observed(
        procs,
        cfg,
        ThreadedOptions {
            deadline: Duration::from_secs(30),
            ..ThreadedOptions::default()
        },
    );
    let procs = run.procs;
    let live: usize = procs.iter().map(|p| p.heap.stats().live_objects).sum();
    assert_eq!(live, 0);
    assert!(run.quiescent);

    let m = merged_metrics(&procs).since(&before);
    assert_eq!(m.objects_reclaimed, 8, "the whole ring");
    assert_eq!(m.lgc_runs, m.snapshots, "one summary per sweep");
    assert_eq!(m.faults_injected, 0);
    assert!(m.cycles_detected >= 1);

    // The trace saw the same story: every worker's vote is an event, the
    // cycle verdicts are events, and the detection paths are balanced
    // (reliable transport + final drains mean no CDM vanished).
    let trace = Trace::collect(procs.iter().map(|p| &p.obs));
    let votes = trace
        .events
        .iter()
        .filter(|r| matches!(r.event, Event::VoteCast { .. }))
        .count() as u64;
    assert_eq!(votes, m.votes_cast);
    assert_eq!(trace.detected_cycles().len() as u64, m.cycles_detected);
    if trace.overwritten == 0 {
        for id in trace.detection_ids() {
            let path = trace.detection(id);
            path.check_hops_increase()
                .unwrap_or_else(|e| panic!("{e}\n{}", path.render()));
        }
    }
}
