//! The threaded runtime's watchdog: heartbeat slots, stall detection, and
//! `HealthReport` forensics.
//!
//! The central test wedges one worker deliberately (via the sweep hook)
//! and asserts the watchdog names that worker, shows the `VoteCast` it
//! recorded just before wedging among its recent events, and that the run
//! still finishes — the monitor must never deadlock against the very
//! stall it is reporting.

use acdgc::model::{GcConfig, NetConfig, SimDuration, TraceConfig, WatchdogConfig};
use acdgc::obs::{HealthReason, WorkerStage};
use acdgc::sim::{threaded, System, ThreadedOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fast-quiescing config with an aggressive watchdog: empty heaps vote
/// after 2 quiet sweeps, a ~40ms silence is a stall, polled every 5ms.
fn watchdog_cfg() -> GcConfig {
    GcConfig {
        quiet_sweeps: 2,
        trace: TraceConfig::on(),
        watchdog: WatchdogConfig {
            enabled: true,
            stall_after: SimDuration::from_millis(40),
            poll_every: SimDuration::from_millis(5),
            max_stall_reports: 8,
        },
        ..GcConfig::manual()
    }
}

#[test]
fn stalled_worker_is_named_with_its_recent_events() {
    // Empty heaps: nothing to collect, so every worker votes quickly. The
    // hook wedges worker 3 at the end of the iteration that cast its vote,
    // holding no lock — so the report can read its ring, whose newest
    // event is that `VoteCast`.
    let sys = System::new(4, watchdog_cfg(), NetConfig::instant(), 5);
    let released = Arc::new(AtomicBool::new(false));
    let reported = Arc::new(parking_lot_free_reports());

    let hook_released = Arc::clone(&released);
    let stalled_once = AtomicBool::new(false);
    let sweep_hook: threaded::SweepHook = Arc::new(move |proc, _sweep, voted| {
        if proc.0 == 3 && voted && !stalled_once.swap(true, Ordering::SeqCst) {
            let t0 = Instant::now();
            while !hook_released.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    });
    let cb_released = Arc::clone(&released);
    let cb_reported = Arc::clone(&reported);
    let on_report: threaded::ReportHook = Arc::new(move |report| {
        cb_reported.lock().unwrap().push(report.clone());
        if report.reason == HealthReason::Stall {
            // Let the wedged worker go as soon as the stall is on record.
            cb_released.store(true, Ordering::SeqCst);
        }
    });

    let run = threaded::run_concurrent_collection_observed(
        sys.into_procs(),
        watchdog_cfg(),
        ThreadedOptions {
            sweep_hook: Some(sweep_hook),
            on_report: Some(on_report),
            deadline: Duration::from_secs(30),
            ..ThreadedOptions::default()
        },
    );

    assert!(run.quiescent, "run must still end via quiescence");
    let stall = run
        .health
        .iter()
        .find(|r| r.reason == HealthReason::Stall)
        .expect("watchdog emitted a stall report");
    assert_eq!(
        stall.stalled(),
        vec![acdgc::model::ProcId(3)],
        "exactly the wedged worker is flagged"
    );
    let w3 = stall
        .workers
        .iter()
        .find(|w| w.proc.0 == 3)
        .expect("report covers every worker");
    assert_eq!(w3.stage, WorkerStage::Voted);
    assert!(w3.voted);
    assert!(
        w3.recent_events
            .iter()
            .any(|(_, e)| e.kind() == "vote_cast"),
        "the wedged worker's VoteCast must be among its recent events: {:?}",
        w3.recent_events
    );
    // The live callback saw the same reports the run returned.
    assert_eq!(reported.lock().unwrap().len(), run.health.len());
    // The rendering names the stall and the recent event kind.
    let text = stall.render();
    assert!(text.contains("STALLED"), "{text}");
    assert!(text.contains("vote_cast"), "{text}");

    // Terminal report: quiescent, nobody stalled.
    let terminal = run.health.last().unwrap();
    assert_eq!(terminal.reason, HealthReason::Quiescent);
    assert!(terminal.stalled().is_empty());
    assert!(terminal
        .workers
        .iter()
        .all(|w| w.stage == WorkerStage::Done));
    // After the join every process lock is free: ledgers are all present.
    assert!(terminal.workers.iter().all(|w| w.ledger.is_some()));
}

/// std Mutex wrapper so the test does not depend on parking_lot's
/// re-exports (the report callback runs on the monitor thread).
fn parking_lot_free_reports() -> std::sync::Mutex<Vec<acdgc::obs::HealthReport>> {
    std::sync::Mutex::new(Vec::new())
}

#[test]
fn deadline_backstop_produces_a_deadline_report() {
    // quiet_sweeps too high to ever vote: the run must end via the
    // deadline, and the terminal report must say so.
    let cfg = GcConfig {
        quiet_sweeps: u32::MAX,
        ..watchdog_cfg()
    };
    let sys = System::new(2, cfg.clone(), NetConfig::instant(), 1);
    let run = threaded::run_concurrent_collection_observed(
        sys.into_procs(),
        cfg,
        ThreadedOptions {
            deadline: Duration::from_millis(100),
            ..ThreadedOptions::default()
        },
    );
    assert!(!run.quiescent);
    let terminal = run.health.last().expect("terminal report");
    assert_eq!(terminal.reason, HealthReason::Deadline);
    assert!(terminal
        .workers
        .iter()
        .all(|w| w.stage == WorkerStage::Done));
}

#[test]
fn healthy_run_emits_exactly_one_quiescent_report() {
    let sys = System::new(3, watchdog_cfg(), NetConfig::instant(), 2);
    let run = threaded::run_concurrent_collection_observed(
        sys.into_procs(),
        watchdog_cfg(),
        ThreadedOptions::default(),
    );
    assert!(run.quiescent);
    assert_eq!(run.health.len(), 1, "no stalls: terminal report only");
    assert_eq!(run.health[0].reason, HealthReason::Quiescent);
    // Round trip through the JSONL form.
    let v = run.health[0].to_json();
    let back = acdgc::obs::HealthReport::from_json(&v).expect("health report round-trips");
    assert_eq!(back.reason, HealthReason::Quiescent);
    assert_eq!(back.workers.len(), 3);
}

#[test]
fn watchdog_can_be_disabled() {
    let cfg = GcConfig {
        watchdog: WatchdogConfig {
            enabled: false,
            ..WatchdogConfig::default()
        },
        ..watchdog_cfg()
    };
    let sys = System::new(2, cfg.clone(), NetConfig::instant(), 3);
    let run = threaded::run_concurrent_collection_observed(
        sys.into_procs(),
        cfg,
        ThreadedOptions::default(),
    );
    assert!(run.quiescent);
    assert!(run.health.is_empty(), "disabled watchdog reports nothing");
}

#[test]
fn sampler_records_bounded_validated_series_with_watchdog_off() {
    use acdgc::model::{ProcId, SamplingConfig};
    use acdgc::obs::{check_series, group_by_series};
    // Watchdog disabled but sampling on: the monitor thread must still run,
    // feed the sampler, and report no health — proving the hoisted polling
    // loop serves sampling alone.
    let cfg = GcConfig {
        sampling: SamplingConfig {
            enabled: true,
            sample_every: 1,
            capacity: 8,
        },
        watchdog: WatchdogConfig {
            enabled: false,
            poll_every: SimDuration::from_millis(1),
            ..WatchdogConfig::default()
        },
        ..watchdog_cfg()
    };
    // Real garbage so the counters move while samples are taken.
    let mut sys = System::new(4, cfg.clone(), NetConfig::instant(), 21);
    let ids: Vec<ProcId> = (0..4).map(ProcId).collect();
    acdgc::sim::scenarios::ring(&mut sys, &ids, 3, false);
    // Stretch the run across several monitor polls: each worker pauses
    // briefly during its early sweeps so the wall clock spans well past
    // the 1ms poll cadence.
    let sweep_hook: threaded::SweepHook = Arc::new(|_, sweep, _| {
        if sweep < 10 {
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    let run = threaded::run_concurrent_collection_observed(
        sys.into_procs(),
        cfg,
        ThreadedOptions {
            sweep_hook: Some(sweep_hook),
            deadline: Duration::from_secs(30),
            ..ThreadedOptions::default()
        },
    );
    assert!(run.quiescent);
    assert!(run.health.is_empty(), "watchdog off: no health reports");
    assert!(!run.samples.is_empty(), "sampler recorded during the run");

    let series = group_by_series(&run.samples);
    assert!(
        series.iter().any(|(p, _)| p.is_none()),
        "global series present"
    );
    for (proc, rows) in &series {
        let label = match proc {
            None => "global".to_string(),
            Some(p) => format!("P{}", p.0),
        };
        assert!(!rows.is_empty(), "{label}: series non-empty");
        assert!(rows.len() <= 8, "{label}: capacity bound holds");
        let violations = check_series(&label, rows);
        assert!(violations.is_empty(), "{label}: {violations:?}");
    }
    // The global series saw reclamation happen: the ring was all garbage
    // and the run quiesced, so the newest sample's counters are live data,
    // not zeros.
    let (_, global) = series.iter().find(|(p, _)| p.is_none()).unwrap();
    let last = global.last().unwrap().0;
    assert!(
        last.lgc_runs > 0,
        "counters flowed from the per-process ledgers"
    );
}

#[test]
fn prometheus_exposition_covers_metrics_and_phases() {
    use acdgc::model::ProcId;
    use acdgc::sim::scenarios;
    let mut sys = System::new(
        4,
        GcConfig {
            trace: TraceConfig::on(),
            ..GcConfig::manual()
        },
        NetConfig::instant(),
        9,
    );
    let fig = scenarios::fig3(&mut sys);
    sys.remove_root(fig.a).unwrap();
    sys.collect_to_fixpoint(20);
    assert_eq!(sys.total_live_objects(), 0);

    let text = sys.to_prometheus();
    assert!(
        text.contains("# TYPE acdgc_lgc_runs_total counter"),
        "{text}"
    );
    assert!(text.contains("# TYPE acdgc_cycles_detected_total counter"));
    assert!(text.contains("# TYPE acdgc_max_cdm_bytes gauge"));
    assert!(
        text.contains("# TYPE acdgc_phase_duration_nanoseconds histogram"),
        "phase histograms present when tracing is on"
    );
    assert!(text.contains("acdgc_phase_duration_nanoseconds_bucket{phase="));
    assert!(text.contains("le=\"+Inf\""));
    // Spot-check one counter value against the ledger.
    assert!(text.contains(&format!(
        "acdgc_cycles_detected_total {}",
        sys.metrics.cycles_detected
    )));
    let _ = sys.metrics_for(ProcId(0));
}
