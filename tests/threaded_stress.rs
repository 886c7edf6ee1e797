//! Stress tests for the threaded runtime: inboxes squeezed to a single
//! slot under heavy CDM fan-out, plus a seeded drop/duplicate injector on
//! every send. Together they exercise the two failure layers the runtime
//! must absorb — backpressure overflow and injected network faults — and
//! check the quiescence protocol never votes the run finished while
//! garbage is still uncollected.
//!
//! The runs execute with structured tracing enabled. On any assertion
//! failure the merged trace is dumped as JSON Lines and the artifact path
//! is printed, so a failing seed ships its own forensics. Setting
//! `ACDGC_TRACE_ARTIFACT=<dir>` exports the trace even on success (and
//! round-trips every line through the vendored JSON parser) — scripts/ci.sh
//! uses this to gate the JSONL schema.

use acdgc::model::{
    GcConfig, NetConfig, ProcId, SamplingConfig, SimDuration, TraceConfig, WatchdogConfig,
};
use acdgc::obs::{HealthReport, Sample, Trace};
use acdgc::sim::{merged_metrics, scenarios, threaded, Process, System, ThreadedOptions};
use std::path::PathBuf;
use std::time::Duration;

/// Tight retry pacing: threaded `SimTime` ticks are wall-clock
/// microseconds, so failed detections are re-initiated within hundreds of
/// microseconds and the exponential backoff caps at 5ms. Causal tracing is
/// on (events Lamport-stamped, clocks piggybacked on every channel send)
/// so every failure comes with a forensic artifact carrying a sound
/// happens-before order — and so the CI artifact exercises `--check`'s
/// causal gate and the `--perfetto` export.
fn stress_cfg(channel_capacity: usize) -> GcConfig {
    GcConfig {
        candidate_backoff: SimDuration::from_micros(300),
        candidate_backoff_max: SimDuration::from_millis(5),
        channel_capacity,
        trace: TraceConfig::on(),
        // Time-series telemetry rides in the same artifact: the monitor
        // thread samples every poll into small rings, so long stress runs
        // exercise decimation and `--check`'s sample validation for free.
        sampling: SamplingConfig {
            enabled: true,
            sample_every: 1,
            capacity: 64,
        },
        // Tight monitor poll so even a fast run yields a dense series.
        watchdog: WatchdogConfig {
            poll_every: SimDuration::from_millis(2),
            ..WatchdogConfig::default()
        },
        ..GcConfig::manual()
    }
}

/// Dump the merged trace of `procs` under `name` and return the path.
/// Artifacts go to `$ACDGC_TRACE_ARTIFACT` when set, else to
/// `target/trace-artifacts/`.
fn dump_trace(
    procs: &[Process],
    health: &[HealthReport],
    samples: &[(Sample, usize)],
    name: &str,
) -> PathBuf {
    let dir = std::env::var_os("ACDGC_TRACE_ARTIFACT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target").join("trace-artifacts"));
    let path = dir.join(format!("{name}.jsonl"));
    let trace = Trace::collect(procs.iter().map(|p| &p.obs))
        .with_runtime("threaded")
        .with_samples(samples.to_vec());
    trace.dump_jsonl(&path).expect("write trace artifact");
    // Watchdog health reports ride in the same artifact so `acdgc-report`
    // can render run health next to the event timeline.
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("reopen trace artifact");
    for report in health {
        let line = serde_json::to_string(&report.to_json()).expect("serialize health report");
        writeln!(f, "{line}").expect("append health report");
    }
    path
}

/// Assert `cond`; on failure dump the trace first so the panic message
/// carries the artifact path.
macro_rules! check {
    ($run:expr, $name:expr, $cond:expr, $($msg:tt)+) => {
        if !$cond {
            let path = dump_trace(&$run.procs, &$run.health, &$run.samples, $name);
            panic!("{} — trace kept at {}", format!($($msg)+), path.display());
        }
    };
}

/// When `ACDGC_TRACE_ARTIFACT` is set, export the trace on success too and
/// verify the JSONL schema round-trips through the JSON parser.
fn export_and_verify_jsonl(
    procs: &[Process],
    health: &[HealthReport],
    samples: &[(Sample, usize)],
    name: &str,
) {
    if std::env::var_os("ACDGC_TRACE_ARTIFACT").is_none() {
        return;
    }
    let path = dump_trace(procs, health, samples, name);
    let text = std::fs::read_to_string(&path).expect("read back trace artifact");
    let mut lines = 0usize;
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).unwrap_or_else(|e| {
            panic!("unparseable JSONL line in {}: {e}: {line}", path.display())
        });
        let has_type = matches!(&v, serde_json::Value::Object(m) if m.get("type").is_some());
        assert!(
            has_type,
            "every trace line carries a type discriminant: {line}"
        );
        lines += 1;
    }
    assert!(
        lines >= 2,
        "artifact has a meta line and at least one event"
    );
    println!(
        "[trace artifact verified: {} ({lines} lines)]",
        path.display()
    );
}

/// `rings` interlocking all-garbage cycles across `procs` processes. Each
/// ring visits the processes in a different rotation and direction, so
/// every process owns scions from several independent cycles and every
/// detection walk crosses every process — maximal CDM fan-out.
fn build_mesh(procs: usize, rings: usize, objs: usize, seed: u64) -> System {
    let mut sys = System::new(procs, GcConfig::manual(), NetConfig::instant(), seed);
    let ids: Vec<ProcId> = (0..procs as u16).map(ProcId).collect();
    for r in 0..rings {
        let mut order = ids.clone();
        order.rotate_left(r % procs);
        if r % 2 == 1 {
            order.reverse();
        }
        scenarios::ring(&mut sys, &order, objs, false);
    }
    assert!(sys.oracle_live().is_empty(), "mesh must be all garbage");
    sys
}

#[test]
fn capacity_one_mesh_collects_despite_overflow_and_faults() {
    let sys = build_mesh(8, 4, 2, 7);
    assert_eq!(sys.total_live_objects(), 64);
    let net = NetConfig {
        gc_drop_probability: 0.15,
        gc_duplicate_probability: 0.05,
        ..NetConfig::instant()
    };
    let run = threaded::run_concurrent_collection_observed(
        sys.into_procs(),
        stress_cfg(1),
        ThreadedOptions {
            net,
            seed: 7,
            deadline: Duration::from_secs(60),
            ..ThreadedOptions::default()
        },
    );
    let stats = merged_metrics(&run.procs);
    let name = "capacity_one_mesh";
    let live: usize = run.procs.iter().map(|p| p.heap.stats().live_objects).sum();
    check!(
        run,
        name,
        live == 0,
        "all garbage reclaimed despite capacity-1 inboxes: live={live} cdms_dropped={} nss_dropped={}",
        stats.cdms_dropped,
        stats.nss_dropped
    );
    check!(
        run,
        name,
        run.quiescent,
        "run must end via quiescence votes, not the deadline backstop"
    );
    // The point of the stress: losses really happened and were absorbed.
    check!(
        run,
        name,
        stats.nss_dropped > 0,
        "capacity-1 inboxes under an 8-proc NSS barrage must overflow"
    );
    check!(
        run,
        name,
        stats.cdms_dropped > 0,
        "15% injected drop over ring-spanning CDM walks must lose some"
    );
    // The watchdog always closes a run with one terminal report.
    let terminal = run.health.last().expect("terminal health report");
    assert_eq!(terminal.reason, acdgc::obs::HealthReason::Quiescent);
    assert!(terminal.stalled().is_empty(), "no worker stalled");
    export_and_verify_jsonl(&run.procs, &run.health, &run.samples, name);
}

#[test]
fn quiescence_is_never_premature_across_seed_matrix() {
    let mut total_retries = 0u64;
    let mut total_faults = 0u64;
    for seed in [11u64, 23, 47, 89, 131] {
        let sys = build_mesh(8, 3, 2, seed);
        let expected = sys.total_live_objects();
        let net = NetConfig {
            gc_drop_probability: 0.3,
            gc_duplicate_probability: 0.1,
            ..NetConfig::instant()
        };
        let run = threaded::run_concurrent_collection_observed(
            sys.into_procs(),
            stress_cfg(1),
            ThreadedOptions {
                net,
                seed,
                deadline: Duration::from_secs(60),
                ..ThreadedOptions::default()
            },
        );
        let stats = merged_metrics(&run.procs);
        let name = format!("seed_matrix_{seed}");
        let live: usize = run.procs.iter().map(|p| p.heap.stats().live_objects).sum();
        check!(
            run,
            &name,
            run.quiescent,
            "seed {seed}: heavy loss may delay quiescence but must not prevent it"
        );
        check!(
            run,
            &name,
            live == 0,
            "seed {seed}: quiescence declared with {live}/{expected} objects \
             still uncollected — the vote fired before drop-delayed work finished"
        );
        check!(
            run,
            &name,
            stats.votes_cast >= 8,
            "seed {seed}: a quiescent stop needs every worker's vote"
        );
        total_retries += stats.nss_retries;
        total_faults += stats.faults_injected;
        if seed == 11 {
            export_and_verify_jsonl(&run.procs, &run.health, &run.samples, &name);
        }
    }
    // Across the whole matrix the fault model must actually have fired and
    // the retry machinery must actually have recovered lost NSS traffic.
    assert!(total_faults > 0, "seeded injector never dropped a message");
    assert!(
        total_retries > 0,
        "30% loss across 5 runs without a single NSS retransmission"
    );
}

/// Retries never violate causal order: under 30% drop every lost CDM is
/// re-initiated and every unacked NSS retransmitted, yet the merged trace
/// must still satisfy both Lamport invariants — per-process stamps
/// strictly increase in merge order, and every delivery stamps above the
/// one send it names. A retry that reused a stale clock, or a record made
/// outside the process lock, would fail here.
#[test]
fn heavy_drop_retries_never_violate_causal_order() {
    let sys = build_mesh(6, 3, 2, 47);
    let net = NetConfig {
        gc_drop_probability: 0.3,
        gc_duplicate_probability: 0.1,
        ..NetConfig::instant()
    };
    let run = threaded::run_concurrent_collection_observed(
        sys.into_procs(),
        stress_cfg(1),
        ThreadedOptions {
            net,
            seed: 47,
            deadline: Duration::from_secs(60),
            ..ThreadedOptions::default()
        },
    );
    let name = "heavy_drop_causal";
    let live: usize = run.procs.iter().map(|p| p.heap.stats().live_objects).sum();
    check!(run, name, live == 0, "garbage must still be collected");
    check!(
        run,
        name,
        merged_metrics(&run.procs).faults_injected > 0,
        "a 30% injector over a 6-proc mesh must drop something"
    );

    let trace = Trace::collect(run.procs.iter().map(|p| &p.obs)).with_runtime("threaded");
    check!(
        run,
        name,
        trace.events.iter().any(|r| r.lamport > 0),
        "causal tracing must stamp events"
    );
    // Both invariants are truncation-stable, so this holds even if the
    // rings overwrote early events.
    let causal = acdgc::obs::check_causal(&trace).violations;
    check!(
        run,
        name,
        causal.is_empty(),
        "retries/duplicates broke happens-before: {causal:?}"
    );
    // On a complete trace, every reconstructed detection path must also
    // show strictly increasing stamps hop by hop (the cross-process
    // generalization of check_hops_increase).
    if trace.overwritten == 0 {
        for id in trace.detection_ids() {
            let path = trace.detection(id);
            if let Err(e) = path.check_lamport_increases() {
                let p = dump_trace(&run.procs, &run.health, &run.samples, name);
                panic!("{e}\n{}\n— trace kept at {}", path.render(), p.display());
            }
        }
    }
}
