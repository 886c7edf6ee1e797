//! Concurrent-mutator stress matrix for the threaded runtime: seeded
//! mutator threads allocate, export, invoke and drop references *while*
//! the collector workers sweep, through the same per-process locks.
//!
//! Ground truth comes from the shadow-replay oracle: the pre-run object
//! graph is captured into a [`ShadowGraph`], the run's serialized
//! mutation log is replayed onto it, and the resulting reachable set is
//! compared object-for-object against the final heaps. That checks both
//! directions at once —
//!
//! * **safety**: no live object (by the mutated graph) was ever deleted,
//!   and no scion of a mutator-held reference vanished (the
//!   `mutator_missing_scions` counter is a tripwire wired into the pin
//!   handshake itself);
//! * **completeness**: every object the mutated graph proves dead —
//!   including distributed cycles the mutator built and then severed —
//!   is reclaimed before the quiescence barrier closes.
//!
//! The matrix crosses drop-heavy op mixes (≥30% of operations destroy
//! structure) with mutation pacing (flat-out and rate-paced), under both
//! a clean network and an injected-fault one. Causal tracing is on, so a
//! failing seed ships a forensic artifact, and every passing run gates
//! the Lamport discipline: mutator events share the workers' per-process
//! clocks and must not break happens-before.

use acdgc::model::{
    GcConfig, MutatorConfig, NetConfig, ObjId, ProcId, SamplingConfig, SimDuration, TraceConfig,
    WatchdogConfig,
};
use acdgc::obs::{HealthReport, Sample, Trace};
use acdgc::sim::{global_live_procs, scenarios, threaded, Process, ShadowGraph, System};
use acdgc::sim::{ThreadedOptions, ThreadedRun};
use std::path::PathBuf;
use std::time::Duration;

/// Threaded config tuned like the stress suite (tight backoff, tracing,
/// telemetry sampling) with the concurrent mutator switched on.
fn mutator_cfg(mutator: MutatorConfig) -> GcConfig {
    GcConfig {
        candidate_backoff: SimDuration::from_micros(300),
        candidate_backoff_max: SimDuration::from_millis(5),
        trace: TraceConfig::on(),
        sampling: SamplingConfig {
            enabled: true,
            sample_every: 1,
            capacity: 64,
        },
        watchdog: WatchdogConfig {
            poll_every: SimDuration::from_millis(2),
            ..WatchdogConfig::default()
        },
        mutator,
        ..GcConfig::manual()
    }
}

/// Mixed topology: live structure the collector must preserve plus
/// all-garbage cycles it must reclaim, before the mutator adds its own.
fn build_mixed(procs: usize, seed: u64) -> System {
    let mut sys = System::new(procs, GcConfig::manual(), NetConfig::instant(), seed);
    let ids: Vec<ProcId> = (0..procs as u16).map(ProcId).collect();
    // Two interlocking garbage rings (opposite orientations)...
    scenarios::ring(&mut sys, &ids, 2, false);
    let mut rev = ids.clone();
    rev.reverse();
    scenarios::ring(&mut sys, &rev, 2, false);
    // ...and one anchored ring that must survive the whole run.
    scenarios::ring(&mut sys, &ids, 2, true);
    sys
}

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

/// Name what outlived quiescence: every surviving object `live` calls
/// garbage, each scion protecting it, and for each such scion the
/// `NewSetStubs` state of both ends — the owner's toward the holder and
/// the holder's toward the owner.
fn leak_report(procs: &[Process], live: impl Fn(ObjId) -> bool) -> String {
    let mut report = String::new();
    for owner in procs {
        let leaked = owner
            .heap
            .iter()
            .filter_map(|(slot, _)| owner.heap.id_of_slot(slot))
            .filter(|&obj| !live(obj));
        for obj in leaked {
            report += &format!("  leaked {obj:?}\n");
            for s in owner.tables.scions().filter(|s| s.target == obj) {
                let holder = &procs[s.from_proc.index()];
                report += &format!(
                    "    scion {} from {} pinned {} created_at {:?}\n      \
                     owner  {:?}\n      holder {:?}\n",
                    s.ref_id,
                    s.from_proc,
                    s.pinned,
                    s.created_at,
                    owner.tables.nss_peer_state(s.from_proc),
                    holder.tables.nss_peer_state(owner.proc()),
                );
            }
        }
    }
    report
}

macro_rules! check {
    ($run:expr, $name:expr, $cond:expr, $($msg:tt)+) => {
        if !$cond {
            let path = dump_trace(&$run.procs, &$run.health, &$run.samples, $name);
            panic!("{} — trace kept at {}", format!($($msg)+), path.display());
        }
    };
}

/// Run one matrix cell and assert safety, completeness, quiescent
/// termination, and causal cleanliness against the shadow oracle.
fn run_cell(name: &str, seed: u64, mutator: MutatorConfig, net: NetConfig) -> ThreadedRun {
    let sys = build_mixed(6, seed);
    let procs = sys.into_procs();
    let mut shadow = ShadowGraph::shadow_of(&procs);

    let run = threaded::run_concurrent_collection_observed(
        procs,
        mutator_cfg(mutator),
        ThreadedOptions {
            net,
            seed,
            deadline: Duration::from_secs(60),
            ..ThreadedOptions::default()
        },
    );

    // Terminated by the vote barrier, not the wall-clock backstop: the
    // barrier may not close while the mutator is still running (drained
    // mutators are a precondition) nor while its garbage is uncollected.
    check!(
        run,
        name,
        run.quiescent,
        "{name}: run must end quiescent, not by deadline"
    );

    // Safety tripwire wired into the mutator itself: a pin or invoke that
    // found its scion missing means the collector deleted a live
    // reference out from under a running mutator.
    let m = threaded::merged_metrics(&run.procs);
    let missing = m.invoke_on_missing_scion;
    check!(
        run,
        name,
        missing == 0,
        "{name}: {missing} live scion(s) vanished under the mutator"
    );

    // Shadow replay: pre-run graph + serialized mutation log = ground
    // truth for the final heaps.
    shadow.apply_log(&run.mutation_log);
    let expected = shadow.live();
    for &obj in &expected {
        check!(
            run,
            name,
            run.procs[obj.proc.index()].heap.contains(obj),
            "{name}: live object {obj:?} was deleted (safety violation)"
        );
    }
    let live_total: usize = run.procs.iter().map(|p| p.heap.stats().live_objects).sum();
    check!(
        run,
        name,
        live_total == expected.len(),
        "{name}: {live_total} objects survive but the mutated graph proves \
         {} live — garbage outlived quiescence:\n{}",
        expected.len(),
        leak_report(&run.procs, |obj| expected.contains(&obj))
    );
    let actual = global_live_procs(&run.procs);
    check!(
        run,
        name,
        actual.len() == expected.len() && expected.iter().all(|o| actual.contains(o)),
        "{name}: final reachable set diverged from shadow replay"
    );

    // The mutator must actually have run and destroyed structure.
    check!(
        run,
        name,
        m.mutator_ops() > 0,
        "{name}: mutator never performed an operation"
    );
    check!(
        run,
        name,
        m.mutator_ref_drops + m.mutator_root_drops > 0,
        "{name}: drop-heavy mix produced no drops"
    );

    // Causal cleanliness: mutator events tick the same per-process
    // Lamport clocks as the collector; happens-before must survive.
    let trace = Trace::collect(run.procs.iter().map(|p| &p.obs)).with_runtime("threaded");
    check!(
        run,
        name,
        trace.events.iter().any(|r| r.lamport > 0),
        "{name}: tracing must stamp events"
    );
    let causal = acdgc::obs::check_causal(&trace).violations;
    check!(
        run,
        name,
        causal.is_empty(),
        "{name}: mutator broke happens-before: {causal:?}"
    );
    run
}

/// 30%-drop mix, flat out (no pacing): maximal mutator/collector
/// interleaving pressure.
fn drop30_flat() -> MutatorConfig {
    MutatorConfig {
        enabled: true,
        threads: 2,
        ops_per_thread: 250,
        pace: SimDuration::ZERO,
        allocate_weight: 2,
        export_weight: 3,
        invoke_weight: 2,
        drop_weight: 3,
    }
}

/// 40%-drop mix, rate-paced: slower churn, longer windows for NSS and
/// detections to race half-built structure.
fn drop40_paced() -> MutatorConfig {
    MutatorConfig {
        enabled: true,
        threads: 2,
        ops_per_thread: 150,
        pace: SimDuration::from_micros(25),
        allocate_weight: 2,
        export_weight: 2,
        invoke_weight: 2,
        drop_weight: 4,
    }
}

#[test]
fn mutator_matrix_clean_network() {
    for seed in [3u64, 17, 71] {
        for (mix, mix_name) in [(drop30_flat(), "drop30"), (drop40_paced(), "drop40")] {
            let name = format!("mutator_{mix_name}_seed{seed}");
            run_cell(&name, seed, mix, NetConfig::instant());
        }
    }
}

#[test]
fn mutator_matrix_with_injected_faults() {
    // Collector traffic dropped and duplicated while the mutator churns:
    // NSS retry and CDM re-initiation must still converge to the mutated
    // graph's truth, and the quiescence barrier must still hold off until
    // they have.
    let net = NetConfig {
        gc_drop_probability: 0.15,
        gc_duplicate_probability: 0.05,
        ..NetConfig::instant()
    };
    for seed in [29u64, 53] {
        let name = format!("mutator_faults_seed{seed}");
        let run = run_cell(&name, seed, drop30_flat(), net.clone());
        check!(
            run,
            &name,
            threaded::merged_metrics(&run.procs).faults_injected > 0,
            "{name}: fault injector never fired"
        );
    }
}

#[test]
fn mutator_trace_carries_ops_and_gauges() {
    let run = run_cell(
        "mutator_trace_probe",
        101,
        drop30_flat(),
        NetConfig::instant(),
    );
    // MutatorOp events landed in the merged trace, Lamport-stamped.
    let trace = Trace::collect(run.procs.iter().map(|p| &p.obs)).with_runtime("threaded");
    let mutator_events = trace
        .events
        .iter()
        .filter(|r| r.event.kind() == "mutator_op")
        .count();
    check!(
        run,
        "mutator_trace_probe",
        mutator_events > 0,
        "mutator ops must be traced ({mutator_events} found)"
    );
    // The time-series sampler picked up the mutator counter.
    let saw_mutator_ops = run
        .samples
        .iter()
        .any(|(s, _)| s.proc.is_none() && s.mutator_ops > 0);
    check!(
        run,
        "mutator_trace_probe",
        saw_mutator_ops,
        "global samples must carry the mutator_ops counter"
    );
}
