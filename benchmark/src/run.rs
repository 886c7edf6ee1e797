//! One workload, one process: the run protocol.
//!
//! Untraced: set up `SETUPS` times (generate the plan, build the topology,
//! run one warm-up repetition with the safety oracle on), then repeat the
//! identical input with the oracle off until `--seconds` have been measured
//! (at least `MIN_REPS` repetitions). Every count must be bit-identical
//! across repetitions; timings are pooled. Traced: the same repetitions
//! driven phase by phase under spans, with per-layer probes.

use crate::api::{self, Metrics, NetStats, SimMicros};
use crate::driver::{Harness, Planted, ROUND_US, SLICE_US};
use crate::layers;
use crate::report::{object, RunResult, END_TO_END, PER_LAYER};
use crate::stats::{grouped_percentile, median, percentile, time_weighted_percentile};
use crate::trace::{Phase, Tracer, PHASES};
use crate::workloads::{Plan, Scale, Workload};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed repetitions, whatever `--seconds` says.
const MIN_REPS: usize = 5;
/// Traced repetitions at most (the span file grows with each).
const MAX_TRACED_REPS: usize = 3;
/// Samples that must lie beyond a by-count p90 for it to be reported.
const MIN_BEYOND_P90: usize = 10;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    /// Where the traced run writes `<workload>.spans.jsonl`.
    pub spans_dir: std::path::PathBuf,
}

/// Everything one repetition produced.
struct Rep {
    wall_s: f64,
    verify_ms: f64,
    quanta_ns: Vec<u64>,
    counts: Counts,
}

/// The part of a repetition that must repeat bit for bit.
#[derive(Clone, PartialEq)]
struct Counts {
    metrics: Metrics,
    net: NetStats,
    lags_us: Vec<SimMicros>,
    planted: Planted,
    structures_reclaimed: u64,
    quanta: u64,
    garbage_left: u64,
    violations: u64,
}

impl Counts {
    fn failed_ops(&self) -> u64 {
        self.garbage_left + self.violations
    }

    fn per_kobj(&self, n: u64) -> f64 {
        n as f64 * 1_000.0 / self.metrics.objects_reclaimed.max(1) as f64
    }
}

fn repetition(
    plan: &Plan,
    seed: u64,
    oracle: bool,
    tracer: Option<(&mut Tracer, u32)>,
    problems: &mut Vec<String>,
) -> Rep {
    let mut sim = plan.build_sim(seed);
    sim.set_check_safety(oracle);
    let (tracer, index) = match tracer {
        Some((t, i)) => (Some(t), i),
        None => (None, 0),
    };
    let mut h = Harness::new(sim, tracer);
    let prepared = plan.prepare(&mut h);
    h.open_rep(index);
    let started = Instant::now();
    plan.execute(&mut h, prepared);
    let wall_s = started.elapsed().as_secs_f64();
    h.close_rep();
    let d = h.finish();

    // Verification, outside the timed region.
    let started = Instant::now();
    let garbage_left = d.sim.garbage_left() as u64;
    if oracle {
        if let Err(e) = d.sim.check_invariants() {
            problems.push(format!("warm-up invariant broken: {e}"));
        }
        if d.sim.violations() > 0 {
            problems.push(format!(
                "warm-up oracle saw {} violations",
                d.sim.violations()
            ));
        }
    }
    let verify_ms = started.elapsed().as_secs_f64() * 1e3;
    let metrics = d.sim.metrics();
    if metrics.objects_reclaimed + garbage_left != d.planted.garbage_objects {
        problems.push(format!(
            "garbage accounting: planted {} != reclaimed {} + left {}",
            d.planted.garbage_objects, metrics.objects_reclaimed, garbage_left
        ));
    }
    Rep {
        wall_s,
        verify_ms,
        counts: Counts {
            metrics,
            net: d.sim.net_stats(),
            lags_us: d.lags_us,
            planted: d.planted,
            structures_reclaimed: d.structures_reclaimed,
            quanta: d.rounds,
            garbage_left,
            violations: d.sim.violations(),
        },
        quanta_ns: d.quanta_ns,
    }
}

fn check_same(reference: &Counts, rep: &Counts, what: &str, problems: &mut Vec<String>) {
    if reference != rep {
        problems.push(format!("{what}: counts differ from the first repetition"));
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

pub fn run(opts: &Options) -> RunResult {
    if opts.traced {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

fn run_untraced(opts: &Options) -> RunResult {
    let mut problems = Vec::new();
    let mut setups = Vec::new();
    let mut reference: Option<Counts> = None;
    let mut plan = None;
    for _ in 0..opts.scale.pick(SETUPS, 1) {
        let started = Instant::now();
        let p = Plan::generate(opts.workload, opts.seed, opts.scale);
        let rep = repetition(&p, opts.seed, true, None, &mut problems);
        setups.push(started.elapsed().as_secs_f64());
        match &reference {
            None => reference = Some(rep.counts),
            Some(r) => check_same(r, &rep.counts, "warm-up", &mut problems),
        }
        plan = Some(p);
    }
    let (plan, reference) = (plan.expect("one set-up"), reference.expect("one set-up"));

    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    while reps.len() < opts.scale.pick(MIN_REPS, 2)
        || started.elapsed().as_secs_f64() < opts.seconds
    {
        let rep = repetition(&plan, opts.seed, false, None, &mut problems);
        check_same(&reference, &rep.counts, "timed repetition", &mut problems);
        reps.push(rep);
    }

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let quanta: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.quanta_ns.iter().copied())
        .collect();
    // Pauses are weighted by their length (see `stats.rs`); the plain
    // by-count percentiles go to the detail object, the tail one only when
    // enough samples lie beyond it.
    let q50 = time_weighted_percentile(&quanta, 0.5);
    let q90 = time_weighted_percentile(&quanta, 0.9);
    let count50 = percentile(&quanta, 0.5, 0);
    let count90 = percentile(&quanta, 0.9, MIN_BEYOND_P90);
    if q50.is_none() {
        problems.push("no collector quantum was measured".to_string());
    }
    // Lags are seen at quantum granularity: one round (1 ms simulated) or
    // one slice.
    let quantum_us = if opts.workload.periodic() {
        SLICE_US
    } else {
        ROUND_US
    };
    let lag50 = grouped_percentile(&reference.lags_us, 0.5, quantum_us);
    let lag90 = grouped_percentile(&reference.lags_us, 0.9, quantum_us);
    if lag50.is_none() {
        problems.push("no structure was reclaimed".to_string());
    }
    let failed = reference.failed_ops();
    if failed > 0 {
        problems.push(format!("failed_ops = {failed}"));
    }
    let ms = |p: Option<crate::stats::Percentile>| p.map_or(0.0, |p| p.value / 1e6);
    let sim_ms = |p: Option<f64>| p.map_or(0.0, |us| us / 1e3);
    let c = &reference;
    let metrics = vec![
        ("setup_s", median(&setups)),
        ("run_wall_s", median(&walls)),
        ("gc_quantum_p50_ms", ms(q50)),
        ("gc_quantum_p90_ms", ms(q90)),
        ("reclaim_lag_p50_sim_ms", sim_ms(lag50)),
        ("reclaim_lag_p90_sim_ms", sim_ms(lag90)),
        ("gc_msgs_per_kobj", c.per_kobj(c.net.gc_sent)),
        ("gc_bytes_per_kobj", c.per_kobj(c.net.gc_bytes_sent)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    debug_assert_eq!(metrics.len(), END_TO_END.len());
    let detail = object(vec![
        ("workload", opts.workload.name().into()),
        ("seed", opts.seed.into()),
        ("traced", false.into()),
        ("nproc", nproc().into()),
        ("repetitions", (reps.len() as u64).into()),
        ("setups", (setups.len() as u64).into()),
        ("gc_quantum_p50_by_count_ms", ms(count50).into()),
        (
            "gc_quantum_p90_by_count_ms",
            count90.map_or(serde_json::Value::Null, |p| (p.value / 1e6).into()),
        ),
        ("quantum_samples", (quanta.len() as u64).into()),
        (
            "quantum_beyond_p90",
            (q90.map_or(0, |p| p.beyond) as u64).into(),
        ),
        ("quanta_per_repetition", c.quanta.into()),
        ("lag_samples", (c.lags_us.len() as u64).into()),
        ("planted_structures", c.planted.structures.into()),
        ("planted_cycles", c.planted.cycles.into()),
        ("garbage_objects", c.planted.garbage_objects.into()),
        ("cdms_per_kobj", c.per_kobj(c.metrics.cdms_delivered).into()),
        (
            "detections_per_kobj",
            c.per_kobj(c.metrics.detections_started).into(),
        ),
        ("failed_ops", failed.into()),
        ("counters", api::counters_json(&c.metrics, &c.net)),
    ]);
    let runs = (setups.len() + reps.len()) as u64;
    RunResult {
        correct: problems.is_empty(),
        attempted: c.planted.garbage_objects * runs,
        failed: failed * runs,
        metrics,
        detail,
        problems,
    }
}

fn run_traced(opts: &Options) -> RunResult {
    let mut problems = Vec::new();
    let plan = Plan::generate(opts.workload, opts.seed, opts.scale);

    // Untraced repetitions of the same input: the counters the traced run
    // must reproduce, and the wall time its overhead is measured against.
    let untraced: Vec<Rep> = (0..2)
        .map(|_| repetition(&plan, opts.seed, false, None, &mut problems))
        .collect();
    let reference = untraced[0].counts.clone();
    check_same(
        &reference,
        &untraced[1].counts,
        "untraced repetition",
        &mut problems,
    );

    let mut tracer = Tracer::new(opts.workload.periodic());
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    while reps.len() < 2
        || (reps.len() < MAX_TRACED_REPS && started.elapsed().as_secs_f64() < opts.seconds)
    {
        let index = reps.len() as u32;
        let rep = repetition(
            &plan,
            opts.seed,
            false,
            Some((&mut tracer, index)),
            &mut problems,
        );
        check_same(&reference, &rep.counts, "traced repetition", &mut problems);
        reps.push(rep);
    }
    let procs = plan.build_sim(opts.seed).num_procs();
    layers::probe_net(&mut tracer.accs, procs, tracer.peak_in_flight, opts.seed);
    layers::probe_threaded(&mut tracer.accs, opts.seed);

    let spans_path = opts
        .spans_dir
        .join(format!("{}.spans.jsonl", opts.workload.name()));
    if let Err(e) = tracer.spans.write_jsonl(&spans_path) {
        problems.push(format!("writing {}: {e}", spans_path.display()));
    }

    let c = &reference;
    let m = &c.metrics;
    let (phase_ns, total_ns) = tracer.phase_ns();
    let share = |p: Phase| 100.0 * phase_ns[p as usize] as f64 / total_ns.max(1) as f64;
    let traced_wall = total_ns as f64 / 1e9 / reps.len() as f64;
    let untraced_wall = median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let verify: Vec<f64> = reps.iter().map(|r| r.verify_ms).collect();
    let failed = c.failed_ops();
    if failed > 0 {
        problems.push(format!("failed_ops = {failed}"));
    }

    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("cdms_per_kobj", c.per_kobj(m.cdms_delivered)),
        ("detections_per_kobj", c.per_kobj(m.detections_started)),
        ("failed_ops", failed as f64),
        ("sim.rounds", c.quanta as f64),
        ("sim.step_ns", ratio(tracer.step_ns, tracer.steps)),
        ("sim.oracle_ms", median(&verify)),
        ("heap.freed_objs", m.objects_reclaimed as f64),
        (
            "snapshot.summary_scions",
            ratio(m.summary_scions, m.snapshots),
        ),
        (
            "snapshot.summary_stubs",
            ratio(m.summary_stubs, m.snapshots),
        ),
        ("core.cdm_bytes_max", m.max_cdm_bytes as f64),
        (
            "core.deliveries_per_detection_mean",
            ratio(m.cdms_delivered, m.detections_started),
        ),
        (
            "core.detection_yield",
            if c.planted.cycles == 0 {
                0.0
            } else {
                ratio(c.structures_reclaimed, m.detections_started)
            },
        ),
        (
            "core.verdict_dup",
            ratio(m.cycles_detected, c.planted.cycles),
        ),
        ("core.aborted_ic", m.detections_aborted_ic as f64),
        (
            "core.terminated_budget",
            m.detections_terminated_budget as f64,
        ),
        (
            "core.terminated_no_new_info",
            m.detections_terminated_no_new_info as f64,
        ),
        (
            "core.terminated_local",
            m.detections_terminated_local as f64,
        ),
        (
            "remoting.nss_bytes_per_msg",
            ratio(tracer.nss_bytes, tracer.nss_msgs),
        ),
        ("remoting.nss_sent", m.nss_sent as f64),
        (
            "remoting.scions_freed_per_nss",
            ratio(m.scions_reclaimed_acyclic, m.nss_applied),
        ),
        ("net.peak_in_flight", tracer.peak_in_flight as f64),
        ("net.gc_sent", c.net.gc_sent as f64),
        ("net.gc_bytes", c.net.gc_bytes_sent as f64),
        ("net.dropped", c.net.dropped as f64),
        ("net.duplicated", c.net.duplicated as f64),
        (
            "bench.trace_overhead_pct",
            100.0 * (traced_wall - untraced_wall) / untraced_wall,
        ),
    ];
    for phase in PHASES {
        metrics.push((phase.metric(), share(phase)));
    }
    // Everything else is a probe ratio accumulated under its final name.
    for spec in PER_LAYER {
        if !metrics.iter().any(|(n, _)| *n == spec.name) {
            let scale = if spec.unit == "%" { 100.0 } else { 1.0 };
            metrics.push((spec.name, scale * tracer.accs.ratio(spec.name)));
        }
    }

    let detail = object(vec![
        ("workload", opts.workload.name().into()),
        ("seed", opts.seed.into()),
        ("traced", true.into()),
        ("nproc", nproc().into()),
        ("repetitions", (reps.len() as u64).into()),
        ("spans", (tracer.spans.spans().len() as u64).into()),
        ("spans_file", spans_path.display().to_string().into()),
        ("traced_wall_s", traced_wall.into()),
        ("untraced_wall_s", untraced_wall.into()),
        ("planted_cycles", c.planted.cycles.into()),
        ("counters", api::counters_json(&c.metrics, &c.net)),
    ]);
    let runs = (untraced.len() + reps.len()) as u64;
    RunResult {
        correct: problems.is_empty(),
        attempted: c.planted.garbage_objects * runs,
        failed: failed * runs,
        metrics,
        detail,
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ALL;

    fn smoke(workload: Workload, traced: bool) -> RunResult {
        let spans_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out/test").into();
        let started = Instant::now();
        let result = run(&Options {
            workload,
            seed: 4,
            seconds: 0.0,
            traced,
            scale: Scale::Smoke,
            spans_dir,
        });
        // The smoke scale runs under 3 s per workload in a release build;
        // an unoptimized test build sharing the host gets some slack.
        let limit = if cfg!(debug_assertions) { 10.0 } else { 3.0 };
        assert!(
            started.elapsed().as_secs_f64() < limit,
            "{}",
            workload.name()
        );
        assert!(result.correct, "{}: {:?}", workload.name(), result.problems);
        assert_eq!(result.failed, 0);
        assert!(result.attempted > 0);
        result
    }

    #[test]
    fn smoke_runs_report_every_end_to_end_metric_and_none_is_zero() {
        for w in ALL {
            let result = smoke(w, false);
            for spec in END_TO_END {
                let value = result.metrics.iter().find(|(n, _)| *n == spec.name);
                assert!(
                    value.is_some_and(|&(_, v)| v > 0.0 && v.is_finite()),
                    "{} {}",
                    w.name(),
                    spec.name
                );
            }
            assert_eq!(result.metrics.len(), END_TO_END.len());
        }
    }

    #[test]
    fn smoke_traced_runs_reproduce_the_untraced_counters_and_name_every_layer_metric() {
        for w in ALL {
            // `correct` covers traced == untraced counters.
            let result = smoke(w, true);
            let get = |name: &str| {
                result
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("{} lacks {name}", w.name()))
                    .1
            };
            for spec in PER_LAYER {
                assert!(get(spec.name).is_finite(), "{} {}", w.name(), spec.name);
            }
            assert_eq!(result.metrics.len(), PER_LAYER.len());
            let shares: f64 = PER_LAYER
                .iter()
                .filter(|s| s.name.starts_with("sim.") && s.name.ends_with("_share"))
                .map(|s| get(s.name))
                .sum();
            assert!(shares > 50.0 && shares <= 100.0, "{}: {shares}", w.name());
            // Each workload exercises the faults and layers it was built for.
            let faults = get("net.dropped") > 0.0 && get("net.duplicated") > 0.0;
            assert_eq!(faults, w == Workload::ChurnLossy);
            assert_eq!(get("cdms_per_kobj") == 0.0, w == Workload::BigHeap);
            assert!(get("heap.mark_ns_per_obj") > 0.0 && get("net.send_ns") > 0.0);
            assert_eq!(get("sim.step_ns") > 0.0, w.periodic());
            let spans = std::fs::read_to_string(format!(
                "{}/out/test/{}.spans.jsonl",
                env!("CARGO_MANIFEST_DIR"),
                w.name()
            ))
            .unwrap();
            assert!(spans.lines().count() > 10 && spans.starts_with("{\"id\":0,\"parent\":null"));
        }
    }
}
