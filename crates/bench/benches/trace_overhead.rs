//! Structured-tracing overhead on a detection-dense micro-workload.
//!
//! Three variants of the same workload (a multi-process garbage ring with
//! a detection run to completion per iteration):
//!
//! * `disabled` — `TraceConfig::default()`: one bool test per would-be
//!   event, the cost every production run pays;
//! * `enabled`  — full recording of every family, Lamport-stamped;
//! * `filtered` — recording on, but only the detections family passes the
//!   [`TraceFilter`] (NSS / phases / quiescence suppressed before any
//!   event is built; phase histograms still fed).
//!
//! A second group measures time-series telemetry the same way: steady
//! rounds of a live anchored ring with [`SamplingConfig`] off (one bool
//! test per round — the production default) versus on at the densest
//! cadence (`sample_every = 1`, every round copies all ledgers and walks
//! every heap's stats into the rings).

use acdgc_model::{
    GcConfig, NetConfig, ProcId, SamplingConfig, SimDuration, TraceConfig, TraceFilter,
};
use acdgc_sim::{scenarios, System};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

/// CI smoke mode (`ACDGC_BENCH_SMOKE=1`): minimum samples, same variants —
/// proves the harness builds and runs without paying measurement time.
fn smoke() -> bool {
    std::env::var_os("ACDGC_BENCH_SMOKE").is_some()
}

/// The detection-dense fixture: a 6-process ring of garbage cycles, LGC'd
/// and snapshotted so detections can fire immediately.
fn ring_system(trace: TraceConfig) -> (System, acdgc_model::RefId) {
    let cfg = GcConfig {
        trace,
        ..GcConfig::manual()
    };
    let mut sys = System::new(6, cfg, NetConfig::instant(), 17);
    sys.check_safety = false;
    let ids: Vec<ProcId> = (0..6).map(ProcId).collect();
    let ring = scenarios::ring(&mut sys, &ids, 4, false);
    sys.advance(SimDuration::from_millis(1));
    for p in 0..6 {
        sys.run_lgc(ProcId(p));
    }
    sys.drain_network();
    sys.snapshot_all();
    (sys, ring.refs[0])
}

fn detections_only() -> TraceConfig {
    TraceConfig {
        enabled: true,
        filter: TraceFilter {
            detections: true,
            nss: false,
            phases: false,
            quiescence: false,
            mutator: false,
        },
        ..TraceConfig::default()
    }
}

fn bench_trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(if smoke() { 2 } else { 40 });
    let variants: [(&str, TraceConfig); 3] = [
        ("disabled", TraceConfig::default()),
        ("enabled", TraceConfig::on()),
        ("filtered", detections_only()),
    ];
    for (name, trace) in variants {
        group.bench_with_input(BenchmarkId::new("ring_detection", name), &(), |b, _| {
            // Detections consume their cycle, so each iteration gets a
            // fresh prepared system; criterion times only the detection
            // walk, where every hop records CDM events when tracing
            // allows it.
            b.iter_batched(
                || ring_system(trace),
                |(mut sys, scion)| {
                    sys.initiate_detection(ProcId(0), scion);
                    sys.drain_network();
                    assert!(sys.metrics.cycles_detected >= 1);
                    sys
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Steady-state fixture for the sampling group: a live anchored ring, so
/// every round does real LGC/snapshot/scan work but frees nothing.
fn live_ring_system(sampling: SamplingConfig) -> System {
    let cfg = GcConfig {
        sampling,
        ..GcConfig::manual()
    };
    let mut sys = System::new(6, cfg, NetConfig::instant(), 17);
    sys.check_safety = false;
    let ids: Vec<ProcId> = (0..6).map(ProcId).collect();
    scenarios::ring(&mut sys, &ids, 200, true);
    // Settle: first round pays one-time summarizer scratch allocation.
    sys.gc_round();
    sys
}

fn bench_sampling_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(if smoke() { 2 } else { 40 });
    let variants: [(&str, SamplingConfig); 2] = [
        ("sampling_off", SamplingConfig::default()),
        (
            // Densest cadence: every round copies ledgers and heap stats
            // into the rings — the worst case a user can configure.
            "sampling_on",
            SamplingConfig {
                enabled: true,
                sample_every: 1,
                capacity: 256,
            },
        ),
    ];
    for (name, sampling) in variants {
        let mut sys = live_ring_system(sampling);
        group.bench_with_input(BenchmarkId::new("gc_round", name), &(), |b, _| {
            b.iter(|| {
                sys.gc_round();
                black_box(sys.metrics.snapshots)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_trace_overhead, bench_sampling_overhead);
criterion_main!(benches);
