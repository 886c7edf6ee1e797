//! Live runtime-health dashboard for the threaded runtime: a mesh of
//! garbage rings collected concurrently while one worker is deliberately
//! wedged mid-run. The watchdog names the stalled worker — including the
//! events still sitting in its unflushed trace tail — and the run ends
//! with sparkline timelines from the periodic sampler, the terminal
//! health report, and a Prometheus-format metrics snapshot.
//!
//! Run with `cargo run --example health_dashboard`.

use acdgc::model::{
    GcConfig, NetConfig, ProcId, SamplingConfig, SimDuration, TraceConfig, WatchdogConfig,
};
use acdgc::obs::{counter_rates, group_by_series, sparkline, HealthReason, Trace, GAUGE_FIELDS};
use acdgc::sim::{merged_metrics, scenarios, threaded, System, ThreadedOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let cfg = GcConfig {
        quiet_sweeps: 3,
        trace: TraceConfig::on(),
        watchdog: WatchdogConfig {
            enabled: true,
            stall_after: SimDuration::from_millis(40),
            poll_every: SimDuration::from_millis(2),
            max_stall_reports: 4,
        },
        // Time-series telemetry: the watchdog's poll doubles as the sample
        // clock, so every healthy 5ms poll records one row per worker.
        sampling: SamplingConfig {
            enabled: true,
            sample_every: 1,
            capacity: 32,
        },
        ..GcConfig::manual()
    };

    // A 6-process mesh holding three distributed garbage rings: real
    // collection work for the workers before they can vote.
    let mut sys = System::new(6, cfg.clone(), NetConfig::instant(), 11);
    let ids: Vec<ProcId> = (0..6).map(ProcId).collect();
    for span in [3, 4, 5] {
        scenarios::ring(&mut sys, &ids, span, false);
    }

    // The fault: worker 4 goes quiet for ~120ms the first time it enters
    // an iteration with its vote held — long past `stall_after`, so the
    // watchdog must flag it while the rest of the mesh keeps sweeping.
    let wedged_once = AtomicBool::new(false);
    let sweep_hook: threaded::SweepHook = Arc::new(move |proc, sweep, voted| {
        // Pace the mesh like a real mutator: a little work per early sweep
        // stretches the collection window far past the 2ms sample cadence,
        // so the timelines below actually show the rings draining.
        if sweep < 15 {
            std::thread::sleep(Duration::from_millis(1));
        }
        if proc.0 == 4 && voted && !wedged_once.swap(true, Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(120));
        }
    });
    // Live dashboard: every report the monitor emits is rendered as it
    // happens, from the monitor thread.
    let on_report: threaded::ReportHook = Arc::new(|report| {
        println!("---- health report ({}) ----", report.reason.name());
        println!("{}", report.render());
    });

    let run = threaded::run_concurrent_collection_observed(
        sys.into_procs(),
        cfg,
        ThreadedOptions {
            sweep_hook: Some(sweep_hook),
            on_report: Some(on_report),
            deadline: Duration::from_secs(30),
            ..ThreadedOptions::default()
        },
    );

    let live: usize = run.procs.iter().map(|p| p.heap.stats().live_objects).sum();
    println!(
        "== run finished: quiescent={}, live={live} ==",
        run.quiescent
    );
    let stalls = run
        .health
        .iter()
        .filter(|r| r.reason == HealthReason::Stall)
        .count();
    let terminal = run.health.last().expect("watchdog terminal report");
    println!(
        "watchdog: {} report(s), {stalls} stall(s), terminal={}",
        run.health.len(),
        terminal.reason.name()
    );

    // Sparkline timelines from the sampler: one block per series (global
    // aggregate first, then each worker), gauges as sparklines and the
    // counters as a rate table — the same rendering `acdgc-report
    // --timeline` applies to exported artifacts.
    println!("\n== telemetry timelines ==");
    for (proc, rows) in group_by_series(&run.samples) {
        let label = match proc {
            None => "global".to_string(),
            Some(p) => format!("P{}", p.0),
        };
        let samples: Vec<_> = rows.iter().map(|(s, _)| *s).collect();
        println!("[{label}] {} samples:", samples.len());
        for (name, get) in GAUGE_FIELDS {
            let values: Vec<u64> = samples.iter().map(get).collect();
            let max = values.iter().copied().max().unwrap_or(0);
            println!("  {:<20} {:<32} max={max}", name, sparkline(&values, 32));
        }
        for r in counter_rates(&samples) {
            println!(
                "  {:<20} total={:<8} avg/s={:<12.1} peak/s={:.1}",
                r.name, r.total, r.per_sec_avg, r.per_sec_peak
            );
        }
    }

    // The same data a scrape endpoint would serve: merged per-process
    // counters plus the cross-worker phase-latency histograms.
    println!("\n== prometheus snapshot ==");
    let mut out = String::new();
    merged_metrics(&run.procs).to_prometheus_into(&mut out);
    Trace::collect(run.procs.iter().map(|p| &p.obs))
        .with_runtime("threaded")
        .merged_phases()
        .to_prometheus_into(&mut out);
    println!("{out}");
}
