//! Detection forensics on the paper's Figure 4: run the §3.1 worked
//! example with structured tracing enabled, then reconstruct — from the
//! trace alone — the per-process event timeline, every detected cycle's
//! cross-process CDM message path, and the per-phase latency histograms.
//! The full trace is also exported as JSON Lines.
//!
//! Tracing runs with `TraceConfig::on()`, so every event carries a
//! Lamport stamp and the trace has a sound happens-before order: the
//! example also prints the causal *critical-path waterfalls* — each
//! detection's end-to-end latency attributed to transit/handling
//! segments (see "Causal order & critical path" in docs/OBSERVABILITY.md). The
//! same analysis runs offline via `acdgc-report --critical-path`, and
//! `--perfetto OUT.json` exports the trace for the Perfetto UI with flow
//! arrows along every CDM hop.
//!
//! This example covers *event* forensics; for the continuous time-series
//! side (periodic gauge/counter sampling, sparkline timelines, rate
//! derivation) see `examples/health_dashboard.rs` and the `--timeline`
//! mode of `acdgc-report`, which renders the `sample` lines exported
//! alongside these events.
//!
//! Run with `cargo run --example trace_timeline`.

use acdgc::model::{GcConfig, NetConfig, ProcId, SimDuration, TraceConfig, WatchdogConfig};
use acdgc::obs::Phase;
use acdgc::sim::{scenarios, threaded, System, ThreadedOptions};
use std::path::Path;
use std::time::Duration;

fn main() {
    // The worked example uses the strict step 15 rule (slack 0) so the
    // trace matches the paper's 26-step narration.
    let cfg = GcConfig {
        trace: TraceConfig::on(),
        nongrowth_slack: 0,
        ..GcConfig::manual()
    };
    let mut sys = System::new(6, cfg, NetConfig::instant(), 2);
    let fig = scenarios::fig4(&mut sys);
    sys.advance(SimDuration::from_millis(1));
    for p in 0..6 {
        sys.take_snapshot(ProcId(p));
    }
    sys.initiate_detection(fig.p2, fig.r_df);
    sys.drain_network();
    sys.collect_to_fixpoint(25);
    assert_eq!(sys.total_live_objects(), 0, "both cycles reclaimed");

    let trace = sys.trace();
    println!(
        "== trace: {} events, {} overwritten ==",
        trace.events.len(),
        trace.overwritten
    );

    // Per-process timeline: every event in global (seq) order, indented
    // into one column per process.
    println!("\n== per-process timeline (seq · proc · event) ==");
    for rec in &trace.events {
        let indent = "    ".repeat(rec.proc.index());
        println!(
            "{:>5} {}{} {}",
            rec.seq,
            indent,
            rec.proc,
            serde_json::to_string(&rec.to_json()).unwrap()
        );
    }

    // Forensics: the full cross-process message path of each detection
    // that concluded a cycle.
    println!("\n== detected cycles: reconstructed CDM paths ==");
    for id in trace.detected_cycles() {
        let path = trace.detection(id);
        println!("{}", path.render());
        let b = path.balance();
        println!(
            "  procs={:?} sent={} delivered={} forward_steps={} terminals={} hops_ok={}",
            path.procs(),
            b.sent,
            b.delivered,
            b.forward_steps,
            b.terminals,
            path.check_hops_increase().is_ok(),
        );
    }

    // Where the time went, process by process and merged.
    println!("\n== phase histograms (merged) ==");
    let merged = trace.merged_phases();
    for phase in Phase::ALL {
        let h = merged.get(phase);
        if h.count() == 0 {
            continue;
        }
        println!(
            "{:<22} n={:<5} mean={:>8}ns p90={:>8}ns max={:>8}ns",
            phase.name(),
            h.count(),
            h.mean_nanos(),
            h.quantile_upper_nanos(0.9),
            h.max_nanos()
        );
    }

    // Causal critical path: Lamport stamps give the merged trace a sound
    // happens-before order, so each detection's end-to-end latency can be
    // attributed segment by segment along its cross-process CDM chain.
    println!("\n== critical-path waterfalls (slowest first) ==");
    for fall in acdgc::obs::top_waterfalls(&trace, 2) {
        println!("{}", fall.render(48));
    }

    let out = Path::new("target/trace_fig4.jsonl");
    trace.dump_jsonl(out).expect("write trace export");
    println!("\n[full trace exported to {}]", out.display());

    // The same topology once more, but collected by the threaded runtime
    // under the watchdog: workers publish heartbeats every sweep and the
    // run ends with a terminal health report — the forensics above plus
    // liveness evidence for every worker.
    println!("\n== watchdog: threaded re-run with health reports ==");
    let cfg = GcConfig {
        quiet_sweeps: 3,
        trace: TraceConfig::on(),
        watchdog: WatchdogConfig::default(),
        ..GcConfig::manual()
    };
    let mut sys = System::new(6, cfg.clone(), NetConfig::instant(), 2);
    scenarios::fig4(&mut sys);
    let run = threaded::run_concurrent_collection_observed(
        sys.into_procs(),
        cfg,
        ThreadedOptions {
            deadline: Duration::from_secs(30),
            ..ThreadedOptions::default()
        },
    );
    for report in &run.health {
        println!("{}", report.render());
    }
    println!(
        "[quiescent={}, {} health report(s)]",
        run.quiescent,
        run.health.len()
    );
}
