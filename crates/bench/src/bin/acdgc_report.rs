//! `acdgc-report` — offline analysis of exported trace artifacts.
//!
//! Ingests the JSON Lines artifacts the test suite and CI write (see
//! `tests/threaded_stress.rs` and `ACDGC_TRACE_ARTIFACT`), reconstructs
//! every detection, and prints:
//!
//! * a per-phase latency table (count / mean / p50 / p99 / max);
//! * the top-k slowest detections with their rendered cross-process CDM
//!   paths;
//! * the message-balance and hop-monotonicity verdicts of
//!   `Trace::check`;
//! * a watchdog/health summary from any `health_report` lines;
//! * with `--timeline`, ASCII sparkline timelines and a counter-rate
//!   table for every `sample` time series in the artifact;
//! * with `--critical-path`, a latency waterfall per slowest detection,
//!   attributing its end-to-end time to transit / queue / handling /
//!   backoff segments;
//! * with `--perfetto OUT.json`, a Chrome trace-event export of a single
//!   artifact — one track per process, flow arrows along CDM hops —
//!   loadable at <https://ui.perfetto.dev>.
//!
//! Usage:
//!
//! ```text
//! acdgc-report [--check] [--timeline] [--critical-path] \
//!              [--perfetto OUT.json] [--top N] [PATH ...]
//! ```
//!
//! `PATH` entries may be `.jsonl` files or directories (scanned for
//! `*.jsonl`); the default is `target/trace-artifacts`. With `--check`
//! the exit code is non-zero when any artifact has a ledger,
//! hop-monotonicity, causal-order, or time-series violation (CI gates on
//! this; see scripts/ci.sh). Artifacts whose ring overflowed
//! (`overwritten > 0`) are suffix traces: their balance checks are
//! skipped, but sample series and causal order are still validated —
//! decimation never overwrites a series, and both causal invariants are
//! stable under truncation, so they hold on any suffix.

use acdgc_obs::{
    counter_rates, group_by_series, perfetto_trace, sparkline, top_waterfalls, HealthReport, Phase,
    Sample, Trace, GAUGE_FIELDS,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: acdgc-report [--check] [--timeline] [--critical-path] \
                     [--perfetto OUT.json] [--top N] [PATH ...]";

#[derive(Debug)]
struct Options {
    check: bool,
    timeline: bool,
    critical_path: bool,
    perfetto: Option<PathBuf>,
    top: usize,
    paths: Vec<PathBuf>,
}

/// Parse a raw argument list (program name already stripped). Split from
/// `main` so the flag grammar is unit-testable; any string starting with
/// `-` that is not a known flag is a usage error, never an artifact path.
fn parse_args_from<I: IntoIterator<Item = String>>(raw: I) -> Result<Options, String> {
    let mut opts = Options {
        check: false,
        timeline: false,
        critical_path: false,
        perfetto: None,
        top: 3,
        paths: Vec::new(),
    };
    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => opts.check = true,
            "--timeline" => opts.timeline = true,
            "--critical-path" => opts.critical_path = true,
            "--perfetto" => {
                let out = args
                    .next()
                    .ok_or(format!("--perfetto needs an output path\n{USAGE}"))?;
                opts.perfetto = Some(PathBuf::from(out));
            }
            "--top" => {
                let n = args
                    .next()
                    .ok_or(format!("--top needs a number\n{USAGE}"))?;
                opts.top = n
                    .parse()
                    .map_err(|_| format!("bad --top value {n:?}\n{USAGE}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other:?}\n{USAGE}"))
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if opts.paths.is_empty() {
        opts.paths.push(PathBuf::from("target/trace-artifacts"));
    }
    Ok(opts)
}

fn parse_args() -> Result<Options, String> {
    parse_args_from(std::env::args().skip(1))
}

/// Expand files/directories into the list of `.jsonl` artifacts.
fn artifacts(paths: &[PathBuf]) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for p in paths {
        if p.is_dir() {
            let entries =
                std::fs::read_dir(p).map_err(|e| format!("read dir {}: {e}", p.display()))?;
            for entry in entries {
                let path = entry.map_err(|e| e.to_string())?.path();
                if path.extension().is_some_and(|e| e == "jsonl") {
                    out.push(path);
                }
            }
        } else if p.is_file() {
            out.push(p.clone());
        } else {
            return Err(format!("no such file or directory: {}", p.display()));
        }
    }
    out.sort();
    Ok(out)
}

fn human_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Wall-clock span of one detection: first to last surviving event.
fn detection_span_us(path: &acdgc_obs::DetectionPath) -> u64 {
    let first = path.events.first().map(|r| r.at.0).unwrap_or(0);
    let last = path.events.last().map(|r| r.at.0).unwrap_or(0);
    last.saturating_sub(first)
}

fn report_phases(trace: &Trace) {
    let merged = trace.merged_phases();
    if merged.total_count() == 0 {
        println!("  phases: no timing samples in this artifact");
        return;
    }
    println!(
        "  {:<16} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "phase", "count", "mean", "p50", "p99", "max"
    );
    for phase in Phase::ALL {
        let h = merged.get(phase);
        if h.count() == 0 {
            continue;
        }
        println!(
            "  {:<16} {:>8} {:>10} {:>10} {:>10} {:>10}",
            phase.name(),
            h.count(),
            human_ns(h.mean_nanos()),
            human_ns(h.quantile_upper_nanos(0.5)),
            human_ns(h.quantile_upper_nanos(0.99)),
            human_ns(h.max_nanos()),
        );
    }
}

fn report_detections(trace: &Trace, top: usize) {
    let ids = trace.detection_ids();
    let cycles = trace.detected_cycles();
    println!(
        "  detections: {} reconstructed, {} found a cycle",
        ids.len(),
        cycles.len()
    );
    if ids.is_empty() || top == 0 {
        return;
    }
    let mut spans: Vec<(u64, acdgc_obs::DetectionPath)> = ids
        .into_iter()
        .map(|id| {
            let path = trace.detection(id);
            (detection_span_us(&path), path)
        })
        .collect();
    spans.sort_by_key(|s| std::cmp::Reverse(s.0));
    println!("  slowest {}:", spans.len().min(top));
    for (span, path) in spans.iter().take(top) {
        println!("    {:>9} {}", format!("{}µs", span), path.render());
    }
}

fn report_health(health: &[HealthReport]) {
    if health.is_empty() {
        println!("  health: no watchdog reports in this artifact");
        return;
    }
    let stalls = health
        .iter()
        .filter(|r| r.reason == acdgc_obs::HealthReason::Stall)
        .count();
    println!(
        "  health: {} report(s), {} stall(s); last: {}",
        health.len(),
        stalls,
        health.last().map(|r| r.reason.name()).unwrap_or("-"),
    );
    for r in health {
        if !r.stalled().is_empty() {
            for line in r.render().lines() {
                println!("    {line}");
            }
        }
    }
}

/// Render every time series in the artifact as sparkline timelines plus a
/// counter-rate table: one block per series (global first, then per
/// process), one sparkline per gauge, one rate row per counter.
fn report_timeline(trace: &Trace) {
    if trace.samples.is_empty() {
        println!("  timeline: no sample lines in this artifact");
        return;
    }
    const WIDTH: usize = 48;
    for (proc, rows) in group_by_series(&trace.samples) {
        let label = match proc {
            None => "global".to_string(),
            Some(p) => format!("P{}", p.0),
        };
        let samples: Vec<Sample> = rows.iter().map(|(s, _)| *s).collect();
        let span_us = samples
            .last()
            .map(|s| s.at.0.saturating_sub(samples[0].at.0))
            .unwrap_or(0);
        println!(
            "  timeline [{label}]: {} samples over {}",
            samples.len(),
            human_ns(span_us.saturating_mul(1_000)),
        );
        for (name, get) in GAUGE_FIELDS {
            let values: Vec<u64> = samples.iter().map(get).collect();
            let max = values.iter().copied().max().unwrap_or(0);
            println!(
                "    {:<20} {:<width$} max={max}",
                name,
                sparkline(&values, WIDTH),
                width = WIDTH
            );
        }
        let rates = counter_rates(&samples);
        if rates.is_empty() {
            println!("    rates: need at least two samples spanning nonzero time");
            continue;
        }
        println!(
            "    {:<20} {:>10} {:>12} {:>12}",
            "counter", "total", "avg/s", "peak/s"
        );
        for r in rates {
            println!(
                "    {:<20} {:>10} {:>12.1} {:>12.1}",
                r.name, r.total, r.per_sec_avg, r.per_sec_peak
            );
        }
    }
}

/// Render the top-k slowest detections as critical-path waterfalls: each
/// row attributes the detection's end-to-end latency to transit / queue /
/// handling / backoff segments that sum exactly to the total.
fn report_critical_path(trace: &Trace, top: usize) {
    const WIDTH: usize = 48;
    let falls = top_waterfalls(trace, top.max(1));
    if falls.is_empty() {
        println!("  critical-path: no reconstructable detections in this artifact");
        return;
    }
    let clocked = trace.events.iter().filter(|r| r.lamport > 0).count();
    println!(
        "  critical-path: {} waterfall(s), runtime={}, {} of {} events lamport-stamped",
        falls.len(),
        trace.runtime.as_deref().unwrap_or("unknown"),
        clocked,
        trace.events.len(),
    );
    for fall in &falls {
        for line in fall.render(WIDTH).lines() {
            println!("    {line}");
        }
    }
}

/// Write one artifact's Chrome trace-event export and self-validate it:
/// the written file must parse back as JSON. The printed audit line
/// accounts for every CDM delivery: one flow arrow each, or unmatched
/// (its send overwritten). Returns the number of violations (0 or 1) so
/// `--check` can gate on a broken export.
fn export_perfetto(trace: &Trace, out: &PathBuf) -> usize {
    let (doc, summary) = perfetto_trace(trace);
    let text = serde_json::to_string(&doc).expect("value serialization is infallible");
    if let Err(e) = std::fs::write(out, &text) {
        eprintln!("acdgc-report: write {}: {e}", out.display());
        return 1;
    }
    let round_trip = std::fs::read_to_string(out)
        .ok()
        .and_then(|t| serde_json::from_str(&t).ok());
    if round_trip.is_none() {
        println!(
            "  perfetto: FAILED ({} does not round-trip as JSON)",
            out.display()
        );
        return 1;
    }
    println!(
        "  perfetto: wrote {} ({} events, {} flows, {} delivered hops, {} unmatched)",
        out.display(),
        summary.events,
        summary.flows,
        summary.delivered_hops,
        summary.unmatched_deliveries,
    );
    0
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("acdgc-report: {e}");
            return ExitCode::from(2);
        }
    };
    let files = match artifacts(&opts.paths) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("acdgc-report: {e}");
            return ExitCode::from(2);
        }
    };
    if files.is_empty() {
        eprintln!(
            "acdgc-report: no .jsonl artifacts under {:?}",
            opts.paths
                .iter()
                .map(|p| p.display().to_string())
                .collect::<Vec<_>>()
        );
        // In --check mode an empty artifact set is a failure: CI expects
        // the stress stage to have produced traces to gate on.
        return if opts.check {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }
    if opts.perfetto.is_some() && files.len() > 1 {
        eprintln!(
            "acdgc-report: --perfetto exports one artifact but {} matched; pass a single .jsonl file",
            files.len()
        );
        return ExitCode::from(2);
    }

    let mut violations = 0usize;
    for file in &files {
        println!("== {}", file.display());
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("acdgc-report: read {}: {e}", file.display());
                violations += 1;
                continue;
            }
        };
        let (trace, health) = match Trace::from_jsonl(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("acdgc-report: parse {}: {e}", file.display());
                violations += 1;
                continue;
            }
        };
        println!(
            "  events: {} ({} lost to ring overwrite)",
            trace.events.len(),
            trace.overwritten
        );
        report_phases(&trace);
        report_detections(&trace, opts.top);
        report_health(&health);
        if opts.timeline {
            report_timeline(&trace);
        }
        if opts.critical_path {
            report_critical_path(&trace, opts.top);
        }
        if let Some(out) = &opts.perfetto {
            violations += export_perfetto(&trace, out);
        }

        let check = trace.check();
        // Sample series are exact at any length (decimation never
        // overwrites), so their verdict applies even to suffix traces.
        if !check.sample_violations.is_empty() {
            println!(
                "  samples: FAILED ({} violation(s) across {} sample line(s))",
                check.sample_violations.len(),
                trace.samples.len()
            );
            for v in &check.sample_violations {
                println!("    VIOLATION: {v}");
            }
            violations += check.sample_violations.len();
        } else if !trace.samples.is_empty() {
            println!(
                "  samples: OK ({} lines: monotone clocks/counters, capacity bounded)",
                trace.samples.len()
            );
        }
        // Both causal invariants (per-process stamp monotonicity, receive
        // above the send it names) are stable under truncation, so like
        // the sample checks their verdict applies even to suffix traces.
        if !check.causal_violations.is_empty() {
            println!(
                "  causal: FAILED ({} violation(s))",
                check.causal_violations.len()
            );
            for v in &check.causal_violations {
                println!("    VIOLATION: {v}");
            }
            violations += check.causal_violations.len();
        } else if trace.events.iter().any(|r| r.lamport > 0) {
            println!(
                "  causal: OK (stamps monotone per process, receives above sends, \
                 {} deliveries of overwritten sends)",
                check.unmatched_deliveries
            );
        }
        if check.skipped_overwritten {
            println!("  check: SKIPPED (suffix trace: ring overwrote events)");
            continue;
        }
        if check.hop_violations.is_empty() && check.balance_violations.is_empty() {
            println!(
                "  check: OK ({} detections balanced, hops monotonic)",
                check.detections
            );
        } else {
            println!(
                "  check: FAILED ({} hop violations, {} balance violations)",
                check.hop_violations.len(),
                check.balance_violations.len()
            );
            for v in check.hop_violations.iter().chain(&check.balance_violations) {
                println!("    VIOLATION: {v}");
            }
            violations += check.hop_violations.len() + check.balance_violations.len();
        }
    }

    if opts.check && violations > 0 {
        eprintln!("acdgc-report: --check failed with {violations} violation(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn known_flags_and_paths_parse() {
        let o = parse(&[
            "--check",
            "--timeline",
            "--critical-path",
            "--perfetto",
            "out.json",
            "--top",
            "7",
            "a.jsonl",
            "dir",
        ])
        .unwrap();
        assert!(o.check && o.timeline && o.critical_path);
        assert_eq!(
            o.perfetto.as_deref(),
            Some(std::path::Path::new("out.json"))
        );
        assert_eq!(o.top, 7);
        assert_eq!(
            o.paths,
            vec![PathBuf::from("a.jsonl"), PathBuf::from("dir")]
        );
    }

    #[test]
    fn unknown_flags_are_usage_errors_not_paths() {
        for bad in ["--perfeto", "--criticalpath", "-x", "--check=1"] {
            let err = parse(&[bad, "a.jsonl"]).unwrap_err();
            assert!(
                err.contains("unknown flag") && err.contains(USAGE),
                "{bad:?} must be rejected with usage, got: {err}"
            );
        }
    }

    #[test]
    fn flags_missing_their_value_are_usage_errors() {
        for args in [&["--perfetto"][..], &["--top"][..]] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(USAGE), "missing value must show usage: {err}");
        }
        assert!(parse(&["--top", "x"]).unwrap_err().contains("bad --top"));
    }

    #[test]
    fn no_paths_defaults_to_the_ci_artifact_dir() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.paths, vec![PathBuf::from("target/trace-artifacts")]);
    }
}
