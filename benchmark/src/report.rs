//! The metric tables — names, units, directions, bounds — and the JSON
//! documents built from them. `BENCHMARK.json` is generated from these
//! tables (`--print-benchmark-json`) and a test keeps the two equal.

use crate::workloads::ALL;
use serde_json::{Map, Value};

/// What one run measures by default, in seconds.
pub const RUN_SECONDS: u64 = 10;

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// Whether the value is a simulator count: bit-identical per seed, so
    /// two runs of one seed must agree exactly.
    pub exact_per_seed: bool,
}

/// Measured on the host: host time or memory, differs run to run.
const fn measured(name: &'static str, unit: &'static str, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        higher_is_better: false,
        bound: Some(bound),
        exact_per_seed: false,
    }
}

/// Counted by the simulator: bit-identical per seed.
const fn simulated(name: &'static str, unit: &'static str, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        higher_is_better: false,
        bound: Some(bound),
        exact_per_seed: true,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        higher_is_better: false,
        bound: None,
        exact_per_seed: false,
    }
}

const fn layer_up(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        higher_is_better: true,
        bound: None,
        exact_per_seed: false,
    }
}

/// End-to-end metrics: reported by every workload with `--trace 0`.
pub const END_TO_END: &[Spec] = &[
    measured("setup_s", "s", 0.25),
    measured("run_wall_s", "s", 0.15),
    measured("gc_quantum_p50_ms", "ms", 0.15),
    measured("gc_quantum_p90_ms", "ms", 0.15),
    simulated("reclaim_lag_p50_sim_ms", "sim_ms", 0.15),
    simulated("reclaim_lag_p90_sim_ms", "sim_ms", 0.15),
    simulated("gc_msgs_per_kobj", "count", 0.10),
    simulated("gc_bytes_per_kobj", "bytes", 0.10),
    measured("peak_rss_mb", "MB", 0.25),
];

/// Simulator counts the issue lists as end-to-end but that are zero on
/// some workload (`big_heap` has no cycles, so no detections; nothing ever
/// fails): the driver's contract wants end-to-end metrics that are never
/// 0, so they are reported with the per-layer metrics, and the suite
/// prints and compares them beside the end-to-end ones.
pub const BESIDE_END_TO_END: &[Spec] = &[
    simulated("cdms_per_kobj", "count", 0.0),
    simulated("detections_per_kobj", "count", 0.0),
    simulated("failed_ops", "count", 0.0),
];

/// Per-layer metrics: reported by every workload with `--trace 1`.
pub const PER_LAYER: &[Spec] = &[
    layer("cdms_per_kobj", "count"),
    layer("detections_per_kobj", "count"),
    layer("failed_ops", "count"),
    // acdgc-sim
    layer("sim.lgc_share", "%"),
    layer("sim.nss_drain_share", "%"),
    layer("sim.snapshot_share", "%"),
    layer("sim.scan_share", "%"),
    layer("sim.cdm_drain_share", "%"),
    layer("sim.mutator_share", "%"),
    layer("sim.rounds", "count"),
    layer("sim.step_ns", "ns"),
    layer("sim.oracle_ms", "ms"),
    // acdgc-heap
    layer("heap.mark_ns_per_obj", "ns"),
    layer("heap.sweep_ns_per_obj", "ns"),
    layer("heap.alloc_ns", "ns"),
    layer("heap.live_objs", "count"),
    layer_up("heap.freed_objs", "count"),
    // acdgc-snapshot
    layer("snapshot.summarize_ref_ns_per_edge", "ns"),
    layer("snapshot.summarize_engine_ns_per_edge", "ns"),
    layer("snapshot.summarize_adaptive_ns_per_edge", "ns"),
    layer_up("snapshot.adaptive_engine_share", "%"),
    layer("snapshot.summary_scions", "count"),
    layer("snapshot.summary_stubs", "count"),
    layer("snapshot.capture_ns_per_obj", "ns"),
    layer("snapshot.encode_ns_per_byte", "ns"),
    layer("snapshot.decode_ns_per_byte", "ns"),
    // acdgc-dcda
    layer("core.initiate_ns", "ns"),
    layer("core.deliver_ns", "ns"),
    layer("core.deliver_ns_per_entry", "ns"),
    layer("core.match_ns_per_entry", "ns"),
    layer("core.scan_ns_per_scion", "ns"),
    layer("core.cdm_bytes_mean", "bytes"),
    layer("core.cdm_bytes_max", "bytes"),
    layer("core.deliveries_per_detection_mean", "count"),
    layer("core.deliveries_per_detection_max", "count"),
    layer_up("core.detection_yield", "ratio"),
    layer("core.verdict_dup", "ratio"),
    layer("core.aborted_ic", "count"),
    layer("core.terminated_budget", "count"),
    layer("core.terminated_no_new_info", "count"),
    layer("core.terminated_local", "count"),
    // acdgc-remoting
    layer("remoting.pair_create_ns", "ns"),
    layer("remoting.lookup_ns", "ns"),
    layer("remoting.ic_bump_ns", "ns"),
    layer("remoting.nss_build_ns_per_stub", "ns"),
    layer("remoting.nss_apply_ns_per_scion", "ns"),
    layer("remoting.nss_bytes_per_msg", "bytes"),
    layer("remoting.nss_sent", "count"),
    layer_up("remoting.scions_freed_per_nss", "ratio"),
    // acdgc-net
    layer("net.send_ns", "ns"),
    layer("net.pop_ns", "ns"),
    layer("net.peak_in_flight", "count"),
    layer("net.gc_sent", "count"),
    layer("net.gc_bytes", "bytes"),
    layer("net.dropped", "count"),
    layer("net.duplicated", "count"),
    // threaded runtime: informational, unstable, gates nothing
    layer("threaded.quiesce_wall_ms_min", "ms"),
    layer("threaded.quiesce_wall_ms_median", "ms"),
    layer("threaded.quiesce_wall_ms_max", "ms"),
    layer("threaded.cdms_delivered_median", "count"),
    layer("threaded.lgc_runs_median", "count"),
    // the benchmark itself
    layer("bench.trace_overhead_pct", "%"),
];

fn better(spec: &Spec) -> &'static str {
    if spec.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// A JSON object with its keys in the order given.
pub fn object(entries: Vec<(&str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in entries {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let command: Vec<&str> = vec![
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let workloads: Vec<Value> = ALL
        .iter()
        .map(|w| object(vec![("name", w.name().into()), ("why", w.why().into())]))
        .collect();
    let e2e: Vec<Value> = END_TO_END
        .iter()
        .map(|s| {
            object(vec![
                ("name", s.name.into()),
                ("unit", s.unit.into()),
                ("better", better(s).into()),
                ("bound", s.bound.expect("end-to-end bound").into()),
            ])
        })
        .collect();
    let layers: Vec<Value> = PER_LAYER
        .iter()
        .map(|s| {
            object(vec![
                ("name", s.name.into()),
                ("unit", s.unit.into()),
                ("better", better(s).into()),
            ])
        })
        .collect();
    object(vec![
        ("command", command.into()),
        ("paths", vec!["benchmark"].into()),
        ("run_seconds", RUN_SECONDS.into()),
        ("workloads", Value::Array(workloads)),
        ("end_to_end", Value::Array(e2e)),
        ("per_layer", Value::Array(layers)),
    ])
}

/// One run's result.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value) in table order; units come from the tables.
    pub metrics: Vec<(&'static str, f64)>,
    /// Everything else worth keeping: counters, sample counts, host.
    pub detail: Value,
    /// Why `correct` is false.
    pub problems: Vec<String>,
}

impl RunResult {
    /// The contract's result line.
    pub fn result_line(&self, specs: &[Spec]) -> String {
        let mut metrics = Map::new();
        for spec in specs {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| *n == spec.name)
                .map_or(0.0, |&(_, v)| v);
            metrics.insert(
                spec.name.to_string(),
                object(vec![("value", value.into()), ("unit", spec.unit.into())]),
            );
        }
        let line = object(vec![
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("plain JSON tree")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(spec.name), "{} listed twice", spec.name);
            assert!(spec.name.len() <= 64 && spec.unit.len() <= 16);
            assert!(spec
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(spec
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|s| s.name == "setup_s").unwrap();
        assert!(!setup.higher_is_better && setup.unit == "s");
        assert!(END_TO_END
            .iter()
            .all(|s| s.bound.unwrap() <= setup.bound.unwrap() && s.bound.unwrap() <= 0.25));
        for spec in BESIDE_END_TO_END {
            assert!(PER_LAYER.iter().any(|s| s.name == spec.name));
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = serde_json::from_str(&committed).expect("valid JSON");
        assert_eq!(committed, benchmark_json());
    }
}
