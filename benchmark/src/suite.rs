//! `--suite`: every workload in a child process of its own, untraced then
//! traced, every metric printed as `workload name unit value bound` plus
//! one JSON document. `--suite --aa`: the untraced suite twice on the same
//! code and seed, compared against the bounds. Exits non-zero on any
//! correctness failure.

use crate::report::{Spec, BESIDE_END_TO_END, END_TO_END, PER_LAYER};
use crate::workloads::{Scale, Workload, ALL};
use crate::Args;
use serde_json::{Map, Number, Value};
use std::process::Command;

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(m) => m.get(key),
        _ => None,
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Number(Number::F64(f)) => Some(*f),
        Value::Number(Number::U64(u)) => Some(*u as f64),
        Value::Number(Number::I64(i)) => Some(*i as f64),
        _ => None,
    }
}

/// One child run: its result line and its detail line, parsed.
struct Child {
    result: Value,
    detail: Value,
    ok: bool,
}

impl Child {
    fn metric(&self, name: &str) -> Option<f64> {
        field(field(field(&self.result, "metrics")?, name)?, "value").and_then(number)
    }

    fn detail_number(&self, name: &str) -> Option<f64> {
        field(&self.detail, name).and_then(number)
    }
}

fn spawn(args: &Args, workload: Workload, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    // stderr is inherited: a child's complaints show up as they happen.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>, what: &str| {
        line.ok_or(format!("{}: no {what} line", workload.name()))
            .and_then(|l| {
                serde_json::from_str(l).map_err(|e| format!("{}: {what}: {e:?}", workload.name()))
            })
    };
    let result = parse(lines.next(), "result")?;
    let detail = parse(lines.next(), "detail")?;
    let correct = matches!(field(&result, "correct"), Some(Value::Bool(true)));
    Ok(Child {
        result,
        detail,
        ok: out.status.success() && correct,
    })
}

fn print_row(workload: Workload, spec: &Spec, value: f64) {
    let bound = spec
        .bound
        .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
    println!(
        "{:<12} {:<42} {:<7} {:>16.6} {:>5}",
        workload.name(),
        spec.name,
        spec.unit,
        value,
        bound
    );
}

fn metrics_object(child: &Child, specs: &[Spec]) -> Value {
    let mut m = Map::new();
    for spec in specs {
        m.insert(
            spec.name.to_string(),
            child.metric(spec.name).unwrap_or(0.0).into(),
        );
    }
    Value::Object(m)
}

/// Untraced then traced, all workloads. Returns the process exit code.
fn full(args: &Args) -> i32 {
    let mut failures = Vec::new();
    let mut doc = Map::new();
    println!(
        "{:<12} {:<42} {:<7} {:>16} {:>5}",
        "workload", "name", "unit", "value", "bound"
    );
    for workload in ALL {
        let runs = spawn(args, workload, false).and_then(|u| Ok((u, spawn(args, workload, true)?)));
        let (untraced, traced) = match runs {
            Ok(pair) => pair,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        if !untraced.ok {
            failures.push(format!(
                "{}: untraced run failed its checks",
                workload.name()
            ));
        }
        if !traced.ok {
            failures.push(format!("{}: traced run failed its checks", workload.name()));
        }
        if field(&untraced.detail, "counters") != field(&traced.detail, "counters") {
            failures.push(format!(
                "{}: traced and untraced counters differ",
                workload.name()
            ));
        }
        for spec in END_TO_END {
            print_row(workload, spec, untraced.metric(spec.name).unwrap_or(0.0));
        }
        for spec in PER_LAYER {
            print_row(workload, spec, traced.metric(spec.name).unwrap_or(0.0));
        }
        let mut w = Map::new();
        w.insert(
            "end_to_end".to_string(),
            metrics_object(&untraced, END_TO_END),
        );
        w.insert("per_layer".to_string(), metrics_object(&traced, PER_LAYER));
        w.insert("untraced".to_string(), untraced.detail);
        w.insert("traced".to_string(), traced.detail);
        doc.insert(workload.name().to_string(), Value::Object(w));
    }
    println!(
        "{}",
        serde_json::to_string(&Value::Object(doc)).expect("plain JSON tree")
    );
    finish(failures)
}

/// What `--aa` compares: the end-to-end metrics plus the two detector
/// counts and `failed_ops`, all from untraced runs.
fn aa_value(child: &Child, name: &str) -> f64 {
    child
        .metric(name)
        .or_else(|| child.detail_number(name))
        .unwrap_or(0.0)
}

/// The untraced suite twice, same code, same seed.
fn aa(args: &Args) -> i32 {
    let mut failures = Vec::new();
    println!(
        "| workload | metric | run A | run B | B/A | bound | verdict |\n|---|---|---|---|---|---|---|"
    );
    for workload in ALL {
        let (a, b) = match spawn(args, workload, false)
            .and_then(|a| Ok((a, spawn(args, workload, false)?)))
        {
            Ok(pair) => pair,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        if !(a.ok && b.ok) {
            failures.push(format!("{}: a run failed its checks", workload.name()));
        }
        for spec in END_TO_END.iter().chain(BESIDE_END_TO_END) {
            let (va, vb) = (aa_value(&a, spec.name), aa_value(&b, spec.name));
            let ratio = if va == vb { 1.0 } else { vb / va };
            // Simulator counts repeat bit for bit per seed; host
            // measurements must agree within the metric's bound.
            let (bound, pass) = if spec.exact_per_seed {
                ("exact".to_string(), va == vb)
            } else {
                let bound = spec.bound.expect("end-to-end bound");
                (
                    format!("{:.0}%", bound * 100.0),
                    va.max(vb) <= va.min(vb) * (1.0 + bound),
                )
            };
            println!(
                "| {} | {} | {:.6} | {:.6} | {:.4} | {} | {} |",
                workload.name(),
                spec.name,
                va,
                vb,
                ratio,
                bound,
                if pass { "pass" } else { "FAIL" }
            );
            if !pass {
                failures.push(format!("{} {}: {va} vs {vb}", workload.name(), spec.name));
            }
        }
    }
    finish(failures)
}

fn finish(failures: Vec<String>) -> i32 {
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    i32::from(!failures.is_empty())
}

pub fn run(args: &Args) -> i32 {
    if args.aa {
        aa(args)
    } else {
        full(args)
    }
}
