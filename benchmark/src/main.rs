//! The repo's benchmark. One process measures one workload:
//!
//! ```text
//! acdgc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints one JSON result object as the last line of its standard
//! output. `--suite` runs every workload in a child process of its own
//! (untraced, then traced) and prints every metric; `--suite --aa` runs the
//! untraced suite twice and compares. See README.md.

mod api;
mod driver;
mod layers;
mod report;
mod rng;
mod run;
mod spans;
mod stats;
mod suite;
mod trace;
mod workloads;

use report::{END_TO_END, PER_LAYER, RUN_SECONDS};
use workloads::{Scale, Workload};

const USAGE: &str = "usage: acdgc-benchmark --workload <rings|ladder|churn_lossy|big_heap> \
[--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke]
       acdgc-benchmark --suite [--aa] [--seed N] [--seconds S] [--smoke]
       acdgc-benchmark --print-benchmark-json";

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    pub suite: bool,
    pub aa: bool,
    pub print_benchmark_json: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut seconds = None;
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 0.0,
        traced: false,
        scale: Scale::Full,
        suite: false,
        aa: false,
        print_benchmark_json: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=120.0).contains(&s) {
                    return Err("--seconds must lie in 0..=120".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                out.traced = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--traced" => out.traced = true,
            "--smoke" => out.scale = Scale::Smoke,
            "--suite" => out.suite = true,
            "--aa" => out.aa = true,
            "--print-benchmark-json" => out.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // The smoke scale measures its minimum of repetitions and stops.
    out.seconds = seconds.unwrap_or(match out.scale {
        Scale::Full => RUN_SECONDS as f64,
        Scale::Smoke => 0.0,
    });
    if !out.suite && !out.print_benchmark_json && out.workload.is_none() {
        return Err("one of --workload, --suite, --print-benchmark-json is required".to_string());
    }
    if out.aa && !out.suite {
        return Err("--aa goes with --suite".to_string());
    }
    Ok(out)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.print_benchmark_json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report::benchmark_json()).expect("plain JSON tree")
        );
        return;
    }
    if args.suite {
        std::process::exit(suite::run(&args));
    }
    let opts = run::Options {
        workload: args.workload.expect("checked by parse"),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        scale: args.scale,
        // The command runs from the root of a checkout.
        spans_dir: "benchmark/out".into(),
    };
    let result = run::run(&opts);
    for problem in &result.problems {
        eprintln!("{}: {problem}", opts.workload.name());
    }
    println!(
        "{}",
        serde_json::to_string(&result.detail).expect("plain JSON tree")
    );
    let specs = if opts.traced { PER_LAYER } else { END_TO_END };
    println!("{}", result.result_line(specs));
    std::process::exit(if result.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&args(
            "--workload churn_lossy --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::ChurnLossy));
        assert_eq!((a.seed, a.seconds, a.traced), (42, 10.0, true));
        let a = parse(&args("--workload rings --trace 0")).unwrap();
        assert_eq!(
            (a.traced, a.seconds, a.seed),
            (false, RUN_SECONDS as f64, 1)
        );
        assert_eq!(parse(&args("--suite --smoke")).unwrap().seconds, 0.0);
        assert_eq!(
            parse(&args("--suite --smoke --seconds 2")).unwrap().seconds,
            2.0
        );
        assert!(parse(&args("--workload rings --traced")).unwrap().traced);
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload rings --trace 2")).is_err());
        assert!(parse(&args("--workload rings --seed")).is_err());
        assert!(parse(&args("--workload rings --seconds -1")).is_err());
        assert!(parse(&args("--aa")).is_err());
        assert!(parse(&args("")).is_err());
    }
}
