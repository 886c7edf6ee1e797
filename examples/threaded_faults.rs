//! Threaded-runtime demo: one real OS thread per process, bounded
//! single-slot inboxes, seeded message loss on every send — and the run
//! still reclaims a mesh of interlocking distributed cycles, terminating
//! through distributed quiescence votes rather than a deadline.
//!
//! Run with: `cargo run --example threaded_faults [drop_probability] [seed]`
//! (defaults: 0.3, 7)

use acdgc::model::{GcConfig, NetConfig, ProcId, SimDuration};
use acdgc::sim::{merged_metrics, scenarios, threaded, System, ThreadedOptions};
use std::time::{Duration, Instant};

fn main() {
    let mut args = std::env::args().skip(1);
    let drop: f64 = args
        .next()
        .map_or(0.3, |s| s.parse().expect("drop ∈ [0,1]"));
    let seed: u64 = args.next().map_or(7, |s| s.parse().expect("seed: u64"));

    // Eight processes, three all-garbage cycles that each cross every
    // process in a different order: heavy CDM fan-out, no local shortcut.
    let mut sys = System::new(8, GcConfig::manual(), NetConfig::instant(), seed);
    let ids: Vec<ProcId> = (0..8).map(ProcId).collect();
    for r in 0..3 {
        let mut order = ids.clone();
        order.rotate_left(r % 8);
        if r % 2 == 1 {
            order.reverse();
        }
        scenarios::ring(&mut sys, &order, 2, false);
    }
    let garbage = sys.total_live_objects();
    println!("built {garbage} objects of distributed cyclic garbage (8 procs, 3 rings)");
    println!("drop probability {drop}, duplicate probability 0.1, channel capacity 1, seed {seed}");

    let cfg = GcConfig {
        candidate_backoff: SimDuration::from_micros(300),
        candidate_backoff_max: SimDuration::from_millis(5),
        channel_capacity: 1,
        ..GcConfig::manual()
    };
    let net = NetConfig {
        gc_drop_probability: drop,
        gc_duplicate_probability: 0.1,
        ..NetConfig::instant()
    };
    let t0 = Instant::now();
    let run = threaded::run_concurrent_collection_observed(
        sys.into_procs(),
        cfg,
        ThreadedOptions {
            net,
            seed,
            deadline: Duration::from_secs(60),
            ..ThreadedOptions::default()
        },
    );
    let stats = merged_metrics(&run.procs);
    let live: usize = run.procs.iter().map(|p| p.heap.stats().live_objects).sum();

    println!(
        "\nrun ended after {:?} — {}",
        t0.elapsed(),
        if run.quiescent {
            "distributed quiescence (every worker voted, channels provably empty)"
        } else {
            "deadline backstop (extreme loss: reclamation delayed past the window)"
        }
    );
    println!(
        "reclaimed {}/{garbage} objects, {} cycles detected",
        garbage - live,
        stats.cycles_detected
    );
    println!(
        "faults injected: {} dropped, {} duplicated  |  inbox-overflow losses on top",
        stats.faults_injected, stats.duplicates_injected
    );
    println!(
        "losses by kind: nss={} cdm={} delete={} ack={}",
        stats.nss_dropped, stats.cdms_dropped, stats.deletes_dropped, stats.acks_dropped
    );
    println!(
        "recovery: {} NSS retransmissions, exponential candidate backoff on CDM walks",
        stats.nss_retries
    );
    println!(
        "termination protocol: {} votes cast, {} rescinded",
        stats.votes_cast, stats.votes_rescinded
    );
    // The protocol's invariant: a quiescent stop means nothing was left.
    // (Under extreme loss the run may instead end at the deadline with
    // garbage remaining — loss only *delays* reclamation; retries would
    // finish it given a longer window.)
    if run.quiescent {
        assert_eq!(
            live, 0,
            "quiescence declared with garbage remaining — premature vote"
        );
    } else {
        println!("window elapsed with {live}/{garbage} objects still unreclaimed");
    }
}
