//! Regression: a scion whose detections always fail must not hold its
//! place under `max_candidates_per_scan` at zero backoff.
//!
//! The scan used to keep the `max_candidates_per_scan` most stale eligible
//! scions, `RefId` breaking ties. A live ring anchored in another process
//! leaves a scion that is eligible (not locally reachable, stubs behind it)
//! and that no detection can ever convict; at zero retry backoff it was
//! eligible again in every scan, and being older it was kept again in every
//! scan. Four of them per process filled the cap for good: younger garbage
//! was never tried, and the fixpoint closed over it after three quiet
//! rounds. The cap now keeps the fewest-tried first, so nothing already
//! tried holds a place an untried scion could use.

use acdgc::model::{GcConfig, NetConfig, ProcId};
use acdgc::sim::{scenarios, System};

#[test]
fn live_scions_filling_the_cap_do_not_starve_younger_garbage() {
    let cfg = GcConfig::manual();
    let cap = cfg.max_candidates_per_scan;
    assert_eq!(cfg.candidate_backoff.as_ticks(), 0);
    let mut sys = System::new(2, cfg, NetConfig::instant(), 16);
    assert!(sys.check_safety);
    let (p0, p1) = (ProcId(0), ProcId(1));

    // `cap` live rings anchored at each process: the scion each leaves at
    // the *other* process is eligible there and never convicted. They are
    // created first, so they hold the lowest `RefId`s on both sides.
    for _ in 0..cap {
        scenarios::ring(&mut sys, &[p0, p1], 1, true);
    }
    for _ in 0..cap {
        scenarios::ring(&mut sys, &[p1, p0], 1, true);
    }
    let live = sys.total_live_objects();
    assert_eq!(live, 2 * cap * 3, "two ring objects and an anchor each");
    assert_eq!(sys.oracle_live().len(), live);

    // The youngest structure in the system is garbage.
    scenarios::ring(&mut sys, &[p0, p1], 1, false);
    assert_eq!(sys.total_live_objects(), live + 2);
    assert_eq!(sys.oracle_live().len(), live);

    let rounds = sys.collect_to_fixpoint(200);
    assert_eq!(
        sys.total_live_objects(),
        live,
        "the garbage ring outlived a {rounds}-round fixpoint: {:?}",
        sys.metrics
    );
    assert!(sys.metrics.cycles_detected >= 1, "{:?}", sys.metrics);
    assert_eq!(sys.metrics.safety_violations(), 0);
    sys.check_invariants().unwrap();
}
