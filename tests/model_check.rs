//! Exhaustive small-model check.
//!
//! Enumerates *every* reference configuration of a small fixed object
//! population — four objects across three processes, all 2^12 subsets of
//! the possible local and remote edges, crossed with root placements —
//! and verifies, for each of the ~16k resulting systems, both collector
//! properties:
//!
//! * safety: the oracle-audited counters stay zero,
//! * completeness: after the GC fixpoint, the live set equals the oracle's
//!   (every garbage structure, cyclic or not, spanning any subset of the
//!   processes, is reclaimed).
//!
//! This is a brute-force proof substitute for the correctness argument the
//! paper defers to its technical report: within this model size, there is
//! no counterexample to either property.
//!
//! The enumeration runs twice — under `collect_to_fixpoint`'s alternation
//! of how detections start, and with `eager_combine` off in every round —
//! and each pass is also a traffic gate: the CDMs sent over all systems
//! must stay under the pass's ceiling.

use acdgc::model::{GcConfig, NetConfig, ObjId, ProcId};
use acdgc::sim::System;

// Objects: a0, a1 in P0; b in P1; c in P2 — four in total.

/// Candidate edges (from, to) as indices into the object array. The first
/// two are local (within P0); the rest are remote.
const EDGES: [(usize, usize); 12] = [
    (0, 1), // a0 -> a1 (local)
    (1, 0), // a1 -> a0 (local)
    (0, 2), // a0 -> b
    (0, 3), // a0 -> c
    (1, 2), // a1 -> b
    (1, 3), // a1 -> c
    (2, 0), // b -> a0
    (2, 1), // b -> a1
    (2, 3), // b -> c
    (3, 0), // c -> a0
    (3, 1), // c -> a1
    (3, 2), // c -> b
];

fn build(edge_mask: u16, root_mask: u8) -> (System, Vec<ObjId>) {
    let mut sys = System::new(3, GcConfig::manual(), NetConfig::instant(), 1);
    let objs = vec![
        sys.alloc(ProcId(0), 1),
        sys.alloc(ProcId(0), 1),
        sys.alloc(ProcId(1), 1),
        sys.alloc(ProcId(2), 1),
    ];
    for (bit, &(from, to)) in EDGES.iter().enumerate() {
        if edge_mask & (1 << bit) == 0 {
            continue;
        }
        let (f, t) = (objs[from], objs[to]);
        if f.proc == t.proc {
            sys.add_local_ref(f, t).unwrap();
        } else {
            sys.create_remote_ref(f, t).unwrap();
        }
    }
    for (i, &obj) in objs.iter().enumerate() {
        if root_mask & (1 << i) != 0 {
            sys.add_root(obj).unwrap();
        }
    }
    (sys, objs)
}

/// `System::collect_to_fixpoint`'s stopping rule over plain `gc_round`s:
/// `eager_combine` stays off, so every detection starts undivided and only
/// a walk's own split ever derives a per-process chain.
fn per_reference_rounds_to_fixpoint(sys: &mut System) {
    assert!(!sys.config().eager_combine);
    let progress = |sys: &System| {
        (
            sys.total_live_objects(),
            sys.total_scions(),
            sys.metrics.cycles_detected,
        )
    };
    let mut quiet = 0;
    for _ in 0..16 {
        let before = progress(sys);
        sys.gc_round();
        quiet = if progress(sys) == before {
            quiet + 1
        } else {
            0
        };
        if quiet >= 3 {
            break;
        }
    }
}

/// Ceilings on the CDMs a pass may send over the whole enumeration: the
/// measured totals (1,411,188 alternating, 2,038,916 per-reference only)
/// plus 10 %. No scan of this model meets `max_candidates_per_scan`, so
/// how the cap cuts does not move them; the alternating pass sent
/// 9,134,526 before walks split at their first fan-out.
const CDM_CEILING_ALTERNATING: u64 = 1_552_306;
const CDM_CEILING_PER_REFERENCE: u64 = 2_242_807;

#[test]
fn every_small_configuration_collects_exactly_the_garbage() {
    type Pass = (&'static str, fn(&mut System), u64);
    let passes: [Pass; 2] = [
        (
            "alternating",
            |sys| {
                sys.collect_to_fixpoint(16);
            },
            CDM_CEILING_ALTERNATING,
        ),
        (
            "per-reference rounds only",
            per_reference_rounds_to_fixpoint,
            CDM_CEILING_PER_REFERENCE,
        ),
    ];
    for (pass, collect, cdm_ceiling) in passes {
        let mut checked = 0u64;
        let mut cyclic_configs = 0u64;
        let mut cdms_sent = 0u64;
        for edge_mask in 0..(1u16 << EDGES.len()) {
            // Root placements: none, a0, c, a0+c — enough to exercise "fully
            // garbage", "anchored at the dense end" and "anchored remotely".
            for root_mask in [0b0000u8, 0b0001, 0b1000, 0b1001] {
                let (mut sys, _objs) = build(edge_mask, root_mask);
                let expected_live = sys.oracle_live().len();
                collect(&mut sys);
                let live = sys.total_live_objects();
                assert_eq!(
                    live, expected_live,
                    "{pass}: completeness violated: edges={edge_mask:#014b} roots={root_mask:#06b}; {:?}",
                    sys.metrics
                );
                assert_eq!(
                    sys.metrics.safety_violations(),
                    0,
                    "{pass}: safety violated: edges={edge_mask:#014b} roots={root_mask:#06b}"
                );
                assert_eq!(
                    sys.metrics.invoke_on_missing_scion, 0,
                    "{pass}: edges={edge_mask:#014b} roots={root_mask:#06b}"
                );
                sys.check_invariants().unwrap_or_else(|e| {
                    panic!("{pass}: invariant: {e}; edges={edge_mask:#014b} roots={root_mask:#06b}")
                });
                if sys.metrics.cycles_detected > 0 {
                    cyclic_configs += 1;
                }
                cdms_sent += sys.metrics.cdms_sent;
                checked += 1;
            }
        }
        assert_eq!(checked, 4 * (1 << EDGES.len()));
        // Sanity: a substantial fraction of configurations contained
        // distributed cycles that only the DCDA could reclaim.
        assert!(
            cyclic_configs > 1_000,
            "{pass}: expected many cyclic configurations, got {cyclic_configs}"
        );
        // The traffic gate: completeness must not be bought with path
        // multiplicity.
        assert!(
            cdms_sent <= cdm_ceiling,
            "{pass}: {cdms_sent} CDMs over the enumeration, ceiling {cdm_ceiling}"
        );
        eprintln!("model check, {pass}: {cdms_sent} CDMs, {cyclic_configs} cyclic configurations");
    }
}

#[test]
fn spot_check_the_hardest_configuration() {
    // All twelve edges present, nothing rooted: a maximally entangled
    // garbage clump spanning three processes — overlapping cycles
    // everywhere. One fixpoint run must clear it completely.
    let (mut sys, _objs) = build((1 << EDGES.len()) - 1, 0);
    assert!(sys.oracle_live().is_empty());
    let rounds = sys.collect_to_fixpoint(16);
    assert_eq!(
        sys.total_live_objects(),
        0,
        "rounds={rounds} {:?}",
        sys.metrics
    );
    assert_eq!(sys.metrics.safety_violations(), 0);
}

#[test]
fn spot_check_root_migration_between_configurations() {
    // The densest graph, anchored at c, then the anchor moves to a0, then
    // disappears: the live set must track the oracle at each step.
    let (mut sys, objs) = build((1 << EDGES.len()) - 1, 0b1000);
    sys.collect_to_fixpoint(16);
    assert_eq!(sys.total_live_objects(), sys.oracle_live().len());
    assert_eq!(sys.total_live_objects(), 4, "all reachable from c");

    sys.add_root(objs[0]).unwrap();
    sys.remove_root(objs[3]).unwrap();
    sys.collect_to_fixpoint(16);
    assert_eq!(sys.total_live_objects(), 4, "still all reachable from a0");

    sys.remove_root(objs[0]).unwrap();
    sys.collect_to_fixpoint(16);
    assert_eq!(sys.total_live_objects(), 0);
    assert_eq!(sys.metrics.safety_violations(), 0);
}
