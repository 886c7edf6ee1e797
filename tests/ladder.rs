//! Diamond ladders — `s` stages on `s` processes, `w` objects per stage,
//! every object of stage *i* referencing every object of stage
//! *i+1 mod s* — face a per-reference detection with `w^s` converging
//! paths. A walk splits at its first fan-out into the paper's
//! per-reference derivations plus one per-process chain
//! (`acdgc_dcda::Walk`), so per-reference rounds alone reclaim them, at a
//! cost these tests pin as counters; and the per-reference side still
//! carves a pure cycle out of a web the chain cannot settle.

use acdgc::model::{GcConfig, NetConfig, ObjId, ProcId};
use acdgc::sim::{scenarios, System};

/// A system of `procs` processes, `eager_combine` off in every round.
fn per_reference_rounds(procs: usize) -> System {
    let cfg = GcConfig::manual();
    assert!(!cfg.eager_combine);
    let sys = System::new(procs, cfg, NetConfig::instant(), 15);
    assert!(sys.check_safety);
    sys
}

/// Build an all-garbage `stages`×`width` ladder, one process per stage.
fn ladder(sys: &mut System, stages: usize, width: usize) {
    let objects: Vec<Vec<ObjId>> = (0..stages)
        .map(|p| (0..width).map(|_| sys.alloc(ProcId(p as u16), 1)).collect())
        .collect();
    for (i, stage) in objects.iter().enumerate() {
        for &from in stage {
            for &to in &objects[(i + 1) % stages] {
                sys.create_remote_ref(from, to).unwrap();
            }
        }
    }
    assert!(sys.oracle_live().is_empty());
}

/// `gc_round`s until nothing is left, at most `max`.
fn rounds_to_reclaim(sys: &mut System, max: usize) -> usize {
    (1..=max)
        .find(|_| {
            sys.gc_round();
            sys.total_live_objects() == 0 && sys.total_scions() == 0
        })
        .unwrap_or_else(|| panic!("not reclaimed in {max} rounds: {:?}", sys.metrics))
}

fn ladder_falls_to_per_reference_rounds(stages: usize, width: usize) {
    let mut sys = per_reference_rounds(stages);
    ladder(&mut sys, stages, width);
    rounds_to_reclaim(&mut sys, 2);
    let m = &sys.metrics;
    assert!(m.cdms_sent <= 8_000, "{stages}x{width}: {m:?}");
    assert_eq!(m.detections_terminated_budget, 0, "{stages}x{width}: {m:?}");
    assert_eq!(m.safety_violations(), 0);
}

#[test]
fn ladder_6x2_reclaimed_by_per_reference_rounds() {
    ladder_falls_to_per_reference_rounds(6, 2);
}

#[test]
fn ladder_8x2_reclaimed_by_per_reference_rounds() {
    ladder_falls_to_per_reference_rounds(8, 2);
}

#[test]
fn ladder_6x3_reclaimed_by_per_reference_rounds() {
    ladder_falls_to_per_reference_rounds(6, 3);
}

/// A garbage ring one of whose members also holds a reference into a web
/// that is live from another process. The member's scion fans out, so the
/// walk splits there; the chain drags the web's live dependency into its
/// algebra and can never conclude, and the per-reference derivation that
/// follows only the ring still proves it garbage.
#[test]
fn poisoned_fanout_still_carved_out_by_the_per_reference_side() {
    let mut sys = per_reference_rounds(5);
    let procs: Vec<ProcId> = (0..3).map(ProcId).collect();
    let ring = scenarios::ring(&mut sys, &procs, 1, false);
    // web@P3 -> deep@P4, and web is held live by a rooted object at P4.
    let web = sys.alloc(ProcId(3), 1);
    let deep = sys.alloc(ProcId(4), 1);
    let holder = sys.alloc(ProcId(4), 1);
    sys.add_root(holder).unwrap();
    sys.create_remote_ref(holder, web).unwrap();
    sys.create_remote_ref(web, deep).unwrap();
    sys.create_remote_ref(ring.heads[0], web).unwrap();
    assert_eq!(sys.oracle_live().len(), 3);

    // Same count as before walks split: verdict in round 1, sweep and the
    // ring member's reference into the web unlisted in round 2.
    let rounds = (1..=4)
        .find(|_| {
            sys.gc_round();
            sys.total_live_objects() == 3
        })
        .expect("ring reclaimed");
    assert_eq!(rounds, 2, "{:?}", sys.metrics);
    assert!(sys.metrics.cycles_detected >= 1);
    assert_eq!(sys.metrics.safety_violations(), 0);
    sys.collect_to_fixpoint(10);
    assert_eq!(sys.total_live_objects(), 3, "the web stays");
}
