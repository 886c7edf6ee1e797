//! Regression: a half re-created by an export that rides an invocation
//! adopts the surviving half's invocation counter.
//!
//! `System::create_remote_ref` always repaired a half-pair at the
//! survivor's counter; the invoke/export path re-created the missing half
//! at zero. The split is permanent — every detection crossing the pair
//! aborts on the IC match, so a cycle through it is never reclaimed. Both
//! repair directions are replayed here through `System::invoke`.

use acdgc::model::{GcConfig, NetConfig, ObjId, ProcId, RefId};
use acdgc::sim::{InvokeSpec, System};

const HOLDER: ProcId = ProcId(0);
const OWNER: ProcId = ProcId(1);
const CALLS: u64 = 3;

struct World {
    sys: System,
    /// At `HOLDER`, holds `r` to `b`.
    a: ObjId,
    /// At `OWNER`.
    b: ObjId,
    /// At `OWNER`, holds `s` to `a`: the service reference exports ride.
    c: ObjId,
    r: RefId,
    s: RefId,
}

/// `a → r → b` invoked `CALLS` times, so both halves of `r` stand at
/// `CALLS`; everything rooted.
fn world() -> World {
    let mut sys = System::new(2, GcConfig::manual(), NetConfig::instant(), 14);
    let a = sys.alloc(HOLDER, 1);
    let (b, c) = (sys.alloc(OWNER, 1), sys.alloc(OWNER, 1));
    for obj in [a, b, c] {
        sys.add_root(obj).unwrap();
    }
    let r = sys.create_remote_ref(a, b).unwrap();
    let s = sys.create_remote_ref(c, a).unwrap();
    for _ in 0..CALLS {
        sys.invoke(HOLDER, r, InvokeSpec::oneway()).unwrap();
    }
    sys.drain_network();
    World { sys, a, b, c, r, s }
}

fn counters(sys: &System, r: RefId) -> (Option<u64>, Option<u64>) {
    (
        sys.proc(HOLDER).tables.stub(r).map(|stub| stub.ic),
        sys.proc(OWNER).tables.scion(r).map(|scion| scion.ic),
    )
}

/// Re-export `b` to `a` on an invocation through `s`, check the halves of
/// `r` agree, then close the cycle `a → b → a`, cut every root and
/// collect: the cycle must go without one IC abort.
fn reexport_then_collect(w: World) {
    let World {
        mut sys,
        a,
        b,
        c,
        r,
        s,
    } = w;
    sys.invoke(OWNER, s, InvokeSpec::exporting(vec![b]))
        .unwrap();
    sys.drain_network();
    assert_eq!(
        counters(&sys, r),
        (Some(CALLS), Some(CALLS)),
        "the re-created half adopts the survivor's counter under the same id"
    );
    sys.check_invariants().unwrap();

    assert_eq!(sys.create_remote_ref(b, a).unwrap(), s, "pair shared");
    for obj in [a, b, c] {
        sys.remove_root(obj).unwrap();
    }
    sys.collect_to_fixpoint(30);
    assert_eq!(sys.total_live_objects(), 0, "{:?}", sys.metrics);
    assert_eq!(sys.total_scions(), 0);
    assert_eq!(sys.metrics.detections_aborted_ic, 0);
    assert_eq!(sys.metrics.safety_violations(), 0);
}

#[test]
fn stub_recreated_on_import_adopts_the_scions_counter() {
    let mut w = world();
    // The stub dies at the holder and the `NewSetStubs` saying so is lost:
    // the scion outlives it with its history.
    w.sys.drop_remote_ref(w.a, w.r).unwrap();
    w.sys.partition_pair(HOLDER, OWNER);
    w.sys.run_lgc(HOLDER);
    w.sys.heal_all_partitions();
    assert_eq!(counters(&w.sys, w.r), (None, Some(CALLS)));
    reexport_then_collect(w);
}

#[test]
fn scion_recreated_on_export_adopts_the_stubs_counter() {
    let mut w = world();
    // The scion is gone while the stub and its target live on (what a
    // cycle verdict racing a re-export leaves behind).
    w.sys.proc_mut(OWNER).tables.remove_scion(w.r).unwrap();
    assert_eq!(counters(&w.sys, w.r), (Some(CALLS), None));
    reexport_then_collect(w);
}

/// Known defect, found by the step-level schedule explorer of
/// `tests/regression_nss_settled.rs` (6 of its first 100,000 seeds, the
/// first 19091). A re-export into a pair whose stub survives moves neither
/// counter, so a walk whose summary saw that stub held only by garbage
/// still convicts the pair once the import has made it live again. The
/// threaded mutator bumps both counters on such a re-export; `System` and
/// the lifecycle steps do not.
#[test]
#[ignore = "known defect: a re-established pair keeps its counters (ROADMAP, known defects)"]
fn a_walk_that_saw_a_pair_garbage_held_cannot_convict_it_after_a_re_export() {
    let (p1, p2) = (ProcId(1), ProcId(2));
    let mut sys = System::new(3, GcConfig::manual(), NetConfig::instant(), 1);
    // The ring t <-> g across P1 and P2, and a service reference a -> h.
    let [t, g, a, h] = [p1, p2, p1, p2].map(|p| sys.alloc(p, 1));
    for obj in [t, g, a, h] {
        sys.add_root(obj).unwrap();
    }
    let tg = sys.create_remote_ref(t, g).unwrap();
    sys.create_remote_ref(g, t).unwrap();
    let service = sys.create_remote_ref(a, h).unwrap();
    sys.collect_to_fixpoint(6);
    // `g` loses its root, and P2's summary now says only garbage holds
    // its stub for `t`. Then P1 exports `t` to `h` (the stub is re-used)
    // and unroots it: the ring is live through `h` alone.
    sys.remove_root(g).unwrap();
    sys.gc_round();
    sys.take_snapshot(p2);
    sys.invoke(p1, service, InvokeSpec::exporting(vec![t]))
        .unwrap();
    sys.drain_network();
    sys.remove_root(t).unwrap();
    sys.take_snapshot(p1);
    // A walk over P2's summary from before the export.
    sys.initiate_detection(p2, tg);
    sys.drain_network();
    sys.run_lgc(p1);
    assert_eq!(sys.metrics.safety_violations(), 0, "{:?}", sys.metrics);
}
