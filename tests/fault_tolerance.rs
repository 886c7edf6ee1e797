//! Fault tolerance: the paper claims the DGC stack tolerates message loss
//! (and, with reference-listing sequence numbers, reordering and
//! duplication). These tests inject heavy faults and assert both collector
//! properties still hold.

use acdgc::model::{GcConfig, NetConfig, ProcId, SimDuration};
use acdgc::sim::{scenarios, System};

fn faulty_net(drop: f64, dup: f64) -> NetConfig {
    NetConfig {
        min_latency: SimDuration::from_micros(100),
        max_latency: SimDuration::from_micros(5_000), // wide band: reordering
        gc_drop_probability: drop,
        gc_duplicate_probability: dup,
    }
}

#[test]
fn heavy_loss_duplication_and_reordering() {
    let mut sys = System::new(5, GcConfig::default(), faulty_net(0.3, 0.2), 77);
    let ids: Vec<ProcId> = (0..5).map(ProcId).collect();
    let dead = scenarios::ring(&mut sys, &ids, 2, false);
    let live = scenarios::ring(&mut sys, &ids, 2, true);
    sys.run_for(SimDuration::from_millis(20_000));
    assert_eq!(
        sys.total_live_objects(),
        11,
        "dead ring collected, live ring + anchor intact: {:?}",
        sys.metrics
    );
    assert_eq!(sys.metrics.safety_violations(), 0);
    assert!(sys.net_stats().dropped > 0 && sys.net_stats().duplicated > 0);
    sys.check_invariants().unwrap();
    let _ = (dead, live);
}

#[test]
fn extreme_loss_only_delays_reclamation() {
    // 70% of GC messages dropped: progress is slow but monotone.
    let mut sys = System::new(3, GcConfig::default(), faulty_net(0.7, 0.0), 5);
    let ids: Vec<ProcId> = (0..3).map(ProcId).collect();
    let _ring = scenarios::ring(&mut sys, &ids, 1, false);
    sys.run_for(SimDuration::from_millis(60_000));
    assert_eq!(sys.total_live_objects(), 0, "{:?}", sys.metrics);
    assert_eq!(sys.metrics.safety_violations(), 0);
}

#[test]
fn total_partition_then_heal() {
    let mut sys = System::new(4, GcConfig::default(), NetConfig::default(), 9);
    let fig = scenarios::fig3(&mut sys);
    sys.remove_root(fig.a).unwrap();
    // Sever every link: nothing distributed can progress, but each
    // process keeps collecting locally (A goes; the cycle cannot).
    for a in 0..4u16 {
        for b in (a + 1)..4u16 {
            sys.partition_pair(ProcId(a), ProcId(b));
        }
    }
    sys.run_for(SimDuration::from_millis(2_000));
    assert_eq!(
        sys.total_live_objects(),
        13,
        "only A reclaimed while fully partitioned: {:?}",
        sys.metrics
    );
    assert_eq!(sys.metrics.safety_violations(), 0);

    // Heal: every set lost to the partition is still unacknowledged and
    // is rebuilt after one round trip, and every lost CDM's candidate is
    // retried after its backoff, so the distributed collection resumes and
    // completes.
    sys.heal_all_partitions();
    sys.run_for(SimDuration::from_millis(4_000));
    assert_eq!(sys.total_live_objects(), 0, "{:?}", sys.metrics);
    assert_eq!(sys.metrics.safety_violations(), 0);
}

#[test]
fn partial_partition_isolates_only_the_cut_cycle() {
    // Two disjoint 2-process rings; one of them is cut in half. Only the
    // healthy ring is reclaimed until the partition heals.
    let mut sys = System::new(4, GcConfig::default(), NetConfig::default(), 10);
    let left: Vec<ProcId> = vec![ProcId(0), ProcId(1)];
    let right: Vec<ProcId> = vec![ProcId(2), ProcId(3)];
    let _l = scenarios::ring(&mut sys, &left, 1, false);
    let _r = scenarios::ring(&mut sys, &right, 1, false);
    sys.partition_pair(ProcId(0), ProcId(1));
    sys.run_for(SimDuration::from_millis(5_000));
    assert_eq!(
        sys.total_live_objects(),
        2,
        "right ring reclaimed, cut ring stuck: {:?}",
        sys.metrics
    );
    sys.heal_all_partitions();
    sys.run_for(SimDuration::from_millis(5_000));
    assert_eq!(sys.total_live_objects(), 0);
    assert_eq!(sys.metrics.safety_violations(), 0);
}

#[test]
fn duplicated_gc_traffic_is_idempotent() {
    let cfg = NetConfig {
        gc_duplicate_probability: 1.0,
        ..NetConfig::default()
    };
    let mut sys = System::new(4, GcConfig::default(), cfg, 19);
    let fig = scenarios::fig3(&mut sys);
    sys.remove_root(fig.a).unwrap();
    sys.run_for(SimDuration::from_millis(3_000));
    assert_eq!(sys.total_live_objects(), 0, "{:?}", sys.metrics);
    assert_eq!(sys.metrics.safety_violations(), 0);
    assert!(
        sys.metrics.nss_stale > 0,
        "duplicates were seen and ignored"
    );
}

#[test]
fn many_seeds_same_verdict() {
    // The collection outcome (not the schedule) is seed-independent.
    for seed in 0..8 {
        let mut sys = System::new(4, GcConfig::default(), faulty_net(0.2, 0.1), seed);
        let fig = scenarios::fig3(&mut sys);
        sys.remove_root(fig.a).unwrap();
        sys.run_for(SimDuration::from_millis(15_000));
        assert_eq!(
            sys.total_live_objects(),
            0,
            "seed {seed}: {:?}",
            sys.metrics
        );
        assert_eq!(sys.metrics.safety_violations(), 0, "seed {seed}");
    }
}
