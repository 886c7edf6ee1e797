//! A6 companion: the two implementations of the paper (Rotor, in-VM vs
//! OBIWAN, user-level weak-reference monitor) differ only in *when* stub
//! death becomes visible to reference listing. Behavioural equivalence and
//! the latency difference are both asserted here.

use acdgc::model::{GcConfig, IntegrationMode, NetConfig, ProcId, SimDuration};
use acdgc::sim::{scenarios, System};

fn system(mode: IntegrationMode, seed: u64) -> System {
    System::new(
        4,
        GcConfig {
            integration: mode,
            monitor_period: SimDuration::from_millis(100),
            ..GcConfig::default()
        },
        NetConfig::default(),
        seed,
    )
}

#[test]
fn both_modes_reach_the_same_final_state() {
    for mode in [
        IntegrationMode::VmIntegrated,
        IntegrationMode::WeakRefMonitor,
    ] {
        let mut sys = system(mode, 70);
        let fig = scenarios::fig3(&mut sys);
        sys.remove_root(fig.a).unwrap();
        sys.run_for(SimDuration::from_millis(10_000));
        assert_eq!(sys.total_live_objects(), 0, "{mode:?}: {:?}", sys.metrics);
        assert_eq!(sys.total_scions(), 0, "{mode:?}");
        assert_eq!(sys.metrics.safety_violations(), 0, "{mode:?}");
    }
}

#[test]
fn weakref_mode_lags_by_up_to_one_monitor_period() {
    let measure = |mode: IntegrationMode| -> u64 {
        let mut sys = system(mode, 71);
        let a = sys.alloc(ProcId(0), 1);
        sys.add_root(a).unwrap();
        let b = sys.alloc(ProcId(1), 1);
        let r = sys.create_remote_ref(a, b).unwrap();
        sys.run_for(SimDuration::from_millis(500));
        sys.drop_remote_ref(a, r).unwrap();
        let cut = sys.clock();
        while sys.total_scions() > 0 {
            sys.run_for(SimDuration::from_millis(5));
            assert!(sys.clock() < cut + SimDuration::from_millis(30_000));
        }
        (sys.clock() - cut).as_millis()
    };
    let vm = measure(IntegrationMode::VmIntegrated);
    let weak = measure(IntegrationMode::WeakRefMonitor);
    assert!(
        weak >= vm,
        "user-level monitoring cannot be faster: vm={vm}ms weak={weak}ms"
    );
    assert!(
        weak <= vm + 250,
        "lag bounded by ~one monitor period + jitter: vm={vm}ms weak={weak}ms"
    );
}

#[test]
fn condemned_stub_resurrected_by_reimport_survives() {
    // OBIWAN subtlety: the monitor must pardon a proxy that became
    // reachable again between the LGC that condemned it and the monitor
    // pass (modelled by re-adding the reference to a live holder).
    let mut sys = System::new(
        2,
        GcConfig {
            integration: IntegrationMode::WeakRefMonitor,
            ..GcConfig::manual()
        },
        NetConfig::instant(),
        72,
    );
    let a = sys.alloc(ProcId(0), 1);
    sys.add_root(a).unwrap();
    let holder = sys.alloc(ProcId(0), 1);
    sys.add_local_ref(a, holder).unwrap();
    let b = sys.alloc(ProcId(1), 1);
    let r = sys.create_remote_ref(holder, b).unwrap();
    // The only holder drops the ref; LGC condemns the stub...
    sys.drop_remote_ref(holder, r).unwrap();
    sys.advance(SimDuration::from_millis(1));
    sys.run_lgc(ProcId(0));
    assert!(
        sys.proc(ProcId(0)).tables.stub(r).unwrap().condemned,
        "stub condemned after LGC"
    );
    // ...but before the monitor pass the mutator re-creates the reference
    // (sharing the pair): the stub must be pardoned, not reclaimed.
    let r2 = sys.create_remote_ref(a, b).unwrap();
    assert_eq!(r, r2, "pair shared");
    sys.run_monitor(ProcId(0));
    assert!(
        sys.proc(ProcId(0)).tables.stub(r).is_some(),
        "pardoned stub survives the monitor pass"
    );
    sys.collect_to_fixpoint(10);
    assert_eq!(sys.total_live_objects(), 3, "b stays alive through r");
    assert_eq!(sys.metrics.safety_violations(), 0);
}

#[test]
fn parallel_phases_are_observationally_identical() {
    // gc_round fans each phase (LGC, snapshot, candidate scan) out into
    // parallel per-process compute plus a sequential apply in
    // process-index order, so network sends, detection ids and metric
    // bumps must happen in exactly the sequence of the same round driven
    // by hand, one process at a time, through the public phase calls.
    // Same seed + same workload must therefore agree on *every* counter,
    // merged and per process — not just on the final object counts.
    fn by_hand(sys: &mut System) {
        let procs: Vec<ProcId> = (0..sys.num_procs() as u16).map(ProcId).collect();
        sys.advance(SimDuration::from_millis(1));
        procs.iter().for_each(|&p| sys.run_lgc(p));
        sys.drain_network();
        procs.iter().for_each(|&p| sys.run_monitor(p));
        sys.drain_network();
        procs.iter().for_each(|&p| sys.take_snapshot(p));
        procs.iter().for_each(|&p| sys.run_scan(p));
        sys.drain_network();
    }
    let run = |n: u16, round: fn(&mut System)| {
        let mut sys = System::new(n as usize, GcConfig::manual(), NetConfig::default(), 74);
        let procs: Vec<ProcId> = (0..n).map(ProcId).collect();
        let _live = scenarios::ring(&mut sys, &procs, 3, true);
        let _dead = scenarios::ring(&mut sys, &procs, 3, false);
        // `collect_to_fixpoint`'s policy, with the round swapped in.
        let progress = |sys: &System| {
            (
                sys.total_live_objects(),
                sys.total_scions(),
                sys.metrics.cycles_detected,
            )
        };
        let (mut rounds, mut quiet) = (0, 0);
        while quiet < 3 && rounds < 30 {
            rounds += 1;
            sys.config_mut().eager_combine = rounds % 2 == 0;
            let before = progress(&sys);
            round(&mut sys);
            quiet = if progress(&sys) == before {
                quiet + 1
            } else {
                0
            };
        }
        let per_proc: Vec<_> = procs.iter().map(|&p| *sys.metrics_for(p)).collect();
        (
            rounds,
            sys.metrics,
            per_proc,
            sys.total_live_objects(),
            sys.total_scions(),
            sys.clock(),
        )
    };
    // 4 processes, and 16 (the `rings` workload's count): more processes
    // than cores, so every phase splits into chunks run on several threads.
    for n in [4u16, 16] {
        let fanned_out = run(n, System::gc_round);
        let hand_driven = run(n, by_hand);
        assert_eq!(
            hand_driven, fanned_out,
            "gc_round's fan-out changed observable behaviour ({n} processes)"
        );
        assert!(fanned_out.1.cycles_detected >= 1, "the dead ring was found");
        assert_eq!(fanned_out.1.safety_violations(), 0);
        assert_eq!(
            fanned_out.3,
            n as usize * 3 + 1,
            "live ring + anchor survive"
        );
    }
}

#[test]
fn round_snapshots_reuse_the_collection_mark() {
    // Between a round's LGC and its snapshot only collector messages are
    // drained and the monitor runs; none of them writes a heap, so every
    // snapshot must reuse the condensation its process's LGC marked with.
    // A mutator edit in between makes that process's snapshot walk again.
    for n in [4u16, 16] {
        let mut sys = System::new(n as usize, GcConfig::manual(), NetConfig::default(), 74);
        let procs: Vec<ProcId> = (0..n).map(ProcId).collect();
        let live = scenarios::ring(&mut sys, &procs, 3, true);
        let _dead = scenarios::ring(&mut sys, &procs, 3, false);
        sys.drain_network();
        for round in 0..6 {
            sys.gc_round();
            for &p in &procs {
                let reused = sys.proc(p).engine.last_dispatch().reused;
                assert!(
                    reused,
                    "{n} processes, round {round}: {p:?} walked its heap"
                );
            }
        }
        assert!(sys.metrics.cycles_detected >= 1, "the dead ring was found");
        assert_eq!(sys.total_live_objects(), n as usize * 3 + 1);

        let (edited, quiet) = (procs[0], procs[1]);
        sys.run_lgc(edited);
        sys.add_local_ref(live.heads[0], live.heads[0]).unwrap();
        sys.take_snapshot(edited);
        assert!(!sys.proc(edited).engine.last_dispatch().reused);
        sys.take_snapshot(quiet);
        assert!(sys.proc(quiet).engine.last_dispatch().reused);
        assert_eq!(sys.metrics.safety_violations(), 0);
    }
}

#[test]
fn sampling_leaves_the_metrics_ledgers_bit_identical() {
    // Telemetry sampling is read-only observation: with the same seed and
    // workload, runs with sampling on and off must agree on every counter,
    // merged and per process, and on the final heap state — the sampler
    // may copy gauges out of a round, never perturb one.
    use acdgc::model::SamplingConfig;
    let run = |sampling: SamplingConfig| {
        let mut sys = System::new(
            4,
            GcConfig {
                sampling,
                ..GcConfig::manual()
            },
            NetConfig::default(),
            74,
        );
        let procs: Vec<ProcId> = (0..4).map(ProcId).collect();
        let _live = scenarios::ring(&mut sys, &procs, 3, true);
        let _dead = scenarios::ring(&mut sys, &procs, 3, false);
        let rounds = sys.collect_to_fixpoint(30);
        let per_proc: Vec<_> = procs.iter().map(|&p| *sys.metrics_for(p)).collect();
        (
            rounds,
            sys.metrics,
            per_proc,
            sys.total_live_objects(),
            sys.total_scions(),
            sys.clock(),
        )
    };
    let off = run(SamplingConfig::default());
    let on = run(SamplingConfig {
        enabled: true,
        sample_every: 1,
        capacity: 16,
    });
    assert_eq!(off, on, "sampling changed observable behaviour");
    assert_eq!(off.1.safety_violations(), 0);
    assert_eq!(off.3, 13, "live rings + anchor survive (4*3+1)");
}

#[test]
fn sampling_lamport_and_mutator_config_are_jointly_inert() {
    // Three-way parity: telemetry sampling, Lamport-stamped tracing, and
    // a fully-armed `MutatorConfig` flipped on *together* must leave a
    // sequential run bit-identical to the all-off run. Sampling, events
    // and the clocks piggybacked on every envelope are read-only
    // observation — no protocol decision may read them; the mutator
    // config only arms threads in the threaded runtime, so the sequential
    // scheduler must not so much as branch on it. Any drift in any
    // counter means one of the three leaked into protocol logic.
    use acdgc::model::{MutatorConfig, SamplingConfig, TraceConfig};
    let run = |sampling: SamplingConfig, trace: TraceConfig, mutator: MutatorConfig| {
        let mut sys = System::new(
            4,
            GcConfig {
                sampling,
                trace,
                mutator,
                ..GcConfig::manual()
            },
            NetConfig::default(),
            74,
        );
        let procs: Vec<ProcId> = (0..4).map(ProcId).collect();
        let _live = scenarios::ring(&mut sys, &procs, 3, true);
        let _dead = scenarios::ring(&mut sys, &procs, 3, false);
        let rounds = sys.collect_to_fixpoint(30);
        let per_proc: Vec<_> = procs.iter().map(|&p| *sys.metrics_for(p)).collect();
        (
            rounds,
            sys.metrics,
            per_proc,
            sys.total_live_objects(),
            sys.total_scions(),
            sys.clock(),
        )
    };
    let off = run(
        SamplingConfig::default(),
        TraceConfig::default(),
        MutatorConfig::default(),
    );
    let all_on = run(
        SamplingConfig {
            enabled: true,
            sample_every: 1,
            capacity: 16,
        },
        TraceConfig::on(),
        MutatorConfig {
            enabled: true,
            threads: 2,
            ops_per_thread: 500,
            ..MutatorConfig::default()
        },
    );
    assert_eq!(
        off, all_on,
        "sampling + tracing + mutator config changed sequential behaviour"
    );
    assert_eq!(off.1.safety_violations(), 0);
    assert_eq!(off.3, 13, "live rings + anchor survive (4*3+1)");
}

#[test]
fn modes_agree_under_churn() {
    // Same seed, same workload, different integration mode: final state
    // must agree (the mode changes timing, never outcomes).
    let run = |mode: IntegrationMode| -> (usize, usize) {
        let mut sys = system(mode, 73);
        let procs: Vec<ProcId> = (0..4).map(ProcId).collect();
        let live = scenarios::ring(&mut sys, &procs, 2, true);
        let _dead = scenarios::ring(&mut sys, &procs, 2, false);
        sys.run_for(SimDuration::from_millis(15_000));
        let _ = live;
        (sys.total_live_objects(), sys.total_scions())
    };
    let vm = run(IntegrationMode::VmIntegrated);
    let weak = run(IntegrationMode::WeakRefMonitor);
    assert_eq!(vm, weak, "modes converge to identical state");
    assert_eq!(vm.0, 9, "live ring + anchor survive (4*2+1)");
}
