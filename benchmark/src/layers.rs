//! Per-layer probes: host time of single public functions of each crate,
//! taken on clones of live state so the measured run is never perturbed.
//! Every probe adds `(nanoseconds, units)` under the metric's final name;
//! the reported value is the ratio over the whole traced run.

use crate::api::{DetectorCfg, Hop, ObjId, ProcId, ProcState, Queue, RefId, Sim, SimMicros};
use crate::rng::SplitMix;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Detections replayed per detector probe (each may run to the product's
/// own `detection_budget` of 16,384 CDMs).
const REPLAYED_DETECTIONS: usize = 4;
/// Table operations timed per remoting probe.
const TABLE_OPS: usize = 64;
/// Queue operations timed by the network probe.
const QUEUE_OPS: u64 = 20_000;
/// Runs of the threaded runtime (informational, unstable).
const THREADED_RUNS: usize = 10;

/// Sums of `(value, units)` per metric name.
#[derive(Default)]
pub struct Accs(BTreeMap<&'static str, (f64, f64)>);

impl Accs {
    pub fn add(&mut self, name: &'static str, value: f64, units: f64) {
        let e = self.0.entry(name).or_insert((0.0, 0.0));
        e.0 += value;
        e.1 += units;
    }

    /// Largest single value seen under `name` (kept in the first slot).
    pub fn max(&mut self, name: &'static str, value: f64) {
        let e = self.0.entry(name).or_insert((0.0, 1.0));
        e.0 = e.0.max(value);
    }

    /// `value / units`, or 0 when the probe never ran.
    pub fn ratio(&self, name: &str) -> f64 {
        match self.0.get(name) {
            Some(&(v, u)) if u > 0.0 => v / u,
            _ => 0.0,
        }
    }
}

fn ns_of<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (t.elapsed().as_nanos() as f64, r)
}

fn two_mut(procs: &mut [ProcState], a: usize, b: usize) -> (&mut ProcState, &mut ProcState) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = procs.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = procs.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// Heap, snapshot and remoting probes on one checkpoint.
pub fn probe_state(acc: &mut Accs, mut procs: Vec<ProcState>, now_us: SimMicros) {
    let n = procs.len();
    let live: usize = procs.iter().map(ProcState::live_objects).sum();
    acc.add("heap.live_objs", live as f64, 1.0);

    for p in procs.iter_mut() {
        let objs = p.live_objects().max(1) as f64;
        let edges = p.ref_fields().max(1) as f64;

        // acdgc-snapshot (read-only on the heap, so before the sweep).
        let (ns, _) = ns_of(|| p.summarize_reference());
        acc.add("snapshot.summarize_ref_ns_per_edge", ns, edges);
        let (ns, _) = ns_of(|| p.summarize_engine());
        acc.add("snapshot.summarize_engine_ns_per_edge", ns, edges);
        let (ns, engine) = ns_of(|| p.summarize_adaptive());
        acc.add("snapshot.summarize_adaptive_ns_per_edge", ns, edges);
        acc.add(
            "snapshot.adaptive_engine_share",
            f64::from(u8::from(engine)),
            1.0,
        );
        let (ns, snap) = ns_of(|| p.capture());
        acc.add(
            "snapshot.capture_ns_per_obj",
            ns,
            snap.objects().max(1) as f64,
        );
        let (ns, image) = ns_of(|| snap.encode());
        acc.add("snapshot.encode_ns_per_byte", ns, image.len() as f64);
        let (ns, ok) = ns_of(|| crate::api::Snapshot::decode(&image));
        assert!(ok, "compact codec must round-trip its own image");
        acc.add("snapshot.decode_ns_per_byte", ns, image.len() as f64);

        // acdgc-heap.
        let (ns, marked) = ns_of(|| p.heap_mark());
        acc.add("heap.mark_ns_per_obj", ns, objs);
        let (ns, _) = ns_of(|| p.heap_sweep(&marked));
        acc.add("heap.sweep_ns_per_obj", ns, objs);
        let (ns, _) = ns_of(|| {
            for _ in 0..TABLE_OPS {
                p.heap_alloc();
            }
        });
        acc.add("heap.alloc_ns", ns, TABLE_OPS as f64);
    }

    // acdgc-remoting: each process against its ring successor.
    if n < 2 {
        return;
    }
    for i in 0..n {
        let j = (i + 1) % n;
        let existing: Vec<RefId> = procs[i].stub_ids().into_iter().take(TABLE_OPS).collect();

        let (ns, hits) = ns_of(|| {
            existing
                .iter()
                .filter(|&&r| {
                    let owner = procs[i].stub_owner(r).expect("listed stub exists");
                    procs[i].pair_lookup(&procs[owner.index()], r)
                })
                .count()
        });
        std::hint::black_box(hits);
        acc.add("remoting.lookup_ns", ns, existing.len() as f64);

        let (ns, _) = ns_of(|| {
            for &r in &existing {
                let owner = procs[i].stub_owner(r).expect("listed stub exists").index();
                let (holder, owner) = two_mut(&mut procs, i, owner);
                holder.ic_bump(owner, r);
            }
        });
        acc.add("remoting.ic_bump_ns", ns, existing.len() as f64);

        let (holder, owner) = two_mut(&mut procs, i, j);
        let targets: Vec<ObjId> = (0..TABLE_OPS).map(|_| owner.heap_alloc()).collect();
        let (ns, _) = ns_of(|| {
            for (k, &target) in targets.iter().enumerate() {
                // Ids far above anything the simulator's allocator hands out.
                let r = RefId((1 << 40) + (i * TABLE_OPS + k) as u64);
                holder.pair_create(owner, r, target);
            }
        });
        acc.add("remoting.pair_create_ns", ns, TABLE_OPS as f64);
    }
    for i in 0..n {
        let stubs = procs[i].stub_count().max(1) as f64;
        let (ns, msgs) = ns_of(|| procs[i].nss_build(n, now_us));
        acc.add("remoting.nss_build_ns_per_stub", ns, stubs);
        for nss in &msgs {
            let dest = &mut procs[nss.to.index()];
            let scions = dest.scion_count().max(1) as f64;
            let (ns, _) = ns_of(|| dest.nss_apply(nss));
            acc.add("remoting.nss_apply_ns_per_scion", ns, scions);
        }
    }
}

/// Detector probes: replay a few detections over the cloned published
/// summaries with a benchmark-local walker (breadth first, like the
/// instant network). `eager` is the round's `eager_combine` in manual
/// mode, `None` under the periodic configuration.
pub fn probe_detector(
    acc: &mut Accs,
    mut procs: Vec<ProcState>,
    now_us: SimMicros,
    eager: Option<bool>,
) {
    let cfg = match eager {
        Some(e) => DetectorCfg::manual(e),
        None => DetectorCfg::periodic(),
    };
    let mut replayed = 0usize;
    for i in 0..procs.len() {
        let (ns, (scanned, picked)) = ns_of(|| procs[i].scan(now_us, &cfg));
        acc.add("core.scan_ns_per_scion", ns, scanned.max(1) as f64);
        for scion in picked {
            if replayed == REPLAYED_DETECTIONS {
                break;
            }
            replayed += 1;
            let (ns, first) = ns_of(|| procs[i].initiate(replayed as u64, scion, &cfg));
            acc.add("core.initiate_ns", ns, 1.0);
            let mut queue: VecDeque<Hop> = first.forwards.into();
            let mut deliveries = 0u64;
            while let Some(hop) = queue.pop_front() {
                deliveries += 1;
                let entries = hop.entries().max(1) as f64;
                acc.add("core.cdm_bytes_mean", hop.size_bytes() as f64, 1.0);
                let (ns, _) = ns_of(|| hop.matching());
                acc.add("core.match_ns_per_entry", ns, entries);
                let dest: ProcId = hop.dest;
                let (ns, step) = ns_of(|| procs[dest.index()].deliver(hop, &cfg));
                acc.add("core.deliver_ns", ns, 1.0);
                acc.add("core.deliver_ns_per_entry", ns, entries);
                queue.extend(step.forwards);
            }
            acc.max("core.deliveries_per_detection_max", deliveries as f64);
        }
    }
}

/// Queue probes on a network preloaded to the observed peak depth.
pub fn probe_net(acc: &mut Accs, procs: usize, peak_in_flight: usize, seed: u64) {
    let mut q = Queue::new(procs.max(2), seed);
    let preload = peak_in_flight as u64;
    for i in 0..preload {
        q.send(i);
    }
    let (ns, _) = ns_of(|| {
        for i in preload..preload + QUEUE_OPS {
            q.send(i);
        }
    });
    acc.add("net.send_ns", ns, QUEUE_OPS as f64);
    let (ns, popped) = ns_of(|| (0..QUEUE_OPS).filter(|_| q.pop().is_some()).count());
    assert_eq!(popped as u64, QUEUE_OPS);
    assert_eq!(q.in_flight() as u64, preload);
    acc.add("net.pop_ns", ns, QUEUE_OPS as f64);
}

/// Ten runs of the threaded runtime on an 8-process instance of the
/// `rings` generator (one wave, clean network). Informational only: the
/// quiescence vote sets the wall time and the counts do not repeat.
pub fn probe_threaded(acc: &mut Accs, seed: u64) {
    let (mut wall_ms, mut cdms, mut lgcs) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..THREADED_RUNS {
        let mut sim = Sim::manual(8, seed);
        let mut rng = SplitMix::new(seed).fork(0x7468_7265);
        let mut objects = 0;
        for i in 0..32 {
            let span = [2, 4, 8][i % 3];
            let start = rng.below(8);
            let ring: Vec<ProcId> = (0..span)
                .map(|k| ProcId(((start + k) % 8) as u16))
                .collect();
            sim.ring(&ring, 2, false);
            objects += span * 2;
        }
        let (ns, (delivered, lgc_runs, left)) =
            ns_of(|| sim.into_threaded_run(Duration::from_secs(20)));
        assert!(left <= objects, "the threaded run allocates nothing");
        wall_ms.push(ns / 1e6);
        cdms.push(delivered as f64);
        lgcs.push(lgc_runs as f64);
    }
    let min = wall_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let max = wall_ms.iter().copied().fold(0.0, f64::max);
    acc.add("threaded.quiesce_wall_ms_min", min, 1.0);
    acc.add(
        "threaded.quiesce_wall_ms_median",
        crate::stats::median(&wall_ms),
        1.0,
    );
    acc.add("threaded.quiesce_wall_ms_max", max, 1.0);
    acc.add(
        "threaded.cdms_delivered_median",
        crate::stats::median(&cdms),
        1.0,
    );
    acc.add("threaded.lgc_runs_median", crate::stats::median(&lgcs), 1.0);
}
