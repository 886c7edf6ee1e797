//! Shared fixtures for the `experiments` binary.
//!
//! Every paper table/figure reproduction lives in
//! `src/bin/experiments.rs` — the deterministic harness that prints the
//! paper-shaped tables (rows and series, counts and ratios) and emits JSON
//! consumed by EXPERIMENTS.md. Wall-time cost per layer, and what tracing
//! costs when switched on (`bench.trace_overhead_pct`), is the repo
//! benchmark's job (`benchmark/`, `--trace 1`).

use acdgc_heap::{Heap, HeapRef};
use acdgc_model::{GcConfig, NetConfig, ObjId, ProcId, RefId, SimDuration};
use acdgc_remoting::RemotingTables;
use acdgc_sim::{scenarios, InvokeSpec, System};

/// A system tuned for measurement: manual GC phases, instant reliable
/// network, oracle checks off: each audit is one pass over every live
/// object of every heap, before each collection, which a timed loop
/// should not pay.
fn bench_system(procs: usize, seed: u64) -> System {
    let mut sys = System::new(procs, GcConfig::manual(), NetConfig::instant(), seed);
    sys.check_safety = false;
    sys
}

/// Simulated argument marshalling: a real remoting stack serializes every
/// argument object (Table 1's cost baseline is dominated by exactly this —
/// the DGC instrumentation is a fractional addition on top). Encodes each
/// argument's payload and fields into a wire buffer, like the compact
/// snapshot codec does.
fn marshal_call_args(sys: &System, args: &[ObjId], wire: &mut Vec<u8>) -> usize {
    wire.clear();
    for &arg in args {
        let record = sys.proc(arg.proc).heap.get(arg).expect("live argument");
        // Header: slot, generation, field count.
        wire.extend_from_slice(&arg.slot.to_le_bytes());
        wire.extend_from_slice(&record.generation.to_le_bytes());
        wire.extend_from_slice(&(record.refs.len() as u32).to_le_bytes());
        for r in &record.refs {
            match r {
                acdgc_heap::HeapRef::Local(slot) => {
                    wire.push(0);
                    wire.extend_from_slice(&slot.to_le_bytes());
                }
                acdgc_heap::HeapRef::Remote(ref_id) => {
                    wire.push(1);
                    wire.extend_from_slice(&ref_id.0.to_le_bytes());
                }
            }
        }
        // Payload body: LEB128 per word, like a real wire format (the
        // encoding work is the point — RMI cost is marshalling-dominated).
        for w in 0..record.payload_words {
            let mut v = (u64::from(w) ^ 0xdead_beef).wrapping_mul(0x9e37_79b9);
            loop {
                let byte = (v & 0x7f) as u8;
                v >>= 7;
                if v == 0 {
                    wire.push(byte);
                    break;
                }
                wire.push(byte | 0x80);
            }
        }
    }
    std::hint::black_box(wire.len())
}

/// The Table 1 workload: `calls` remote invocations, each exporting
/// `refs_per_call` fresh references (the paper's "remote method with 10
/// arguments"), between two co-located processes. Both variants pay the
/// marshalling cost; only the instrumented one pays DGC bookkeeping.
/// Returns the system for inspection.
pub fn run_table1_workload(
    calls: usize,
    refs_per_call: usize,
    instrumented: bool,
    seed: u64,
) -> System {
    let mut sys = bench_system(2, seed);
    sys.config_mut().instrument_remoting = instrumented;
    let client = ProcId(0);
    let server_obj = sys.alloc(ProcId(1), 4);
    let root = sys.alloc(client, 1);
    sys.add_root(root).unwrap();
    sys.add_root(server_obj).unwrap();
    let service = sys.create_remote_ref(root, server_obj).unwrap();
    let mut wire = Vec::with_capacity(16 * 1024);
    for _ in 0..calls {
        // Fresh argument objects each call, like a real RMI workload; the
        // payload size models a typical few-KB argument record.
        let args: Vec<ObjId> = (0..refs_per_call)
            .map(|_| {
                let o = sys.alloc(client, 512);
                sys.add_local_ref(root, o).unwrap();
                o
            })
            .collect();
        marshal_call_args(&sys, &args, &mut wire);
        sys.invoke(client, service, InvokeSpec::exporting(args))
            .unwrap();
        sys.drain_network();
    }
    sys
}

/// The serialization workload of §4: a chain of `n` "dummy objects (just
/// holding a reference)", optionally with one remote reference per object
/// (the "+10000 stubs" variant).
pub fn serialization_heap(n: usize, with_stubs: bool) -> (Heap, RemotingTables) {
    let proc = ProcId(0);
    let mut heap = Heap::new(proc);
    let mut tables = RemotingTables::new(proc);
    let ids: Vec<ObjId> = (0..n).map(|_| heap.alloc(1)).collect();
    for pair in ids.windows(2) {
        heap.add_ref(pair[0], HeapRef::Local(pair[1].slot)).unwrap();
    }
    heap.add_root(ids[0]).unwrap();
    if with_stubs {
        for (i, &id) in ids.iter().enumerate() {
            let ref_id = RefId(i as u64);
            tables.add_stub(
                ref_id,
                ObjId::new(ProcId(1), i as u32, 0),
                acdgc_model::SimTime(0),
            );
            heap.add_ref(id, HeapRef::Remote(ref_id)).unwrap();
        }
    }
    (heap, tables)
}

/// Build a garbage ring spanning `procs` processes and prepare summaries
/// so a detection can run immediately. Returns the system and the
/// candidate scion (at process 0).
pub fn prepared_ring(procs: usize, objs_per_proc: usize, seed: u64) -> (System, RefId) {
    let mut sys = bench_system(procs, seed);
    let ids: Vec<ProcId> = (0..procs as u16).map(ProcId).collect();
    let ring = scenarios::ring(&mut sys, &ids, objs_per_proc, false);
    sys.advance(SimDuration::from_millis(1));
    for p in 0..procs {
        sys.run_lgc(ProcId(p as u16));
    }
    sys.drain_network();
    for p in 0..procs {
        sys.take_snapshot(ProcId(p as u16));
    }
    (sys, ring.refs[0])
}

/// Build Fig. 4 (mutually-linked cycles) ready for detection. Returns the
/// system plus the candidate (process, scion).
pub fn prepared_fig4(seed: u64) -> (System, ProcId, RefId) {
    let mut sys = bench_system(6, seed);
    let fig = scenarios::fig4(&mut sys);
    sys.advance(SimDuration::from_millis(1));
    for p in 0..6 {
        sys.take_snapshot(ProcId(p));
    }
    (sys, fig.p2, fig.r_df)
}

/// Run one detection from `scion` at `proc` to completion (drains all CDM
/// traffic). Returns cycles detected.
pub fn run_detection(sys: &mut System, proc: ProcId, scion: RefId) -> u64 {
    let before = sys.metrics.cycles_detected;
    sys.initiate_detection(proc, scion);
    sys.drain_network();
    sys.metrics.cycles_detected - before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_workload_counts() {
        let sys = run_table1_workload(10, 10, true, 1);
        assert_eq!(sys.metrics.invocations, 10);
        assert_eq!(sys.metrics.refs_exported, 100);
        // Every export created a scion at the client and a stub at the
        // server (plus the initial service pair).
        assert_eq!(sys.proc(ProcId(0)).tables.scion_count(), 100);
        assert_eq!(sys.proc(ProcId(1)).tables.stub_count(), 100);
        let uninstrumented = run_table1_workload(10, 10, false, 1);
        assert_eq!(uninstrumented.proc(ProcId(0)).tables.scion_count(), 0);
    }

    #[test]
    fn serialization_heap_shape() {
        let (heap, tables) = serialization_heap(100, true);
        assert_eq!(heap.stats().live_objects, 100);
        assert_eq!(tables.stub_count(), 100);
        let (heap, tables) = serialization_heap(100, false);
        assert_eq!(heap.stats().live_objects, 100);
        assert_eq!(tables.stub_count(), 0);
    }

    #[test]
    fn prepared_ring_detects_in_one_pass() {
        let (mut sys, scion) = prepared_ring(4, 2, 3);
        assert_eq!(run_detection(&mut sys, ProcId(0), scion), 1);
    }

    #[test]
    fn prepared_fig4_detects() {
        // Both derivations (the V-branch and the K-branch) may conclude,
        // one per mutually-linked cycle.
        let (mut sys, proc, scion) = prepared_fig4(3);
        let found = run_detection(&mut sys, proc, scion);
        assert!((1..=2).contains(&found), "found {found}");
    }
}
