//! Graph summarization cost (§3 "Graph Summarization" / §4): transforming
//! a process snapshot into the scion/stub association form, as a function
//! of object count and of scion count (the per-scion BFS dominates).

use acdgc_bench::serialization_heap;
use acdgc_heap::{Heap, HeapRef};
use acdgc_model::{ObjId, ProcId, RefId, SimTime};
use acdgc_remoting::RemotingTables;
use acdgc_snapshot::{summarize, SccEngine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// CI smoke mode (`ACDGC_BENCH_SMOKE=1`): run only the `disjoint_chains`
/// group, one topology, minimum samples — proves the bench harness builds
/// and runs without paying measurement time. The vendored criterion
/// stand-in accepts-and-ignores CLI filters, so the gate is an env var.
fn smoke() -> bool {
    std::env::var_os("ACDGC_BENCH_SMOKE").is_some()
}

/// A heap with `n` objects in `s` scion-rooted chains, each chain ending
/// in a stub: summarization does `s` BFS passes of `n/s` objects.
fn scion_heavy_heap(n: usize, s: usize) -> (Heap, RemotingTables) {
    let proc = ProcId(0);
    let mut heap = Heap::new(proc);
    let mut tables = RemotingTables::new(proc);
    let per_chain = (n / s).max(1);
    for chain in 0..s {
        let ids: Vec<ObjId> = (0..per_chain).map(|_| heap.alloc(1)).collect();
        for pair in ids.windows(2) {
            heap.add_ref(pair[0], HeapRef::Local(pair[1].slot)).unwrap();
        }
        let scion_ref = RefId(chain as u64);
        let stub_ref = RefId((s + chain) as u64);
        tables.add_scion(scion_ref, ids[0], ProcId(1), SimTime(0));
        tables.add_stub(stub_ref, ObjId::new(ProcId(1), chain as u32, 0), SimTime(0));
        heap.add_ref(*ids.last().unwrap(), HeapRef::Remote(stub_ref))
            .unwrap();
    }
    (heap, tables)
}

/// The per-scion formulation's worst case: `s` scion-targeted entry
/// objects all feeding one shared chain of `n - s` objects that ends in a
/// spread of stubs. Every one of the `s` reference BFS passes re-walks the
/// whole shared chain (O(s·n) object visits); the SCC engine walks it
/// once.
fn converging_scion_heap(n: usize, s: usize) -> (Heap, RemotingTables) {
    let proc = ProcId(0);
    let mut heap = Heap::new(proc);
    let mut tables = RemotingTables::new(proc);
    let shared: Vec<ObjId> = (0..n.saturating_sub(s).max(1))
        .map(|_| heap.alloc(1))
        .collect();
    for pair in shared.windows(2) {
        heap.add_ref(pair[0], HeapRef::Local(pair[1].slot)).unwrap();
    }
    let stubs = 64.min(shared.len());
    for i in 0..stubs {
        let r = RefId((s + i) as u64);
        tables.add_stub(r, ObjId::new(ProcId(1), i as u32, 0), SimTime(0));
        heap.add_ref(shared[shared.len() - 1 - i], HeapRef::Remote(r))
            .unwrap();
    }
    for i in 0..s {
        let entry = heap.alloc(1);
        heap.add_ref(entry, HeapRef::Local(shared[0].slot)).unwrap();
        tables.add_scion(RefId(i as u64), entry, ProcId(1), SimTime(0));
    }
    (heap, tables)
}

fn bench_summarize(c: &mut Criterion) {
    if smoke() {
        return;
    }
    let mut group = c.benchmark_group("summarization");
    group.sample_size(10);
    for &n in &[1_000usize, 10_000] {
        let (heap, tables) = serialization_heap(n, true);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("chain_with_stubs", n), &n, |b, _| {
            b.iter(|| black_box(summarize(&heap, &tables, 1, SimTime(0))))
        });
    }
    for &scions in &[1usize, 10, 100] {
        let (heap, tables) = scion_heavy_heap(10_000, scions);
        group.bench_with_input(
            BenchmarkId::new("10k_objs_by_scion_count", scions),
            &scions,
            |b, _| b.iter(|| black_box(summarize(&heap, &tables, 1, SimTime(0)))),
        );
    }
    // Engine vs reference on the scion-heavy topologies that motivate the
    // SCC engine (acceptance target: engine ≥5× faster at n=10_000,
    // s=n/10 on the converging topology). The disjoint-chain comparison
    // isolates the reference's per-scion setup overhead; the converging
    // one exercises its O(s·(V+E)) re-traversal.
    for &(n, s) in &[(10_000usize, 1_000usize), (10_000, 100)] {
        let disjoint = scion_heavy_heap(n, s);
        let converging = converging_scion_heap(n, s);
        for (label, (heap, tables)) in [("disjoint", &disjoint), ("converging", &converging)] {
            group.bench_with_input(
                BenchmarkId::new(format!("reference_{label}"), format!("{n}x{s}")),
                &s,
                |b, _| b.iter(|| black_box(summarize(heap, tables, 1, SimTime(0)))),
            );
            let mut engine = SccEngine::new();
            group.bench_with_input(
                BenchmarkId::new(format!("engine_{label}"), format!("{n}x{s}")),
                &s,
                |b, _| b.iter(|| black_box(engine.summarize(heap, tables, 1, SimTime(0)))),
            );
            let mut adaptive = SccEngine::new();
            group.bench_with_input(
                BenchmarkId::new(format!("adaptive_{label}"), format!("{n}x{s}")),
                &s,
                |b, _| {
                    b.iter(|| black_box(adaptive.summarize_adaptive(heap, tables, 1, SimTime(0))))
                },
            );
        }
    }
    group.finish();
}

/// The engine-loses topology, isolated: many short disjoint chains. The
/// reference summarizer's per-scion BFS touches each chain once (O(V)
/// total), while the dense engine pays a scion-count-wide bitset union per
/// component. Adaptive dispatches to the engine here but with chain
/// aliasing (out-degree ≤ 1 components inherit their successor's reach set
/// by reference), which removes exactly that width term — it must land
/// within 10% of the better of the two dedicated paths.
fn bench_disjoint_chains(c: &mut Criterion) {
    let mut group = c.benchmark_group("disjoint_chains");
    group.sample_size(if smoke() { 2 } else { 10 });
    let cases: &[(usize, usize)] = if smoke() {
        &[(1_000, 100)]
    } else {
        &[(10_000, 1_000), (10_000, 100), (50_000, 5_000)]
    };
    for &(n, s) in cases {
        let (heap, tables) = scion_heavy_heap(n, s);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("reference", format!("{n}x{s}")),
            &s,
            |b, _| b.iter(|| black_box(summarize(&heap, &tables, 1, SimTime(0)))),
        );
        let mut engine = SccEngine::new();
        group.bench_with_input(
            BenchmarkId::new("engine", format!("{n}x{s}")),
            &s,
            |b, _| b.iter(|| black_box(engine.summarize(&heap, &tables, 1, SimTime(0)))),
        );
        let mut adaptive = SccEngine::new();
        group.bench_with_input(
            BenchmarkId::new("adaptive", format!("{n}x{s}")),
            &s,
            |b, _| b.iter(|| black_box(adaptive.summarize_adaptive(&heap, &tables, 1, SimTime(0)))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_summarize, bench_disjoint_chains);
criterion_main!(benches);
