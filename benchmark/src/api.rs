//! The one module that calls into the repo's crates.
//!
//! Everything the benchmark needs from `acdgc-*` goes through here, so the
//! public surface the benchmark holds still is exactly the list of
//! functions named in this file (README, "Pinned API"). The rest of the
//! benchmark sees plain data (`ObjId`, `RefId`, counters) and the wrappers
//! below. Nothing here times anything: callers bracket these calls with
//! `Instant::now()`.

use acdgc_dcda::{scan_candidates, Cdm, Outcome};
use acdgc_heap::lgc;
#[cfg(test)]
use acdgc_heap::HeapRef;
use acdgc_model::{DetectionId, GcConfig, NetConfig, SimDuration, SimTime};
use acdgc_net::{MessageClass, Network};
use acdgc_remoting::{apply_new_set_stubs, build_new_set_stubs};
use acdgc_sim::threaded::{run_concurrent_collection_observed, ThreadedOptions};
use acdgc_sim::{merged_metrics, scenarios, InvokeSpec, Process, System};
use acdgc_snapshot::{capture, summarize, CompactCodec, SnapshotCodec, SummarizePath};

pub use acdgc_model::{ObjId, ProcId, RefId};
pub use acdgc_net::NetStats;
pub use acdgc_sim::Metrics;

/// Every simulator and network counter as one flat JSON object.
pub fn counters_json(m: &Metrics, n: &NetStats) -> serde_json::Value {
    let mut all = match m.to_json() {
        serde_json::Value::Object(map) => map,
        _ => unreachable!("Metrics::to_json builds an object"),
    };
    for (k, v) in [
        ("net_sent", n.sent),
        ("net_delivered", n.delivered),
        ("net_dropped", n.dropped),
        ("net_duplicated", n.duplicated),
        ("net_bytes_sent", n.bytes_sent),
        ("net_gc_sent", n.gc_sent),
        ("net_gc_bytes_sent", n.gc_bytes_sent),
    ] {
        all.insert(k.to_string(), v.into());
    }
    serde_json::Value::Object(all)
}

/// Simulated microseconds (one `SimTime` tick).
pub type SimMicros = u64;

/// The network of `churn_lossy`: 0.1–2 ms latency, 30 % GC-message drop,
/// 10 % duplication. The only non-default network the benchmark builds.
fn lossy_net() -> NetConfig {
    NetConfig {
        min_latency: SimDuration::from_micros(100),
        max_latency: SimDuration::from_micros(2_000),
        gc_drop_probability: 0.30,
        gc_duplicate_probability: 0.10,
    }
}

/// The sequential simulator, as the benchmark drives it.
pub struct Sim(System);

impl Sim {
    /// `GcConfig::manual()` over `NetConfig::instant()`.
    pub fn manual(procs: usize, seed: u64) -> Sim {
        Sim(System::new(
            procs,
            GcConfig::manual(),
            NetConfig::instant(),
            seed,
        ))
    }

    /// `GcConfig::default()` (periodic phases) over the lossy network.
    pub fn periodic_lossy(procs: usize, seed: u64) -> Sim {
        Sim(System::new(procs, GcConfig::default(), lossy_net(), seed))
    }

    pub fn set_check_safety(&mut self, on: bool) {
        self.0.check_safety = on;
    }

    pub fn num_procs(&self) -> usize {
        self.0.num_procs()
    }

    pub fn clock_us(&self) -> SimMicros {
        self.0.clock().as_ticks()
    }

    // --- mutator ---------------------------------------------------------

    pub fn alloc(&mut self, p: ProcId) -> ObjId {
        self.0.alloc(p, 1)
    }

    pub fn add_root(&mut self, obj: ObjId) {
        self.0.add_root(obj).expect("rooting a live object");
    }

    pub fn remove_root(&mut self, obj: ObjId) {
        self.0.remove_root(obj).expect("unrooting a live object");
    }

    pub fn add_local_ref(&mut self, from: ObjId, to: ObjId) {
        self.0
            .add_local_ref(from, to)
            .expect("local edge between live objects");
    }

    pub fn create_remote_ref(&mut self, from: ObjId, to: ObjId) -> RefId {
        self.0
            .create_remote_ref(from, to)
            .expect("remote edge between live objects")
    }

    pub fn drop_remote_ref(&mut self, from: ObjId, r: RefId) {
        self.0
            .drop_remote_ref(from, r)
            .expect("holder still holds the reference");
    }

    /// `scenarios::ring` with `objs_per_proc` chained objects per process;
    /// returns (heads in ring order, references in ring order, anchor).
    pub fn ring(
        &mut self,
        procs: &[ProcId],
        objs_per_proc: usize,
        anchored: bool,
    ) -> (Vec<ObjId>, Vec<RefId>, Option<ObjId>) {
        let ring = scenarios::ring(&mut self.0, procs, objs_per_proc, anchored);
        (ring.heads, ring.refs, ring.anchor)
    }

    /// One-way invocation through `via`; false if the stub is gone.
    pub fn invoke_oneway(&mut self, caller: ProcId, via: RefId) -> bool {
        self.0.invoke(caller, via, InvokeSpec::oneway()).is_ok()
    }

    /// Invocation through `via` exporting `objs` to the callee.
    pub fn invoke_exporting(&mut self, caller: ProcId, via: RefId, objs: Vec<ObjId>) {
        self.0
            .invoke(caller, via, InvokeSpec::exporting(objs))
            .expect("service reference and exports are live");
    }

    /// The reference through which `holder` designates `target`, if any.
    pub fn stub_for_target(&self, holder: ProcId, target: ObjId) -> Option<RefId> {
        self.0
            .proc(holder)
            .tables
            .stub_for_target(target)
            .map(|s| s.ref_id)
    }

    // --- collector -------------------------------------------------------

    pub fn gc_round(&mut self) {
        self.0.gc_round();
    }

    pub fn run_for_us(&mut self, us: SimMicros) {
        self.0.run_for(SimDuration::from_micros(us));
    }

    pub fn advance_us(&mut self, us: SimMicros) {
        self.0.advance(SimDuration::from_micros(us));
    }

    pub fn run_lgc(&mut self, p: ProcId) {
        self.0.run_lgc(p);
    }

    pub fn run_monitor(&mut self, p: ProcId) {
        self.0.run_monitor(p);
    }

    pub fn take_snapshot(&mut self, p: ProcId) {
        self.0.take_snapshot(p);
    }

    pub fn run_scan(&mut self, p: ProcId) {
        self.0.run_scan(p);
    }

    pub fn drain_network(&mut self) {
        self.0.drain_network();
    }

    pub fn step(&mut self) -> bool {
        self.0.step()
    }

    pub fn next_event_at_us(&self) -> Option<SimMicros> {
        self.0.next_event_at().map(SimTime::as_ticks)
    }

    pub fn messages_in_flight(&self) -> usize {
        self.0.messages_in_flight()
    }

    pub fn eager_combine(&self) -> bool {
        self.0.config().eager_combine
    }

    pub fn set_eager_combine(&mut self, on: bool) {
        self.0.config_mut().eager_combine = on;
    }

    // --- observation -----------------------------------------------------

    pub fn contains(&self, obj: ObjId) -> bool {
        self.0.proc(obj.proc).heap.contains(obj)
    }

    pub fn total_live_objects(&self) -> usize {
        self.0.total_live_objects()
    }

    pub fn total_scions(&self) -> usize {
        self.0.total_scions()
    }

    pub fn metrics(&self) -> Metrics {
        self.0.metrics
    }

    pub fn net_stats(&self) -> NetStats {
        self.0.net_stats()
    }

    /// `safety_violations()` plus invocations that found their scion gone.
    pub fn violations(&self) -> u64 {
        self.0.metrics.safety_violations() + self.0.metrics.invoke_on_missing_scion
    }

    pub fn check_invariants(&self) -> Result<(), String> {
        self.0.check_invariants()
    }

    /// Allocated objects the oracle says are unreachable. The oracle only
    /// ever names allocated objects, so the difference of sizes is exact.
    pub fn garbage_left(&self) -> usize {
        self.0.total_live_objects() - self.0.oracle_live().len()
    }

    /// Clone every process's state for per-layer timing off the measured
    /// path.
    pub fn checkpoint(&self) -> Vec<ProcState> {
        self.0.procs().iter().cloned().map(ProcState).collect()
    }

    /// Run the threaded runtime over this system's processes (clean
    /// network); returns (cdms delivered, lgc runs, objects left).
    pub fn into_threaded_run(self, deadline: std::time::Duration) -> (u64, u64, usize) {
        let cfg = self.0.config().clone();
        let run = run_concurrent_collection_observed(
            self.0.into_procs(),
            cfg,
            ThreadedOptions {
                deadline,
                ..ThreadedOptions::default()
            },
        );
        let merged = merged_metrics(&run.procs);
        let left = run.procs.iter().map(|p| p.heap.stats().live_objects).sum();
        (merged.cdms_delivered, merged.lgc_runs, left)
    }
}

/// A clone of one process's live state, for timing single layers.
#[derive(Clone)]
pub struct ProcState(Process);

/// What `heap_mark` hands to `heap_sweep`.
pub struct Marked(lgc::MarkResult);

/// A captured snapshot (`acdgc_snapshot::capture`).
pub struct Snapshot(acdgc_snapshot::SnapshotData);

impl ProcState {
    pub fn live_objects(&self) -> usize {
        self.0.heap.stats().live_objects
    }

    pub fn ref_fields(&self) -> u64 {
        self.0.heap.stats().ref_fields
    }

    pub fn stub_count(&self) -> usize {
        self.0.tables.stub_count()
    }

    pub fn scion_count(&self) -> usize {
        self.0.tables.scion_count()
    }

    // --- acdgc-heap ------------------------------------------------------

    pub fn heap_mark(&self) -> Marked {
        let targets = self.0.tables.scion_target_slots();
        Marked(lgc::mark(&self.0.heap, &targets))
    }

    /// Returns objects freed.
    pub fn heap_sweep(&mut self, marked: &Marked) -> usize {
        lgc::sweep(&mut self.0.heap, &marked.0.live, &marked.0.live_stubs)
            .freed
            .len()
    }

    pub fn heap_alloc(&mut self) -> ObjId {
        self.0.heap.alloc(1)
    }

    // --- acdgc-snapshot --------------------------------------------------

    /// Reference BFS summarizer; returns (scions, stubs) summarized.
    pub fn summarize_reference(&self) -> (usize, usize) {
        let s = summarize(&self.0.heap, &self.0.tables, 1, SimTime::ZERO);
        (s.scions.len(), s.stubs.len())
    }

    pub fn summarize_engine(&mut self) -> (usize, usize) {
        let p = &mut self.0;
        let s = p
            .engine
            .summarize_condensed(&p.heap, &p.tables, 1, SimTime::ZERO);
        (s.scions.len(), s.stubs.len())
    }

    /// Adaptive dispatch; the bool is whether it chose the engine.
    pub fn summarize_adaptive(&mut self) -> bool {
        let p = &mut self.0;
        let s = p
            .engine
            .summarize_adaptive(&p.heap, &p.tables, 1, SimTime::ZERO);
        std::hint::black_box(s.scions.len());
        p.engine.last_dispatch().path == SummarizePath::Engine
    }

    pub fn capture(&self) -> Snapshot {
        Snapshot(capture(&self.0.heap, &self.0.tables, SimTime::ZERO))
    }

    // --- acdgc-remoting --------------------------------------------------

    /// `add_stub` here plus `add_scion` at `owner` for a fresh pair.
    pub fn pair_create(&mut self, owner: &mut ProcState, r: RefId, target: ObjId) {
        let holder = self.0.proc();
        self.0.tables.add_stub(r, target, SimTime::ZERO);
        owner.0.tables.add_scion(r, target, holder, SimTime::ZERO);
    }

    pub fn stub_ids(&self) -> Vec<RefId> {
        let mut ids: Vec<RefId> = self.0.tables.stubs().map(|s| s.ref_id).collect();
        ids.sort_unstable();
        ids
    }

    /// Owning process of the scion paired with stub `r`.
    pub fn stub_owner(&self, r: RefId) -> Option<ProcId> {
        self.0.tables.stub(r).map(|s| s.target.proc)
    }

    /// `stub(r)` here and `scion(r)` at `owner`; true if both exist.
    pub fn pair_lookup(&self, owner: &ProcState, r: RefId) -> bool {
        self.0.tables.stub(r).is_some() && owner.0.tables.scion(r).is_some()
    }

    /// `record_send_through_stub` here + `record_receive_through_scion`
    /// at `owner`.
    pub fn ic_bump(&mut self, owner: &mut ProcState, r: RefId) -> bool {
        self.0.tables.record_send_through_stub(r).is_ok()
            && owner
                .0
                .tables
                .record_receive_through_scion(r, SimTime::ZERO)
                .is_ok()
    }

    /// `build_new_set_stubs` towards every peer; returns the messages.
    pub fn nss_build(&mut self, num_procs: usize, now_us: SimMicros) -> Vec<Nss> {
        let me = self.0.proc();
        let peers: Vec<ProcId> = (0..num_procs as u16)
            .map(ProcId)
            .filter(|&q| q != me)
            .collect();
        build_new_set_stubs(&mut self.0.tables, &peers, SimTime(now_us))
            .into_iter()
            .map(|(to, msg)| Nss { to, msg })
            .collect()
    }

    /// `apply_new_set_stubs`; returns scions removed.
    pub fn nss_apply(&mut self, nss: &Nss) -> usize {
        apply_new_set_stubs(&mut self.0.tables, &nss.msg)
            .removed
            .len()
    }

    // --- acdgc-dcda ------------------------------------------------------

    /// `scan_candidates` over this clone's published summary (default
    /// manual config: no age, no backoff); returns (scions scanned, picked).
    pub fn scan(&mut self, now_us: SimMicros, cfg: &DetectorCfg) -> (usize, Vec<RefId>) {
        let p = &mut self.0;
        let picked = scan_candidates(&p.summary, &mut p.candidates, SimTime(now_us), &cfg.0).picked;
        (p.summary.scions.len(), picked)
    }

    /// `Cdm::initiate` + `acdgc_dcda::initiate` from `scion`.
    pub fn initiate(&self, detection: u64, scion: RefId, cfg: &DetectorCfg) -> Step {
        let Some(s) = self.0.summary.scion(scion) else {
            return Step::default();
        };
        let cdm = Cdm::initiate(DetectionId(detection), self.0.proc(), scion, s.ic);
        Step::from(acdgc_dcda::initiate(&self.0.summary, cdm, scion, &cfg.0))
    }

    /// `acdgc_dcda::deliver` of `hop` against this clone's summary.
    pub fn deliver(&self, hop: Hop, cfg: &DetectorCfg) -> Step {
        Step::from(acdgc_dcda::deliver(
            &self.0.summary,
            hop.cdm,
            hop.via,
            &cfg.0,
        ))
    }
}

impl Snapshot {
    pub fn objects(&self) -> usize {
        self.0.objects.len()
    }

    pub fn encode(&self) -> Vec<u8> {
        CompactCodec.encode(&self.0).to_vec()
    }

    pub fn decode(image: &[u8]) -> bool {
        CompactCodec.decode(image).is_ok()
    }
}

/// One `NewSetStubs` message and its destination.
pub struct Nss {
    pub to: ProcId,
    msg: acdgc_remoting::NewSetStubs,
}

/// The detector configuration a workload runs under.
pub struct DetectorCfg(GcConfig);

impl DetectorCfg {
    pub fn manual(eager_combine: bool) -> DetectorCfg {
        DetectorCfg(GcConfig {
            eager_combine,
            ..GcConfig::manual()
        })
    }

    pub fn periodic() -> DetectorCfg {
        DetectorCfg(GcConfig::default())
    }
}

/// A CDM in flight between two summaries.
#[derive(Clone)]
pub struct Hop {
    pub dest: ProcId,
    via: RefId,
    cdm: Cdm,
}

impl Hop {
    /// Algebra entries carried (source + target sets).
    pub fn entries(&self) -> usize {
        self.cdm.source.len() + self.cdm.target.len()
    }

    /// Wire size as `System` accounts it.
    pub fn size_bytes(&self) -> usize {
        8 + self.cdm.size_bytes()
    }

    /// `Cdm::matching` under the IC barrier; true on a cycle verdict.
    pub fn matching(&self) -> bool {
        matches!(self.cdm.matching(true), acdgc_dcda::MatchResult::CycleFound)
    }
}

/// What one `initiate`/`deliver` produced: the CDMs to forward (none
/// when the walk ended there, whatever the verdict).
#[derive(Default)]
pub struct Step {
    pub forwards: Vec<Hop>,
}

impl From<Outcome> for Step {
    fn from(outcome: Outcome) -> Step {
        let forwards = match outcome {
            Outcome::Forwarded { out, .. } => out
                .into_iter()
                .map(|ob| Hop {
                    dest: ob.dest,
                    via: ob.via,
                    cdm: ob.cdm,
                })
                .collect(),
            _ => Vec::new(),
        };
        Step { forwards }
    }
}

/// `acdgc_net::Network` carrying a token payload, for queue-op timing.
pub struct Queue {
    net: Network<u64>,
    procs: u16,
}

impl Queue {
    /// A network with `NetConfig::default()` latencies (so the heap
    /// actually orders), no faults.
    pub fn new(procs: usize, seed: u64) -> Queue {
        Queue {
            net: Network::new(NetConfig::default(), seed),
            procs: procs as u16,
        }
    }

    /// `Network::send_clocked` of one GC-class message.
    pub fn send(&mut self, i: u64) {
        let (src, dst) = (
            ProcId((i % u64::from(self.procs)) as u16),
            ProcId(((i + 1) % u64::from(self.procs)) as u16),
        );
        self.net
            .send_clocked(SimTime(i), src, dst, MessageClass::Gc, 64, 0, i);
    }

    /// `Network::pop_next`.
    pub fn pop(&mut self) -> Option<u64> {
        self.net.pop_next().map(|env| env.payload)
    }

    pub fn in_flight(&self) -> usize {
        self.net.in_flight()
    }
}

/// Whether `holder` holds `r` as a remote field (tests check topologies
/// with it; keeps `HeapRef` inside this module).
#[cfg(test)]
pub fn holds_remote(sim: &Sim, holder: ObjId, r: RefId) -> bool {
    sim.0
        .proc(holder.proc)
        .heap
        .get(holder)
        .is_ok_and(|rec| rec.refs.contains(&HeapRef::Remote(r)))
}
