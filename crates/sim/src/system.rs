//! The sequential, deterministic whole-system simulator.

use crate::messages::{InvokeSpec, SysMessage};
use crate::metrics::Metrics;
use crate::oracle;
use crate::process::Process;
use crate::step::{Effect, LgcWork, Step};
use acdgc_heap::HeapRef;
use acdgc_model::{
    GcConfig, IdAllocator, ModelError, NetConfig, ObjId, ProcId, RefId, SimDuration, SimTime,
};
use acdgc_net::{Envelope, MessageClass, NetStats, Network};
use acdgc_obs::{Sample, Sampler, Trace};
use acdgc_remoting::{ExportedRef, InvokePayload, ReplyPayload};
use rayon::prelude::*;
use rustc_hash::FxHashSet;

/// A complete simulated distributed system: N processes, one network, one
/// clock, one metrics ledger.
pub struct System {
    cfg: GcConfig,
    procs: Vec<Process>,
    net: Network<SysMessage>,
    clock: SimTime,
    ids: IdAllocator,
    /// Verify every reclamation against the global reachability oracle.
    /// On by default; benches switch it off (it is O(heap) per LGC).
    pub check_safety: bool,
    /// The merged protocol-counter ledger for the whole system.
    pub metrics: Metrics,
    /// Time-series telemetry (`GcConfig::sampling`): one global + one
    /// per-process bounded series, fed every `sample_every` GC rounds.
    sampler: Sampler,
    /// Completed [`System::gc_round`] calls — the sequential sampling
    /// clock.
    rounds: u64,
    /// The effect buffer every step appends to, drained after each step.
    out: Vec<Effect>,
}

impl System {
    /// Build a system of `num_procs` processes over a fresh network.
    ///
    /// `seed` derives every per-process and network RNG, so two systems
    /// built with the same arguments behave identically.
    pub fn new(num_procs: usize, cfg: GcConfig, net_cfg: NetConfig, seed: u64) -> Self {
        assert!(num_procs >= 1 && num_procs <= u16::MAX as usize);
        let mut procs: Vec<Process> = (0..num_procs)
            .map(|i| Process::new(ProcId(i as u16), &cfg))
            .collect();
        // One sequence counter across all processes: collected traces are
        // totally ordered by recording order, not just per-process.
        let seq = procs[0].obs.seq_handle();
        for proc in &mut procs[1..] {
            proc.obs.share_seq(seq.clone());
        }
        let sampler = Sampler::new(&cfg.sampling, num_procs);
        System {
            cfg,
            procs,
            net: Network::new(net_cfg, seed),
            clock: SimTime::ZERO,
            ids: IdAllocator::new(),
            check_safety: true,
            metrics: Metrics::default(),
            sampler,
            rounds: 0,
            out: Vec::new(),
        }
    }

    // --- accessors -----------------------------------------------------------

    /// Current simulated time.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// The GC configuration the system was built with.
    pub fn config(&self) -> &GcConfig {
        &self.cfg
    }

    /// Mutable access to the GC configuration (tests retune mid-run).
    pub fn config_mut(&mut self) -> &mut GcConfig {
        &mut self.cfg
    }

    /// Number of processes.
    pub fn num_procs(&self) -> usize {
        self.procs.len()
    }

    /// All processes, indexed by `ProcId`.
    pub fn procs(&self) -> &[Process] {
        &self.procs
    }

    /// The process with id `p`.
    pub fn proc(&self, p: ProcId) -> &Process {
        &self.procs[p.index()]
    }

    /// Mutable access to the process with id `p`.
    pub fn proc_mut(&mut self, p: ProcId) -> &mut Process {
        &mut self.procs[p.index()]
    }

    /// Delivery/loss/duplication counters from the simulated network.
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// This process's share of the system counters. `self.metrics` stays
    /// the merged view; per-process attribution is what skewed workloads
    /// need.
    pub fn metrics_for(&self, p: ProcId) -> &Metrics {
        &self.procs[p.index()].metrics
    }

    /// Collect the per-process event rings into one totally ordered trace
    /// (empty when tracing is disabled), with any telemetry samples
    /// attached for JSONL export.
    pub fn trace(&self) -> Trace {
        Trace::collect(self.procs.iter().map(|p| &p.obs))
            .with_samples(self.sampler.export())
            .with_runtime("sequential")
    }

    /// The time-series telemetry recorded so far (empty series when
    /// `GcConfig::sampling` is disabled).
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// Render the merged metrics ledger plus the merged per-phase latency
    /// histograms in Prometheus text exposition format. Metric names are
    /// documented in docs/OBSERVABILITY.md; scrape this from a
    /// debug endpoint or dump it at end of run.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        self.metrics.to_prometheus_into(&mut out);
        self.trace().merged_phases().to_prometheus_into(&mut out);
        // Point-in-time gauges, computed fresh at scrape time (the counter
        // `_total` namespace above is owned by `Metrics`).
        let (global, _) = self.current_sample();
        global.to_prometheus_into(&mut out);
        out
    }

    /// Apply one counter update to the merged ledger *and* the owning
    /// process's ledger, keeping the two views consistent by construction.
    fn bump(&mut self, p: ProcId, f: impl Fn(&mut Metrics)) {
        f(&mut self.metrics);
        f(&mut self.procs[p.index()].metrics);
    }

    /// Sever both directions between two processes (subsequent sends are
    /// lost until healed; in-flight traffic still arrives).
    pub fn partition_pair(&mut self, a: ProcId, b: ProcId) {
        self.net.partition_pair(a, b);
    }

    /// Restore every severed link.
    pub fn heal_all_partitions(&mut self) {
        self.net.heal_all();
    }

    /// Messages currently queued in the simulated network.
    pub fn messages_in_flight(&self) -> usize {
        self.net.in_flight()
    }

    /// Total live objects across all heaps.
    pub fn total_live_objects(&self) -> usize {
        self.procs.iter().map(|p| p.heap.stats().live_objects).sum()
    }

    /// Total scions across all processes.
    pub fn total_scions(&self) -> usize {
        self.procs.iter().map(|p| p.tables.scion_count()).sum()
    }

    /// Advance the clock without running anything (no events may be due).
    pub fn advance(&mut self, d: SimDuration) {
        self.clock += d;
    }

    // --- mutator API -----------------------------------------------------------

    /// Allocate a new (unrooted) object of `payload_words` on process `p`.
    pub fn alloc(&mut self, p: ProcId, payload_words: u32) -> ObjId {
        self.procs[p.index()].heap.alloc(payload_words)
    }

    /// Make `obj` a GC root of its owning process.
    pub fn add_root(&mut self, obj: ObjId) -> Result<(), ModelError> {
        self.procs[obj.proc.index()].heap.add_root(obj)
    }

    /// Unroot `obj`; returns whether it was rooted.
    pub fn remove_root(&mut self, obj: ObjId) -> Result<bool, ModelError> {
        self.procs[obj.proc.index()].heap.remove_root(obj)
    }

    /// Add an intra-process reference `from → to` (same process only).
    pub fn add_local_ref(&mut self, from: ObjId, to: ObjId) -> Result<(), ModelError> {
        if from.proc != to.proc {
            return Err(ModelError::UnknownProcess(to.proc));
        }
        self.procs[from.proc.index()]
            .heap
            .add_ref(from, HeapRef::Local(to.slot))
    }

    /// Remove a previously added intra-process reference `from → to`.
    pub fn remove_local_ref(&mut self, from: ObjId, to: ObjId) -> Result<(), ModelError> {
        self.procs[from.proc.index()]
            .heap
            .remove_ref(from, HeapRef::Local(to.slot))
    }

    /// Create a remote reference `from -> to` directly (topology building).
    /// The stub/scion pair is created atomically; no message travels.
    /// Reference-listing granularity: if `from`'s process already
    /// references `to`, the existing pair is shared and its `RefId`
    /// returned.
    pub fn create_remote_ref(&mut self, from: ObjId, to: ObjId) -> Result<RefId, ModelError> {
        if from.proc == to.proc {
            return Err(ModelError::SameProcessRemoteRef(from.proc));
        }
        if !self.procs[from.proc.index()].heap.contains(from) {
            return Err(ModelError::DanglingObject(from));
        }
        if !self.procs[to.proc.index()].heap.contains(to) {
            return Err(ModelError::DanglingObject(to));
        }
        let ref_id = self.open_scion(from.proc, to);
        self.import_ref(from, ref_id, to);
        Ok(ref_id)
    }

    /// Owner half of establishing `importer`'s reference to `target`
    /// (`acdgc_remoting::lifecycle`): the scion exists and is pinned when
    /// this returns. The simulator reads the importer's surviving stub
    /// directly; a fresh id is minted only when neither half exists.
    fn open_scion(&mut self, importer: ProcId, target: ObjId) -> RefId {
        let stub = self.procs[importer.index()]
            .tables
            .stub_for_target(target)
            .cloned();
        let ids = &mut self.ids;
        let owner = &mut self.procs[target.proc.index()].tables;
        let mint = || ids.next_ref_id();
        owner
            .open_scion(importer, target, stub.as_ref(), mint, self.clock)
            .ref_id
    }

    /// Importer half, then the close at the owner: `holder` (alive, at the
    /// importer) gains the reference `ref_id` to `target`.
    fn import_ref(&mut self, holder: ObjId, ref_id: RefId, target: ObjId) {
        let now = self.clock;
        let owner = &self.procs[target.proc.index()].tables;
        let scion_ic = owner.scion(ref_id).map_or(0, |s| s.ic);
        let importer = &mut self.procs[holder.proc.index()];
        importer.tables.open_stub(ref_id, target, scion_ic, now);
        let _ = importer.heap.add_ref(holder, HeapRef::Remote(ref_id));
        // The import completed *now*: no NewSetStubs built while the
        // reference was in flight may judge this scion.
        let _ = self.procs[target.proc.index()]
            .tables
            .close_scion(ref_id, now);
    }

    /// Drop one occurrence of the remote reference `ref_id` from `from`'s
    /// fields. The stub dies at `from`'s next LGC if nothing else holds it.
    pub fn drop_remote_ref(&mut self, from: ObjId, ref_id: RefId) -> Result<(), ModelError> {
        self.procs[from.proc.index()]
            .heap
            .remove_ref(from, HeapRef::Remote(ref_id))
    }

    /// Perform a remote invocation from `caller` through reference `via`.
    ///
    /// Models the paper's instrumented remoting: the stub/scion invocation
    /// counters advance, and every reference in `spec.exports` is
    /// marshalled (scion created at the target's owner — pinned until the
    /// import completes — stub created at the callee on delivery).
    pub fn invoke(
        &mut self,
        caller: ProcId,
        via: RefId,
        spec: InvokeSpec,
    ) -> Result<(), ModelError> {
        let now = self.clock;
        let stub = self.procs[caller.index()]
            .tables
            .stub(via)
            .ok_or(ModelError::UnknownStub(caller, via))?
            .clone();
        let callee = stub.target.proc;
        // Validate every export up front so no partial effect leaks on
        // error.
        for &target in spec.exports.iter().chain(spec.reply_exports.iter()) {
            if !self.procs[target.proc.index()].heap.contains(target) {
                return Err(ModelError::DanglingObject(target));
            }
        }
        self.procs[caller.index()]
            .tables
            .record_send_through_stub(via)?;
        self.bump(caller, |m| m.invocations += 1);
        // An invocation in flight is a use of the reference: its scion may
        // not be reclaimed until the call lands (in a real runtime the
        // caller's stack pins the proxy for the duration of the RPC).
        // Ignore failure: if the scion is already gone the delivery-side
        // accounting will flag it.
        let _ = self.procs[callee.index()].tables.pin_scion(via);

        let exports = self.marshal_exports(&spec.exports, caller, callee)?;
        let wants_reply =
            spec.wants_reply || spec.receiver.is_some() || !spec.reply_exports.is_empty();
        let payload = InvokePayload {
            ref_id: via,
            exports,
            arg_bytes: spec.arg_bytes,
            wants_reply,
        };
        let msg = SysMessage::Invoke {
            payload,
            reply_exports: spec.reply_exports,
            receiver: spec.receiver,
        };
        let size = msg.size_bytes();
        self.net
            .send(now, caller, callee, MessageClass::Application, size, msg);
        Ok(())
    }

    /// Marshal a list of objects for export from `exporter` to `importer`:
    /// create a (pinned) scion at each object's owner. Objects already
    /// local to the importer are short-circuited at delivery and get no
    /// scion.
    ///
    /// Exporting an object the exporter reaches through a *remote*
    /// reference is a **reference copy along that reference** — a mutator
    /// event the detector must be able to see (§2.2 rule 3 explicitly
    /// includes "possibly reference copying"). The copied reference's
    /// invocation counters are bumped on both ends, exactly like an
    /// invocation; without this, exporting a cycle member to a third
    /// process between two snapshots could complete a stale CDM-Graph and
    /// collect a now-live cycle.
    fn marshal_exports(
        &mut self,
        objects: &[ObjId],
        exporter: ProcId,
        importer: ProcId,
    ) -> Result<Vec<ExportedRef>, ModelError> {
        let now = self.clock;
        let mut out = Vec::with_capacity(objects.len());
        for &target in objects {
            if !self.procs[target.proc.index()].heap.contains(target) {
                return Err(ModelError::DanglingObject(target));
            }
            if self.cfg.instrument_remoting && target.proc != exporter {
                // Copying a remote reference: bump the counters of the
                // exporter's reference to this object (both ends — the
                // scion side models the SSP-chain message that installs
                // the new scion at the owner).
                let copied: Option<RefId> = self.procs[exporter.index()]
                    .tables
                    .stubs()
                    .filter(|s| s.target == target)
                    .map(|s| s.ref_id)
                    .min();
                if let Some(copied) = copied {
                    let _ = self.procs[exporter.index()]
                        .tables
                        .record_send_through_stub(copied);
                    let _ = self.procs[target.proc.index()]
                        .tables
                        .record_receive_through_scion(copied, now);
                }
            }
            let ref_id = if self.cfg.instrument_remoting && target.proc != importer {
                // Reference-listing dedup: reuse (or repair) the pair if
                // either half already exists for (importer, target). The
                // scion is pinned until the import completes.
                self.open_scion(importer, target)
            } else {
                // Uninstrumented, or a short-circuit home delivery: the id
                // is a placeholder for the wire format only.
                self.ids.next_ref_id()
            };
            self.bump(exporter, |m| m.refs_exported += 1);
            out.push(ExportedRef { ref_id, target });
        }
        Ok(out)
    }

    /// Import marshalled references at `importer`, attaching them as fields
    /// of `holder` (when given and alive). Unpins the export scions.
    fn import_exports(&mut self, importer: ProcId, holder: Option<ObjId>, exports: &[ExportedRef]) {
        for export in exports {
            if export.target.proc == importer {
                // Short-circuit: the reference came home; it becomes local.
                if let Some(h) = holder {
                    if self.procs[importer.index()].heap.contains(h)
                        && self.procs[importer.index()].heap.contains(export.target)
                    {
                        let _ = self.procs[importer.index()]
                            .heap
                            .add_ref(h, HeapRef::Local(export.target.slot));
                    }
                }
                continue;
            }
            if !self.cfg.instrument_remoting {
                continue;
            }
            match holder.filter(|&h| self.procs[importer.index()].heap.contains(h)) {
                Some(holder) => self.import_ref(holder, export.ref_id, export.target),
                // Nobody to hold the reference: release the pin and let the
                // acyclic DGC reclaim the orphan scion.
                None => {
                    let owner = export.target.proc;
                    self.procs[importer.index()].tables.abandon_import(owner);
                    let _ = self.procs[owner.index()].tables.unpin_scion(export.ref_id);
                }
            }
        }
    }

    // --- GC phases --------------------------------------------------------------

    /// Run `f` as one protocol step at `p`: the process, plus a [`Step`]
    /// whose ledger mirrors every count into the merged `self.metrics`;
    /// then send what the step returned.
    fn step_at<R>(&mut self, p: ProcId, f: impl FnOnce(&mut Process, &mut Step<'_>) -> R) -> R {
        let mut cx = Step {
            cfg: &self.cfg,
            now: self.clock,
            merged: Some(&mut self.metrics),
            out: &mut self.out,
        };
        let r = f(&mut self.procs[p.index()], &mut cx);
        self.flush(p);
        r
    }

    /// Send what the step at `p` returned through the seeded network, in
    /// its order: the network draws loss, duplication and latency per
    /// send. Credit feeds termination detection, which only a runtime
    /// racing a live mutator needs; the sequential walk discards
    /// settlements. Kept out of the generic `step_at`, so that its
    /// instances share one copy of the loop.
    fn flush(&mut self, p: ProcId) {
        for effect in self.out.drain(..) {
            if let Effect::Send { dest, lamport, msg } = effect {
                let msg = SysMessage::Gc(msg);
                let (class, size) = (MessageClass::Gc, msg.size_bytes());
                self.net
                    .send_clocked(self.clock, p, dest, class, size, lamport, msg);
            }
        }
    }

    /// Run one local collection at `p` and publish its `NewSetStubs`.
    pub fn run_lgc(&mut self, p: ProcId) {
        let oracle_live = self.check_safety.then(|| oracle::global_live(&*self));
        let num_procs = self.procs.len();
        let work =
            self.procs[p.index()].lgc_step(&self.cfg, num_procs, self.clock, oracle_live.as_ref());
        self.lgc_apply(p, work);
    }

    /// Run one local collection at *every* process. The compute stage
    /// ([`Process::lgc_step`]) touches only process-local state, so it
    /// fans out (`fan_out`) over the worker pool; the apply stage
    /// (`Self::lgc_apply`) consumes shared state (the merged ledger, the
    /// seeded network RNG) and runs sequentially in process-index order —
    /// the exact order [`System::run_lgc`] per process produces, so
    /// results and metrics are bit-identical to driving the processes one
    /// by one.
    ///
    /// One oracle serves the whole sweep: a sound LGC frees only
    /// globally-unreachable objects, and dead-stub handling only touches
    /// stubs held by dead objects, so the global live set is invariant
    /// across the per-process collections.
    pub fn lgc_all(&mut self) {
        let now = self.clock;
        let oracle_live = self.check_safety.then(|| oracle::global_live(&*self));
        let num_procs = self.procs.len();
        let works: Vec<LgcWork> = {
            let cfg = &self.cfg;
            let live = oracle_live.as_ref();
            fan_out(&mut self.procs, |proc| {
                proc.lgc_step(cfg, num_procs, now, live)
            })
        };
        for (i, work) in works.into_iter().enumerate() {
            self.lgc_apply(ProcId(i as u16), work);
        }
    }

    /// Apply stage of a local collection: the merged ledger, then the sets
    /// and acknowledgements the sender's rule picks, in peer order. Every
    /// effect here reaches shared state, so callers invoke it sequentially
    /// in process-index order.
    fn lgc_apply(&mut self, p: ProcId, work: LgcWork) {
        work.count_into(&mut self.metrics);
        self.step_at(p, |proc, cx| proc.publish_nss(cx, work.nss));
    }

    /// The OBIWAN monitor pass: reclaim condemned stubs at `p` and publish
    /// the corrected stub sets.
    pub fn run_monitor(&mut self, p: ProcId) {
        let num_procs = self.procs.len();
        self.step_at(p, |proc, cx| {
            let sets = proc.monitor_step(cx, num_procs);
            proc.publish_nss(cx, sets)
        });
    }

    /// Snapshot + summarize `p`, publishing a new summary atomically.
    pub fn take_snapshot(&mut self, p: ProcId) {
        let proc = &mut self.procs[p.index()];
        proc.refresh_summary(self.clock);
        Process::count_snapshot(&mut self.metrics, &proc.summary);
    }

    /// Snapshot + summarize every process. Summarization reads only
    /// process-local state, so the per-process work fans out (`fan_out`)
    /// over the worker pool; published summaries (and therefore simulation
    /// results) are identical either way. The merged ledger is folded
    /// sequentially afterwards to keep it deterministic.
    pub fn snapshot_all(&mut self) {
        let now = self.clock;
        fan_out(&mut self.procs, |proc| proc.refresh_summary(now));
        for proc in &self.procs {
            Process::count_snapshot(&mut self.metrics, &proc.summary);
        }
    }

    /// Candidate scan at `p`: initiate detections for stale scions.
    pub fn run_scan(&mut self, p: ProcId) {
        let now = self.clock;
        let picked = self.procs[p.index()].scan(now, &self.cfg).picked;
        for scion in picked {
            self.initiate_detection(p, scion);
        }
    }

    /// Candidate scan at every process, then detection initiations. The
    /// scan reads only process-local state (the published summary plus the
    /// process's heuristic ledger), so it fans out (`fan_out`) over the
    /// worker pool; initiation consumes shared state (the detection id
    /// allocator, the seeded network) and runs sequentially in
    /// process-index order — bit-identical to [`System::run_scan`] per
    /// process.
    pub fn scan_all(&mut self) {
        let now = self.clock;
        let cfg = &self.cfg;
        let picked = fan_out(&mut self.procs, |proc| proc.scan(now, cfg).picked);
        for (i, scions) in picked.into_iter().enumerate() {
            for scion in scions {
                self.initiate_detection(ProcId(i as u16), scion);
            }
        }
    }

    /// Start one detection from `scion` at `p` (used by scans and directly
    /// by tests that pick their own candidates).
    pub fn initiate_detection(&mut self, p: ProcId, scion: RefId) {
        // The id source is lent to the step; nothing else reads it meanwhile.
        let mut ids = std::mem::take(&mut self.ids);
        let deleted = self.step_at(p, |proc, cx| {
            proc.initiate(cx, scion, || ids.next_detection_id())
        });
        self.ids = ids;
        self.audit_scion_deletes(p, deleted);
    }

    // --- message dispatch ----------------------------------------------------------

    fn dispatch(&mut self, env: Envelope<SysMessage>) {
        let dst = env.dst;
        // Lamport receive rule: fold the sender's piggybacked clock in
        // before any delivery-side event is recorded, so every event the
        // delivery produces is stamped above the send.
        self.procs[dst.index()].obs.witness(env.lamport);
        match env.payload {
            SysMessage::Invoke {
                payload,
                reply_exports,
                receiver,
            } => self.dispatch_invoke(env.src, dst, payload, reply_exports, receiver),
            SysMessage::Reply { payload, receiver } => self.dispatch_reply(dst, payload, receiver),
            SysMessage::Gc(msg) => {
                let (src, lamport) = (env.src, env.lamport);
                let deleted = self.step_at(dst, |proc, cx| proc.on_message(cx, src, lamport, msg));
                self.audit_scion_deletes(dst, deleted);
            }
        }
    }

    /// Oracle audit of the scions a step just deleted at `p` on a cycle
    /// verdict. A deletion is unsafe iff the *reference* is still live:
    /// some oracle-live object at the holding process still holds it. (The
    /// target being live through other paths does not make deleting a dead
    /// reference's scion unsafe.) The oracle reads heaps and stubs only,
    /// so judging after the deletion sees what judging before it would.
    fn audit_scion_deletes(
        &mut self,
        p: ProcId,
        deleted: impl IntoIterator<Item = (RefId, ProcId)>,
    ) {
        if !self.check_safety {
            return;
        }
        for (scion, holder) in deleted {
            let live = oracle::global_live(&*self);
            if oracle::ref_is_live(&*self, holder, scion, &live) {
                self.bump(p, |m| m.unsafe_scion_deletes += 1);
            }
        }
    }

    fn dispatch_invoke(
        &mut self,
        src: ProcId,
        dst: ProcId,
        payload: InvokePayload,
        reply_exports: Vec<ObjId>,
        receiver: Option<ObjId>,
    ) {
        let now = self.clock;
        let target = match self.procs[dst.index()]
            .tables
            .record_receive_through_scion(payload.ref_id, now)
        {
            Ok(_) => self.procs[dst.index()]
                .tables
                .scion(payload.ref_id)
                .map(|s| s.target),
            Err(_) => None,
        };
        let Some(target) = target else {
            // The scion vanished under a live reference — with a sound
            // collector this only happens if something unsafe occurred
            // (the scion was pinned at send time).
            self.bump(dst, |m| m.invoke_on_missing_scion += 1);
            // Release pins so the export scions are not leaked.
            self.import_exports(dst, None, &payload.exports);
            return;
        };
        // The RPC has landed: release the in-flight pin taken at send.
        let _ = self.procs[dst.index()].tables.unpin_scion(payload.ref_id);
        self.import_exports(dst, Some(target), &payload.exports);
        if payload.wants_reply {
            let exports = self
                .marshal_exports(&reply_exports, dst, src)
                .unwrap_or_default();
            // The reply travels back through the same reference: the callee
            // side counter advances now, the caller side on delivery.
            let _ = self.procs[dst.index()]
                .tables
                .record_reply_sent_through_scion(payload.ref_id, now);
            self.bump(dst, |m| m.replies += 1);
            let msg = SysMessage::Reply {
                payload: ReplyPayload {
                    ref_id: payload.ref_id,
                    exports,
                },
                receiver,
            };
            let size = msg.size_bytes();
            self.net
                .send(now, dst, src, MessageClass::Application, size, msg);
        }
    }

    fn dispatch_reply(&mut self, dst: ProcId, payload: ReplyPayload, receiver: Option<ObjId>) {
        if self.procs[dst.index()]
            .tables
            .record_reply_received_through_stub(payload.ref_id)
            .is_err()
        {
            self.bump(dst, |m| m.reply_on_missing_stub += 1);
        }
        self.import_exports(dst, receiver, &payload.exports);
    }

    // --- event loop -------------------------------------------------------------------

    /// Time of the next event (message delivery or scheduled GC phase).
    pub fn next_event_at(&self) -> Option<SimTime> {
        let net = self.net.next_delivery_at();
        let task = self.procs.iter().map(|p| p.next_task_at()).min();
        match (net, task) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Execute the single earliest event. Returns `false` when idle.
    /// Deliveries win ties, then processes in index order.
    pub fn step(&mut self) -> bool {
        let Some(at) = self.next_event_at() else {
            return false;
        };
        self.clock = self.clock.max(at);
        if self.net.next_delivery_at() == Some(at) {
            let env = self.net.pop_next().expect("peeked delivery");
            self.dispatch(env);
            return true;
        }
        let idx = self
            .procs
            .iter()
            .position(|p| p.next_task_at() == at)
            .expect("task exists at this time");
        let p = ProcId(idx as u16);
        let proc = &mut self.procs[idx];
        // Run the due phase(s) for this process, rescheduling each.
        if proc.next_lgc == at {
            proc.next_lgc = at + self.cfg.lgc_period;
            self.run_lgc(p);
        } else if proc.next_snapshot == at {
            proc.next_snapshot = at + self.cfg.snapshot_period;
            self.take_snapshot(p);
        } else if proc.next_scan == at {
            proc.next_scan = at + self.cfg.scan_period;
            self.run_scan(p);
        } else if proc.next_monitor == at {
            proc.next_monitor = at + self.cfg.monitor_period;
            self.run_monitor(p);
        }
        true
    }

    /// Run every event due at or before `t`, then set the clock to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(at) = self.next_event_at() {
            if at > t {
                break;
            }
            self.step();
        }
        self.clock = self.clock.max(t);
    }

    /// Run the event loop for `d` of simulated time from now.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.clock + d;
        self.run_until(t);
    }

    /// Deliver and process every in-flight message (and the cascades they
    /// cause), advancing the clock as needed. GC phase schedules are not
    /// run — this is the workhorse of manually-driven tests.
    pub fn drain_network(&mut self) {
        while let Some(env) = self.net.pop_next() {
            self.clock = self.clock.max(env.deliver_at);
            self.dispatch(env);
        }
    }

    // --- composite helpers ----------------------------------------------------------

    /// One manual GC round: LGC everywhere, drain, snapshot everywhere,
    /// scan everywhere, drain. Advances the clock by 1 ms first so
    /// `NewSetStubs` horizons see previously created scions.
    ///
    /// With `GcConfig::sampling` enabled, every `sample_every`-th round
    /// ends by recording one telemetry [`Sample`] per process plus the
    /// global aggregate; disabled, the cost is one branch.
    pub fn gc_round(&mut self) {
        self.advance(SimDuration::from_millis(1));
        self.lgc_all();
        self.drain_network();
        for i in 0..self.procs.len() {
            self.run_monitor(ProcId(i as u16));
        }
        self.drain_network();
        self.snapshot_all();
        self.scan_all();
        self.drain_network();
        self.rounds += 1;
        if self.sampler.due(self.rounds) {
            let (global, per_proc) = self.current_sample();
            self.sampler.record(global, &per_proc);
        }
    }

    /// Build the telemetry snapshot for this instant: one row per process
    /// plus their global fold. `inbox_depth` and `votes_held` are threaded
    /// concepts and stay 0 here; `in_flight_cdms` is the simulated
    /// network's in-flight count, attributable only globally.
    fn current_sample(&self) -> (Sample, Vec<Sample>) {
        let per_proc: Vec<Sample> = self
            .procs
            .iter()
            .map(|p| p.sample(self.clock, self.rounds))
            .collect();
        let global = Sample {
            in_flight_cdms: self.net.in_flight() as u64,
            ..Sample::aggregate(self.clock, self.rounds, &per_proc)
        };
        (global, per_proc)
    }

    /// Run manual GC rounds until the system stops reclaiming (three
    /// consecutive quiet rounds) or `max_rounds` elapse. Returns rounds run.
    ///
    /// Rounds alternate how detections start: undivided in odd rounds
    /// (the paper's per-reference walks, which explore reference subsets
    /// and can carve a pure cycle out of a web that converges with live
    /// references, plus the one per-process chain each derives at its
    /// first fan-out), per-process in even rounds (`eager_combine`: chains
    /// only, which settle densely shared garbage for a fraction of the
    /// traffic). Both are oracle-audited and safe.
    pub fn collect_to_fixpoint(&mut self, max_rounds: usize) -> usize {
        let original_mode = self.cfg.eager_combine;
        let mut quiet = 0;
        for round in 1..=max_rounds {
            self.cfg.eager_combine = round % 2 == 0 || original_mode;
            let before = (
                self.total_live_objects(),
                self.total_scions(),
                self.metrics.cycles_detected,
            );
            self.gc_round();
            let after = (
                self.total_live_objects(),
                self.total_scions(),
                self.metrics.cycles_detected,
            );
            if before == after {
                quiet += 1;
                if quiet >= 3 {
                    self.cfg.eager_combine = original_mode;
                    return round;
                }
            } else {
                quiet = 0;
            }
        }
        self.cfg.eager_combine = original_mode;
        max_rounds
    }

    /// Structural invariants that must hold between events; tests call this
    /// after scenarios.
    pub fn check_invariants(&self) -> Result<(), String> {
        for proc in &self.procs {
            let p = proc.proc();
            // Every remote reference held in the heap has a stub.
            for (slot, rec) in proc.heap.iter() {
                for r in rec.remote_refs() {
                    if proc.tables.stub(r).is_none() {
                        return Err(format!("{p}: object #{slot} holds unknown stub {r}"));
                    }
                }
            }
            // Every scion's target object is alive (the LGC must preserve
            // scion targets).
            for scion in proc.tables.scions() {
                if !proc.heap.contains(scion.target) {
                    return Err(format!(
                        "{p}: scion {} target {} dead",
                        scion.ref_id, scion.target
                    ));
                }
            }
            // Every stub targets a remote process and its id is unique by
            // construction (map-keyed).
            for stub in proc.tables.stubs() {
                if stub.target.proc == p {
                    return Err(format!("{p}: stub {} targets own process", stub.ref_id));
                }
            }
        }
        Ok(())
    }

    /// The set of globally reachable objects (oracle).
    pub fn oracle_live(&self) -> FxHashSet<ObjId> {
        oracle::global_live(self)
    }

    /// Tear the system apart into its processes (for the threaded
    /// runtime). All in-flight traffic must have been drained.
    pub fn into_procs(self) -> Vec<Process> {
        assert_eq!(
            self.net.in_flight(),
            0,
            "drain the network before extracting processes"
        );
        self.procs
    }
}

/// Run `f` over every process and collect the results in process-index
/// order. With more than one process the slice is split into one chunk per
/// core: the calling thread runs one, and the vendored `rayon` stand-in's
/// persistent workers (started once per process, asleep between calls) run
/// the rest — no thread is started per call.
fn fan_out<R: Send>(procs: &mut [Process], f: impl Fn(&mut Process) -> R + Sync + Send) -> Vec<R> {
    if procs.len() > 1 {
        procs.par_iter_mut().map(f)
    } else {
        procs.iter_mut().map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    fn manual(n: usize) -> System {
        System::new(n, GcConfig::manual(), NetConfig::instant(), 42)
    }

    #[test]
    fn invocation_creates_pairs_and_bumps_counters() {
        let mut sys = manual(2);
        let a = sys.alloc(ProcId(0), 1);
        let b = sys.alloc(ProcId(1), 1);
        let c = sys.alloc(ProcId(0), 1);
        sys.add_root(a).unwrap();
        sys.add_root(c).unwrap();
        let r = sys.create_remote_ref(a, b).unwrap();
        // Invoke b through r, exporting c (a P0 object) to P1.
        sys.invoke(ProcId(0), r, InvokeSpec::exporting(vec![c]))
            .unwrap();
        sys.drain_network();
        assert_eq!(sys.proc(ProcId(0)).tables.stub(r).unwrap().ic, 1);
        assert_eq!(sys.proc(ProcId(1)).tables.scion(r).unwrap().ic, 1);
        // The export created a new pair: scion at P0, stub at P1, and b now
        // holds the reference.
        assert_eq!(sys.proc(ProcId(0)).tables.scion_count(), 1);
        assert_eq!(sys.proc(ProcId(1)).tables.stub_count(), 1);
        let held: Vec<RefId> = sys
            .proc(ProcId(1))
            .heap
            .get(b)
            .unwrap()
            .remote_refs()
            .collect();
        assert_eq!(held.len(), 1);
        sys.check_invariants().unwrap();
        assert_eq!(sys.metrics.invocations, 1);
        assert_eq!(sys.metrics.refs_exported, 1);
    }

    #[test]
    fn reply_bumps_counters_again_and_returns_refs() {
        let mut sys = manual(2);
        let a = sys.alloc(ProcId(0), 1);
        let b = sys.alloc(ProcId(1), 1);
        let d = sys.alloc(ProcId(1), 1);
        sys.add_root(a).unwrap();
        sys.add_root(b).unwrap();
        sys.add_local_ref(b, d).unwrap();
        let r = sys.create_remote_ref(a, b).unwrap();
        let spec = InvokeSpec {
            reply_exports: vec![d],
            receiver: Some(a),
            ..InvokeSpec::default()
        };
        sys.invoke(ProcId(0), r, spec).unwrap();
        sys.drain_network();
        // Invocation + reply: both counters at 2.
        assert_eq!(sys.proc(ProcId(0)).tables.stub(r).unwrap().ic, 2);
        assert_eq!(sys.proc(ProcId(1)).tables.scion(r).unwrap().ic, 2);
        // a now holds a remote reference to d.
        let held: Vec<RefId> = sys
            .proc(ProcId(0))
            .heap
            .get(a)
            .unwrap()
            .remote_refs()
            .collect();
        assert_eq!(held.len(), 2, "original r plus returned ref");
        assert_eq!(sys.metrics.replies, 1);
        sys.check_invariants().unwrap();
    }

    #[test]
    fn uninstrumented_remoting_skips_dgc_structures() {
        let mut sys = manual(2);
        sys.config_mut().instrument_remoting = false;
        let a = sys.alloc(ProcId(0), 1);
        let b = sys.alloc(ProcId(1), 1);
        let c = sys.alloc(ProcId(0), 1);
        sys.add_root(a).unwrap();
        sys.add_root(c).unwrap();
        let r = sys.create_remote_ref(a, b).unwrap();
        sys.invoke(ProcId(0), r, InvokeSpec::exporting(vec![c]))
            .unwrap();
        sys.drain_network();
        // No pair created for the export (Table 1 baseline).
        assert_eq!(sys.proc(ProcId(0)).tables.scion_count(), 0);
        assert_eq!(sys.proc(ProcId(1)).tables.stub_count(), 0);
    }

    #[test]
    fn acyclic_distributed_garbage_collected_by_reference_listing() {
        let mut sys = manual(2);
        let a = sys.alloc(ProcId(0), 1);
        let b = sys.alloc(ProcId(1), 1);
        sys.add_root(a).unwrap();
        let r = sys.create_remote_ref(a, b).unwrap();
        sys.gc_round();
        assert_eq!(sys.total_live_objects(), 2, "both live while referenced");
        // Drop the reference: b becomes acyclic distributed garbage.
        sys.drop_remote_ref(a, r).unwrap();
        sys.collect_to_fixpoint(8);
        assert_eq!(sys.total_live_objects(), 1, "b reclaimed");
        assert_eq!(sys.total_scions(), 0);
        assert_eq!(sys.metrics.scions_reclaimed_acyclic, 1);
        assert_eq!(sys.metrics.safety_violations(), 0);
        sys.check_invariants().unwrap();
    }

    #[test]
    fn fig3_cycle_collected_end_to_end() {
        let mut sys = manual(4);
        let fig = scenarios::fig3(&mut sys);
        // While rooted: GC rounds must reclaim nothing.
        sys.collect_to_fixpoint(6);
        assert_eq!(sys.total_live_objects(), 14);
        assert_eq!(sys.metrics.cycles_detected, 0, "live cycle never detected");
        // Cut the root: the 4-process cycle becomes garbage that acyclic
        // DGC alone cannot reclaim.
        sys.remove_root(fig.a).unwrap();
        let rounds = sys.collect_to_fixpoint(20);
        assert_eq!(
            sys.total_live_objects(),
            0,
            "cycle fully reclaimed after {rounds} rounds; metrics: {:?}",
            sys.metrics
        );
        assert_eq!(sys.total_scions(), 0);
        assert!(sys.metrics.cycles_detected >= 1);
        assert_eq!(sys.metrics.safety_violations(), 0);
        sys.check_invariants().unwrap();
    }

    #[test]
    fn fig4_mutual_cycles_collected_end_to_end() {
        let mut sys = manual(6);
        let _fig = scenarios::fig4(&mut sys);
        let rounds = sys.collect_to_fixpoint(30);
        assert_eq!(
            sys.total_live_objects(),
            0,
            "mutually-linked cycles reclaimed after {rounds} rounds; {:?}",
            sys.metrics
        );
        assert_eq!(sys.metrics.safety_violations(), 0);
    }

    #[test]
    fn periodic_event_loop_collects_cycles() {
        let mut sys = System::new(4, GcConfig::default(), NetConfig::default(), 7);
        let fig = scenarios::fig3(&mut sys);
        sys.remove_root(fig.a).unwrap();
        // Let the periodic schedules run for two simulated seconds.
        sys.run_for(SimDuration::from_millis(2_000));
        assert_eq!(sys.total_live_objects(), 0, "{:?}", sys.metrics);
        assert_eq!(sys.metrics.safety_violations(), 0);
    }

    #[test]
    fn message_loss_delays_but_does_not_break_collection() {
        let mut sys = System::new(4, GcConfig::default(), NetConfig::lossy(0.4), 11);
        let fig = scenarios::fig3(&mut sys);
        sys.remove_root(fig.a).unwrap();
        sys.run_for(SimDuration::from_millis(8_000));
        assert_eq!(
            sys.total_live_objects(),
            0,
            "40% GC-message loss tolerated; {:?}",
            sys.metrics
        );
        assert_eq!(sys.metrics.safety_violations(), 0);
        assert!(sys.net_stats().dropped > 0, "loss actually happened");
    }

    #[test]
    fn weakref_monitor_mode_collects_too() {
        let mut sys = System::new(
            4,
            GcConfig {
                integration: acdgc_model::IntegrationMode::WeakRefMonitor,
                ..GcConfig::manual()
            },
            NetConfig::instant(),
            3,
        );
        let fig = scenarios::fig3(&mut sys);
        sys.remove_root(fig.a).unwrap();
        sys.collect_to_fixpoint(30);
        assert_eq!(sys.total_live_objects(), 0, "{:?}", sys.metrics);
        assert!(sys.metrics.monitor_passes > 0);
        assert_eq!(sys.metrics.safety_violations(), 0);
    }

    #[test]
    fn live_remote_chain_never_reclaimed() {
        let mut sys = manual(3);
        let a = sys.alloc(ProcId(0), 1);
        let b = sys.alloc(ProcId(1), 1);
        let c = sys.alloc(ProcId(2), 1);
        sys.add_root(a).unwrap();
        sys.create_remote_ref(a, b).unwrap();
        sys.create_remote_ref(b, c).unwrap();
        sys.collect_to_fixpoint(10);
        assert_eq!(sys.total_live_objects(), 3);
        assert_eq!(sys.metrics.safety_violations(), 0);
    }

    #[test]
    fn sampling_records_bounded_validated_series() {
        use acdgc_model::SamplingConfig;
        let mut sys = System::new(
            4,
            GcConfig {
                sampling: SamplingConfig {
                    enabled: true,
                    sample_every: 2,
                    capacity: 8,
                },
                ..GcConfig::manual()
            },
            NetConfig::instant(),
            42,
        );
        let fig = scenarios::fig3(&mut sys);
        sys.remove_root(fig.a).unwrap();
        for _ in 0..30 {
            sys.gc_round();
        }
        let sampler = sys.sampler();
        assert!(sampler.enabled());
        assert_eq!(sampler.global().offered(), 15, "every 2nd of 30 rounds");
        assert!(sampler.global().len() <= 8, "decimated to capacity");
        assert_eq!(sampler.per_proc().len(), 4);
        let first = sampler.global().samples().first().unwrap();
        let last = sampler.global().samples().last().unwrap();
        assert_eq!((first.round, last.round), (2, 30), "endpoints preserved");
        assert!(
            last.objects_reclaimed >= 14,
            "the fig3 cycle's reclamation shows up in the series: {last:?}"
        );
        assert_eq!(last.live_objects, sys.total_live_objects() as u64);
        // The exported series embed in the trace artifact and validate.
        let trace = sys.trace();
        assert_eq!(trace.samples.len(), sampler.export().len());
        let check = trace.check();
        assert!(check.ok(), "{:?}", check.sample_violations);
        // Gauges appear in the Prometheus exposition.
        let prom = sys.to_prometheus();
        assert!(prom.contains("# TYPE acdgc_live_objects gauge"), "{prom}");
    }

    #[test]
    fn sampling_disabled_records_nothing_and_samples_no_trace_lines() {
        let mut sys = manual(2);
        let a = sys.alloc(ProcId(0), 1);
        let b = sys.alloc(ProcId(1), 1);
        sys.add_root(a).unwrap();
        sys.create_remote_ref(a, b).unwrap();
        for _ in 0..5 {
            sys.gc_round();
        }
        assert!(!sys.sampler().enabled());
        assert!(sys.sampler().export().is_empty());
        assert!(sys.trace().samples.is_empty());
    }

    #[test]
    fn step_is_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let mut sys = System::new(4, GcConfig::default(), NetConfig::default(), seed);
            let fig = scenarios::fig3(&mut sys);
            sys.remove_root(fig.a).unwrap();
            sys.run_for(SimDuration::from_millis(1_500));
            (
                sys.metrics.cdms_sent,
                sys.metrics.cycles_detected,
                sys.total_live_objects(),
                sys.net_stats().sent,
            )
        };
        assert_eq!(run(21), run(21));
    }
}
