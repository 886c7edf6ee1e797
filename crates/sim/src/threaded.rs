//! Genuinely concurrent collection: one OS thread per process.
//!
//! The sequential [`crate::System`] proves the algorithm's logic under a
//! deterministic schedule; this runtime demonstrates the paper's
//! asynchrony claim under *real* concurrency: each process runs its own
//! LGC / snapshot / scan loop on its own thread, exchanging messages over
//! crossbeam channels, with no shared clock and no coordination beyond the
//! messages themselves. When [`acdgc_model::MutatorConfig`] is enabled,
//! seeded **mutator threads** run *while* the collectors sweep —
//! allocating, exporting references, invoking through them, and dropping
//! them — through the same per-process locks the workers use, so every
//! interleaving the locks admit is a real execution (see *Concurrent
//! mutation* below). With the mutator disabled the topology is fixed up
//! front, mirroring the paper's observation that detection is lazy,
//! off-line work.
//!
//! # Termination: distributed quiescence votes
//!
//! A run ends when the system provably has nothing left to do, detected
//! without global synchronization:
//!
//! * each worker tracks per-sweep *activity* — objects freed, stubs
//!   condemned, messages sent or received, detections initiated, plus
//!   *pending* work (unacknowledged `NewSetStubs`, candidates inside
//!   their retry backoff window);
//! * after [`GcConfig::quiet_sweeps`] consecutive quiet sweeps a worker
//!   casts one vote and stops sweeping (it keeps draining its inbox);
//! * a voted worker that receives any message rescinds its vote
//!   (`fetch_sub`) before processing it and resumes sweeping;
//! * the run stops when all votes are simultaneously held **and** the
//!   global enqueue/drain counters balance **and** no rescind raced the
//!   check — see `Quiescence::globally_quiet` for why that conjunction
//!   cannot observe a message still in flight.
//!
//! # Fault model
//!
//! The send path runs the same seeded GC-fault injector as the sequential
//! [`acdgc_net::Network`]: `NetConfig::gc_drop_probability` and
//! `gc_duplicate_probability` apply to every message here (all threaded
//! traffic is collector traffic; latency fields are unused — the channel
//! *is* the latency), and a full bounded inbox drops rather than blocks.
//! Every message class recovers (DESIGN.md "Drop recovery"): CDMs by the
//! initiator's candidate backoff, `DeleteScion`s by the acyclic layer, and
//! `NewSetStubs` by the step's ack/retry rule ([`Process::publish_nss`]),
//! which `System` runs too. Like `System`, this driver reacts only
//! through [`Process::on_message`] and sends only what a step returned.
//!
//! # Concurrent mutation
//!
//! Mutator threads partition the processes round-robin and only ever hold
//! objects on (and export between) their own processes, so two mutator
//! threads never touch the same stub/scion table; every mutator-vs-
//! collector race is mediated by the per-process lock. Two disciplines
//! keep the races safe and observable:
//!
//! * **pin/unpin handshake** — an export opens the scion pinned, then the
//!   stub, then closes (refresh, unpin): the steps and their reasons are
//!   `acdgc_remoting::lifecycle`'s; `MutatorCtx::op_export` only decides
//!   which locks are held across them. Invocations likewise pin the target
//!   scion across the callee-side window so a cycle verdict cannot delete
//!   a reference mid-call. A set that skipped a scion because it was
//!   pinned is re-applied by the next [`Process::lgc_step`] after the pin
//!   drops.
//! * **mutation-aware quiescence** — every applied op bumps a shared
//!   `mutation_events` counter; a worker that observes a new count
//!   rescinds any held vote and resets its quiet streak, and
//!   `Quiescence::globally_quiet` additionally requires all mutators
//!   exited and every worker to have observed the final count. Quiescence
//!   therefore means "mutator drained AND collectors quiet".
//!
//! Every op is appended to a [`MutOp`] log while the owning process lock
//! is held; tests replay it over a [`crate::ShadowGraph`] of the pre-run
//! heaps to recompute ground-truth liveness (no live object deleted, all
//! garbage eventually collected) for runs whose oracle cannot be computed
//! up front. Mutator ops trace as [`Event::MutatorOp`] into the mutated
//! process's ring, under its lock like every other record, so
//! `--critical-path` waterfalls show collector-vs-mutator interference.

use crate::metrics::Metrics;
use crate::oracle::MutOp;
use crate::process::Process;
use crate::step::{Credit, Effect, GcMsg, Step};
use acdgc_heap::HeapRef;
use acdgc_model::rng::component_rng;
use acdgc_model::{
    DetectionId, GcConfig, MutatorConfig, NetConfig, ObjId, ProcId, RefId, SimTime, WatchdogConfig,
};
use acdgc_obs::health::{
    HealthReason, HealthReport, Heartbeat, Heartbeats, WorkerHealth, WorkerStage,
};
use acdgc_obs::{Event, MutatorOpKind, Sample, Sampler};
use acdgc_remoting::OpenedPair;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::Rng;
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Messages exchanged by the threaded runtime.
#[derive(Clone)]
enum ThreadMsg {
    /// Collector traffic a step sent.
    Gc(GcMsg),
    /// Weight-throwing echo: a terminal CDM outcome at a remote process
    /// returns the credit the dying derivation carried to the detection's
    /// initiator. `clean` is true only for outcomes that *prove* the
    /// walked structure live (no remote stubs / all stubs locally
    /// reachable); once the initiator has recovered [`FULL_CREDIT`]
    /// (all-clean, and no mutation raced the walk) it records a lazy
    /// liveness verdict and stops re-picking that scion until the next
    /// mutation epoch — without this, a live-but-not-locally-rooted
    /// structure is re-initiated after every backoff forever and the run
    /// can never vote itself quiescent.
    Credit(Credit),
}

impl ThreadMsg {
    /// The ledger counter one lost copy of this message bumps. A lost echo
    /// is charged to the CDM drop counter: it is part of the detection
    /// walk, and degrades exactly like a lost CDM (the initiator never
    /// recovers full credit and the candidate retries later).
    fn drop_counter<'m>(&self, m: &'m mut Metrics) -> &'m mut u64 {
        match self {
            ThreadMsg::Gc(GcMsg::Nss(_)) => &mut m.nss_dropped,
            ThreadMsg::Gc(GcMsg::NssAck { .. }) => &mut m.acks_dropped,
            ThreadMsg::Gc(GcMsg::Cdm { .. }) | ThreadMsg::Credit(_) => &mut m.cdms_dropped,
            ThreadMsg::Gc(GcMsg::DeleteScion { .. }) => &mut m.deletes_dropped,
        }
    }

    /// Whether the receiver dedups this message's copies (see
    /// [`ThreadEnvelope::tag`]): CDMs and echoes carry credit.
    fn tagged(&self) -> bool {
        matches!(
            self,
            ThreadMsg::Gc(GcMsg::Cdm { .. }) | ThreadMsg::Credit(_)
        )
    }
}

/// What actually travels on a channel: the message plus the sender and
/// its piggybacked Lamport clock — the threaded counterpart of
/// `acdgc_net::Envelope`'s `src`/`lamport`. The clock is zero when tracing
/// is off; both are purely observational (no protocol decision reads
/// them): the receiver witnesses the clock, and for a CDM records the pair
/// as the identity of the `CdmSent` it is a copy of.
#[derive(Clone)]
struct ThreadEnvelope {
    from: ProcId,
    lamport: u64,
    /// Receiver-side dedup tag, unique per *logical* send (injected
    /// duplicate copies share the sender's tag; zero means "untagged,
    /// never deduped"). Only CDM and credit traffic is tagged: a
    /// duplicated CDM would double the credit a branch carries, and a
    /// duplicated echo would double what the initiator recovers — either
    /// forgery could combine with a drop elsewhere to fake a full-credit
    /// all-clean recovery and suppress a *garbage* scion (a leak). NSS,
    /// acks, and scion deletes are already idempotent by construction.
    tag: u64,
    msg: ThreadMsg,
}

/// Shared state of the termination protocol. All counters are monotone
/// except `votes`; everything uses `SeqCst` — the protocol's correctness
/// argument needs a total order over these few operations and the
/// traffic is a handful of words per sweep.
struct Quiescence {
    workers: u64,
    votes: AtomicU64,
    /// Total rescind events (monotone). Lets the checker detect a vote
    /// that was rescinded and re-cast while it was looking.
    rescinds: AtomicU64,
    /// Messages successfully placed into a channel (drops excluded).
    enqueued: AtomicU64,
    /// Messages taken out of a channel.
    drained: AtomicU64,
    stop: AtomicBool,
    /// Workers that have fully exited (final drain done). The
    /// watchdog monitor watches this, not `stop`: a worker can stay stuck
    /// *after* the stop flag is raised, and that tail-end stall is exactly
    /// the one worth reporting.
    workers_done: AtomicU64,
    /// Mutator threads spawned for this run (0 when the mutator is off).
    mutators: u64,
    /// Mutator threads that have finished their op budget and exited.
    mutators_done: AtomicU64,
    /// Applied mutator ops (monotone); bumped *after* the op's process
    /// lock is released, so a worker that reads value `m` and then sweeps
    /// observes heap state including at least the first `m` ops.
    mutation_events: AtomicU64,
    /// Per-worker: the `mutation_events` value that worker last folded
    /// into its quiet-streak accounting. A vote is only trustworthy if it
    /// was cast after observing the final mutation count.
    mutation_seen: Vec<AtomicU64>,
}

impl Quiescence {
    fn new(workers: u64, mutators: u64) -> Self {
        Quiescence {
            workers,
            votes: AtomicU64::new(0),
            rescinds: AtomicU64::new(0),
            enqueued: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            workers_done: AtomicU64::new(0),
            mutators,
            mutators_done: AtomicU64::new(0),
            mutation_events: AtomicU64::new(0),
            mutation_seen: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The global termination predicate. Safe to conclude from any worker:
    /// if it returns true, every worker holds its vote, no channel holds a
    /// message, and no worker is mid-processing one.
    ///
    /// Why the read order makes the check sound (workers obey: sends only
    /// happen while unvoted; a voted worker rescinds — votes then
    /// rescinds counter — *before* counting the drain that woke it, and
    /// only receives can unvote a worker):
    ///
    /// 1. A message enqueued before the `enqueued` read and still
    ///    undrained fails `enqueued == drained`.
    /// 2. A message enqueued after it implies its sender was unvoted at
    ///    that point; the sender was voted at the first `votes` read
    ///    (all were), so a rescind happened in between — caught by the
    ///    `rescinds` re-read or the final `votes` re-read.
    /// 3. A send chain cannot bootstrap after the checks: sweeps are
    ///    suppressed while voted, unvoting requires a receive, and the
    ///    root of any receive chain is a message that already fails 1
    ///    or 2.
    ///
    /// With a live mutator, two more conjuncts make quiescence mean
    /// "mutator drained AND collectors quiet":
    ///
    /// 4. `mutators_done == mutators` is read *first*; every mutator bumps
    ///    `mutation_events` before incrementing `mutators_done`, so once
    ///    all mutators are done the count read in `m` is final (the
    ///    re-read at the end is cheap insurance).
    /// 5. `mutation_seen[i] == m` for every worker: a worker stores its
    ///    seen-count *before* rebuilding the quiet streak that leads to a
    ///    vote (and rescinds first if it was holding one), so all votes
    ///    standing at both `votes` reads were cast after sweeping the
    ///    post-final-mutation heap state.
    fn globally_quiet(&self) -> bool {
        if self.mutators_done.load(Ordering::SeqCst) != self.mutators {
            return false;
        }
        let r1 = self.rescinds.load(Ordering::SeqCst);
        if self.votes.load(Ordering::SeqCst) != self.workers {
            return false;
        }
        let m = self.mutation_events.load(Ordering::SeqCst);
        if self
            .mutation_seen
            .iter()
            .any(|s| s.load(Ordering::SeqCst) != m)
        {
            return false;
        }
        let e = self.enqueued.load(Ordering::SeqCst);
        let d = self.drained.load(Ordering::SeqCst);
        e == d
            && self.rescinds.load(Ordering::SeqCst) == r1
            && self.votes.load(Ordering::SeqCst) == self.workers
            && self.mutation_events.load(Ordering::SeqCst) == m
    }
}

/// A hook the runtime calls at the end of every worker loop iteration:
/// `(worker, sweep, voted)`. It runs in the same iteration as a vote cast
/// — before the next stop-flag check — so tests and examples can inject
/// deterministic slowness/stalls into one worker without touching the
/// protocol code.
pub type SweepHook = Arc<dyn Fn(ProcId, u64, bool) + Send + Sync>;

/// Callback invoked with every [`HealthReport`] the watchdog emits (stall
/// reports live, the terminal report after the workers joined). Called
/// from the monitor/runner thread with no locks held.
pub type ReportHook = Arc<dyn Fn(&HealthReport) + Send + Sync>;

/// Everything [`run_concurrent_collection_observed`] takes beyond the
/// processes and the GC config.
#[derive(Clone)]
pub struct ThreadedOptions {
    /// Fault model for the send path (latency fields ignored).
    pub net: NetConfig,
    /// Fault-injector seed.
    pub seed: u64,
    /// Wall-clock backstop if quiescence is never reached.
    pub deadline: Duration,
    /// Called after every worker sweep (stress tests inject chaos here).
    pub sweep_hook: Option<SweepHook>,
    /// Receives every watchdog [`HealthReport`] as it is emitted.
    pub on_report: Option<ReportHook>,
}

impl Default for ThreadedOptions {
    fn default() -> Self {
        ThreadedOptions {
            net: NetConfig {
                gc_drop_probability: 0.0,
                gc_duplicate_probability: 0.0,
                ..NetConfig::instant()
            },
            seed: 0,
            deadline: Duration::from_secs(60),
            sweep_hook: None,
            on_report: None,
        }
    }
}

/// What a threaded run returns: the final processes (every counter is in
/// their ledgers — fold them with [`merged_metrics`]), how the run ended,
/// every [`HealthReport`] the watchdog produced (stall reports in emission
/// order, then exactly one terminal report — quiescent or deadline — when
/// `cfg.watchdog.enabled`), and the telemetry samples the monitor thread
/// recorded during healthy operation (empty unless
/// `cfg.sampling.enabled`), ready for `Trace::with_samples`.
pub struct ThreadedRun {
    /// The final processes, unwrapped from their mutex cells.
    pub procs: Vec<Process>,
    /// Whether the run ended because every worker held its quiescence
    /// vote with all channels provably empty (see the module docs), rather
    /// than by the wall-clock deadline backstop.
    pub quiescent: bool,
    /// Watchdog reports in emission order (empty unless enabled).
    pub health: Vec<HealthReport>,
    /// Telemetry samples recorded by the monitor thread.
    pub samples: Vec<(Sample, usize)>,
    /// Every graph edit the concurrent mutator applied, in a linearization
    /// consistent with each process's lock order. Replay it over a
    /// [`crate::ShadowGraph`] of the pre-run heaps to recompute ground
    /// truth liveness. Empty when the mutator is disabled.
    pub mutation_log: Vec<MutOp>,
}

/// Run the GC stack concurrently over pre-built processes until the system
/// reaches distributed quiescence (every worker votes "nothing left to
/// do"; see module docs) or `opts.deadline` elapses as a backstop.
///
/// `procs` should come from a [`crate::System`] whose topology was built
/// sequentially — see `tests/threaded_collection.rs` at the workspace
/// root. `opts.net`'s `gc_drop_probability` / `gc_duplicate_probability`
/// drive a seeded fault injector on the send path (every threaded message
/// is GC class; the latency fields are ignored — channel scheduling is the
/// latency): same `opts.seed`, same injected fault decisions per worker
/// send sequence. The runtime health subsystem rides along: per-worker
/// heartbeat slots, a watchdog monitor thread detecting stalls against
/// [`GcConfig`]'s `watchdog` thresholds, and [`HealthReport`] snapshots
/// that show each worker's newest ring events and ledger.
pub fn run_concurrent_collection_observed(
    procs: Vec<Process>,
    cfg: GcConfig,
    opts: ThreadedOptions,
) -> ThreadedRun {
    let ThreadedOptions {
        net,
        seed,
        deadline,
        sweep_hook,
        on_report,
    } = opts;
    let mut procs = procs;
    let n = procs.len();
    let cfg = Arc::new(cfg);
    let mutator_threads = if cfg.mutator.enabled {
        cfg.mutator.threads.min(n)
    } else {
        0
    };
    let quiescence = Arc::new(Quiescence::new(n as u64, mutator_threads as u64));
    let detection_ids = Arc::new(AtomicU64::new(0));
    // Tag 0 means "untagged"; start at 1 so every assigned tag dedupes.
    let msg_tags = Arc::new(AtomicU64::new(1));

    // Fresh reference ids for mutator exports start far above anything the
    // pre-built topology used (including deleted ids with incarnation
    // tombstones), so a mutator-created pair can never collide with a
    // stale `DeleteScion` or saved live set naming an old id.
    let mut max_ref = 0u64;
    for p in &procs {
        for s in p.tables.stubs() {
            max_ref = max_ref.max(s.ref_id.0);
        }
        for s in p.tables.scions() {
            max_ref = max_ref.max(s.ref_id.0);
        }
    }
    let ref_ids = Arc::new(AtomicU64::new((1u64 << 48) | (max_ref + 1)));
    let mutation_log: Arc<Mutex<Vec<MutOp>>> = Arc::new(Mutex::new(Vec::new()));

    // (Re)arm tracing per this run's config and link every process to one
    // shared sequence counter (seeded past any events recorded while the
    // topology was built sequentially) so the merged trace stays totally
    // ordered across threads.
    if !procs.is_empty() {
        for p in procs.iter_mut() {
            p.obs.reconfigure(&cfg.trace);
        }
        let seq = procs[0].obs.seq_handle();
        for p in procs[1..].iter_mut() {
            p.obs.share_seq(seq.clone());
        }
    }

    let mut senders: Vec<Sender<ThreadEnvelope>> = Vec::with_capacity(n);
    let mut receivers: Vec<Option<Receiver<ThreadEnvelope>>> = Vec::with_capacity(n);
    for _ in 0..n {
        // Bounded inboxes put a hard cap on runtime memory; capacity 0
        // would make every try_send fail, so clamp to at least 1.
        let (tx, rx) = bounded(cfg.channel_capacity.max(1));
        senders.push(tx);
        receivers.push(Some(rx));
    }

    let cells: Vec<Arc<Mutex<Process>>> =
        procs.into_iter().map(|p| Arc::new(Mutex::new(p))).collect();

    let heartbeats = Heartbeats::new(n);
    let reports: Arc<Mutex<Vec<HealthReport>>> = Arc::new(Mutex::new(Vec::new()));

    let start = Instant::now();
    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let cell = Arc::clone(&cells[i]);
        let rx = receivers[i].take().unwrap();
        let ctx = WorkerCtx {
            me: ProcId(i as u16),
            txs: senders.clone(),
            cfg: Arc::clone(&cfg),
            net: net.clone(),
            rng: component_rng(seed, &format!("threaded-faults-{i}")),
            quiescence: Arc::clone(&quiescence),
            detection_ids: Arc::clone(&detection_ids),
            hb: Arc::clone(&heartbeats),
            hook: sweep_hook.clone(),
            started: start,
            round: 0,
            voted: false,
            quiet_streak: 0,
            last_mutation_seen: 0,
            msg_tags: Arc::clone(&msg_tags),
            outstanding: FxHashMap::default(),
            seen_tags: FxHashSet::default(),
            seen_order: VecDeque::new(),
            out: Vec::new(),
        };
        handles.push(thread::spawn(move || {
            worker(ctx, cell, rx, start, deadline)
        }));
    }

    // Mutator threads: partition the processes round-robin so no two
    // mutators ever touch the same process (see module docs), and race the
    // collector workers through the same per-process locks.
    let mut mutator_handles = Vec::with_capacity(mutator_threads);
    for k in 0..mutator_threads {
        let mctx = MutatorCtx {
            my_procs: (0..n).filter(|i| i % mutator_threads == k).collect(),
            cells: cells.clone(),
            mcfg: cfg.mutator,
            rng: component_rng(seed, &format!("mutator-{k}")),
            ref_ids: Arc::clone(&ref_ids),
            log: Arc::clone(&mutation_log),
            quiescence: Arc::clone(&quiescence),
            owned: Vec::new(),
            edges: Vec::new(),
        };
        mutator_handles.push(thread::spawn(move || mutator(mctx, start, deadline)));
    }

    // One monitor thread serves both observability duties: watchdog stall
    // detection and periodic healthy-run sampling share the same polling
    // loop (and the same heartbeat snapshot per poll), so enabling either
    // spawns it.
    let sampler = Arc::new(Mutex::new(Sampler::new(&cfg.sampling, n)));
    let monitor_handle = ((cfg.watchdog.enabled || cfg.sampling.enabled) && n > 0).then(|| {
        let mctx = MonitorCtx {
            hb: Arc::clone(&heartbeats),
            cells: cells.clone(),
            quiescence: Arc::clone(&quiescence),
            wcfg: cfg.watchdog,
            start,
            reports: Arc::clone(&reports),
            on_report: on_report.clone(),
            sampler: Arc::clone(&sampler),
        };
        thread::spawn(move || monitor(mctx))
    });

    for h in mutator_handles {
        h.join().expect("mutator thread panicked");
    }
    for h in handles {
        h.join().expect("worker thread panicked");
    }
    if let Some(h) = monitor_handle {
        h.join().expect("watchdog monitor thread panicked");
    }

    // Terminal report: every worker has exited (locks free), so this
    // snapshot is exact rather than best-effort.
    // Only the worker that proved global quiescence raises the stop flag;
    // a deadline exit leaves it down.
    let quiescent = quiescence.stop.load(Ordering::SeqCst);
    if cfg.watchdog.enabled && n > 0 {
        let reason = if quiescent {
            HealthReason::Quiescent
        } else {
            HealthReason::Deadline
        };
        let at_us = start.elapsed().as_micros() as u64;
        let beats = heartbeats.snapshot();
        let report = build_health_report(reason, at_us, &beats, &[], &cells);
        if let Some(cb) = &on_report {
            cb(&report);
        }
        reports.lock().push(report);
    }

    let procs = cells
        .into_iter()
        .map(|c| {
            Arc::try_unwrap(c)
                .map(|m| m.into_inner())
                .unwrap_or_else(|arc| arc.lock().clone())
        })
        .collect();
    let health = std::mem::take(&mut *reports.lock());
    let samples = sampler.lock().export();
    let mutation_log = std::mem::take(&mut *mutation_log.lock());
    ThreadedRun {
        procs,
        quiescent,
        health,
        samples,
        mutation_log,
    }
}

/// Everything the watchdog monitor thread reads.
struct MonitorCtx {
    hb: Arc<Heartbeats>,
    cells: Vec<Arc<Mutex<Process>>>,
    quiescence: Arc<Quiescence>,
    wcfg: WatchdogConfig,
    start: Instant,
    reports: Arc<Mutex<Vec<HealthReport>>>,
    on_report: Option<ReportHook>,
    sampler: Arc<Mutex<Sampler>>,
}

/// The monitor loop, shared by two observers of the same heartbeat poll:
///
/// * **watchdog** (`wcfg.enabled`): emit a stall [`HealthReport`] when any
///   worker's beat goes older than `stall_after`;
/// * **sampler** (`cfg.sampling.enabled`): every `sample_every` polls
///   during *healthy* operation, record one telemetry [`Sample`] per
///   worker plus the global aggregate — deduped by beat (a poll where no
///   worker advanced its heartbeat records nothing), so an idle tail does
///   not pad the series with identical rows.
///
/// The loop takes exactly one heartbeat snapshot per poll and feeds both
/// consumers from it; worker state is read `try_lock`-only (carrying the
/// last known values on failure), so the monitor can never deadlock
/// behind a wedged worker. Runs until every worker has fully exited —
/// not merely until the stop flag — because a worker wedged during its
/// final drain is still a stall worth seeing.
fn monitor(ctx: MonitorCtx) {
    let stall_after_us = ctx.wcfg.stall_after.as_ticks().max(1);
    let poll = Duration::from_micros(ctx.wcfg.poll_every.as_ticks().max(1_000));
    let workers = ctx.hb.len() as u64;
    // Beat value already reported per worker: one stall episode produces
    // one report, a *new* beat followed by a new silence is a new episode.
    let mut reported_beat: Vec<u64> = vec![u64::MAX; ctx.hb.len()];
    let mut stall_reports = 0usize;
    let mut polls = 0u64;
    let mut sampling = SamplingState::new(ctx.hb.len());
    while ctx.quiescence.workers_done.load(Ordering::SeqCst) < workers {
        thread::sleep(poll);
        polls += 1;
        // The hoisted per-poll pass: one beats snapshot, one timestamp.
        let beats = ctx.hb.snapshot();
        let now_us = ctx.start.elapsed().as_micros() as u64;

        if ctx.sampler.lock().due(polls) {
            sampling.sample_tick(&ctx, now_us, polls, &beats);
        }

        if !ctx.wcfg.enabled || stall_reports >= ctx.wcfg.max_stall_reports {
            continue; // keep polling (sampling/exit), but report no stalls
        }
        let stalled: Vec<bool> = beats
            .iter()
            .enumerate()
            .map(|(i, b)| {
                b.stage != WorkerStage::Done
                    && now_us.saturating_sub(b.last_beat_us) > stall_after_us
                    && reported_beat[i] != b.last_beat_us
            })
            .collect();
        if !stalled.iter().any(|&s| s) {
            continue;
        }
        for (i, &s) in stalled.iter().enumerate() {
            if s {
                reported_beat[i] = beats[i].last_beat_us;
            }
        }
        let report = build_health_report(HealthReason::Stall, now_us, &beats, &stalled, &ctx.cells);
        if let Some(cb) = &ctx.on_report {
            cb(&report);
        }
        ctx.reports.lock().push(report);
        stall_reports += 1;
    }
}

/// The monitor's sampling memory: the beat values at the last recorded
/// sample (for dedup) and each worker's last successfully read sample
/// (carried forward when the worker holds its process lock at poll time).
struct SamplingState {
    last_sampled_beats: Vec<u64>,
    carried: Vec<Sample>,
}

impl SamplingState {
    fn new(workers: usize) -> Self {
        SamplingState {
            last_sampled_beats: vec![u64::MAX; workers],
            carried: vec![Sample::default(); workers],
        }
    }

    /// Record one sampling tick from the poll's heartbeat snapshot.
    ///
    /// Per-worker rows come from the process behind a `try_lock` (a worker
    /// mid-sweep keeps its lock; we carry the last known values rather
    /// than block — counters stay monotone because the carried value is an
    /// earlier read of a monotone ledger). The global row is their
    /// [`Sample::aggregate`]; only its in-flight and vote gauges come from
    /// the lock-free [`Quiescence`] atomics.
    fn sample_tick(&mut self, ctx: &MonitorCtx, now_us: u64, polls: u64, beats: &[Heartbeat]) {
        // Dedup by beat: if no worker advanced since the last recorded
        // sample, the system is idle and a new row would duplicate the
        // previous one.
        if beats
            .iter()
            .zip(&self.last_sampled_beats)
            .all(|(b, &prev)| b.last_beat_us == prev)
        {
            return;
        }
        for (i, b) in beats.iter().enumerate() {
            self.last_sampled_beats[i] = b.last_beat_us;
        }
        let at = SimTime(now_us);
        for (i, b) in beats.iter().enumerate() {
            let read = ctx.cells[i].try_lock().map(|p| p.sample(at, polls));
            self.carried[i] = Sample {
                at,
                round: polls,
                proc: Some(ProcId(i as u16)),
                inbox_depth: b.inbox_depth(),
                in_flight_cdms: b.inbox_depth(),
                votes_held: u64::from(b.voted),
                ..read.unwrap_or(self.carried[i])
            };
        }
        let q = &ctx.quiescence;
        let global = Sample {
            in_flight_cdms: q
                .enqueued
                .load(Ordering::SeqCst)
                .saturating_sub(q.drained.load(Ordering::SeqCst)),
            votes_held: q.votes.load(Ordering::SeqCst),
            ..Sample::aggregate(at, polls, &self.carried)
        };
        ctx.sampler.lock().record(global, &self.carried);
    }
}

/// How many of a worker's newest ring events a health report shows.
const RECENT_EVENTS: usize = 8;

/// Snapshot every worker's vitals and — when the process lock is free —
/// its newest ring events and metrics ledger. `stalled` is per-worker
/// flags; empty means "none" (the terminal report).
fn build_health_report(
    reason: HealthReason,
    at_us: u64,
    beats: &[Heartbeat],
    stalled: &[bool],
    cells: &[Arc<Mutex<Process>>],
) -> HealthReport {
    let workers = beats
        .iter()
        .enumerate()
        .map(|(i, b)| {
            // try_lock: a worker stalled *inside* a sweep holds its
            // process lock; blocking on it would wedge the watchdog
            // behind the very stall it is reporting.
            let p = cells[i].try_lock();
            let recent_events = p.as_ref().map_or_else(Vec::new, |p| {
                let older = p.obs.len().saturating_sub(RECENT_EVENTS);
                let newest = p.obs.events().skip(older);
                newest.map(|r| (r.at, r.event.clone())).collect()
            });
            WorkerHealth {
                proc: ProcId(i as u16),
                stage: b.stage,
                last_beat_us: b.last_beat_us,
                sweep: b.sweep,
                voted: b.voted,
                inbox_depth: b.inbox_depth(),
                stalled: stalled.get(i).copied().unwrap_or(false),
                recent_events,
                ledger: p.map(|p| p.metrics.to_json()),
            }
        })
        .collect();
    HealthReport {
        at_us,
        reason,
        workers,
    }
}

/// Per-worker context: everything a worker touches besides its process
/// cell and inbox.
struct WorkerCtx {
    me: ProcId,
    txs: Vec<Sender<ThreadEnvelope>>,
    cfg: Arc<GcConfig>,
    net: NetConfig,
    rng: SmallRng,
    quiescence: Arc<Quiescence>,
    detection_ids: Arc<AtomicU64>,
    /// Shared heartbeat slots: this worker publishes into slot
    /// `me.index()`, reads nothing. The watchdog monitor reads all slots.
    hb: Arc<Heartbeats>,
    /// Test/diagnostic hook invoked once per loop iteration, after the
    /// heartbeat for that iteration is published. Lets a test wedge a
    /// specific worker at a known point without reaching into internals.
    hook: Option<SweepHook>,
    started: Instant,
    round: u64,
    voted: bool,
    quiet_streak: u32,
    /// The `Quiescence::mutation_events` value this worker has already
    /// folded into its quiet-streak accounting (mirrored into
    /// `Quiescence::mutation_seen` for the global check).
    last_mutation_seen: u64,
    /// Shared allocator for [`ThreadEnvelope::tag`] dedup tags; one
    /// counter across all workers so tags are globally unique.
    msg_tags: Arc<AtomicU64>,
    /// Detections this worker initiated whose credit has not fully come
    /// home: id → (scion walked, mutation epoch at initiation, credit
    /// still outstanding, whether every echo so far was clean).
    outstanding: FxHashMap<DetectionId, Outstanding>,
    /// Receiver-side dedup window over [`ThreadEnvelope::tag`]: a tag in
    /// the set has been processed; `seen_order` evicts oldest-first so
    /// the window stays bounded (duplicates arrive close behind their
    /// originals — the channel is bounded — so a small window suffices).
    seen_tags: FxHashSet<u64>,
    seen_order: VecDeque<u64>,
    /// The effect buffer every step appends to, drained after each step.
    out: Vec<Effect>,
}

/// Weight-throwing ledger entry for one initiated detection (see
/// [`ThreadMsg::Credit`]).
struct Outstanding {
    /// The candidate scion the detection walked from.
    scion: RefId,
    /// `Quiescence::mutation_events` as of initiation; a verdict is
    /// applied only if the count is unchanged when the last credit lands
    /// (and re-checked against the candidate table's own epoch), since a
    /// racing mutation can invalidate what the walk observed.
    epoch: u64,
    /// Credit not yet returned; starts at [`acdgc_dcda::FULL_CREDIT`].
    credit: u64,
    /// AND of every echo's `clean` flag: true only while *all* settled
    /// branches proved liveness (rather than dying to a fault, budget,
    /// hop cap, IC mismatch, or a no-new-information prune).
    clean: bool,
}

/// Cap on the dedup window (tags remembered per worker).
const SEEN_TAG_WINDOW: usize = 8192;
/// Cap on the outstanding-detection ledger; beyond this the oldest
/// (smallest-id) entries are forgotten, which only loses a potential
/// suppression — the candidate simply retries after its backoff.
const OUTSTANDING_CAP: usize = 1024;

/// How a drained message should be handled.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DrainMode {
    /// Normal in-loop drain: process everything.
    Live,
    /// Post-stop drain: apply idempotent state (NSS, scion deletes) so
    /// buffered messages from peers that stopped after us are not lost,
    /// but discard CDMs (no peers remain to continue a walk) and send
    /// nothing.
    Final,
}

impl WorkerCtx {
    /// This worker's clock: microseconds since the run started. The
    /// threaded runtime has no shared simulated clock; wall time is the
    /// only order that means anything across threads.
    fn now(&self) -> SimTime {
        SimTime(self.started.elapsed().as_micros() as u64 + 1)
    }

    /// Count and record a vote transition of the worker loop. Every count
    /// and trace record happens under the process lock, so each process's
    /// ledger, stamps and sequence numbers are monotone by construction.
    fn note_vote(&self, cell: &Mutex<Process>, cast: bool) {
        let (mut p, sweep) = (cell.lock(), self.round);
        if cast {
            p.metrics.votes_cast += 1;
            p.obs.record(self.now(), Event::VoteCast { sweep });
        } else {
            p.metrics.votes_rescinded += 1;
            p.obs.record(self.now(), Event::VoteRescinded { sweep });
        }
    }

    /// Record a dedup tag; returns false if it was already seen (the
    /// message is an injected duplicate and must be discarded). The
    /// window is bounded by [`SEEN_TAG_WINDOW`], evicting oldest-first.
    fn note_tag(&mut self, tag: u64) -> bool {
        if !self.seen_tags.insert(tag) {
            return false;
        }
        self.seen_order.push_back(tag);
        if self.seen_order.len() > SEEN_TAG_WINDOW {
            if let Some(old) = self.seen_order.pop_front() {
                self.seen_tags.remove(&old);
            }
        }
        true
    }

    /// Send through the seeded fault injector; a full (or disconnected)
    /// inbox also drops. Every accepted copy is counted into the
    /// quiescence enqueue ledger. `from` is this worker's (locked)
    /// process, whose ledger counts the losses; every copy carries
    /// `lamport`, the sender's clock as of the send, so the receiver's
    /// witness establishes receive > send.
    fn send(&mut self, from: &mut Process, dest: ProcId, lamport: u64, msg: ThreadMsg) {
        if self
            .rng
            .gen_bool(self.net.gc_drop_probability.clamp(0.0, 1.0))
        {
            from.metrics.faults_injected += 1;
            *msg.drop_counter(&mut from.metrics) += 1;
            return;
        }
        let copies = if self
            .rng
            .gen_bool(self.net.gc_duplicate_probability.clamp(0.0, 1.0))
        {
            from.metrics.duplicates_injected += 1;
            2
        } else {
            1
        };
        // One tag per *logical* send, allocated before the copies loop so
        // an injected duplicate shares it and the receiver keeps exactly
        // one — credit must not be forgeable by the fault injector.
        let tag = if msg.tagged() {
            self.msg_tags.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        for _ in 0..copies {
            let env = ThreadEnvelope {
                from: self.me,
                lamport,
                tag,
                msg: msg.clone(),
            };
            if self.txs[dest.index()].try_send(env).is_ok() {
                self.quiescence.enqueued.fetch_add(1, Ordering::SeqCst);
                self.hb.slot(dest.index()).note_enqueue();
            } else {
                *msg.drop_counter(&mut from.metrics) += 1;
            }
        }
    }

    /// Drain the inbox, processing every message per `mode`. Returns how
    /// many messages were drained. The single implementation for the
    /// in-loop and final drains keeps their stats accounting identical by
    /// construction.
    fn drain(
        &mut self,
        cell: &Arc<Mutex<Process>>,
        rx: &Receiver<ThreadEnvelope>,
        mode: DrainMode,
    ) -> u64 {
        let mut drained = 0u64;
        while let Ok(env) = rx.try_recv() {
            let mut guard = cell.lock();
            let p = &mut *guard;
            // Lamport receive rule, before any delivery-side event: every
            // event this delivery triggers must stamp above the sender's
            // clock at send time.
            p.obs.witness(env.lamport);
            if self.voted && mode == DrainMode::Live {
                // Rescind BEFORE the drain is counted: the quiescence
                // checker relies on "a voted worker's receive is preceded
                // by a rescind" to rule out hidden activity.
                self.quiescence.votes.fetch_sub(1, Ordering::SeqCst);
                self.quiescence.rescinds.fetch_add(1, Ordering::SeqCst);
                p.metrics.votes_rescinded += 1;
                let sweep = self.round;
                p.obs.record(self.now(), Event::VoteRescinded { sweep });
                self.voted = false;
                self.quiet_streak = 0;
            }
            self.quiescence.drained.fetch_add(1, Ordering::SeqCst);
            self.hb.slot(self.me.index()).note_drain();
            drained += 1;
            // Dedup strictly AFTER the drained ledger update: quiescence
            // compares enqueued vs drained totals, and a skipped-but-
            // enqueued duplicate would otherwise hold the run open forever.
            if env.tag != 0 && !self.note_tag(env.tag) {
                p.metrics.cdms_deduped += 1;
                continue;
            }
            match env.msg {
                // After the stop flag no peers remain to continue a walk
                // or settle its credit; the loss is counted like any other
                // dropped CDM so the ledgers cannot silently diverge.
                ThreadMsg::Gc(GcMsg::Cdm { .. }) | ThreadMsg::Credit(_)
                    if mode == DrainMode::Final =>
                {
                    p.metrics.cdms_dropped += 1;
                }
                ThreadMsg::Gc(msg) => {
                    let at = self.now();
                    self.step(p, at, |p, cx| p.on_message(cx, env.from, env.lamport, msg));
                }
                ThreadMsg::Credit(c) => self.apply_credit(p, c),
            }
        }
        drained
    }

    /// Run one protocol step at `now` on this worker's (locked) process,
    /// then carry out what it returned.
    fn step<R>(
        &mut self,
        p: &mut Process,
        now: SimTime,
        f: impl FnOnce(&mut Process, &mut Step<'_>) -> R,
    ) -> R {
        let mut out = std::mem::take(&mut self.out);
        let mut cx = Step {
            cfg: &self.cfg,
            now,
            merged: None,
            out: &mut out,
        };
        let r = f(p, &mut cx);
        self.flush(p, &mut out);
        self.out = out;
        r
    }

    /// Carry out a step's effects in order: sends go through
    /// [`WorkerCtx::send`]; a settlement goes to the initiator's
    /// [`Outstanding`] ledger — directly when the initiator is this worker
    /// (the common case for outcomes produced at initiation time), echoed
    /// over the same lossy channel otherwise (a lost echo just means the
    /// initiator never recovers full credit and the candidate retries
    /// after its backoff).
    fn flush(&mut self, p: &mut Process, out: &mut Vec<Effect>) {
        for effect in out.drain(..) {
            match effect {
                Effect::Send { dest, lamport, msg } => {
                    self.send(p, dest, lamport, ThreadMsg::Gc(msg))
                }
                Effect::Settle(c) if c.initiator == self.me => self.apply_credit(p, c),
                Effect::Settle(c) => {
                    p.metrics.liveness_echoes += 1;
                    let lamport = p.obs.clock_value();
                    self.send(p, c.initiator, lamport, ThreadMsg::Credit(c));
                }
            }
        }
    }

    /// Initiator side of the weight-throwing scheme: fold an echo into
    /// the outstanding-detection ledger; when the last credit lands with
    /// every echo clean *and* no mutation raced the walk, record a lazy
    /// liveness verdict so the candidate scan stops re-picking the scion
    /// until the next mutation epoch.
    fn apply_credit(&mut self, p: &mut Process, c: Credit) {
        let Some(o) = self.outstanding.get_mut(&c.id) else {
            // Evicted (ledger cap) or a stale echo for a detection whose
            // verdict already settled; either way there is nothing to
            // account against.
            return;
        };
        o.credit = o.credit.saturating_sub(c.credit);
        o.clean &= c.clean;
        if o.credit == 0 {
            let done = self.outstanding.remove(&c.id).expect("present above");
            let epoch_now = self.quiescence.mutation_events.load(Ordering::SeqCst);
            if done.clean && epoch_now == done.epoch {
                p.candidates.record_live_verdict(done.scion, done.epoch);
                p.metrics.liveness_verdicts += 1;
            }
        }
    }

    /// One GC sweep: LGC, stub-death publication (with ack/retry), snapshot,
    /// candidate scan, detection initiation. Returns whether the sweep saw
    /// or produced any activity — including *pending* work (unacked NSS,
    /// backing-off candidates), which must hold off the quiescence vote.
    fn sweep(&mut self, cell: &Arc<Mutex<Process>>) -> bool {
        let cfg = Arc::clone(&self.cfg);
        let num_procs = self.txs.len();
        let mut guard = cell.lock();
        let p = &mut *guard;
        // Read under the lock: `t` is the sets' `lgc_at`, and one read while
        // a mutator held the process could predate its `close_scion` at a
        // peer — a set that saw the reference dropped yet may not judge it.
        let t = self.now();

        let work = p.lgc_step(&cfg, num_procs, t, None);
        let mut active = work.freed > 0 || work.dead_stubs > 0 || work.rejudged_scions > 0;
        // No separate monitor thread here: condemned stubs are reclaimed
        // in the same sweep, and the corrected sets (built under the same
        // lock, later sequence numbers) supersede the LGC's.
        active |= self.step(p, t, |p, cx| {
            let mut nss = p.monitor_step(cx, num_procs);
            if nss.is_empty() {
                nss = work.nss;
            }
            p.publish_nss(cx, nss)
        });

        p.refresh_summary(t);

        // Advance the candidate table's mutation epoch before scanning:
        // any mutator activity since the last sweep invalidates earlier
        // proven-live suppressions (the structure may have changed shape),
        // and stale verdicts still in flight die on the epoch check.
        p.candidates.set_epoch(self.last_mutation_seen);
        let scan = p.scan(t, &cfg);
        // Deferred candidates are scheduled retries: quiescence now would
        // abandon them, and with message loss a retry may be the only
        // thing standing between a garbage cycle and a leak.
        active |= scan.work_pending();
        for scion in scan.picked {
            let id = DetectionId(self.detection_ids.fetch_add(1, Ordering::Relaxed));
            self.open_credit(id, scion);
            self.step(p, t, |p, cx| p.initiate(cx, scion, || id));
        }
        active
    }

    /// Open the weight-throwing ledger entry for a detection about to
    /// start from `scion`. Any older entry for the same scion is
    /// superseded — its late echoes will miss the ledger and be ignored.
    fn open_credit(&mut self, id: DetectionId, scion: RefId) {
        self.outstanding.retain(|_, o| o.scion != scion);
        if self.outstanding.len() >= OUTSTANDING_CAP {
            // Forget the oldest half; those candidates just lose a
            // potential suppression and retry after backoff.
            let mut ids: Vec<DetectionId> = self.outstanding.keys().copied().collect();
            ids.sort_unstable_by_key(|d| d.0);
            for stale in ids.into_iter().take(OUTSTANDING_CAP / 2) {
                self.outstanding.remove(&stale);
            }
        }
        self.outstanding.insert(
            id,
            Outstanding {
                scion,
                epoch: self.last_mutation_seen,
                credit: acdgc_dcda::FULL_CREDIT,
                clean: true,
            },
        );
    }
}

/// Fold every process's per-process ledger into one system-wide view —
/// the threaded counterpart of the sequential `System::metrics()`.
pub fn merged_metrics(procs: &[Process]) -> Metrics {
    let mut merged = Metrics::default();
    for p in procs {
        merged.absorb(&p.metrics);
    }
    merged
}

fn worker(
    mut ctx: WorkerCtx,
    cell: Arc<Mutex<Process>>,
    rx: Receiver<ThreadEnvelope>,
    start: Instant,
    deadline: Duration,
) {
    let me = ctx.me.index();
    let hb = Arc::clone(&ctx.hb);
    let hook = ctx.hook.take();
    hb.slot(me)
        .beat(now_us(start), 0, WorkerStage::Starting, false);
    while !ctx.quiescence.stop.load(Ordering::SeqCst) {
        if start.elapsed() >= deadline {
            break;
        }
        ctx.round += 1;
        hb.slot(me).beat(
            now_us(start),
            ctx.round,
            if ctx.voted {
                WorkerStage::Voted
            } else {
                WorkerStage::Draining
            },
            ctx.voted,
        );

        let received = ctx.drain(&cell, &rx, DrainMode::Live);
        if received > 0 {
            ctx.quiet_streak = 0;
        }

        // Mutation check: a mutator op anywhere in the system can create
        // fresh garbage (or fresh work) on *this* process via an export or
        // an invocation, so any unseen mutation resets the quiet streak —
        // and rescinds an already-cast vote so the barrier can't close
        // around activity we have not yet swept.
        let mutations = ctx.quiescence.mutation_events.load(Ordering::SeqCst);
        if mutations != ctx.last_mutation_seen {
            if ctx.voted {
                ctx.voted = false;
                ctx.quiescence.votes.fetch_sub(1, Ordering::SeqCst);
                ctx.quiescence.rescinds.fetch_add(1, Ordering::SeqCst);
                ctx.note_vote(&cell, false);
            }
            ctx.quiet_streak = 0;
            ctx.last_mutation_seen = mutations;
        }
        // Publish what we've seen *after* folding it into our streak, so
        // the global check's "every worker has seen the final mutation"
        // reads a value that postdates the streak reset.
        ctx.quiescence.mutation_seen[me].store(mutations, Ordering::SeqCst);

        if !ctx.voted {
            hb.slot(me).set_stage(WorkerStage::Sweeping, now_us(start));
            let active = ctx.sweep(&cell);
            if active || received > 0 {
                ctx.quiet_streak = 0;
            } else {
                ctx.quiet_streak += 1;
            }
            if ctx.quiet_streak >= ctx.cfg.quiet_sweeps.max(1) {
                ctx.voted = true;
                ctx.quiescence.votes.fetch_add(1, Ordering::SeqCst);
                ctx.note_vote(&cell, true);
                hb.slot(me)
                    .beat(now_us(start), ctx.round, WorkerStage::Voted, true);
            }
        } else if ctx.quiescence.globally_quiet() {
            ctx.quiescence.stop.store(true, Ordering::SeqCst);
            break;
        }
        // End-of-iteration hook: runs in the same iteration as a vote cast
        // (no stop check in between), so a test can deterministically wedge
        // a worker right after its `VoteCast`.
        if let Some(h) = &hook {
            h(ctx.me, ctx.round, ctx.voted);
        }
        thread::yield_now();
    }
    // Final drain so late NSS / scion deletes buffered by peers that
    // stopped after us are applied rather than lost.
    hb.slot(me)
        .set_stage(WorkerStage::FinalDrain, now_us(start));
    ctx.drain(&cell, &rx, DrainMode::Final);
    hb.slot(me)
        .beat(now_us(start), ctx.round, WorkerStage::Done, ctx.voted);
    // Signal the watchdog monitor that this worker has fully exited; the
    // monitor loops until every worker has, not until the stop flag.
    ctx.quiescence.workers_done.fetch_add(1, Ordering::SeqCst);
}

/// State owned by one concurrent-mutator thread: the processes it may
/// mutate, the objects it allocated (all rooted at birth), and the remote
/// edges it created. Confining every mutation to thread-owned processes
/// and thread-allocated objects means mutator threads never race *each
/// other* on a stub table or heap — every data race the stress tests
/// exercise is mutator-vs-collector, through the per-process locks.
struct MutatorCtx {
    /// Indices of the processes this thread owns (round-robin partition).
    my_procs: Vec<usize>,
    cells: Vec<Arc<Mutex<Process>>>,
    mcfg: MutatorConfig,
    rng: SmallRng,
    /// Fresh reference-id allocator shared by all mutator threads.
    ref_ids: Arc<AtomicU64>,
    /// Append-only log of every structural mutation, for shadow replay.
    log: Arc<Mutex<Vec<MutOp>>>,
    quiescence: Arc<Quiescence>,
    /// Objects this thread allocated; every entry is currently rooted.
    owned: Vec<ObjId>,
    /// Remote edges this thread created: (holder, ref, target).
    edges: Vec<(ObjId, RefId, ObjId)>,
}

/// Lock two process cells in ascending index order. Pure hygiene between
/// mutator threads (their process sets are disjoint anyway); collector
/// workers only ever hold one process lock at a time, so a mutator
/// holding two cannot deadlock against them in any order.
fn lock_pair<'l>(
    cell_a: &'l Arc<Mutex<Process>>,
    cell_b: &'l Arc<Mutex<Process>>,
    a: usize,
    b: usize,
) -> (
    std::sync::MutexGuard<'l, Process>,
    std::sync::MutexGuard<'l, Process>,
) {
    if a < b {
        let ga = cell_a.lock();
        let gb = cell_b.lock();
        (ga, gb)
    } else {
        let gb = cell_b.lock();
        let ga = cell_a.lock();
        (ga, gb)
    }
}

impl MutatorCtx {
    /// Record a mutator op into the (locked) process it touched, on the
    /// same ring and clock as the collector's events.
    fn trace_op(&self, p: &mut Process, op: MutatorOpKind, ref_id: Option<RefId>, start: Instant) {
        p.obs
            .record(self.now(start), Event::MutatorOp { op, ref_id });
    }

    fn now(&self, start: Instant) -> SimTime {
        SimTime(now_us(start) + 1)
    }

    /// Allocate a fresh object on a random owned process and root it in
    /// the same critical section. Always succeeds; doubles as the fallback
    /// when another op's preconditions fail, so every loop iteration
    /// performs *some* mutation.
    fn op_allocate(&mut self, start: Instant) -> bool {
        let pi = self.my_procs[self.rng.gen_range(0..self.my_procs.len())];
        let cell = Arc::clone(&self.cells[pi]);
        let obj = {
            let mut guard = cell.lock();
            let p = &mut *guard;
            let obj = p.heap.alloc(1);
            p.heap
                .add_root(obj)
                .expect("freshly allocated object can always be rooted");
            p.metrics.mutator_allocs += 1;
            self.log.lock().push(MutOp::Allocate { obj, rooted: true });
            self.trace_op(p, MutatorOpKind::Allocate, None, start);
            obj
        };
        self.owned.push(obj);
        true
    }

    /// Export a remote reference from one owned object to another owned
    /// object on a different process, through the three lifecycle steps
    /// of `acdgc_remoting::lifecycle`. A pair with a surviving half is
    /// reused or repaired with all three under both locks; a fresh pair
    /// runs them as a real RPC layer would — one lock at a time, yielding
    /// in between, so the collector races the window where only the pin
    /// protects the scion.
    fn op_export(&mut self, start: Instant) -> bool {
        if self.owned.len() < 2 {
            return false;
        }
        let h = self.owned[self.rng.gen_range(0..self.owned.len())];
        let targets: Vec<ObjId> = self
            .owned
            .iter()
            .copied()
            .filter(|o| o.proc != h.proc)
            .collect();
        if targets.is_empty() {
            return false;
        }
        let t = targets[self.rng.gen_range(0..targets.len())];
        let (a, b) = (h.proc.index(), t.proc.index());
        let (cell_a, cell_b) = (Arc::clone(&self.cells[a]), Arc::clone(&self.cells[b]));

        // Both `h` and `t` are this thread's objects, so any stub/scion for
        // the pair was created by this thread — the collector can only
        // *remove* them — and fresh ids start far above the pre-built
        // topology's (see `ref_ids`).
        let (opened, fresh) = {
            let (mut ga, mut gb) = lock_pair(&cell_a, &cell_b, a, b);
            // Read under both locks: `now` becomes the scion's horizon, and
            // one read before the wait lets a set the holder's worker built
            // meanwhile (stub swept) judge the scion this export re-establishes.
            let now = self.now(start);
            let mint = || RefId(self.ref_ids.fetch_add(1, Ordering::Relaxed));
            let stub = ga.tables.stub_for_target(t);
            let opened = gb.tables.open_scion(h.proc, t, stub, mint, now);
            let fresh = !(opened.had_stub || opened.had_scion);
            if !fresh {
                if !opened.had_scion && self.edges.iter().any(|e| e.1 == opened.ref_id) {
                    // The scion of a reference this mutator still holds is
                    // gone: the collector deleted a live reference — never
                    // legal (stress tests assert zero). A stub held only by
                    // convicted garbage may outlive its scion; both are repaired.
                    gb.metrics.invoke_on_missing_scion += 1;
                }
                self.import_at(&mut ga, h, t, &opened, start);
                gb.tables
                    .close_scion(opened.ref_id, now)
                    .expect("scion pinned under this lock");
                // Re-animating an existing pair may race an in-flight
                // cycle verdict computed while the pair looked garbage.
                // An export rides an invocation (the paper marshals
                // references as invocation arguments), so bump both
                // counters under both locks: any verdict that witnessed
                // the old counter dies at its delete-site IC re-check.
                ga.tables
                    .record_send_through_stub(opened.ref_id)
                    .expect("stub exists under this lock");
                gb.tables
                    .record_receive_through_scion(opened.ref_id, now)
                    .expect("scion exists under this lock");
            }
            (opened, fresh)
        };
        if fresh {
            thread::yield_now();
            self.import_at(&mut cell_a.lock(), h, t, &opened, start);
            thread::yield_now();
            cell_b
                .lock()
                .tables
                .close_scion(opened.ref_id, self.now(start))
                .expect("a pinned scion cannot be deleted");
        }
        self.edges.push((h, opened.ref_id, t));
        true
    }

    /// Importer half of an export, under the holder's lock: the stub, the
    /// heap edge, and the op's ledger, log and trace records.
    fn import_at(&self, ga: &mut Process, h: ObjId, t: ObjId, opened: &OpenedPair, start: Instant) {
        let r = opened.ref_id;
        ga.tables.open_stub(r, t, opened.ic, self.now(start));
        ga.heap
            .add_ref(h, HeapRef::Remote(r))
            .expect("owned holder is rooted and alive");
        ga.metrics.mutator_exports += 1;
        self.log.lock().push(MutOp::AddRemoteRef(h, r, t));
        self.trace_op(ga, MutatorOpKind::Export, Some(r), start);
    }

    /// Invoke along a previously created remote edge: bump the stub-side
    /// invocation counter, pin the target scion, deliver (bump the scion
    /// IC), unpin. The pin holds the invocation target against concurrent
    /// deletion while the call is in flight; the stub-side IC bump alone
    /// already invalidates any CDM verdict computed before it (the IC
    /// barrier), which is why no refresh is needed on unpin.
    fn op_invoke(&mut self, start: Instant) -> bool {
        if self.edges.is_empty() {
            return false;
        }
        let ei = self.rng.gen_range(0..self.edges.len());
        let (h, r, t) = self.edges[ei];
        let (a, b) = (h.proc.index(), t.proc.index());
        let (cell_a, cell_b) = (Arc::clone(&self.cells[a]), Arc::clone(&self.cells[b]));
        {
            let mut ga = cell_a.lock();
            match ga.tables.record_send_through_stub(r) {
                Ok(_) => {
                    ga.metrics.mutator_invokes += 1;
                    self.trace_op(&mut ga, MutatorOpKind::Invoke, Some(r), start);
                }
                Err(_) => {
                    // The holder is rooted, so its stub should be alive;
                    // treat a miss as a stale edge and retire it.
                    ga.metrics.mutator_ops_skipped += 1;
                    drop(ga);
                    self.edges.swap_remove(ei);
                    return false;
                }
            }
        }
        // Pin before the (simulated) wire delay so the target chain
        // cannot be deleted while the invocation is in flight.
        {
            let mut gb = cell_b.lock();
            if gb.tables.pin_scion(r).is_err() {
                // Stub alive, scion gone: the collector deleted a live
                // reference. Never legal — stress tests assert zero.
                gb.metrics.invoke_on_missing_scion += 1;
                gb.metrics.mutator_ops_skipped += 1;
                return false;
            }
        }
        thread::yield_now();
        {
            let mut gb = cell_b.lock();
            let now2 = self.now(start);
            gb.tables
                .record_receive_through_scion(r, now2)
                .expect("a pinned scion cannot vanish");
            gb.tables
                .unpin_scion(r)
                .expect("a pinned scion cannot vanish");
        }
        true
    }

    /// Drop structure this thread built: remove a remote edge (variant A)
    /// or unroot an owned object (variant B). Both turn mutator-built
    /// structure into garbage the racing collector must reclaim — without
    /// ever reclaiming anything still reachable.
    fn op_drop(&mut self, start: Instant) -> bool {
        let drop_edge = !self.edges.is_empty() && (self.owned.is_empty() || self.rng.gen_bool(0.5));
        if drop_edge {
            let ei = self.rng.gen_range(0..self.edges.len());
            let (h, r, _t) = self.edges[ei];
            let a = h.proc.index();
            let cell = Arc::clone(&self.cells[a]);
            {
                let mut ga = cell.lock();
                ga.heap
                    .remove_ref(h, HeapRef::Remote(r))
                    .expect("tracked edge is present in the holder");
                ga.metrics.mutator_ref_drops += 1;
                self.log.lock().push(MutOp::RemoveRemoteRef(h, r));
                self.trace_op(&mut ga, MutatorOpKind::DropRef, Some(r), start);
            }
            self.edges.swap_remove(ei);
            true
        } else if !self.owned.is_empty() {
            let oi = self.rng.gen_range(0..self.owned.len());
            let x = self.owned[oi];
            let pi = x.proc.index();
            let cell = Arc::clone(&self.cells[pi]);
            {
                let mut g = cell.lock();
                let removed = g.heap.remove_root(x).expect("owned object is alive");
                debug_assert!(removed, "owned object is always rooted");
                g.metrics.mutator_root_drops += 1;
                self.log.lock().push(MutOp::RemoveRoot(x));
                self.trace_op(&mut g, MutatorOpKind::DropRoot, None, start);
            }
            self.owned.swap_remove(oi);
            // `x` may die at the next LGC; never invoke or drop through
            // its outgoing edges again. Edges *targeting* `x` stay valid:
            // the scion keeps `x` alive until every holder lets go.
            self.edges.retain(|(holder, _, _)| *holder != x);
            true
        } else {
            false
        }
    }
}

/// Body of one concurrent-mutator thread (see [`MutatorCtx`]): a weighted
/// random op mix, rate-paced, racing the collector workers through the
/// same per-process locks until its op budget is drained.
fn mutator(mut ctx: MutatorCtx, start: Instant, deadline: Duration) {
    let total = ctx.mcfg.total_weight();
    let pace = Duration::from_micros(ctx.mcfg.pace.as_ticks());
    let mut ops_done = 0u64;
    while ops_done < ctx.mcfg.ops_per_thread {
        if ctx.quiescence.stop.load(Ordering::SeqCst)
            || start.elapsed() >= deadline
            || ctx.my_procs.is_empty()
        {
            break;
        }
        let roll = ctx.rng.gen_range(0..total);
        let w_alloc = ctx.mcfg.allocate_weight;
        let w_export = w_alloc + ctx.mcfg.export_weight;
        let w_invoke = w_export + ctx.mcfg.invoke_weight;
        let applied = if roll < w_alloc {
            ctx.op_allocate(start)
        } else if roll < w_export {
            ctx.op_export(start) || ctx.op_allocate(start)
        } else if roll < w_invoke {
            ctx.op_invoke(start) || ctx.op_allocate(start)
        } else {
            ctx.op_drop(start) || ctx.op_allocate(start)
        };
        if applied {
            ops_done += 1;
            // Bump *after* the process locks are released: a worker that
            // observes the new count and then sweeps is guaranteed the
            // mutation itself is visible under the lock it takes — see
            // `Quiescence::globally_quiet` for how the barrier uses this.
            ctx.quiescence
                .mutation_events
                .fetch_add(1, Ordering::SeqCst);
        }
        if !pace.is_zero() {
            thread::sleep(pace);
        }
        thread::yield_now();
    }
    ctx.quiescence.mutators_done.fetch_add(1, Ordering::SeqCst);
}

/// Microseconds since the run started — the worker/watchdog shared clock.
fn now_us(start: Instant) -> u64 {
    start.elapsed().as_micros() as u64
}
