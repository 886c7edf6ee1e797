//! Configuration for the collector stack and the simulated network.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// How the reference-listing layer learns that a stub has died.
///
/// The paper has two implementations that differ exactly here:
/// the Rotor build integrates with the VM's collector, while the OBIWAN
/// build runs at user level and monitors transparent proxies through weak
/// references (§4, "a running thread that monitors existing stubs").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntegrationMode {
    /// The LGC reports the live stub set directly at the end of each
    /// collection (Rotor-style, in-VM).
    VmIntegrated,
    /// Dead stubs linger until a separate monitor pass observes that their
    /// weak proxy handle was cleared (OBIWAN-style, user-level). Adds
    /// latency between an LGC and the corresponding `NewSetStubs`.
    WeakRefMonitor,
}

/// Which event families a trace records. Defaults to everything; narrowing
/// the filter shrinks ring-buffer pressure on long runs where only one
/// family matters (e.g. detection forensics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceFilter {
    /// CDM lifecycle: initiation, sends, deliveries, forwards, verdicts,
    /// aborts, terminations, scion deletions, candidate scans.
    pub detections: bool,
    /// Reference listing: `NewSetStubs` send / apply / ack.
    pub nss: bool,
    /// Phase start/end pairs (LGC, snapshot capture, summarization).
    pub phases: bool,
    /// Threaded-runtime quiescence votes and rescinds.
    pub quiescence: bool,
    /// Concurrent-mutator operations (allocate / export / invoke / drop)
    /// recorded by the threaded runtime's mutator threads.
    pub mutator: bool,
}

impl Default for TraceFilter {
    fn default() -> Self {
        TraceFilter {
            detections: true,
            nss: true,
            phases: true,
            quiescence: true,
            mutator: true,
        }
    }
}

/// Structured-event tracing knobs (see the `acdgc-obs` crate). Disabled by
/// default: the disabled path is a single branch per would-be event, so
/// production configurations pay nothing. Enabled, every recorded event
/// carries a per-process Lamport stamp and every GC message piggybacks the
/// sender's clock, giving the trace a sound happens-before order (see the
/// `acdgc-obs` crate's `causal` module).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Whether events are recorded at all.
    pub enabled: bool,
    /// Per-process ring-buffer capacity in events; the oldest events are
    /// overwritten once it fills (the overwrite count is surfaced so a
    /// truncated trace is never mistaken for a complete one).
    pub capacity: usize,
    /// Which event families are recorded.
    pub filter: TraceFilter,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 65_536,
            filter: TraceFilter::default(),
        }
    }
}

impl TraceConfig {
    /// Tracing on with default capacity and an all-pass filter.
    pub fn on() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }
}

/// Threaded-runtime watchdog knobs (see the `acdgc-obs` crate's `health`
/// module). The threaded runtime's `SimTime` ticks are wall-clock
/// microseconds, so both durations here are wall time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// Whether the monitor thread runs at all. Disabled, workers still
    /// publish heartbeats (a handful of relaxed atomic stores per sweep)
    /// but nobody reads them and no reports are built.
    pub enabled: bool,
    /// A worker whose last heartbeat is older than this is reported as
    /// stalled. The threshold is measured against *any* heartbeat — every
    /// worker beats at least once per loop iteration even while voted — so
    /// a healthy idle worker never trips it; only a worker stuck inside a
    /// sweep, a drain, or a hook does.
    pub stall_after: SimDuration,
    /// Monitor poll cadence. Stall detection latency is `stall_after` +
    /// at most one poll.
    pub poll_every: SimDuration,
    /// Cap on stall `HealthReport`s emitted per run; each report covers
    /// every worker, so a handful is plenty and a livelocked run cannot
    /// flood memory. The terminal (quiescence/deadline) report is always
    /// emitted and does not count against this.
    pub max_stall_reports: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            enabled: true,
            stall_after: SimDuration::from_millis(400),
            poll_every: SimDuration::from_millis(25),
            max_stall_reports: 8,
        }
    }
}

/// Continuous time-series telemetry knobs (see the `acdgc-obs` crate's
/// `timeseries` module). Disabled by default, exactly like [`TraceConfig`]:
/// the disabled path is one branch per would-be sample, so production
/// configurations pay nothing.
///
/// When enabled, the sequential runtime takes one sample every
/// `sample_every` GC rounds (round-clock semantics), and the threaded
/// runtime's watchdog monitor emits one sample every `sample_every` polls
/// of the heartbeat slots (wall-clock semantics) while the run is healthy,
/// not just at stalls. Each series is a bounded ring of at most `capacity`
/// samples: on overflow it decimates by 2 (every other interior sample is
/// dropped, first and last preserved), so arbitrarily long runs keep a
/// full-span, progressively coarser timeline in fixed memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplingConfig {
    /// Whether samples are taken at all.
    pub enabled: bool,
    /// Sampling cadence: one sample per `sample_every` GC rounds
    /// (sequential) or watchdog polls (threaded). Clamped to at least 1.
    pub sample_every: u64,
    /// Per-series sample capacity; decimation-by-2 keeps every series at
    /// or under this bound. Clamped to at least 4 so first/last
    /// preservation always leaves room for interior structure.
    pub capacity: usize,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            enabled: false,
            sample_every: 1,
            capacity: 1_024,
        }
    }
}

impl SamplingConfig {
    /// Sampling on with the default cadence and capacity.
    pub fn on() -> Self {
        SamplingConfig {
            enabled: true,
            ..SamplingConfig::default()
        }
    }
}

/// Concurrent-mutator knobs for the threaded runtime. The paper's central
/// claim is that detection stays safe and complete *while the application
/// keeps mutating* (§3.2); the mutator subsystem exercises exactly that
/// regime: seeded application threads allocate, export references, invoke
/// along them and drop them, racing the collector workers through the same
/// per-process locks and the scion pin/unpin handshake.
///
/// Disabled by default. All randomness derives from the run seed, so a
/// given `(seed, config)` pair replays the same operation sequence (the
/// interleaving with collector threads still varies with scheduling — that
/// is the point).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MutatorConfig {
    /// Whether mutator threads run at all. Off, the threaded runtime
    /// collects a frozen graph exactly as before.
    pub enabled: bool,
    /// Number of mutator threads. Each thread owns a disjoint slice of
    /// the process set (round-robin by index) and only mutates holders on
    /// its own processes, so threads never race each other on the same
    /// stub table; they race the *collector*, which is the interesting
    /// interleaving.
    pub threads: usize,
    /// Operations each mutator thread performs before declaring itself
    /// drained. Zero means the threads start, drain immediately and exit —
    /// observationally identical to `enabled: false` (tested).
    pub ops_per_thread: u64,
    /// Wall-clock pause between consecutive operations of one thread
    /// (rate pacing). Zero runs the mutator flat out.
    pub pace: SimDuration,
    /// Relative weight of *allocate* (new rooted object on a random owned
    /// process) in the op mix.
    pub allocate_weight: u32,
    /// Relative weight of *export*: create (or re-share) a remote
    /// reference from an owned live object to an object on another
    /// process, via the scion pin/unpin handshake.
    pub export_weight: u32,
    /// Relative weight of *invoke-along-reference*: bump the stub-side
    /// invocation counter, then pin the target scion, deliver the
    /// invocation, and unpin — the pin holds the target chain against
    /// concurrent deletion for the duration.
    pub invoke_weight: u32,
    /// Relative weight of *drop-reference*: remove a previously created
    /// remote reference or unroot a previously allocated object, turning
    /// mutator-built structure into (possibly cyclic) garbage.
    pub drop_weight: u32,
}

impl Default for MutatorConfig {
    fn default() -> Self {
        MutatorConfig {
            enabled: false,
            threads: 1,
            ops_per_thread: 256,
            pace: SimDuration::ZERO,
            allocate_weight: 2,
            export_weight: 3,
            invoke_weight: 3,
            drop_weight: 2,
        }
    }
}

impl MutatorConfig {
    /// Mutation on with the default mix, `ops` operations per thread.
    pub fn on(ops: u64) -> Self {
        MutatorConfig {
            enabled: true,
            ops_per_thread: ops,
            ..MutatorConfig::default()
        }
    }

    /// Total weight of the op mix (never zero: a fully zero-weighted mix
    /// falls back to allocate).
    pub fn total_weight(&self) -> u32 {
        (self.allocate_weight + self.export_weight + self.invoke_weight + self.drop_weight).max(1)
    }
}

/// Collector tuning knobs. Defaults model the paper's lazy, low-disruption
/// regime; ablation experiments flip the named switches.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GcConfig {
    /// Period between local garbage collections of a process.
    pub lgc_period: SimDuration,
    /// Period between snapshot + summarization passes of a process.
    pub snapshot_period: SimDuration,
    /// Period between cycle-candidate scans of a process.
    pub scan_period: SimDuration,
    /// Extra delay between an LGC and stub-death visibility in
    /// [`IntegrationMode::WeakRefMonitor`] mode.
    pub monitor_period: SimDuration,
    /// A scion is a cycle candidate only if it has not been invoked for at
    /// least this long (§2.1: "not invoked for a certain amount of time").
    pub candidate_age: SimDuration,
    /// Base delay before re-initiating detection from the same scion. A
    /// detection whose CDMs died to message loss leaves no trace at the
    /// initiator (CDMs are unacknowledged by design), so the only complete
    /// recovery is to retry; successive retries back off exponentially
    /// from this base (see [`GcConfig::backoff_for`]).
    pub candidate_backoff: SimDuration,
    /// Hard cap on the exponential candidate backoff. Retries are never
    /// suppressed outright — under arbitrary GC-message loss that would
    /// forfeit completeness — they just space out, and this bound keeps
    /// the worst-case retry cadence (hence reclamation delay per lost
    /// CDM) finite and configurable.
    pub candidate_backoff_max: SimDuration,
    /// Maximum number of detections initiated per scan.
    pub max_candidates_per_scan: usize,
    /// How stub liveness reaches the reference-listing layer.
    pub integration: IntegrationMode,
    /// Safety barrier of §3.2: abort a detection when matching finds the
    /// same reference with different invocation counters. Disabling this is
    /// UNSAFE and exists only for ablation A1.
    pub ic_barrier: bool,
    /// Optimization from §3.2.1: also compare the stub-side counter carried
    /// by the CDM against the local scion counter at delivery time, instead
    /// of waiting for matching at the initiator.
    pub ic_check_on_delivery: bool,
    /// Termination rule of §3.1 step 15: stop forwarding a CDM derivation
    /// that brings no new information. Disabling this is for ablation A2
    /// (the hop cap then bounds the walk).
    pub branch_termination: bool,
    /// Relaxation of the step 15 rule: a derivation may make up to this
    /// many *consecutive* non-growing hops before it is terminated. The
    /// strict paper rule (slack 0) is provably incomplete on garbage with
    /// densely shared converging paths: full cancellation needs a single
    /// walk covering every reference, and such a walk may have to re-cross
    /// already-traversed references to reach untraversed ones (found by
    /// the exhaustive model checker in `tests/model_check.rs`). Growth
    /// still bounds total progress, so termination is preserved:
    /// every surviving branch alternates ≤`slack` non-growing hops with a
    /// strictly-growing one over a finite universe.
    pub nongrowth_slack: u32,
    /// Backstop bound on CDM forwarding depth. The algorithm terminates
    /// without it (the algebra grows monotonically over a finite universe);
    /// the cap bounds the A2 ablation and pathological configurations.
    pub max_hops: u32,
    /// Message budget per detection. A CDM carries its remaining budget;
    /// fan-out splits it across derivations, so one detection sends at
    /// most this many CDMs regardless of graph density (dense garbage
    /// clumps otherwise branch combinatorially). Exhaustion only delays
    /// reclamation: later rounds retry with fresh budgets while the
    /// acyclic layer shrinks the clump.
    pub detection_budget: u32,
    /// Extension beyond the paper: detections *initiated* under this flag
    /// start as per-process chains (`acdgc_dcda::Walk::PerProcess`) — each
    /// visit combines the CDM with the *entire* relevant local snapshot,
    /// witnessing every local dependency scion and every stub reachable
    /// from the walk's spine, instead of expanding only the delivered
    /// scion. The walk then needs one visit per involved *process* rather
    /// than per *reference*, which is what makes densely-linked
    /// multi-process garbage clumps tractable (per-reference walks branch
    /// factorially in references; see `examples/web_cache.rs`). Initiators
    /// only: a delivered CDM is expanded the way its own `walk` says,
    /// whatever the receiver's flag. Off by default: detections start
    /// undivided, follow the worked examples of §3/§3.1 per reference,
    /// and derive one such chain themselves at their first fan-out.
    pub eager_combine: bool,
    /// Create stub/scion pairs for remote invocations' exported references
    /// (the paper's DGC-extended remoting). Disabled only by the Table 1
    /// baseline ("original Rotor") measurement.
    pub instrument_remoting: bool,
    /// Capacity of each inter-process channel in the threaded runtime.
    /// A full channel drops the (loss-tolerant) GC message rather than
    /// blocking a worker that may hold its own process lock; drops are
    /// counted per kind in the process `Metrics` (`nss_dropped`, …).
    pub channel_capacity: usize,
    /// Threaded runtime: number of consecutive *quiet* sweeps (no frees,
    /// no stub deaths, no sends, no receipts, no pending retries) a worker
    /// observes before casting its quiescence vote. Higher values trade
    /// shutdown latency for robustness against transient lulls.
    pub quiet_sweeps: u32,
    /// Structured event tracing (`acdgc-obs`); off by default.
    pub trace: TraceConfig,
    /// Threaded-runtime watchdog: stall detection + health reports.
    pub watchdog: WatchdogConfig,
    /// Periodic time-series sampling (`acdgc-obs`); off by default.
    pub sampling: SamplingConfig,
    /// Threaded-runtime concurrent mutator; off by default (the sequential
    /// runtime drives mutation through explicit `System` calls instead).
    pub mutator: MutatorConfig,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            lgc_period: SimDuration::from_millis(50),
            snapshot_period: SimDuration::from_millis(100),
            scan_period: SimDuration::from_millis(100),
            monitor_period: SimDuration::from_millis(20),
            candidate_age: SimDuration::from_millis(150),
            candidate_backoff: SimDuration::from_millis(200),
            candidate_backoff_max: SimDuration::from_millis(800),
            max_candidates_per_scan: 4,
            integration: IntegrationMode::VmIntegrated,
            ic_barrier: true,
            ic_check_on_delivery: true,
            branch_termination: true,
            max_hops: 512,
            detection_budget: 16_384,
            nongrowth_slack: 8,
            eager_combine: false,
            instrument_remoting: true,
            channel_capacity: 1_024,
            quiet_sweeps: 16,
            trace: TraceConfig::default(),
            watchdog: WatchdogConfig::default(),
            sampling: SamplingConfig::default(),
            mutator: MutatorConfig::default(),
        }
    }
}

impl GcConfig {
    /// Configuration for tests that drive GC phases by hand.
    pub fn manual() -> Self {
        GcConfig {
            lgc_period: SimDuration(u64::MAX / 4),
            snapshot_period: SimDuration(u64::MAX / 4),
            scan_period: SimDuration(u64::MAX / 4),
            candidate_age: SimDuration::ZERO,
            candidate_backoff: SimDuration::ZERO,
            candidate_backoff_max: SimDuration::ZERO,
            ..GcConfig::default()
        }
    }

    /// Backoff before attempt number `attempts + 1` of a detection from a
    /// scion already tried `attempts` times: `candidate_backoff`
    /// doubled per failed attempt, hard-capped at `candidate_backoff_max`
    /// (never below the base). Retries never stop — only a *successful*
    /// detection (which deletes the scion) or the scion leaving the
    /// summary ends them — so message loss delays reclamation but cannot
    /// forfeit it.
    pub fn backoff_for(&self, attempts: u32) -> SimDuration {
        let base = self.candidate_backoff.as_ticks();
        if attempts <= 1 || base == 0 {
            return self.candidate_backoff;
        }
        let cap = self.candidate_backoff_max.as_ticks().max(base);
        let factor = 1u64 << (attempts - 1).min(32);
        SimDuration(base.saturating_mul(factor).min(cap))
    }
}

/// Simulated network behaviour. All randomness is drawn from the seeded
/// simulation RNG, so a given seed reproduces byte-identical runs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Lower bound on one-way delivery latency.
    pub min_latency: SimDuration,
    /// Upper bound on one-way delivery latency (uniform in
    /// `min_latency..=max_latency`). Latency spread is what produces
    /// reordering.
    pub max_latency: SimDuration,
    /// Probability in `[0,1]` that a *GC* message (NewSetStubs, CDM) is
    /// dropped. Application messages (invocations) are delivered reliably:
    /// the paper's tolerance claim is about collector traffic.
    pub gc_drop_probability: f64,
    /// Probability in `[0,1]` that a GC message is delivered twice.
    pub gc_duplicate_probability: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            min_latency: SimDuration::from_micros(200),
            max_latency: SimDuration::from_micros(1_500),
            gc_drop_probability: 0.0,
            gc_duplicate_probability: 0.0,
        }
    }
}

impl NetConfig {
    /// A lossy network used by fault-tolerance tests and ablation A3.
    pub fn lossy(drop_probability: f64) -> Self {
        NetConfig {
            gc_drop_probability: drop_probability,
            ..NetConfig::default()
        }
    }

    /// Zero-latency, fully reliable network: useful in unit tests that
    /// reason about message counts rather than timing.
    pub fn instant() -> Self {
        NetConfig {
            min_latency: SimDuration::ZERO,
            max_latency: SimDuration::ZERO,
            gc_drop_probability: 0.0,
            gc_duplicate_probability: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_safe() {
        let cfg = GcConfig::default();
        assert!(cfg.ic_barrier, "IC barrier must default on (safety)");
        assert!(cfg.branch_termination);
        assert!(cfg.instrument_remoting);
        assert!(cfg.max_hops > 0);
    }

    #[test]
    fn mutator_defaults_off_and_weighted() {
        let cfg = GcConfig::default();
        assert!(!cfg.mutator.enabled, "mutator must default off");
        assert!(cfg.mutator.total_weight() > 0);
        let degenerate = MutatorConfig {
            allocate_weight: 0,
            export_weight: 0,
            invoke_weight: 0,
            drop_weight: 0,
            ..MutatorConfig::default()
        };
        assert_eq!(degenerate.total_weight(), 1, "zero mix clamps to 1");
        assert!(MutatorConfig::on(64).enabled);
        assert_eq!(MutatorConfig::on(64).ops_per_thread, 64);
    }

    #[test]
    fn backoff_grows_exponentially_to_cap() {
        let cfg = GcConfig {
            candidate_backoff: SimDuration(100),
            candidate_backoff_max: SimDuration(650),
            ..GcConfig::default()
        };
        assert_eq!(cfg.backoff_for(0), SimDuration(100));
        assert_eq!(cfg.backoff_for(1), SimDuration(100));
        assert_eq!(cfg.backoff_for(2), SimDuration(200));
        assert_eq!(cfg.backoff_for(3), SimDuration(400));
        assert_eq!(cfg.backoff_for(4), SimDuration(650), "capped");
        assert_eq!(cfg.backoff_for(u32::MAX), SimDuration(650), "no overflow");
    }

    #[test]
    fn backoff_cap_never_undercuts_base() {
        let cfg = GcConfig {
            candidate_backoff: SimDuration(500),
            candidate_backoff_max: SimDuration(10), // misconfigured below base
            ..GcConfig::default()
        };
        assert_eq!(cfg.backoff_for(5), SimDuration(500));
    }

    #[test]
    fn zero_backoff_stays_zero() {
        let cfg = GcConfig::manual();
        assert_eq!(cfg.backoff_for(10), SimDuration::ZERO);
    }

    #[test]
    fn lossy_network_keeps_latency_defaults() {
        let cfg = NetConfig::lossy(0.25);
        assert_eq!(cfg.gc_drop_probability, 0.25);
        assert_eq!(cfg.min_latency, NetConfig::default().min_latency);
    }

    #[test]
    fn instant_network_is_deterministic() {
        let cfg = NetConfig::instant();
        assert_eq!(cfg.min_latency, SimDuration::ZERO);
        assert_eq!(cfg.max_latency, SimDuration::ZERO);
        assert_eq!(cfg.gc_drop_probability, 0.0);
    }
}
