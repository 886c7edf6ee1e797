//! One simulated process: heap + remoting tables + published summary +
//! detector heuristic state + GC scheduling.

use crate::metrics::Metrics;
use acdgc_dcda::{scan_candidates, CandidateScan, CandidateState};
use acdgc_heap::Heap;
use acdgc_model::{GcConfig, ProcId, SimTime};
use acdgc_obs::{Event, Phase, ProcTrace, Sample};
use acdgc_remoting::RemotingTables;
use acdgc_snapshot::{SccEngine, SummarizePath, SummarizedGraph};

/// The state of one process. Mutation flows through [`crate::System`]
/// (which owns all processes and the network), or through a
/// [`crate::threaded`] runtime cell.
#[derive(Clone, Debug)]
pub struct Process {
    /// The process's object heap and roots.
    pub heap: Heap,
    /// Stub/scion tables, invocation counters, acyclic-DGC state.
    pub tables: RemotingTables,
    /// Latest *published* summary — the only view the DCDA may use. Starts
    /// empty: a process that never summarized never answers CDMs.
    pub summary: SummarizedGraph,
    /// Candidate tracking: ages, retry backoff, proven-live suppression.
    pub candidates: CandidateState,
    /// Reusable single-pass summarizer: per-process so parallel snapshot
    /// stages share nothing, and so its scratch amortizes across rounds.
    pub engine: SccEngine,
    /// Per-process event ring + phase histograms. Disabled unless
    /// `cfg.trace.enabled`; runtimes link all processes to one shared
    /// sequence counter so the collected view is totally ordered.
    pub obs: ProcTrace,
    /// This process's share of the system counters: every protocol step
    /// (see [`crate::step`]) counts here.
    pub metrics: Metrics,
    /// Next scheduled LGC time (periodic mode).
    pub next_lgc: SimTime,
    /// Next scheduled snapshot time (periodic mode).
    pub next_snapshot: SimTime,
    /// Next scheduled candidate-scan time (periodic mode).
    pub next_scan: SimTime,
    /// Next scheduled weak-ref monitor pass (periodic mode).
    pub next_monitor: SimTime,
    summary_version: u64,
}

impl Process {
    /// Create a process with phase schedules staggered by `proc` index so
    /// processes do not run in lockstep (the paper's processes are fully
    /// independent).
    pub fn new(proc: ProcId, cfg: &GcConfig) -> Self {
        let stagger = |base: u64| SimTime(base / 7 * (proc.index() as u64 % 7) + 1);
        Process {
            heap: Heap::new(proc),
            tables: RemotingTables::new(proc),
            summary: SummarizedGraph::empty(proc),
            candidates: CandidateState::new(),
            engine: SccEngine::new(),
            obs: ProcTrace::new(proc, &cfg.trace),
            metrics: Metrics::default(),
            next_lgc: stagger(cfg.lgc_period.as_ticks()),
            next_snapshot: stagger(cfg.snapshot_period.as_ticks()),
            next_scan: stagger(cfg.scan_period.as_ticks()),
            next_monitor: stagger(cfg.monitor_period.as_ticks()),
            summary_version: 0,
        }
    }

    /// The process's id.
    pub fn proc(&self) -> ProcId {
        self.heap.proc()
    }

    /// Bump and return the next summary version.
    pub fn next_summary_version(&mut self) -> u64 {
        self.summary_version += 1;
        self.summary_version
    }

    /// Re-summarize the heap (adaptive dispatch between the reference BFS
    /// and the SCC engine) and publish the result, then prune candidate
    /// state against the fresh summary. Touches only this process and
    /// counts into its own ledger — safe to run for many processes in
    /// parallel (each process traces into its own ring); a driver with a
    /// merged ledger mirrors [`Process::count_snapshot`] afterwards.
    pub fn refresh_summary(&mut self, now: SimTime) {
        let version = self.next_summary_version();
        // Bracket the run with the phase of the path actually taken, so
        // traces attribute the cost to the implementation that paid it.
        let path = self.engine.choose_path(&self.heap, &self.tables);
        let phase = match path {
            SummarizePath::Reference => Phase::SummarizeReference,
            SummarizePath::Engine => Phase::SummarizeEngine,
        };
        let started = self.obs.begin(now, phase);
        self.summary = self
            .engine
            .summarize_via(path, &self.heap, &self.tables, version, now);
        self.obs.end(now, phase, started);
        self.candidates.retain_known(&self.summary);
        Self::count_snapshot(&mut self.metrics, &self.summary);
    }

    /// Count one published summary into a ledger.
    pub fn count_snapshot(m: &mut Metrics, summary: &SummarizedGraph) {
        m.snapshots += 1;
        m.summary_scions += summary.scions.len() as u64;
        m.summary_stubs += summary.stubs.len() as u64;
    }

    /// Candidate scan over the published summary: which scions to start
    /// detections from now, plus how many eligible scions are throttled
    /// (retry backoff / scan cap). Shared by the sequential and threaded
    /// runtimes so both see one retry policy.
    pub fn scan(&mut self, now: SimTime, cfg: &GcConfig) -> CandidateScan {
        let started = self.obs.stopwatch();
        let scan = scan_candidates(&self.summary, &mut self.candidates, now, cfg);
        self.obs.lap(Phase::CandidateScan, started);
        let (picked, deferred) = (scan.picked.len() as u32, scan.deferred as u32);
        self.obs
            .record(now, Event::CandidatesScanned { picked, deferred });
        scan
    }

    /// This process's telemetry row at `at`/`round`: heap, candidate and
    /// pin gauges plus the ledger's counters. The inbox, in-flight and
    /// vote gauges are the driver's to fill in.
    pub fn sample(&self, at: SimTime, round: u64) -> Sample {
        let m = &self.metrics;
        Sample {
            at,
            round,
            proc: Some(self.proc()),
            live_objects: self.heap.stats().live_objects as u64,
            candidates: self.candidates.tracked() as u64,
            max_backoff_attempt: u64::from(self.candidates.max_attempts()),
            pinned_scions: self.tables.pinned_scion_count() as u64,
            lgc_runs: m.lgc_runs,
            snapshots: m.snapshots,
            cdms_sent: m.cdms_sent,
            cycles_detected: m.cycles_detected,
            objects_reclaimed: m.objects_reclaimed,
            scions_reclaimed: m.scions_reclaimed_acyclic + m.scions_deleted_by_dcda,
            mutator_ops: m.mutator_ops(),
            ..Sample::default()
        }
    }

    /// Earliest scheduled phase time for the event loop.
    pub fn next_task_at(&self) -> SimTime {
        self.next_lgc
            .min(self.next_snapshot)
            .min(self.next_scan)
            .min(self.next_monitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staggering_differs_across_processes() {
        let cfg = GcConfig::default();
        let a = Process::new(ProcId(1), &cfg);
        let b = Process::new(ProcId(2), &cfg);
        assert_ne!(a.next_lgc, b.next_lgc);
    }

    #[test]
    fn version_monotone() {
        let cfg = GcConfig::default();
        let mut p = Process::new(ProcId(0), &cfg);
        assert_eq!(p.next_summary_version(), 1);
        assert_eq!(p.next_summary_version(), 2);
    }

    #[test]
    fn next_task_is_minimum() {
        let cfg = GcConfig::default();
        let mut p = Process::new(ProcId(0), &cfg);
        p.next_lgc = SimTime(50);
        p.next_snapshot = SimTime(10);
        p.next_scan = SimTime(70);
        p.next_monitor = SimTime(90);
        assert_eq!(p.next_task_at(), SimTime(10));
    }

    #[test]
    fn trace_disabled_by_default_enabled_by_config() {
        let mut cfg = GcConfig::default();
        let p = Process::new(ProcId(0), &cfg);
        assert!(!p.obs.enabled());
        cfg.trace = acdgc_model::TraceConfig::on();
        let p = Process::new(ProcId(0), &cfg);
        assert!(p.obs.enabled());
    }
}
