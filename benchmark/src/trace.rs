//! The traced run: the same quanta as the untraced run, driven phase by
//! phase from benchmark code so each layer's share can be timed from
//! outside, plus per-layer probes on clones of live state.
//!
//! Manual workloads: a round is driven by hand in the exact order of
//! `System::gc_round` (`advance` → `run_lgc`×n → `drain_network` →
//! `run_monitor`×n → `drain_network` → `take_snapshot`×n → `run_scan`×n →
//! `drain_network`); the traced run must end with the same counters as the
//! untraced one, which is what proves the order equivalent.
//!
//! Periodic workload: a slice is driven as `run_until` does it, one
//! `System::step` at a time, and each step is attributed to a phase from
//! the counters it moved.

use crate::api::{Metrics, NetStats, ProcId, Sim};
use crate::driver::{ROUND_US, SLICE_US};
use crate::layers::{self, Accs};
use crate::spans::SpanLog;
use std::time::Instant;

/// Probe clones of live state every this many quanta (manual workloads).
const PROBE_EVERY_ROUNDS: u64 = 10;
/// Probe every this many slices (periodic workload: every 100 epochs).
const PROBE_EVERY_SLICES: u64 = 500;

/// The phases whose shares of the traced run are reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Lgc,
    NssDrain,
    Snapshot,
    Scan,
    CdmDrain,
    Mutator,
}

impl Phase {
    /// The per-layer metric reporting this phase's share.
    pub fn metric(self) -> &'static str {
        match self {
            Phase::Lgc => "sim.lgc_share",
            Phase::NssDrain => "sim.nss_drain_share",
            Phase::Snapshot => "sim.snapshot_share",
            Phase::Scan => "sim.scan_share",
            Phase::CdmDrain => "sim.cdm_drain_share",
            Phase::Mutator => "sim.mutator_share",
        }
    }
}

pub const PHASES: [Phase; 6] = [
    Phase::Lgc,
    Phase::NssDrain,
    Phase::Snapshot,
    Phase::Scan,
    Phase::CdmDrain,
    Phase::Mutator,
];

pub struct Tracer {
    pub spans: SpanLog,
    pub accs: Accs,
    /// Host ns per phase, from step attribution (periodic workload only;
    /// manual workloads read self times off the spans).
    pub step_phase_ns: [u64; 6],
    pub steps: u64,
    pub step_ns: u64,
    pub peak_in_flight: usize,
    /// NSS traffic, measured where only NSS is sent (the LGC phase).
    pub nss_bytes: u64,
    pub nss_msgs: u64,
    /// Whether the workload runs the periodic configuration.
    pub periodic: bool,
}

impl Tracer {
    pub fn new(periodic: bool) -> Tracer {
        Tracer {
            spans: SpanLog::new(),
            accs: Accs::default(),
            step_phase_ns: [0; 6],
            steps: 0,
            step_ns: 0,
            peak_in_flight: 0,
            nss_bytes: 0,
            nss_msgs: 0,
            periodic,
        }
    }

    fn each_proc(
        &mut self,
        sim: &mut Sim,
        phase: &'static str,
        call: &'static str,
        f: fn(&mut Sim, ProcId),
    ) {
        self.spans.open(phase);
        for p in 0..sim.num_procs() as u16 {
            self.spans.open(call);
            f(sim, ProcId(p));
            self.spans.close();
        }
        self.spans.close();
    }

    /// `drain_network` under a span. The queue depth is sampled at the
    /// phase boundary only: stepping the drain one delivery at a time
    /// would run the GC phases `Process::new` schedules at t = 1 tick for
    /// every seventh process, which `gc_round` never does.
    fn drain(&mut self, sim: &mut Sim, phase: &'static str) {
        self.peak_in_flight = self.peak_in_flight.max(sim.messages_in_flight());
        self.spans.open(phase);
        sim.drain_network();
        self.spans.close();
    }

    /// One hand-driven manual round; returns its host ns without probes.
    pub fn round(&mut self, sim: &mut Sim, index: u64) -> u64 {
        let probe = index.is_multiple_of(PROBE_EVERY_ROUNDS);
        if probe {
            self.spans.open("probe");
            layers::probe_state(&mut self.accs, sim.checkpoint(), sim.clock_us());
            self.spans.close();
        }
        let started = Instant::now();
        self.spans.open("round");
        self.spans.open("advance");
        sim.advance_us(ROUND_US);
        self.spans.close();

        let (net0, m0) = (sim.net_stats(), sim.metrics());
        self.each_proc(sim, "lgc", "lgc.proc", Sim::run_lgc);
        self.nss_bytes += sim.net_stats().gc_bytes_sent - net0.gc_bytes_sent;
        self.nss_msgs += sim.metrics().nss_sent - m0.nss_sent;
        self.drain(sim, "nss_drain");
        self.each_proc(sim, "monitor", "monitor.proc", Sim::run_monitor);
        self.drain(sim, "nss_drain");
        self.each_proc(sim, "snapshot", "snapshot.proc", Sim::take_snapshot);
        let mut probe_ns = 0;
        if probe {
            // After the snapshots, before the scan: the summaries and
            // candidate state the detector is about to work from.
            self.spans.open("probe");
            let eager = sim.eager_combine();
            layers::probe_detector(
                &mut self.accs,
                sim.checkpoint(),
                sim.clock_us(),
                Some(eager),
            );
            probe_ns = self.spans.close();
        }
        self.each_proc(sim, "scan", "scan.proc", Sim::run_scan);
        self.drain(sim, "cdm_drain");
        self.spans.close();
        started.elapsed().as_nanos() as u64 - probe_ns
    }

    /// One hand-driven periodic slice (`run_until(now + 10 ms)`).
    pub fn slice(&mut self, sim: &mut Sim, index: u64) -> u64 {
        if index.is_multiple_of(PROBE_EVERY_SLICES) {
            self.spans.open("probe");
            layers::probe_state(&mut self.accs, sim.checkpoint(), sim.clock_us());
            layers::probe_detector(&mut self.accs, sim.checkpoint(), sim.clock_us(), None);
            self.spans.close();
        }
        let started = Instant::now();
        self.spans.open("slice");
        let until = sim.clock_us() + SLICE_US;
        while sim.next_event_at_us().is_some_and(|at| at <= until) {
            self.peak_in_flight = self.peak_in_flight.max(sim.messages_in_flight());
            let before = (sim.metrics(), sim.net_stats());
            let t = Instant::now();
            sim.step();
            let ns = t.elapsed().as_nanos() as u64;
            self.attribute_step(ns, before, (sim.metrics(), sim.net_stats()));
        }
        sim.advance_us(until - sim.clock_us());
        self.spans.close();
        started.elapsed().as_nanos() as u64
    }

    /// Attribute one `System::step` to a phase from the counters it moved.
    fn attribute_step(&mut self, ns: u64, before: (Metrics, NetStats), after: (Metrics, NetStats)) {
        let (m0, n0) = before;
        let (m1, n1) = after;
        let phase = if n1.delivered > n0.delivered {
            if m1.cdms_delivered > m0.cdms_delivered
                || m1.scions_deleted_by_dcda > m0.scions_deleted_by_dcda
            {
                Phase::CdmDrain
            } else if m1.nss_applied > m0.nss_applied || m1.nss_stale > m0.nss_stale {
                Phase::NssDrain
            } else {
                // An application message (invocation) landing.
                Phase::Mutator
            }
        } else if m1.lgc_runs > m0.lgc_runs {
            self.nss_bytes += n1.gc_bytes_sent - n0.gc_bytes_sent;
            self.nss_msgs += m1.nss_sent - m0.nss_sent;
            Phase::Lgc
        } else if m1.snapshots > m0.snapshots {
            Phase::Snapshot
        } else {
            // A candidate scan (with its initiations) or a no-op monitor.
            Phase::Scan
        };
        self.step_phase_ns[phase as usize] += ns;
        self.steps += 1;
        self.step_ns += ns;
    }

    /// Host ns per phase over the whole traced run, and the total they
    /// are shares of (root spans minus probes).
    pub fn phase_ns(&self) -> ([u64; 6], u64) {
        let spans = self.spans.spans();
        let own = crate::spans::self_time_by_name(spans);
        let get = |name: &str| own.get(name).copied().unwrap_or(0);
        let dur = |name: &str| -> u64 {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.end_ns - s.start_ns)
                .sum()
        };
        let total = dur("rep") - dur("probe");
        let mut ns = if self.periodic {
            self.step_phase_ns
        } else {
            [
                get("lgc") + get("lgc.proc"),
                get("nss_drain"),
                get("snapshot") + get("snapshot.proc"),
                get("scan") + get("scan.proc"),
                get("cdm_drain"),
                0,
            ]
        };
        ns[Phase::Mutator as usize] += get("mutator");
        (ns, total)
    }
}
