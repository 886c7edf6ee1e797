//! Per-process ring buffers ([`ProcTrace`]), the collected cross-process
//! view ([`Trace`]), and detection forensics ([`DetectionPath`]).

use crate::causal::{check_causal, link_cdms};
use crate::event::{field_str, field_u16, field_u64, Event, Phase, Recorded};
use crate::health::HealthReport;
use crate::hist::PhaseHistograms;
use crate::timeseries::{check_series, group_by_series, Sample};
use acdgc_model::{DetectionId, ProcId, SimTime, TraceConfig, TraceFilter};
use serde_json::{json, Value};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One process's trace sink: a bounded `Vec` ring of [`Recorded`] events
/// plus per-phase duration histograms.
///
/// Sequence numbers come from an `Arc<AtomicU64>` that the embedding
/// runtime shares across all processes of a run, so the merged trace has
/// a total order even when processes record concurrently (each from its
/// own thread, or from a `rayon` parallel snapshot stage). Everything
/// else is process-local: recording never takes a shared lock.
///
/// Every recorded event ticks the process's Lamport clock and carries the
/// stamp; runtimes piggyback [`ProcTrace::clock_value`] on each outgoing
/// message and [`ProcTrace::witness`] it at the receiver, so stamps are a
/// sound happens-before order (see [`crate::causal`]).
///
/// The disabled path is one `bool` test per would-be event; no clock is
/// read and no event is built.
#[derive(Clone, Debug)]
pub struct ProcTrace {
    proc: ProcId,
    enabled: bool,
    filter: TraceFilter,
    capacity: usize,
    /// Lamport clock (Lamport 1978): the stamp of the latest local event
    /// or witnessed bound. Stamps start at 1.
    clock: u64,
    seq: Arc<AtomicU64>,
    /// Ring storage: grows to `capacity`, then wraps at `head`.
    buf: Vec<Recorded>,
    head: usize,
    overwritten: u64,
    pub phases: PhaseHistograms,
}

impl ProcTrace {
    pub fn new(proc: ProcId, cfg: &TraceConfig) -> Self {
        ProcTrace {
            proc,
            enabled: cfg.enabled && cfg.capacity > 0,
            filter: cfg.filter,
            capacity: cfg.capacity.max(1),
            clock: 0,
            seq: Arc::new(AtomicU64::new(0)),
            buf: Vec::new(),
            head: 0,
            overwritten: 0,
            phases: PhaseHistograms::default(),
        }
    }

    /// A disabled sink (used where a `ProcTrace` is structurally required
    /// but tracing is off).
    pub fn disabled(proc: ProcId) -> Self {
        ProcTrace::new(proc, &TraceConfig::default())
    }

    pub fn proc(&self) -> ProcId {
        self.proc
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Events currently buffered (after any overwrites).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events lost to ring overwrite.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Adopt a shared sequence counter (the runtime links all processes
    /// of a run to one counter before any event is recorded).
    pub fn share_seq(&mut self, seq: Arc<AtomicU64>) {
        self.seq = seq;
    }

    pub fn seq_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.seq)
    }

    /// Current clock value, to piggyback on an outgoing message: read
    /// right after recording a send, it is that send event's stamp. `0`
    /// when tracing is off — receivers treat 0 as "no causal information".
    #[inline]
    pub fn clock_value(&self) -> u64 {
        if self.enabled {
            self.clock
        } else {
            0
        }
    }

    /// Fold a piggybacked remote clock value into the local clock (the
    /// message-receive half of the Lamport rules). Events recorded after
    /// this are stamped above `observed`; a lower value never rewinds.
    #[inline]
    pub fn witness(&mut self, observed: u64) {
        if self.enabled {
            self.clock = self.clock.max(observed);
        }
    }

    /// Re-apply a (possibly different) trace configuration, keeping
    /// already-buffered events. Used when processes built under one
    /// config are handed to a runtime with another.
    pub fn reconfigure(&mut self, cfg: &TraceConfig) {
        self.enabled = cfg.enabled && cfg.capacity > 0;
        self.filter = cfg.filter;
        self.capacity = cfg.capacity.max(1);
    }

    /// Record one event (no-op when disabled or filtered out), stamped
    /// with the next tick of the process clock.
    #[inline]
    pub fn record(&mut self, at: SimTime, event: Event) {
        if !self.enabled || !event.passes(&self.filter) {
            return;
        }
        self.clock += 1;
        let rec = Recorded {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            at,
            proc: self.proc,
            lamport: self.clock,
            event,
        };
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// Buffered events in recording order.
    pub fn events(&self) -> impl Iterator<Item = &Recorded> {
        let (late, early) = self.buf.split_at(self.head);
        early.iter().chain(late.iter())
    }

    /// Start a bracketed phase: emits [`Event::PhaseStarted`] and arms a
    /// wall-clock stopwatch. Returns `None` (and emits nothing) when
    /// disabled — the `Instant::now()` is only paid when tracing.
    pub fn begin(&mut self, at: SimTime, phase: Phase) -> Option<Instant> {
        if !self.enabled {
            return None;
        }
        self.record(at, Event::PhaseStarted { phase });
        Some(Instant::now())
    }

    /// Close a bracketed phase: records the duration into the phase
    /// histogram and emits [`Event::PhaseEnded`].
    pub fn end(&mut self, at: SimTime, phase: Phase, started: Option<Instant>) {
        if let Some(t0) = started {
            let nanos = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            self.phases.record(phase, nanos);
            self.record(at, Event::PhaseEnded { phase, nanos });
        }
    }

    /// Arm a histogram-only stopwatch (no start/end events) for hot,
    /// high-frequency phases like per-CDM handling.
    pub fn stopwatch(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Close a histogram-only stopwatch.
    pub fn lap(&mut self, phase: Phase, started: Option<Instant>) {
        if let Some(t0) = started {
            let nanos = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            self.phases.record(phase, nanos);
        }
    }
}

/// The merged, seq-ordered view over every process's ring buffer —
/// everything the forensics and export APIs operate on.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// All surviving events, sorted by sequence number.
    pub events: Vec<Recorded>,
    /// Events lost to ring overwrite across all processes. Non-zero means
    /// the trace is a suffix, not the whole story.
    pub overwritten: u64,
    /// Per-process phase histograms.
    pub phases: Vec<(ProcId, PhaseHistograms)>,
    /// Time-series telemetry samples (global series first, then per
    /// process), each paired with its series' declared capacity. Empty
    /// unless the run sampled (`SamplingConfig::enabled`).
    pub samples: Vec<(Sample, usize)>,
    /// Which runtime produced the trace (`"sequential"` / `"threaded"`),
    /// when known. Critical-path analysis uses it to label cross-process
    /// gaps: simulated network transit vs real inbox queue wait.
    pub runtime: Option<String>,
}

impl Trace {
    /// Merge the given per-process sinks into one ordered trace.
    pub fn collect<'a, I>(procs: I) -> Trace
    where
        I: IntoIterator<Item = &'a ProcTrace>,
    {
        let mut events = Vec::new();
        let mut overwritten = 0;
        let mut phases = Vec::new();
        for pt in procs {
            events.extend(pt.events().cloned());
            overwritten += pt.overwritten();
            phases.push((pt.proc(), pt.phases.clone()));
        }
        events.sort_by_key(|r| r.seq);
        Trace {
            events,
            overwritten,
            phases,
            samples: Vec::new(),
            runtime: None,
        }
    }

    /// Attach a sampler's exported time-series (builder-style, so runtime
    /// `trace()` accessors can chain it onto [`Trace::collect`]).
    pub fn with_samples(mut self, samples: Vec<(Sample, usize)>) -> Trace {
        self.samples = samples;
        self
    }

    /// Tag which runtime produced the trace (builder-style, like
    /// [`Trace::with_samples`]).
    pub fn with_runtime(mut self, runtime: &str) -> Trace {
        self.runtime = Some(runtime.to_string());
        self
    }

    /// System-wide phase histograms (all processes merged).
    pub fn merged_phases(&self) -> PhaseHistograms {
        let mut merged = PhaseHistograms::default();
        for (_, p) in &self.phases {
            merged.merge(p);
        }
        merged
    }

    /// Every detection id with at least one surviving event, ascending.
    pub fn detection_ids(&self) -> Vec<DetectionId> {
        let mut ids: Vec<DetectionId> = self
            .events
            .iter()
            .filter_map(|r| r.event.detection_id())
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Detections that produced a [`Event::CycleDetected`] verdict.
    pub fn detected_cycles(&self) -> Vec<DetectionId> {
        let mut ids: Vec<DetectionId> = self
            .events
            .iter()
            .filter(|r| matches!(r.event, Event::CycleDetected { .. }))
            .filter_map(|r| r.event.detection_id())
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Reconstruct the ordered cross-process CDM path of one detection.
    pub fn detection(&self, id: DetectionId) -> DetectionPath {
        DetectionPath {
            id,
            events: self
                .events
                .iter()
                .filter(|r| r.event.detection_id() == Some(id))
                .cloned()
                .collect(),
        }
    }

    /// Export everything as JSON Lines: one `trace_meta` header, one
    /// object per event, one `phase_histograms` object per process, then
    /// one `sample` object per telemetry sample.
    pub fn to_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut meta = json!({
            "type": "trace_meta",
            "events": self.events.len(),
            "overwritten": self.overwritten,
        });
        if let (Some(rt), Value::Object(m)) = (&self.runtime, &mut meta) {
            m.insert("runtime".into(), json!(rt.as_str()));
        }
        writeln!(
            w,
            "{}",
            serde_json::to_string(&meta).expect("value serialization is infallible")
        )?;
        for rec in &self.events {
            writeln!(
                w,
                "{}",
                serde_json::to_string(&rec.to_json()).expect("value serialization is infallible")
            )?;
        }
        for (proc, phases) in &self.phases {
            if phases.total_count() == 0 {
                continue;
            }
            let line = json!({
                "type": "phase_histograms",
                "proc": proc.0,
                "phases": phases.to_json(),
            });
            writeln!(
                w,
                "{}",
                serde_json::to_string(&line).expect("value serialization is infallible")
            )?;
        }
        for (sample, cap) in &self.samples {
            writeln!(
                w,
                "{}",
                serde_json::to_string(&sample.to_json(*cap))
                    .expect("value serialization is infallible")
            )?;
        }
        Ok(())
    }

    /// Write the JSONL export to `path`, creating parent directories.
    pub fn dump_jsonl(&self, path: &std::path::Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        self.to_jsonl(&mut f)
    }

    /// Inverse of [`Trace::to_jsonl`]: re-ingest an exported artifact.
    /// Also returns any `health_report` lines appended after the export
    /// (the threaded runtime's watchdog writes them there). Unknown line
    /// types are an error — a half-understood artifact must not silently
    /// pass checks.
    pub fn from_jsonl(text: &str) -> Result<(Trace, Vec<HealthReport>), String> {
        let mut trace = Trace::default();
        let mut health = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let lineno = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            let v: Value = serde_json::from_str(line).map_err(|e| format!("line {lineno}: {e}"))?;
            let m = match &v {
                Value::Object(m) => m,
                _ => return Err(format!("line {lineno}: not a JSON object")),
            };
            let kind =
                field_str(m, "type").ok_or_else(|| format!("line {lineno}: no type field"))?;
            match kind {
                "trace_meta" => {
                    trace.overwritten = field_u64(m, "overwritten")
                        .ok_or_else(|| format!("line {lineno}: trace_meta without overwritten"))?;
                    trace.runtime = field_str(m, "runtime").map(str::to_string);
                }
                "phase_histograms" => {
                    let proc =
                        ProcId(field_u16(m, "proc").ok_or_else(|| {
                            format!("line {lineno}: phase_histograms without proc")
                        })?);
                    let phases = m
                        .get("phases")
                        .and_then(PhaseHistograms::from_json)
                        .ok_or_else(|| format!("line {lineno}: bad phase_histograms payload"))?;
                    trace.phases.push((proc, phases));
                }
                "health_report" => {
                    health.push(
                        HealthReport::from_json(&v)
                            .ok_or_else(|| format!("line {lineno}: bad health_report payload"))?,
                    );
                }
                "sample" => {
                    trace.samples.push(
                        Sample::from_json(&v)
                            .ok_or_else(|| format!("line {lineno}: bad sample payload"))?,
                    );
                }
                _ => {
                    trace.events.push(
                        Recorded::from_json(&v)
                            .ok_or_else(|| format!("line {lineno}: bad {kind} event payload"))?,
                    );
                }
            }
        }
        trace.events.sort_by_key(|r| r.seq);
        Ok((trace, health))
    }

    /// Run every machine-checkable invariant over every reconstructed
    /// detection. The checks are chosen to hold under message loss,
    /// duplication, and un-drained inboxes (the stress artifacts are
    /// produced under exactly those), so a violation means a *recording*
    /// is wrong — a dropped terminal, a duplicated forward, a
    /// non-monotonic hop — not that the network misbehaved:
    ///
    /// * hop monotonicity along every path ([`DetectionPath::check_hops_increase`]);
    /// * `branches == sent`: every emitted CDM is announced by its
    ///   forward step (send-side recording precedes fault injection);
    /// * `terminals + forward_steps == started + delivered`: every
    ///   processing step closes with exactly one verdict or forward.
    ///
    /// Telemetry samples are additionally validated per series (global
    /// and per process): monotonic timestamps, strictly increasing
    /// rounds, monotone counters, and the capacity bound each `sample`
    /// line declares.
    ///
    /// Stamps are additionally validated causally (see
    /// [`crate::causal::check_causal`]): per-process stamps strictly
    /// increase in seq order, and every delivery is stamped above the one
    /// send it names. Both survive truncation, so like the sample checks
    /// they run even on suffix traces — where a delivery whose send the
    /// ring overwrote is counted in [`TraceCheck::unmatched_deliveries`]
    /// instead of being a violation.
    ///
    /// A trace with ring overwrites is a suffix: the detection-ledger
    /// checks are skipped and [`TraceCheck::skipped_overwritten`] is set.
    /// Sample series never overwrite (they decimate), so the sample
    /// checks run regardless.
    pub fn check(&self) -> TraceCheck {
        let causal = check_causal(self);
        let mut check = TraceCheck {
            detections: 0,
            hop_violations: Vec::new(),
            balance_violations: Vec::new(),
            sample_violations: Vec::new(),
            causal_violations: causal.violations,
            unmatched_deliveries: causal.unmatched_deliveries,
            skipped_overwritten: self.overwritten > 0,
        };
        for (proc, series) in group_by_series(&self.samples) {
            let label = match proc {
                None => "samples[global]".to_string(),
                Some(p) => format!("samples[{p}]"),
            };
            check
                .sample_violations
                .extend(check_series(&label, &series));
        }
        if check.skipped_overwritten {
            return check;
        }
        for id in self.detection_ids() {
            check.detections += 1;
            let path = self.detection(id);
            if let Err(e) = path.check_hops_increase() {
                check.hop_violations.push(e);
            }
            let b = path.balance();
            if b.branches != b.sent {
                check.balance_violations.push(format!(
                    "{id}: {} forwarded branches but {} CdmSent events",
                    b.branches, b.sent
                ));
            }
            let steps = u64::from(b.started) + b.delivered;
            if b.terminals + b.forward_steps != steps {
                check.balance_violations.push(format!(
                    "{id}: {} processing steps (started={} + delivered={}) closed by \
                     {} terminals + {} forwards",
                    steps, b.started as u8, b.delivered, b.terminals, b.forward_steps
                ));
            }
        }
        check
    }
}

/// Result of [`Trace::check`]: the ledger- and monotonicity-level verdicts
/// `acdgc-report --check` gates CI on.
#[derive(Clone, Debug, Default)]
pub struct TraceCheck {
    /// Detections examined.
    pub detections: usize,
    pub hop_violations: Vec<String>,
    pub balance_violations: Vec<String>,
    /// Telemetry-series violations (non-monotonic timestamps/rounds,
    /// regressing counters, capacity overruns). Checked even for suffix
    /// traces — sampling decimates instead of overwriting.
    pub sample_violations: Vec<String>,
    /// Lamport-clock violations (per-process non-monotone stamps, receive
    /// stamp ≤ send stamp, a delivery naming no recorded send in a
    /// complete trace). Checked even for suffix traces — a suffix of a
    /// causally sound trace is itself causally sound.
    pub causal_violations: Vec<String>,
    /// CDM deliveries whose send the ring overwrote (suffix traces only;
    /// in a complete trace each one is a causal violation instead).
    pub unmatched_deliveries: usize,
    /// True when the trace had ring overwrites and the detection checks
    /// were skipped (a suffix trace cannot be balanced).
    pub skipped_overwritten: bool,
}

impl TraceCheck {
    pub fn ok(&self) -> bool {
        self.hop_violations.is_empty()
            && self.balance_violations.is_empty()
            && self.sample_violations.is_empty()
            && self.causal_violations.is_empty()
    }

    /// All violations, for printing.
    pub fn violations(&self) -> impl Iterator<Item = &String> {
        self.hop_violations
            .iter()
            .chain(self.balance_violations.iter())
            .chain(self.sample_violations.iter())
            .chain(self.causal_violations.iter())
    }
}

/// Counted processing-step balance of one detection (see
/// [`DetectionPath::balance`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathBalance {
    pub started: bool,
    pub sent: u64,
    pub delivered: u64,
    /// Processing steps that forwarded (each emits one `CdmForwarded`).
    pub forward_steps: u64,
    /// Sum of `branches` over all forward steps (== CDMs emitted).
    pub branches: u64,
    pub terminals: u64,
}

/// The seq-ordered event slice of one detection, with the invariant
/// checks the property tests (and post-mortems) lean on.
#[derive(Clone, Debug)]
pub struct DetectionPath {
    pub id: DetectionId,
    pub events: Vec<Recorded>,
}

impl DetectionPath {
    pub fn started(&self) -> bool {
        self.events
            .iter()
            .any(|r| matches!(r.event, Event::DetectionStarted { .. }))
    }

    /// The initiating process, if the start event survived.
    pub fn initiator(&self) -> Option<ProcId> {
        self.events
            .iter()
            .find(|r| matches!(r.event, Event::DetectionStarted { .. }))
            .map(|r| r.proc)
    }

    /// Distinct processes in order of first appearance.
    pub fn procs(&self) -> Vec<ProcId> {
        let mut out = Vec::new();
        for r in &self.events {
            if !out.contains(&r.proc) {
                out.push(r.proc);
            }
        }
        out
    }

    pub fn terminals(&self) -> Vec<&Recorded> {
        self.events
            .iter()
            .filter(|r| r.event.is_terminal())
            .collect()
    }

    pub fn found_cycle(&self) -> bool {
        self.events
            .iter()
            .any(|r| matches!(r.event, Event::CycleDetected { .. }))
    }

    /// Count the lifecycle ledger. In a lossless, fully-drained run with
    /// no ring overwrite:
    ///
    /// * `delivered == sent` (every CDM landed),
    /// * `branches == sent` (every emitted CDM was announced by its
    ///   forward step),
    /// * `terminals + forward_steps == started + delivered` (every
    ///   processing step — the initiation plus one per delivery — either
    ///   forwarded or terminated, never both, never neither).
    pub fn balance(&self) -> PathBalance {
        let mut b = PathBalance {
            started: false,
            sent: 0,
            delivered: 0,
            forward_steps: 0,
            branches: 0,
            terminals: 0,
        };
        for r in &self.events {
            match r.event {
                Event::DetectionStarted { .. } => b.started = true,
                Event::CdmSent { .. } => b.sent += 1,
                Event::CdmDelivered { .. } => b.delivered += 1,
                Event::CdmForwarded { branches, .. } => {
                    b.forward_steps += 1;
                    b.branches += u64::from(branches);
                }
                _ if r.event.is_terminal() => b.terminals += 1,
                _ => {}
            }
        }
        b
    }

    /// Check hop monotonicity: every `CdmSent` must carry a hop strictly
    /// greater than the hop of the processing step that produced it (the
    /// last `DetectionStarted` / `CdmDelivered` at the same process
    /// before it). Returns the first violation.
    pub fn check_hops_increase(&self) -> Result<(), String> {
        use std::collections::HashMap;
        // Hop context of the processing step currently running at each
        // process (None once the step's outputs are done is fine: contexts
        // are only read by the sends that follow their step).
        let mut ctx: HashMap<ProcId, u32> = HashMap::new();
        for r in &self.events {
            match r.event {
                Event::DetectionStarted { .. } => {
                    ctx.insert(r.proc, 0);
                }
                Event::CdmDelivered { hop, .. } => {
                    ctx.insert(r.proc, hop);
                }
                Event::CdmSent { hop, .. } => match ctx.get(&r.proc) {
                    None => {
                        return Err(format!(
                            "{}: CdmSent at {} (hop {hop}) with no prior start/delivery there",
                            self.id, r.proc
                        ));
                    }
                    Some(&prev) if hop <= prev => {
                        return Err(format!(
                            "{}: hop not increasing at {}: sent hop {hop} after step hop {prev}",
                            self.id, r.proc
                        ));
                    }
                    Some(_) => {}
                },
                _ => {}
            }
        }
        Ok(())
    }

    /// Cross-process generalization of [`check_hops_increase`]: Lamport
    /// stamps must strictly increase along the path — every event a
    /// processing step emits is stamped above the step's opening event
    /// (start/delivery), and every delivery is stamped above the send it
    /// names. Trivially `Ok` on paths with unstamped events: a stamp of 0
    /// means "no causal information", not "time zero".
    ///
    /// [`check_hops_increase`]: DetectionPath::check_hops_increase
    pub fn check_lamport_increases(&self) -> Result<(), String> {
        use std::collections::HashMap;
        if self.events.iter().any(|r| r.lamport == 0) {
            return Ok(());
        }
        for (send, recv) in link_cdms(&self.events).pairs {
            if recv.lamport <= send.lamport {
                return Err(format!(
                    "{}: receive lc {} ≤ send lc {} at {}",
                    self.id, recv.lamport, send.lamport, recv.proc
                ));
            }
        }
        // Lamport stamp of the processing step currently open per process.
        let mut step: HashMap<ProcId, u64> = HashMap::new();
        for r in &self.events {
            let opens_step = matches!(
                r.event,
                Event::DetectionStarted { .. } | Event::CdmDelivered { .. }
            );
            match step.get(&r.proc) {
                Some(&s) if !opens_step && r.lamport <= s => {
                    return Err(format!(
                        "{}: lamport not increasing at {}: {} lc {} after step lc {s}",
                        self.id,
                        r.proc,
                        r.event.kind(),
                        r.lamport
                    ));
                }
                _ => {}
            }
            if opens_step {
                step.insert(r.proc, r.lamport);
            }
        }
        Ok(())
    }

    /// Render the cross-process message path, e.g.
    /// `d3: P2[r14] --r15(h1,3s/2t,112B)--> P5 --…--> cycle(7 scions)`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{}:", self.id);
        for r in &self.events {
            match r.event {
                Event::DetectionStarted { scion, .. } => {
                    let _ = write!(out, " {}[{}]", r.proc, scion);
                }
                Event::CdmSent {
                    to,
                    via,
                    hop,
                    sources,
                    targets,
                    bytes,
                    ..
                } => {
                    let _ = write!(
                        out,
                        " --{via}(h{hop},{sources}s/{targets}t,{bytes}B)--> {to}"
                    );
                }
                Event::CycleDetected { scions, .. } => {
                    let _ = write!(out, " => cycle({scions} scions) at {}", r.proc);
                }
                Event::DetectionAborted { ref_id, .. } => {
                    let _ = write!(out, " => aborted(ic mismatch on {ref_id}) at {}", r.proc);
                }
                Event::DetectionDropped { reason, .. } => {
                    let _ = write!(out, " => dropped({}) at {}", reason.name(), r.proc);
                }
                Event::DetectionTerminated { reason, .. } => {
                    let _ = write!(out, " => terminated({}) at {}", reason.name(), r.proc);
                }
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdgc_model::RefId;

    fn cfg(capacity: usize) -> TraceConfig {
        TraceConfig {
            enabled: true,
            capacity,
            ..TraceConfig::default()
        }
    }

    fn started(id: u64, scion: u64) -> Event {
        Event::DetectionStarted {
            id: DetectionId(id),
            scion: RefId(scion),
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let mut pt = ProcTrace::disabled(ProcId(0));
        assert!(!pt.enabled());
        pt.record(SimTime(1), started(0, 1));
        assert!(pt.begin(SimTime(1), Phase::Lgc).is_none());
        assert!(pt.stopwatch().is_none());
        assert_eq!(pt.len(), 0);
        assert_eq!(pt.phases.total_count(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts() {
        let mut pt = ProcTrace::new(ProcId(0), &cfg(3));
        for i in 0..5 {
            pt.record(SimTime(i), started(i, i));
        }
        assert_eq!(pt.len(), 3);
        assert_eq!(pt.overwritten(), 2);
        let seqs: Vec<u64> = pt.events().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest evicted, order preserved");
    }

    #[test]
    fn shared_seq_totally_orders_across_procs() {
        let mut a = ProcTrace::new(ProcId(0), &cfg(16));
        let mut b = ProcTrace::new(ProcId(1), &cfg(16));
        b.share_seq(a.seq_handle());
        a.record(SimTime(1), started(0, 1));
        b.record(SimTime(1), started(1, 2));
        a.record(SimTime(2), started(2, 3));
        let t = Trace::collect([&a, &b]);
        let seqs: Vec<u64> = t.events.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(t.events[1].proc, ProcId(1));
    }

    #[test]
    fn filter_suppresses_but_burns_no_seq_for_filtered() {
        let mut c = cfg(16);
        c.filter.phases = false;
        let mut pt = ProcTrace::new(ProcId(0), &c);
        let t0 = pt.begin(SimTime(1), Phase::Lgc);
        pt.end(SimTime(1), Phase::Lgc, t0);
        pt.record(SimTime(2), started(0, 1));
        assert_eq!(pt.len(), 1, "phase events filtered out");
        assert_eq!(pt.events().next().unwrap().seq, 0, "no seq gap");
        assert_eq!(
            pt.phases.get(Phase::Lgc).count(),
            1,
            "histograms still fed when the event family is filtered"
        );
    }

    #[test]
    fn detection_path_balance_and_hops() {
        let mut pt = ProcTrace::new(ProcId(0), &cfg(64));
        let mut other = ProcTrace::new(ProcId(1), &cfg(64));
        other.share_seq(pt.seq_handle());
        let id = DetectionId(7);
        pt.record(SimTime(1), started(7, 1));
        pt.record(
            SimTime(1),
            Event::CdmSent {
                id,
                to: ProcId(1),
                via: RefId(1),
                hop: 1,
                sources: 1,
                targets: 1,
                bytes: 64,
            },
        );
        pt.record(
            SimTime(1),
            Event::CdmForwarded {
                id,
                hop: 0,
                branches: 1,
                pruned_local: 0,
                pruned_no_new_info: 0,
            },
        );
        other.witness(pt.clock_value());
        other.record(
            SimTime(2),
            Event::CdmDelivered {
                id,
                via: RefId(1),
                hop: 1,
                sources: 1,
                targets: 1,
                bytes: 64,
                from: ProcId(0),
                sent_lc: 2, // the CdmSent above: second event at P0
            },
        );
        other.record(
            SimTime(2),
            Event::CycleDetected {
                id,
                hop: 1,
                scions: 2,
            },
        );
        let trace = Trace::collect([&pt, &other]);
        let path = trace.detection(id);
        assert_eq!(path.procs(), vec![ProcId(0), ProcId(1)]);
        assert_eq!(path.initiator(), Some(ProcId(0)));
        let b = path.balance();
        assert!(b.started);
        assert_eq!((b.sent, b.delivered), (1, 1));
        assert_eq!(b.terminals + b.forward_steps, 1 + b.delivered);
        assert_eq!(b.branches, b.sent);
        path.check_hops_increase().unwrap();
        assert!(path.found_cycle());
        assert!(path.render().contains("=> cycle(2 scions)"));
    }

    #[test]
    fn hop_violation_is_reported() {
        let mut pt = ProcTrace::new(ProcId(0), &cfg(16));
        pt.record(SimTime(1), started(3, 1));
        pt.record(
            SimTime(1),
            Event::CdmSent {
                id: DetectionId(3),
                to: ProcId(1),
                via: RefId(1),
                hop: 0, // must be > 0 after a start
                sources: 1,
                targets: 1,
                bytes: 64,
            },
        );
        let trace = Trace::collect([&pt]);
        assert!(trace
            .detection(DetectionId(3))
            .check_hops_increase()
            .is_err());
    }

    /// Build the healthy single-cycle detection used by the export tests:
    /// start at P0, one CDM to P1, cycle verdict there.
    fn two_proc_cycle_trace() -> Trace {
        let mut pt = ProcTrace::new(ProcId(0), &cfg(64));
        let mut other = ProcTrace::new(ProcId(1), &cfg(64));
        other.share_seq(pt.seq_handle());
        let id = DetectionId(7);
        pt.record(SimTime(1), started(7, 1));
        pt.record(
            SimTime(1),
            Event::CdmForwarded {
                id,
                hop: 0,
                branches: 1,
                pruned_local: 0,
                pruned_no_new_info: 0,
            },
        );
        pt.record(
            SimTime(1),
            Event::CdmSent {
                id,
                to: ProcId(1),
                via: RefId(1),
                hop: 1,
                sources: 1,
                targets: 1,
                bytes: 64,
            },
        );
        other.witness(pt.clock_value());
        other.record(
            SimTime(2),
            Event::CdmDelivered {
                id,
                via: RefId(1),
                hop: 1,
                sources: 1,
                targets: 1,
                bytes: 64,
                from: ProcId(0),
                sent_lc: pt.clock_value(),
            },
        );
        other.record(
            SimTime(2),
            Event::CycleDetected {
                id,
                hop: 1,
                scions: 2,
            },
        );
        let t0 = pt.begin(SimTime(3), Phase::Lgc);
        pt.end(SimTime(3), Phase::Lgc, t0);
        Trace::collect([&pt, &other])
    }

    #[test]
    fn jsonl_round_trips_into_equal_trace() {
        let trace = two_proc_cycle_trace();
        let mut buf = Vec::new();
        trace.to_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let (back, health) = Trace::from_jsonl(&text).unwrap();
        assert!(health.is_empty());
        assert_eq!(back.events, trace.events);
        assert_eq!(back.overwritten, 0);
        assert_eq!(back.phases.len(), 1, "only P0 sampled a phase");
        assert_eq!(back.phases[0].1, trace.phases[0].1);
        assert!(back.check().ok());
    }

    #[test]
    fn from_jsonl_surfaces_health_reports_and_rejects_junk() {
        let trace = two_proc_cycle_trace();
        let mut buf = Vec::new();
        trace.to_jsonl(&mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        let report = crate::health::HealthReport {
            at_us: 99,
            reason: crate::health::HealthReason::Quiescent,
            workers: vec![],
        };
        text.push_str(&serde_json::to_string(&report.to_json()).unwrap());
        text.push('\n');
        let (_, health) = Trace::from_jsonl(&text).unwrap();
        assert_eq!(health.len(), 1);
        assert_eq!(health[0].at_us, 99);

        assert!(Trace::from_jsonl("{\"type\":\"mystery\"}\n").is_err());
        assert!(Trace::from_jsonl("not json\n").is_err());
    }

    #[test]
    fn check_flags_a_dropped_terminal() {
        let trace = two_proc_cycle_trace();
        assert!(trace.check().ok());
        // Synthetic corruption: remove the terminal verdict. The delivered
        // CDM's processing step now closes with nothing — exactly the
        // bookkeeping hole `--check` exists to catch.
        let mut corrupted = trace.clone();
        corrupted
            .events
            .retain(|r| !matches!(r.event, Event::CycleDetected { .. }));
        let check = corrupted.check();
        assert!(!check.ok());
        assert_eq!(check.balance_violations.len(), 1, "{check:?}");
        assert!(check.hop_violations.is_empty());
    }

    #[test]
    fn check_skips_suffix_traces() {
        let mut pt = ProcTrace::new(ProcId(0), &cfg(2));
        for i in 0..5 {
            pt.record(SimTime(i), started(i, i));
        }
        let trace = Trace::collect([&pt]);
        let check = trace.check();
        assert!(check.skipped_overwritten);
        assert!(check.ok(), "a suffix trace is unjudgeable, not guilty");
    }

    /// Two global + one per-proc telemetry samples with advancing clocks
    /// and counters.
    fn sample_fixture() -> Vec<(Sample, usize)> {
        let mk = |round: u64, proc| Sample {
            at: SimTime(round * 1_000),
            round,
            proc,
            live_objects: 10 + round,
            cdms_sent: round * 2,
            ..Sample::default()
        };
        vec![
            (mk(1, None), 64),
            (mk(2, None), 64),
            (mk(2, Some(ProcId(1))), 64),
        ]
    }

    #[test]
    fn jsonl_round_trips_samples_and_checks_them() {
        let trace = two_proc_cycle_trace().with_samples(sample_fixture());
        let mut buf = Vec::new();
        trace.to_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.matches("\"type\":\"sample\"").count(), 3);
        let (back, _) = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back.samples, trace.samples);
        let check = back.check();
        assert!(check.ok(), "{:?}", check.sample_violations);

        // Corrupt the global series: reverse its rounds/timestamps. The
        // sample checker must flag it even though the event ledger is fine.
        let mut corrupted = back.clone();
        corrupted.samples.swap(0, 1);
        let check = corrupted.check();
        assert!(!check.ok());
        assert!(!check.sample_violations.is_empty(), "{check:?}");
    }

    #[test]
    fn sample_checks_run_even_on_suffix_traces() {
        let mut pt = ProcTrace::new(ProcId(0), &cfg(2));
        for i in 0..5 {
            pt.record(SimTime(i), started(i, i));
        }
        let mut samples = sample_fixture();
        samples.swap(0, 1); // non-monotonic global series
        let trace = Trace::collect([&pt]).with_samples(samples);
        let check = trace.check();
        assert!(check.skipped_overwritten);
        assert!(
            !check.sample_violations.is_empty(),
            "overwritten events must not blind the sample checker"
        );
        assert!(!check.ok());
    }

    #[test]
    fn jsonl_has_one_object_per_line() {
        let mut pt = ProcTrace::new(ProcId(0), &cfg(16));
        let t0 = pt.begin(SimTime(1), Phase::SummarizeEngine);
        pt.end(SimTime(1), Phase::SummarizeEngine, t0);
        pt.record(SimTime(2), started(0, 9));
        let trace = Trace::collect([&pt]);
        let mut buf = Vec::new();
        trace.to_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // meta + 3 events + 1 histogram line.
        assert_eq!(lines.len(), 5, "{text}");
        for line in lines {
            serde_json::from_str(line).expect("every line parses as JSON");
        }
    }
}
