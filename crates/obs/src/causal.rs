//! Causal layer: trace-wide happens-before soundness checks, the one
//! send↔delivery link function they all share, per-detection critical-path
//! waterfalls, and Chrome trace-event (Perfetto) export.
//!
//! Per-process `SimTime`/wall-clock stamps are incomparable across
//! processes, so a `DetectionPath` can show *that* a detection crossed
//! five processes but not *where its latency went*. Every recorded event
//! carries a stamp from its process's Lamport clock and every GC message
//! piggybacks the sender's clock value; receivers fold it in
//! ([`ProcTrace::witness`](crate::ProcTrace::witness)) before recording
//! delivery. The resulting stamps are a sound happens-before order: they
//! strictly increase per process, and every receive is stamped above its
//! send ([`check_causal`]).
//!
//! CDMs are unacknowledged and may be lost or duplicated, so nothing in
//! the protocol tells two copies on one route apart. The trace does: a
//! `CdmSent`'s recording process and stamp are piggybacked verbatim on
//! every copy and recorded back in `CdmDelivered`, and [`link_cdms`]
//! pairs the two exactly.
//!
//! On top of the order, [`waterfall`] reconstructs one detection's
//! **critical path** — the chain of events the terminal verdict actually
//! waited on — and attributes its end-to-end latency to four categories:
//!
//! * `transit` — simulated network latency between a `CdmSent` and its
//!   `CdmDelivered` (sequential runtime);
//! * `queue` — real inbox wait for the same gap in the threaded runtime,
//!   where channel hand-off is instant and the gap is drain latency;
//! * `handling` — same-process time inside a processing step (combine,
//!   summarize/scan work, local forwarding);
//! * `backoff` — gaps between retry attempts of the same scion (the
//!   candidate backoff windows between detections of one saga).
//!
//! Category durations telescope over consecutive chain events, so they
//! sum *exactly* to the reported end-to-end time. [`perfetto_trace`]
//! exports the whole trace as Chrome trace-event JSON — one track per
//! process, one slice per event, flow arrows along every delivered CDM
//! hop — loadable in Perfetto / `chrome://tracing`.

use crate::event::{named_enum, Event, Recorded};
use crate::trace::{DetectionPath, Trace};
use acdgc_model::{DetectionId, ProcId, SimTime};
use serde_json::{json, Value};
use std::collections::HashMap;

/// Every `CdmDelivered` of a slice of events, paired — or not — with the
/// `CdmSent` it names (see [`link_cdms`]).
#[derive(Debug, Default)]
pub struct CdmLinks<'a> {
    /// `(send, delivery)` for every delivery whose send is present, in
    /// delivery order. Injected duplicates pair one send several times.
    pub pairs: Vec<(&'a Recorded, &'a Recorded)>,
    /// Deliveries whose send is absent: overwritten in the sender's ring,
    /// or — in a complete trace — never recorded, which is a bug.
    pub unmatched: Vec<&'a Recorded>,
}

/// Pair every `CdmDelivered` in `events` with the one `CdmSent` it is a
/// copy of: the event recorded at process `from` with Lamport stamp
/// `sent_lc`. The only place sends and deliveries are matched; the causal
/// check, the per-path Lamport check, the critical-path walk and the
/// Perfetto flow arrows all go through it. Unstamped events (artifact
/// lines without `lc`) carry no identity and are skipped.
pub fn link_cdms(events: &[Recorded]) -> CdmLinks<'_> {
    let stamped = || events.iter().filter(|r| r.lamport > 0);
    let sends: HashMap<(ProcId, u64), &Recorded> = stamped()
        .filter(|r| matches!(r.event, Event::CdmSent { .. }))
        .map(|r| ((r.proc, r.lamport), r))
        .collect();
    let mut links = CdmLinks::default();
    for r in stamped() {
        if let Event::CdmDelivered { from, sent_lc, .. } = r.event {
            match sends.get(&(from, sent_lc)) {
                Some(send) => links.pairs.push((send, r)),
                None => links.unmatched.push(r),
            }
        }
    }
    links
}

/// Verdict of [`check_causal`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CausalCheck {
    pub violations: Vec<String>,
    /// Deliveries whose send a ring overwrote — counted, not judged, and
    /// only ever non-zero on suffix traces.
    pub unmatched_deliveries: usize,
}

/// Validate the happens-before order of a trace. All of it is stable
/// under truncation, so suffix traces are checked too:
///
/// * per-process stamps must strictly increase in seq order;
/// * every `CdmDelivered` must be stamped strictly above the `CdmSent` it
///   names ([`link_cdms`]), and must name a recorded one unless the rings
///   overwrote events (`trace.overwritten > 0`), in which case it is
///   counted in [`CausalCheck::unmatched_deliveries`];
/// * every `NssApplied` whose `NssSent` survives must be stamped strictly
///   above it (injected duplicates share the sequence number, and every
///   copy's delivery happens after the send).
///
/// Unstamped events (stamp 0) carry no causal information and are
/// skipped.
pub fn check_causal(trace: &Trace) -> CausalCheck {
    let mut violations = Vec::new();
    let stamped = || trace.events.iter().filter(|r| r.lamport > 0);
    let mut last: HashMap<ProcId, (u64, u64)> = HashMap::new();
    for r in stamped() {
        if let Some(&(lc, seq)) = last.get(&r.proc) {
            if r.lamport <= lc {
                violations.push(format!(
                    "causal[{}]: stamp not increasing: lc {} at seq {} after lc {lc} at seq {seq}",
                    r.proc, r.lamport, r.seq
                ));
            }
        }
        last.insert(r.proc, (r.lamport, r.seq));
    }

    let links = link_cdms(&trace.events);
    for (send, recv) in &links.pairs {
        if recv.lamport <= send.lamport {
            violations.push(format!(
                "causal[{}]: CDM receive lc {} ≤ send lc {} at {}",
                send.proc, recv.lamport, send.lamport, recv.proc
            ));
        }
    }
    let unmatched_deliveries = if trace.overwritten == 0 {
        violations.extend(links.unmatched.iter().map(|r| {
            format!(
                "causal[{}]: CDM delivery at seq {} names a send no ring recorded",
                r.proc, r.seq
            )
        }));
        0
    } else {
        links.unmatched.len()
    };

    let mut nss_sends: HashMap<(ProcId, ProcId, u64), u64> = HashMap::new();
    for r in stamped() {
        if let Event::NssSent { to, seq, .. } = r.event {
            nss_sends.insert((r.proc, to, seq), r.lamport);
        }
    }
    for r in stamped() {
        if let Event::NssApplied { from, seq, .. } = r.event {
            if let Some(&s) = nss_sends.get(&(from, r.proc, seq)) {
                if r.lamport <= s {
                    violations.push(format!(
                        "causal[nss {from}->{} seq {seq}]: receive lc {} ≤ send lc {s}",
                        r.proc, r.lamport
                    ));
                }
            }
        }
    }
    CausalCheck {
        violations,
        unmatched_deliveries,
    }
}

named_enum! {
    /// Latency category of one critical-path segment.
    #[derive(PartialOrd, Ord)]
    pub enum SegmentKind {
        /// Simulated network latency of a CDM hop (sequential runtime).
        Transit => "transit",
        /// Inbox queue wait of a CDM hop (threaded runtime: channel
        /// hand-off is effectively instant, the gap is drain latency).
        Queue => "queue",
        /// Same-process time inside a processing step (combine, local
        /// scan / summarize work, forwarding).
        Handling => "handling",
        /// Gap between retry attempts of the same scion (candidate
        /// backoff).
        Backoff => "backoff",
    }
}

impl SegmentKind {
    fn glyph(self) -> char {
        match self {
            SegmentKind::Transit => '=',
            SegmentKind::Queue => '~',
            SegmentKind::Handling => '#',
            SegmentKind::Backoff => '.',
        }
    }
}

/// One attributed span of a [`Waterfall`].
#[derive(Clone, Debug)]
pub struct Segment {
    pub kind: SegmentKind,
    pub from: ProcId,
    pub to: ProcId,
    /// Offset from the waterfall origin, µs.
    pub start_us: u64,
    pub dur_us: u64,
    /// What bounded the segment, e.g. `r14 h2` for a CDM hop.
    pub label: String,
}

/// The critical path of one detection (and any earlier attempts of its
/// saga), as a sequence of attributed latency segments.
#[derive(Clone, Debug)]
pub struct Waterfall {
    pub id: DetectionId,
    /// Detections in the saga up to and including `id` (retries of the
    /// same initiator/scion pair); 1 when the first attempt concluded.
    pub attempts: usize,
    /// Recording-clock time of the waterfall origin (first event of the
    /// first attempt).
    pub start_at: SimTime,
    /// End-to-end latency: the exact sum of all segment durations.
    pub total_us: u64,
    pub segments: Vec<Segment>,
}

impl Waterfall {
    /// Total duration per category. Sums exactly to [`Waterfall::total_us`].
    pub fn category_totals(&self) -> [(SegmentKind, u64); 4] {
        let mut totals = SegmentKind::ALL.map(|k| (k, 0u64));
        for seg in &self.segments {
            for (kind, total) in &mut totals {
                if *kind == seg.kind {
                    *total += seg.dur_us;
                }
            }
        }
        totals
    }

    /// Render as ASCII Gantt rows: a category summary header, then one
    /// positioned bar per segment on a shared `width`-column time scale.
    pub fn render(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let width = width.max(8);
        let mut out = String::new();
        let cats = self
            .category_totals()
            .iter()
            .filter(|(_, d)| *d > 0)
            .map(|(k, d)| {
                let pct = (d * 100).checked_div(self.total_us).unwrap_or(0);
                format!("{} {d}µs ({pct}%)", k.name())
            })
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "{}: {}µs end-to-end, {} attempt(s): {}",
            self.id,
            self.total_us,
            self.attempts,
            if cats.is_empty() {
                "instantaneous"
            } else {
                &cats
            }
        );
        let scale = self.total_us.max(1);
        for seg in &self.segments {
            let begin = (seg.start_us as u128 * width as u128 / scale as u128) as usize;
            let mut end =
                ((seg.start_us + seg.dur_us) as u128 * width as u128 / scale as u128) as usize;
            let begin = begin.min(width.saturating_sub(1));
            end = end.clamp(begin + 1, width);
            let mut bar: Vec<char> = vec![' '; width];
            for c in &mut bar[begin..end] {
                *c = seg.kind.glyph();
            }
            let route = if seg.from == seg.to {
                format!("{}", seg.from)
            } else {
                format!("{}->{}", seg.from, seg.to)
            };
            let _ = writeln!(
                out,
                "  |{}| {:<8} {:<8} +{}µs {}µs {}",
                bar.into_iter().collect::<String>(),
                seg.kind.name(),
                route,
                seg.start_us,
                seg.dur_us,
                seg.label,
            );
        }
        out
    }
}

/// Hop depth of the processing step an event belongs to, if it is a
/// chain event.
fn step_hop(r: &Recorded) -> Option<u32> {
    match r.event {
        Event::DetectionStarted { .. } => Some(0),
        Event::CdmSent { hop, .. } | Event::CdmDelivered { hop, .. } => Some(hop),
        Event::CycleDetected { hop, .. }
        | Event::DetectionAborted { hop, .. }
        | Event::DetectionDropped { hop, .. }
        | Event::DetectionTerminated { hop, .. } => Some(hop),
        _ => None,
    }
}

/// Walk one detection's critical path backwards from its latest terminal
/// verdict: terminal ← the delivery that opened the terminal's step ← the
/// matching send ← the step that produced the send ← … ← the initiation.
/// Returns the chain oldest-first, or `None` when a link is missing (the
/// ring overwrote it, the filter suppressed it, or the detection never
/// concluded).
fn chain(path: &DetectionPath) -> Option<Vec<Recorded>> {
    let cdms = link_cdms(&path.events);
    let terminal = path
        .events
        .iter()
        .filter(|r| r.event.is_terminal())
        .max_by_key(|r| (r.at, r.seq))?
        .clone();
    let mut links = vec![terminal];
    loop {
        let cur = links.last().unwrap().clone();
        let prev = match cur.event {
            Event::DetectionStarted { .. } => break,
            // A delivery's predecessor is the send it names, elsewhere.
            Event::CdmDelivered { .. } => cdms
                .pairs
                .iter()
                .find(|(_, d)| d.seq == cur.seq)
                .map(|(send, _)| *send),
            // A send's predecessor is the step that produced it: the
            // prior-hop delivery at the same process, or the initiation.
            Event::CdmSent { hop, .. } => path.events.iter().rev().find(|r| {
                r.seq < cur.seq
                    && r.proc == cur.proc
                    && match r.event {
                        Event::DetectionStarted { .. } => hop == 1,
                        Event::CdmDelivered { hop: h, .. } => h + 1 == hop,
                        _ => false,
                    }
            }),
            // A terminal's predecessor is its step opener at the same
            // process: the same-hop delivery, or the initiation at hop 0.
            _ => {
                let hop = step_hop(&cur)?;
                path.events.iter().rev().find(|r| {
                    r.seq < cur.seq
                        && r.proc == cur.proc
                        && match r.event {
                            Event::DetectionStarted { .. } => hop == 0,
                            Event::CdmDelivered { hop: h, .. } => h == hop,
                            _ => false,
                        }
                })
            }
        };
        links.push(prev?.clone());
    }
    links.reverse();
    Some(links)
}

fn chain_label(r: &Recorded) -> String {
    match r.event {
        Event::DetectionStarted { scion, .. } => format!("start[{scion}]"),
        Event::CdmSent { via, hop, .. } => format!("{via} h{hop}"),
        Event::CdmDelivered { via, hop, .. } => format!("deliver {via} h{hop}"),
        _ => r.event.kind().to_string(),
    }
}

/// The initiating process and scion of a detection, used to group retry
/// attempts of the same candidate into one saga.
fn saga_key(path: &DetectionPath) -> Option<(ProcId, u64)> {
    path.events.iter().find_map(|r| match r.event {
        Event::DetectionStarted { scion, .. } => Some((r.proc, scion.0)),
        _ => None,
    })
}

/// Compute the critical-path waterfall of one detection. When earlier
/// detections of the same saga (same initiator and scion) concluded
/// before this one started, their critical paths are prepended and the
/// inter-attempt gaps become `backoff` segments, so the waterfall covers
/// the full time from the first attempt to the final verdict.
///
/// Cross-process hop gaps are labelled `transit` for sequential traces
/// and `queue` for threaded ones ([`Trace::runtime`]); unknown runtimes
/// default to `transit`.
pub fn waterfall(trace: &Trace, id: DetectionId) -> Option<Waterfall> {
    let path = trace.detection(id);
    let this_chain = chain(&path)?;
    let mut chains = Vec::new();
    if let Some(key) = saga_key(&path) {
        let first_at = this_chain[0].at;
        let mut earlier: Vec<DetectionId> = trace
            .events
            .iter()
            .filter(|r| {
                r.proc == key.0
                    && r.at < first_at
                    && matches!(
                        r.event,
                        Event::DetectionStarted { id: d, scion }
                            if d != id && scion.0 == key.1
                    )
            })
            .filter_map(|r| r.event.detection_id())
            .collect();
        earlier.sort();
        earlier.dedup();
        let mut attempts: Vec<Vec<Recorded>> = earlier
            .into_iter()
            .filter_map(|d| chain(&trace.detection(d)))
            .filter(|c| c.last().unwrap().at <= first_at)
            .collect();
        attempts.sort_by_key(|c| (c[0].at, c[0].seq));
        chains.extend(attempts);
    }
    chains.push(this_chain);

    let gap_kind = match trace.runtime.as_deref() {
        Some("threaded") => SegmentKind::Queue,
        _ => SegmentKind::Transit,
    };
    let origin = chains[0][0].at;
    let mut segments = Vec::new();
    let mut total = 0u64;
    let mut prev_end: Option<(SimTime, ProcId)> = None;
    for ch in &chains {
        if let Some((end_at, end_proc)) = prev_end {
            let dur = ch[0].at.0.saturating_sub(end_at.0);
            segments.push(Segment {
                kind: SegmentKind::Backoff,
                from: end_proc,
                to: ch[0].proc,
                start_us: end_at.0.saturating_sub(origin.0),
                dur_us: dur,
                label: "retry wait".to_string(),
            });
            total += dur;
        }
        for win in ch.windows(2) {
            let (a, b) = (&win[0], &win[1]);
            let kind = if a.proc == b.proc {
                SegmentKind::Handling
            } else {
                gap_kind
            };
            let dur = b.at.0.saturating_sub(a.at.0);
            segments.push(Segment {
                kind,
                from: a.proc,
                to: b.proc,
                start_us: a.at.0.saturating_sub(origin.0),
                dur_us: dur,
                label: chain_label(b),
            });
            total += dur;
        }
        prev_end = Some((ch.last().unwrap().at, ch.last().unwrap().proc));
    }
    Some(Waterfall {
        id,
        attempts: chains.len(),
        start_at: origin,
        total_us: total,
        segments,
    })
}

/// The `k` slowest reconstructable waterfalls, by end-to-end latency
/// descending (ties broken by detection id for determinism).
pub fn top_waterfalls(trace: &Trace, k: usize) -> Vec<Waterfall> {
    let mut falls: Vec<Waterfall> = trace
        .detection_ids()
        .into_iter()
        .filter_map(|id| waterfall(trace, id))
        .collect();
    falls.sort_by_key(|w| (std::cmp::Reverse(w.total_us), w.id));
    falls.truncate(k);
    falls
}

/// What [`perfetto_trace`] emitted, for self-validation and CI gating.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerfettoSummary {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// Flow arrow pairs emitted (one per matched CDM delivery).
    pub flows: usize,
    /// `CdmDelivered` events in the trace — every one of these is a
    /// traced CDM hop and should carry a flow when its send survived.
    pub delivered_hops: usize,
    /// Deliveries whose send was lost to ring overwrite; they get no
    /// flow arrow. `flows + unmatched_deliveries == delivered_hops`.
    pub unmatched_deliveries: usize,
}

/// Export the trace as Chrome trace-event JSON (the legacy JSON format
/// Perfetto and `chrome://tracing` both load):
///
/// * one `process_name` metadata record per process (`pid` = proc id);
/// * one complete (`ph:"X"`) slice per recorded event — phase ends
///   become slices spanning their measured duration, everything else a
///   1µs marker slice;
/// * one flow arrow (`ph:"s"` at the send, `ph:"f"`/`bp:"e"` at the
///   delivery) per delivered CDM hop whose send survived, binding the
///   hop's two marker slices across tracks.
///
/// Timestamps are the recording clocks in µs — wall µs for the threaded
/// runtime, virtual µs for the sequential one.
pub fn perfetto_trace(trace: &Trace) -> (Value, PerfettoSummary) {
    let mut events: Vec<Value> = Vec::new();
    let mut procs: Vec<ProcId> = trace.events.iter().map(|r| r.proc).collect();
    procs.sort();
    procs.dedup();
    for p in &procs {
        events.push(json!({
            "name": "process_name",
            "ph": "M",
            "pid": p.0,
            "tid": 0,
            "args": {"name": format!("{p}")},
        }));
    }

    for r in &trace.events {
        let (ts, dur) = match r.event {
            Event::PhaseEnded { nanos, .. } => {
                let dur = (nanos / 1_000).max(1);
                (r.at.0.saturating_sub(dur), dur)
            }
            Event::PhaseStarted { .. } => continue, // its end emits the slice
            _ => (r.at.0, 1),
        };
        let mut slice = json!({
            "name": r.event.kind(),
            "cat": r.event.family().name(),
            "ph": "X",
            "ts": ts,
            "dur": dur,
            "pid": r.proc.0,
            "tid": 0,
        });
        if let Value::Object(m) = &mut slice {
            let mut args = serde_json::Map::new();
            args.insert("seq".into(), json!(r.seq));
            if r.lamport > 0 {
                args.insert("lc".into(), json!(r.lamport));
            }
            r.event.payload_into(&mut args);
            m.insert("args".into(), Value::Object(args));
        }
        events.push(slice);
    }

    // Flow arrows: one per delivery whose send survived; each copy of a
    // duplicated CDM gets its own arrow from the one send.
    let links = link_cdms(&trace.events);
    let mut summary = PerfettoSummary {
        delivered_hops: trace
            .events
            .iter()
            .filter(|r| matches!(r.event, Event::CdmDelivered { .. }))
            .count(),
        flows: links.pairs.len(),
        unmatched_deliveries: links.unmatched.len(),
        ..PerfettoSummary::default()
    };
    for (i, (send, recv)) in links.pairs.iter().enumerate() {
        events.push(json!({
            "name": "cdm",
            "cat": "cdm",
            "ph": "s",
            "id": i + 1,
            "ts": send.at.0,
            "pid": send.proc.0,
            "tid": 0,
        }));
        events.push(json!({
            "name": "cdm",
            "cat": "cdm",
            "ph": "f",
            "bp": "e",
            "id": i + 1,
            "ts": recv.at.0,
            "pid": recv.proc.0,
            "tid": 0,
        }));
    }
    summary.events = events.len();
    let doc = json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
    });
    (doc, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ProcTrace;
    use acdgc_model::{RefId, TraceConfig};

    fn clocked(capacity: usize) -> TraceConfig {
        TraceConfig {
            capacity,
            ..TraceConfig::on()
        }
    }

    /// Start at P0 (t=10), CDM to P1 (sent t=20, delivered t=50), cycle
    /// verdict at P1 (t=60) — one hop, fully clocked.
    fn one_hop_trace() -> Trace {
        let mut p0 = ProcTrace::new(ProcId(0), &clocked(64));
        let mut p1 = ProcTrace::new(ProcId(1), &clocked(64));
        p1.share_seq(p0.seq_handle());
        let id = DetectionId(7);
        p0.record(
            SimTime(10),
            Event::DetectionStarted {
                id,
                scion: RefId(3),
            },
        );
        p0.record(
            SimTime(20),
            Event::CdmForwarded {
                id,
                hop: 0,
                branches: 1,
                pruned_local: 0,
                pruned_no_new_info: 0,
            },
        );
        p0.record(
            SimTime(20),
            Event::CdmSent {
                id,
                to: ProcId(1),
                via: RefId(5),
                hop: 1,
                sources: 1,
                targets: 1,
                bytes: 64,
            },
        );
        p1.witness(p0.clock_value());
        p1.record(
            SimTime(50),
            Event::CdmDelivered {
                id,
                via: RefId(5),
                hop: 1,
                sources: 1,
                targets: 1,
                bytes: 64,
                from: ProcId(0),
                sent_lc: p0.clock_value(),
            },
        );
        p1.record(
            SimTime(60),
            Event::CycleDetected {
                id,
                hop: 1,
                scions: 2,
            },
        );
        Trace::collect([&p0, &p1])
    }

    #[test]
    fn clock_ticks_and_witnesses() {
        let mut pt = ProcTrace::new(ProcId(0), &clocked(8));
        let vote = || Event::VoteCast { sweep: 1 };
        assert_eq!(pt.clock_value(), 0);
        pt.record(SimTime(1), vote());
        pt.record(SimTime(2), vote());
        assert_eq!(pt.clock_value(), 2, "one tick per recorded event");
        pt.witness(10);
        assert_eq!(pt.clock_value(), 10);
        pt.witness(5); // witnessing a lower value never rewinds
        assert_eq!(pt.clock_value(), 10);
        pt.record(SimTime(3), vote());
        let stamps: Vec<u64> = pt.events().map(|r| r.lamport).collect();
        assert_eq!(stamps, vec![1, 2, 11], "stamped above the witnessed bound");
    }

    /// Three CDMs over one route (same detection, destination, reference
    /// and hop), each delivered once. `send_ring` is P0's ring capacity.
    fn three_sends_one_route(send_ring: usize) -> Trace {
        let mut p0 = ProcTrace::new(ProcId(0), &clocked(send_ring));
        let mut p1 = ProcTrace::new(ProcId(1), &clocked(64));
        p1.share_seq(p0.seq_handle());
        let (id, via) = (DetectionId(4), RefId(9));
        for t in 0..3 {
            p0.record(
                SimTime(10 + t),
                Event::CdmSent {
                    id,
                    to: ProcId(1),
                    via,
                    hop: 2,
                    sources: 1,
                    targets: 1,
                    bytes: 64,
                },
            );
            p1.witness(p0.clock_value());
            p1.record(
                SimTime(20 + t),
                Event::CdmDelivered {
                    id,
                    via,
                    hop: 2,
                    sources: 1,
                    targets: 1,
                    bytes: 64,
                    from: ProcId(0),
                    sent_lc: p0.clock_value(),
                },
            );
        }
        Trace::collect([&p0, &p1])
    }

    #[test]
    fn deliveries_of_overwritten_sends_are_counted_not_judged() {
        // The sender's ring kept only the last of three sends on one route
        // key; the first two deliveries are stamped below it.
        let trace = three_sends_one_route(1);
        assert_eq!(trace.overwritten, 2);
        let check = trace.check();
        assert_eq!(check.causal_violations, Vec::<String>::new());
        assert_eq!(check.unmatched_deliveries, 2);
        let (_, summary) = perfetto_trace(&trace);
        assert_eq!((summary.flows, summary.unmatched_deliveries), (1, 2));
    }

    #[test]
    fn a_delivery_naming_no_send_is_a_violation_in_a_complete_trace() {
        let mut trace = three_sends_one_route(64);
        assert_eq!(trace.overwritten, 0);
        assert_eq!(check_causal(&trace), CausalCheck::default());
        let altered = trace
            .events
            .iter_mut()
            .find_map(|r| match &mut r.event {
                Event::CdmDelivered { sent_lc, .. } => Some(sent_lc),
                _ => None,
            })
            .unwrap();
        *altered += 100;
        let check = check_causal(&trace);
        assert_eq!(check.unmatched_deliveries, 0);
        assert!(
            check.violations.iter().any(|v| v.contains("names a send")),
            "{check:?}"
        );
    }

    #[test]
    fn sound_trace_has_no_causal_violations() {
        let trace = one_hop_trace();
        assert!(trace.events.iter().all(|r| r.lamport > 0));
        assert_eq!(check_causal(&trace), CausalCheck::default());
        assert!(trace
            .detection(DetectionId(7))
            .check_lamport_increases()
            .is_ok());
        assert!(trace.check().ok());
    }

    #[test]
    fn tampered_receive_clock_is_caught() {
        let mut trace = one_hop_trace();
        // Rewind the delivery's stamp to the send's: receive ≤ send.
        let send_lc = trace
            .events
            .iter()
            .find(|r| matches!(r.event, Event::CdmSent { .. }))
            .unwrap()
            .lamport;
        let deliver = trace
            .events
            .iter_mut()
            .find(|r| matches!(r.event, Event::CdmDelivered { .. }))
            .unwrap();
        deliver.lamport = send_lc;
        let v = check_causal(&trace).violations;
        assert!(
            v.iter().any(|s| s.contains("receive lc")),
            "expected a receive-clock violation, got {v:?}"
        );
        assert!(!trace.check().ok());
    }

    #[test]
    fn per_process_regression_is_caught_even_on_suffix_traces() {
        let mut trace = one_hop_trace();
        trace.overwritten = 3; // pretend the ring wrapped
        let last = trace.events.last_mut().unwrap();
        last.lamport = 1; // P1's stamps now regress
        let check = trace.check();
        assert!(check.skipped_overwritten);
        assert!(
            check
                .causal_violations
                .iter()
                .any(|s| s.contains("not increasing")),
            "suffix traces must still be causally checked: {check:?}"
        );
        assert!(!check.ok());
    }

    #[test]
    fn unclocked_traces_trivially_pass() {
        // Events parsed from artifact lines without `lc` carry stamp 0.
        let mut trace = one_hop_trace();
        for r in &mut trace.events {
            r.lamport = 0;
        }
        assert_eq!(check_causal(&trace), CausalCheck::default());
    }

    #[test]
    fn waterfall_categories_sum_exactly_to_end_to_end() {
        let trace = one_hop_trace();
        let w = waterfall(&trace, DetectionId(7)).expect("complete chain");
        assert_eq!(w.attempts, 1);
        assert_eq!(w.start_at, SimTime(10));
        assert_eq!(w.total_us, 50, "t=10 start to t=60 verdict");
        let sum: u64 = w.category_totals().iter().map(|(_, d)| d).sum();
        assert_eq!(sum, w.total_us);
        // Unknown runtime defaults the hop gap to transit.
        let transit = w
            .category_totals()
            .iter()
            .find(|(k, _)| *k == SegmentKind::Transit)
            .unwrap()
            .1;
        assert_eq!(transit, 30, "sent t=20 → delivered t=50");
        let render = w.render(32);
        assert!(render.contains("50µs end-to-end"), "{render}");
        assert!(render.contains("transit"), "{render}");

        let threaded = trace.clone().with_runtime("threaded");
        let w = waterfall(&threaded, DetectionId(7)).unwrap();
        assert!(
            w.segments.iter().any(|s| s.kind == SegmentKind::Queue),
            "threaded hop gaps are queue wait"
        );
    }

    #[test]
    fn retries_group_into_a_saga_with_backoff() {
        let mut p0 = ProcTrace::new(ProcId(0), &clocked(64));
        let scion = RefId(3);
        // Attempt 1: starts t=10, terminates locally t=15.
        p0.record(
            SimTime(10),
            Event::DetectionStarted {
                id: DetectionId(1),
                scion,
            },
        );
        p0.record(
            SimTime(15),
            Event::DetectionTerminated {
                id: DetectionId(1),
                hop: 0,
                reason: crate::event::TermReason::NoNewInformation,
            },
        );
        // Backoff window, then attempt 2: t=40 → cycle at t=45.
        p0.record(
            SimTime(40),
            Event::DetectionStarted {
                id: DetectionId(2),
                scion,
            },
        );
        p0.record(
            SimTime(45),
            Event::CycleDetected {
                id: DetectionId(2),
                hop: 0,
                scions: 1,
            },
        );
        let trace = Trace::collect([&p0]);
        let w = waterfall(&trace, DetectionId(2)).unwrap();
        assert_eq!(w.attempts, 2);
        assert_eq!(w.total_us, 35, "t=10 through t=45");
        let backoff = w
            .category_totals()
            .iter()
            .find(|(k, _)| *k == SegmentKind::Backoff)
            .unwrap()
            .1;
        assert_eq!(backoff, 25, "t=15 → t=40 retry wait");
        let sum: u64 = w.category_totals().iter().map(|(_, d)| d).sum();
        assert_eq!(sum, w.total_us);
    }

    #[test]
    fn top_waterfalls_orders_by_latency() {
        let trace = one_hop_trace();
        let falls = top_waterfalls(&trace, 5);
        assert_eq!(falls.len(), 1);
        assert_eq!(falls[0].id, DetectionId(7));
        assert!(top_waterfalls(&trace, 0).is_empty());
    }

    #[test]
    fn perfetto_export_has_a_flow_per_delivered_hop() {
        let trace = one_hop_trace();
        let (doc, summary) = perfetto_trace(&trace);
        assert_eq!(summary.delivered_hops, 1);
        assert_eq!(summary.flows, 1);
        assert_eq!(summary.unmatched_deliveries, 0);
        let text = serde_json::to_string(&doc).unwrap();
        // Round-trips as JSON and carries both halves of the flow arrow.
        let back: Value = serde_json::from_str(&text).unwrap();
        let events = match &back {
            Value::Object(m) => match m.get("traceEvents") {
                Some(Value::Array(a)) => a,
                _ => panic!("no traceEvents array"),
            },
            _ => panic!("not an object"),
        };
        assert_eq!(events.len(), summary.events);
        assert_eq!(text.matches("\"ph\":\"s\"").count(), 1, "{text}");
        assert_eq!(text.matches("\"ph\":\"f\"").count(), 1, "{text}");
        assert_eq!(
            text.matches("\"process_name\"").count(),
            2,
            "one track per process"
        );
    }

    #[test]
    fn perfetto_counts_unmatched_deliveries_when_the_send_is_lost() {
        let mut trace = one_hop_trace();
        trace
            .events
            .retain(|r| !matches!(r.event, Event::CdmSent { .. }));
        let (_, summary) = perfetto_trace(&trace);
        assert_eq!(summary.delivered_hops, 1);
        assert_eq!(summary.flows, 0);
        assert_eq!(summary.unmatched_deliveries, 1);
    }
}
