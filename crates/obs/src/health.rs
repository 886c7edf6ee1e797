//! Runtime health: per-worker heartbeats, stall detection, and
//! [`HealthReport`] snapshots for the threaded runtime.
//!
//! Termination detectors treat liveness as a first-class observable, and
//! so does this module:
//!
//! * every worker publishes a [`HeartbeatSlot`] of relaxed atomics (last
//!   beat, sweep, stage, vote state, inbox depth) once per loop iteration
//!   — a handful of stores, no locks;
//! * a monitor thread (armed by `WatchdogConfig`) polls the slots and
//!   flags any worker whose last beat is older than `stall_after`;
//! * on stall — and once at the end of every run (quiescence or
//!   deadline) — it snapshots each worker's last few ring events plus its
//!   metrics ledger into a [`HealthReport`].
//!
//! The report is both human-renderable ([`HealthReport::render`]) and a
//! JSONL line ([`HealthReport::to_json`]) appended to trace artifacts, so
//! `acdgc-report` can summarize run health offline.

use crate::event::{field_bool, field_str, field_u16, field_u64, named_enum, Event};
use acdgc_model::{ProcId, SimTime};
use serde_json::{json, Map, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

named_enum! {
    /// Where a worker's main loop was when it last beat. Stored in the
    /// slot as its discriminant so the slot stays a plain atomic.
    pub enum WorkerStage {
        /// Spawned, no loop iteration completed yet.
        Starting => "starting",
        /// Draining the inbox.
        Draining => "draining",
        /// Inside a GC sweep (LGC, NSS, snapshot, scan, initiations).
        Sweeping => "sweeping",
        /// Vote cast; idling on drain + global-quiet checks.
        Voted => "voted",
        /// Past the stop flag, applying the final drain.
        FinalDrain => "final_drain",
        /// Exited; an old beat is normal, not a stall.
        Done => "done",
    }
}

impl WorkerStage {
    pub fn code(self) -> u64 {
        self as u64
    }

    pub fn from_code(code: u64) -> WorkerStage {
        WorkerStage::ALL
            .get(code as usize)
            .copied()
            .unwrap_or(WorkerStage::Starting)
    }
}

/// One worker's published vitals. Writers are the owning worker (beats,
/// stage) and its peers (inbox enqueue side); the monitor
/// only reads. All accesses are `Relaxed`: the watchdog tolerates a
/// slightly stale read — its threshold is milliseconds, not nanoseconds —
/// and keeping the slot off the coherence hot path is the point.
#[derive(Debug, Default)]
pub struct HeartbeatSlot {
    /// Microseconds since run start at the worker's last beat.
    last_beat_us: AtomicU64,
    /// Sweeps completed (the worker's `round`).
    sweep: AtomicU64,
    /// [`WorkerStage`] code.
    stage: AtomicU64,
    /// 1 while the worker holds its quiescence vote.
    voted: AtomicU64,
    /// Messages successfully enqueued towards this worker (bumped by
    /// senders — the vendored channel has no `len()`, so depth is the
    /// difference of these two ledgers).
    inbox_enqueued: AtomicU64,
    /// Messages this worker has drained.
    inbox_drained: AtomicU64,
}

impl HeartbeatSlot {
    /// Worker-side: publish one beat.
    pub fn beat(&self, now_us: u64, sweep: u64, stage: WorkerStage, voted: bool) {
        self.last_beat_us.store(now_us, Ordering::Relaxed);
        self.sweep.store(sweep, Ordering::Relaxed);
        self.stage.store(stage.code(), Ordering::Relaxed);
        self.voted.store(u64::from(voted), Ordering::Relaxed);
    }

    /// Worker-side: refresh the stage (and beat) mid-iteration, e.g. when
    /// entering a sweep, so a stall points at the phase it happened in.
    pub fn set_stage(&self, stage: WorkerStage, now_us: u64) {
        self.stage.store(stage.code(), Ordering::Relaxed);
        self.last_beat_us.store(now_us, Ordering::Relaxed);
    }

    /// Sender-side: a message was accepted into this worker's inbox.
    pub fn note_enqueue(&self) {
        self.inbox_enqueued.fetch_add(1, Ordering::Relaxed);
    }

    /// Worker-side: a message was taken out of the inbox.
    pub fn note_drain(&self) {
        self.inbox_drained.fetch_add(1, Ordering::Relaxed);
    }

    /// Monitor-side: coherent-enough copy of the vitals.
    pub fn snapshot(&self) -> Heartbeat {
        Heartbeat {
            last_beat_us: self.last_beat_us.load(Ordering::Relaxed),
            sweep: self.sweep.load(Ordering::Relaxed),
            stage: WorkerStage::from_code(self.stage.load(Ordering::Relaxed)),
            voted: self.voted.load(Ordering::Relaxed) == 1,
            inbox_enqueued: self.inbox_enqueued.load(Ordering::Relaxed),
            inbox_drained: self.inbox_drained.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one [`HeartbeatSlot`].
#[derive(Clone, Copy, Debug)]
pub struct Heartbeat {
    pub last_beat_us: u64,
    pub sweep: u64,
    pub stage: WorkerStage,
    pub voted: bool,
    pub inbox_enqueued: u64,
    pub inbox_drained: u64,
}

impl Heartbeat {
    /// Messages sitting in the inbox (enqueued but not yet drained). The
    /// two ledgers are read independently, so transiently this can lag by
    /// in-flight increments; saturate rather than wrap.
    pub fn inbox_depth(&self) -> u64 {
        self.inbox_enqueued.saturating_sub(self.inbox_drained)
    }
}

/// The shared slot array: one [`HeartbeatSlot`] per worker, allocated by
/// the runtime before the threads start.
#[derive(Debug)]
pub struct Heartbeats {
    slots: Vec<HeartbeatSlot>,
}

impl Heartbeats {
    pub fn new(workers: usize) -> Arc<Heartbeats> {
        Arc::new(Heartbeats {
            slots: (0..workers).map(|_| HeartbeatSlot::default()).collect(),
        })
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub fn slot(&self, worker: usize) -> &HeartbeatSlot {
        &self.slots[worker]
    }

    pub fn snapshot(&self) -> Vec<Heartbeat> {
        self.slots.iter().map(|s| s.snapshot()).collect()
    }
}

named_enum! {
    /// Why a [`HealthReport`] was emitted.
    pub enum HealthReason {
        /// The monitor found at least one worker past the stall threshold.
        Stall => "stall",
        /// The run ended through the quiescence protocol.
        Quiescent => "quiescent",
        /// The run ended through the wall-clock deadline backstop.
        Deadline => "deadline",
    }
}

/// One worker's state inside a [`HealthReport`].
#[derive(Clone, Debug)]
pub struct WorkerHealth {
    pub proc: ProcId,
    pub stage: WorkerStage,
    pub last_beat_us: u64,
    pub sweep: u64,
    pub voted: bool,
    pub inbox_depth: u64,
    /// Whether this worker tripped the stall threshold for this report.
    pub stalled: bool,
    /// The newest few events in the worker's process ring, oldest first:
    /// the last things it did. Empty when the process lock was held.
    pub recent_events: Vec<(SimTime, Event)>,
    /// The process's metrics ledger as JSON, when the process lock could
    /// be acquired without blocking (`None` means the lock was held —
    /// itself a datapoint for a stall).
    pub ledger: Option<Value>,
}

impl WorkerHealth {
    fn to_json(&self) -> Value {
        let recent: Vec<Value> = self
            .recent_events
            .iter()
            .map(|(at, e)| {
                let mut v = json!({ "at_us": at.0, "type": e.kind() });
                if let Value::Object(m) = &mut v {
                    e.payload_into(m);
                }
                v
            })
            .collect();
        let mut v = json!({
            "proc": self.proc.0,
            "stage": self.stage.name(),
            "last_beat_us": self.last_beat_us,
            "sweep": self.sweep,
            "voted": self.voted,
            "inbox_depth": self.inbox_depth,
            "stalled": self.stalled,
            "recent_events": recent,
        });
        if let (Value::Object(m), Some(ledger)) = (&mut v, &self.ledger) {
            m.insert("ledger".into(), ledger.clone());
        }
        v
    }

    fn from_json(v: &Value) -> Option<WorkerHealth> {
        let m = match v {
            Value::Object(m) => m,
            _ => return None,
        };
        let recent_vals = match m.get("recent_events")? {
            Value::Array(a) => a,
            _ => return None,
        };
        let mut recent_events = Vec::with_capacity(recent_vals.len());
        for tv in recent_vals {
            let tm = match tv {
                Value::Object(tm) => tm,
                _ => return None,
            };
            let at = SimTime(field_u64(tm, "at_us")?);
            let event = Event::from_json(field_str(tm, "type")?, tm)?;
            recent_events.push((at, event));
        }
        Some(WorkerHealth {
            proc: ProcId(field_u16(m, "proc")?),
            stage: WorkerStage::from_name(field_str(m, "stage")?)?,
            last_beat_us: field_u64(m, "last_beat_us")?,
            sweep: field_u64(m, "sweep")?,
            voted: field_bool(m, "voted")?,
            inbox_depth: field_u64(m, "inbox_depth")?,
            stalled: field_bool(m, "stalled")?,
            recent_events,
            ledger: m.get("ledger").cloned(),
        })
    }
}

/// A snapshot of every worker's vitals plus what each was last seen
/// doing: its newest ring events and its per-process ledger.
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// Microseconds since run start when the report was taken.
    pub at_us: u64,
    pub reason: HealthReason,
    pub workers: Vec<WorkerHealth>,
}

impl HealthReport {
    /// The workers this report flags as stalled.
    pub fn stalled(&self) -> Vec<ProcId> {
        self.workers
            .iter()
            .filter(|w| w.stalled)
            .map(|w| w.proc)
            .collect()
    }

    /// One JSONL object, `"type":"health_report"` — appended to trace
    /// artifacts after the phase-histogram footers.
    pub fn to_json(&self) -> Value {
        json!({
            "type": "health_report",
            "at_us": self.at_us,
            "reason": self.reason.name(),
            "workers": self.workers.iter().map(|w| w.to_json()).collect::<Vec<_>>(),
        })
    }

    /// Inverse of [`HealthReport::to_json`]; `None` when `v` is not a
    /// health-report line.
    pub fn from_json(v: &Value) -> Option<HealthReport> {
        let m: &Map = match v {
            Value::Object(m) => m,
            _ => return None,
        };
        if field_str(m, "type")? != "health_report" {
            return None;
        }
        let worker_vals = match m.get("workers")? {
            Value::Array(a) => a,
            _ => return None,
        };
        let mut workers = Vec::with_capacity(worker_vals.len());
        for wv in worker_vals {
            workers.push(WorkerHealth::from_json(wv)?);
        }
        Some(HealthReport {
            at_us: field_u64(m, "at_us")?,
            reason: HealthReason::from_name(field_str(m, "reason")?)?,
            workers,
        })
    }

    /// Human-readable multi-line rendering, one worker per line:
    ///
    /// ```text
    /// health@1250ms [stall]: 1 stalled
    ///   P0 sweeping    sweep=41 beat=1249ms inbox=0
    ///   P2 voted       sweep=38 beat=801ms inbox=1 voted  STALLED
    ///     recent: nss_acked nss_acked vote_cast
    /// ```
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "health@{}ms [{}]: {} stalled\n",
            self.at_us / 1000,
            self.reason.name(),
            self.stalled().len(),
        );
        for w in &self.workers {
            let _ = writeln!(
                out,
                "  {} {:<11} sweep={} beat={}ms inbox={}{}{}",
                w.proc,
                w.stage.name(),
                w.sweep,
                w.last_beat_us / 1000,
                w.inbox_depth,
                if w.voted { " voted" } else { "" },
                if w.stalled { "  STALLED" } else { "" },
            );
            if w.stalled && !w.recent_events.is_empty() {
                let kinds: Vec<&str> = w.recent_events.iter().map(|(_, e)| e.kind()).collect();
                let _ = writeln!(out, "    recent: {}", kinds.join(" "));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdgc_model::DetectionId;

    #[test]
    fn stage_codes_round_trip() {
        for stage in WorkerStage::ALL {
            assert_eq!(WorkerStage::from_code(stage.code()), stage);
            assert_eq!(WorkerStage::from_name(stage.name()), Some(stage));
        }
        assert_eq!(WorkerStage::from_code(999), WorkerStage::Starting);
    }

    #[test]
    fn slot_snapshot_reflects_beats_and_ledgers() {
        let hb = Heartbeats::new(2);
        hb.slot(0).beat(1_000, 3, WorkerStage::Sweeping, false);
        hb.slot(0).note_enqueue();
        hb.slot(0).note_enqueue();
        hb.slot(0).note_drain();
        let snap = hb.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].last_beat_us, 1_000);
        assert_eq!(snap[0].sweep, 3);
        assert_eq!(snap[0].stage, WorkerStage::Sweeping);
        assert_eq!(snap[0].inbox_depth(), 1);
        assert_eq!(snap[1].stage, WorkerStage::Starting, "untouched slot");
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = HealthReport {
            at_us: 123_456,
            reason: HealthReason::Stall,
            workers: vec![
                WorkerHealth {
                    proc: ProcId(0),
                    stage: WorkerStage::Sweeping,
                    last_beat_us: 123_000,
                    sweep: 41,
                    voted: false,
                    inbox_depth: 0,
                    stalled: false,
                    recent_events: vec![],
                    ledger: None,
                },
                WorkerHealth {
                    proc: ProcId(2),
                    stage: WorkerStage::Voted,
                    last_beat_us: 80_100,
                    sweep: 38,
                    voted: true,
                    inbox_depth: 1,
                    stalled: true,
                    recent_events: vec![
                        (SimTime(80_000), Event::VoteCast { sweep: 38 }),
                        (
                            SimTime(80_050),
                            Event::DetectionStarted {
                                id: DetectionId(9),
                                scion: acdgc_model::RefId(4),
                            },
                        ),
                    ],
                    ledger: Some(json!({"cdms_sent": 12})),
                },
            ],
        };
        let line = serde_json::to_string(&report.to_json()).unwrap();
        assert!(line.contains("\"type\":\"health_report\""), "{line}");
        let back = HealthReport::from_json(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(back.at_us, report.at_us);
        assert_eq!(back.reason, HealthReason::Stall);
        assert_eq!(back.stalled(), vec![ProcId(2)]);
        assert_eq!(back.workers[1].recent_events.len(), 2);
        assert_eq!(
            back.workers[1].recent_events[0].1,
            Event::VoteCast { sweep: 38 }
        );
        assert!(back.workers[1].ledger.is_some());
        assert!(back.workers[0].ledger.is_none());
    }

    #[test]
    fn render_names_the_stalled_worker_and_its_tail() {
        let report = HealthReport {
            at_us: 1_250_000,
            reason: HealthReason::Stall,
            workers: vec![WorkerHealth {
                proc: ProcId(3),
                stage: WorkerStage::Voted,
                last_beat_us: 801_000,
                sweep: 38,
                voted: true,
                inbox_depth: 1,
                stalled: true,
                recent_events: vec![(SimTime(800_900), Event::VoteCast { sweep: 38 })],
                ledger: None,
            }],
        };
        let text = report.render();
        assert!(text.contains("[stall]"), "{text}");
        assert!(text.contains("P3"), "{text}");
        assert!(text.contains("STALLED"), "{text}");
        assert!(text.contains("recent: vote_cast"), "{text}");
    }
}
