//! `acdgc-obs` — structured event tracing and forensics for the collector
//! stack.
//!
//! The paper's claims are *behavioural*: CDMs terminate without global
//! synchronization, the IC barrier catches mutator/detector races, the
//! algebra stays bounded. Counters can say *that* those held; only an
//! event trace can show *how*. This crate provides:
//!
//! * a typed [`Event`] taxonomy over the CDM lifecycle, reference
//!   listing, phase timing, and quiescence voting;
//! * [`ProcTrace`] — a bounded per-process `Vec` ring buffer behind
//!   [`acdgc_model::TraceConfig`], with a zero-cost disabled path and a
//!   shared atomic sequence counter so concurrently recorded events merge
//!   into one total order;
//! * log2-bucket duration [`Histogram`]s per collector [`Phase`], per
//!   process and merged;
//! * [`Trace`] — the collected view: [`Trace::detection`] reconstructs
//!   one detection's ordered cross-process CDM path ([`DetectionPath`]),
//!   [`Trace::to_jsonl`] exports everything for post-mortems and
//!   [`Trace::from_jsonl`] re-ingests an export (the `acdgc-report` CLI);
//! * runtime health ([`health`]): per-worker [`Heartbeats`] slots, stall
//!   detection, and [`HealthReport`] snapshots of each worker's last ring
//!   events and ledger;
//! * time-series telemetry ([`timeseries`]): a [`Sampler`] of periodic
//!   per-process and global gauge/counter [`Sample`]s in bounded
//!   decimating [`TimeSeries`] rings, exported as `sample` JSONL lines
//!   and rendered as sparkline timelines by `acdgc-report --timeline`;
//! * a causal layer ([`causal`]): a per-process Lamport clock stamped on
//!   every event and piggybacked on every GC message, one exact
//!   send↔delivery pairing ([`link_cdms`]), happens-before soundness
//!   checks ([`check_causal`]), critical-path latency [`Waterfall`]s, and
//!   Chrome trace-event export ([`perfetto_trace`]) loadable in Perfetto.
//!
//! The crate sits below `heap`/`remoting`/`snapshot`/`sim` so every layer
//! can report events without dependency cycles; runtimes own the sinks
//! (one per process) and decide when to collect.

pub mod causal;
pub mod event;
pub mod health;
pub mod hist;
pub mod timeseries;
pub mod trace;

pub use causal::{
    check_causal, link_cdms, perfetto_trace, top_waterfalls, waterfall, CausalCheck, CdmLinks,
    PerfettoSummary, Segment, SegmentKind, Waterfall,
};
pub use event::{DropReason, Event, Family, MutatorOpKind, Phase, Recorded, TermReason};
pub use health::{
    HealthReason, HealthReport, Heartbeat, HeartbeatSlot, Heartbeats, WorkerHealth, WorkerStage,
};
pub use hist::{Histogram, PhaseHistograms};
pub use timeseries::{
    check_series, counter_rates, group_by_series, sparkline, RateRow, Sample, SampleField,
    SampleRow, Sampler, TimeSeries, COUNTER_FIELDS, GAUGE_FIELDS,
};
pub use trace::{DetectionPath, PathBalance, ProcTrace, Trace, TraceCheck};
