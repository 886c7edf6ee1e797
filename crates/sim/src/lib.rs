//! Whole-system simulator for the ACDGC reproduction.
//!
//! [`System`] assembles N processes — each a heap ([`acdgc_heap`]), a
//! stub/scion table ([`acdgc_remoting`]), a published summarized graph
//! ([`acdgc_snapshot`]) and a cycle-detector instance ([`acdgc_dcda`]) —
//! over a deterministic simulated network ([`acdgc_net`]). It exposes:
//!
//! * a **mutator API** (allocate, root/unroot, local and remote reference
//!   edits, remote invocation with reference export/import both ways),
//! * **GC phases** driven either periodically by the event loop or
//!   manually by tests (`run_lgc`, `take_snapshot`, `run_scan`,
//!   `run_monitor`),
//! * a global **reachability oracle** used to verify safety (nothing live
//!   is ever reclaimed) and completeness (everything dead, including every
//!   distributed cycle, is eventually reclaimed),
//! * [`scenarios`] — executable versions of the paper's Figures 1–5 plus
//!   parametric topologies (rings, mutually-linked cycles, random graphs),
//! * [`workload`] — a seeded random mutator for property tests,
//! * [`threaded`] — a genuinely concurrent runtime (one OS thread per
//!   process, crossbeam channels as the transport) for the collection
//!   phase, demonstrating that the algorithm needs no global clock.
//!
//! ## Substituted atomicity
//!
//! Two cross-process actions are applied atomically by the simulator where
//! a real deployment uses the SSP-chain handshake of reference listing:
//! scion creation at reference-export time, and scion unpinning when the
//! importing process has materialized its stub. Both substitutions are
//! conservative (they only ever *extend* scion lifetime relative to the
//! handshake) and do not interact with the cycle detector's safety
//! argument, which rests on invocation counters alone.

#![warn(missing_docs)]

pub mod messages;
pub mod metrics;
pub mod oracle;
pub mod process;
pub mod scenarios;
pub mod step;
pub mod system;
pub mod threaded;
pub mod workload;

pub use messages::{InvokeSpec, SysMessage};
pub use metrics::Metrics;
pub use oracle::{global_live, global_live_procs, live_count_by_proc, MutOp, ShadowGraph};
pub use process::Process;
pub use step::{Credit, Outbox, Step};
pub use system::System;
pub use threaded::{merged_metrics, ReportHook, SweepHook, ThreadedOptions, ThreadedRun};
