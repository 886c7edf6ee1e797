//! Foundation types for the ACDGC reproduction.
//!
//! This crate defines the vocabulary shared by every subsystem of the
//! reproduction of *Asynchronous Complete Distributed Garbage Collection*
//! (Veiga & Ferreira, IPPS 2005):
//!
//! * [`ProcId`], [`ObjId`], [`RefId`] — names for processes, objects and
//!   remote references (a remote reference is a stub/scion *pair* sharing
//!   one [`RefId`]),
//! * [`SimTime`] / [`SimDuration`] — the discrete-event simulation clock,
//! * [`GcConfig`], [`NetConfig`] — tuning knobs for the collector and the
//!   simulated network,
//! * small utilities: a dense [`bitset::BitSet`] used by tracing
//!   collectors, and deterministic RNG seeding helpers in [`rng`].
//!
//! Nothing in this crate knows about heaps, messages or detection; it is
//! the dependency root of the workspace.

#![warn(missing_docs)]

pub mod bitset;
pub mod config;
pub mod error;
pub mod ids;
pub mod rng;
pub mod time;

pub use bitset::BitSet;
pub use config::{
    GcConfig, IntegrationMode, MutatorConfig, NetConfig, SamplingConfig, TraceConfig, TraceFilter,
    WatchdogConfig,
};
pub use error::ModelError;
pub use ids::{DetectionId, IdAllocator, ObjId, ProcId, RefId, Slot};
pub use time::{SimDuration, SimTime};
