//! Remote references and the reference-listing acyclic DGC.
//!
//! This crate reproduces the instrumentation the paper adds to the .Net
//! Remoting stack (§4):
//!
//! * [`tables`] — per-process [`Stub`] (outgoing reference) and [`Scion`]
//!   (incoming reference) tables. A remote reference is one stub/scion pair
//!   sharing a [`acdgc_model::RefId`]. Both ends carry the **invocation
//!   counter** (`IC`) of §3.2, incremented on every invocation *and* reply
//!   through the reference; the counters are the barrier that lets the
//!   cycle detector notice mutator activity behind its back.
//! * [`acyclic`] — the `NewSetStubs` protocol of the reference-listing
//!   algorithm [Shapiro et al. 92]: after each LGC a process sends every
//!   peer the set of its live stubs targeting that peer; the peer deletes
//!   scions absent from the set. Per-sender sequence numbers make stale or
//!   reordered messages harmless. Where the paper resends every set after
//!   every collection, the sender here follows [`RemotingTables::offer_nss`]:
//!   a set when a stub toward the peer changed, acknowledged by the peer,
//!   retried after one round trip while unacknowledged.
//! * [`lifecycle`] — establishing one reference, written once: the owner
//!   opens (reuses, repairs or mints) the scion and pins it, the importer
//!   opens the stub, the owner closes (refresh, then unpin); an import
//!   nobody holds is abandoned at the importer and only unpinned at the
//!   owner. A half re-created beside a survivor adopts the survivor's
//!   counter. Every driver — `System::create_remote_ref`,
//!   `System::invoke`'s export marshalling and import, the threaded
//!   mutator's export — calls these and nothing else to create or
//!   re-create half of a pair.
//! * [`messages`] — the wire payloads for invocations, replies and
//!   `NewSetStubs`, with size models for byte accounting.
//!
//! Stub death is observed in one of two modes ([`acdgc_model::IntegrationMode`]):
//! `VmIntegrated` removes dead stubs at LGC time (the Rotor build);
//! `WeakRefMonitor` *condemns* them and removes them on a later monitor
//! pass (the OBIWAN user-level build, which watches transparent proxies
//! through weak references).

pub mod acyclic;
pub mod lifecycle;
pub mod messages;
pub mod tables;

pub use acyclic::{apply_new_set_stubs, build_new_set_stubs, AppliedNss, NewSetStubs};
pub use lifecycle::OpenedPair;
pub use messages::{ExportedRef, InvokePayload, ReplyPayload};
pub use tables::{NssPeerState, RemotingStats, RemotingTables, Scion, Stub, NSS_RETRY_SWEEPS};
