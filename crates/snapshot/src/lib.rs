//! Snapshots and graph summarization (§2.2 and §4 of the paper).
//!
//! Each process periodically captures its object graph, independently of
//! every other process. Two artifacts come out of a capture:
//!
//! * a **serialized snapshot** ([`SnapshotData`] through a
//!   [`codec::SnapshotCodec`]) — the on-disk image whose cost the paper
//!   measures. Two codecs reproduce the paper's two serialization regimes:
//!   [`codec::VerboseCodec`] (self-describing, reflective, string-heavy —
//!   the Rotor serializer that took 26 s for 10 000 objects) and
//!   [`codec::CompactCodec`] (flat binary varints — the production .Net
//!   serializer, ~100× faster);
//! * a **summarized graph** ([`SummarizedGraph`]) — the only thing the
//!   cycle detector ever reads: per scion the set of stubs transitively
//!   reachable from it (`StubsFrom`), per stub the scions leading to it
//!   (`ScionsTo`) and its local reachability bit (`Local.Reach`), plus the
//!   invocation counters captured at snapshot time. References strictly
//!   internal to the process are summarized away.
//!
//! Two summarizer implementations produce that graph: [`summarize`], the
//! paper's per-scion breadth-first formulation (kept as the reference
//! oracle), and [`SccEngine`], a single-pass SCC-condensation engine that
//! computes identical output in O(V + E) graph work (see
//! [`engine`]). [`SccEngine::summarize_adaptive`] dispatches between the
//! two per snapshot from O(1) graph statistics (and runs the engine with
//! chain-aliased propagation), so neither implementation's worst case is
//! ever paid.

pub mod capture;
pub mod codec;
pub mod engine;
pub mod summary;

pub use capture::{capture, SnapObject, SnapshotData};
pub use codec::{CodecError, CompactCodec, SnapshotCodec, VerboseCodec};
pub use engine::{DispatchStats, SccEngine, SummarizePath};
pub use summary::{summaries_equivalent, summarize, ScionSummary, StubSummary, SummarizedGraph};
