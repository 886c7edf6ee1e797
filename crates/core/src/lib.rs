//! The Distributed Cycle Detection Algorithm (DCDA) — the paper's
//! contribution.
//!
//! The DCDA finds distributed cycles of garbage **asynchronously**: no
//! global synchronization, no consensus, no per-process state about
//! detections in flight. A detection is a *Cycle Detection Message* (CDM)
//! hopping between processes; at each hop the CDM is combined with the
//! receiving process's [`acdgc_snapshot::SummarizedGraph`] — an
//! independently-taken snapshot — and either dies (one of the safety rules
//! fired), concludes (a cycle was found), or forwards derivations along the
//! unreached outgoing references.
//!
//! The CDM carries the paper's **algebra** ([`algebra::Cdm`]): a *source
//! set* of compiled dependencies (scion-side entries) and a *target set* of
//! traversed references (stub-side entries), every entry tagged with the
//! invocation counter observed in the summary that contributed it.
//! [`algebra::Cdm::matching`] cancels entries present in both sets with
//! equal counters:
//!
//! * both sets empty ⇒ **cycle found** — every dependency was resolved by
//!   actually traversing its reference, so the initiating scion can be
//!   deleted and the acyclic DGC unravels the rest;
//! * a reference with *different* counters on the two sides ⇒ the mutator
//!   ran behind the detector's back (the Fig. 5 race) ⇒ **abort**;
//! * otherwise the residue is the unresolved-dependency set plus the
//!   wavefront, and the walk continues.
//!
//! Safety rules of §2.2 as implemented by [`process::deliver`]:
//!
//! 1. CDM delivered for a scion absent from the current summary ⇒ drop.
//! 2. (by construction) a CDM is only ever sent along a stub present in
//!    the sender's summary.
//! 3. invocation-counter mismatch ⇒ abort (at matching, and optionally
//!    already at delivery).
//! 4. otherwise combine and continue.
//!
//! Termination needs no cooperation: the algebra grows monotonically over
//! the finite universe of (reference, counter) pairs, and a derivation
//! equal to the algebra it derives from is not forwarded (§3.1 step 15).
//!
//! # Example: the paper's §3 matching steps
//!
//! ```
//! use acdgc_dcda::{Cdm, MatchResult};
//! use acdgc_model::{DetectionId, ProcId, RefId};
//!
//! // Step 1: Alg_0 = {{F_P2} -> {}} — F's scion is the first dependency.
//! let f = RefId(1);
//! let mut alg = Cdm::initiate(DetectionId(0), ProcId(1), f, 0);
//!
//! // Steps 2-3: StubsFrom(F_P2) = {Q_P4}; the stub enters the target set.
//! let q = RefId(2);
//! alg.add_target(q, 0);
//!
//! // Step 6: Matching(Alg_1) — nothing cancels yet.
//! assert!(matches!(alg.matching(true), MatchResult::Pending { .. }));
//!
//! // ... the walk eventually adds every scion and stub of the ring ...
//! alg.add_source(q, 0);
//! alg.add_target(f, 0);
//!
//! // Steps 24-26: Matching(Alg_4) => {{} -> {}} — a cycle is proven.
//! assert_eq!(alg.matching(true), MatchResult::CycleFound);
//!
//! // §3.2: had the mutator invoked through F meanwhile, the counters
//! // would disagree and matching would abort instead.
//! let mut raced = alg.clone();
//! raced.target.insert(f, 1); // stub side saw the invocation (x+1)
//! assert!(matches!(
//!     raced.matching(true),
//!     MatchResult::IcMismatch { .. }
//! ));
//! ```

pub mod algebra;
pub mod candidates;
pub mod process;

pub use algebra::{Cdm, Entry, MatchResult, Walk, FULL_CREDIT};
pub use candidates::{scan_candidates, select_candidates, CandidateScan, CandidateState};
pub use process::{deliver, initiate, OutboundCdm, Outcome, TerminateReason};
