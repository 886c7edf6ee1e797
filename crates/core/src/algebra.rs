//! The CDM and its algebra (§3 of the paper).
//!
//! The paper writes a CDM as two sets separated by `→`, e.g.
//! `{{F_P2, Q_P4} → {Q_P4, O_P3}}`: the *source set* holds compiled
//! dependencies (scions that lead into the traversed path), the *target
//! set* holds the references the message has been forwarded along. Here
//! both sets map a [`RefId`] to the invocation counter captured by the
//! summary that contributed the entry — scion-side counters in the source
//! set, stub-side counters in the target set. Counter equality is the
//! §3.2 barrier against mutator/detector races.

use acdgc_model::{DetectionId, ProcId, RefId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Invocation counter value.
pub type Ic = u64;

/// The credit a fresh detection starts with (weight-throwing termination
/// detection, Dijkstra–Scholten style). Expansion splits a CDM's credit
/// exactly across its forwarded branches; every terminal outcome returns
/// the arriving CDM's credit to the initiator. When the initiator has
/// recovered the full credit and every returned share was a *conclusive*
/// termination (dead end or live path — not a hop/budget/slack cutoff),
/// the detection provably walked every branch without finding a cycle:
/// the candidate is live and need not be retried until the mutator moves
/// again. A power of two so repeated halving stays exact for a long time;
/// truncated shares are rounded into the first branch, so credit is
/// conserved by construction.
pub const FULL_CREDIT: u64 = 1 << 32;

/// One algebra entry as `(reference, counter)` — exposed for tests and
/// trace assertions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Entry {
    pub ref_id: RefId,
    pub ic: Ic,
}

/// Result of algebraic matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatchResult {
    /// Source and target cancel exactly: a distributed garbage cycle.
    CycleFound,
    /// Detection is incomplete: `unresolved` dependencies remain and/or the
    /// `wavefront` has traversed references whose scion side is unseen.
    Pending {
        unresolved: Vec<RefId>,
        wavefront: Vec<RefId>,
    },
    /// The same reference carries different counters on the two sides: the
    /// mutator invoked through it between the two snapshots. Unsafe to
    /// conclude anything; the detection must abort.
    IcMismatch {
        ref_id: RefId,
        source_ic: Ic,
        target_ic: Ic,
    },
}

/// The granularity at which a CDM is expanded. A property of the walk, not
/// of the process it visits: set at initiation, inherited by every
/// derivation, and carried in the header, so a receiver needs nothing but
/// the message and its own summary to expand it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Walk {
    /// No scion with two or more followable stubs met yet: the path so far
    /// is a simple chain, on which the two expansions below coincide.
    /// Expanded per reference until the first fan-out, where the walk
    /// splits into both kinds (see `process::expand`).
    Undivided,
    /// The paper's §3 expansion: one derivation per followable stub.
    PerReference,
    /// One visit witnesses everything its process owes the walk and
    /// forwards a single chain (`GcConfig::eager_combine` starts walks
    /// this way).
    PerProcess,
}

/// A Cycle Detection Message.
///
/// Self-contained: processes keep no state about CDMs in flight, so a lost
/// CDM costs nothing but the work it carried — and everything a receiver
/// needs to expand it ([`Walk`], budget, slack, credit) travels in its
/// fixed-size header, never in the receiver's configuration.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cdm {
    /// Trace/metrics identity; not consulted by the algorithm.
    pub detection_id: DetectionId,
    /// Process that initiated the detection.
    pub initiator: ProcId,
    /// Expansion granularity of this derivation and all its descendants.
    pub walk: Walk,
    /// Hops travelled; bounded by the configured cap as a backstop.
    pub hops: u32,
    /// Remaining message budget for this derivation; split across
    /// branches on fan-out, so one detection sends at most the configured
    /// budget of CDMs in total. Set by the initiator; not part of the
    /// algebra.
    pub budget: u32,
    /// Remaining consecutive non-growing hops this derivation may make
    /// (see `GcConfig::nongrowth_slack`). Reset on every growing hop; not
    /// part of the algebra.
    pub slack: u32,
    /// Termination-detection credit carried by this derivation (see
    /// [`FULL_CREDIT`]). Split exactly across forwarded branches on
    /// fan-out; returned to the initiator whenever the derivation dies.
    /// Not part of the algebra — it only drives the initiator's lazy
    /// liveness verdicts, never a deletion.
    pub credit: u64,
    /// Dependencies: scion-side `(reference, counter)` entries.
    pub source: BTreeMap<RefId, Ic>,
    /// Traversed references: stub-side `(reference, counter)` entries.
    pub target: BTreeMap<RefId, Ic>,
    /// Which process owns each source entry's scion (recorded at the
    /// witnessing visit). Not part of the algebra (it is functionally
    /// determined by the reference id); used by the cycle verdict to
    /// delete every scion of the proven-garbage set, not just the local
    /// one — single-scion deletion leaves "zombie" references on objects
    /// still protected by their other scions, which poisons later walks
    /// over densely shared garbage.
    pub owners: BTreeMap<RefId, ProcId>,
    /// Scion incarnations witnessed at source-insertion time. Verdict
    /// deletions carry them so a late deletion can never kill a newer,
    /// recreated (live) scion under the same reference id.
    pub incarnations: BTreeMap<RefId, u32>,
}

/// Outcome of inserting an entry whose reference may already be present.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Insert {
    /// Entry added, or already present with the same counter.
    Ok,
    /// Already present with a *different* counter: the reference was
    /// invoked between the summaries that contributed the two sightings.
    Conflict { existing: Ic, incoming: Ic },
}

fn insert_entry(set: &mut BTreeMap<RefId, Ic>, ref_id: RefId, ic: Ic) -> Insert {
    match set.get(&ref_id) {
        None => {
            set.insert(ref_id, ic);
            Insert::Ok
        }
        Some(&existing) if existing == ic => Insert::Ok,
        Some(&existing) => Insert::Conflict {
            existing,
            incoming: ic,
        },
    }
}

impl Cdm {
    /// Fresh CDM for a detection initiated at `initiator` from `scion`.
    pub fn initiate(
        detection_id: DetectionId,
        initiator: ProcId,
        scion: RefId,
        scion_ic: Ic,
    ) -> Self {
        let mut source = BTreeMap::new();
        source.insert(scion, scion_ic);
        Cdm {
            detection_id,
            initiator,
            walk: Walk::Undivided,
            hops: 0,
            budget: u32::MAX,
            slack: 0,
            credit: FULL_CREDIT,
            source,
            target: BTreeMap::new(),
            owners: BTreeMap::new(),
            incarnations: BTreeMap::new(),
        }
    }

    /// Add a dependency (scion-side entry) to the source set, recording
    /// the process that owns the scion.
    pub fn add_source(&mut self, ref_id: RefId, ic: Ic) -> Insert {
        insert_entry(&mut self.source, ref_id, ic)
    }

    /// Record which process owns `ref_id`'s scion (the witnessing visit).
    pub fn record_owner(&mut self, ref_id: RefId, owner: ProcId) {
        self.owners.insert(ref_id, owner);
    }

    /// Record the scion incarnation witnessed for `ref_id` (set when the
    /// scion-side entry is inserted at its owner).
    pub fn record_incarnation(&mut self, ref_id: RefId, incarnation: u32) {
        self.incarnations.insert(ref_id, incarnation);
    }

    /// Every scion of the matched set with its owner, witnessed
    /// incarnation, and witnessed invocation counter: the deletion list a
    /// cycle verdict authorizes. The counter rides along so the deletion
    /// site can re-apply the paper's lazy IC barrier at *delete* time — a
    /// verdict is only acted upon if the mutator has not used the
    /// reference since the walk witnessed it (a concurrent re-export or
    /// invocation advances the live counter past the witnessed one).
    pub fn matched_scions(&self) -> Vec<(ProcId, RefId, u32, Ic)> {
        self.source
            .iter()
            .filter_map(|(r, ic)| {
                let owner = self.owners.get(r)?;
                let inc = self.incarnations.get(r)?;
                Some((*owner, *r, *inc, *ic))
            })
            .collect()
    }

    /// Add a traversed reference (stub-side entry) to the target set.
    pub fn add_target(&mut self, ref_id: RefId, ic: Ic) -> Insert {
        insert_entry(&mut self.target, ref_id, ic)
    }

    /// Two CDMs carry the same algebra (paper's `Alg_x = Alg_y`, used by
    /// the branch-termination rule). Hop counts and ids are not algebra.
    pub fn same_algebra(&self, other: &Cdm) -> bool {
        self.source == other.source && self.target == other.target
    }

    /// Algebraic matching (§3, "CDM Matching"): cancel references present
    /// in both sets. With `ic_barrier` set (the default, and the only safe
    /// configuration), a reference whose two sightings disagree on the
    /// counter aborts the match; the A1 ablation disables the barrier to
    /// demonstrate the unsafety the paper's counters prevent.
    pub fn matching(&self, ic_barrier: bool) -> MatchResult {
        let mut unresolved = Vec::new();
        for (&ref_id, &source_ic) in &self.source {
            match self.target.get(&ref_id) {
                Some(&target_ic) if target_ic == source_ic => {}
                Some(&target_ic) if ic_barrier => {
                    return MatchResult::IcMismatch {
                        ref_id,
                        source_ic,
                        target_ic,
                    };
                }
                Some(_) => {} // barrier disabled: cancel regardless (UNSAFE)
                None => unresolved.push(ref_id),
            }
        }
        let wavefront: Vec<RefId> = self
            .target
            .keys()
            .filter(|r| !self.source.contains_key(r))
            .copied()
            .collect();
        if unresolved.is_empty() && wavefront.is_empty() {
            MatchResult::CycleFound
        } else {
            MatchResult::Pending {
                unresolved,
                wavefront,
            }
        }
    }

    /// Approximate wire size for byte accounting: header plus 16 bytes per
    /// entry (reference id + counter).
    pub fn size_bytes(&self) -> usize {
        32 + 16 * (self.source.len() + self.target.len())
    }
}

impl fmt::Debug for Cdm {
    /// Rendered in the paper's notation: `{{r1, r2} -> {r2, r3}}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.detection_id)?;
        write!(f, "{{")?;
        for (i, (r, ic)) in self.source.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}@{ic}")?;
        }
        write!(f, "}} -> {{")?;
        for (i, (r, ic)) in self.target.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}@{ic}")?;
        }
        write!(f, "}}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cdm() -> Cdm {
        Cdm::initiate(DetectionId(0), ProcId(0), RefId(1), 0)
    }

    #[test]
    fn initiation_matches_paper_alg0() {
        // Step 1 of §3: Alg_0 ⇒ {{F_P2} → {}}.
        let c = cdm();
        assert_eq!(c.source.len(), 1);
        assert!(c.target.is_empty());
        assert_eq!(c.hops, 0);
    }

    #[test]
    fn disjoint_sets_are_pending() {
        // Step 6-7 of §3: Matching({F_P2} → {Q_P4}) finds nothing to cancel.
        let mut c = cdm();
        c.add_target(RefId(2), 0);
        match c.matching(true) {
            MatchResult::Pending {
                unresolved,
                wavefront,
            } => {
                assert_eq!(unresolved, vec![RefId(1)]);
                assert_eq!(wavefront, vec![RefId(2)]);
            }
            other => panic!("expected pending, got {other:?}"),
        }
    }

    #[test]
    fn full_cancellation_is_cycle() {
        // Steps 24-26 of §3: Matching(Alg_4) ⇒ {{} → {}} ⇒ cycle found.
        let mut c = cdm();
        for r in 2..=4u64 {
            c.add_source(RefId(r), 0);
        }
        for r in 1..=4u64 {
            c.add_target(RefId(r), 0);
        }
        assert_eq!(c.matching(true), MatchResult::CycleFound);
    }

    #[test]
    fn partial_cancellation_reduces() {
        // Step 13 of §3: Matching({F,Q} → {Q,O}) ⇒ {F} → {O}.
        let mut c = cdm(); // F = r1
        c.add_source(RefId(2), 0); // Q
        c.add_target(RefId(2), 0); // Q
        c.add_target(RefId(3), 0); // O
        match c.matching(true) {
            MatchResult::Pending {
                unresolved,
                wavefront,
            } => {
                assert_eq!(unresolved, vec![RefId(1)]);
                assert_eq!(wavefront, vec![RefId(3)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ic_mismatch_aborts() {
        // §3.2.1 step 7-8: {{F,x}} vs {{F,x+1}} ⇒ abort.
        let mut c = Cdm::initiate(DetectionId(0), ProcId(0), RefId(1), 7);
        c.add_target(RefId(1), 8);
        assert_eq!(
            c.matching(true),
            MatchResult::IcMismatch {
                ref_id: RefId(1),
                source_ic: 7,
                target_ic: 8
            }
        );
    }

    #[test]
    fn barrier_disabled_cancels_unsafely() {
        let mut c = Cdm::initiate(DetectionId(0), ProcId(0), RefId(1), 7);
        c.add_target(RefId(1), 8);
        assert_eq!(c.matching(false), MatchResult::CycleFound);
    }

    #[test]
    fn insert_conflict_detected() {
        let mut c = cdm();
        assert_eq!(c.add_source(RefId(1), 0), Insert::Ok, "same ic idempotent");
        assert_eq!(
            c.add_source(RefId(1), 3),
            Insert::Conflict {
                existing: 0,
                incoming: 3
            }
        );
        assert_eq!(c.add_target(RefId(9), 1), Insert::Ok);
        assert_eq!(
            c.add_target(RefId(9), 2),
            Insert::Conflict {
                existing: 1,
                incoming: 2
            }
        );
    }

    #[test]
    fn same_algebra_ignores_hops_and_ids() {
        let mut a = cdm();
        let mut b = Cdm::initiate(DetectionId(9), ProcId(5), RefId(1), 0);
        b.hops = 42;
        assert!(a.same_algebra(&b));
        a.add_target(RefId(2), 0);
        assert!(!a.same_algebra(&b));
    }

    #[test]
    fn matching_is_insertion_order_independent() {
        let mut a = cdm();
        a.add_source(RefId(5), 1);
        a.add_source(RefId(3), 2);
        a.add_target(RefId(3), 2);
        a.add_target(RefId(5), 1);
        let mut b = cdm();
        b.add_target(RefId(5), 1);
        b.add_source(RefId(3), 2);
        b.add_source(RefId(5), 1);
        b.add_target(RefId(3), 2);
        assert_eq!(a.matching(true), b.matching(true));
        assert!(a.same_algebra(&b));
    }

    #[test]
    fn size_grows_with_entries() {
        let mut c = cdm();
        let base = c.size_bytes();
        c.add_target(RefId(2), 0);
        assert_eq!(c.size_bytes(), base + 16);
    }

    #[test]
    fn debug_renders_paper_notation() {
        let mut c = cdm();
        c.add_target(RefId(2), 3);
        let s = format!("{c:?}");
        assert!(s.contains("{r1@0} -> {r2@3}"), "got {s}");
    }
}
