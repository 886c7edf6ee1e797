//! CDM processing: initiation, delivery, expansion and forwarding.
//!
//! Both entry points are **pure functions** of the process's current
//! summarized graph and the message — the statelessness the paper sells
//! against back-tracing and group-based collectors. Everything a process
//! ever contributes to a detection is encoded into the outbound CDMs.

use crate::algebra::{Cdm, Insert, MatchResult, Walk};
use acdgc_model::{GcConfig, ProcId, RefId};
use acdgc_snapshot::{ScionSummary, SummarizedGraph};

/// A CDM to forward, addressed by the reference it travels along.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutboundCdm {
    /// Process owning the matching scion.
    pub dest: ProcId,
    /// The stub (reference) the CDM follows.
    pub via: RefId,
    pub cdm: Cdm,
}

/// Why a detection stopped making progress at this process without either
/// finding a cycle or aborting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminateReason {
    /// The scion's target reaches no stubs: the graph is process-local
    /// beyond this point, so no *distributed* cycle can pass through.
    NoStubs,
    /// Every outgoing path is locally reachable (`Local.Reach`): the
    /// subgraph is live, detection must not follow (§2.1).
    AllStubsLocallyReachable,
    /// Every derivation equals its parent algebra: no new information
    /// (§3.1 step 15, the rule that stops mutually-linked cycle loops).
    NoNewInformation,
    /// The detection's message budget ran out (dense fan-out). The next
    /// candidate scan retries with a fresh budget; meanwhile the acyclic
    /// layer keeps shrinking the structure.
    BudgetExhausted,
}

impl TerminateReason {
    /// Whether re-running this leaf on unchanged state reproduces the same
    /// "not a cycle" conclusion: `NoStubs` and `AllStubsLocallyReachable`
    /// are conclusive, and a `NoNewInformation` terminal only re-crossed
    /// pairs an ancestor branch already explored past. `BudgetExhausted`
    /// is the exception — a retry may start from a different candidate of
    /// the same structure and get further, so it must not be laundered
    /// into a liveness verdict.
    pub fn is_conclusive(self) -> bool {
        self != TerminateReason::BudgetExhausted
    }
}

/// Result of processing a CDM (or initiating one) at a process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Safety rule 1: the addressed scion is not in the current summary
    /// (created after the snapshot, or already deleted). Drop silently.
    DroppedNoScion,
    /// Invocation counters disagree: mutator activity behind the detector
    /// (§3.2). The detection aborts.
    AbortedIcMismatch {
        ref_id: RefId,
        source_ic: u64,
        target_ic: u64,
    },
    /// Backstop hop cap exceeded.
    DroppedHopCap,
    /// Matching cancelled completely: a distributed garbage cycle. Every
    /// scion of the matched set is garbage; `delete` lists them with their
    /// owning processes, witnessed incarnations, and witnessed invocation
    /// counters (the paper deletes only the local one, which strands
    /// objects protected by several scions — see `Cdm::matched_scions`).
    /// The deletion site must re-check both the incarnation (ABA guard)
    /// and the counter (lazy IC barrier against a concurrent mutator)
    /// before removing the scion. The acyclic DGC reclaims the objects.
    CycleFound {
        delete: Vec<(ProcId, RefId, u32, u64)>,
    },
    /// The walk continues along these references. The counters record the
    /// sibling branches that did *not* forward (live path pruned, or the
    /// §3.1 step 15 no-new-information rule).
    Forwarded {
        out: Vec<OutboundCdm>,
        branches_pruned_local: u32,
        branches_no_new_info: u32,
        /// Of the `branches_no_new_info` total, how many were cut by
        /// budget starvation rather than the no-new-information rule.
        /// The distinction matters for liveness verdicts: a slack-pruned
        /// branch added nothing the walk had not already covered (its
        /// stub's pair is in the CDM algebra, so an ancestor explored
        /// past it), but a starved branch carried *new* information that
        /// was never walked — real coverage loss the initiator must not
        /// mistake for a complete, clean walk.
        branches_starved: u32,
    },
    /// The detection dies here, see [`TerminateReason`].
    Terminated(TerminateReason),
}

impl Outcome {
    /// Convenience for tests: the forwarded derivations, if any.
    pub fn forwards(&self) -> &[OutboundCdm] {
        match self {
            Outcome::Forwarded { out, .. } => out,
            _ => &[],
        }
    }
}

/// Initiate a detection from `scion` (a cycle candidate) against the
/// current summary. Mirrors §3 steps 1–4: build `{{scion} → {}}`, then
/// expand and forward.
pub fn initiate(summary: &SummarizedGraph, cdm: Cdm, scion: RefId, cfg: &GcConfig) -> Outcome {
    debug_assert!(cdm.target.is_empty() && cdm.hops == 0, "fresh CDM expected");
    let Some(scion_summary) = summary.scion(scion) else {
        return Outcome::DroppedNoScion;
    };
    let mut cdm = cdm;
    cdm.budget = cdm.budget.min(cfg.detection_budget);
    cdm.slack = cfg.nongrowth_slack;
    if cfg.eager_combine {
        cdm.walk = Walk::PerProcess;
    }
    cdm.record_owner(scion, summary.proc);
    cdm.record_incarnation(scion, scion_summary.incarnation);
    expand(summary, cdm, scion_summary, cfg)
}

/// Deliver a CDM that arrived along reference `scion` (it was forwarded
/// through the matching stub by the previous process).
pub fn deliver(summary: &SummarizedGraph, mut cdm: Cdm, scion: RefId, cfg: &GcConfig) -> Outcome {
    // Safety rule 1: "CDM sent to non-existent scions are discarded and
    // detection terminated" (§3.2). Covers scions newer than the summary
    // and scions already reclaimed.
    let Some(scion_summary) = summary.scion(scion) else {
        return Outcome::DroppedNoScion;
    };

    // §3.2.1 optimization: the sender recorded the stub-side counter in the
    // target set; compare against our scion-side counter immediately.
    if cfg.ic_barrier && cfg.ic_check_on_delivery {
        if let Some(&stub_ic) = cdm.target.get(&scion) {
            if stub_ic != scion_summary.ic {
                return Outcome::AbortedIcMismatch {
                    ref_id: scion,
                    source_ic: scion_summary.ic,
                    target_ic: stub_ic,
                };
            }
        }
    }

    cdm.hops += 1;
    if cdm.hops > cfg.max_hops {
        return Outcome::DroppedHopCap;
    }

    expand(summary, cdm, scion_summary, cfg)
}

/// Common body of [`initiate`] and [`deliver`]: dispatch on the walk's own
/// granularity ([`Walk`]), never on this process's configuration.
///
/// An undivided walk expands per reference — on a path without fan-out the
/// two expansions coincide, so rings are walked exactly as in the paper —
/// until the first scion with two or more followable stubs, where it
/// [splits](expand_split) once into both kinds. Divided walks never split
/// again (otherwise every node of the per-reference tree spawns a chain).
fn expand(summary: &SummarizedGraph, cdm: Cdm, at: &ScionSummary, cfg: &GcConfig) -> Outcome {
    let scion = at.ref_id;
    match cdm.walk {
        Walk::PerProcess => expand_eager(summary, cdm, scion, cfg),
        Walk::PerReference => expand_per_branch(summary, cdm, scion, cfg),
        Walk::Undivided if !fans_out(summary, at) => expand_per_branch(summary, cdm, scion, cfg),
        Walk::Undivided => expand_split(summary, cdm, scion, cfg),
    }
}

/// Whether a walk may follow two or more stubs of `scion`: present in the
/// summary and not `Local.Reach`.
fn fans_out(summary: &SummarizedGraph, scion: &ScionSummary) -> bool {
    let followable = |t: &&RefId| summary.stub(**t).is_some_and(|stub| !stub.local_reach);
    scion.stubs_from.len() >= 2 && scion.stubs_from.iter().filter(followable).nth(1).is_some()
}

/// Whether a side of a split ended on a conclusive termination; anything
/// else it dies of leaves territory unexplored.
fn conclusive(outcome: &Outcome) -> bool {
    matches!(outcome, Outcome::Terminated(reason) if reason.is_conclusive())
}

/// First fan-out of an undivided walk: derive one per-process chain *and*
/// the paper's per-reference derivations from the same incoming CDM.
///
/// The per-reference side keeps the subset search that carves a pure cycle
/// out of a web converging with live references; the chain proves densely
/// shared garbage in a number of hops linear in its references, and its
/// verdict deletes the scions under the still-doubling per-reference tree,
/// which then dies at its next hop (safety rule 1). The chain is listed
/// first (sent first, served first) and takes the larger half of the
/// remaining budget and of the credit; the per-reference derivations share
/// the rest, so the shares sum exactly to the parent's. A side that
/// forwards nothing leaves the whole to the other, and a chain that dies
/// here never kills the per-reference side: an inconclusive death only
/// marks the walk incomplete, the way a budget-starved branch does.
fn expand_split(summary: &SummarizedGraph, cdm: Cdm, scion: RefId, cfg: &GcConfig) -> Outcome {
    let chain = expand_eager(
        summary,
        Cdm {
            walk: Walk::PerProcess,
            ..cdm.clone()
        },
        scion,
        cfg,
    );
    // The per-reference side's share when both sides forward. The chain
    // was derived from the whole and is cut down to the complement only
    // then: it forwards with any nonzero share, so its outcome does not
    // depend on which of the two it holds.
    let (budget, credit) = (cdm.budget.saturating_sub(1) / 2, cdm.credit / 2);
    let mut refs = Cdm {
        walk: Walk::PerReference,
        ..cdm
    };
    if matches!(chain, Outcome::Forwarded { .. }) {
        refs.budget = budget + 1;
        refs.credit = credit;
    }
    match (chain, expand_per_branch(summary, refs, scion, cfg)) {
        (verdict @ Outcome::CycleFound { .. }, _) | (_, verdict @ Outcome::CycleFound { .. }) => {
            verdict
        }
        (
            Outcome::Forwarded { mut out, .. },
            Outcome::Forwarded {
                out: refs,
                branches_pruned_local,
                branches_no_new_info,
                branches_starved,
            },
        ) => {
            for chain in &mut out {
                chain.cdm.budget -= budget;
                chain.cdm.credit -= credit;
            }
            out.extend(refs);
            Outcome::Forwarded {
                out,
                branches_pruned_local,
                branches_no_new_info,
                branches_starved,
            }
        }
        // One side forwards: it keeps the whole, marked incomplete if the
        // other died with territory unexplored.
        (mut kept @ Outcome::Forwarded { .. }, dead)
        | (dead, mut kept @ Outcome::Forwarded { .. }) => {
            if let Outcome::Forwarded {
                branches_no_new_info,
                branches_starved,
                ..
            } = &mut kept
            {
                let lost = u32::from(!conclusive(&dead));
                *branches_no_new_info += lost;
                *branches_starved += lost;
            }
            kept
        }
        // Neither forwards: the per-reference outcome stands, unless only
        // the chain's is inconclusive.
        (chain, refs) if conclusive(&refs) && !conclusive(&chain) => chain,
        (_, refs) => refs,
    }
}

/// The paper's per-reference expansion (§3): one derivation per followable
/// stub of the delivered scion.
fn expand_per_branch(
    summary: &SummarizedGraph,
    mut cdm: Cdm,
    scion: RefId,
    cfg: &GcConfig,
) -> Outcome {
    let scion_summary = summary
        .scion(scion)
        .expect("caller verified scion presence");

    // The delivered scion is itself a dependency of the path (§3 step 1:
    // "it is the first dependency"). A counter conflict with an earlier
    // sighting means mutator activity: abort.
    if let Insert::Conflict { existing, incoming } = cdm.add_source(scion, scion_summary.ic) {
        if cfg.ic_barrier {
            return Outcome::AbortedIcMismatch {
                ref_id: scion,
                source_ic: existing,
                target_ic: incoming,
            };
        }
    }
    cdm.record_owner(scion, summary.proc);
    cdm.record_incarnation(scion, scion_summary.incarnation);

    // Matching happens on delivery (§3 steps 24-26): if every dependency
    // has been resolved by traversal, the cycle is proven.
    match cdm.matching(cfg.ic_barrier) {
        MatchResult::CycleFound => {
            return Outcome::CycleFound {
                delete: cdm.matched_scions(),
            }
        }
        MatchResult::IcMismatch {
            ref_id,
            source_ic,
            target_ic,
        } => {
            return Outcome::AbortedIcMismatch {
                ref_id,
                source_ic,
                target_ic,
            }
        }
        MatchResult::Pending => {}
    }

    if scion_summary.stubs_from.is_empty() {
        return Outcome::Terminated(TerminateReason::NoStubs);
    }

    let mut outbound = Vec::new();
    let mut saw_followable = false;
    let mut branches_pruned_local = 0u32;
    let mut branches_no_new_info = 0u32;
    for &stub_ref in &scion_summary.stubs_from {
        let Some(stub) = summary.stub(stub_ref) else {
            // The stub left the table between summarization inputs; treat
            // like a locally-unfollowable path (conservative: no forward).
            branches_pruned_local += 1;
            continue;
        };
        // §2.1: "those stubs that are locally reachable are immediately
        // discarded from the point of view of the DCDA" — a live path.
        if stub.local_reach {
            branches_pruned_local += 1;
            continue;
        }
        saw_followable = true;

        let mut branch = cdm.clone();
        if let Insert::Conflict { existing, incoming } = branch.add_target(stub_ref, stub.ic) {
            if cfg.ic_barrier {
                return Outcome::AbortedIcMismatch {
                    ref_id: stub_ref,
                    source_ic: existing,
                    target_ic: incoming,
                };
            }
        }
        // Extra dependencies (§3.1 step 5): every other scion converging on
        // this stub must also be garbage for the cycle to be garbage.
        for &dep in &stub.scions_to {
            let Some(dep_summary) = summary.scion(dep) else {
                continue;
            };
            if let Insert::Conflict { existing, incoming } = branch.add_source(dep, dep_summary.ic)
            {
                if cfg.ic_barrier {
                    return Outcome::AbortedIcMismatch {
                        ref_id: dep,
                        source_ic: existing,
                        target_ic: incoming,
                    };
                }
            }
            branch.record_owner(dep, summary.proc);
            branch.record_incarnation(dep, dep_summary.incarnation);
        }

        // §3.1 step 15, with bounded slack: a derivation equal to its
        // parent algebra brings no new information. The strict rule drops
        // it immediately; with slack, it may make a limited number of
        // consecutive non-growing hops (needed to re-cross explored
        // references toward unexplored ones in densely shared garbage —
        // see `GcConfig::nongrowth_slack`). Growing derivations get their
        // slack refreshed.
        let grew = !branch.same_algebra(&cdm);
        if grew {
            branch.slack = cfg.nongrowth_slack;
        } else if cfg.branch_termination {
            if cdm.slack == 0 {
                branches_no_new_info += 1;
                continue;
            }
            branch.slack = cdm.slack - 1;
        }
        outbound.push((
            grew,
            OutboundCdm {
                dest: stub.target_proc,
                via: stub_ref,
                cdm: branch,
            },
        ));
    }

    if outbound.is_empty() {
        let reason = if !saw_followable {
            TerminateReason::AllStubsLocallyReachable
        } else {
            TerminateReason::NoNewInformation
        };
        return Outcome::Terminated(reason);
    }

    // Split the remaining message budget across the surviving branches so
    // one detection sends at most the initiator's budget of CDMs no matter
    // how densely the garbage fans out. Growing branches are served first,
    // and shares halve geometrically, so the most promising derivation
    // keeps budget proportional to the remainder (depth is throttled only
    // logarithmically by fan-out, not divided away).
    outbound.sort_by_key(|(grew, ob)| (!grew, ob.via));
    let mut remaining = cdm.budget.saturating_sub(1);
    let mut starved = 0u32;
    let mut forwards = Vec::with_capacity(outbound.len());
    let n = outbound.len();
    for (i, (_grew, mut ob)) in outbound.into_iter().enumerate() {
        let share = if i + 1 == n {
            remaining
        } else {
            remaining - remaining / 2
        };
        remaining -= share;
        if share == 0 {
            starved += 1;
            continue;
        }
        ob.cdm.budget = share;
        forwards.push(ob);
    }
    if forwards.is_empty() {
        return Outcome::Terminated(TerminateReason::BudgetExhausted);
    }
    // Budget-starved siblings count as no-new-information losses for
    // metrics purposes (they carry real coverage loss the next scan must
    // retry).
    branches_no_new_info += starved;
    // Split the termination-detection credit exactly across the surviving
    // branches (remainder to the first), so the shares always sum to the
    // parent's credit and the initiator can recognize full recovery.
    let k = forwards.len() as u64;
    let share = cdm.credit / k;
    let rem = cdm.credit % k;
    for (i, ob) in forwards.iter_mut().enumerate() {
        ob.cdm.credit = share + if i == 0 { rem } else { 0 };
    }
    Outcome::Forwarded {
        out: forwards,
        branches_pruned_local,
        branches_no_new_info,
        branches_starved: starved,
    }
}

/// Extension beyond the paper ([`Walk::PerProcess`]): combine the CDM with
/// the whole relevant local snapshot.
///
/// One visit witnesses, transitively: the delivered scion, every stub
/// reachable from it, every local scion converging on any of those stubs
/// (the dependencies), every stub reachable from *those*, and so on — the
/// full local closure. The CDM is then forwarded once per distinct process
/// that still owes a scion-side witness for some traversed stub. Soundness
/// is unchanged: every entry is still a genuine summary sighting with its
/// captured counter, and matching/abort semantics are identical. What
/// changes is the walk's granularity: per *process* instead of per
/// *reference*, collapsing the factorial branch explosion on densely
/// shared garbage.
fn expand_eager(summary: &SummarizedGraph, mut cdm: Cdm, scion: RefId, cfg: &GcConfig) -> Outcome {
    let baseline = cdm.clone();
    let mut branches_pruned_local = 0u32;
    let mut saw_followable = false;

    // Phase 1 — witness every scion this process owes the walk: the
    // delivered one plus every already-traversed reference whose scion
    // lives here. No expansion yet: if these witnesses complete the
    // match, the verdict fires without dragging local webs in.
    let mut spine: Vec<RefId> = Vec::new();
    let witness = |cdm: &mut Cdm, r: RefId| -> Option<Outcome> {
        let ssum = summary.scion(r)?;
        if let Insert::Conflict { existing, incoming } = cdm.add_source(r, ssum.ic) {
            if cfg.ic_barrier {
                return Some(Outcome::AbortedIcMismatch {
                    ref_id: r,
                    source_ic: existing,
                    target_ic: incoming,
                });
            }
        }
        cdm.record_owner(r, summary.proc);
        cdm.record_incarnation(r, ssum.incarnation);
        None
    };
    if let Some(abort) = witness(&mut cdm, scion) {
        return abort;
    }
    spine.push(scion);
    let owed: Vec<RefId> = cdm
        .target
        .keys()
        .copied()
        .filter(|r| *r != scion && summary.scion(*r).is_some())
        .collect();
    for r in owed {
        if let Some(abort) = witness(&mut cdm, r) {
            return abort;
        }
        spine.push(r);
    }
    match cdm.matching(cfg.ic_barrier) {
        MatchResult::CycleFound => {
            return Outcome::CycleFound {
                delete: cdm.matched_scions(),
            }
        }
        MatchResult::IcMismatch {
            ref_id,
            source_ic,
            target_ic,
        } => {
            return Outcome::AbortedIcMismatch {
                ref_id,
                source_ic,
                target_ic,
            }
        }
        MatchResult::Pending => {}
    }

    // Phase 2 — expand the walk's spine: traverse the stubs reachable
    // from the witnessed scions. Dependencies discovered via `ScionsTo`
    // are witnessed (source entries) but NOT expanded — cancellation
    // needs their *stubs* traversed, which happens when a walk passes
    // through their holders, not by exploring their targets' webs (which
    // may converge with live references and poison the verdict).
    for s in spine {
        let ssum = summary.scion(s).expect("witnessed above");
        for &t in &ssum.stubs_from {
            let Some(stub) = summary.stub(t) else {
                branches_pruned_local += 1;
                continue;
            };
            if stub.local_reach {
                branches_pruned_local += 1;
                continue;
            }
            saw_followable = true;
            if let Insert::Conflict { existing, incoming } = cdm.add_target(t, stub.ic) {
                if cfg.ic_barrier {
                    return Outcome::AbortedIcMismatch {
                        ref_id: t,
                        source_ic: existing,
                        target_ic: incoming,
                    };
                }
            }
            // The scion of a traversed reference lives where its stub
            // points; remember it so later visits can still route the
            // chain there.
            cdm.record_owner(t, stub.target_proc);
            for &dep in &stub.scions_to {
                if let Some(abort) = witness(&mut cdm, dep) {
                    return abort;
                }
            }
        }
    }

    match cdm.matching(cfg.ic_barrier) {
        MatchResult::CycleFound => {
            return Outcome::CycleFound {
                delete: cdm.matched_scions(),
            }
        }
        MatchResult::IcMismatch {
            ref_id,
            source_ic,
            target_ic,
        } => {
            return Outcome::AbortedIcMismatch {
                ref_id,
                source_ic,
                target_ic,
            }
        }
        MatchResult::Pending => {}
    }

    // Every traversed reference still owing a scion-side witness is a
    // pending destination; the owner was recorded when the stub was
    // traversed, so references picked up at *earlier* visits stay
    // routable.
    let mut dests: std::collections::BTreeMap<acdgc_model::ProcId, RefId> =
        std::collections::BTreeMap::new();
    for &r in cdm.target.keys() {
        if cdm.source.contains_key(&r) {
            continue;
        }
        if let Some(&owner) = cdm.owners.get(&r) {
            dests.entry(owner).or_insert(r);
        }
    }
    if dests.is_empty() {
        let reason = if !saw_followable {
            if cdm.target.is_empty() {
                TerminateReason::NoStubs
            } else {
                TerminateReason::AllStubsLocallyReachable
            }
        } else {
            TerminateReason::NoNewInformation
        };
        return Outcome::Terminated(reason);
    }

    // Growth/slack semantics as in the per-branch mode.
    let grew = !cdm.same_algebra(&baseline);
    let slack = if grew {
        cfg.nongrowth_slack
    } else if cfg.branch_termination {
        if cdm.slack == 0 {
            return Outcome::Terminated(TerminateReason::NoNewInformation);
        }
        cdm.slack - 1
    } else {
        cdm.slack
    };

    // A single chain suffices: eager visits are commutative (each one
    // witnesses everything its process owes, whatever the arrival order),
    // so no search over visit orders is needed — forward to exactly one
    // owing process and keep the whole remaining budget. Walk length is
    // then linear in the number of references, not factorial in the
    // fan-out.
    let budget = cdm.budget.saturating_sub(1);
    if budget == 0 {
        return Outcome::Terminated(TerminateReason::BudgetExhausted);
    }
    let (dest, via) = dests.into_iter().next().expect("dests non-empty");
    let mut chain = cdm;
    chain.budget = budget;
    chain.slack = slack;
    let out = vec![OutboundCdm {
        dest,
        via,
        cdm: chain,
    }];
    Outcome::Forwarded {
        out,
        branches_pruned_local,
        branches_no_new_info: 0,
        branches_starved: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::FULL_CREDIT;
    use acdgc_model::{DetectionId, SimTime};
    use acdgc_snapshot::{ScionSummary, StubSummary};

    /// Build a summary by hand.
    struct SummaryBuilder(SummarizedGraph);

    impl SummaryBuilder {
        fn new(proc: u16) -> Self {
            SummaryBuilder(SummarizedGraph {
                proc: ProcId(proc),
                version: 1,
                taken_at: SimTime(0),
                ..SummarizedGraph::default()
            })
        }

        fn scion(mut self, r: u64, from: u16, ic: u64, stubs_from: &[u64], local: bool) -> Self {
            self.0.scions.insert(
                RefId(r),
                ScionSummary {
                    ref_id: RefId(r),
                    from_proc: ProcId(from),
                    ic,
                    stubs_from: stubs_from.iter().map(|&s| RefId(s)).collect(),
                    target_locally_reachable: local,
                    last_invoked: SimTime(0),
                    incarnation: 0,
                    pinned: 0,
                },
            );
            self
        }

        fn stub(mut self, r: u64, to: u16, ic: u64, scions_to: &[u64], local_reach: bool) -> Self {
            self.0.stubs.insert(
                RefId(r),
                StubSummary {
                    ref_id: RefId(r),
                    target_proc: ProcId(to),
                    ic,
                    scions_to: scions_to.iter().map(|&s| RefId(s)).collect(),
                    local_reach,
                },
            );
            self
        }

        fn build(self) -> SummarizedGraph {
            self.0
        }
    }

    fn cfg() -> GcConfig {
        GcConfig::default()
    }

    fn fresh(scion: u64, ic: u64) -> Cdm {
        Cdm::initiate(DetectionId(0), ProcId(0), RefId(scion), ic)
    }

    /// Two-process ring: P0 scion r1 -> stub r2; P1 scion r2 -> stub r1.
    fn two_ring() -> (SummarizedGraph, SummarizedGraph) {
        let p0 = SummaryBuilder::new(0)
            .scion(1, 1, 0, &[2], false)
            .stub(2, 1, 0, &[1], false)
            .build();
        let p1 = SummaryBuilder::new(1)
            .scion(2, 0, 0, &[1], false)
            .stub(1, 0, 0, &[2], false)
            .build();
        (p0, p1)
    }

    #[test]
    fn two_process_cycle_detected() {
        let (p0, p1) = two_ring();
        let out = initiate(&p0, fresh(1, 0), RefId(1), &cfg());
        let fws = out.forwards();
        assert_eq!(fws.len(), 1);
        assert_eq!(fws[0].dest, ProcId(1));
        assert_eq!(fws[0].via, RefId(2));

        let out = deliver(&p1, fws[0].cdm.clone(), RefId(2), &cfg());
        let fws = out.forwards();
        assert_eq!(fws.len(), 1, "P1 forwards back along r1: {out:?}");
        assert_eq!(fws[0].dest, ProcId(0));

        let out = deliver(&p0, fws[0].cdm.clone(), RefId(1), &cfg());
        assert_eq!(
            out,
            Outcome::CycleFound {
                delete: vec![(ProcId(0), RefId(1), 0, 0), (ProcId(1), RefId(2), 0, 0)]
            },
            "the verdict authorizes deleting every scion of the matched set"
        );
    }

    #[test]
    fn locally_reachable_stub_prunes_path() {
        let p0 = SummaryBuilder::new(0)
            .scion(1, 1, 0, &[2], false)
            .stub(2, 1, 0, &[1], true) // Local.Reach = true
            .build();
        let out = initiate(&p0, fresh(1, 0), RefId(1), &cfg());
        assert_eq!(
            out,
            Outcome::Terminated(TerminateReason::AllStubsLocallyReachable)
        );
    }

    #[test]
    fn no_stubs_terminates() {
        let p0 = SummaryBuilder::new(0).scion(1, 1, 0, &[], false).build();
        let out = initiate(&p0, fresh(1, 0), RefId(1), &cfg());
        assert_eq!(out, Outcome::Terminated(TerminateReason::NoStubs));
    }

    #[test]
    fn rule1_unknown_scion_dropped() {
        let p0 = SummaryBuilder::new(0).build();
        let out = deliver(&p0, fresh(1, 0), RefId(1), &cfg());
        assert_eq!(out, Outcome::DroppedNoScion);
        let out = initiate(&p0, fresh(1, 0), RefId(1), &cfg());
        assert_eq!(out, Outcome::DroppedNoScion);
    }

    #[test]
    fn delivery_ic_check_aborts_on_stale_stub_counter() {
        // CDM carries a target entry for r2 with stub-side ic 3; the scion
        // side has since seen more invocations (ic 4).
        let p1 = SummaryBuilder::new(1)
            .scion(2, 0, 4, &[1], false)
            .stub(1, 0, 0, &[2], false)
            .build();
        let mut cdm = fresh(1, 0);
        cdm.add_target(RefId(2), 3);
        let out = deliver(&p1, cdm, RefId(2), &cfg());
        assert_eq!(
            out,
            Outcome::AbortedIcMismatch {
                ref_id: RefId(2),
                source_ic: 4,
                target_ic: 3
            }
        );
    }

    #[test]
    fn matching_catches_mismatch_when_delivery_check_disabled() {
        // Same race, but the optimization is off: the walk continues and the
        // mismatch must be caught by matching when the loop closes (the
        // paper's mandatory path, §3.2.1 step 7).
        let mut cfg = cfg();
        cfg.ic_check_on_delivery = false;
        let (p0, p1) = two_ring();
        // Initiate at P0 with the *old* counter for r1 (pretend P0's
        // summary predates an invocation: scion r1 ic recorded as 0)...
        let out = initiate(&p0, fresh(1, 0), RefId(1), &cfg);
        let cdm = out.forwards()[0].cdm.clone();
        // ...but P1's summary saw the invocation: its stub r1 has ic 1.
        let mut p1 = p1;
        p1.stubs.get_mut(&RefId(1)).unwrap().ic = 1;
        let out = deliver(&p1, cdm, RefId(2), &cfg);
        let cdm = out.forwards()[0].cdm.clone();
        // Loop closes at P0: source has r1@0, target has r1@1 -> abort.
        let out = deliver(&p0, cdm, RefId(1), &cfg);
        assert_eq!(
            out,
            Outcome::AbortedIcMismatch {
                ref_id: RefId(1),
                source_ic: 0,
                target_ic: 1
            }
        );
    }

    #[test]
    fn extra_dependencies_accumulate_from_scions_to() {
        // P1: scion r2 leads to stub r1, but scion r9 also leads to r1.
        // The derivation must record r9 as an unresolved dependency
        // (Fig. 1's "extra dependency" / §3.1 step 5).
        let p1 = SummaryBuilder::new(1)
            .scion(2, 0, 0, &[1], false)
            .scion(9, 3, 0, &[1], false)
            .stub(1, 0, 0, &[2, 9], false)
            .build();
        let (p0, _) = two_ring();
        // Strict §3.1 step 15 semantics throughout (slack 0).
        let mut strict = cfg();
        strict.nongrowth_slack = 0;
        let out = initiate(&p0, fresh(1, 0), RefId(1), &strict);
        let cdm = out.forwards()[0].cdm.clone();
        let out = deliver(&p1, cdm, RefId(2), &strict);
        let fwd = &out.forwards()[0].cdm;
        assert!(fwd.source.contains_key(&RefId(9)), "dependency recorded");
        // Closing the loop at P0 must NOT report a cycle: r9 is unresolved,
        // and the stale branch is terminated on the spot.
        let out = deliver(&p0, fwd.clone(), RefId(1), &strict);
        assert_eq!(
            out,
            Outcome::Terminated(TerminateReason::NoNewInformation),
            "unresolved dependency blocks the conclusion"
        );
    }

    #[test]
    fn strict_rule_stops_stale_derivations() {
        // Deliver a CDM that already contains everything this process
        // would add: the derivation equals its parent and, with zero
        // slack, must not be forwarded (§3.1 step 15).
        let (p0, _) = two_ring();
        let mut cfg = cfg();
        cfg.nongrowth_slack = 0;
        let mut cdm = fresh(1, 0);
        cdm.add_target(RefId(2), 0);
        cdm.add_source(RefId(9), 0); // pending dependency keeps match open
        let out = deliver(&p0, cdm, RefId(1), &cfg);
        // P0 would forward along r2, but the branch algebra is unchanged.
        assert_eq!(out, Outcome::Terminated(TerminateReason::NoNewInformation));
    }

    #[test]
    fn slack_allows_bounded_nongrowing_hops_then_stops() {
        // With slack K, a stale derivation may ping-pong K times and no
        // more: termination is preserved.
        let (p0, p1) = two_ring();
        let mut cfg = cfg();
        cfg.nongrowth_slack = 3;
        let mut cdm = fresh(1, 0);
        cdm.add_target(RefId(2), 0);
        cdm.add_source(RefId(9), 0); // unresolvable dependency
        cdm.slack = cfg.nongrowth_slack;
        // Round trip P0 -> P1 -> P0 ... . The first lap still grows (the
        // delivered scions enter the algebra); after that every hop is
        // non-growing and consumes slack, so the walk must terminate
        // within a small bounded number of hops — never a cycle verdict.
        let mut hops = 0u32;
        let mut at_p0 = true;
        let mut current = cdm;
        let bound = 4 * (cfg.nongrowth_slack + 2);
        loop {
            let (summary, scion) = if at_p0 {
                (&p0, RefId(1))
            } else {
                (&p1, RefId(2))
            };
            match deliver(summary, current.clone(), scion, &cfg) {
                Outcome::Forwarded { out, .. } => {
                    assert_eq!(out.len(), 1);
                    current = out[0].cdm.clone();
                    at_p0 = !at_p0;
                    hops += 1;
                    assert!(hops <= bound, "unbounded walk");
                }
                Outcome::Terminated(TerminateReason::NoNewInformation) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(hops >= cfg.nongrowth_slack, "slack hops were allowed");
        assert!(hops <= bound, "and the walk stayed bounded");
    }

    /// The forwards of one kind, in `Forwarded.out` order.
    fn of_walk(out: &Outcome, walk: Walk) -> Vec<&OutboundCdm> {
        out.forwards()
            .iter()
            .filter(|f| f.cdm.walk == walk)
            .collect()
    }

    #[test]
    fn budget_split_preserves_depth_on_the_growing_branch() {
        // Fan-out halves the budget geometrically instead of dividing it
        // evenly: the chain keeps the larger half of the remainder, the
        // first (growing) per-reference branch half of the rest.
        let p0 = SummaryBuilder::new(0)
            .scion(1, 1, 0, &[2, 3, 4], false)
            .stub(2, 1, 0, &[1], false)
            .stub(3, 2, 0, &[1], false)
            .stub(4, 3, 0, &[1], false)
            .build();
        let mut cfg = cfg();
        cfg.detection_budget = 100;
        let out = initiate(&p0, fresh(1, 0), RefId(1), &cfg);
        let fws = out.forwards();
        assert_eq!(fws.len(), 4, "three derivations plus the chain");
        let budgets: Vec<u32> = fws.iter().map(|f| f.cdm.budget).collect();
        assert_eq!(budgets.iter().sum::<u32>(), 99, "total bounded by budget-1");
        assert_eq!(fws[0].cdm.walk, Walk::PerProcess, "the chain goes first");
        assert_eq!(budgets, [50, 25, 12, 12]);
    }

    #[test]
    fn split_shares_sum_exactly_to_the_parents() {
        // Odd budget remainder and odd credit: nothing is lost to rounding,
        // the chain holds the larger half of both.
        let p0 = SummaryBuilder::new(0)
            .scion(1, 1, 0, &[2, 3, 4], false)
            .stub(2, 1, 0, &[1], false)
            .stub(3, 2, 0, &[1], false)
            .stub(4, 3, 0, &[1], false)
            .build();
        let mut cdm = fresh(9, 0);
        cdm.budget = 13;
        cdm.credit = 7;
        let out = deliver(&p0, cdm, RefId(1), &cfg());
        let fws = out.forwards();
        assert_eq!(fws.iter().map(|f| f.cdm.budget).sum::<u32>(), 12);
        assert_eq!(fws.iter().map(|f| f.cdm.credit).sum::<u64>(), 7);
        assert_eq!((fws[0].cdm.budget, fws[0].cdm.credit), (6, 4));
        assert_eq!(of_walk(&out, Walk::PerProcess).len(), 1);
        assert_eq!(of_walk(&out, Walk::PerReference).len(), 3);
    }

    #[test]
    fn a_walk_splits_at_its_first_fanout_and_never_again() {
        // P0's scion r1 reaches one stub: no fan-out, the derivation stays
        // undivided. P1's scion r2 reaches two: the walk splits there.
        let p0 = SummaryBuilder::new(0)
            .scion(1, 1, 0, &[2], false)
            .stub(2, 1, 0, &[1], false)
            .build();
        let p1 = SummaryBuilder::new(1)
            .scion(2, 0, 0, &[3, 4], false)
            .stub(3, 2, 0, &[2], false)
            .stub(4, 3, 0, &[2], false)
            .build();
        let out = initiate(&p0, fresh(1, 0), RefId(1), &cfg());
        assert_eq!(of_walk(&out, Walk::Undivided).len(), 1);
        let undivided = out.forwards()[0].cdm.clone();
        let out = deliver(&p1, undivided.clone(), RefId(2), &cfg());
        assert_eq!(of_walk(&out, Walk::PerProcess).len(), 1);
        assert_eq!(of_walk(&out, Walk::PerReference).len(), 2);
        assert_eq!(out.forwards().len(), 3);
        // Either kind, delivered at the same fan-out, keeps its kind.
        for walk in [Walk::PerReference, Walk::PerProcess] {
            let divided = Cdm {
                walk,
                ..undivided.clone()
            };
            let out = deliver(&p1, divided, RefId(2), &cfg());
            assert!(!out.forwards().is_empty());
            assert!(out.forwards().iter().all(|f| f.cdm.walk == walk));
        }
    }

    #[test]
    fn a_chain_dying_at_the_split_only_marks_the_walk_incomplete() {
        // The walk already traversed r7 (stub side saw counter 5) and r7's
        // scion lives here with counter 6: the chain, which witnesses every
        // scion this process owes, aborts. The per-reference derivations do
        // not touch r7 and go on, with the whole budget and credit.
        let p0 = SummaryBuilder::new(0)
            .scion(1, 1, 0, &[2, 3], false)
            .scion(7, 2, 6, &[], false)
            .stub(2, 1, 0, &[1], false)
            .stub(3, 2, 0, &[1], false)
            .build();
        let mut cdm = fresh(9, 0);
        cdm.add_target(RefId(7), 5);
        cdm.budget = 11;
        match deliver(&p0, cdm, RefId(1), &cfg()) {
            Outcome::Forwarded {
                out,
                branches_starved,
                ..
            } => {
                assert!(out.iter().all(|f| f.cdm.walk == Walk::PerReference));
                assert_eq!(out.iter().map(|f| f.cdm.budget).sum::<u32>(), 10);
                assert_eq!(out.iter().map(|f| f.cdm.credit).sum::<u64>(), FULL_CREDIT);
                assert_eq!(branches_starved, 1, "no liveness verdict from this walk");
            }
            other => panic!("per-reference side must survive: {other:?}"),
        }
    }

    #[test]
    fn a_chain_in_flight_is_expanded_per_process_whatever_the_receiver_runs() {
        // Initiated while `eager_combine` was on, delivered after the flag
        // was flipped (periodic mode, threaded runtime): the expansion is
        // the message's, not the receiver's.
        let summaries = dense_summaries();
        let mut eager = cfg();
        eager.eager_combine = true;
        let out = initiate(&summaries[0], fresh(10, 0), RefId(10), &eager);
        let [chain] = out.forwards() else {
            panic!("one chain: {out:?}");
        };
        assert_eq!(chain.cdm.walk, Walk::PerProcess);
        let at = &summaries[chain.dest.index()];
        let flipped = deliver(at, chain.cdm.clone(), chain.via, &cfg());
        assert_eq!(flipped, deliver(at, chain.cdm.clone(), chain.via, &eager));
        assert_eq!(flipped.forwards().len(), 1, "still one chain: {flipped:?}");
    }

    /// Dense 3-process clump (every object references every remote
    /// object): the per-reference walk's branch factor is factorial in
    /// references, while eager combine settles each process in one visit.
    fn dense_summaries() -> Vec<SummarizedGraph> {
        // Refs: r(ij) = ref from Pi to Pj's object, i,j in {0,1,2}, i != j.
        // id = 10*i + j. Every object is the target of two scions and the
        // holder of two stubs; every scion reaches both local stubs.
        let mut summaries = Vec::new();
        for i in 0u64..3 {
            let mut b = SummaryBuilder::new(i as u16);
            let others: Vec<u64> = (0u64..3).filter(|&j| j != i).collect();
            let stubs: Vec<u64> = others.iter().map(|&j| 10 * i + j).collect();
            for &j in &others {
                b = b.scion(10 * j + i, j as u16, 0, &stubs, false);
            }
            for (&j, &sref) in others.iter().zip(stubs.iter()) {
                let deps: Vec<u64> = others.iter().map(|&k| 10 * k + i).collect();
                b = b.stub(sref, j as u16, 0, &deps, false);
            }
            summaries.push(b.build());
        }
        summaries
    }

    #[test]
    fn eager_combine_settles_dense_clump() {
        let summaries = dense_summaries();
        let mut cfg = cfg();
        cfg.eager_combine = true;
        cfg.detection_budget = 64;
        // Walk: initiate at P0 on scion r(1->0)=10; breadth-first over the
        // outcome tree until a cycle verdict (bounded by budget).
        let mut pending = vec![(
            ProcId(0),
            RefId(10),
            Cdm::initiate(DetectionId(0), ProcId(0), RefId(10), 0),
        )];
        let mut first = true;
        let mut found = false;
        let mut processed = 0;
        while let Some((proc, via, cdm)) = pending.pop() {
            processed += 1;
            assert!(processed < 500, "runaway walk");
            let out = if std::mem::take(&mut first) {
                initiate(&summaries[proc.index()], cdm, via, &cfg)
            } else {
                deliver(&summaries[proc.index()], cdm, via, &cfg)
            };
            match out {
                Outcome::CycleFound { .. } => {
                    found = true;
                    break;
                }
                Outcome::Forwarded { out, .. } => {
                    for ob in out {
                        pending.push((ob.dest, ob.via, ob.cdm));
                    }
                }
                _ => {}
            }
        }
        assert!(found, "eager combine proves the dense clump garbage");
        assert!(processed <= 16, "a handful of visits suffice: {processed}");
    }

    #[test]
    fn eager_combine_respects_local_reach() {
        // Same clump but one stub is locally reachable: live, no verdict.
        let mut summaries = dense_summaries();
        summaries[1].stubs.get_mut(&RefId(10)).unwrap().local_reach = true;
        let mut cfg = cfg();
        cfg.eager_combine = true;
        let mut pending = vec![(
            ProcId(0),
            RefId(10),
            Cdm::initiate(DetectionId(0), ProcId(0), RefId(10), 0),
        )];
        let mut first = true;
        let mut guard = 0;
        while let Some((proc, via, cdm)) = pending.pop() {
            guard += 1;
            assert!(guard < 2_000, "terminates");
            let out = if std::mem::take(&mut first) {
                initiate(&summaries[proc.index()], cdm, via, &cfg)
            } else {
                deliver(&summaries[proc.index()], cdm, via, &cfg)
            };
            match out {
                Outcome::CycleFound { .. } => panic!("live clump misjudged"),
                Outcome::Forwarded { out, .. } => {
                    for ob in out {
                        pending.push((ob.dest, ob.via, ob.cdm));
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn eager_combine_two_ring_concludes_in_one_hop() {
        // The single visit at P1 witnesses both ends of both references:
        // the cycle is proven one hop earlier than per-branch mode.
        let (p0, p1) = two_ring();
        let mut cfg = cfg();
        cfg.eager_combine = true;
        let out = initiate(&p0, fresh(1, 0), RefId(1), &cfg);
        let cdm = out.forwards()[0].cdm.clone();
        let out = deliver(&p1, cdm, RefId(2), &cfg);
        assert_eq!(
            out,
            Outcome::CycleFound {
                delete: vec![(ProcId(0), RefId(1), 0, 0), (ProcId(1), RefId(2), 0, 0)]
            }
        );
    }

    #[test]
    fn budget_exhaustion_terminates() {
        let (p0, _) = two_ring();
        let mut cfg = cfg();
        cfg.detection_budget = 1;
        let out = initiate(&p0, fresh(1, 0), RefId(1), &cfg);
        assert_eq!(out, Outcome::Terminated(TerminateReason::BudgetExhausted));
    }

    #[test]
    fn branch_termination_disabled_forwards_anyway() {
        let mut cfg = cfg();
        cfg.branch_termination = false;
        let (p0, _) = two_ring();
        let mut cdm = fresh(1, 0);
        cdm.add_target(RefId(2), 0);
        cdm.add_source(RefId(9), 0);
        let out = deliver(&p0, cdm, RefId(1), &cfg);
        assert_eq!(out.forwards().len(), 1, "A2 ablation: loops forever");
    }

    #[test]
    fn hop_cap_drops() {
        let (_, p1) = two_ring();
        let mut cfg = cfg();
        cfg.max_hops = 1;
        let mut cdm = fresh(1, 0);
        cdm.hops = 1;
        cdm.add_target(RefId(2), 0);
        let out = deliver(&p1, cdm, RefId(2), &cfg);
        assert_eq!(out, Outcome::DroppedHopCap);
    }

    #[test]
    fn fanout_creates_one_derivation_per_stub() {
        // §3.1 steps 1-3: StubsFrom(F) = {V, K} ⇒ two CDM derivations —
        // plus, at a walk's first fan-out, exactly one per-process chain.
        let p0 = SummaryBuilder::new(0)
            .scion(1, 1, 0, &[2, 3], false)
            .stub(2, 1, 0, &[1], false)
            .stub(3, 2, 0, &[1], false)
            .build();
        let out = initiate(&p0, fresh(1, 0), RefId(1), &cfg());
        let fws = of_walk(&out, Walk::PerReference);
        assert_eq!(fws.len(), 2);
        let dests: Vec<ProcId> = fws.iter().map(|f| f.dest).collect();
        assert!(dests.contains(&ProcId(1)) && dests.contains(&ProcId(2)));
        // Each branch records only its own stub in the target set.
        for f in fws {
            assert_eq!(f.cdm.target.len(), 1);
            assert!(f.cdm.target.contains_key(&f.via));
        }
        // The chain records both.
        let [chain] = of_walk(&out, Walk::PerProcess)[..] else {
            panic!("exactly one chain: {out:?}");
        };
        assert_eq!(chain.cdm.target.len(), 2);
        assert_eq!(out.forwards().len(), 3);
    }

    #[test]
    fn mixed_stubs_follow_only_unreachable() {
        let p0 = SummaryBuilder::new(0)
            .scion(1, 1, 0, &[2, 3], false)
            .stub(2, 1, 0, &[1], true) // live path: pruned
            .stub(3, 2, 0, &[1], false)
            .build();
        let out = initiate(&p0, fresh(1, 0), RefId(1), &cfg());
        let fws = out.forwards();
        assert_eq!(fws.len(), 1);
        assert_eq!(fws[0].via, RefId(3));
    }

    #[test]
    fn stub_missing_from_summary_is_skipped() {
        // StubsFrom names r2 but the stub summary is absent (died between
        // captures): conservatively do not follow.
        let p0 = SummaryBuilder::new(0).scion(1, 1, 0, &[2], false).build();
        let out = initiate(&p0, fresh(1, 0), RefId(1), &cfg());
        assert_eq!(
            out,
            Outcome::Terminated(TerminateReason::AllStubsLocallyReachable)
        );
    }

    #[test]
    fn dependency_on_missing_scion_is_skipped() {
        // stub r1's scions_to names r9, but r9's summary is gone (scion
        // already reclaimed): the dependency no longer exists.
        let p1 = SummaryBuilder::new(1)
            .scion(2, 0, 0, &[1], false)
            .stub(1, 0, 0, &[2, 9], false)
            .build();
        let mut cdm = fresh(1, 0);
        cdm.add_target(RefId(2), 0);
        let out = deliver(&p1, cdm, RefId(2), &cfg());
        let fwd = &out.forwards()[0].cdm;
        assert!(!fwd.source.contains_key(&RefId(9)));
    }
}
