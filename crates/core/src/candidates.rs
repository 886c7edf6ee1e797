//! Cycle-candidate selection.
//!
//! §2.1: "If this object is not invoked for a certain amount of time we can
//! make a guess that this object is, in fact, part of a distributed cycle
//! of garbage." The paper leaves heuristics to the literature; this module
//! implements the age heuristic it sketches, plus per-scion backoff so a
//! failed detection is not immediately retried, and a scan cap that every
//! process cuts in an order of its own so the processes a cycle spans do
//! not all start on it at once.

use acdgc_model::rng::splitmix64;
use acdgc_model::{GcConfig, RefId, SimTime};
use acdgc_snapshot::SummarizedGraph;
use rustc_hash::FxHashMap;

/// Per-process memory of recent detection attempts. This is heuristic
/// state only — it influences *when* detections start, never their safety.
#[derive(Clone, Debug, Default)]
pub struct CandidateState {
    last_attempt: FxHashMap<RefId, SimTime>,
    /// How many times each scion has been picked. Drives the exponential
    /// retry backoff: a detection whose CDMs were lost leaves no trace at
    /// the initiator, so failures are indistinguishable from slowness and
    /// every attempt is treated as a failure until the scion disappears
    /// (success deletes it; `retain_known` then clears both maps). Also
    /// the first key under the scan cap: fewest attempts are kept first,
    /// so nothing already tried holds a place an untried scion could use.
    attempts: FxHashMap<RefId, u32>,
    /// Scions a completed detection proved *live* (every branch of the
    /// walk terminated conclusively without a cycle — see the credit
    /// scheme on `Cdm::credit`), keyed to the mutation epoch the proof is
    /// valid for. A proven-live scion is not re-picked while the epoch
    /// stands: without this, live-but-not-locally-rooted structure (e.g.
    /// an anchored distributed ring, whose scions all fail the
    /// `Local.Reach` test everywhere except the anchor's process) is
    /// re-picked after every capped backoff forever, and a quiescence
    /// protocol that counts picked candidates as pending work can never
    /// close. Lazy in the paper's sense: any mutation invalidates it.
    proven_live: FxHashMap<RefId, u64>,
    /// Current mutation epoch, set by the runtime before each scan.
    /// Verdicts recorded under a different epoch are dead on arrival and
    /// an epoch change clears the suppression set.
    epoch: u64,
}

impl CandidateState {
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget attempts for scions no longer present (bounds memory).
    pub fn retain_known(&mut self, summary: &SummarizedGraph) {
        self.last_attempt.retain(|r, _| summary.scion(*r).is_some());
        self.attempts.retain(|r, _| summary.scion(*r).is_some());
        self.proven_live.retain(|r, _| summary.scion(*r).is_some());
    }

    /// Advance the mutation epoch. Any mutator operation invalidates every
    /// standing liveness verdict: the structure it proved live may have
    /// just become garbage.
    pub fn set_epoch(&mut self, epoch: u64) {
        if epoch != self.epoch {
            self.proven_live.clear();
            self.epoch = epoch;
        }
    }

    /// Record that a completed detection proved `scion` live. Ignored when
    /// `epoch` is not the current mutation epoch (the verdict raced a
    /// mutator operation and may be stale).
    pub fn record_live_verdict(&mut self, scion: RefId, epoch: u64) {
        if epoch == self.epoch {
            self.proven_live.insert(scion, epoch);
        }
    }

    /// Number of scions currently under backoff bookkeeping.
    pub fn tracked(&self) -> usize {
        self.last_attempt.len()
    }

    /// Detection attempts recorded for `scion` so far.
    pub fn attempts_for(&self, scion: RefId) -> u32 {
        self.attempts.get(&scion).copied().unwrap_or(0)
    }

    /// Deepest attempt count across every tracked scion — the telemetry
    /// gauge for how far retry backoff has escalated on this process.
    pub fn max_attempts(&self) -> u32 {
        self.attempts.values().copied().max().unwrap_or(0)
    }
}

/// Result of one candidate scan.
#[derive(Clone, Debug, Default)]
pub struct CandidateScan {
    /// Scions to initiate detections from, in `(last_invoked, RefId)`
    /// order. That is the order walks are *issued* in; which scions the
    /// scan cap keeps is decided by attempts and a per-process salt, not
    /// by staleness (see [`scan_candidates`]).
    pub picked: Vec<RefId>,
    /// Scions that are eligible but were *not* picked this scan — still
    /// inside their retry backoff window, or cut by
    /// `max_candidates_per_scan`. Nonzero means detection work is pending:
    /// a quiescence protocol must not declare this process quiet.
    pub deferred: usize,
    /// Scions that would have been eligible but were pinned at snapshot
    /// time (an export or invocation was in flight through them). They are
    /// mutator-active by definition, and also outstanding work: the pin
    /// will drop and the scion be re-judged, so quiescence must wait.
    pub pinned: usize,
    /// Eligible scions suppressed by a standing liveness verdict (a prior
    /// detection walked every branch and found no cycle, and no mutation
    /// has happened since). Deliberately NOT pending work: the verdict is
    /// exactly the statement that retrying is pointless until the mutator
    /// moves, which is what lets quiescence close over live distributed
    /// structure.
    pub suppressed: usize,
}

impl CandidateScan {
    /// Whether this scan leaves detection work outstanding — scions picked
    /// now, eligible scions throttled into a later scan, or candidates
    /// suppressed only by an in-flight pin. Quiescence detectors must
    /// treat any of these as activity.
    pub fn work_pending(&self) -> bool {
        !self.picked.is_empty() || self.deferred > 0 || self.pinned > 0
    }
}

/// Pick scions worth starting a detection from:
///
/// * not locally reachable (a reachable target is trivially live),
/// * at least one stub transitively reachable (a distributed cycle needs an
///   outgoing path),
/// * not pinned (an in-flight export or invocation is mutator activity on
///   the reference: the IC barrier would reject the verdict anyway, so the
///   detection would be wasted work),
/// * not invoked for `candidate_age` — staleness is this threshold (§2.1),
///   not a rank,
/// * outside its retry backoff window ([`GcConfig::backoff_for`],
///   exponential in the number of prior attempts, capped),
/// * the most stale among the scions with its `StubsFrom` (their walks
///   would coincide; they are charged the attempt, not deferred),
/// * at most `max_candidates_per_scan`, and when that cap cuts, the
///   fewest-tried first, ties in this process's own salted order.
///
/// Why the cap does not cut by staleness: `last_invoked` and `RefId` both
/// follow global creation order, so every process a cycle spans would keep
/// the *same* oldest cycles and cut the same younger ones — k processes
/// convict one k-ring k times while the rest of the garbage waits. And a
/// scion whose detections always fail (live, not locally rooted) would
/// hold its place under the cap at zero backoff forever. Fewest-tried
/// first makes the cap a round-robin; the per-process salt makes
/// different processes drain the same garbage in different orders.
///
/// Besides the picked scions, reports how many eligible scions were
/// deferred (backoff or scan cap) so callers can tell "nothing to do"
/// apart from "work pending but throttled".
pub fn scan_candidates(
    summary: &SummarizedGraph,
    state: &mut CandidateState,
    now: SimTime,
    cfg: &GcConfig,
) -> CandidateScan {
    let mut deferred = 0usize;
    let mut pinned = 0usize;
    let mut suppressed = 0usize;
    // (last invoked, scion, attempts so far) of every eligible scion.
    let mut eligible: Vec<(SimTime, RefId, u32)> = Vec::new();
    for scion in summary.scions.values() {
        if scion.target_locally_reachable {
            continue;
        }
        if scion.stubs_from.is_empty() {
            continue;
        }
        if now.since(scion.last_invoked) < cfg.candidate_age {
            continue;
        }
        if scion.pinned > 0 {
            pinned += 1;
            continue;
        }
        // Entries only survive while their epoch is current (`set_epoch`
        // clears on change), so presence alone means the verdict stands.
        if state.proven_live.contains_key(&scion.ref_id) {
            suppressed += 1;
            continue;
        }
        let mut tried = 0;
        if let Some(last) = state.last_attempt.get(&scion.ref_id) {
            tried = state.attempts.get(&scion.ref_id).copied().unwrap_or(1);
            if now.since(*last) < cfg.backoff_for(tried) {
                deferred += 1;
                continue;
            }
        }
        eligible.push((scion.last_invoked, scion.ref_id, tried));
    }
    // Issue order: most-stale first; RefId tiebreak for determinism.
    eligible.sort_unstable();
    // One candidate per distinct `StubsFrom`: scions that reach the same
    // stubs are each in `ScionsTo` of every stub the other follows, so
    // their walks are identical after hop 0. The first of a group stands
    // for it; the rest share its attempt (and its backoff) if it is picked.
    // Only a stub that several scions lead to can make a group of two, so
    // summaries without one (rings, chains) skip the bookkeeping.
    let grouping =
        eligible.len() > 1 && summary.stubs.values().any(|stub| stub.scions_to.len() > 1);
    let grouped: Vec<usize> = if grouping {
        let mut first_of: FxHashMap<&[RefId], usize> = FxHashMap::default();
        let group = |(i, &(_, r, _))| {
            let stubs_from = summary.scions[&r].stubs_from.as_slice();
            *first_of.entry(stubs_from).or_insert(i)
        };
        eligible.iter().enumerate().map(group).collect()
    } else {
        Vec::new()
    };
    // Position in `eligible` of the scion that stands for the `i`th
    // (itself when nothing is grouped).
    let rep_of = |i: usize| grouped.get(i).copied().unwrap_or(i);
    let reps = (0..eligible.len()).filter(|&i| rep_of(i) == i);
    // The cap keeps the candidates with the smallest `(attempts, salted
    // hash)` and leaves the issue order alone, so a scan it does not cut is
    // unchanged. The salt is a pure function of this process's id — no
    // clock, no `RandomState` — so a run replays, and two processes rank
    // the same references differently.
    let cap = cfg.max_candidates_per_scan;
    let candidates = reps.clone().count();
    // By position in `eligible`; stays empty when the cap cuts nothing.
    let mut cut: Vec<bool> = Vec::new();
    if candidates > cap {
        let salt = splitmix64(u64::from(summary.proc.0));
        let mut by_key: Vec<(u32, u64, usize)> = reps
            .map(|i| {
                let (_, r, tried) = eligible[i];
                (tried, splitmix64(r.0 ^ salt), i)
            })
            .collect();
        by_key.select_nth_unstable(cap);
        cut.resize(eligible.len(), false);
        for &(_, _, i) in &by_key[cap..] {
            cut[i] = true;
        }
        deferred += candidates - cap;
    }
    let mut picked: Vec<RefId> = Vec::new();
    for (i, &(_, r, _)) in eligible.iter().enumerate() {
        let rep = rep_of(i);
        if cut.get(rep).copied().unwrap_or(false) {
            continue;
        }
        if rep == i {
            picked.push(r);
        }
        state.last_attempt.insert(r, now);
        *state.attempts.entry(r).or_insert(0) += 1;
    }
    CandidateScan {
        picked,
        deferred,
        pinned,
        suppressed,
    }
}

/// [`scan_candidates`] without the deferred-work report.
pub fn select_candidates(
    summary: &SummarizedGraph,
    state: &mut CandidateState,
    now: SimTime,
    cfg: &GcConfig,
) -> Vec<RefId> {
    scan_candidates(summary, state, now, cfg).picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdgc_model::{ProcId, SimDuration};
    use acdgc_snapshot::{ScionSummary, StubSummary};

    fn summary_with(scions: Vec<(u64, bool, usize, u64)>) -> SummarizedGraph {
        // (ref, locally_reachable, stub_count, last_invoked_ticks)
        let mut s = SummarizedGraph::empty(ProcId(0));
        for (r, local, stubs, last) in scions {
            s.scions.insert(
                RefId(r),
                ScionSummary {
                    ref_id: RefId(r),
                    from_proc: ProcId(1),
                    ic: 0,
                    // A range of its own: equal `StubsFrom` would group.
                    stubs_from: (100 * r..100 * r + stubs as u64).map(RefId).collect(),
                    target_locally_reachable: local,
                    last_invoked: SimTime(last),
                    incarnation: 0,
                    pinned: 0,
                },
            );
        }
        s
    }

    fn cfg() -> GcConfig {
        GcConfig {
            candidate_age: SimDuration(100),
            candidate_backoff: SimDuration(500),
            max_candidates_per_scan: 2,
            ..GcConfig::default()
        }
    }

    #[test]
    fn filters_reachable_and_stubless() {
        let s = summary_with(vec![
            (1, true, 1, 0),  // locally reachable: out
            (2, false, 0, 0), // no stubs: out
            (3, false, 1, 0), // eligible
        ]);
        let mut state = CandidateState::new();
        let picked = select_candidates(&s, &mut state, SimTime(1_000), &cfg());
        assert_eq!(picked, vec![RefId(3)]);
    }

    #[test]
    fn age_threshold_applies() {
        let s = summary_with(vec![(1, false, 1, 950), (2, false, 1, 100)]);
        let mut state = CandidateState::new();
        let picked = select_candidates(&s, &mut state, SimTime(1_000), &cfg());
        assert_eq!(picked, vec![RefId(2)], "recently invoked scion skipped");
    }

    #[test]
    fn backoff_suppresses_retry_then_allows() {
        let s = summary_with(vec![(1, false, 1, 0)]);
        let mut state = CandidateState::new();
        assert_eq!(
            select_candidates(&s, &mut state, SimTime(1_000), &cfg()),
            vec![RefId(1)]
        );
        assert!(
            select_candidates(&s, &mut state, SimTime(1_100), &cfg()).is_empty(),
            "within backoff"
        );
        assert_eq!(
            select_candidates(&s, &mut state, SimTime(1_600), &cfg()),
            vec![RefId(1)],
            "after backoff"
        );
    }

    #[test]
    fn scan_cap_and_staleness_order() {
        let s = summary_with(vec![
            (1, false, 1, 300),
            (2, false, 1, 100),
            (3, false, 1, 200),
        ]);
        let mut state = CandidateState::new();
        let picked = select_candidates(&s, &mut state, SimTime(10_000), &cfg());
        assert_eq!(picked.len(), 2, "the cap cuts one of three");
        let stale = |r: &RefId| s.scions[r].last_invoked;
        assert!(
            stale(&picked[0]) < stale(&picked[1]),
            "whichever two the cap keeps are issued most-stale first"
        );
        let cut = (1..=3).map(RefId).find(|r| !picked.contains(r)).unwrap();
        assert_eq!(state.attempts_for(cut), 0, "the cut scion is not charged");
        // Staleness does not rank under the cap: once the backoff of the
        // two tried scions has run out, the untried one still goes first.
        let picked = select_candidates(&s, &mut state, SimTime(20_000), &cfg());
        assert_eq!(picked.len(), 2);
        assert!(picked.contains(&cut), "fewest-tried first");
    }

    #[test]
    fn repeated_failures_back_off_exponentially() {
        let s = summary_with(vec![(1, false, 1, 0)]);
        let mut state = CandidateState::new();
        let cfg = GcConfig {
            candidate_age: SimDuration(0),
            candidate_backoff: SimDuration(500),
            candidate_backoff_max: SimDuration(1_500),
            max_candidates_per_scan: 2,
            ..GcConfig::default()
        };
        // Attempt 1 at t=1000; attempt 2 allowed 500 later.
        assert_eq!(
            scan_candidates(&s, &mut state, SimTime(1_000), &cfg).picked,
            vec![RefId(1)]
        );
        assert_eq!(
            scan_candidates(&s, &mut state, SimTime(1_500), &cfg).picked,
            vec![RefId(1)]
        );
        // After 2 attempts the window doubles to 1000.
        let scan = scan_candidates(&s, &mut state, SimTime(2_400), &cfg);
        assert!(scan.picked.is_empty(), "900 < doubled backoff of 1000");
        assert_eq!(scan.deferred, 1, "throttled scion reported as deferred");
        assert_eq!(
            scan_candidates(&s, &mut state, SimTime(2_500), &cfg).picked,
            vec![RefId(1)]
        );
        // After 3 attempts the window would be 2000 but caps at 1500.
        assert!(scan_candidates(&s, &mut state, SimTime(3_900), &cfg)
            .picked
            .is_empty());
        assert_eq!(
            scan_candidates(&s, &mut state, SimTime(4_000), &cfg).picked,
            vec![RefId(1)],
            "capped backoff keeps retries coming"
        );
        assert_eq!(state.attempts_for(RefId(1)), 4);
    }

    #[test]
    fn scan_cap_overflow_counts_as_deferred() {
        let s = summary_with(vec![
            (1, false, 1, 300),
            (2, false, 1, 100),
            (3, false, 1, 200),
        ]);
        let mut state = CandidateState::new();
        let scan = scan_candidates(&s, &mut state, SimTime(10_000), &cfg());
        assert_eq!(scan.picked.len(), 2);
        assert_eq!(scan.deferred, 1, "third eligible scion cut by the cap");
    }

    /// Make `group` reach the same stubs (those of its first member), the
    /// way a summarizer reports it: equal `StubsFrom`, and each stub's
    /// `ScionsTo` naming the whole group.
    fn share_stubs(s: &mut SummarizedGraph, group: &[u64]) {
        let shared = s.scions[&RefId(group[0])].stubs_from.clone();
        for &r in group {
            s.scions.get_mut(&RefId(r)).unwrap().stubs_from = shared.clone();
        }
        for &stub in &shared {
            s.stubs.insert(
                stub,
                StubSummary {
                    ref_id: stub,
                    target_proc: ProcId(1),
                    ic: 0,
                    scions_to: group.iter().map(|&r| RefId(r)).collect(),
                    local_reach: false,
                },
            );
        }
    }

    #[test]
    fn scions_with_equal_stubs_from_share_one_candidate() {
        let mut s = summary_with(vec![
            (1, false, 2, 300),
            (2, false, 2, 100),
            (3, false, 2, 200),
            (4, false, 1, 400),
        ]);
        share_stubs(&mut s, &[1, 2, 3]);
        let mut state = CandidateState::new();
        let scan = scan_candidates(&s, &mut state, SimTime(10_000), &cfg());
        assert_eq!(
            scan.picked,
            vec![RefId(2), RefId(4)],
            "the most stale of the group, then the next group: the cap counts groups"
        );
        assert_eq!(scan.deferred, 0, "represented scions are not pending work");
        for r in 1..=4 {
            assert_eq!(state.attempts_for(RefId(r)), 1, "r{r} charged the attempt");
        }
        // All inside their backoff now, the represented ones included.
        let scan = scan_candidates(&s, &mut state, SimTime(10_100), &cfg());
        assert!(scan.picked.is_empty());
        assert_eq!(scan.deferred, 4);
        // A third, untried group arrives once the backoffs have run out:
        // the cap cuts one of the two tried groups, never the new one, and
        // a kept group is still stood for by its most stale member.
        s.scions
            .extend(summary_with(vec![(5, false, 1, 500)]).scions);
        let scan = scan_candidates(&s, &mut state, SimTime(20_000), &cfg());
        assert_eq!(scan.picked.len(), 2);
        assert_eq!(
            scan.picked[1],
            RefId(5),
            "untried: kept; least stale: issued last"
        );
        assert!([RefId(2), RefId(4)].contains(&scan.picked[0]));
        assert_eq!(
            scan.deferred, 1,
            "one group cut, however many scions it holds"
        );
        let group_tried = state.attempts_for(RefId(2));
        assert_eq!(group_tried + state.attempts_for(RefId(4)), 3);
        for r in [1, 3] {
            assert_eq!(state.attempts_for(RefId(r)), group_tried, "r{r} follows r2");
        }
    }

    #[test]
    fn a_group_cut_by_the_cap_is_not_charged() {
        let mut s = summary_with(vec![(3, false, 1, 300), (4, false, 1, 400)]);
        share_stubs(&mut s, &[3, 4]);
        let mut state = CandidateState::new();
        let scan = scan_candidates(&s, &mut state, SimTime(10_000), &cfg());
        assert_eq!(scan.picked, vec![RefId(3)], "one group, one candidate");
        // Two untried scions join; with the group that makes three
        // candidates for a cap of two, and the tried group is the one cut.
        s.scions
            .extend(summary_with(vec![(1, false, 1, 100), (2, false, 1, 200)]).scions);
        let scan = scan_candidates(&s, &mut state, SimTime(20_000), &cfg());
        assert_eq!(scan.picked, vec![RefId(1), RefId(2)]);
        assert_eq!(scan.deferred, 1, "one deferred group");
        assert_eq!(state.attempts_for(RefId(3)), 1, "not charged again");
        assert_eq!(
            state.attempts_for(RefId(4)),
            1,
            "nor the scion it stands for"
        );
    }

    /// `n` eligible scions `1..=n`, all equally stale, scanned by `proc`.
    fn uniform(proc: u16, n: u64) -> SummarizedGraph {
        let mut s = summary_with((1..=n).map(|r| (r, false, 1, 0)).collect());
        s.proc = ProcId(proc);
        s
    }

    #[test]
    fn processes_cut_the_same_eligible_set_differently() {
        let cfg = GcConfig {
            max_candidates_per_scan: 1,
            ..cfg()
        };
        let first = |proc: u16| {
            let mut state = CandidateState::new();
            select_candidates(&uniform(proc, 64), &mut state, SimTime(10_000), &cfg)[0]
        };
        assert_ne!(
            first(0),
            first(1),
            "neighbours do not start on the same scion"
        );
        let mut firsts: Vec<RefId> = (0..16).map(first).collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert!(
            firsts.len() >= 12,
            "16 processes herd onto {} of 64 scions",
            firsts.len()
        );
    }

    #[test]
    fn the_cap_is_a_round_robin_at_zero_backoff() {
        let cfg = GcConfig {
            candidate_backoff: SimDuration::ZERO,
            max_candidates_per_scan: 4,
            ..cfg()
        };
        // Nothing ever succeeds: every scion stays in the summary.
        let s = uniform(3, 10);
        let mut state = CandidateState::new();
        for scan in 1..=6u64 {
            let picked = select_candidates(&s, &mut state, SimTime(1_000 + scan), &cfg);
            assert_eq!(picked.len(), 4);
            let tried: Vec<u32> = (1..=10).map(|r| state.attempts_for(RefId(r))).collect();
            let (lo, hi) = (tried.iter().min().unwrap(), tried.iter().max().unwrap());
            assert!(
                hi - lo <= 1,
                "scan {scan}: nothing tried twice before all once"
            );
            if scan >= 3 {
                assert!(*lo >= 1, "all 10 attempted within ceil(10 / 4) scans");
            }
        }
    }

    #[test]
    fn a_scan_the_cap_does_not_cut_issues_in_staleness_order() {
        for proc in 0..8 {
            let mut s = summary_with(vec![
                (1, false, 1, 300),
                (2, false, 1, 100),
                (3, false, 1, 200),
                (4, false, 1, 100),
            ]);
            s.proc = ProcId(proc);
            let cfg = GcConfig {
                max_candidates_per_scan: 4,
                ..cfg()
            };
            let mut state = CandidateState::new();
            let scan = scan_candidates(&s, &mut state, SimTime(10_000), &cfg);
            assert_eq!(
                scan.picked,
                vec![RefId(2), RefId(4), RefId(3), RefId(1)],
                "(last_invoked, RefId) order, whoever scans"
            );
            assert_eq!(scan.deferred, 0);
        }
    }

    #[test]
    fn selection_depends_on_process_reference_and_attempts_only() {
        let cfg = GcConfig {
            candidate_backoff: SimDuration::ZERO,
            ..cfg()
        };
        let run = |s: &SummarizedGraph, from: u64| {
            let mut state = CandidateState::new();
            (0..8)
                .map(|scan| select_candidates(s, &mut state, SimTime(from + scan), &cfg))
                .collect::<Vec<_>>()
        };
        let s = uniform(5, 12);
        let picks = run(&s, 10_000);
        assert_eq!(
            picks,
            run(&s, 10_000),
            "a second state and a second run agree"
        );
        // Neither the clock nor how long ago a scion was invoked moves the
        // cut (only the order the kept ones are issued in).
        let mut later = s.clone();
        for scion in later.scions.values_mut() {
            scion.last_invoked = SimTime(50 * (13 - scion.ref_id.0));
        }
        let sorted = |mut picks: Vec<Vec<RefId>>| {
            picks.iter_mut().for_each(|p| p.sort_unstable());
            picks
        };
        assert_eq!(sorted(run(&later, 70_000)), sorted(picks));
    }

    #[test]
    fn pinned_scion_skipped_but_counted_as_pending_work() {
        let mut s = summary_with(vec![(1, false, 1, 0), (2, false, 1, 0)]);
        s.scions.get_mut(&RefId(1)).unwrap().pinned = 1;
        let mut state = CandidateState::new();
        let scan = scan_candidates(&s, &mut state, SimTime(10_000), &cfg());
        assert_eq!(scan.picked, vec![RefId(2)], "pinned scion not picked");
        assert_eq!(scan.pinned, 1);
        assert!(scan.work_pending());
        assert_eq!(
            state.attempts_for(RefId(1)),
            0,
            "a pin is not a detection attempt: no backoff charged"
        );
        // Unpinned (the in-flight message landed): picked next scan
        // (alongside r2, whose backoff has also expired by now).
        s.scions.get_mut(&RefId(1)).unwrap().pinned = 0;
        let scan = scan_candidates(&s, &mut state, SimTime(20_000), &cfg());
        assert!(scan.picked.contains(&RefId(1)));
        assert_eq!(scan.pinned, 0);
    }

    #[test]
    fn liveness_verdict_suppresses_until_mutation() {
        let s = summary_with(vec![(1, false, 1, 0)]);
        let mut state = CandidateState::new();
        let cfg = cfg();
        assert_eq!(
            scan_candidates(&s, &mut state, SimTime(1_000), &cfg).picked,
            vec![RefId(1)]
        );
        // The detection completed and proved the scion live at epoch 0.
        state.record_live_verdict(RefId(1), 0);
        let scan = scan_candidates(&s, &mut state, SimTime(10_000), &cfg);
        assert!(scan.picked.is_empty(), "proven-live scion not re-picked");
        assert_eq!(scan.suppressed, 1);
        assert_eq!(scan.deferred, 0, "a live verdict is not pending work");
        assert!(!scan.work_pending(), "quiescence may close over it");
        // A mutation invalidates the verdict: picked again.
        state.set_epoch(1);
        assert_eq!(
            scan_candidates(&s, &mut state, SimTime(20_000), &cfg).picked,
            vec![RefId(1)]
        );
        // A verdict recorded under a stale epoch is dead on arrival.
        state.record_live_verdict(RefId(1), 0);
        assert_eq!(
            scan_candidates(&s, &mut state, SimTime(40_000), &cfg).picked,
            vec![RefId(1)]
        );
    }

    #[test]
    fn retain_known_drops_dead_scions() {
        let s = summary_with(vec![(1, false, 1, 0)]);
        let mut state = CandidateState::new();
        select_candidates(&s, &mut state, SimTime(1_000), &cfg());
        assert_eq!(state.tracked(), 1);
        let empty = SummarizedGraph::empty(ProcId(0));
        state.retain_known(&empty);
        assert_eq!(state.tracked(), 0);
    }
}
