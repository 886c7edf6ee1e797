//! Stub and scion tables of one process.

use acdgc_model::{ModelError, ObjId, ProcId, RefId, SimDuration, SimTime, Slot};
use rustc_hash::{FxHashMap, FxHashSet};

/// Outgoing remote reference: lives in the process that *holds* the
/// reference, points at an object in `target.proc`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stub {
    pub ref_id: RefId,
    /// The remote object this stub designates.
    pub target: ObjId,
    /// Invocation counter (§3.2): bumped on every invocation or reply sent
    /// through this reference.
    pub ic: u64,
    pub created_at: SimTime,
    /// `WeakRefMonitor` mode: the LGC observed the proxy dead, but the stub
    /// stays in the table until the monitor pass removes it.
    pub condemned: bool,
}

/// Incoming remote reference: lives in the process that *owns* the target
/// object, created when the reference was exported to `from_proc`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scion {
    pub ref_id: RefId,
    /// The protected local object.
    pub target: ObjId,
    /// The process holding the matching stub.
    pub from_proc: ProcId,
    /// Invocation counter: bumped on every invocation or reply received
    /// through this reference. Matches the stub's `ic` whenever the network
    /// is quiet.
    pub ic: u64,
    pub created_at: SimTime,
    /// Last invocation received through this scion; drives the cycle
    /// candidate heuristic ("not invoked for a certain amount of time").
    pub last_invoked: SimTime,
    /// While the message exporting this reference is still in flight the
    /// scion may not be reclaimed (the receiving stub does not exist yet);
    /// the reference-listing layer skips pinned scions.
    pub pinned: u32,
    /// Incarnation of this scion under its reference id. A deleted scion
    /// may be recreated (same pair identity) when the reference is
    /// re-established; cycle-verdict deletions carry the incarnation they
    /// proved garbage, so a late `DeleteScion` can never kill a newer,
    /// live incarnation (ABA guard).
    pub incarnation: u32,
}

/// Sender half of the `NewSetStubs` protocol toward one peer.
#[derive(Clone, Copy, Debug, Default)]
struct NssOutbound {
    /// Bumped when a stub toward the peer is born or dies — one that does
    /// both between two collections orphans a scion without changing the set.
    changes: u64,
    /// `changes` as of the last transmission.
    sent_changes: u64,
    /// Sequence number of the last transmission (0: none yet); an ack for
    /// an older sequence does not confirm newer content.
    last_seq: u64,
    acked: bool,
    /// Sets built and withheld since the last transmission (retry pacing).
    waited: u64,
    /// `lgc_at` of the last transmission (retry pacing).
    sent_at: SimTime,
}

/// Resend an unacknowledged `NewSetStubs` after this many collections, or
/// sooner once one LGC period has passed since the transmission: a lost
/// final set would leak acyclic garbage no cycle detection reclaims. The
/// peer acknowledges at its next collection, so either bound is one round
/// trip — two collections when every process collects in the same phase,
/// one period when collections are periodic.
pub const NSS_RETRY_SWEEPS: u64 = 2;

/// Both halves of the `NewSetStubs` protocol toward one peer, as
/// [`RemotingTables::nss_peer_state`] reads them (diagnostics only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NssPeerState {
    /// Stub births and deaths toward the peer so far.
    pub changes: u64,
    /// `changes` as of the last transmission to the peer.
    pub sent_changes: u64,
    /// Sequence number of the last transmission (0: none yet).
    pub last_seq: u64,
    /// Whether the peer acknowledged `last_seq`.
    pub acked: bool,
    /// Newest sequence number applied from the peer (0: none yet).
    pub seen: u64,
    /// Whether `seen` still awaits its acknowledgement.
    pub ack_owed: bool,
}

/// Aggregate remoting counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RemotingStats {
    pub stubs_created: u64,
    pub stubs_removed: u64,
    pub scions_created: u64,
    pub scions_removed: u64,
    pub invocations_in: u64,
    pub invocations_out: u64,
}

/// Per-process stub/scion tables.
///
/// Reference-listing granularity: one stub/scion pair per (holder process,
/// target object). Duplicate references from the same process to the same
/// object share the pair — the indices below let callers find an existing
/// pair before creating a new one. This granularity matters for the cycle
/// detector's completeness: the CDM algebra cancels per *reference*, and
/// parallel per-copy pairs from one process would create dependency sets
/// no single CDM walk can resolve.
#[derive(Clone, Debug)]
pub struct RemotingTables {
    proc: ProcId,
    stubs: FxHashMap<RefId, Stub>,
    scions: FxHashMap<RefId, Scion>,
    /// Index: target object -> stub (one per target at this process).
    stub_by_target: FxHashMap<ObjId, RefId>,
    /// Index: (holder process, target object) -> scion.
    scion_by_source: FxHashMap<(ProcId, ObjId), RefId>,
    /// Monotone sequence for outgoing `NewSetStubs`.
    nss_seq_out: u64,
    /// Sender half of the `NewSetStubs` protocol, per peer.
    nss_out: FxHashMap<ProcId, NssOutbound>,
    /// Highest `NewSetStubs` sequence applied, per sender.
    nss_seq_seen: FxHashMap<ProcId, u64>,
    /// Senders whose newest applied set this process has not acknowledged.
    nss_ack_owed: FxHashSet<ProcId>,
    /// Next incarnation number per reference id (tombstones survive scion
    /// deletion so recreations are distinguishable).
    incarnations: FxHashMap<RefId, u32>,
    /// Last accepted `NewSetStubs` content per sender: `(lgc_at, live set)`.
    ///
    /// A scion that survived its judgement only because it was pinned would
    /// otherwise leak: the sender never resends a settled set.
    /// [`Self::sweep_deferred_nss`] re-applies these saved sets once the pin
    /// is released.
    saved_live: FxHashMap<ProcId, (SimTime, FxHashSet<RefId>)>,
    stats: RemotingStats,
}

impl RemotingTables {
    pub fn new(proc: ProcId) -> Self {
        RemotingTables {
            proc,
            stubs: FxHashMap::default(),
            scions: FxHashMap::default(),
            stub_by_target: FxHashMap::default(),
            scion_by_source: FxHashMap::default(),
            nss_seq_out: 0,
            nss_out: FxHashMap::default(),
            nss_seq_seen: FxHashMap::default(),
            nss_ack_owed: FxHashSet::default(),
            incarnations: FxHashMap::default(),
            saved_live: FxHashMap::default(),
            stats: RemotingStats::default(),
        }
    }

    pub fn proc(&self) -> ProcId {
        self.proc
    }

    pub fn stats(&self) -> RemotingStats {
        self.stats
    }

    // --- stubs -------------------------------------------------------------

    pub fn add_stub(&mut self, ref_id: RefId, target: ObjId, now: SimTime) {
        debug_assert_ne!(target.proc, self.proc, "stub must target a remote object");
        debug_assert!(
            !self.stub_by_target.contains_key(&target),
            "one stub per target: look up stub_for_target first"
        );
        self.stats.stubs_created += 1;
        self.note_stub_change(target.proc);
        self.stub_by_target.insert(target, ref_id);
        self.stubs.insert(
            ref_id,
            Stub {
                ref_id,
                target,
                ic: 0,
                created_at: now,
                condemned: false,
            },
        );
    }

    pub fn remove_stub(&mut self, ref_id: RefId) -> Option<Stub> {
        let removed = self.stubs.remove(&ref_id);
        if let Some(stub) = &removed {
            self.stub_by_target.remove(&stub.target);
            self.note_stub_change(stub.target.proc);
            self.stats.stubs_removed += 1;
        }
        removed
    }

    /// A stub toward `owner` was born or died (or, for an import nobody
    /// holds, both at once): the next set toward `owner` must travel.
    pub(crate) fn note_stub_change(&mut self, owner: ProcId) {
        self.nss_out.entry(owner).or_default().changes += 1;
    }

    /// The existing stub for `target`, if this process already references
    /// it (reference-listing dedup).
    pub fn stub_for_target(&self, target: ObjId) -> Option<&Stub> {
        self.stub_by_target
            .get(&target)
            .and_then(|r| self.stubs.get(r))
    }

    pub fn stub(&self, ref_id: RefId) -> Option<&Stub> {
        self.stubs.get(&ref_id)
    }

    pub fn stubs(&self) -> impl Iterator<Item = &Stub> + '_ {
        self.stubs.values()
    }

    pub fn stub_count(&self) -> usize {
        self.stubs.len()
    }

    /// `VmIntegrated` mode: drop dead stubs immediately after an LGC.
    pub fn remove_dead_stubs(&mut self, dead: &[RefId]) -> Vec<Stub> {
        dead.iter().filter_map(|&r| self.remove_stub(r)).collect()
    }

    /// `WeakRefMonitor` mode: mark dead stubs; they leave the table at the
    /// next [`Self::monitor_pass`].
    pub fn condemn_stubs(&mut self, dead: &[RefId]) {
        for r in dead {
            if let Some(stub) = self.stubs.get_mut(r) {
                stub.condemned = true;
            }
        }
    }

    /// The OBIWAN monitor thread: remove every condemned stub.
    pub fn monitor_pass(&mut self) -> Vec<Stub> {
        let dead: Vec<RefId> = self
            .stubs
            .values()
            .filter(|s| s.condemned)
            .map(|s| s.ref_id)
            .collect();
        dead.into_iter()
            .filter_map(|r| self.remove_stub(r))
            .collect()
    }

    /// A stub condemned and then observed alive again (the proxy was
    /// resurrected by a new import of the same reference) is pardoned.
    pub fn pardon_stub(&mut self, ref_id: RefId) {
        if let Some(stub) = self.stubs.get_mut(&ref_id) {
            stub.condemned = false;
        }
    }

    // --- scions ------------------------------------------------------------

    pub fn add_scion(&mut self, ref_id: RefId, target: ObjId, from_proc: ProcId, now: SimTime) {
        debug_assert_eq!(target.proc, self.proc, "scion must protect a local object");
        debug_assert_ne!(from_proc, self.proc, "scion source must be remote");
        debug_assert!(
            !self.scion_by_source.contains_key(&(from_proc, target)),
            "one scion per (holder, target): look up scion_for_source first"
        );
        self.stats.scions_created += 1;
        self.scion_by_source.insert((from_proc, target), ref_id);
        let incarnation = {
            let n = self.incarnations.entry(ref_id).or_insert(0);
            let v = *n;
            *n += 1;
            v
        };
        self.scions.insert(
            ref_id,
            Scion {
                ref_id,
                target,
                from_proc,
                ic: 0,
                created_at: now,
                last_invoked: now,
                pinned: 0,
                incarnation,
            },
        );
    }

    pub fn remove_scion(&mut self, ref_id: RefId) -> Option<Scion> {
        let removed = self.scions.remove(&ref_id);
        if let Some(scion) = &removed {
            self.scion_by_source
                .remove(&(scion.from_proc, scion.target));
            self.stats.scions_removed += 1;
        }
        removed
    }

    /// The existing scion protecting `target` on behalf of `from_proc`,
    /// if any (reference-listing dedup).
    pub fn scion_for_source(&self, from_proc: ProcId, target: ObjId) -> Option<&Scion> {
        self.scion_by_source
            .get(&(from_proc, target))
            .and_then(|r| self.scions.get(r))
    }

    /// The reference was re-established (a new export or a repaired pair):
    /// move the scion's creation horizon to `now` so `NewSetStubs`
    /// messages built before this instant can no longer judge it — the
    /// stub they describe predates the re-establishment (ABA guard at the
    /// reference-listing layer).
    pub(crate) fn refresh_scion(&mut self, ref_id: RefId, now: SimTime) {
        if let Some(scion) = self.scions.get_mut(&ref_id) {
            scion.created_at = now;
        }
    }

    pub fn scion(&self, ref_id: RefId) -> Option<&Scion> {
        self.scions.get(&ref_id)
    }

    pub fn scions(&self) -> impl Iterator<Item = &Scion> + '_ {
        self.scions.values()
    }

    pub fn scion_count(&self) -> usize {
        self.scions.len()
    }

    /// Slots the LGC must treat as roots-of-liveness (scion targets).
    pub fn scion_target_slots(&self) -> Vec<Slot> {
        self.scions.values().map(|s| s.target.slot).collect()
    }

    /// Pin a scion while the exporting message is in flight.
    pub fn pin_scion(&mut self, ref_id: RefId) -> Result<(), ModelError> {
        self.scions
            .get_mut(&ref_id)
            .map(|s| s.pinned += 1)
            .ok_or(ModelError::UnknownScion(self.proc, ref_id))
    }

    pub fn unpin_scion(&mut self, ref_id: RefId) -> Result<(), ModelError> {
        let scion = self
            .scions
            .get_mut(&ref_id)
            .ok_or(ModelError::UnknownScion(self.proc, ref_id))?;
        debug_assert!(scion.pinned > 0, "unbalanced unpin");
        scion.pinned = scion.pinned.saturating_sub(1);
        Ok(())
    }

    // --- invocation counters ------------------------------------------------

    /// Caller side of an invocation or reply through `ref_id`.
    pub fn record_send_through_stub(&mut self, ref_id: RefId) -> Result<u64, ModelError> {
        self.stats.invocations_out += 1;
        let stub = self
            .stubs
            .get_mut(&ref_id)
            .ok_or(ModelError::UnknownStub(self.proc, ref_id))?;
        stub.ic += 1;
        Ok(stub.ic)
    }

    /// Set a just re-created stub's counter to the surviving scion's (the
    /// adoption rule of [`crate::lifecycle`]).
    pub(crate) fn sync_stub_ic(&mut self, ref_id: RefId, ic: u64) {
        self.stubs.get_mut(&ref_id).expect("stub just added").ic = ic;
    }

    /// Mirror of [`Self::sync_stub_ic`] for a just re-created scion.
    pub(crate) fn sync_scion_ic(&mut self, ref_id: RefId, ic: u64) {
        self.scions.get_mut(&ref_id).expect("scion just added").ic = ic;
    }

    /// Callee side of an invocation or reply through `ref_id`.
    pub fn record_receive_through_scion(
        &mut self,
        ref_id: RefId,
        now: SimTime,
    ) -> Result<u64, ModelError> {
        self.stats.invocations_in += 1;
        let scion = self
            .scions
            .get_mut(&ref_id)
            .ok_or(ModelError::UnknownScion(self.proc, ref_id))?;
        scion.ic += 1;
        scion.last_invoked = now;
        Ok(scion.ic)
    }

    /// Callee side sending a reply back through `ref_id` (replies also
    /// count as mutator activity on the reference, §3.2: "each time a
    /// remote invocation (or reply) is performed").
    pub fn record_reply_sent_through_scion(
        &mut self,
        ref_id: RefId,
        now: SimTime,
    ) -> Result<u64, ModelError> {
        let scion = self
            .scions
            .get_mut(&ref_id)
            .ok_or(ModelError::UnknownScion(self.proc, ref_id))?;
        scion.ic += 1;
        scion.last_invoked = now;
        Ok(scion.ic)
    }

    /// Caller side receiving a reply through `ref_id`.
    pub fn record_reply_received_through_stub(&mut self, ref_id: RefId) -> Result<u64, ModelError> {
        let stub = self
            .stubs
            .get_mut(&ref_id)
            .ok_or(ModelError::UnknownStub(self.proc, ref_id))?;
        stub.ic += 1;
        Ok(stub.ic)
    }

    /// Number of scions currently pinned by in-flight exports or
    /// invocations (a telemetry gauge; also how long `sweep_deferred_nss`
    /// may still have deferred work for this process).
    pub fn pinned_scion_count(&self) -> usize {
        self.scions.values().filter(|s| s.pinned > 0).count()
    }

    /// Record the content of an accepted `NewSetStubs` so scions it could
    /// not judge (pinned at the time) can be re-judged later by
    /// [`Self::sweep_deferred_nss`].
    pub fn save_live_set(&mut self, from: ProcId, lgc_at: SimTime, live: FxHashSet<RefId>) {
        self.saved_live.insert(from, (lgc_at, live));
    }

    /// Re-apply every saved live set: delete scions whose judgement was
    /// deferred because they were pinned when the set arrived and are now
    /// unpinned. Returns the removed scions.
    ///
    /// Safe against late re-exports because [`Self::close_scion`] moves
    /// `created_at` past any set built before the re-establishment, so the
    /// horizon check below excludes them.
    pub fn sweep_deferred_nss(&mut self) -> Vec<Scion> {
        let doomed: Vec<RefId> = self
            .scions
            .values()
            .filter(|s| {
                s.pinned == 0
                    && self
                        .saved_live
                        .get(&s.from_proc)
                        .is_some_and(|(lgc_at, live)| {
                            s.created_at < *lgc_at && !live.contains(&s.ref_id)
                        })
            })
            .map(|s| s.ref_id)
            .collect();
        doomed
            .into_iter()
            .filter_map(|r| self.remove_scion(r))
            .collect()
    }

    // --- NewSetStubs sequencing ----------------------------------------------

    pub fn next_nss_seq(&mut self) -> u64 {
        self.nss_seq_out += 1;
        self.nss_seq_out
    }

    /// The sender's rule for set number `seq`, built toward `dest` by the
    /// collection at `at` (no stub may change in between): `Some(retry)`
    /// says transmit — `false` when a stub toward `dest` was born or died
    /// since the last transmission, `true` while unacknowledged once one
    /// round trip has passed: [`NSS_RETRY_SWEEPS`] collections, or one
    /// `lgc_period` if that comes first.
    pub fn offer_nss(
        &mut self,
        dest: ProcId,
        seq: u64,
        at: SimTime,
        lgc_period: SimDuration,
    ) -> Option<bool> {
        let out = self.nss_out.entry(dest).or_default();
        let changed = out.last_seq == 0 || out.sent_changes != out.changes;
        if !changed {
            out.waited += 1;
            let due = out.waited >= NSS_RETRY_SWEEPS
                || at.0.saturating_sub(out.sent_at.0) >= lgc_period.0;
            if out.acked || !due {
                return None;
            }
        }
        (out.sent_changes, out.last_seq, out.acked) = (out.changes, seq, false);
        (out.waited, out.sent_at) = (0, at);
        Some(!changed)
    }

    /// `peer` acknowledged the sets it received up to sequence `seq`.
    pub fn confirm_nss(&mut self, peer: ProcId, seq: u64) {
        if let Some(out) = self.nss_out.get_mut(&peer) {
            out.acked |= seq >= out.last_seq;
        }
    }

    /// Whether a transmitted set still awaits its acknowledgement.
    pub fn nss_unconfirmed(&self) -> bool {
        self.nss_out.values().any(|o| o.last_seq != 0 && !o.acked)
    }

    /// Returns `true` (and records it, owing `sender` an acknowledgement)
    /// if `seq` from `sender` is fresher than anything applied so far.
    pub fn accept_nss_seq(&mut self, sender: ProcId, seq: u64) -> bool {
        let seen = self.nss_seq_seen.entry(sender).or_insert(0);
        if seq > *seen {
            *seen = seq;
            self.nss_ack_owed.insert(sender);
            true
        } else {
            false
        }
    }

    /// The newest sequence number applied from `peer` (0: none yet) — the
    /// acknowledgement every set toward `peer` carries.
    pub fn nss_seen(&self, peer: ProcId) -> u64 {
        self.nss_seq_seen.get(&peer).copied().unwrap_or(0)
    }

    /// The acknowledgement still owed to `peer`, if any; no longer owed
    /// after this call.
    pub fn take_nss_ack(&mut self, peer: ProcId) -> Option<u64> {
        self.nss_ack_owed.remove(&peer).then(|| self.nss_seen(peer))
    }

    /// Both halves of the `NewSetStubs` protocol toward `peer`.
    pub fn nss_peer_state(&self, peer: ProcId) -> NssPeerState {
        let out = self.nss_out.get(&peer).copied().unwrap_or_default();
        NssPeerState {
            changes: out.changes,
            sent_changes: out.sent_changes,
            last_seq: out.last_seq,
            acked: out.acked,
            seen: self.nss_seen(peer),
            ack_owed: self.nss_ack_owed.contains(&peer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(proc: u16, slot: Slot) -> ObjId {
        ObjId::new(ProcId(proc), slot, 0)
    }

    fn tables() -> RemotingTables {
        RemotingTables::new(ProcId(0))
    }

    #[test]
    fn stub_lifecycle() {
        let mut t = tables();
        t.add_stub(RefId(1), obj(1, 0), SimTime(5));
        assert_eq!(t.stub_count(), 1);
        assert_eq!(t.stub(RefId(1)).unwrap().created_at, SimTime(5));
        assert!(t.remove_stub(RefId(1)).is_some());
        assert!(t.remove_stub(RefId(1)).is_none());
        assert_eq!(t.stats().stubs_removed, 1);
    }

    #[test]
    fn scion_lifecycle_and_targets() {
        let mut t = tables();
        t.add_scion(RefId(1), obj(0, 3), ProcId(2), SimTime(0));
        t.add_scion(RefId(2), obj(0, 9), ProcId(1), SimTime(0));
        let mut slots = t.scion_target_slots();
        slots.sort_unstable();
        assert_eq!(slots, vec![3, 9]);
        assert!(t.remove_scion(RefId(1)).is_some());
        assert_eq!(t.scion_count(), 1);
    }

    #[test]
    fn invocation_counters_advance_on_both_ends() {
        let mut caller = RemotingTables::new(ProcId(0));
        let mut callee = RemotingTables::new(ProcId(1));
        caller.add_stub(RefId(7), obj(1, 0), SimTime(0));
        callee.add_scion(RefId(7), obj(1, 0), ProcId(0), SimTime(0));
        let stub_ic = caller.record_send_through_stub(RefId(7)).unwrap();
        let scion_ic = callee
            .record_receive_through_scion(RefId(7), SimTime(10))
            .unwrap();
        assert_eq!(stub_ic, 1);
        assert_eq!(scion_ic, 1);
        assert_eq!(callee.scion(RefId(7)).unwrap().last_invoked, SimTime(10));
    }

    #[test]
    fn condemn_monitor_pardon() {
        let mut t = tables();
        t.add_stub(RefId(1), obj(1, 0), SimTime(0));
        t.add_stub(RefId(2), obj(1, 1), SimTime(0));
        t.condemn_stubs(&[RefId(1), RefId(2)]);
        t.pardon_stub(RefId(2));
        let removed = t.monitor_pass();
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].ref_id, RefId(1));
        assert!(t.stub(RefId(2)).is_some());
    }

    #[test]
    fn pin_blocks_until_balanced() {
        let mut t = tables();
        t.add_scion(RefId(3), obj(0, 1), ProcId(1), SimTime(0));
        t.pin_scion(RefId(3)).unwrap();
        t.pin_scion(RefId(3)).unwrap();
        assert_eq!(t.scion(RefId(3)).unwrap().pinned, 2);
        t.unpin_scion(RefId(3)).unwrap();
        t.unpin_scion(RefId(3)).unwrap();
        assert_eq!(t.scion(RefId(3)).unwrap().pinned, 0);
    }

    #[test]
    fn nss_sequence_guard_rejects_stale() {
        let mut t = tables();
        assert!(t.accept_nss_seq(ProcId(1), 2));
        assert!(!t.accept_nss_seq(ProcId(1), 2), "replay rejected");
        assert!(!t.accept_nss_seq(ProcId(1), 1), "stale rejected");
        assert!(t.accept_nss_seq(ProcId(1), 3));
        assert!(t.accept_nss_seq(ProcId(2), 1), "independent per sender");
    }

    #[test]
    fn a_fresh_set_owes_one_ack() {
        let mut t = tables();
        assert_eq!(t.take_nss_ack(ProcId(1)), None);
        assert!(t.accept_nss_seq(ProcId(1), 3));
        assert!(!t.accept_nss_seq(ProcId(1), 2));
        assert!(t.nss_peer_state(ProcId(1)).ack_owed);
        assert_eq!(t.take_nss_ack(ProcId(1)), Some(3));
        assert_eq!(t.take_nss_ack(ProcId(1)), None, "discharged");
        assert_eq!(t.nss_seen(ProcId(1)), 3, "what every set to P1 carries");
    }

    #[test]
    fn an_unacknowledged_set_is_retried_after_one_round_trip() {
        let mut t = tables();
        let (peer, period) = (ProcId(1), SimDuration(10));
        assert_eq!(t.offer_nss(peer, 1, SimTime(0), period), Some(false));
        // Collections closer than a period apart: the second one retries.
        assert_eq!(t.offer_nss(peer, 2, SimTime(1), period), None);
        assert_eq!(t.offer_nss(peer, 3, SimTime(2), period), Some(true));
        // One period after the transmission: the next collection retries.
        assert_eq!(t.offer_nss(peer, 4, SimTime(12), period), Some(true));
        t.confirm_nss(peer, 3);
        assert_eq!(
            t.offer_nss(peer, 5, SimTime(30), period),
            Some(true),
            "old ack"
        );
        t.confirm_nss(peer, 5);
        assert_eq!(t.offer_nss(peer, 6, SimTime(50), period), None, "settled");
        t.add_stub(RefId(1), obj(1, 0), SimTime(51));
        assert_eq!(t.offer_nss(peer, 7, SimTime(52), period), Some(false));
    }

    #[test]
    fn deferred_sweep_reclaims_unpinned_scion() {
        let mut t = tables();
        t.add_scion(RefId(4), obj(0, 0), ProcId(1), SimTime(0));
        t.pin_scion(RefId(4)).unwrap();
        assert_eq!(t.pinned_scion_count(), 1);
        // The set that should have killed it arrives while pinned.
        t.save_live_set(ProcId(1), SimTime(10), FxHashSet::default());
        assert!(t.sweep_deferred_nss().is_empty(), "pinned: deferred");
        t.unpin_scion(RefId(4)).unwrap();
        let removed = t.sweep_deferred_nss();
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].ref_id, RefId(4));
        assert_eq!(t.pinned_scion_count(), 0);
    }

    #[test]
    fn deferred_sweep_respects_refresh_horizon() {
        let mut t = tables();
        t.add_scion(RefId(4), obj(0, 0), ProcId(1), SimTime(0));
        t.save_live_set(ProcId(1), SimTime(10), FxHashSet::default());
        // Re-export during the window: the horizon moves past the set.
        t.refresh_scion(RefId(4), SimTime(10));
        assert!(t.sweep_deferred_nss().is_empty(), "refreshed scion safe");
        // A scion named live by the saved set also survives.
        t.add_scion(RefId(5), obj(0, 1), ProcId(1), SimTime(0));
        let mut live = FxHashSet::default();
        live.insert(RefId(5));
        t.save_live_set(ProcId(1), SimTime(20), live);
        let removed = t.sweep_deferred_nss();
        assert_eq!(removed.len(), 1, "only the stale unprotected scion dies");
        assert_eq!(removed[0].ref_id, RefId(4));
        assert!(t.scion(RefId(5)).is_some());
    }

    #[test]
    fn counter_on_missing_ref_errors() {
        let mut t = tables();
        assert!(t.record_send_through_stub(RefId(9)).is_err());
        assert!(t
            .record_receive_through_scion(RefId(9), SimTime(0))
            .is_err());
    }
}
