//! The `NewSetStubs` protocol: reference-listing acyclic DGC.
//!
//! After each LGC, a process sends every peer the set of live stubs it
//! holds toward that peer (`NewSetStubs`). The peer deletes scions from
//! that sender which are absent from the set — the objects they protected
//! become reclaimable at its next LGC.
//!
//! Robustness properties exercised by the tests:
//!
//! * **reordering** — per-sender sequence numbers; a stale message is
//!   ignored entirely (applying an old set could resurrect-delete a scion
//!   for a stub created since),
//! * **loss** — a sender either sends the set every collection builds, so
//!   loss only delays reclamation, or follows [`RemotingTables::offer_nss`]:
//!   on a stub change, then again until acknowledged, then silence,
//! * **in-flight exports** — scions created for references still traveling
//!   inside an application message are *pinned* and never deleted, and
//!   scions newer than the sender's collection are protected by the
//!   `lgc_at` horizon.

use crate::tables::{RemotingTables, Scion};
use acdgc_model::{ProcId, RefId, SimTime};
use rustc_hash::FxHashSet;

/// The per-peer message generated after an LGC.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NewSetStubs {
    pub from: ProcId,
    /// Per-sender monotone sequence; receivers ignore non-increasing ones.
    pub seq: u64,
    /// When the sender's collection observed its heap: scions created at or
    /// after this instant are not judged by this message.
    pub lgc_at: SimTime,
    /// Live stubs at `from` whose targets live in the receiving process.
    pub live_refs: Vec<RefId>,
}

impl NewSetStubs {
    /// Approximate wire size for byte accounting.
    pub fn size_bytes(&self) -> usize {
        24 + 8 * self.live_refs.len()
    }
}

/// Build one `NewSetStubs` per peer in `peers`.
///
/// The set is read from the *current stub table*, so the integration mode
/// decides its content: `VmIntegrated` removed dead stubs before this call;
/// `WeakRefMonitor` leaves condemned stubs in place until the monitor pass,
/// so they are still (conservatively) announced as live.
pub fn build_new_set_stubs(
    tables: &mut RemotingTables,
    peers: &[ProcId],
    lgc_at: SimTime,
) -> Vec<(ProcId, NewSetStubs)> {
    let mut out = Vec::with_capacity(peers.len());
    for &peer in peers {
        if peer == tables.proc() {
            continue;
        }
        let mut live_refs: Vec<RefId> = tables
            .stubs()
            .filter(|s| s.target.proc == peer)
            .map(|s| s.ref_id)
            .collect();
        live_refs.sort_unstable();
        out.push((
            peer,
            NewSetStubs {
                from: tables.proc(),
                seq: tables.next_nss_seq(),
                lgc_at,
                live_refs,
            },
        ));
    }
    out
}

/// Effect of applying a `NewSetStubs` message.
#[derive(Clone, Debug, Default)]
pub struct AppliedNss {
    /// Scions deleted: their targets lose remote protection.
    pub removed: Vec<Scion>,
    /// The message was stale (sequence not fresher) and ignored.
    pub stale: bool,
}

/// Apply a `NewSetStubs` from `msg.from`: delete this sender's scions that
/// are not in the live set, except pinned ones and ones created at or after
/// the sender's collection horizon.
pub fn apply_new_set_stubs(tables: &mut RemotingTables, msg: &NewSetStubs) -> AppliedNss {
    if !tables.accept_nss_seq(msg.from, msg.seq) {
        return AppliedNss {
            removed: Vec::new(),
            stale: true,
        };
    }
    let live: FxHashSet<RefId> = msg.live_refs.iter().copied().collect();
    let doomed: Vec<RefId> = tables
        .scions()
        .filter(|s| {
            s.from_proc == msg.from
                && s.pinned == 0
                && s.created_at < msg.lgc_at
                && !live.contains(&s.ref_id)
        })
        .map(|s| s.ref_id)
        .collect();
    let removed = doomed
        .into_iter()
        .filter_map(|r| tables.remove_scion(r))
        .collect();
    // Scions skipped above *only* because they were pinned would leak: a
    // settled set is never resent. Save the accepted set so
    // `RemotingTables::sweep_deferred_nss` can re-judge them once unpinned.
    tables.save_live_set(msg.from, msg.lgc_at, live);
    AppliedNss {
        removed,
        stale: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdgc_model::ObjId;

    fn obj(proc: u16, slot: u32) -> ObjId {
        ObjId::new(ProcId(proc), slot, 0)
    }

    /// Build a holder/owner pair: P0 holds stubs, P1 owns scions.
    fn pair() -> (RemotingTables, RemotingTables) {
        (
            RemotingTables::new(ProcId(0)),
            RemotingTables::new(ProcId(1)),
        )
    }

    #[test]
    fn absent_stub_deletes_scion() {
        let (mut holder, mut owner) = pair();
        holder.add_stub(RefId(1), obj(1, 0), SimTime(0));
        owner.add_scion(RefId(1), obj(1, 0), ProcId(0), SimTime(0));
        owner.add_scion(RefId(2), obj(1, 1), ProcId(0), SimTime(0));
        // RefId(2)'s stub has died at the holder: only RefId(1) is live.
        let msgs = build_new_set_stubs(&mut holder, &[ProcId(1)], SimTime(100));
        assert_eq!(msgs.len(), 1);
        let applied = apply_new_set_stubs(&mut owner, &msgs[0].1);
        assert_eq!(applied.removed.len(), 1);
        assert_eq!(applied.removed[0].ref_id, RefId(2));
        assert!(owner.scion(RefId(1)).is_some());
    }

    #[test]
    fn empty_set_still_sent_and_clears_all() {
        let (mut holder, mut owner) = pair();
        owner.add_scion(RefId(9), obj(1, 0), ProcId(0), SimTime(0));
        // Holder has no stubs toward P1 at all; the empty set must still be
        // generated so the orphan scion dies.
        let msgs = build_new_set_stubs(&mut holder, &[ProcId(1)], SimTime(50));
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].1.live_refs.is_empty());
        let applied = apply_new_set_stubs(&mut owner, &msgs[0].1);
        assert_eq!(applied.removed.len(), 1);
    }

    #[test]
    fn stale_message_is_ignored() {
        let (mut holder, mut owner) = pair();
        holder.add_stub(RefId(1), obj(1, 0), SimTime(0));
        owner.add_scion(RefId(1), obj(1, 0), ProcId(0), SimTime(0));
        let newer = build_new_set_stubs(&mut holder, &[ProcId(1)], SimTime(10));
        // The stub dies; a second, fresher set is generated.
        holder.remove_stub(RefId(1));
        let fresher = build_new_set_stubs(&mut holder, &[ProcId(1)], SimTime(20));
        // Fresher arrives first (reordering); stale must then be a no-op.
        let applied = apply_new_set_stubs(&mut owner, &fresher[0].1);
        assert_eq!(applied.removed.len(), 1);
        let stale = apply_new_set_stubs(&mut owner, &newer[0].1);
        assert!(stale.stale);
        assert!(stale.removed.is_empty());
    }

    #[test]
    fn reordered_resurrection_is_prevented() {
        // Scenario: the stub for RefId(1) dies, then a *new* reference
        // RefId(2) (to another object) is exported. If the old (pre-death)
        // set were applied after the new one, RefId(2)'s scion must
        // survive both by sequence guard and by creation horizon.
        let (mut holder, mut owner) = pair();
        holder.add_stub(RefId(1), obj(1, 0), SimTime(0));
        owner.add_scion(RefId(1), obj(1, 0), ProcId(0), SimTime(0));
        let old = build_new_set_stubs(&mut holder, &[ProcId(1)], SimTime(10));
        holder.remove_stub(RefId(1));
        holder.add_stub(RefId(2), obj(1, 1), SimTime(15));
        owner.add_scion(RefId(2), obj(1, 1), ProcId(0), SimTime(15));
        let new = build_new_set_stubs(&mut holder, &[ProcId(1)], SimTime(20));
        let applied_new = apply_new_set_stubs(&mut owner, &new[0].1);
        assert_eq!(applied_new.removed.len(), 1, "RefId(1) scion dies");
        let applied_old = apply_new_set_stubs(&mut owner, &old[0].1);
        assert!(applied_old.stale);
        assert!(owner.scion(RefId(2)).is_some(), "new scion survives");
    }

    #[test]
    fn pinned_scion_survives_absent_stub() {
        let (mut holder, mut owner) = pair();
        owner.add_scion(RefId(5), obj(1, 0), ProcId(0), SimTime(0));
        owner.pin_scion(RefId(5)).unwrap();
        let msgs = build_new_set_stubs(&mut holder, &[ProcId(1)], SimTime(100));
        let applied = apply_new_set_stubs(&mut owner, &msgs[0].1);
        assert!(applied.removed.is_empty(), "pinned scion must survive");
        owner.unpin_scion(RefId(5)).unwrap();
        let msgs = build_new_set_stubs(&mut holder, &[ProcId(1)], SimTime(200));
        let applied = apply_new_set_stubs(&mut owner, &msgs[0].1);
        assert_eq!(applied.removed.len(), 1, "unpinned scion reclaimed");
    }

    #[test]
    fn pinned_scion_reclaimed_by_deferred_sweep_without_resend() {
        // The ack/retry rule never resends a settled set, so a
        // scion that dodged judgement only by being pinned must be caught
        // by the saved-set sweep once the pin drops.
        let (mut holder, mut owner) = pair();
        owner.add_scion(RefId(5), obj(1, 0), ProcId(0), SimTime(0));
        owner.pin_scion(RefId(5)).unwrap();
        let msgs = build_new_set_stubs(&mut holder, &[ProcId(1)], SimTime(100));
        let applied = apply_new_set_stubs(&mut owner, &msgs[0].1);
        assert!(applied.removed.is_empty(), "pinned scion survives apply");
        assert!(owner.sweep_deferred_nss().is_empty(), "still pinned");
        owner.unpin_scion(RefId(5)).unwrap();
        let removed = owner.sweep_deferred_nss();
        assert_eq!(removed.len(), 1, "deferred judgement lands");
        assert_eq!(removed[0].ref_id, RefId(5));
    }

    #[test]
    fn creation_horizon_protects_new_scions() {
        let (mut holder, mut owner) = pair();
        // Holder's LGC ran at t=10; a scion created at t=10 or later cannot
        // be judged by that collection.
        let msgs = build_new_set_stubs(&mut holder, &[ProcId(1)], SimTime(10));
        owner.add_scion(RefId(8), obj(1, 0), ProcId(0), SimTime(10));
        let applied = apply_new_set_stubs(&mut owner, &msgs[0].1);
        assert!(applied.removed.is_empty());
    }

    #[test]
    fn scions_from_other_senders_untouched() {
        let (mut holder, mut owner) = pair();
        owner.add_scion(RefId(1), obj(1, 0), ProcId(0), SimTime(0));
        owner.add_scion(RefId(2), obj(1, 1), ProcId(2), SimTime(0));
        let msgs = build_new_set_stubs(&mut holder, &[ProcId(1)], SimTime(100));
        let applied = apply_new_set_stubs(&mut owner, &msgs[0].1);
        assert_eq!(applied.removed.len(), 1);
        assert!(
            owner.scion(RefId(2)).is_some(),
            "P2's scion not judged by P0"
        );
    }

    #[test]
    fn condemned_stub_still_announced_live() {
        // WeakRefMonitor mode: until the monitor pass removes it, a
        // condemned stub keeps its scion alive (conservative).
        let (mut holder, mut owner) = pair();
        holder.add_stub(RefId(1), obj(1, 0), SimTime(0));
        owner.add_scion(RefId(1), obj(1, 0), ProcId(0), SimTime(0));
        holder.condemn_stubs(&[RefId(1)]);
        let msgs = build_new_set_stubs(&mut holder, &[ProcId(1)], SimTime(10));
        assert_eq!(msgs[0].1.live_refs, vec![RefId(1)]);
        holder.monitor_pass();
        let msgs = build_new_set_stubs(&mut holder, &[ProcId(1)], SimTime(20));
        assert!(msgs[0].1.live_refs.is_empty());
        let applied = apply_new_set_stubs(&mut owner, &msgs[0].1);
        assert_eq!(applied.removed.len(), 1);
    }

    #[test]
    fn size_model_counts_refs() {
        let msg = NewSetStubs {
            from: ProcId(0),
            seq: 1,
            lgc_at: SimTime(0),
            live_refs: vec![RefId(1), RefId(2), RefId(3)],
        };
        assert_eq!(msg.size_bytes(), 24 + 24);
    }
}
