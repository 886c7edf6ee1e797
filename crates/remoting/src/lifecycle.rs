//! Opening, repairing and closing one remote reference.
//!
//! A reference is the stub/scion pair for one (importer process, target
//! object). Establishing it — the first export, a re-export, or the repair
//! of a pair that lost one half — is always the same three process-local
//! steps, whoever carries the message between them:
//!
//! 1. [`RemotingTables::open_scion`] at the target's **owner**: reuse the
//!    scion and move its horizon, or re-create it under the surviving
//!    stub's id, or mint a fresh id; then pin it, because until step 2 no
//!    stub names it and a `NewSetStubs` built in that window would delete
//!    it on sight.
//! 2. [`RemotingTables::open_stub`] at the **importer**: pardon the stub,
//!    or (re-)create it.
//! 3. [`RemotingTables::close_scion`] at the owner: refresh the horizon
//!    *then* unpin, so no live set accepted while the reference was in
//!    flight can be re-applied against the scion
//!    ([`RemotingTables::sweep_deferred_nss`]). An import nobody holds
//!    closes with a bare [`RemotingTables::unpin_scion`] instead, after
//!    [`RemotingTables::abandon_import`] at the importer: the orphan scion
//!    must stay judgeable, and only a set the importer builds after the
//!    import can judge it.
//!
//! **Counter adoption.** The pair's counters count invocations in flight
//! (sent at the stub minus received at the scion); when one half is
//! re-created beside a survivor nothing is in flight, so the new half
//! adopts the survivor's counter. A zero beside a survivor at `k` is not a
//! safety problem — the CDM counter match can only *veto* deletions — but
//! the veto is permanent: every detection crossing the pair aborts with an
//! IC mismatch, the scion stays a candidate forever, and quiescence never
//! closes.

use crate::tables::{RemotingTables, Stub};
use acdgc_model::{ModelError, ObjId, ProcId, RefId, SimTime};

/// What [`RemotingTables::open_scion`] found and settled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenedPair {
    /// The scion's id if it existed, else the surviving stub's, else minted.
    pub ref_id: RefId,
    /// The scion's counter after the open: what a stub re-created by
    /// [`RemotingTables::open_stub`] adopts.
    pub ic: u64,
    /// The importer already held a stub for the target.
    pub had_stub: bool,
    /// The owner already held the scion.
    pub had_scion: bool,
}

impl RemotingTables {
    /// Owner half: make sure `importer`'s scion for `target` exists, and
    /// pin it. `stub` is what the importer holds for `target` today;
    /// `mint` is called only when neither half exists.
    pub fn open_scion(
        &mut self,
        importer: ProcId,
        target: ObjId,
        stub: Option<&Stub>,
        mint: impl FnOnce() -> RefId,
        now: SimTime,
    ) -> OpenedPair {
        let found = self
            .scion_for_source(importer, target)
            .map(|s| (s.ref_id, s.ic));
        let (ref_id, ic) = match found {
            Some((ref_id, ic)) => {
                debug_assert!(stub.is_none_or(|s| s.ref_id == ref_id), "halves disagree");
                // A `NewSetStubs` built before this instant predates the
                // re-establishment and may not judge the scion.
                self.refresh_scion(ref_id, now);
                (ref_id, ic)
            }
            None => {
                let repaired = stub.map_or_else(|| (mint(), 0), |s| (s.ref_id, s.ic));
                self.add_scion(repaired.0, target, importer, now);
                self.sync_scion_ic(repaired.0, repaired.1);
                repaired
            }
        };
        self.pin_scion(ref_id).expect("scion present above");
        OpenedPair {
            ref_id,
            ic,
            had_stub: stub.is_some(),
            had_scion: found.is_some(),
        }
    }

    /// Importer half: pardon the stub for `ref_id` (a condemned proxy seen
    /// alive again) or create it at the scion's counter.
    pub fn open_stub(&mut self, ref_id: RefId, target: ObjId, scion_ic: u64, now: SimTime) {
        if self.stub(ref_id).is_some() {
            self.pardon_stub(ref_id);
        } else {
            self.add_stub(ref_id, target, now);
            self.sync_stub_ic(ref_id, scion_ic);
        }
    }

    /// Owner half, once the stub exists: refresh, then release the pin
    /// taken by [`RemotingTables::open_scion`].
    pub fn close_scion(&mut self, ref_id: RefId, now: SimTime) -> Result<(), ModelError> {
        self.refresh_scion(ref_id, now);
        self.unpin_scion(ref_id)
    }

    /// Importer half of an import nobody holds: no stub opens, but the
    /// scion `owner` made for it is newer than every set this process has
    /// sent, and an unchanged set is not sent again. Counted as a stub born
    /// and dead at once, so the next set toward `owner` travels.
    pub fn abandon_import(&mut self, owner: ProcId) {
        self.note_stub_change(owner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IMPORTER: ProcId = ProcId(0);
    const OWNER: ProcId = ProcId(1);
    const OLD: RefId = RefId(7);
    const MINTED: RefId = RefId(99);

    #[test]
    fn every_pre_state_opens_to_an_equal_counter_pair_pinned_until_close() {
        let target = ObjId::new(OWNER, 3, 0);
        // (stub's counter if present, scion's counter if present)
        for (stub_ic, scion_ic) in [
            (Some(4), Some(4)),
            (Some(4), None),
            (None, Some(4)),
            (None, None),
        ] {
            let (mut importer, mut owner) =
                (RemotingTables::new(IMPORTER), RemotingTables::new(OWNER));
            if let Some(ic) = stub_ic {
                importer.add_stub(OLD, target, SimTime(1));
                importer.sync_stub_ic(OLD, ic);
                importer.condemn_stubs(&[OLD]);
            }
            if let Some(ic) = scion_ic {
                owner.add_scion(OLD, target, IMPORTER, SimTime(1));
                owner.sync_scion_ic(OLD, ic);
            }
            let case = format!("stub {stub_ic:?}, scion {scion_ic:?}");

            let stub = importer.stub_for_target(target).cloned();
            let opened = owner.open_scion(IMPORTER, target, stub.as_ref(), || MINTED, SimTime(10));
            let survivor = stub_ic.or(scion_ic);
            let expect = OpenedPair {
                ref_id: if survivor.is_some() { OLD } else { MINTED },
                ic: survivor.unwrap_or(0),
                had_stub: stub_ic.is_some(),
                had_scion: scion_ic.is_some(),
            };
            assert_eq!(opened, expect, "{case}");
            let scion = owner.scion(opened.ref_id).unwrap();
            assert_eq!(
                (scion.ic, scion.pinned, scion.created_at),
                (opened.ic, 1, SimTime(10)),
                "{case}"
            );

            importer.open_stub(opened.ref_id, target, opened.ic, SimTime(20));
            let stub = importer.stub(opened.ref_id).unwrap();
            assert_eq!((stub.ic, stub.condemned), (opened.ic, false), "{case}");
            assert_eq!(
                owner.scion(opened.ref_id).unwrap().pinned,
                1,
                "{case}: held until close"
            );

            owner.close_scion(opened.ref_id, SimTime(30)).unwrap();
            let scion = owner.scion(opened.ref_id).unwrap();
            assert_eq!((scion.pinned, scion.created_at), (0, SimTime(30)), "{case}");
            assert_eq!(
                (importer.stub_count(), owner.scion_count()),
                (1, 1),
                "{case}"
            );
        }
    }
}
