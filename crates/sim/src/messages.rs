//! System-level message set: everything that travels between processes.

use acdgc_dcda::Cdm;
use acdgc_model::{ObjId, RefId};
use acdgc_remoting::{InvokePayload, NewSetStubs, ReplyPayload};

/// All inter-process traffic in the simulation.
#[derive(Clone, Debug)]
pub enum SysMessage {
    /// Remote invocation (application class, reliable). Carries the callee
    /// reply obligations alongside the remoting payload.
    Invoke {
        /// The remoting-layer invocation body.
        payload: InvokePayload,
        /// Objects the callee will export back in its reply.
        reply_exports: Vec<ObjId>,
        /// Caller-side object that receives the returned references.
        receiver: Option<ObjId>,
    },
    /// Invocation reply (application class, reliable).
    Reply {
        /// The remoting-layer reply body.
        payload: ReplyPayload,
        /// Caller-side object that receives the returned references.
        receiver: Option<ObjId>,
    },
    /// Reference-listing update (GC class, droppable).
    Nss(NewSetStubs),
    /// Acknowledges the sender's `NewSetStubs` up to `seq` when no set
    /// goes back to carry it (GC class, droppable: the set is retried).
    NssAck {
        /// The newest sequence number applied from the receiver.
        seq: u64,
    },
    /// A cycle detection message travelling along reference `via`
    /// (GC class, droppable).
    Cdm {
        /// The reference the CDM travels along.
        via: RefId,
        /// The detection message itself.
        cdm: Cdm,
    },
    /// Cycle verdict follow-up: the sender proved the cycle containing
    /// this scion garbage; the owner deletes it (idempotent, droppable —
    /// a lost deletion is finished off by reference listing once the
    /// other deletions let the LGCs unravel the objects). `ic` is the
    /// invocation counter the verdict witnessed: the owner re-checks it
    /// before deleting (lazy IC barrier against a concurrent mutator).
    DeleteScion {
        /// The scion proven part of a garbage cycle.
        scion: RefId,
        /// The incarnation the verdict witnessed (ABA guard).
        incarnation: u32,
        /// The invocation counter the verdict witnessed.
        ic: u64,
    },
}

impl SysMessage {
    /// Approximate wire size for byte accounting.
    pub fn size_bytes(&self) -> usize {
        match self {
            SysMessage::Invoke { payload, .. } => payload.size_bytes(),
            SysMessage::Reply { payload, .. } => payload.size_bytes(),
            SysMessage::Nss(nss) => nss.size_bytes(),
            SysMessage::NssAck { .. } => 16,
            SysMessage::Cdm { cdm, .. } => 8 + cdm.size_bytes(),
            SysMessage::DeleteScion { .. } => 24,
        }
    }

    /// Whether this is collector traffic (subject to fault injection).
    pub fn is_gc(&self) -> bool {
        !matches!(self, SysMessage::Invoke { .. } | SysMessage::Reply { .. })
    }
}

/// What a scripted remote invocation does, besides bumping invocation
/// counters along the reference.
#[derive(Clone, Debug, Default)]
pub struct InvokeSpec {
    /// References passed as arguments; the callee's invoked object gains a
    /// field for each (stub/scion pairs are created when
    /// `GcConfig::instrument_remoting` is on).
    pub exports: Vec<ObjId>,
    /// References the callee returns; the caller's `receiver` object gains
    /// a field for each.
    pub reply_exports: Vec<ObjId>,
    /// Caller-side object to attach returned references to.
    pub receiver: Option<ObjId>,
    /// Simulated non-reference argument payload.
    pub arg_bytes: u32,
    /// Send a reply even with no returned references (replies bump the
    /// invocation counters too).
    pub wants_reply: bool,
}

impl InvokeSpec {
    /// Plain call: no reference traffic, no reply.
    pub fn oneway() -> Self {
        InvokeSpec::default()
    }

    /// Call-with-reply, no reference traffic.
    pub fn with_reply() -> Self {
        InvokeSpec {
            wants_reply: true,
            ..InvokeSpec::default()
        }
    }

    /// The Table 1 workload: `n` references exported as arguments.
    pub fn exporting(exports: Vec<ObjId>) -> Self {
        InvokeSpec {
            exports,
            ..InvokeSpec::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdgc_model::{DetectionId, ProcId, SimTime};

    #[test]
    fn gc_classification() {
        let nss = SysMessage::Nss(NewSetStubs {
            from: ProcId(0),
            seq: 1,
            lgc_at: SimTime(0),
            live_refs: vec![],
            ack: 0,
        });
        assert!(nss.is_gc());
        assert!(SysMessage::NssAck { seq: 1 }.is_gc());
        let cdm = SysMessage::Cdm {
            via: RefId(1),
            cdm: Cdm::initiate(DetectionId(0), ProcId(0), RefId(1), 0),
        };
        assert!(cdm.is_gc());
        let invoke = SysMessage::Invoke {
            payload: InvokePayload {
                ref_id: RefId(1),
                exports: vec![],
                arg_bytes: 0,
                wants_reply: false,
            },
            reply_exports: vec![],
            receiver: None,
        };
        assert!(!invoke.is_gc());
        assert!(invoke.size_bytes() > 0);
        assert!(cdm.size_bytes() > 0);
    }
}
