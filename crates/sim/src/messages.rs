//! System-level message set: everything that travels between processes.

use crate::step::GcMsg;
use acdgc_model::ObjId;
use acdgc_remoting::{InvokePayload, ReplyPayload};

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
    /// Collector traffic (GC class, droppable).
    Gc(GcMsg),
}

impl SysMessage {
    /// Approximate wire size for byte accounting.
    pub fn size_bytes(&self) -> usize {
        match self {
            SysMessage::Invoke { payload, .. } => payload.size_bytes(),
            SysMessage::Reply { payload, .. } => payload.size_bytes(),
            SysMessage::Gc(msg) => msg.size_bytes(),
        }
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
    use acdgc_dcda::Cdm;
    use acdgc_model::{DetectionId, ProcId, RefId, SimTime};
    use acdgc_remoting::NewSetStubs;

    /// The wire sizes every GC byte count is computed from.
    #[test]
    fn gc_classification() {
        let nss = |n: u64| NewSetStubs {
            from: ProcId(0),
            seq: 1,
            lgc_at: SimTime(0),
            live_refs: (0..n).map(RefId).collect(),
            ack: 0,
        };
        let via = RefId(1);
        let cdm = Cdm::initiate(DetectionId(0), ProcId(0), via, 0);
        let delete = GcMsg::DeleteScion {
            scion: via,
            incarnation: 0,
            ic: 0,
        };
        let sizes = [
            (GcMsg::Nss(nss(0)), 32),
            (GcMsg::Nss(nss(3)), 32 + 8 * 3),
            (GcMsg::NssAck { seq: 1 }, 16),
            (
                GcMsg::Cdm {
                    via,
                    cdm: cdm.clone(),
                },
                8 + cdm.size_bytes(),
            ),
            (delete, 24),
        ];
        for (msg, size) in sizes {
            assert_eq!(msg.size_bytes(), size, "{msg:?}");
            assert_eq!(SysMessage::Gc(msg).size_bytes(), size);
        }
    }
}
