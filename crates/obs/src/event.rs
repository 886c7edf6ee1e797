//! The typed event taxonomy: everything the collector stack can report,
//! one variant per observable transition of the CDM lifecycle, the
//! reference-listing layer, the phase clocks, and the quiescence protocol.
//!
//! Each event is declared once, as a row of the `events!` table below:
//! variant, JSONL `type` name, [`Family`], and fields with their JSON
//! keys. The table generates the enum and its codec, so adding a field is
//! a one-row change.

use acdgc_model::{DetectionId, ProcId, RefId, SimTime, TraceFilter};
use serde_json::{json, Map, Number, Value};

/// Pull an unsigned integer field out of a JSON object (the vendored
/// `serde_json` exposes no `as_u64`, so the extraction pattern lives here
/// once). `None` when absent, mistyped, or out of range for `T`.
pub(crate) fn field_int<T: TryFrom<u64>>(m: &Map, key: &str) -> Option<T> {
    let v = match m.get(key)? {
        Value::Number(Number::U64(v)) => *v,
        Value::Number(Number::I64(v)) if *v >= 0 => *v as u64,
        _ => return None,
    };
    T::try_from(v).ok()
}

pub(crate) fn field_u64(m: &Map, key: &str) -> Option<u64> {
    field_int(m, key)
}

pub(crate) fn field_u16(m: &Map, key: &str) -> Option<u16> {
    field_int(m, key)
}

pub(crate) fn field_bool(m: &Map, key: &str) -> Option<bool> {
    match m.get(key)? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

pub(crate) fn field_str<'a>(m: &'a Map, key: &str) -> Option<&'a str> {
    match m.get(key)? {
        Value::String(s) => Some(s.as_str()),
        _ => None,
    }
}

/// How one event field travels in a flat JSON object.
pub(crate) trait Field: Sized {
    fn put(&self, key: &str, obj: &mut Map);
    fn get(m: &Map, key: &str) -> Option<Self>;
}

/// Integer-backed fields: `Type: wire integer, wrap, unwrap`.
macro_rules! int_fields {
    ($($T:ty: $Int:ty, $wrap:expr, $raw:expr;)+) => {$(
        impl Field for $T {
            fn put(&self, key: &str, obj: &mut Map) {
                obj.insert(key.into(), json!(($raw)(self)));
            }
            fn get(m: &Map, key: &str) -> Option<Self> {
                field_int::<$Int>(m, key).map($wrap)
            }
        }
    )+};
}

int_fields! {
    u64: u64, |v| v, |v: &u64| *v;
    u32: u32, |v| v, |v: &u32| *v;
    DetectionId: u64, DetectionId, |v: &DetectionId| v.0;
    RefId: u64, RefId, |v: &RefId| v.0;
    ProcId: u16, ProcId, |v: &ProcId| v.0;
}

impl Field for bool {
    fn put(&self, key: &str, obj: &mut Map) {
        obj.insert(key.into(), json!(*self));
    }
    fn get(m: &Map, key: &str) -> Option<Self> {
        field_bool(m, key)
    }
}

/// An optional reference: the key is simply absent for `None`.
impl Field for Option<RefId> {
    fn put(&self, key: &str, obj: &mut Map) {
        if let Some(r) = self {
            r.put(key, obj);
        }
    }
    fn get(m: &Map, key: &str) -> Option<Self> {
        match m.get(key) {
            None => Some(None),
            Some(_) => RefId::get(m, key).map(Some),
        }
    }
}

/// Declare a fieldless enum whose variants carry stable snake_case names:
/// generates the enum, `ALL`, `name`, `from_name` (for parsing exported
/// traces), and the JSON [`Field`] codec.
macro_rules! named_enum {
    ($(#[$m:meta])* $vis:vis enum $Name:ident {
        $($(#[$vm:meta])* $Var:ident => $s:literal,)+
    }) => {
        $(#[$m])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        $vis enum $Name {
            $($(#[$vm])* $Var,)+
        }

        impl $Name {
            pub const ALL: [$Name; [$($s),+].len()] = [$($Name::$Var),+];

            pub fn name(self) -> &'static str {
                match self {
                    $($Name::$Var => $s,)+
                }
            }

            pub fn from_name(name: &str) -> Option<$Name> {
                $Name::ALL.into_iter().find(|v| v.name() == name)
            }
        }

        impl $crate::event::Field for $Name {
            fn put(&self, key: &str, obj: &mut serde_json::Map) {
                obj.insert(key.into(), serde_json::json!(self.name()));
            }
            fn get(m: &serde_json::Map, key: &str) -> Option<Self> {
                $Name::from_name($crate::event::field_str(m, key)?)
            }
        }
    };
}
pub(crate) use named_enum;

named_enum! {
    /// A timed collector phase. Phases are bracketed by
    /// [`Event::PhaseStarted`] / [`Event::PhaseEnded`] pairs and feed the
    /// per-phase log2 duration histograms.
    pub enum Phase {
        /// Local mark+sweep collection.
        Lgc => "lgc",
        /// Raw heap/table snapshot capture (`acdgc_snapshot::capture`).
        SnapshotCapture => "snapshot_capture",
        /// Single-pass SCC-condensation summarizer.
        SummarizeEngine => "summarize_engine",
        /// Reference per-scion-BFS summarizer.
        SummarizeReference => "summarize_reference",
        /// Candidate scan over the published summary.
        CandidateScan => "candidate_scan",
        /// One CDM combine step (initiate or deliver) including outcome
        /// handling. Histogram-only: per-CDM start/end events would double
        /// the trace volume for no forensic value.
        CdmHandling => "cdm_handling",
    }
}

impl Phase {
    pub const COUNT: usize = Phase::ALL.len();

    pub fn index(self) -> usize {
        self as usize
    }
}

named_enum! {
    /// Why a detection was dropped without a verdict.
    pub enum DropReason {
        /// Safety rule 1: addressed scion absent from the current summary.
        NoScion => "no_scion",
        /// Backstop hop cap exceeded.
        HopCap => "hop_cap",
    }
}

named_enum! {
    /// Why a detection terminated normally (no cycle, no safety violation).
    pub enum TermReason {
        NoStubs => "no_stubs",
        AllStubsLocallyReachable => "all_stubs_locally_reachable",
        NoNewInformation => "no_new_information",
        BudgetExhausted => "budget_exhausted",
    }
}

named_enum! {
    /// What a concurrent-mutator thread did in one [`Event::MutatorOp`].
    pub enum MutatorOpKind {
        /// A new rooted object was allocated on the recording process.
        Allocate => "allocate",
        /// A remote reference (stub/scion pair) was created or re-shared
        /// from a holder on the recording process.
        Export => "export",
        /// An invocation travelled along a remote reference; the target
        /// scion was pinned for the duration (recorded at the sending
        /// process).
        Invoke => "invoke",
        /// A remote reference was dropped by its holder on the recording
        /// process.
        DropRef => "drop_ref",
        /// A mutator-allocated object was unrooted on the recording
        /// process, turning its subgraph into (possibly cyclic, possibly
        /// distributed) garbage.
        DropRoot => "drop_root",
    }
}

named_enum! {
    /// Event family: the unit of [`TraceFilter`] selection, and (by name)
    /// the slice category of the Perfetto export.
    pub enum Family {
        /// CDM lifecycle, scion deletions, candidate scans.
        Detections => "detection",
        /// Reference listing: `NewSetStubs` send / apply / ack.
        Nss => "nss",
        Phases => "phase",
        /// Threaded-runtime quiescence votes and rescinds.
        Quiescence => "quiescence",
        Mutator => "mutator",
    }
}

/// The JSON key of a table field: its name unless the row overrides it.
macro_rules! key {
    ($f:ident) => {
        stringify!($f)
    };
    ($f:ident, $key:literal) => {
        $key
    };
}

/// The event table. One row per variant:
/// `Variant = "jsonl_type" in Family { field: Type [= "json_key"], .. }`.
/// Generates [`Event`], [`Event::kind`], [`Event::family`],
/// [`Event::payload_into`] and [`Event::from_json`].
macro_rules! events {
    ($($(#[$doc:meta])* $Var:ident = $kind:literal in $fam:ident {
        $($f:ident: $T:ty $(= $key:literal)?),* $(,)?
    })+) => {
        /// One observable transition. Detection events carry the detection
        /// id, the hop depth of the processing step that produced them, and
        /// — for wire events — source/target algebra sizes and encoded
        /// bytes, so a trace alone reconstructs the paper's §3.1 walk
        /// tables.
        ///
        /// Hop convention: the detector increments a CDM's hop counter on
        /// delivery, so `CdmSent`/`CdmDelivered` record the depth at which
        /// the *receiving* step processes the CDM. A sent/delivered pair
        /// for one CDM therefore shares a hop value, and hops strictly
        /// increase along every reconstructed path (checked by
        /// `DetectionPath::check_hops_increase`).
        #[derive(Clone, Debug, PartialEq)]
        pub enum Event {
            $($(#[$doc])* $Var { $($f: $T),* },)+
        }

        impl Event {
            /// Stable snake_case discriminant, used as the JSONL `type`
            /// field.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$Var { .. } => $kind,)+
                }
            }

            pub fn family(&self) -> Family {
                match self {
                    $(Event::$Var { .. } => Family::$fam,)+
                }
            }

            /// Insert this event's payload fields into a JSON object that
            /// already carries the `type` discriminant — the shared half of
            /// [`Recorded::to_json`] and the health-report event export.
            pub fn payload_into(&self, obj: &mut Map) {
                match self {
                    $(Event::$Var { $($f),* } => {
                        $($f.put(key!($f $(, $key)?), obj);)*
                    })+
                }
            }

            /// Inverse of the payload half of [`Recorded::to_json`]:
            /// rebuild an event from its `type` discriminant and the flat
            /// JSON object it was exported as. `None` on unknown kinds or
            /// missing/mistyped fields.
            pub fn from_json(kind: &str, m: &Map) -> Option<Event> {
                Some(match kind {
                    $($kind => Event::$Var {
                        $($f: <$T>::get(m, key!($f $(, $key)?))?),*
                    },)+
                    _ => return None,
                })
            }
        }
    };
}

events! {
    /// A detection was initiated from `scion` at the recording process.
    DetectionStarted = "detection_started" in Detections {
        id: DetectionId,
        scion: RefId,
    }
    /// One CDM derivation left the recording process towards `to`. The
    /// recording process and this event's Lamport stamp are the CDM's
    /// identity: every copy of it that lands records them back.
    CdmSent = "cdm_sent" in Detections {
        id: DetectionId,
        to: ProcId,
        via: RefId,
        hop: u32,
        sources: u32,
        targets: u32,
        bytes: u32,
    }
    /// A CDM arrived at the recording process (pre-combine). `from` and
    /// `sent_lc` name the one [`Event::CdmSent`] this copy came from: the
    /// sending process and that event's Lamport stamp, as piggybacked on
    /// the envelope.
    CdmDelivered = "cdm_delivered" in Detections {
        id: DetectionId,
        via: RefId,
        hop: u32,
        sources: u32,
        targets: u32,
        bytes: u32,
        from: ProcId,
        sent_lc: u64,
    }
    /// A processing step (initiate or deliver) combined the CDM with the
    /// local summary and forwarded `branches` derivations; the pruned
    /// counters record sibling branches that did not forward.
    CdmForwarded = "cdm_forwarded" in Detections {
        id: DetectionId,
        hop: u32,
        branches: u32,
        pruned_local: u32,
        pruned_no_new_info: u32,
    }
    /// Matching cancelled completely: `scions` proven-garbage scions will
    /// be deleted.
    CycleDetected = "cycle_detected" in Detections {
        id: DetectionId,
        hop: u32,
        scions: u32,
    }
    /// §3.2 invocation-counter barrier fired.
    DetectionAborted = "detection_aborted" in Detections {
        id: DetectionId,
        hop: u32,
        ref_id: RefId = "ref",
        source_ic: u64,
        target_ic: u64,
    }
    DetectionDropped = "detection_dropped" in Detections {
        id: DetectionId,
        hop: u32,
        reason: DropReason,
    }
    DetectionTerminated = "detection_terminated" in Detections {
        id: DetectionId,
        hop: u32,
        reason: TermReason,
    }
    /// A cycle verdict deleted this scion at the recording (owning)
    /// process.
    ScionDeleted = "scion_deleted" in Detections {
        scion: RefId,
        incarnation: u32,
    }
    /// Reference listing: a `NewSetStubs` left for `to`.
    NssSent = "nss_sent" in Nss {
        to: ProcId,
        seq: u64 = "nss_seq",
        live_refs: u32,
        retry: bool,
    }
    /// A `NewSetStubs` from `from` was applied (or rejected as stale).
    NssApplied = "nss_applied" in Nss {
        from: ProcId,
        seq: u64 = "nss_seq",
        removed: u32,
        stale: bool,
    }
    /// Threaded runtime: an NSS acknowledgement left for `to`.
    NssAcked = "nss_acked" in Nss {
        to: ProcId,
        seq: u64 = "nss_seq",
    }
    /// A candidate scan picked `picked` scions and deferred `deferred`
    /// (backoff window / scan cap).
    CandidatesScanned = "candidates_scanned" in Detections {
        picked: u32,
        deferred: u32,
    }
    PhaseStarted = "phase_started" in Phases {
        phase: Phase,
    }
    PhaseEnded = "phase_ended" in Phases {
        phase: Phase,
        nanos: u64,
    }
    /// Threaded runtime: this worker cast its quiescence vote after
    /// `sweep` sweeps.
    VoteCast = "vote_cast" in Quiescence {
        sweep: u64,
    }
    /// Threaded runtime: a voted worker received a message and rescinded.
    VoteRescinded = "vote_rescinded" in Quiescence {
        sweep: u64,
    }
    /// Threaded runtime: a concurrent-mutator thread performed one
    /// operation touching the recording process. Lamport-stamped like any
    /// other event, so `--critical-path` waterfalls show collector-vs-
    /// mutator interference on the same causal axis. `ref_id` names the
    /// remote reference involved, when one is (allocate/drop-root carry
    /// none).
    MutatorOp = "mutator_op" in Mutator {
        op: MutatorOpKind,
        ref_id: Option<RefId> = "ref",
    }
}

impl Event {
    /// The detection this event belongs to, if any.
    pub fn detection_id(&self) -> Option<DetectionId> {
        match *self {
            Event::DetectionStarted { id, .. }
            | Event::CdmSent { id, .. }
            | Event::CdmDelivered { id, .. }
            | Event::CdmForwarded { id, .. }
            | Event::CycleDetected { id, .. }
            | Event::DetectionAborted { id, .. }
            | Event::DetectionDropped { id, .. }
            | Event::DetectionTerminated { id, .. } => Some(id),
            _ => None,
        }
    }

    /// Whether this event ends its detection (exactly one terminal closes
    /// every processing step that does not forward).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Event::CycleDetected { .. }
                | Event::DetectionAborted { .. }
                | Event::DetectionDropped { .. }
                | Event::DetectionTerminated { .. }
        )
    }

    /// Whether `filter` admits this event.
    pub fn passes(&self, filter: &TraceFilter) -> bool {
        match self.family() {
            Family::Detections => filter.detections,
            Family::Nss => filter.nss,
            Family::Phases => filter.phases,
            Family::Quiescence => filter.quiescence,
            Family::Mutator => filter.mutator,
        }
    }
}

/// An [`Event`] as it sits in a ring buffer: stamped with a globally
/// unique, totally ordered sequence number (one shared atomic across all
/// processes of a run), the recording process, and the recording
/// process's clock.
#[derive(Clone, Debug, PartialEq)]
pub struct Recorded {
    pub seq: u64,
    pub at: SimTime,
    pub proc: ProcId,
    /// Lamport stamp assigned by the recording process's logical clock:
    /// starts at 1 and strictly increases per process. `0` only on events
    /// parsed from an artifact line without `lc`; the checkers skip those.
    pub lamport: u64,
    pub event: Event,
}

impl Recorded {
    /// One flat JSON object per event — the JSONL schema (documented in
    /// docs/OBSERVABILITY.md). The `lc` key is emitted only for stamped
    /// events.
    pub fn to_json(&self) -> Value {
        let mut v = json!({
            "seq": self.seq,
            "at_us": self.at.0,
            "proc": self.proc.0,
            "type": self.event.kind(),
        });
        let obj = match &mut v {
            Value::Object(m) => m,
            _ => unreachable!(),
        };
        if self.lamport > 0 {
            obj.insert("lc".into(), json!(self.lamport));
        }
        self.event.payload_into(obj);
        v
    }

    /// Inverse of [`Recorded::to_json`], for re-ingesting JSONL exports
    /// (`acdgc-report`). `None` when the object is not an event line.
    /// A missing `lc` parses as 0, so artifacts without stamps still load.
    pub fn from_json(v: &Value) -> Option<Recorded> {
        let m = match v {
            Value::Object(m) => m,
            _ => return None,
        };
        let kind = field_str(m, "type")?;
        Some(Recorded {
            seq: field_u64(m, "seq")?,
            at: SimTime(field_u64(m, "at_us")?),
            proc: ProcId(field_u16(m, "proc")?),
            lamport: field_u64(m, "lc").unwrap_or(0),
            event: Event::from_json(kind, m)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_classification() {
        let id = DetectionId(1);
        assert!(Event::CycleDetected {
            id,
            hop: 3,
            scions: 4
        }
        .is_terminal());
        assert!(Event::DetectionTerminated {
            id,
            hop: 0,
            reason: TermReason::NoStubs
        }
        .is_terminal());
        assert!(!Event::DetectionStarted {
            id,
            scion: RefId(9)
        }
        .is_terminal());
        assert!(!Event::CdmForwarded {
            id,
            hop: 1,
            branches: 2,
            pruned_local: 0,
            pruned_no_new_info: 0
        }
        .is_terminal());
    }

    #[test]
    fn filter_routes_families() {
        let only_nss = TraceFilter {
            detections: false,
            nss: true,
            phases: false,
            quiescence: false,
            mutator: false,
        };
        assert!(Event::NssAcked {
            to: ProcId(1),
            seq: 3
        }
        .passes(&only_nss));
        assert!(!Event::PhaseStarted { phase: Phase::Lgc }.passes(&only_nss));
        assert!(!Event::VoteCast { sweep: 2 }.passes(&only_nss));
        assert!(!Event::DetectionStarted {
            id: DetectionId(0),
            scion: RefId(1)
        }
        .passes(&only_nss));
        assert!(!Event::MutatorOp {
            op: MutatorOpKind::Invoke,
            ref_id: Some(RefId(4))
        }
        .passes(&only_nss));
        let only_mutator = TraceFilter {
            detections: false,
            nss: false,
            phases: false,
            quiescence: false,
            mutator: true,
        };
        assert!(Event::MutatorOp {
            op: MutatorOpKind::Allocate,
            ref_id: None
        }
        .passes(&only_mutator));
    }

    #[test]
    fn json_carries_discriminant_and_payload() {
        let r = Recorded {
            seq: 17,
            at: SimTime(42),
            proc: ProcId(3),
            lamport: 9,
            event: Event::CdmSent {
                id: DetectionId(7),
                to: ProcId(4),
                via: RefId(19),
                hop: 2,
                sources: 3,
                targets: 2,
                bytes: 120,
            },
        };
        let line = serde_json::to_string(&r.to_json()).unwrap();
        assert!(line.contains("\"type\":\"cdm_sent\""), "{line}");
        assert!(line.contains("\"seq\":17"), "{line}");
        assert!(line.contains("\"hop\":2"), "{line}");
        assert!(line.contains("\"lc\":9"), "{line}");
    }

    #[test]
    fn unclocked_events_omit_the_lamport_key_and_parse_back_as_zero() {
        let r = Recorded {
            seq: 1,
            at: SimTime(2),
            proc: ProcId(0),
            lamport: 0,
            event: Event::VoteCast { sweep: 4 },
        };
        let line = serde_json::to_string(&r.to_json()).unwrap();
        assert!(!line.contains("\"lc\""), "{line}");
        let parsed = serde_json::from_str(&line).unwrap();
        let back = Recorded::from_json(&parsed).unwrap();
        assert_eq!(back.lamport, 0);
        assert_eq!(back, r);
    }

    /// Every variant must survive a JSON round trip exactly — the report
    /// CLI rebuilds detections from the exported lines.
    #[test]
    fn every_variant_round_trips_through_json() {
        let id = DetectionId(7);
        let events = vec![
            Event::DetectionStarted {
                id,
                scion: RefId(3),
            },
            Event::CdmSent {
                id,
                to: ProcId(4),
                via: RefId(19),
                hop: 2,
                sources: 3,
                targets: 2,
                bytes: 120,
            },
            Event::CdmDelivered {
                id,
                via: RefId(19),
                hop: 2,
                sources: 3,
                targets: 2,
                bytes: 120,
                from: ProcId(1),
                sent_lc: 41,
            },
            Event::CdmForwarded {
                id,
                hop: 2,
                branches: 2,
                pruned_local: 1,
                pruned_no_new_info: 0,
            },
            Event::CycleDetected {
                id,
                hop: 5,
                scions: 4,
            },
            Event::DetectionAborted {
                id,
                hop: 1,
                ref_id: RefId(2),
                source_ic: 10,
                target_ic: 11,
            },
            Event::DetectionDropped {
                id,
                hop: 9,
                reason: DropReason::HopCap,
            },
            Event::DetectionTerminated {
                id,
                hop: 3,
                reason: TermReason::NoNewInformation,
            },
            Event::ScionDeleted {
                scion: RefId(3),
                incarnation: 2,
            },
            Event::NssSent {
                to: ProcId(1),
                seq: 5,
                live_refs: 7,
                retry: true,
            },
            Event::NssApplied {
                from: ProcId(2),
                seq: 5,
                removed: 1,
                stale: false,
            },
            Event::NssAcked {
                to: ProcId(2),
                seq: 5,
            },
            Event::CandidatesScanned {
                picked: 2,
                deferred: 1,
            },
            Event::PhaseStarted { phase: Phase::Lgc },
            Event::PhaseEnded {
                phase: Phase::CdmHandling,
                nanos: 12345,
            },
            Event::VoteCast { sweep: 9 },
            Event::VoteRescinded { sweep: 10 },
            Event::MutatorOp {
                op: MutatorOpKind::Export,
                ref_id: Some(RefId(281474976710656)),
            },
            Event::MutatorOp {
                op: MutatorOpKind::DropRoot,
                ref_id: None,
            },
        ];
        for (i, event) in events.into_iter().enumerate() {
            let rec = Recorded {
                seq: i as u64,
                at: SimTime(100 + i as u64),
                proc: ProcId(3),
                lamport: 1 + i as u64,
                event,
            };
            let line = serde_json::to_string(&rec.to_json()).unwrap();
            let parsed = serde_json::from_str(&line).unwrap();
            let back = Recorded::from_json(&parsed)
                .unwrap_or_else(|| panic!("variant failed to parse back: {line}"));
            assert_eq!(back, rec, "{line}");
        }
    }

    #[test]
    fn from_json_rejects_malformed_lines() {
        for bad in [
            r#"{"type":"trace_meta","events":3,"overwritten":0}"#,
            r#"{"type":"vote_cast","seq":1,"at_us":2,"proc":0}"#, // missing sweep
            r#"{"type":"cdm_sent","seq":1,"at_us":2,"proc":0,"id":1}"#, // missing wire fields
            r#"[1,2,3]"#,
        ] {
            let v = serde_json::from_str(bad).unwrap();
            assert!(Recorded::from_json(&v).is_none(), "{bad}");
        }
    }
}
