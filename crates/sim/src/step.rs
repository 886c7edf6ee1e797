//! The protocol step: what one process does in reaction to a local GC
//! tick or an arriving collector message, written once for every runtime.
//!
//! The paper's processes only ever react, and the reaction is the same
//! whoever delivers the stimulus. Each reaction is a method on
//! [`Process`] — [`Process::lgc_step`], [`Process::monitor_step`],
//! [`Process::publish_nss`], [`Process::initiate`] and, for every arriving
//! [`GcMsg`], [`Process::on_message`] — that mutates only that process,
//! counts into one [`Metrics`] ledger, records the trace events, and
//! returns its traffic as data: every send and every credit settlement is
//! appended, in call order, to the [`Effect`] buffer its [`Step`] carries.
//! The drivers ([`crate::System`]: event queue + simulated clock + oracle
//! audit; [`crate::threaded`]: channels + locks + quiescence + the credit
//! ledger) drain that buffer after each step and decide only *how* a
//! message travels; a test can hold, reorder, drop or replay it.

use crate::metrics::Metrics;
use crate::oracle::LiveSet;
use crate::process::Process;
use acdgc_dcda::{Cdm, Outcome, TerminateReason, FULL_CREDIT};
use acdgc_model::{DetectionId, GcConfig, IntegrationMode, ProcId, RefId, SimTime};
use acdgc_obs::{DropReason, Event, Phase, TermReason};
use acdgc_remoting::{apply_new_set_stubs, build_new_set_stubs, NewSetStubs};

/// A dying derivation's credit on its way back to the detection's
/// initiator (Dijkstra–Scholten weight throwing). `clean` is true only
/// for terminal outcomes that re-running on unchanged state would
/// reproduce as "not a cycle" (see [`Process::apply_outcome`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Credit {
    /// The detection the credit belongs to.
    pub id: DetectionId,
    /// The process that started the detection and keeps its ledger.
    pub initiator: ProcId,
    /// How much of [`FULL_CREDIT`] this derivation carried.
    pub credit: u64,
    /// Whether the derivation ended conclusively (proves liveness).
    pub clean: bool,
}

/// One collector message: what a step sends and what
/// [`Process::on_message`] reacts to. Every kind may be lost, duplicated
/// or reordered (DESIGN.md "Drop recovery").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GcMsg {
    /// Reference-listing update.
    Nss(NewSetStubs),
    /// Acknowledges the receiver's `NewSetStubs` up to `seq` when no set
    /// goes back to carry it (a lost one is covered by the set's retry).
    NssAck {
        /// The newest sequence number applied from the receiver.
        seq: u64,
    },
    /// A cycle detection message travelling along reference `via`.
    Cdm {
        /// The reference the CDM travels along.
        via: RefId,
        /// The detection message itself.
        cdm: Cdm,
    },
    /// Cycle verdict follow-up: the sender proved the cycle containing
    /// this scion garbage; the owner deletes it (idempotent — a lost
    /// deletion is finished off by reference listing once the other
    /// deletions let the LGCs unravel the objects). `ic` is the invocation
    /// counter the verdict witnessed: the owner re-checks it before
    /// deleting (lazy IC barrier against a concurrent mutator).
    DeleteScion {
        /// The scion proven part of a garbage cycle.
        scion: RefId,
        /// The incarnation the verdict witnessed (ABA guard).
        incarnation: u32,
        /// The invocation counter the verdict witnessed.
        ic: u64,
    },
}

impl GcMsg {
    /// Approximate wire size for byte accounting.
    pub fn size_bytes(&self) -> usize {
        match self {
            GcMsg::Nss(nss) => nss.size_bytes(),
            GcMsg::NssAck { .. } => 16,
            GcMsg::Cdm { cdm, .. } => 8 + cdm.size_bytes(),
            GcMsg::DeleteScion { .. } => 24,
        }
    }
}

/// One thing a step hands its driver, in the order the step produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Effect {
    /// A message for `dest`.
    Send {
        /// The receiving process.
        dest: ProcId,
        /// The sender's Lamport clock right after the send's trace record
        /// (`CdmSent`, `NssSent`, `NssAcked`). Every copy carries it
        /// verbatim: for a CDM it is the send's trace identity.
        lamport: u64,
        /// The message.
        msg: GcMsg,
    },
    /// A dead derivation's credit, for its detection's initiator.
    Settle(Credit),
}

/// Everything a step needs from its driver: configuration, the current
/// time, the driver's own merged ledger (every count goes to the
/// process's ledger *and* here), and the buffer the step's effects go to.
pub struct Step<'a> {
    /// The collector configuration.
    pub cfg: &'a GcConfig,
    /// The driver's clock at this step.
    pub now: SimTime,
    /// The driver's merged ledger, if it keeps one beside the processes'.
    pub merged: Option<&'a mut Metrics>,
    /// Where the step appends what it sends and settles. The driver owns
    /// it, drains it after the step and reuses it.
    pub out: &'a mut Vec<Effect>,
}

impl Step<'_> {
    fn count(&mut self, own: &mut Metrics, f: impl Fn(&mut Metrics)) {
        f(own);
        if let Some(merged) = self.merged.as_deref_mut() {
            f(merged);
        }
    }

    /// Append a message from `from`, stamped with its clock as of now.
    fn send(&mut self, from: &Process, dest: ProcId, msg: GcMsg) {
        let lamport = from.obs.clock_value();
        self.out.push(Effect::Send { dest, lamport, msg });
    }
}

/// Scions a step deleted at its process on a cycle verdict, each with the
/// process that held the reference — what an oracle audit needs.
pub type DeletedScions = Vec<(RefId, ProcId)>;

/// What one local collection did, before anything leaves the process.
pub struct LgcWork {
    /// Objects reclaimed by the sweep.
    pub freed: u64,
    /// Stubs the mark did not reach (removed or condemned, per mode).
    pub dead_stubs: usize,
    /// Scions removed before the mark by a saved set that could not judge
    /// them while they were pinned (`sweep_deferred_nss`).
    pub rejudged_scions: u64,
    /// Freed objects the oracle considered live — the safety audit; zero
    /// in safe configurations and when no oracle set was supplied.
    pub unsafe_freed: u64,
    /// Reference-listing messages built from the surviving stub table,
    /// one per peer in peer order, not yet sent.
    pub nss: Vec<(ProcId, NewSetStubs)>,
}

impl LgcWork {
    /// Count this collection into a ledger.
    pub fn count_into(&self, m: &mut Metrics) {
        m.lgc_runs += 1;
        m.objects_reclaimed += self.freed;
        m.unsafe_frees += self.unsafe_freed;
        m.scions_reclaimed_acyclic += self.rejudged_scions;
    }
}

impl Process {
    /// The surviving stub sets, one `NewSetStubs` per peer in index order.
    fn nss_broadcast(&mut self, num_procs: usize, now: SimTime) -> Vec<(ProcId, NewSetStubs)> {
        // `build_new_set_stubs` skips this process itself.
        let peers: Vec<ProcId> = (0..num_procs as u16).map(ProcId).collect();
        build_new_set_stubs(&mut self.tables, &peers, now)
    }

    /// One local collection: re-judge scions a saved set skipped while
    /// they were pinned (an unchanged set is never resent, so nothing else
    /// would), mark the heap with the engine's Tarjan pass and sweep it
    /// (the condensation stays sealed for the next snapshot), audit the
    /// freed set against `oracle_live` when given, handle stub death per
    /// integration mode, and build (but do not send) the `NewSetStubs`
    /// broadcast. Touches only this process and counts into its own
    /// ledger, so many processes can run it concurrently; a driver with a
    /// merged ledger mirrors [`LgcWork::count_into`] afterwards.
    pub fn lgc_step(
        &mut self,
        cfg: &GcConfig,
        num_procs: usize,
        now: SimTime,
        oracle_live: Option<&LiveSet>,
    ) -> LgcWork {
        let rejudged_scions = self.tables.sweep_deferred_nss().len() as u64;
        let targets = self.tables.scion_target_slots();
        let started = self.obs.begin(now, Phase::Lgc);
        let swept = self.engine.collect(&mut self.heap, &targets);
        self.obs.end(now, Phase::Lgc, started);
        let unsafe_freed = oracle_live.map_or(0, |live| {
            swept.freed.iter().filter(|f| live.contains(f)).count() as u64
        });
        let freed = swept.freed.len() as u64;
        let live_stubs = swept.live_stubs;
        let dead: Vec<RefId> = self
            .tables
            .stubs()
            .map(|s| s.ref_id)
            .filter(|r| live_stubs.binary_search(r).is_err())
            .collect();
        match cfg.integration {
            IntegrationMode::VmIntegrated => {
                self.tables.remove_dead_stubs(&dead);
            }
            IntegrationMode::WeakRefMonitor => {
                self.tables.condemn_stubs(&dead);
                for &live_ref in live_stubs {
                    self.tables.pardon_stub(live_ref);
                }
            }
        }
        let work = LgcWork {
            freed,
            dead_stubs: dead.len(),
            rejudged_scions,
            unsafe_freed,
            nss: self.nss_broadcast(num_procs, now),
        };
        work.count_into(&mut self.metrics);
        work
    }

    /// The OBIWAN monitor pass: reclaim condemned stubs and build the
    /// corrected stub sets for the driver to send. Empty outside
    /// [`IntegrationMode::WeakRefMonitor`] and when nothing was reclaimed.
    pub fn monitor_step(
        &mut self,
        cx: &mut Step<'_>,
        num_procs: usize,
    ) -> Vec<(ProcId, NewSetStubs)> {
        if cx.cfg.integration != IntegrationMode::WeakRefMonitor {
            return Vec::new();
        }
        cx.count(&mut self.metrics, |m| m.monitor_passes += 1);
        if self.tables.monitor_pass().is_empty() {
            return Vec::new();
        }
        self.nss_broadcast(num_procs, cx.now)
    }

    /// Send those of the sets one collection just built that the sender's
    /// rule ([`acdgc_remoting::RemotingTables::offer_nss`]) picks, and
    /// discharge every acknowledgement owed to a peer: it rides the set
    /// going to that peer, or travels bare when no set goes. The only
    /// sender of `NewSetStubs` and of bare acknowledgements. Returns
    /// whether a transmitted set still awaits its acknowledgement.
    pub fn publish_nss(&mut self, cx: &mut Step<'_>, sets: Vec<(ProcId, NewSetStubs)>) -> bool {
        for (dest, nss) in sets {
            let owed = self.tables.take_nss_ack(dest);
            let offer = self
                .tables
                .offer_nss(dest, nss.seq, nss.lgc_at, cx.cfg.lgc_period);
            if let Some(retry) = offer {
                cx.count(&mut self.metrics, |m| {
                    m.nss_sent += 1;
                    m.nss_retries += u64::from(retry);
                });
                let (seq, live_refs) = (nss.seq, nss.live_refs.len() as u32);
                let sent = Event::NssSent {
                    to: dest,
                    seq,
                    live_refs,
                    retry,
                };
                self.obs.record(cx.now, sent);
                cx.send(self, dest, GcMsg::Nss(nss));
            } else if let Some(seq) = owed {
                cx.count(&mut self.metrics, |m| m.nss_acks_sent += 1);
                self.obs.record(cx.now, Event::NssAcked { to: dest, seq });
                cx.send(self, dest, GcMsg::NssAck { seq });
            }
        }
        self.tables.nss_unconfirmed()
    }

    /// React to one arriving collector message: the only arrival
    /// dispatcher. `from` and `sent_lc` are the sender and the Lamport
    /// clock its envelope carried (for a CDM, the stamp of the `CdmSent`
    /// it is a copy of; trace-only). Returns the scions a cycle verdict
    /// deleted here.
    pub fn on_message(
        &mut self,
        cx: &mut Step<'_>,
        from: ProcId,
        sent_lc: u64,
        msg: GcMsg,
    ) -> DeletedScions {
        match msg {
            GcMsg::Nss(nss) => self.on_nss(cx, &nss),
            // A bare acknowledgement: `from` applied this process's sets
            // up to `seq`.
            GcMsg::NssAck { seq } => self.tables.confirm_nss(from, seq),
            GcMsg::Cdm { via, cdm } => return self.on_cdm(cx, via, cdm, from, sent_lc),
            GcMsg::DeleteScion {
                scion,
                incarnation,
                ic,
            } => {
                return self
                    .on_delete_scion(cx, scion, incarnation, ic)
                    .into_iter()
                    .collect();
            }
        }
        Vec::new()
    }

    /// Apply a `NewSetStubs` from a peer (reference-listing acyclic DGC),
    /// and the acknowledgement it carries. A fresh set leaves an
    /// acknowledgement owed to its sender until the next `publish_nss`.
    fn on_nss(&mut self, cx: &mut Step<'_>, nss: &NewSetStubs) {
        self.tables.confirm_nss(nss.from, nss.ack);
        let applied = apply_new_set_stubs(&mut self.tables, nss);
        // Recorded for stale rejections too: the case post-mortems need.
        self.obs.record(
            cx.now,
            Event::NssApplied {
                from: nss.from,
                seq: nss.seq,
                removed: applied.removed.len() as u32,
                stale: applied.stale,
            },
        );
        if applied.stale {
            cx.count(&mut self.metrics, |m| m.nss_stale += 1);
        } else {
            let removed = applied.removed.len() as u64;
            cx.count(&mut self.metrics, |m| {
                m.nss_applied += 1;
                m.scions_reclaimed_acyclic += removed;
            });
        }
    }

    /// Start one detection from candidate `scion`. `next_id` is called
    /// only if the scion is in the published summary (an unknown scion
    /// consumes no detection id).
    pub fn initiate(
        &mut self,
        cx: &mut Step<'_>,
        scion: RefId,
        next_id: impl FnOnce() -> DetectionId,
    ) -> DeletedScions {
        let Some(summary_scion) = self.summary.scion(scion) else {
            cx.count(&mut self.metrics, |m| m.detections_dropped_no_scion += 1);
            return Vec::new();
        };
        let me = self.proc();
        let cdm = Cdm::initiate(next_id(), me, scion, summary_scion.ic);
        let id = cdm.detection_id;
        let sw = self.obs.stopwatch();
        let outcome = acdgc_dcda::initiate(&self.summary, cdm, scion, cx.cfg);
        cx.count(&mut self.metrics, |m| m.detections_started += 1);
        self.obs
            .record(cx.now, Event::DetectionStarted { id, scion });
        let deleted = self.apply_outcome(cx, id, 0, me, FULL_CREDIT, outcome);
        self.obs.lap(Phase::CdmHandling, sw);
        deleted
    }

    /// Deliver one CDM that arrived through reference `via`: expand it
    /// against the published summary and act on the outcome.
    fn on_cdm(
        &mut self,
        cx: &mut Step<'_>,
        via: RefId,
        cdm: Cdm,
        from: ProcId,
        sent_lc: u64,
    ) -> DeletedScions {
        let id = cdm.detection_id;
        // This processing step's hop depth (deliver increments the wire
        // value before expanding).
        let hop = cdm.hops + 1;
        let (initiator, credit) = (cdm.initiator, cdm.credit);
        cx.count(&mut self.metrics, |m| m.cdms_delivered += 1);
        self.obs.record(
            cx.now,
            Event::CdmDelivered {
                id,
                via,
                hop,
                sources: cdm.source.len() as u32,
                targets: cdm.target.len() as u32,
                bytes: (8 + cdm.size_bytes()) as u32,
                from,
                sent_lc,
            },
        );
        let sw = self.obs.stopwatch();
        let outcome = acdgc_dcda::deliver(&self.summary, cdm, via, cx.cfg);
        let deleted = self.apply_outcome(cx, id, hop, initiator, credit, outcome);
        self.obs.lap(Phase::CdmHandling, sw);
        deleted
    }

    /// Apply a cycle verdict to one scion this process owns. Three guards
    /// refuse it: the pin (an export/invocation is in flight right now),
    /// the incarnation (ABA — a recreated scion under the same id is a
    /// different reference), and the lazy IC barrier (the counter moved
    /// since the verdict witnessed it, so the mutator used the reference
    /// after the walk and the verdict is stale; part of the barrier, so
    /// the A1 ablation disables it too and stays demonstrably unsafe).
    /// Returns the scion and the process that held the reference if the
    /// scion was deleted.
    fn on_delete_scion(
        &mut self,
        cx: &mut Step<'_>,
        scion: RefId,
        incarnation: u32,
        ic: u64,
    ) -> Option<(RefId, ProcId)> {
        let barrier = cx.cfg.ic_barrier;
        self.tables.scion(scion).filter(|s| {
            s.pinned == 0 && s.incarnation == incarnation && (!barrier || s.ic == ic)
        })?;
        let removed = self.tables.remove_scion(scion)?;
        self.obs
            .record(cx.now, Event::ScionDeleted { scion, incarnation });
        cx.count(&mut self.metrics, |m| m.scions_deleted_by_dcda += 1);
        self.summary.scions.remove(&scion);
        Some((scion, removed.from_proc))
    }

    /// Act on one processing step's [`Outcome`]: counters, trace events,
    /// and the resulting traffic. `id` and `hop` identify the step (`hop`
    /// 0 for initiations); `initiator` and `credit` are what the expanded
    /// CDM carried. Every terminal outcome settles exactly that credit
    /// once; forwarded branches carry it onward.
    pub fn apply_outcome(
        &mut self,
        cx: &mut Step<'_>,
        id: DetectionId,
        hop: u32,
        initiator: ProcId,
        credit: u64,
        outcome: Outcome,
    ) -> DeletedScions {
        let now = cx.now;
        let settle = |clean| Credit {
            id,
            initiator,
            credit,
            clean,
        };
        let mut deleted = Vec::new();
        match outcome {
            Outcome::Forwarded {
                out: list,
                branches_pruned_local,
                branches_no_new_info,
                branches_starved,
            } => {
                cx.count(&mut self.metrics, |m| {
                    m.branches_pruned_local += u64::from(branches_pruned_local);
                    m.branches_no_new_info += u64::from(branches_no_new_info);
                });
                // Slack-pruned branches are harmless (their pairs were
                // already in the algebra, so an ancestor walked past
                // them), but a budget-starved branch carried *new*
                // territory that was cut unexplored — mark the walk
                // incomplete with a zero-credit unclean settlement (the
                // credit itself is conserved in the survivors).
                if branches_starved > 0 {
                    let starved = Credit {
                        credit: 0,
                        ..settle(false)
                    };
                    cx.out.push(Effect::Settle(starved));
                }
                self.obs.record(
                    now,
                    Event::CdmForwarded {
                        id,
                        hop,
                        branches: list.len() as u32,
                        pruned_local: branches_pruned_local,
                        pruned_no_new_info: branches_no_new_info,
                    },
                );
                for ob in list {
                    let size = 8 + ob.cdm.size_bytes();
                    cx.count(&mut self.metrics, |m| {
                        m.cdms_sent += 1;
                        m.max_cdm_bytes = m.max_cdm_bytes.max(size as u64);
                    });
                    self.obs.record(
                        now,
                        Event::CdmSent {
                            id,
                            to: ob.dest,
                            via: ob.via,
                            // Hop depth at which the receiver will process
                            // it (the detector increments on delivery).
                            hop: ob.cdm.hops + 1,
                            sources: ob.cdm.source.len() as u32,
                            targets: ob.cdm.target.len() as u32,
                            bytes: size as u32,
                        },
                    );
                    let (via, cdm) = (ob.via, ob.cdm);
                    cx.send(self, ob.dest, GcMsg::Cdm { via, cdm });
                }
            }
            Outcome::CycleFound { delete } => {
                // The derivation dies here, but a cycle verdict is the
                // opposite of a liveness proof: unclean, so a concurrent
                // sibling branch can never launder it into a "proven
                // live" suppression.
                cx.out.push(Effect::Settle(settle(false)));
                cx.count(&mut self.metrics, |m| m.cycles_detected += 1);
                self.obs.record(
                    now,
                    Event::CycleDetected {
                        id,
                        hop,
                        scions: delete.len() as u32,
                    },
                );
                let me = self.proc();
                for (owner, scion, incarnation, ic) in delete {
                    if owner != me {
                        let msg = GcMsg::DeleteScion {
                            scion,
                            incarnation,
                            ic,
                        };
                        cx.send(self, owner, msg);
                    } else {
                        deleted.extend(self.on_delete_scion(cx, scion, incarnation, ic));
                    }
                }
            }
            Outcome::DroppedNoScion => {
                cx.out.push(Effect::Settle(settle(false)));
                cx.count(&mut self.metrics, |m| m.detections_dropped_no_scion += 1);
                self.obs.record(
                    now,
                    Event::DetectionDropped {
                        id,
                        hop,
                        reason: DropReason::NoScion,
                    },
                );
            }
            Outcome::AbortedIcMismatch {
                ref_id,
                source_ic,
                target_ic,
            } => {
                cx.out.push(Effect::Settle(settle(false)));
                cx.count(&mut self.metrics, |m| m.detections_aborted_ic += 1);
                self.obs.record(
                    now,
                    Event::DetectionAborted {
                        id,
                        hop,
                        ref_id,
                        source_ic,
                        target_ic,
                    },
                );
            }
            Outcome::DroppedHopCap => {
                cx.out.push(Effect::Settle(settle(false)));
                cx.count(&mut self.metrics, |m| m.detections_dropped_hops += 1);
                self.obs.record(
                    now,
                    Event::DetectionDropped {
                        id,
                        hop,
                        reason: DropReason::HopCap,
                    },
                );
            }
            Outcome::Terminated(reason) => {
                cx.out.push(Effect::Settle(settle(reason.is_conclusive())));
                let (field, obs_reason): (fn(&mut Metrics) -> &mut u64, _) = match reason {
                    TerminateReason::NoStubs => (
                        |m| &mut m.detections_terminated_no_stubs,
                        TermReason::NoStubs,
                    ),
                    TerminateReason::AllStubsLocallyReachable => (
                        |m| &mut m.detections_terminated_local,
                        TermReason::AllStubsLocallyReachable,
                    ),
                    TerminateReason::NoNewInformation => (
                        |m| &mut m.detections_terminated_no_new_info,
                        TermReason::NoNewInformation,
                    ),
                    TerminateReason::BudgetExhausted => (
                        |m| &mut m.detections_terminated_budget,
                        TermReason::BudgetExhausted,
                    ),
                };
                cx.count(&mut self.metrics, |m| *field(m) += 1);
                self.obs.record(
                    now,
                    Event::DetectionTerminated {
                        id,
                        hop,
                        reason: obs_reason,
                    },
                );
            }
        }
        deleted
    }
}
