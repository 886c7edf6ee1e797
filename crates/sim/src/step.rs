//! The protocol step: what one process does in reaction to a local GC
//! tick or an arriving collector message, written once for every runtime.
//!
//! The paper's processes only ever react, and the reaction is the same
//! whoever delivers the stimulus. Each reaction is a method on
//! [`Process`] — [`Process::lgc_step`], [`Process::monitor_step`],
//! [`Process::publish_nss`], [`Process::initiate`], [`Process::on_cdm`],
//! [`Process::on_nss`], [`Process::on_delete_scion`] — that mutates only
//! that process, counts into one [`Metrics`] ledger, records the trace
//! events, and hands the resulting traffic to its driver through an
//! [`Outbox`]. The drivers ([`crate::System`]: event queue + simulated
//! clock + oracle audit; [`crate::threaded`]: channels + locks + quiescence
//! + the credit ledger) decide only *how* a message travels.

use crate::metrics::Metrics;
use crate::process::Process;
use acdgc_dcda::{Cdm, Outcome, TerminateReason, FULL_CREDIT};
use acdgc_heap::lgc;
use acdgc_model::{DetectionId, GcConfig, IntegrationMode, ObjId, ProcId, RefId, SimTime};
use acdgc_obs::{DropReason, Event, Phase, TermReason};
use acdgc_remoting::{apply_new_set_stubs, build_new_set_stubs, NewSetStubs};
use rustc_hash::FxHashSet;

/// A dying derivation's credit on its way back to the detection's
/// initiator (Dijkstra–Scholten weight throwing). `clean` is true only
/// for terminal outcomes that re-running on unchanged state would
/// reproduce as "not a cycle" (see [`Process::on_cdm`]).
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

/// Where a step's traffic goes. `from` is the stepping process: its id,
/// its Lamport clock as of the send, which every copy of the message
/// must carry verbatim (a `send_cdm` follows its `CdmSent` record with no
/// tick in between, so that clock is the CDM's trace identity), and its
/// ledger, where a driver counts what became of the send.
pub trait Outbox {
    /// Forward one CDM derivation to `dest` through reference `via`.
    fn send_cdm(&mut self, from: &mut Process, dest: ProcId, via: RefId, cdm: Cdm);
    /// Ask `owner` to delete a scion a cycle verdict proved garbage,
    /// re-checking the witnessed incarnation and invocation counter.
    fn send_delete_scion(
        &mut self,
        from: &mut Process,
        owner: ProcId,
        scion: RefId,
        incarnation: u32,
        ic: u64,
    );
    /// Return a dead derivation's credit to its initiator.
    fn settle_credit(&mut self, from: &mut Process, credit: Credit);
    /// Carry one reference-listing set to `dest`.
    fn send_nss(&mut self, from: &mut Process, dest: ProcId, nss: NewSetStubs);
}

/// Everything a message-driven step needs from its driver: configuration,
/// the current time, the driver's own merged ledger (every count goes to
/// the process's ledger *and* here), and the outbox.
pub struct Step<'a, O: Outbox> {
    /// The collector configuration.
    pub cfg: &'a GcConfig,
    /// The driver's clock at this step.
    pub now: SimTime,
    /// The driver's merged ledger, if it keeps one beside the processes'.
    pub merged: Option<&'a mut Metrics>,
    /// Where the step's traffic goes.
    pub out: &'a mut O,
}

impl<O: Outbox> Step<'_, O> {
    fn count(&mut self, own: &mut Metrics, f: impl Fn(&mut Metrics)) {
        f(own);
        if let Some(merged) = self.merged.as_deref_mut() {
            f(merged);
        }
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
    }
}

impl Process {
    /// The surviving stub sets, one `NewSetStubs` per peer in index order.
    fn nss_broadcast(&mut self, num_procs: usize, now: SimTime) -> Vec<(ProcId, NewSetStubs)> {
        // `build_new_set_stubs` skips this process itself.
        let peers: Vec<ProcId> = (0..num_procs as u16).map(ProcId).collect();
        build_new_set_stubs(&mut self.tables, &peers, now)
    }

    /// One local collection: trace + sweep the heap, audit the freed set
    /// against `oracle_live` when given, handle stub death per integration
    /// mode, and build (but do not send) the `NewSetStubs` broadcast.
    /// Touches only this process and counts into its own ledger, so many
    /// processes can run it concurrently; a driver with a merged ledger
    /// mirrors [`LgcWork::count_into`] afterwards.
    pub fn lgc_step(
        &mut self,
        cfg: &GcConfig,
        num_procs: usize,
        now: SimTime,
        oracle_live: Option<&FxHashSet<ObjId>>,
    ) -> LgcWork {
        let targets = self.tables.scion_target_slots();
        let started = self.obs.begin(now, Phase::Lgc);
        let result = lgc::collect(&mut self.heap, &targets);
        self.obs.end(now, Phase::Lgc, started);
        let freed = &result.sweep.freed;
        let unsafe_freed = oracle_live.map_or(0, |live| {
            freed.iter().filter(|f| live.contains(f)).count() as u64
        });
        let dead = result
            .mark
            .dead_stubs_among(self.tables.stubs().map(|s| s.ref_id));
        match cfg.integration {
            IntegrationMode::VmIntegrated => {
                self.tables.remove_dead_stubs(&dead);
            }
            IntegrationMode::WeakRefMonitor => {
                self.tables.condemn_stubs(&dead);
                for &live_ref in &result.mark.live_stubs {
                    self.tables.pardon_stub(live_ref);
                }
            }
        }
        let work = LgcWork {
            freed: freed.len() as u64,
            dead_stubs: dead.len(),
            unsafe_freed,
            nss: self.nss_broadcast(num_procs, now),
        };
        work.count_into(&mut self.metrics);
        work
    }

    /// The OBIWAN monitor pass: reclaim condemned stubs and build the
    /// corrected stub sets for the driver to send. Empty outside
    /// [`IntegrationMode::WeakRefMonitor`] and when nothing was reclaimed.
    pub fn monitor_step<O: Outbox>(
        &mut self,
        cx: &mut Step<'_, O>,
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

    /// Put one built set on the wire: the only sender of `NewSetStubs`.
    pub fn send_nss<O: Outbox>(
        &mut self,
        cx: &mut Step<'_, O>,
        dest: ProcId,
        nss: NewSetStubs,
        retry: bool,
    ) {
        cx.count(&mut self.metrics, |m| {
            m.nss_sent += 1;
            m.nss_retries += u64::from(retry);
        });
        self.obs.record(
            cx.now,
            Event::NssSent {
                to: dest,
                seq: nss.seq,
                live_refs: nss.live_refs.len() as u32,
                retry,
            },
        );
        cx.out.send_nss(self, dest, nss);
    }

    /// Send those of the sets one collection just built that the sender's
    /// rule ([`acdgc_remoting::RemotingTables::offer_nss`]) picks — for a
    /// driver that acknowledges sets and must fall silent to terminate.
    /// Returns whether any peer still owes an acknowledgement.
    pub fn publish_nss<O: Outbox>(
        &mut self,
        cx: &mut Step<'_, O>,
        sets: Vec<(ProcId, NewSetStubs)>,
    ) -> bool {
        for (dest, nss) in sets {
            if let Some(retry) = self.tables.offer_nss(dest, nss.seq) {
                self.send_nss(cx, dest, nss, retry);
            }
        }
        self.tables.nss_unconfirmed()
    }

    /// Apply a `NewSetStubs` from a peer (reference-listing acyclic DGC).
    /// Returns the sequence number a driver that acknowledges sets sends
    /// back — a stale one too: the receiver holds fresher information.
    pub fn on_nss<O: Outbox>(&mut self, cx: &mut Step<'_, O>, nss: &NewSetStubs) -> u64 {
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
        nss.seq
    }

    /// Start one detection from candidate `scion`. `next_id` is called
    /// only if the scion is in the published summary (an unknown scion
    /// consumes no detection id).
    pub fn initiate<O: Outbox>(
        &mut self,
        cx: &mut Step<'_, O>,
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
    /// against the published summary and act on the outcome. `from` and
    /// `sent_lc` are the sender and the Lamport clock its envelope carried
    /// — the stamp of the `CdmSent` this is a copy of; trace-only.
    pub fn on_cdm<O: Outbox>(
        &mut self,
        cx: &mut Step<'_, O>,
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
    /// Returns the process that held the reference if the scion was
    /// deleted.
    pub fn on_delete_scion<O: Outbox>(
        &mut self,
        cx: &mut Step<'_, O>,
        scion: RefId,
        incarnation: u32,
        ic: u64,
    ) -> Option<ProcId> {
        let barrier = cx.cfg.ic_barrier;
        self.tables.scion(scion).filter(|s| {
            s.pinned == 0 && s.incarnation == incarnation && (!barrier || s.ic == ic)
        })?;
        let removed = self.tables.remove_scion(scion)?;
        self.obs
            .record(cx.now, Event::ScionDeleted { scion, incarnation });
        cx.count(&mut self.metrics, |m| m.scions_deleted_by_dcda += 1);
        self.summary.scions.remove(&scion);
        Some(removed.from_proc)
    }

    /// Act on one processing step's [`Outcome`]: counters, trace events,
    /// and the resulting traffic. `id` and `hop` identify the step (`hop`
    /// 0 for initiations); `initiator` and `credit` are what the expanded
    /// CDM carried. Every terminal outcome settles exactly that credit
    /// once; forwarded branches carry it onward.
    pub fn apply_outcome<O: Outbox>(
        &mut self,
        cx: &mut Step<'_, O>,
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
                    cx.out.settle_credit(self, starved);
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
                    cx.out.send_cdm(self, ob.dest, ob.via, ob.cdm);
                }
            }
            Outcome::CycleFound { delete } => {
                // The derivation dies here, but a cycle verdict is the
                // opposite of a liveness proof: unclean, so a concurrent
                // sibling branch can never launder it into a "proven
                // live" suppression.
                cx.out.settle_credit(self, settle(false));
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
                        cx.out
                            .send_delete_scion(self, owner, scion, incarnation, ic);
                    } else if let Some(holder) = self.on_delete_scion(cx, scion, incarnation, ic) {
                        deleted.push((scion, holder));
                    }
                }
            }
            Outcome::DroppedNoScion => {
                cx.out.settle_credit(self, settle(false));
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
                cx.out.settle_credit(self, settle(false));
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
                cx.out.settle_credit(self, settle(false));
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
                cx.out.settle_credit(self, settle(reason.is_conclusive()));
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
