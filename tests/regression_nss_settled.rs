//! The `NewSetStubs` sender's rule (docs/ALGORITHM.md deviation #12),
//! driven deterministically: first processes stepped by hand over a
//! queueing outbox, every delivery and loss chosen by the test; then the
//! same rule as `System` runs it.
//!
//! Before the rule moved into the step it compared the content of
//! consecutive sets, so a stub born and dead between two collections of
//! its holder left the set "settled" and the scion made for that stub was
//! never judged — the one-object leak (and, when the orphan fed a garbage
//! cycle, the never-quiescent run) that `tests/concurrent_mutator.rs` hit
//! about one run in five.

use acdgc::dcda::Cdm;
use acdgc::heap::HeapRef;
use acdgc::model::{DetectionId, GcConfig, NetConfig, ObjId, ProcId, RefId, SimTime};
use acdgc::remoting::{NewSetStubs, NSS_RETRY_SWEEPS};
use acdgc::sim::{scenarios, Credit, InvokeSpec, Outbox, Process, Step, System};
use std::collections::VecDeque;

const P0: ProcId = ProcId(0);
const P1: ProcId = ProcId(1);

enum Msg {
    Nss(NewSetStubs),
    Ack(u64),
    Cdm { via: RefId, cdm: Cdm },
    Delete(RefId, u32, u64),
}

/// Everything the steps send, in order: (sender, destination, message).
#[derive(Default)]
struct Wire(VecDeque<(ProcId, ProcId, Msg)>);

impl Outbox for Wire {
    fn send_cdm(&mut self, from: &mut Process, dest: ProcId, via: RefId, cdm: Cdm) {
        self.0.push_back((from.proc(), dest, Msg::Cdm { via, cdm }));
    }
    fn send_delete_scion(&mut self, from: &mut Process, to: ProcId, r: RefId, inc: u32, ic: u64) {
        self.0.push_back((from.proc(), to, Msg::Delete(r, inc, ic)));
    }
    fn settle_credit(&mut self, _: &mut Process, _: Credit) {}
    fn send_nss(&mut self, from: &mut Process, dest: ProcId, nss: NewSetStubs) {
        self.0.push_back((from.proc(), dest, Msg::Nss(nss)));
    }
    fn send_nss_ack(&mut self, from: &mut Process, dest: ProcId, seq: u64) {
        self.0.push_back((from.proc(), dest, Msg::Ack(seq)));
    }
}

/// Two processes, a wire between them and one clock.
struct Pair {
    cfg: GcConfig,
    procs: Vec<Process>,
    wire: Wire,
    clock: u64,
    detections: u64,
}

impl Pair {
    fn new() -> Pair {
        let cfg = GcConfig::manual();
        Pair {
            procs: vec![Process::new(P0, &cfg), Process::new(P1, &cfg)],
            cfg,
            wire: Wire::default(),
            clock: 0,
            detections: 0,
        }
    }

    fn now(&mut self) -> SimTime {
        self.clock += 1;
        SimTime(self.clock)
    }

    /// Run one step at `p` against the wire.
    fn step<R>(&mut self, p: ProcId, f: impl FnOnce(&mut Process, &mut Step<'_, Wire>) -> R) -> R {
        let now = self.now();
        let mut cx = Step {
            cfg: &self.cfg,
            now,
            merged: None,
            out: &mut self.wire,
        };
        f(&mut self.procs[p.index()], &mut cx)
    }

    /// One collection at `p`, its sets offered to the sender's rule.
    /// Returns whether `p` still waits for an acknowledgement.
    fn collect(&mut self, p: ProcId) -> bool {
        let cfg = self.cfg.clone();
        self.step(p, |proc, cx| {
            let work = proc.lgc_step(&cfg, 2, cx.now, None);
            proc.publish_nss(cx, work.nss)
        })
    }

    /// Deliver everything on the wire (and what the deliveries send).
    /// Returns the sets delivered, as (sender, set).
    fn deliver(&mut self) -> Vec<(ProcId, NewSetStubs)> {
        let mut sets = Vec::new();
        while let Some((from, dest, msg)) = self.wire.0.pop_front() {
            match msg {
                Msg::Nss(nss) => {
                    self.step(dest, |proc, cx| proc.on_nss(cx, &nss));
                    sets.push((from, nss));
                }
                Msg::Ack(seq) => self.procs[dest.index()].on_nss_ack(from, seq),
                Msg::Cdm { via, cdm } => {
                    self.step(dest, |proc, cx| proc.on_cdm(cx, via, cdm, from, 0));
                }
                Msg::Delete(r, inc, ic) => {
                    self.step(dest, |proc, cx| proc.on_delete_scion(cx, r, inc, ic));
                }
            }
        }
        sets
    }

    /// Collect both processes and deliver until neither has
    /// reference-listing work in flight.
    fn settle(&mut self) {
        for _ in 0..4 {
            let pending = self.collect(P0) | self.collect(P1);
            self.deliver();
            if !pending {
                return;
            }
        }
        panic!("acknowledged sets must settle");
    }

    /// Snapshot both processes, then start a detection from every
    /// candidate the scans pick.
    fn detect(&mut self) {
        for p in [P0, P1] {
            let now = self.now();
            self.procs[p.index()].refresh_summary(now);
        }
        for p in [P0, P1] {
            let (now, cfg) = (self.now(), self.cfg.clone());
            for scion in self.procs[p.index()].scan(now, &cfg).picked {
                self.detections += 1;
                let id = DetectionId(self.detections);
                self.step(p, |proc, cx| proc.initiate(cx, scion, || id));
            }
        }
    }

    /// A rooted object at `p`.
    fn rooted(&mut self, p: ProcId) -> ObjId {
        let heap = &mut self.procs[p.index()].heap;
        let obj = heap.alloc(1);
        heap.add_root(obj).unwrap();
        obj
    }

    /// `holder -> target` across the wire, through the three lifecycle
    /// steps an export takes.
    fn export(&mut self, holder: ObjId, target: ObjId) -> RefId {
        let (h, o) = (holder.proc.index(), target.proc.index());
        let mint = RefId(100 + self.clock);
        let now = self.now();
        let stub = self.procs[h].tables.stub_for_target(target).cloned();
        let opened =
            self.procs[o]
                .tables
                .open_scion(holder.proc, target, stub.as_ref(), || mint, now);
        let now = self.now();
        self.procs[h]
            .tables
            .open_stub(opened.ref_id, target, opened.ic, now);
        self.procs[h]
            .heap
            .add_ref(holder, HeapRef::Remote(opened.ref_id))
            .unwrap();
        let now = self.now();
        self.procs[o]
            .tables
            .close_scion(opened.ref_id, now)
            .unwrap();
        opened.ref_id
    }

    fn drop_edge(&mut self, holder: ObjId, r: RefId) {
        self.procs[holder.proc.index()]
            .heap
            .remove_ref(holder, HeapRef::Remote(r))
            .unwrap();
    }

    fn alive(&self, obj: ObjId) -> bool {
        self.procs[obj.proc.index()].heap.contains(obj)
    }
}

#[test]
fn a_stub_born_and_dead_between_two_collections_still_gets_its_scion_judged() {
    let mut net = Pair::new();
    let h = net.rooted(P0);
    let t = net.rooted(P1);
    net.settle();
    assert!(!net.collect(P0), "settled: an acknowledged empty set");
    assert!(net.wire.0.is_empty(), "settled means silent");

    // Between two collections of P0: the reference is exported, used
    // and dropped again, and its target loses its root.
    let r = net.export(h, t);
    net.drop_edge(h, r);
    net.procs[1].heap.remove_root(t).unwrap();

    // P0's stub table is what it was when P1 acknowledged it, and still
    // the set must travel: only it can judge the scion made for `r`.
    assert!(net.collect(P0), "a stub was born and died: not settled");
    let sets = net.deliver();
    assert_eq!(sets.len(), 1);
    assert!(sets[0].1.live_refs.is_empty(), "same content as confirmed");
    assert!(
        net.procs[1].tables.scion(r).is_none(),
        "the orphan scion is judged and removed"
    );
    net.collect(P1);
    assert!(!net.alive(t), "its target is reclaimed");
}

#[test]
fn an_orphan_scion_feeding_a_garbage_ring_is_judged_and_the_ring_reclaimed() {
    let mut net = Pair::new();
    let h = net.rooted(P0);
    let t = net.rooted(P1);
    // A 2-ring a <-> b, and `t -> a` sharing P1's one stub for `a`.
    let (a, b) = (net.rooted(P0), net.rooted(P1));
    let ab = net.export(a, b);
    let ba = net.export(b, a);
    assert_eq!(net.export(t, a), ba, "one stub per target per process");
    net.settle();

    // The ring becomes garbage; `t` is exported to `h`, dropped again and
    // unrooted between two collections of P0. While the scion made for
    // that export stands, `t` keeps P1's stub for `a` alive beside `b`, and
    // every walk over the ring ends on a dependency nobody can resolve.
    net.procs[0].heap.remove_root(a).unwrap();
    net.procs[1].heap.remove_root(b).unwrap();
    let r = net.export(h, t);
    net.drop_edge(h, r);
    net.procs[1].heap.remove_root(t).unwrap();

    let mut rounds = 0;
    while net.alive(a) || net.alive(b) || net.alive(t) {
        rounds += 1;
        assert!(rounds <= 6, "ring not reclaimed after {rounds} rounds");
        net.collect(P0);
        net.collect(P1);
        net.deliver();
        net.detect();
        net.deliver();
    }
    assert!(net.alive(h), "the rooted bystander survives");
    for (p, gone) in [(1, ab), (0, ba), (1, r)] {
        assert!(net.procs[p].tables.scion(gone).is_none());
    }
}

#[test]
fn an_old_ack_does_not_settle_newer_content_and_an_unacknowledged_set_is_resent_after_nss_retry_sweeps(
) {
    let mut net = Pair::new();
    let h = net.rooted(P0);
    let (t1, t2) = (net.rooted(P1), net.rooted(P1));
    net.settle();
    let (sender, receiver) = (net.procs[0].metrics, net.procs[1].metrics);
    let r1 = net.export(h, t1);

    assert!(net.collect(P0));
    let first = net.deliver().remove(0).1;
    assert_eq!(first.live_refs, vec![r1]);
    // P1 owes the acknowledgement and has no set for P0 to carry it.
    net.collect(P1);
    let ack = net.wire.0.pop_back().expect("a bare ack");
    assert!(matches!(ack, (P1, P0, Msg::Ack(seq)) if seq == first.seq));
    net.wire.0.clear();

    // New content goes out at once, unacknowledged or not, and is lost...
    let r2 = net.export(h, t2);
    assert!(net.collect(P0));
    let (_, _, Msg::Nss(second)) = net.wire.0.pop_front().expect("a set") else {
        panic!("expected a set");
    };
    assert_eq!(second.live_refs, vec![r1, r2]);
    // ...and the late acknowledgement of the older set does not confirm it.
    net.wire.0.push_back(ack);
    net.deliver();

    for sweep in 1..NSS_RETRY_SWEEPS {
        assert!(net.collect(P0), "sweep {sweep}: still unconfirmed");
        assert!(net.wire.0.is_empty(), "sweep {sweep}: not yet due");
    }
    assert!(net.collect(P0));
    let resent = net.deliver().remove(0).1;
    assert_eq!(resent.live_refs, second.live_refs);
    assert!(resent.seq > second.seq && resent.lgc_at > second.lgc_at);
    let m = net.procs[0].metrics.since(&sender);
    assert_eq!((m.nss_sent, m.nss_retries), (3, 1));

    net.collect(P1);
    net.deliver();
    assert!(!net.collect(P0), "confirmed: settled");
    assert!(net.wire.0.is_empty());
    let m = net.procs[1].metrics.since(&receiver);
    assert_eq!((m.nss_stale, m.nss_acks_sent), (0, 2));
}

/// `n` processes in manual rounds over an instant network.
fn manual(n: usize) -> System {
    System::new(n, GcConfig::manual(), NetConfig::instant(), 1)
}

#[test]
fn a_settled_system_sends_no_sets() {
    let mut sys = manual(16);
    let ids: Vec<ProcId> = (0..16).map(ProcId).collect();
    let live = scenarios::ring(&mut sys, &ids, 2, true);
    scenarios::ring(&mut sys, &ids, 1, false);
    sys.collect_to_fixpoint(40);
    assert_eq!(sys.total_live_objects(), 33, "the anchored ring and anchor");
    assert!(live.anchor.is_some());

    let before = sys.metrics;
    sys.gc_round();
    let round = sys.metrics.since(&before);
    assert_eq!((round.nss_sent, round.nss_acks_sent), (0, 0), "{round:?}");
    assert_eq!(sys.metrics.safety_violations(), 0);
}

#[test]
fn a_lost_set_is_retransmitted_after_one_round_trip() {
    let mut sys = manual(2);
    let a = sys.alloc(P0, 1);
    let b = sys.alloc(P1, 1);
    sys.add_root(a).unwrap();
    let r = sys.create_remote_ref(a, b).unwrap();
    sys.collect_to_fixpoint(8);

    // The stub dies at P0's next collection; the set saying so is lost.
    sys.drop_remote_ref(a, r).unwrap();
    sys.partition_pair(P0, P1);
    sys.gc_round();
    sys.heal_all_partitions();
    assert!(sys.proc(P1).tables.scion(r).is_some(), "the set was lost");

    let mut rounds = 0;
    while sys.total_live_objects() > 1 {
        rounds += 1;
        assert!(rounds <= 3, "orphan not reclaimed in 3 rounds");
        sys.gc_round();
    }
    assert!(sys.proc(P1).tables.scion(r).is_none());
    assert!(sys.metrics.nss_retries >= 1);
    assert_eq!(sys.metrics.safety_violations(), 0);
}

#[test]
fn an_ack_rides_the_reverse_set() {
    let mut sys = manual(2);
    let (a, b) = (sys.alloc(P0, 1), sys.alloc(P1, 1));
    sys.add_root(a).unwrap();
    sys.add_root(b).unwrap();
    sys.collect_to_fixpoint(8);

    // Every round both processes gain a stub toward each other, so each
    // owes its acknowledgement to a peer it sends a set to anyway.
    let before = sys.metrics;
    for _ in 0..4 {
        let (fresh_a, fresh_b) = (sys.alloc(P0, 1), sys.alloc(P1, 1));
        sys.create_remote_ref(a, fresh_b).unwrap();
        sys.create_remote_ref(b, fresh_a).unwrap();
        sys.gc_round();
    }
    let changing = sys.metrics.since(&before);
    assert_eq!((changing.nss_sent, changing.nss_acks_sent), (8, 0));

    // Once the stubs stand still, the last sets are acknowledged bare.
    let before = sys.metrics;
    sys.gc_round();
    sys.gc_round();
    let settling = sys.metrics.since(&before);
    assert_eq!((settling.nss_sent, settling.nss_acks_sent), (0, 2));
    for (p, peer) in [(P0, P1), (P1, P0)] {
        let state = sys.proc(p).tables.nss_peer_state(peer);
        assert!(state.acked && !state.ack_owed, "{p}: {state:?}");
    }
}

#[test]
fn a_scion_pinned_when_its_set_arrived_is_judged_once_unpinned() {
    let mut sys = manual(2);
    let a = sys.alloc(P0, 1);
    let b = sys.alloc(P1, 1);
    sys.add_root(a).unwrap();
    let r = sys.create_remote_ref(a, b).unwrap();
    sys.collect_to_fixpoint(8);

    // An invocation through `r` is in flight while its stub dies: the set
    // saying so arrives at a pinned scion and may not judge it.
    sys.proc_mut(P1).tables.pin_scion(r).unwrap();
    sys.drop_remote_ref(a, r).unwrap();
    sys.gc_round();
    assert!(sys.proc(P1).tables.scion(r).is_some(), "pinned: skipped");

    // The call lands. P0's stubs do not change again, so no set comes;
    // the saved one judges the scion before P1's next mark.
    sys.proc_mut(P1).tables.unpin_scion(r).unwrap();
    let before = sys.metrics;
    sys.gc_round();
    assert!(sys.proc(P1).tables.scion(r).is_none());
    assert!(
        !sys.proc(P1).heap.contains(b),
        "freed in the same collection"
    );
    assert_eq!(sys.metrics.since(&before).nss_sent, 0);
    assert_eq!(sys.metrics.safety_violations(), 0);
}

#[test]
fn an_import_nobody_holds_is_still_judged() {
    let mut sys = manual(2);
    let a = sys.alloc(P0, 1);
    let b = sys.alloc(P1, 1);
    let c = sys.alloc(P1, 1);
    sys.add_root(a).unwrap();
    sys.add_root(b).unwrap();
    sys.add_local_ref(b, c).unwrap();
    let r = sys.create_remote_ref(a, b).unwrap();
    sys.collect_to_fixpoint(8);

    // The reply exports `c` to P0 with no object to receive it: P1 holds a
    // scion for a stub P0 never opens, and P0's stub table does not change.
    let spec = InvokeSpec {
        reply_exports: vec![c],
        ..InvokeSpec::default()
    };
    sys.invoke(P0, r, spec).unwrap();
    sys.drain_network();
    sys.remove_local_ref(b, c).unwrap();
    assert_eq!(sys.total_scions(), 2);

    sys.collect_to_fixpoint(8);
    assert_eq!(sys.total_scions(), 1, "the orphan scion is judged");
    assert!(!sys.proc(P1).heap.contains(c), "its target is reclaimed");
    assert_eq!(sys.metrics.safety_violations(), 0);
}
