//! The `NewSetStubs` sender's rule (docs/ALGORITHM.md deviation #12),
//! driven deterministically: processes stepped by hand over a queueing
//! outbox, every delivery, acknowledgement and loss chosen by the test.
//!
//! Before the rule moved into the step it compared the content of
//! consecutive sets, so a stub born and dead between two collections of
//! its holder left the set "settled" and the scion made for that stub was
//! never judged — the one-object leak (and, when the orphan fed a garbage
//! cycle, the never-quiescent run) that `tests/concurrent_mutator.rs` hit
//! about one run in five.

use acdgc::dcda::Cdm;
use acdgc::heap::HeapRef;
use acdgc::model::{DetectionId, GcConfig, ObjId, ProcId, RefId, SimTime};
use acdgc::remoting::{NewSetStubs, NSS_RETRY_SWEEPS};
use acdgc::sim::{Credit, Outbox, Process, Step};
use std::collections::VecDeque;

const P0: ProcId = ProcId(0);
const P1: ProcId = ProcId(1);

enum Msg {
    Nss(NewSetStubs),
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

    /// Deliver everything on the wire (and what the deliveries send);
    /// every set delivered is acknowledged at once iff `ack`. Returns the
    /// sets delivered, as (sender, set).
    fn deliver(&mut self, ack: bool) -> Vec<(ProcId, NewSetStubs)> {
        let mut sets = Vec::new();
        while let Some((from, dest, msg)) = self.wire.0.pop_front() {
            match msg {
                Msg::Nss(nss) => {
                    let seq = self.step(dest, |proc, cx| proc.on_nss(cx, &nss));
                    if ack {
                        self.procs[from.index()].tables.confirm_nss(dest, seq);
                    }
                    sets.push((from, nss));
                }
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

    /// Collect both processes and deliver with acknowledgements until
    /// neither has reference-listing work in flight.
    fn settle(&mut self) {
        for _ in 0..4 {
            let pending = self.collect(P0) | self.collect(P1);
            self.deliver(true);
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
    let sets = net.deliver(true);
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
        net.deliver(true);
        net.detect();
        net.deliver(true);
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
    let r1 = net.export(h, t1);

    assert!(net.collect(P0));
    let first = net.deliver(false).remove(0).1;
    assert_eq!(first.live_refs, vec![r1]);

    // New content goes out at once, unacknowledged or not...
    let r2 = net.export(h, t2);
    assert!(net.collect(P0));
    let second = net.deliver(false).remove(0).1;
    assert_eq!(second.live_refs, vec![r1, r2]);
    // ...and an acknowledgement of the older set does not confirm it.
    net.procs[0].tables.confirm_nss(P1, first.seq);

    for sweep in 1..NSS_RETRY_SWEEPS {
        assert!(net.collect(P0), "sweep {sweep}: still unconfirmed");
        assert!(net.wire.0.is_empty(), "sweep {sweep}: not yet due");
    }
    assert!(net.collect(P0));
    let resent = net.deliver(true).remove(0).1;
    assert_eq!(resent.live_refs, second.live_refs);
    assert!(resent.seq > second.seq && resent.lgc_at > second.lgc_at);
    let m = net.procs[0].metrics;
    assert_eq!((m.nss_sent, m.nss_retries), (3, 1));

    assert!(!net.collect(P0), "confirmed: settled");
    assert!(net.wire.0.is_empty());
    assert_eq!(net.procs[1].metrics.nss_stale, 0);
}
