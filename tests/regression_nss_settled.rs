//! The `NewSetStubs` sender's rule (docs/ALGORITHM.md deviation #12),
//! driven deterministically: first processes stepped by hand over one
//! queue of the messages their steps returned, every delivery, reordering
//! and loss chosen by the test (by hand, then by seeded random
//! schedules); then the same rule as `System` runs it.
//!
//! Before the rule moved into the step it compared the content of
//! consecutive sets, so a stub born and dead between two collections of
//! its holder left the set "settled" and the scion made for that stub was
//! never judged — the one-object leak (and, when the orphan fed a garbage
//! cycle, the never-quiescent run) that `tests/concurrent_mutator.rs` hit
//! about one run in five.

use acdgc::heap::HeapRef;
use acdgc::model::rng::component_rng;
use acdgc::model::{DetectionId, GcConfig, NetConfig, ObjId, ProcId, RefId, SimTime};
use acdgc::remoting::{NewSetStubs, NSS_RETRY_SWEEPS};
use acdgc::sim::{global_live_procs, scenarios, Effect, GcMsg, InvokeSpec, Process, Step, System};
use rand::Rng;
use std::collections::VecDeque;

const P0: ProcId = ProcId(0);
const P1: ProcId = ProcId(1);

/// Processes, the messages their steps sent and nothing has delivered or
/// lost yet, and one clock.
struct Net {
    cfg: GcConfig,
    procs: Vec<Process>,
    /// `(from, dest, the sender's stamp, message)`, in send order.
    wire: VecDeque<(ProcId, ProcId, u64, GcMsg)>,
    out: Vec<Effect>,
    clock: u64,
    detections: u64,
}

impl Net {
    fn new(n: u16) -> Net {
        let cfg = GcConfig::manual();
        Net {
            procs: (0..n).map(|p| Process::new(ProcId(p), &cfg)).collect(),
            cfg,
            wire: VecDeque::new(),
            out: Vec::new(),
            clock: 0,
            detections: 0,
        }
    }

    fn now(&mut self) -> SimTime {
        self.clock += 1;
        SimTime(self.clock)
    }

    /// Run one step at `p`, queueing what it sent. Settlements are
    /// dropped, as `System` drops them.
    fn step<R>(&mut self, p: ProcId, f: impl FnOnce(&mut Process, &mut Step<'_>) -> R) -> R {
        let now = self.now();
        let mut cx = Step {
            cfg: &self.cfg,
            now,
            merged: None,
            out: &mut self.out,
        };
        let r = f(&mut self.procs[p.index()], &mut cx);
        for effect in self.out.drain(..) {
            if let Effect::Send { dest, lamport, msg } = effect {
                self.wire.push_back((p, dest, lamport, msg));
            }
        }
        r
    }

    /// One collection at `p`, audited against the oracle, its sets offered
    /// to the sender's rule. Returns whether `p` still waits for an
    /// acknowledgement.
    fn collect(&mut self, p: ProcId) -> bool {
        let (cfg, n, live) = (
            self.cfg.clone(),
            self.procs.len(),
            global_live_procs(&self.procs),
        );
        self.step(p, |proc, cx| {
            let work = proc.lgc_step(&cfg, n, cx.now, Some(&live));
            assert_eq!(work.unsafe_freed, 0, "{p} freed a live object");
            proc.publish_nss(cx, work.nss)
        })
    }

    /// Deliver the `i`-th queued message; returns its sender and a copy.
    fn deliver_at(&mut self, i: usize) -> (ProcId, GcMsg) {
        let (from, dest, stamp, msg) = self.wire.remove(i).expect("queued");
        let copy = msg.clone();
        self.step(dest, |proc, cx| proc.on_message(cx, from, stamp, msg));
        (from, copy)
    }

    /// Deliver everything queued (and what the deliveries send). Returns
    /// the sets delivered, as (sender, set).
    fn deliver(&mut self) -> Vec<(ProcId, NewSetStubs)> {
        let mut sets = Vec::new();
        while !self.wire.is_empty() {
            if let (from, GcMsg::Nss(nss)) = self.deliver_at(0) {
                sets.push((from, nss));
            }
        }
        sets
    }

    /// Collect both of two processes and deliver until neither has
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

    fn snapshot(&mut self, p: ProcId) {
        let now = self.now();
        self.procs[p.index()].refresh_summary(now);
    }

    /// Start a detection from every candidate `p`'s scan picks.
    fn scan(&mut self, p: ProcId) {
        let (now, cfg) = (self.now(), self.cfg.clone());
        for scion in self.procs[p.index()].scan(now, &cfg).picked {
            self.detections += 1;
            let id = DetectionId(self.detections);
            self.step(p, |proc, cx| proc.initiate(cx, scion, || id));
        }
    }

    /// Snapshot every process, then scan every process.
    fn detect(&mut self) {
        let all: Vec<ProcId> = self.procs.iter().map(|p| p.proc()).collect();
        all.iter().for_each(|&p| self.snapshot(p));
        all.iter().for_each(|&p| self.scan(p));
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
        let r = self.open_export(holder, target);
        self.import(holder, r, target);
        r
    }

    /// The owner's half of an export: the scion, pinned until `import`.
    fn open_export(&mut self, holder: ObjId, target: ObjId) -> RefId {
        let (h, o) = (holder.proc.index(), target.proc.index());
        let mint = RefId(100 + self.clock);
        let now = self.now();
        let stub = self.procs[h].tables.stub_for_target(target).cloned();
        let tables = &mut self.procs[o].tables;
        tables
            .open_scion(holder.proc, target, stub.as_ref(), || mint, now)
            .ref_id
    }

    /// The export lands: the holder gains the reference and the owner
    /// unpins its scion — or, with the holder gone, the import is
    /// abandoned, as `System::import_exports` does.
    fn import(&mut self, holder: ObjId, r: RefId, target: ObjId) {
        let (h, o) = (holder.proc.index(), target.proc.index());
        if !self.alive(holder) {
            self.procs[h].tables.abandon_import(target.proc);
            return self.procs[o].tables.unpin_scion(r).unwrap();
        }
        let ic = self.procs[o].tables.scion(r).unwrap().ic;
        let now = self.now();
        self.procs[h].tables.open_stub(r, target, ic, now);
        self.procs[h]
            .heap
            .add_ref(holder, HeapRef::Remote(r))
            .unwrap();
        let now = self.now();
        self.procs[o].tables.close_scion(r, now).unwrap();
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

    /// Live objects, total scions and total stubs: what a quiet round
    /// leaves unchanged.
    fn census(&self) -> (usize, usize, usize) {
        let sum = |f: fn(&Process) -> usize| -> usize { self.procs.iter().map(f).sum() };
        (
            sum(|p| p.heap.stats().live_objects),
            sum(|p| p.tables.scion_count()),
            sum(|p| p.tables.stub_count()),
        )
    }
}

#[test]
fn a_stub_born_and_dead_between_two_collections_still_gets_its_scion_judged() {
    let mut net = Net::new(2);
    let h = net.rooted(P0);
    let t = net.rooted(P1);
    net.settle();
    assert!(!net.collect(P0), "settled: an acknowledged empty set");
    assert!(net.wire.is_empty(), "settled means silent");

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
    let mut net = Net::new(2);
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
    let mut net = Net::new(2);
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
    let ack = net.wire.pop_back().expect("a bare ack");
    assert!(matches!(ack, (P1, P0, _, GcMsg::NssAck { seq }) if seq == first.seq));
    net.wire.clear();

    // New content goes out at once, unacknowledged or not, and is lost...
    let r2 = net.export(h, t2);
    assert!(net.collect(P0));
    let (_, _, _, GcMsg::Nss(second)) = net.wire.pop_front().expect("a set") else {
        panic!("expected a set");
    };
    assert_eq!(second.live_refs, vec![r1, r2]);
    // ...and the late acknowledgement of the older set does not confirm it.
    net.wire.push_back(ack);
    net.deliver();

    for sweep in 1..NSS_RETRY_SWEEPS {
        assert!(net.collect(P0), "sweep {sweep}: still unconfirmed");
        assert!(net.wire.is_empty(), "sweep {sweep}: not yet due");
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
    assert!(net.wire.is_empty());
    let m = net.procs[1].metrics.since(&receiver);
    assert_eq!((m.nss_stale, m.nss_acks_sent), (0, 2));
}

/// Seeded random schedules the explorer runs, each of `CHOICES` choices.
/// Six of the first 100,000 seeds, from 19091 on, hit the known defect
/// that `tests/regression_pair_repair.rs` pins in an ignored test.
const SCHEDULES: u64 = 2_000;
const CHOICES: usize = 60;

/// What one step of a schedule does.
#[derive(Clone, Copy, Debug)]
enum Choice {
    /// Open an export between two rooted objects; it lands when delivered.
    Export,
    DropEdge,
    DropRoot,
    Collect,
    /// Snapshot, scan and initiate.
    Detect,
    /// Deliver any queued message or export: reorders.
    Deliver,
    /// Lose any queued message (an export, being application traffic, is
    /// delivered instead).
    Lose,
}

/// The choices a schedule draws from, each as often as it is drawn.
const DECK: [Choice; 16] = [
    Choice::Export,
    Choice::Export,
    Choice::Export,
    Choice::DropEdge,
    Choice::DropEdge,
    Choice::DropRoot,
    Choice::Collect,
    Choice::Collect,
    Choice::Collect,
    Choice::Detect,
    Choice::Detect,
    Choice::Deliver,
    Choice::Deliver,
    Choice::Deliver,
    Choice::Deliver,
    Choice::Lose,
];

/// The choices of one schedule, printed if the test fails inside it.
struct Schedule(u64, Vec<String>);

impl Drop for Schedule {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing schedule: seed {}, choices {:?}", self.0, self.1);
        }
    }
}

/// Three processes with three rooted objects each, driven by a seeded
/// random schedule of `Choice`s. Then heal: deliver everything and run
/// rounds until three in a row change nothing. Every collection is
/// oracle-audited; at the end exactly the oracle's live objects remain,
/// and every scion still has its holder's stub.
#[test]
fn random_schedules_over_three_processes_stay_safe_and_complete() {
    for seed in 0..SCHEDULES {
        let mut rng = component_rng(seed, "nss-schedule");
        let mut log = Schedule(seed, Vec::new());
        let mut net = Net::new(3);
        let mut owned: Vec<ObjId> = (0..9).map(|i| net.rooted(ProcId(i % 3))).collect();
        let mut edges: Vec<(ObjId, RefId)> = Vec::new();
        let mut imports: Vec<(ObjId, RefId, ObjId)> = Vec::new();
        for _ in 0..CHOICES {
            let p = ProcId(rng.gen_range(0..3u16));
            let choice = DECK[rng.gen_range(0..DECK.len())];
            let queued = net.wire.len() + imports.len();
            let entry = match choice {
                Choice::Export if !owned.is_empty() => {
                    let h = owned[rng.gen_range(0..owned.len())];
                    let targets: Vec<ObjId> =
                        owned.iter().copied().filter(|t| t.proc != h.proc).collect();
                    let Some(&t) = targets.get(rng.gen_range(0..targets.len().max(1))) else {
                        continue;
                    };
                    let r = net.open_export(h, t);
                    imports.push((h, r, t));
                    format!("export {h} -> {t} as {r}")
                }
                Choice::DropEdge if !edges.is_empty() => {
                    let (h, r) = edges.swap_remove(rng.gen_range(0..edges.len()));
                    net.drop_edge(h, r);
                    format!("drop {h} -> {r}")
                }
                Choice::DropRoot if !owned.is_empty() => {
                    let x = owned.swap_remove(rng.gen_range(0..owned.len()));
                    net.procs[x.proc.index()].heap.remove_root(x).unwrap();
                    edges.retain(|&(h, _)| h != x);
                    format!("unroot {x}")
                }
                Choice::Collect => {
                    net.collect(p);
                    format!("collect {p}")
                }
                Choice::Detect => {
                    net.snapshot(p);
                    net.scan(p);
                    format!("detect {p}")
                }
                Choice::Deliver | Choice::Lose if queued > 0 => {
                    let i = rng.gen_range(0..queued);
                    match (i.checked_sub(net.wire.len()), choice) {
                        (None, Choice::Deliver) => format!("deliver {:?}", net.deliver_at(i)),
                        (None, _) => format!("lose {:?}", net.wire.remove(i)),
                        (Some(j), _) => {
                            let (h, r, t) = imports.swap_remove(j);
                            net.import(h, r, t);
                            if owned.contains(&h) {
                                edges.push((h, r));
                            }
                            format!("import {h} -> {t} as {r}")
                        }
                    }
                }
                _ => continue,
            };
            log.1.push(entry);
        }

        // Heal: nothing is lost any more.
        for (h, r, t) in imports {
            net.import(h, r, t);
        }
        net.deliver();
        let mut quiet = 0;
        for _ in 0..40 {
            let before = net.census();
            for p in 0..3 {
                net.collect(ProcId(p));
            }
            net.deliver();
            net.detect();
            net.deliver();
            quiet = if net.census() == before { quiet + 1 } else { 0 };
            if quiet == 3 {
                break;
            }
        }
        assert_eq!(quiet, 3, "seed {seed}: no fixpoint");

        let live = global_live_procs(&net.procs);
        for p in &net.procs {
            for (slot, _) in p.heap.iter() {
                let obj = p.heap.id_of_slot(slot).unwrap();
                assert!(live.contains(&obj), "seed {seed}: {obj} leaked");
            }
            for s in p.tables.scions() {
                let holder = &net.procs[s.from_proc.index()];
                assert!(
                    holder.tables.stub(s.ref_id).is_some(),
                    "seed {seed}: scion {} at {} lacks its stub",
                    s.ref_id,
                    p.proc()
                );
            }
        }
    }
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
