//! The event-queue network implementation.

use acdgc_model::rng::component_rng;
use acdgc_model::{NetConfig, ProcId, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Loss and duplication apply only to GC traffic; see crate docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageClass {
    /// Remote invocations and replies: reliable.
    Application,
    /// Collector traffic (`NewSetStubs`, CDMs): may be dropped/duplicated.
    Gc,
}

/// An in-flight or delivered message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    pub src: ProcId,
    pub dst: ProcId,
    pub class: MessageClass,
    pub sent_at: SimTime,
    pub deliver_at: SimTime,
    /// Global send sequence; the deterministic tiebreaker for simultaneous
    /// deliveries and the duplicate discriminator.
    pub seq: u64,
    /// Approximate wire size, for byte accounting.
    pub size_bytes: usize,
    /// Piggybacked Lamport clock value of the sending process at send
    /// time. `0` when tracing is off; receivers witness it into their own clock before recording
    /// delivery-side events. Purely observational: delivery order and
    /// fault injection never read it.
    pub lamport: u64,
    pub payload: M,
}

/// What happened to a [`Network::send`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// Scheduled for delivery (`copies` is 1, or 2 when duplicated).
    Scheduled { copies: u8 },
    /// Dropped by fault injection; will never arrive.
    Dropped,
}

/// Transport counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    pub sent: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub bytes_sent: u64,
    pub gc_sent: u64,
    pub gc_bytes_sent: u64,
}

struct Queued<M>(Envelope<M>);

impl<M> PartialEq for Queued<M> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<M> Eq for Queued<M> {}
impl<M> PartialOrd for Queued<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Queued<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert to pop earliest first.
        (other.0.deliver_at, other.0.seq).cmp(&(self.0.deliver_at, self.0.seq))
    }
}

/// The simulated network: a seeded fault injector plus a delivery heap.
pub struct Network<M> {
    config: NetConfig,
    rng: SmallRng,
    queue: BinaryHeap<Queued<M>>,
    next_seq: u64,
    stats: NetStats,
    /// Severed links (directional): sends are dropped while present.
    partitions: rustc_hash::FxHashSet<(ProcId, ProcId)>,
}

impl<M: Clone> Network<M> {
    pub fn new(config: NetConfig, run_seed: u64) -> Self {
        Network {
            config,
            rng: component_rng(run_seed, "network"),
            queue: BinaryHeap::new(),
            next_seq: 0,
            stats: NetStats::default(),
            partitions: rustc_hash::FxHashSet::default(),
        }
    }

    /// Sever the directional link `a -> b`: subsequent sends are dropped
    /// (in-flight traffic already past the send point still arrives).
    pub fn partition(&mut self, a: ProcId, b: ProcId) {
        self.partitions.insert((a, b));
    }

    /// Sever both directions between `a` and `b`.
    pub fn partition_pair(&mut self, a: ProcId, b: ProcId) {
        self.partition(a, b);
        self.partition(b, a);
    }

    /// Restore the directional link `a -> b`.
    pub fn heal(&mut self, a: ProcId, b: ProcId) {
        self.partitions.remove(&(a, b));
    }

    /// Restore every link.
    pub fn heal_all(&mut self) {
        self.partitions.clear();
    }

    /// Whether the directional link is currently severed.
    pub fn is_partitioned(&self, a: ProcId, b: ProcId) -> bool {
        self.partitions.contains(&(a, b))
    }

    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Number of messages in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    fn latency(&mut self) -> SimDuration {
        let lo = self.config.min_latency.as_ticks();
        let hi = self.config.max_latency.as_ticks();
        debug_assert!(
            lo <= hi,
            "NetConfig: min_latency ({lo}) > max_latency ({hi}); \
             release builds clamp the band to min_latency"
        );
        // Explicit clamp for the misconfigured (or degenerate lo == hi)
        // case: collapse the band to `min_latency` rather than panicking
        // in gen_range or silently inverting the bounds.
        let hi = hi.max(lo);
        if hi == lo {
            SimDuration(lo)
        } else {
            SimDuration(self.rng.gen_range(lo..=hi))
        }
    }

    /// Submit a message at simulated time `now` (no causal stamp; see
    /// [`Network::send_clocked`]).
    pub fn send(
        &mut self,
        now: SimTime,
        src: ProcId,
        dst: ProcId,
        class: MessageClass,
        size_bytes: usize,
        payload: M,
    ) -> SendOutcome {
        self.send_clocked(now, src, dst, class, size_bytes, 0, payload)
    }

    /// Submit a message carrying the sender's Lamport clock value, so a
    /// causally traced receiver can witness it on delivery. `lamport` is
    /// carried verbatim on every copy (duplicates included).
    #[allow(clippy::too_many_arguments)]
    pub fn send_clocked(
        &mut self,
        now: SimTime,
        src: ProcId,
        dst: ProcId,
        class: MessageClass,
        size_bytes: usize,
        lamport: u64,
        payload: M,
    ) -> SendOutcome {
        self.stats.sent += 1;
        self.stats.bytes_sent += size_bytes as u64;
        // Classify before any drop decision: GC-overhead accounting means
        // "GC bytes offered to the wire", so a partitioned GC send must
        // still count (loss-sweep experiments under partitions would
        // otherwise misreport collector overhead).
        if class == MessageClass::Gc {
            self.stats.gc_sent += 1;
            self.stats.gc_bytes_sent += size_bytes as u64;
        }
        if self.partitions.contains(&(src, dst)) {
            // A severed link loses everything, application traffic
            // included (unlike probabilistic loss, which models collector
            // tolerance and spares reliable RPC).
            self.stats.dropped += 1;
            return SendOutcome::Dropped;
        }
        if class == MessageClass::Gc
            && self
                .rng
                .gen_bool(self.config.gc_drop_probability.clamp(0.0, 1.0))
        {
            self.stats.dropped += 1;
            return SendOutcome::Dropped;
        }
        let mut copies = 1u8;
        if class == MessageClass::Gc
            && self
                .rng
                .gen_bool(self.config.gc_duplicate_probability.clamp(0.0, 1.0))
        {
            copies = 2;
            self.stats.duplicated += 1;
        }
        for _ in 0..copies {
            let deliver_at = now + self.latency();
            let seq = self.next_seq;
            self.next_seq += 1;
            self.queue.push(Queued(Envelope {
                src,
                dst,
                class,
                sent_at: now,
                deliver_at,
                seq,
                size_bytes,
                lamport,
                payload: payload.clone(),
            }));
        }
        SendOutcome::Scheduled { copies }
    }

    /// Earliest pending delivery time, if any.
    pub fn next_delivery_at(&self) -> Option<SimTime> {
        self.queue.peek().map(|q| q.0.deliver_at)
    }

    /// Pop the next envelope if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Envelope<M>> {
        if self.next_delivery_at()? <= now {
            self.stats.delivered += 1;
            Some(self.queue.pop().unwrap().0)
        } else {
            None
        }
    }

    /// Pop the next envelope regardless of time (the caller advances its
    /// clock to `deliver_at`).
    pub fn pop_next(&mut self) -> Option<Envelope<M>> {
        let env = self.queue.pop()?.0;
        self.stats.delivered += 1;
        Some(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(config: NetConfig, seed: u64) -> Network<u32> {
        Network::new(config, seed)
    }

    #[test]
    fn delivery_order_is_by_time_then_seq() {
        let mut n = net(NetConfig::instant(), 1);
        for i in 0..5u32 {
            n.send(
                SimTime(10),
                ProcId(0),
                ProcId(1),
                MessageClass::Application,
                8,
                i,
            );
        }
        let order: Vec<u32> = std::iter::from_fn(|| n.pop_next().map(|e| e.payload)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4], "ties broken by send sequence");
    }

    #[test]
    fn clocked_sends_carry_the_stamp_on_every_copy() {
        let cfg = NetConfig {
            gc_duplicate_probability: 1.0,
            ..NetConfig::default()
        };
        let mut n = net(cfg, 3);
        n.send_clocked(SimTime(0), ProcId(0), ProcId(1), MessageClass::Gc, 8, 42, 7);
        let envs: Vec<_> = std::iter::from_fn(|| n.pop_next()).collect();
        assert_eq!(envs.len(), 2, "duplicated");
        assert!(envs.iter().all(|e| e.lamport == 42));
        // The plain path stamps 0 (unclocked).
        n.send(
            SimTime(1),
            ProcId(0),
            ProcId(1),
            MessageClass::Application,
            8,
            9,
        );
        assert_eq!(n.pop_next().unwrap().lamport, 0);
    }

    #[test]
    fn pop_due_respects_clock() {
        let cfg = NetConfig {
            min_latency: SimDuration::from_micros(100),
            max_latency: SimDuration::from_micros(100),
            ..NetConfig::default()
        };
        let mut n = net(cfg, 1);
        n.send(SimTime(0), ProcId(0), ProcId(1), MessageClass::Gc, 8, 7);
        assert!(n.pop_due(SimTime(99)).is_none());
        let env = n.pop_due(SimTime(100)).expect("due at 100");
        assert_eq!(env.payload, 7);
        assert_eq!(env.deliver_at, SimTime(100));
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = NetConfig::default();
        let run = |seed: u64| -> Vec<(u64, u32)> {
            let mut n = net(cfg.clone(), seed);
            for i in 0..32u32 {
                n.send(
                    SimTime(i as u64),
                    ProcId(0),
                    ProcId(1),
                    MessageClass::Gc,
                    16,
                    i,
                );
            }
            std::iter::from_fn(|| n.pop_next().map(|e| (e.deliver_at.as_ticks(), e.payload)))
                .collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds diverge");
    }

    #[test]
    fn application_traffic_never_dropped() {
        let mut n = net(NetConfig::lossy(1.0), 5);
        for i in 0..64u32 {
            let outcome = n.send(
                SimTime(0),
                ProcId(0),
                ProcId(1),
                MessageClass::Application,
                8,
                i,
            );
            assert_eq!(outcome, SendOutcome::Scheduled { copies: 1 });
        }
        assert_eq!(n.stats().dropped, 0);
        assert_eq!(n.in_flight(), 64);
    }

    #[test]
    fn gc_traffic_dropped_at_configured_rate() {
        let mut n = net(NetConfig::lossy(0.5), 7);
        for i in 0..2000u32 {
            n.send(SimTime(0), ProcId(0), ProcId(1), MessageClass::Gc, 8, i);
        }
        let dropped = n.stats().dropped;
        assert!(
            (700..1300).contains(&dropped),
            "≈50% of 2000 expected, got {dropped}"
        );
    }

    #[test]
    fn duplication_produces_two_copies() {
        let cfg = NetConfig {
            gc_duplicate_probability: 1.0,
            ..NetConfig::instant()
        };
        let mut n = net(cfg, 3);
        let outcome = n.send(SimTime(0), ProcId(0), ProcId(1), MessageClass::Gc, 8, 9);
        assert_eq!(outcome, SendOutcome::Scheduled { copies: 2 });
        assert_eq!(n.in_flight(), 2);
        let a = n.pop_next().unwrap();
        let b = n.pop_next().unwrap();
        assert_eq!(a.payload, b.payload);
        assert_ne!(a.seq, b.seq, "copies are distinguishable by seq");
    }

    #[test]
    fn latency_spread_reorders_messages() {
        let cfg = NetConfig {
            min_latency: SimDuration::from_micros(1),
            max_latency: SimDuration::from_micros(1_000),
            ..NetConfig::default()
        };
        let mut n = net(cfg, 11);
        for i in 0..64u32 {
            // Sent in order at increasing times 0,1,2,...
            n.send(
                SimTime(i as u64),
                ProcId(0),
                ProcId(1),
                MessageClass::Gc,
                8,
                i,
            );
        }
        let order: Vec<u32> = std::iter::from_fn(|| n.pop_next().map(|e| e.payload)).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(order, sorted, "wide latency band must reorder");
    }

    #[test]
    fn byte_accounting() {
        let mut n = net(NetConfig::instant(), 1);
        n.send(SimTime(0), ProcId(0), ProcId(1), MessageClass::Gc, 100, 1);
        n.send(
            SimTime(0),
            ProcId(0),
            ProcId(1),
            MessageClass::Application,
            50,
            2,
        );
        assert_eq!(n.stats().bytes_sent, 150);
        assert_eq!(n.stats().gc_bytes_sent, 100);
        assert_eq!(n.stats().gc_sent, 1);
    }

    #[test]
    fn partitioned_gc_send_still_counts_as_gc_overhead() {
        let mut n = net(NetConfig::instant(), 1);
        n.partition(ProcId(0), ProcId(1));
        let out = n.send(SimTime(0), ProcId(0), ProcId(1), MessageClass::Gc, 64, 1);
        assert_eq!(out, SendOutcome::Dropped);
        let stats = n.stats();
        assert_eq!(stats.gc_sent, 1, "GC classification precedes the cut");
        assert_eq!(stats.gc_bytes_sent, 64);
        assert_eq!(stats.dropped, 1);
        // Application traffic on the same severed link stays out of the
        // GC ledger.
        n.send(
            SimTime(0),
            ProcId(0),
            ProcId(1),
            MessageClass::Application,
            32,
            2,
        );
        assert_eq!(n.stats().gc_sent, 1);
        assert_eq!(n.stats().gc_bytes_sent, 64);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "min_latency")]
    fn inverted_latency_band_asserts_in_debug() {
        let cfg = NetConfig {
            min_latency: SimDuration::from_micros(500),
            max_latency: SimDuration::from_micros(100),
            ..NetConfig::default()
        };
        let mut n = net(cfg, 1);
        n.send(SimTime(0), ProcId(0), ProcId(1), MessageClass::Gc, 8, 1);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn inverted_latency_band_clamps_to_min_in_release() {
        let cfg = NetConfig {
            min_latency: SimDuration::from_micros(500),
            max_latency: SimDuration::from_micros(100),
            ..NetConfig::default()
        };
        let mut n = net(cfg, 1);
        n.send(SimTime(0), ProcId(0), ProcId(1), MessageClass::Gc, 8, 1);
        let env = n.pop_next().expect("scheduled");
        assert_eq!(
            env.deliver_at,
            SimTime(500),
            "band collapses to min_latency, not the inverted max"
        );
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let mut n = net(NetConfig::instant(), 1);
        n.partition_pair(ProcId(0), ProcId(1));
        assert!(n.is_partitioned(ProcId(0), ProcId(1)));
        let out = n.send(
            SimTime(0),
            ProcId(0),
            ProcId(1),
            MessageClass::Application,
            8,
            1,
        );
        assert_eq!(
            out,
            SendOutcome::Dropped,
            "severed link loses app traffic too"
        );
        let out = n.send(SimTime(0), ProcId(1), ProcId(0), MessageClass::Gc, 8, 2);
        assert_eq!(out, SendOutcome::Dropped);
        // A third process is unaffected.
        let out = n.send(SimTime(0), ProcId(0), ProcId(2), MessageClass::Gc, 8, 3);
        assert!(matches!(out, SendOutcome::Scheduled { .. }));
        n.heal_all();
        let out = n.send(SimTime(0), ProcId(0), ProcId(1), MessageClass::Gc, 8, 4);
        assert!(matches!(out, SendOutcome::Scheduled { .. }));
    }

    #[test]
    fn directional_partition_is_one_way() {
        let mut n = net(NetConfig::instant(), 1);
        n.partition(ProcId(0), ProcId(1));
        assert_eq!(
            n.send(SimTime(0), ProcId(0), ProcId(1), MessageClass::Gc, 8, 1),
            SendOutcome::Dropped
        );
        assert!(matches!(
            n.send(SimTime(0), ProcId(1), ProcId(0), MessageClass::Gc, 8, 2),
            SendOutcome::Scheduled { .. }
        ));
        n.heal(ProcId(0), ProcId(1));
        assert!(!n.is_partitioned(ProcId(0), ProcId(1)));
    }
}
