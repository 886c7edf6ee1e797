//! Continuous time-series telemetry: bounded sample rings with
//! decimation-by-2 downsampling, counter→rate derivation, and sparkline
//! rendering.
//!
//! `Metrics` and `HealthReport`s answer *whether* a run behaved; this
//! module answers *how it evolved*. A [`Sampler`] periodically snapshots
//! per-process and global gauges (live objects, candidates and their
//! deepest retry backoff, in-flight CDMs, inbox depth, quiescence votes)
//! plus a small set of monotone counters into fixed-capacity
//! [`TimeSeries`] rings. Two clock semantics share one schema:
//!
//! * the sequential `System` samples every `sample_every` GC **rounds**
//!   (`at` is simulated microseconds, `round` the GC round index);
//! * the threaded runtime's watchdog monitor samples every `sample_every`
//!   **polls** of the lock-free heartbeat slots during healthy operation
//!   (`at` is wall-clock microseconds since run start, `round` the poll
//!   index).
//!
//! Series are bounded: when a ring would exceed its capacity it decimates
//! by 2 — every other *interior* sample is dropped; the first and the
//! newest samples always survive — so a run of any length keeps a
//! full-span, progressively coarser timeline in fixed memory. Samples
//! export as `"type":"sample"` JSONL lines inside the standard trace
//! artifact and are validated by `Trace::check` / `acdgc-report --check`
//! (monotonic timestamps and rounds, monotone counters, capacity bound).

use crate::event::{field_str, field_u16, field_u64};
use acdgc_model::{ProcId, SamplingConfig, SimTime};
use serde_json::{Map, Value};

/// One named field of a [`Sample`], as listed in [`COUNTER_FIELDS`] and
/// [`GAUGE_FIELDS`]. The accessor serves writing, and reading through
/// [`Sample::get`].
pub type SampleField = (&'static str, fn(&mut Sample) -> &mut u64);

/// One exported sample paired with the declared capacity of the series it
/// came from — the form sample JSONL lines round-trip through, letting
/// `check_series` verify the bound offline from the artifact alone.
pub type SampleRow = (Sample, usize);

/// The monotone-counter fields of a [`Sample`], in export order. One list
/// drives encode, decode, aggregation, monotonicity checking, and rate
/// derivation, so they can never disagree on what a counter is.
pub const COUNTER_FIELDS: [SampleField; 7] = [
    ("lgc_runs", |s| &mut s.lgc_runs),
    ("snapshots", |s| &mut s.snapshots),
    ("cdms_sent", |s| &mut s.cdms_sent),
    ("cycles_detected", |s| &mut s.cycles_detected),
    ("objects_reclaimed", |s| &mut s.objects_reclaimed),
    ("scions_reclaimed", |s| &mut s.scions_reclaimed),
    ("mutator_ops", |s| &mut s.mutator_ops),
];

/// The point-in-time gauge fields of a [`Sample`], in export order.
/// Gauges may move in either direction; only the counters above carry a
/// monotonicity invariant.
pub const GAUGE_FIELDS: [SampleField; 7] = [
    ("live_objects", |s| &mut s.live_objects),
    ("candidates", |s| &mut s.candidates),
    ("max_backoff_attempt", |s| &mut s.max_backoff_attempt),
    ("in_flight_cdms", |s| &mut s.in_flight_cdms),
    ("inbox_depth", |s| &mut s.inbox_depth),
    ("votes_held", |s| &mut s.votes_held),
    ("pinned_scions", |s| &mut s.pinned_scions),
];

/// One telemetry snapshot. `proc` is `None` for the system-wide aggregate
/// series and `Some` for one process's series; the two use identical
/// fields (a global gauge is the sum of the per-process gauges, except
/// `max_backoff_attempt` and `votes_held`, which are a max and a count).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sample {
    /// Microseconds — simulated for the sequential runtime, wall-clock
    /// since run start for the threaded runtime.
    pub at: SimTime,
    /// GC round (sequential) or watchdog poll index (threaded). Strictly
    /// increasing within a series.
    pub round: u64,
    pub proc: Option<ProcId>,
    // Gauges.
    pub live_objects: u64,
    pub candidates: u64,
    /// Deepest retry-backoff attempt among tracked candidates: how hard
    /// the detector is having to retry under message loss.
    pub max_backoff_attempt: u64,
    /// Sequential: messages in flight in the simulated network. Threaded:
    /// globally `enqueued - drained`; per process, the inbox depth.
    pub in_flight_cdms: u64,
    /// Threaded inbox depth from the enqueue/drain heartbeat ledgers;
    /// always 0 in the sequential runtime (the event loop has no inboxes).
    pub inbox_depth: u64,
    /// Quiescence votes currently held (threaded); 0 sequentially.
    pub votes_held: u64,
    /// Scions currently pinned by in-flight mutator exports/invocations
    /// (the pin/unpin handshake); 0 when no mutator runs.
    pub pinned_scions: u64,
    // Counters (monotone within a series).
    pub lgc_runs: u64,
    pub snapshots: u64,
    pub cdms_sent: u64,
    pub cycles_detected: u64,
    pub objects_reclaimed: u64,
    /// Scions reclaimed by any layer (acyclic reference listing + cycle
    /// verdicts).
    pub scions_reclaimed: u64,
    /// Concurrent-mutator operations completed (allocate + export +
    /// invoke + drop); 0 when no mutator runs.
    pub mutator_ops: u64,
}

impl Sample {
    /// The value of one listed field.
    pub fn get(mut self, field: fn(&mut Sample) -> &mut u64) -> u64 {
        *field(&mut self)
    }

    /// The system-wide row over one tick's per-process rows: every gauge
    /// and counter summed, except `max_backoff_attempt`, which is a max.
    pub fn aggregate(at: SimTime, round: u64, per_proc: &[Sample]) -> Sample {
        let mut g = Sample {
            at,
            round,
            ..Sample::default()
        };
        for s in per_proc {
            for &(name, field) in GAUGE_FIELDS.iter().chain(&COUNTER_FIELDS) {
                let (total, v) = (field(&mut g), s.get(field));
                *total = match name {
                    "max_backoff_attempt" => (*total).max(v),
                    _ => *total + v,
                };
            }
        }
        g
    }

    /// One JSONL object, `"type":"sample"`. `cap` is the owning series'
    /// capacity, carried on every line so an offline checker can verify
    /// the bound without side-channel metadata.
    pub fn to_json(&self, cap: usize) -> Value {
        let mut m = Map::new();
        m.insert("type".into(), Value::from("sample"));
        m.insert("at".into(), Value::from(self.at.0));
        m.insert("round".into(), Value::from(self.round));
        if let Some(p) = self.proc {
            m.insert("proc".into(), Value::from(p.0));
        }
        m.insert("cap".into(), Value::from(cap as u64));
        for (name, field) in GAUGE_FIELDS.iter().chain(&COUNTER_FIELDS) {
            m.insert((*name).into(), Value::from(self.get(*field)));
        }
        Value::Object(m)
    }

    /// Inverse of [`Sample::to_json`]; returns the sample and the carried
    /// capacity. `None` when `v` is not a sample line.
    pub fn from_json(v: &Value) -> Option<(Sample, usize)> {
        let m = match v {
            Value::Object(m) => m,
            _ => return None,
        };
        if field_str(m, "type")? != "sample" {
            return None;
        }
        let mut s = Sample {
            at: SimTime(field_u64(m, "at")?),
            round: field_u64(m, "round")?,
            proc: field_u16(m, "proc").map(ProcId),
            ..Sample::default()
        };
        let cap = field_u64(m, "cap")? as usize;
        for (name, field) in GAUGE_FIELDS.iter().chain(&COUNTER_FIELDS) {
            *field(&mut s) = field_u64(m, name)?;
        }
        Some((s, cap))
    }

    /// Render the gauge fields as Prometheus gauges (`acdgc_<name>`
    /// without the `_total` suffix — these are point-in-time values, not
    /// counters). Counter fields are not exposed here: the `Metrics`
    /// exposition already owns the `_total` namespace.
    pub fn to_prometheus_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        for (name, field) in GAUGE_FIELDS {
            let _ = writeln!(
                out,
                "# HELP acdgc_{name} Point-in-time {} gauge from the latest telemetry sample.",
                name.replace('_', " ")
            );
            let _ = writeln!(out, "# TYPE acdgc_{name} gauge");
            let _ = writeln!(out, "acdgc_{name} {}", self.get(field));
        }
    }
}

/// A bounded sample ring. Pushes are O(1) amortized: appends until the
/// ring would exceed `capacity`, then decimates by 2 (keeps every
/// even-indexed sample plus the newest), doubling the effective spacing
/// of the retained history. The first and the most recent sample are
/// preserved across any number of decimations.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    capacity: usize,
    samples: Vec<Sample>,
    /// How many decimation passes have run (each halves resolution).
    decimations: u32,
    /// Total samples ever offered, including those decimation discarded.
    offered: u64,
}

impl TimeSeries {
    pub fn new(capacity: usize) -> TimeSeries {
        TimeSeries {
            capacity: capacity.max(4),
            samples: Vec::new(),
            decimations: 0,
            offered: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn decimations(&self) -> u32 {
        self.decimations
    }

    pub fn offered(&self) -> u64 {
        self.offered
    }

    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Append one sample, decimating first when the ring is at capacity.
    pub fn push(&mut self, s: Sample) {
        self.offered += 1;
        if self.samples.len() >= self.capacity {
            self.decimate();
        }
        self.samples.push(s);
    }

    /// Drop every odd-indexed sample except the newest: index 0 (the
    /// first sample) is always even and the newest is re-kept explicitly,
    /// so both ends of the timeline survive every pass.
    fn decimate(&mut self) {
        let last = self.samples.len() - 1;
        let mut keep = 0usize;
        for i in 0..self.samples.len() {
            if i % 2 == 0 || i == last {
                self.samples.swap(keep, i);
                keep += 1;
            }
        }
        self.samples.truncate(keep);
        self.decimations += 1;
    }
}

/// One derived-rate row: a counter's total across the series plus its
/// average and peak per-second rates (timestamps are microseconds, so the
/// scale factor is 1e6).
#[derive(Clone, Debug, PartialEq)]
pub struct RateRow {
    pub name: &'static str,
    /// `last - first` over the series.
    pub total: u64,
    /// Average events/second over the full span.
    pub per_sec_avg: f64,
    /// Fastest events/second between any two adjacent samples.
    pub per_sec_peak: f64,
}

/// Counter→rate derivation over one series (chronological samples). Rows
/// follow [`COUNTER_FIELDS`] order; empty when fewer than two samples or
/// no time elapsed.
pub fn counter_rates(samples: &[Sample]) -> Vec<RateRow> {
    let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
        return Vec::new();
    };
    let span_us = last.at.0.saturating_sub(first.at.0);
    if span_us == 0 {
        return Vec::new();
    }
    COUNTER_FIELDS
        .iter()
        .map(|&(name, field)| {
            let total = last.get(field).saturating_sub(first.get(field));
            let mut peak = 0.0f64;
            for w in samples.windows(2) {
                let dt = w[1].at.0.saturating_sub(w[0].at.0);
                if dt == 0 {
                    continue;
                }
                let dv = w[1].get(field).saturating_sub(w[0].get(field));
                peak = peak.max(dv as f64 * 1e6 / dt as f64);
            }
            RateRow {
                name,
                total,
                per_sec_avg: total as f64 * 1e6 / span_us as f64,
                per_sec_peak: peak,
            }
        })
        .collect()
}

/// Render `values` as a fixed-width ASCII sparkline using the eight
/// block-element glyphs. Values are bucketed to `width` columns (max
/// within each bucket) and scaled to the series' own min..max; a flat
/// series renders as a baseline of `▁`.
pub fn sparkline(values: &[u64], width: usize) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let cols = width.min(values.len());
    let bucketed: Vec<u64> = (0..cols)
        .map(|c| {
            let lo = c * values.len() / cols;
            let hi = ((c + 1) * values.len() / cols).max(lo + 1);
            values[lo..hi].iter().copied().max().unwrap_or(0)
        })
        .collect();
    let min = bucketed.iter().copied().min().unwrap_or(0);
    let max = bucketed.iter().copied().max().unwrap_or(0);
    bucketed
        .iter()
        .map(|&v| {
            if max == min {
                GLYPHS[0]
            } else {
                let level = ((v - min) as u128 * 7 / (max - min) as u128) as usize;
                GLYPHS[level]
            }
        })
        .collect()
}

/// Validate one chronological series: timestamps non-decreasing, rounds
/// strictly increasing, every [`COUNTER_FIELDS`] counter monotone, and
/// the sample count within the capacity each line carries. Returns every
/// violation found (empty = clean).
pub fn check_series(label: &str, samples: &[(Sample, usize)]) -> Vec<String> {
    let mut violations = Vec::new();
    if let Some(&(_, cap)) = samples.first() {
        if samples.len() > cap {
            violations.push(format!(
                "{label}: {} samples exceed the declared capacity {cap}",
                samples.len()
            ));
        }
    }
    for w in samples.windows(2) {
        let (a, b) = (&w[0].0, &w[1].0);
        if b.at < a.at {
            violations.push(format!(
                "{label}: timestamp not monotonic at round {}: {} after {}",
                b.round, b.at.0, a.at.0
            ));
        }
        if b.round <= a.round {
            violations.push(format!(
                "{label}: round not increasing: {} after {}",
                b.round, a.round
            ));
        }
        for (name, field) in COUNTER_FIELDS {
            let (before, after) = (a.get(field), b.get(field));
            if after < before {
                violations.push(format!(
                    "{label}: counter {name} went backwards at round {}: {after} after {before}",
                    b.round
                ));
            }
        }
    }
    violations
}

/// Group a flat sample list (e.g. parsed from a trace artifact) into
/// per-series slices keyed by `proc` (`None` = the global series),
/// preserving line order within each group.
pub fn group_by_series(samples: &[SampleRow]) -> Vec<(Option<ProcId>, Vec<SampleRow>)> {
    let mut groups: Vec<(Option<ProcId>, Vec<SampleRow>)> = Vec::new();
    for &(s, cap) in samples {
        match groups.iter_mut().find(|(p, _)| *p == s.proc) {
            Some((_, g)) => g.push((s, cap)),
            None => groups.push((s.proc, vec![(s, cap)])),
        }
    }
    groups
}

/// The sampling subsystem a runtime embeds: one global [`TimeSeries`]
/// plus one per process, behind a [`SamplingConfig`]. Disabled, every
/// entry point is a single branch and no memory is allocated.
#[derive(Clone, Debug)]
pub struct Sampler {
    enabled: bool,
    sample_every: u64,
    capacity: usize,
    global: TimeSeries,
    per_proc: Vec<TimeSeries>,
}

impl Sampler {
    pub fn new(cfg: &SamplingConfig, procs: usize) -> Sampler {
        let capacity = cfg.capacity.max(4);
        let series = |_| TimeSeries::new(capacity);
        Sampler {
            enabled: cfg.enabled,
            sample_every: cfg.sample_every.max(1),
            capacity,
            global: TimeSeries::new(capacity),
            per_proc: if cfg.enabled {
                (0..procs).map(series).collect()
            } else {
                Vec::new()
            },
        }
    }

    /// A disabled sampler (used where one is structurally required).
    pub fn disabled() -> Sampler {
        Sampler::new(&SamplingConfig::default(), 0)
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether `round` (a GC round or monitor poll index, starting at 1)
    /// is a sampling tick under the configured cadence.
    #[inline]
    pub fn due(&self, round: u64) -> bool {
        self.enabled && round % self.sample_every == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn global(&self) -> &TimeSeries {
        &self.global
    }

    pub fn per_proc(&self) -> &[TimeSeries] {
        &self.per_proc
    }

    /// Record the aggregate sample plus each process's sample for one
    /// sampling tick. `per_proc` must be indexed by process.
    pub fn record(&mut self, global: Sample, per_proc: &[Sample]) {
        if !self.enabled {
            return;
        }
        debug_assert!(global.proc.is_none());
        self.global.push(global);
        for (i, s) in per_proc.iter().enumerate() {
            if let Some(series) = self.per_proc.get_mut(i) {
                debug_assert_eq!(s.proc, Some(ProcId(i as u16)));
                series.push(*s);
            }
        }
    }

    /// All samples in export order: the global series, then each
    /// process's series. Paired with the capacity for JSONL export.
    pub fn export(&self) -> Vec<(Sample, usize)> {
        let mut out: Vec<(Sample, usize)> = self
            .global
            .samples()
            .iter()
            .map(|&s| (s, self.capacity))
            .collect();
        for series in &self.per_proc {
            out.extend(series.samples().iter().map(|&s| (s, self.capacity)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(round: u64) -> Sample {
        Sample {
            at: SimTime(round * 1_000),
            round,
            cdms_sent: round * 3,
            objects_reclaimed: round,
            live_objects: 100u64.saturating_sub(round),
            ..Sample::default()
        }
    }

    #[test]
    fn ring_decimates_by_two_and_preserves_endpoints() {
        let mut ts = TimeSeries::new(8);
        for r in 1..=100 {
            ts.push(sample(r));
        }
        assert!(ts.len() <= 8, "capacity bound violated: {}", ts.len());
        assert!(ts.decimations() > 0);
        assert_eq!(ts.offered(), 100);
        assert_eq!(ts.samples().first().unwrap().round, 1, "first preserved");
        assert_eq!(ts.samples().last().unwrap().round, 100, "last preserved");
        // Retained rounds are still strictly increasing.
        let rounds: Vec<u64> = ts.samples().iter().map(|s| s.round).collect();
        assert!(rounds.windows(2).all(|w| w[0] < w[1]), "{rounds:?}");
    }

    #[test]
    fn tiny_capacity_is_clamped() {
        let mut ts = TimeSeries::new(0);
        assert_eq!(ts.capacity(), 4);
        for r in 1..=20 {
            ts.push(sample(r));
        }
        assert!(ts.len() <= 4);
        assert_eq!(ts.samples().last().unwrap().round, 20);
    }

    #[test]
    fn sample_json_round_trips() {
        let s = Sample {
            at: SimTime(42_000),
            round: 7,
            proc: Some(ProcId(3)),
            live_objects: 12,
            candidates: 4,
            max_backoff_attempt: 2,
            in_flight_cdms: 5,
            inbox_depth: 1,
            votes_held: 1,
            lgc_runs: 9,
            snapshots: 9,
            cdms_sent: 31,
            cycles_detected: 2,
            objects_reclaimed: 52,
            scions_reclaimed: 6,
            pinned_scions: 2,
            mutator_ops: 77,
        };
        let v = s.to_json(256);
        let line = serde_json::to_string(&v).unwrap();
        assert!(line.contains("\"type\":\"sample\""), "{line}");
        let (back, cap) = Sample::from_json(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(cap, 256);
        // The global variant omits the proc field entirely.
        let g = Sample { proc: None, ..s };
        let gv = g.to_json(256);
        assert!(!serde_json::to_string(&gv).unwrap().contains("\"proc\""));
        assert_eq!(Sample::from_json(&gv).unwrap().0.proc, None);
    }

    #[test]
    fn rates_derive_avg_total_and_peak() {
        // 3 samples over 2 seconds; cdms_sent grows 0 -> 10 -> 40: the
        // second interval runs at 30/s, the average at 20/s.
        let mk = |at_us: u64, round: u64, sent: u64| Sample {
            at: SimTime(at_us),
            round,
            cdms_sent: sent,
            ..Sample::default()
        };
        let series = [mk(0, 1, 0), mk(1_000_000, 2, 10), mk(2_000_000, 3, 40)];
        let rates = counter_rates(&series);
        let row = rates.iter().find(|r| r.name == "cdms_sent").unwrap();
        assert_eq!(row.total, 40);
        assert!((row.per_sec_avg - 20.0).abs() < 1e-9, "{row:?}");
        assert!((row.per_sec_peak - 30.0).abs() < 1e-9, "{row:?}");
        assert!(counter_rates(&series[..1]).is_empty(), "needs two samples");
    }

    #[test]
    fn sparkline_scales_and_handles_flat_series() {
        let line = sparkline(&[0, 1, 2, 3, 4, 5, 6, 7], 8);
        assert_eq!(line, "▁▂▃▄▅▆▇█");
        assert_eq!(sparkline(&[5, 5, 5], 3), "▁▁▁", "flat = baseline");
        assert_eq!(sparkline(&[], 10), "");
        // More values than width: bucketed down, endpoints still visible.
        let wide = sparkline(&(0..100).collect::<Vec<u64>>(), 10);
        assert_eq!(wide.chars().count(), 10);
        assert!(wide.starts_with('▁') && wide.ends_with('█'));
    }

    #[test]
    fn check_series_catches_each_violation_class() {
        let clean: Vec<(Sample, usize)> = (1..=5).map(|r| (sample(r), 16)).collect();
        assert!(check_series("g", &clean).is_empty());

        // Backwards timestamp.
        let mut bad = clean.clone();
        bad[3].0.at = SimTime(1);
        assert!(check_series("g", &bad)
            .iter()
            .any(|v| v.contains("timestamp")));

        // Repeated round.
        let mut bad = clean.clone();
        bad[2].0.round = bad[1].0.round;
        assert!(check_series("g", &bad)
            .iter()
            .any(|v| v.contains("round not increasing")));

        // Counter regression.
        let mut bad = clean.clone();
        bad[4].0.cdms_sent = 0;
        assert!(check_series("g", &bad)
            .iter()
            .any(|v| v.contains("cdms_sent went backwards")));

        // Capacity bound.
        let over: Vec<(Sample, usize)> = (1..=8).map(|r| (sample(r), 4)).collect();
        assert!(check_series("g", &over)
            .iter()
            .any(|v| v.contains("capacity")));
    }

    #[test]
    fn sampler_disabled_records_nothing() {
        let mut s = Sampler::disabled();
        assert!(!s.enabled());
        assert!(!s.due(4));
        s.record(Sample::default(), &[]);
        assert!(s.global().is_empty());
        assert!(s.export().is_empty());
    }

    #[test]
    fn sampler_cadence_and_series_layout() {
        let cfg = SamplingConfig {
            enabled: true,
            sample_every: 3,
            capacity: 16,
        };
        let mut s = Sampler::new(&cfg, 2);
        assert!(!s.due(1) && !s.due(2) && s.due(3) && s.due(6));
        let per = [
            Sample {
                proc: Some(ProcId(0)),
                ..sample(3)
            },
            Sample {
                proc: Some(ProcId(1)),
                ..sample(3)
            },
        ];
        s.record(sample(3), &per);
        assert_eq!(s.global().len(), 1);
        assert_eq!(s.per_proc()[0].len(), 1);
        assert_eq!(s.per_proc()[1].len(), 1);
        assert_eq!(s.export().len(), 3, "global + 2 proc samples");
        let grouped = group_by_series(&s.export());
        assert_eq!(grouped.len(), 3);
        assert_eq!(grouped[0].0, None);
    }
}
