//! Log2-bucket duration histograms: cost *distributions* per phase, not
//! just totals — the difference between "summarization averages 40µs" and
//! "one in a thousand summarizations stalls for 20ms".

use crate::event::Phase;
use serde_json::{json, Number, Value};
use std::fmt::Write as _;

const BUCKETS: usize = 64;

use crate::event::field_u64 as obj_u64;

fn num_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Number(Number::U64(n)) => Some(*n),
        Value::Number(Number::I64(n)) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// Power-of-two bucketed histogram over nanosecond durations. Bucket `b`
/// holds samples in `[2^(b-1), 2^b)` (bucket 0 holds 0ns). Fixed 64-slot
/// layout: merging is elementwise, recording is a `leading_zeros`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_of(nanos: u64) -> usize {
        (64 - nanos.leading_zeros() as usize).min(BUCKETS - 1)
    }

    pub fn record(&mut self, nanos: u64) {
        self.buckets[Self::bucket_of(nanos)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(nanos);
        self.max = self.max.max(nanos);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum_nanos(&self) -> u64 {
        self.sum
    }

    pub fn max_nanos(&self) -> u64 {
        self.max
    }

    pub fn mean_nanos(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound (exclusive) of the bucket containing the `q`-quantile
    /// sample; 0 for an empty histogram. Bucket resolution only — good to
    /// a factor of two, which is what log2 buckets buy.
    pub fn quantile_upper_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if b == 0 { 0 } else { 1u64 << b };
            }
        }
        self.max
    }

    /// Non-empty buckets as `(bucket_upper_ns, count)` pairs, ascending.
    pub fn nonempty_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (if b == 0 { 0 } else { 1u64 << b }, n))
    }

    /// Append this histogram in Prometheus text exposition format:
    /// cumulative `<name>_bucket{...,le="..."}` lines for every non-empty
    /// bucket plus `+Inf`, then `<name>_sum` / `<name>_count`. `labels` is
    /// the pre-rendered label set without braces (may be empty).
    pub fn to_prometheus_into(&self, name: &str, labels: &str, out: &mut String) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (upper, n) in self.nonempty_buckets() {
            cumulative += n;
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{upper}\"}} {cumulative}"
            );
        }
        let brace = if labels.is_empty() {
            String::from("{le=\"+Inf\"}")
        } else {
            format!("{{{labels},le=\"+Inf\"}}")
        };
        let _ = writeln!(out, "{name}_bucket{brace} {}", self.count);
        let suffix_labels = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        let _ = writeln!(out, "{name}_sum{suffix_labels} {}", self.sum);
        let _ = writeln!(out, "{name}_count{suffix_labels} {}", self.count);
    }

    /// Inverse of [`Histogram::to_json`]. `None` on schema mismatch
    /// (including a bucket upper bound that is not 0 or a power of two).
    pub fn from_json(v: &Value) -> Option<Histogram> {
        let m = match v {
            Value::Object(m) => m,
            _ => return None,
        };
        let mut h = Histogram {
            count: obj_u64(m, "count")?,
            sum: obj_u64(m, "sum_ns")?,
            max: obj_u64(m, "max_ns")?,
            ..Histogram::default()
        };
        let pairs = match m.get("buckets")? {
            Value::Array(a) => a,
            _ => return None,
        };
        for pair in pairs {
            let (upper, n) = match pair {
                Value::Array(p) if p.len() == 2 => (num_u64(&p[0])?, num_u64(&p[1])?),
                _ => return None,
            };
            let b = if upper == 0 {
                0
            } else if upper.is_power_of_two() {
                upper.trailing_zeros() as usize
            } else {
                return None;
            };
            if b >= BUCKETS {
                return None;
            }
            h.buckets[b] = n;
        }
        (h.buckets.iter().sum::<u64>() == h.count).then_some(h)
    }

    /// Non-empty buckets as `[bucket_upper_ns, count]` pairs.
    pub fn to_json(&self) -> Value {
        let pairs: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| {
                let upper: u64 = if b == 0 { 0 } else { 1u64 << b };
                json!([upper, n])
            })
            .collect();
        json!({
            "count": self.count,
            "sum_ns": self.sum,
            "max_ns": self.max,
            "buckets": pairs,
        })
    }
}

/// One [`Histogram`] per [`Phase`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseHistograms {
    hists: [Histogram; Phase::COUNT],
}

impl PhaseHistograms {
    pub fn get(&self, phase: Phase) -> &Histogram {
        &self.hists[phase.index()]
    }

    pub fn record(&mut self, phase: Phase, nanos: u64) {
        self.hists[phase.index()].record(nanos);
    }

    pub fn merge(&mut self, other: &PhaseHistograms) {
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }

    /// Total samples across all phases.
    pub fn total_count(&self) -> u64 {
        self.hists.iter().map(|h| h.count()).sum()
    }

    /// Phases with at least one sample, keyed by phase name.
    pub fn to_json(&self) -> Value {
        let mut m = serde_json::Map::new();
        for phase in Phase::ALL {
            let h = self.get(phase);
            if h.count() > 0 {
                m.insert(phase.name().to_string(), h.to_json());
            }
        }
        Value::Object(m)
    }

    /// Inverse of [`PhaseHistograms::to_json`] (unknown phase names are a
    /// schema error, absent phases stay empty).
    pub fn from_json(v: &Value) -> Option<PhaseHistograms> {
        let m = match v {
            Value::Object(m) => m,
            _ => return None,
        };
        let mut out = PhaseHistograms::default();
        for (name, hv) in m.iter() {
            let phase = Phase::from_name(name)?;
            out.hists[phase.index()] = Histogram::from_json(hv)?;
        }
        Some(out)
    }

    /// Append every sampled phase as one labelled Prometheus histogram
    /// family, `acdgc_phase_duration_nanoseconds{phase="..."}` (metric
    /// names are documented in docs/OBSERVABILITY.md).
    pub fn to_prometheus_into(&self, out: &mut String) {
        const NAME: &str = "acdgc_phase_duration_nanoseconds";
        if self.total_count() == 0 {
            return;
        }
        out.push_str(
            "# HELP acdgc_phase_duration_nanoseconds On-CPU time per collector phase \
             (log2 buckets, nanoseconds).\n",
        );
        out.push_str("# TYPE acdgc_phase_duration_nanoseconds histogram\n");
        for phase in Phase::ALL {
            let h = self.get(phase);
            if h.count() > 0 {
                h.to_prometheus_into(NAME, &format!("phase=\"{}\"", phase.name()), out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_nanos(), 1030);
        assert_eq!(h.max_nanos(), 1024);
        // 0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 1024 -> bucket 11.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[11], 1);
    }

    #[test]
    fn merge_adds_elementwise() {
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(5);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_nanos(), 100);
        assert_eq!(a.buckets[3], 2, "two samples of 5ns");
    }

    #[test]
    fn quantiles_resolve_to_bucket_bounds() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10); // bucket 4, upper bound 16
        }
        h.record(10_000); // bucket 14, upper bound 16384
        assert_eq!(h.quantile_upper_nanos(0.5), 16);
        assert_eq!(h.quantile_upper_nanos(1.0), 16_384);
        assert_eq!(Histogram::new().quantile_upper_nanos(0.5), 0);
    }

    #[test]
    fn huge_sample_lands_in_last_bucket() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.buckets[BUCKETS - 1], 1);
    }

    #[test]
    fn zero_duration_samples_stay_in_bucket_zero() {
        // Sub-nanosecond phases truncate to 0ns on fast clocks; they must
        // neither vanish nor leak into the 1ns bucket.
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum_nanos(), 0);
        assert_eq!(h.max_nanos(), 0);
        assert_eq!(h.buckets[0], 10);
        assert_eq!(h.buckets[1], 0);
        assert_eq!(h.mean_nanos(), 0);
        assert_eq!(h.quantile_upper_nanos(0.99), 0);
        assert_eq!(h.nonempty_buckets().collect::<Vec<_>>(), vec![(0, 10)]);
    }

    #[test]
    fn top_bucket_saturates_instead_of_overflowing() {
        // Everything from 2^62 up shares the last bucket; its nominal
        // upper bound (2^63) must not overflow the shift.
        let mut h = Histogram::new();
        h.record(1u64 << 62);
        h.record(u64::MAX / 2);
        h.record(u64::MAX);
        assert_eq!(h.buckets[BUCKETS - 1], 3);
        assert_eq!(h.max_nanos(), u64::MAX);
        assert_eq!(h.quantile_upper_nanos(1.0), 1u64 << 63);
        // sum saturates rather than wrapping.
        assert_eq!(h.sum_nanos(), u64::MAX);
    }

    #[test]
    fn quantiles_on_empty_and_single_sample() {
        let empty = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(empty.quantile_upper_nanos(q), 0, "empty at q={q}");
        }
        assert_eq!(empty.mean_nanos(), 0, "empty mean must not divide by 0");

        let mut one = Histogram::new();
        one.record(100); // bucket 7, upper 128
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(one.quantile_upper_nanos(q), 128, "single sample at q={q}");
        }
        // Out-of-range quantiles clamp instead of indexing off the end.
        assert_eq!(one.quantile_upper_nanos(-1.0), 128);
        assert_eq!(one.quantile_upper_nanos(2.0), 128);
    }

    #[test]
    fn histogram_json_round_trips() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(7);
        h.record(1 << 20);
        h.record(u64::MAX);
        let back = Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
        assert!(Histogram::from_json(&json!({"count": 1})).is_none());
        assert!(
            Histogram::from_json(&json!({
                "count": 1, "sum_ns": 3, "max_ns": 3, "buckets": [[3, 1]]
            }))
            .is_none(),
            "a non-power-of-two bucket bound is a schema error"
        );
        assert!(
            Histogram::from_json(&json!({
                "count": 5, "sum_ns": 3, "max_ns": 3, "buckets": [[4, 1]]
            }))
            .is_none(),
            "bucket total must match the stored count"
        );
    }

    #[test]
    fn phase_histograms_json_round_trips() {
        let mut p = PhaseHistograms::default();
        p.record(Phase::Lgc, 100);
        p.record(Phase::Lgc, 0);
        p.record(Phase::CdmHandling, 1 << 30);
        let back = PhaseHistograms::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        assert!(
            PhaseHistograms::from_json(&json!({"warp_drive": {}})).is_none(),
            "unknown phase names are rejected"
        );
    }

    #[test]
    fn prometheus_exposition_is_cumulative_and_closed() {
        let mut p = PhaseHistograms::default();
        p.record(Phase::Lgc, 3); // bucket upper 4
        p.record(Phase::Lgc, 3);
        p.record(Phase::Lgc, 1000); // bucket upper 1024
        let mut out = String::new();
        p.to_prometheus_into(&mut out);
        assert!(out.starts_with("# HELP acdgc_phase_duration_nanoseconds "));
        let help_idx = out.find("# HELP").unwrap();
        let type_idx = out.find("# TYPE acdgc_phase_duration_nanoseconds histogram\n");
        assert!(
            type_idx.is_some() && help_idx < type_idx.unwrap(),
            "# HELP precedes # TYPE:\n{out}"
        );
        let get = |needle: &str| {
            out.lines()
                .find(|l| l.starts_with(needle))
                .unwrap_or_else(|| panic!("missing {needle} in:\n{out}"))
        };
        assert!(
            get("acdgc_phase_duration_nanoseconds_bucket{phase=\"lgc\",le=\"4\"}").ends_with(" 2")
        );
        assert!(
            get("acdgc_phase_duration_nanoseconds_bucket{phase=\"lgc\",le=\"1024\"}")
                .ends_with(" 3"),
            "cumulative, not per-bucket"
        );
        assert!(
            get("acdgc_phase_duration_nanoseconds_bucket{phase=\"lgc\",le=\"+Inf\"}")
                .ends_with(" 3")
        );
        assert!(get("acdgc_phase_duration_nanoseconds_sum{phase=\"lgc\"}").ends_with(" 1006"));
        assert!(get("acdgc_phase_duration_nanoseconds_count{phase=\"lgc\"}").ends_with(" 3"));
        // Unsampled phases are omitted entirely.
        assert!(!out.contains("phase=\"candidate_scan\""));
    }

    #[test]
    fn per_phase_isolation_and_merge() {
        let mut p = PhaseHistograms::default();
        p.record(Phase::Lgc, 100);
        p.record(Phase::SummarizeEngine, 200);
        assert_eq!(p.get(Phase::Lgc).count(), 1);
        assert_eq!(p.get(Phase::SnapshotCapture).count(), 0);
        let mut q = PhaseHistograms::default();
        q.record(Phase::Lgc, 300);
        p.merge(&q);
        assert_eq!(p.get(Phase::Lgc).count(), 2);
        assert_eq!(p.total_count(), 3);
    }
}
