//! System-wide counters: the raw material of every experiment table.

use serde::Serialize;
use serde_json::Value;

/// Counters accumulated by a [`crate::System`] run. All monotone counters
/// except [`Metrics::max_cdm_bytes`], which is a high-water gauge; snapshot
/// and subtract with [`Metrics::since`] to measure a window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct Metrics {
    // Mutator.
    /// Remote invocations delivered through a stub/scion pair.
    pub invocations: u64,
    /// Invocation replies returned to the caller.
    pub replies: u64,
    /// References exported across process boundaries.
    pub refs_exported: u64,

    // Concurrent mutator (threaded runtime), attributed to the process
    // holding the lock when the op applied.
    /// Concurrent-mutator *allocate* ops applied.
    pub mutator_allocs: u64,
    /// Concurrent-mutator *export* ops applied (pair created or re-shared).
    pub mutator_exports: u64,
    /// Concurrent-mutator *invoke* ops applied (IC bump + pinned delivery).
    pub mutator_invokes: u64,
    /// Concurrent-mutator *drop-reference* ops applied.
    pub mutator_ref_drops: u64,
    /// Concurrent-mutator root removals applied.
    pub mutator_root_drops: u64,
    /// Ops the mutator gave up on because a precondition failed under a
    /// race (handle died, stub vanished); bounded interference, not error.
    pub mutator_ops_skipped: u64,

    // Local GC.
    /// Local mark-sweep collections run.
    pub lgc_runs: u64,
    /// Objects freed by local collection.
    pub objects_reclaimed: u64,
    /// Weak-reference monitor passes (OBIWAN integration mode).
    pub monitor_passes: u64,

    // Snapshot/summarization.
    /// Graph snapshots summarized.
    pub snapshots: u64,
    /// Scion entries across all published summaries (cumulative).
    pub summary_scions: u64,
    /// Stub entries across all published summaries (cumulative).
    pub summary_stubs: u64,

    // Acyclic DGC.
    /// `NewSetStubs` messages sent.
    pub nss_sent: u64,
    /// `NewSetStubs` messages applied at the receiver.
    pub nss_applied: u64,
    /// `NewSetStubs` messages discarded as stale (older sequence).
    pub nss_stale: u64,
    /// Scions reclaimed by the reference-listing acyclic DGC.
    pub scions_reclaimed_acyclic: u64,

    // Cycle detection.
    /// Cycle detections initiated from a candidate scan.
    pub detections_started: u64,
    /// CDMs put on the wire (initiations and forwards).
    pub cdms_sent: u64,
    /// CDMs delivered and expanded at a receiver.
    pub cdms_delivered: u64,
    /// Detections that ended in an exact algebra match (garbage cycle).
    pub cycles_detected: u64,
    /// Scions deleted on a cycle verdict (incarnation + IC re-checked).
    pub scions_deleted_by_dcda: u64,
    /// CDMs dropped because the target scion no longer existed.
    pub detections_dropped_no_scion: u64,
    /// Detections aborted by the invocation-counter barrier.
    pub detections_aborted_ic: u64,
    /// Derivations dropped by the hop cap.
    pub detections_dropped_hops: u64,
    /// Derivations that died with no outgoing stubs to follow.
    pub detections_terminated_no_stubs: u64,
    /// Derivations that died because every outgoing path was locally reachable (a live path).
    pub detections_terminated_local: u64,
    /// Derivations stopped by the §3.1 step 15 no-new-information rule.
    pub detections_terminated_no_new_info: u64,
    /// Detections stopped by the per-detection message budget.
    pub detections_terminated_budget: u64,
    /// Sibling branches pruned because the outgoing path was locally
    /// reachable (a live path, §2.1).
    pub branches_pruned_local: u64,
    /// Sibling branches stopped by the §3.1 step 15 no-new-information
    /// rule while other branches kept going.
    pub branches_no_new_info: u64,
    /// Termination-credit echoes sent back to remote detection initiators
    /// (weight-throwing termination detection on the CDM walk).
    pub liveness_echoes: u64,
    /// Detections whose credit came home fully with every branch ending
    /// conclusively: the candidate was proven live and is suppressed from
    /// re-scanning until the next mutation epoch.
    pub liveness_verdicts: u64,
    /// High-water gauge, not a counter: the largest encoded CDM seen.
    pub max_cdm_bytes: u64,

    // Fault injection / unreliable transport (threaded runtime).
    /// `NewSetStubs` messages lost (injected fault or full inbox).
    pub nss_dropped: u64,
    /// CDM / credit-echo messages lost (injected fault or full inbox).
    pub cdms_dropped: u64,
    /// Injected duplicate CDM / credit-echo copies discarded by the
    /// receiver-side tag window (duplicates must not forge credit).
    pub cdms_deduped: u64,
    /// `DeleteScion` messages lost (injected fault or full inbox).
    pub deletes_dropped: u64,
    /// NSS acknowledgements lost (injected fault or full inbox).
    pub acks_dropped: u64,
    /// Message losses injected by the seeded fault model.
    pub faults_injected: u64,
    /// Message duplications injected by the seeded fault model.
    pub duplicates_injected: u64,
    /// `NewSetStubs` retransmissions (unacked past the retry horizon).
    pub nss_retries: u64,

    // Quiescence voting (threaded runtime).
    /// Quiescence votes cast by threaded workers.
    pub votes_cast: u64,
    /// Quiescence votes rescinded on renewed activity.
    pub votes_rescinded: u64,

    // Oracle verdicts (safety violations; must stay 0 unless an unsafe
    // ablation is deliberately enabled).
    /// Oracle verdicts: live objects freed (must stay 0).
    pub unsafe_frees: u64,
    /// Oracle verdicts: live scions deleted (must stay 0).
    pub unsafe_scion_deletes: u64,
    /// Oracle verdicts: invocation arrived at a deleted scion (must stay 0).
    pub invoke_on_missing_scion: u64,
    /// Oracle verdicts: reply arrived at a deleted stub (must stay 0).
    pub reply_on_missing_stub: u64,
}

/// Every counter field, i.e. every field except the `max_cdm_bytes` gauge.
/// Both `since` and `absorb` must treat the gauge specially, so the list
/// lives in one place.
macro_rules! for_each_counter {
    ($m:ident) => {
        $m!(
            invocations,
            replies,
            refs_exported,
            mutator_allocs,
            mutator_exports,
            mutator_invokes,
            mutator_ref_drops,
            mutator_root_drops,
            mutator_ops_skipped,
            lgc_runs,
            objects_reclaimed,
            monitor_passes,
            snapshots,
            summary_scions,
            summary_stubs,
            nss_sent,
            nss_applied,
            nss_stale,
            scions_reclaimed_acyclic,
            detections_started,
            cdms_sent,
            cdms_delivered,
            cycles_detected,
            scions_deleted_by_dcda,
            detections_dropped_no_scion,
            detections_aborted_ic,
            detections_dropped_hops,
            detections_terminated_no_stubs,
            detections_terminated_local,
            detections_terminated_no_new_info,
            detections_terminated_budget,
            branches_pruned_local,
            branches_no_new_info,
            liveness_echoes,
            liveness_verdicts,
            nss_dropped,
            cdms_dropped,
            cdms_deduped,
            deletes_dropped,
            acks_dropped,
            faults_injected,
            duplicates_injected,
            nss_retries,
            votes_cast,
            votes_rescinded,
            unsafe_frees,
            unsafe_scion_deletes,
            invoke_on_missing_scion,
            reply_on_missing_stub,
        )
    };
}

impl Metrics {
    /// Difference `self - earlier` for window measurements; saturating so a
    /// reset never panics. Counters subtract; the `max_cdm_bytes` gauge
    /// carries the later value (a high-water mark has no meaningful
    /// per-window difference).
    pub fn since(&self, earlier: &Metrics) -> Metrics {
        macro_rules! diff {
            ($($f:ident),* $(,)?) => {
                Metrics {
                    $($f: self.$f.saturating_sub(earlier.$f),)*
                    max_cdm_bytes: self.max_cdm_bytes,
                }
            };
        }
        for_each_counter!(diff)
    }

    /// Merge `other` into `self`: counters add, the gauge takes the max.
    /// Used to fold per-process metrics into a system-wide view.
    pub fn absorb(&mut self, other: &Metrics) {
        macro_rules! add {
            ($($f:ident),* $(,)?) => {
                $(self.$f += other.$f;)*
            };
        }
        for_each_counter!(add);
        self.max_cdm_bytes = self.max_cdm_bytes.max(other.max_cdm_bytes);
    }

    /// Every field as a flat JSON object, field names as keys. Built by
    /// hand (the vendored `serde_json` has no generic serializer); the
    /// `for_each_counter!` list keeps it complete by construction.
    pub fn to_json(&self) -> Value {
        let mut m = serde_json::Map::new();
        macro_rules! put {
            ($($f:ident),* $(,)?) => {
                $(m.insert(stringify!($f).to_string(), Value::from(self.$f));)*
            };
        }
        for_each_counter!(put);
        m.insert("max_cdm_bytes".to_string(), Value::from(self.max_cdm_bytes));
        Value::Object(m)
    }

    /// Render every counter in Prometheus text exposition format:
    /// `# HELP` + `# TYPE acdgc_<field>_total counter` + value per
    /// counter, plus the `acdgc_max_cdm_bytes` gauge. Metric names are the
    /// field names and are documented in docs/OBSERVABILITY.md;
    /// callers append phase histograms via
    /// `PhaseHistograms::to_prometheus_into` for the full scrape payload.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        self.to_prometheus_into(&mut out);
        out
    }

    /// Append the Prometheus rendering to `out` (see
    /// [`Metrics::to_prometheus`]); lets threaded callers compose one
    /// scrape payload across several pieces without reallocating.
    pub fn to_prometheus_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        macro_rules! expose {
            ($($f:ident),* $(,)?) => {
                $(
                    let name = stringify!($f);
                    let _ = writeln!(
                        out,
                        "# HELP acdgc_{name}_total Cumulative {} count since process start.",
                        name.replace('_', " ")
                    );
                    let _ = writeln!(out, "# TYPE acdgc_{name}_total counter");
                    let _ = writeln!(out, "acdgc_{name}_total {}", self.$f);
                )*
            };
        }
        for_each_counter!(expose);
        out.push_str(
            "# HELP acdgc_max_cdm_bytes Largest encoded CDM observed (high-water gauge).\n",
        );
        out.push_str("# TYPE acdgc_max_cdm_bytes gauge\n");
        let _ = writeln!(out, "acdgc_max_cdm_bytes {}", self.max_cdm_bytes);
    }

    /// All detection attempts that ended without finding a cycle.
    pub fn detections_failed(&self) -> u64 {
        self.detections_dropped_no_scion
            + self.detections_aborted_ic
            + self.detections_dropped_hops
            + self.detections_terminated_no_stubs
            + self.detections_terminated_local
            + self.detections_terminated_no_new_info
            + self.detections_terminated_budget
    }

    /// Safety violations observed by the oracle.
    pub fn safety_violations(&self) -> u64 {
        self.unsafe_frees + self.unsafe_scion_deletes
    }

    /// Concurrent-mutator operations completed (all kinds, skips
    /// excluded) — the `mutator_ops` time-series counter.
    pub fn mutator_ops(&self) -> u64 {
        self.mutator_allocs
            + self.mutator_exports
            + self.mutator_invokes
            + self.mutator_ref_drops
            + self.mutator_root_drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_fieldwise() {
        let a = Metrics {
            invocations: 10,
            cycles_detected: 3,
            ..Metrics::default()
        };
        let b = Metrics {
            invocations: 4,
            cycles_detected: 1,
            ..Metrics::default()
        };
        let d = a.since(&b);
        assert_eq!(d.invocations, 6);
        assert_eq!(d.cycles_detected, 2);
        assert_eq!(d.replies, 0);
    }

    #[test]
    fn since_saturates() {
        let a = Metrics::default();
        let b = Metrics {
            invocations: 5,
            ..Metrics::default()
        };
        assert_eq!(a.since(&b).invocations, 0);
    }

    #[test]
    fn since_keeps_gauge_not_difference() {
        // `max_cdm_bytes` is a high-water mark. A window where the largest
        // CDM did not grow must still report the current high water, not
        // the bogus fieldwise difference (which would be 0).
        let earlier = Metrics {
            max_cdm_bytes: 512,
            cdms_sent: 10,
            ..Metrics::default()
        };
        let later = Metrics {
            max_cdm_bytes: 512,
            cdms_sent: 25,
            ..Metrics::default()
        };
        let window = later.since(&earlier);
        assert_eq!(window.cdms_sent, 15);
        assert_eq!(window.max_cdm_bytes, 512);
    }

    #[test]
    fn absorb_adds_counters_and_maxes_gauge() {
        let mut merged = Metrics {
            cdms_sent: 3,
            max_cdm_bytes: 100,
            ..Metrics::default()
        };
        let other = Metrics {
            cdms_sent: 4,
            cycles_detected: 1,
            max_cdm_bytes: 64,
            ..Metrics::default()
        };
        merged.absorb(&other);
        assert_eq!(merged.cdms_sent, 7);
        assert_eq!(merged.cycles_detected, 1);
        assert_eq!(merged.max_cdm_bytes, 100);
    }

    /// Line-format sanity round trip: every exposition line must be a
    /// `# HELP <name> <text>` comment, a `# TYPE <name> <kind>` comment,
    /// or `<name> <integer>`; every `# TYPE` must immediately follow its
    /// own non-empty `# HELP` and be followed by its sample; and the
    /// parsed-back values must equal the source fields.
    #[test]
    fn prometheus_exposition_round_trips_line_format() {
        let m = Metrics {
            cdms_sent: 42,
            cycles_detected: 7,
            max_cdm_bytes: 4096,
            votes_cast: 8,
            ..Metrics::default()
        };
        let text = m.to_prometheus();
        let mut parsed: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
        let mut announced: Option<String> = None;
        let mut helped: Option<String> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("# HELP carries name + text");
                assert!(!help.trim().is_empty(), "empty help text: {line}");
                helped = Some(name.to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().expect("# TYPE carries a metric name");
                let kind = parts.next().expect("# TYPE carries a kind");
                assert!(parts.next().is_none(), "junk after kind: {line}");
                assert!(
                    kind == "counter" || kind == "gauge",
                    "unknown kind in {line}"
                );
                assert_eq!(
                    kind == "counter",
                    name.ends_with("_total"),
                    "counters (and only counters) use the _total suffix: {line}"
                );
                assert_eq!(
                    helped.as_deref(),
                    Some(name),
                    "# TYPE must follow its own # HELP: {line}"
                );
                announced = Some(name.to_string());
            } else {
                let (name, value) = line.split_once(' ').expect("sample line: name value");
                assert_eq!(
                    announced.as_deref(),
                    Some(name),
                    "sample must follow its own # TYPE: {line}"
                );
                assert!(name.starts_with("acdgc_"), "namespaced: {line}");
                let v: u64 = value.parse().unwrap_or_else(|e| panic!("{line}: {e}"));
                assert!(parsed.insert(name.to_string(), v).is_none(), "dup {name}");
            }
        }
        assert_eq!(parsed["acdgc_cdms_sent_total"], 42);
        assert_eq!(parsed["acdgc_cycles_detected_total"], 7);
        assert_eq!(parsed["acdgc_votes_cast_total"], 8);
        assert_eq!(parsed["acdgc_nss_sent_total"], 0, "zeroes still exposed");
        assert_eq!(parsed["acdgc_max_cdm_bytes"], 4096);
        // One sample per field: 49 counters + the gauge.
        assert_eq!(parsed.len(), 50, "{text}");
    }

    #[test]
    fn metrics_json_covers_every_field() {
        let m = Metrics {
            cdms_sent: 3,
            max_cdm_bytes: 128,
            ..Metrics::default()
        };
        match m.to_json() {
            Value::Object(obj) => {
                assert_eq!(obj.iter().count(), 50, "49 counters + gauge");
                assert_eq!(obj.get("cdms_sent"), Some(&Value::from(3u64)));
                assert_eq!(obj.get("max_cdm_bytes"), Some(&Value::from(128u64)));
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn aggregates() {
        let mut m = Metrics {
            detections_aborted_ic: 2,
            detections_terminated_no_stubs: 3,
            ..Metrics::default()
        };
        assert_eq!(m.detections_failed(), 5);
        m.unsafe_frees = 1;
        assert_eq!(m.safety_violations(), 1);
    }
}
