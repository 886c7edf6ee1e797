//! Property tests for the CDM algebra: matching laws the detector's
//! safety argument leans on.

use acdgc_dcda::{Cdm, MatchResult, Residue};
use acdgc_model::{DetectionId, ProcId, RefId};
use proptest::prelude::*;

fn entries() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..12, 0u64..4), 0..16)
}

fn build(source: &[(u64, u64)], target: &[(u64, u64)]) -> Cdm {
    let mut cdm = Cdm::initiate(
        DetectionId(0),
        ProcId(0),
        RefId(source.first().map(|e| e.0).unwrap_or(0)),
        source.first().map(|e| e.1).unwrap_or(0),
    );
    cdm.source = Default::default();
    for &(r, ic) in source {
        cdm.add_source(RefId(r), ic);
    }
    for &(r, ic) in target {
        cdm.add_target(RefId(r), ic);
    }
    cdm
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Matching is a pure function: same algebra, same result, and
    /// insertion order cannot matter (sets are canonical).
    #[test]
    fn matching_is_deterministic_and_order_free(
        mut source in entries(),
        target in entries(),
    ) {
        let a = build(&source, &target);
        source.reverse();
        let b = build(&source, &target);
        // First-wins on duplicate keys means reversal may change captured
        // counters; restrict the law to duplicate-free inputs.
        let mut seen = std::collections::HashSet::new();
        prop_assume!(source.iter().all(|e| seen.insert(e.0)));
        prop_assert!(a.same_algebra(&b));
        prop_assert_eq!(a.matching(true), b.matching(true));
    }

    /// CycleFound with the barrier on requires exact key sets AND exact
    /// counter agreement.
    #[test]
    fn cycle_verdict_characterization(source in entries(), target in entries()) {
        let cdm = build(&source, &target);
        let verdict = cdm.matching(true);
        let keys_equal = cdm.source.len() == cdm.target.len()
            && cdm.source.keys().all(|k| cdm.target.contains_key(k));
        let ics_equal = cdm
            .source
            .iter()
            .all(|(k, v)| cdm.target.get(k) == Some(v));
        match verdict {
            MatchResult::CycleFound => {
                prop_assert!(keys_equal && ics_equal);
            }
            MatchResult::IcMismatch { ref_id, source_ic, target_ic } => {
                prop_assert_eq!(cdm.source.get(&ref_id), Some(&source_ic));
                prop_assert_eq!(cdm.target.get(&ref_id), Some(&target_ic));
                prop_assert_ne!(source_ic, target_ic);
            }
            MatchResult::Pending => {
                // Pending residues are exactly the symmetric difference of
                // the key sets (restricted per side).
                let Residue { unresolved, wavefront } = cdm.residue();
                for r in &unresolved {
                    prop_assert!(cdm.source.contains_key(r));
                    prop_assert!(!cdm.target.contains_key(r));
                }
                for r in &wavefront {
                    prop_assert!(cdm.target.contains_key(r));
                    prop_assert!(!cdm.source.contains_key(r));
                }
                prop_assert!(!(keys_equal && ics_equal), "should have been a cycle");
            }
        }
    }

    /// With the barrier OFF, matching never reports a mismatch (the unsafe
    /// A1 regime), and the verdict depends on key sets alone.
    #[test]
    fn barrier_off_ignores_counters(source in entries(), target in entries()) {
        let cdm = build(&source, &target);
        let verdict = cdm.matching(false);
        let is_mismatch = matches!(verdict, MatchResult::IcMismatch { .. });
        prop_assert!(!is_mismatch);
        let keys_equal = cdm.source.len() == cdm.target.len()
            && cdm.source.keys().all(|k| cdm.target.contains_key(k));
        prop_assert_eq!(matches!(verdict, MatchResult::CycleFound), keys_equal);
    }

    /// The barrier is monotone-conservative: if barrier-on says cycle,
    /// barrier-off agrees (turning the barrier on can only *block*
    /// conclusions, never create them).
    #[test]
    fn barrier_only_blocks(source in entries(), target in entries()) {
        let cdm = build(&source, &target);
        if cdm.matching(true) == MatchResult::CycleFound {
            prop_assert_eq!(cdm.matching(false), MatchResult::CycleFound);
        }
    }

    /// Adding any target entry for an unresolved source reference with the
    /// matching counter strictly shrinks the unresolved set.
    #[test]
    fn resolving_a_dependency_shrinks_unresolved(source in entries(), target in entries()) {
        let cdm = build(&source, &target);
        if let MatchResult::Pending = cdm.matching(true) {
            let unresolved = cdm.residue().unresolved;
            if let Some(&r) = unresolved.first() {
                let ic = *cdm.source.get(&r).expect("an unresolved reference has a source entry");
                let mut resolved = cdm.clone();
                resolved.add_target(r, ic);
                match resolved.matching(true) {
                    MatchResult::Pending => {
                        let u2 = resolved.residue().unresolved;
                        prop_assert_eq!(u2.len(), unresolved.len() - 1);
                    }
                    MatchResult::CycleFound => {
                        prop_assert_eq!(unresolved.len(), 1);
                    }
                    MatchResult::IcMismatch { .. } => {
                        prop_assert!(false, "added matching counter");
                    }
                }
            }
        }
    }

    /// The merge-walk verdict equals matching by definition: abort on the
    /// lowest reference both sets hold with different counters (barrier
    /// on), else a cycle exactly when the residue is empty.
    #[test]
    fn verdict_follows_the_residue(
        source in entries(),
        target in entries(),
        barrier in 0u8..2,
    ) {
        let (cdm, barrier) = (build(&source, &target), barrier == 1);
        let mismatch = cdm.source.iter().find_map(|(r, &source_ic)| {
            let &target_ic = cdm.target.get(r)?;
            (barrier && source_ic != target_ic).then_some(MatchResult::IcMismatch {
                ref_id: *r,
                source_ic,
                target_ic,
            })
        });
        let residue = cdm.residue();
        let expected = mismatch.unwrap_or(if residue == Residue::default() {
            MatchResult::CycleFound
        } else {
            MatchResult::Pending
        });
        prop_assert_eq!(cdm.matching(barrier), expected);
    }

    /// Wire size is monotone in entry count and matches the documented
    /// formula.
    #[test]
    fn size_formula(source in entries(), target in entries()) {
        let cdm = build(&source, &target);
        prop_assert_eq!(
            cdm.size_bytes(),
            32 + 16 * (cdm.source.len() + cdm.target.len())
        );
    }
}
