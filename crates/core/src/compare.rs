//! The Δ comparator (paper §IV-E, Algorithm 2).
//!
//! This module is the **normative** implementation: it computes full
//! `BTreeSet` intersections exactly as the paper's pseudo-code does, and
//! [`reference()`] is the oracle the differential harness
//! (`tests/comparator_differential.rs`) checks the indexed comparator
//! ([`crate::index`]) against. Production queries go through the index;
//! keep this path boring and obviously correct.

use std::collections::BTreeSet;

use crate::dna::{Chain, Dna, PassDelta};

/// Comparator thresholds. The paper chose `Thr = 3` common sub-chains and
/// `Ratio = 50 %` "to optimize for a high detection rate, thanks to our
/// low overhead in case of a false positive detection".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareConfig {
    /// Minimum number of common sub-chains (`Thr`).
    pub thr: usize,
    /// Minimum fraction of the maximum possible common sub-chains
    /// (`Ratio`).
    pub ratio: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig { thr: 3, ratio: 0.5 }
    }
}

/// `COMPARECHAINS` from Algorithm 2: are two sub-chain sets similar?
///
/// `EqChains = |δ^f ∩ δ^{f'}|` must reach both the absolute threshold and
/// `Ratio × min(|δ^f|, |δ^{f'}|)`.
///
/// When either side is empty, `max_eq == 0` and the function returns
/// `false` immediately — even for `thr == 0` / `ratio == 0.0`
/// configurations where the threshold inequalities would be vacuously
/// satisfied. An empty delta carries no signal, so it never matches.
pub fn compare_chains(a: &BTreeSet<Chain>, b: &BTreeSet<Chain>, config: &CompareConfig) -> bool {
    let max_eq = a.len().min(b.len());
    if max_eq == 0 {
        return false;
    }
    let eq = a.intersection(b).count();
    eq >= config.thr && (eq as f64) >= config.ratio * (max_eq as f64)
}

/// Whether pass deltas `Δ_i^f` and `Δ_i^{f'}` are similar: either the
/// removed or the added sub-chain sets match.
pub fn deltas_similar(a: &PassDelta, b: &PassDelta, config: &CompareConfig) -> bool {
    compare_chains(&a.removed, &b.removed, config) || compare_chains(&a.added, &b.added, config)
}

/// Compares a function's DNA against one VDC DNA, returning the pipeline
/// slots whose deltas are similar (the `DisPass` contribution of this VDC).
pub fn dangerous_passes(f: &Dna, vdc: &Dna, config: &CompareConfig) -> Vec<usize> {
    let n = f.len().min(vdc.len());
    (0..n)
        .filter(|&i| deltas_similar(&f.deltas[i], &vdc.deltas[i], config))
        .collect()
}

/// The naive, normative Algorithm 2 implementation — an alias of
/// [`dangerous_passes`] under the name the rest of the repo uses for the
/// oracle path. The indexed comparator ([`crate::index`]) must return
/// byte-identical results to this function for every input; the
/// differential harness enforces that.
pub fn reference(f: &Dna, vdc: &Dna, config: &CompareConfig) -> Vec<usize> {
    dangerous_passes(f, vdc, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dna::chain;

    fn set(chains: &[&[&str]]) -> BTreeSet<Chain> {
        chains.iter().map(|c| chain(c)).collect()
    }

    #[test]
    fn requires_absolute_threshold() {
        let cfg = CompareConfig::default();
        let a = set(&[&["a", "b"], &["c", "d"]]);
        let b = a.clone();
        // Only 2 common chains < Thr=3 even though ratio is 100 %.
        assert!(!compare_chains(&a, &b, &cfg));
    }

    #[test]
    fn requires_ratio() {
        let cfg = CompareConfig::default();
        // 3 common chains but the smaller set has 8 chains → ratio 37.5 %.
        let common: Vec<Vec<&str>> = vec![vec!["a", "b"], vec!["c", "d"], vec!["e", "f"]];
        let mut a: BTreeSet<Chain> = common.iter().map(|c| chain(c)).collect();
        let mut b = a.clone();
        for i in 0..5 {
            a.insert(chain(&["x", Box::leak(format!("a{i}").into_boxed_str())]));
            b.insert(chain(&["y", Box::leak(format!("b{i}").into_boxed_str())]));
        }
        assert_eq!(a.len(), 8);
        assert!(!compare_chains(&a, &b, &cfg));
        // With ratio satisfied (3 of min(3+2)=5 → 60 %), it matches.
        let a2: BTreeSet<Chain> = common.iter().map(|c| chain(c)).collect();
        let mut b2 = a2.clone();
        b2.insert(chain(&["y", "z"]));
        b2.insert(chain(&["y", "w"]));
        assert!(compare_chains(&a2, &b2, &cfg));
    }

    #[test]
    fn empty_sets_never_match() {
        let cfg = CompareConfig::default();
        let empty = BTreeSet::new();
        assert!(!compare_chains(&empty, &empty, &cfg));
        let a = set(&[&["a", "b"]]);
        assert!(!compare_chains(&a, &empty, &cfg));
        assert!(!compare_chains(&empty, &a, &cfg));
    }

    #[test]
    fn max_eq_zero_early_return_beats_degenerate_thresholds() {
        // With thr == 0 and ratio == 0.0 every threshold inequality is
        // vacuously true; only the `max_eq == 0` early return keeps empty
        // sets from matching everything.
        let cfg = CompareConfig { thr: 0, ratio: 0.0 };
        let empty = BTreeSet::new();
        let a = set(&[&["a", "b"]]);
        assert!(!compare_chains(&empty, &empty, &cfg));
        assert!(!compare_chains(&a, &empty, &cfg));
        assert!(!compare_chains(&empty, &a, &cfg));
        // Non-empty disjoint sets DO match under the degenerate config —
        // the early return only guards emptiness.
        let b = set(&[&["c", "d"]]);
        assert!(compare_chains(&a, &b, &cfg));
    }

    #[test]
    fn empty_delta_sides_never_contribute() {
        let cfg = CompareConfig { thr: 0, ratio: 0.0 };
        // Both deltas fully empty: neither side can match.
        assert!(!deltas_similar(
            &PassDelta::default(),
            &PassDelta::default(),
            &cfg
        ));
        // One populated side against an empty counterpart: still no match.
        let populated = PassDelta {
            removed: set(&[&["a", "b"]]),
            added: set(&[&["c", "d"]]),
        };
        assert!(!deltas_similar(&populated, &PassDelta::default(), &cfg));
        assert!(!deltas_similar(&PassDelta::default(), &populated, &cfg));
    }

    #[test]
    fn trivial_dna_entries_flag_nothing() {
        let cfg = CompareConfig { thr: 0, ratio: 0.0 };
        let trivial = Dna::with_slots(4);
        let mut real = Dna::with_slots(4);
        real.deltas[1].removed = set(&[&["boundscheck", "initializedlength"]]);
        assert!(dangerous_passes(&real, &trivial, &cfg).is_empty());
        assert!(dangerous_passes(&trivial, &real, &cfg).is_empty());
        assert!(dangerous_passes(&trivial, &trivial, &cfg).is_empty());
    }

    #[test]
    fn reference_is_dangerous_passes() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut f = Dna::with_slots(4);
        let mut v = Dna::with_slots(4);
        f.deltas[2].removed = set(&[&["boundscheck", "initializedlength"]]);
        v.deltas[2].removed = set(&[&["boundscheck", "initializedlength"]]);
        assert_eq!(reference(&f, &v, &cfg), dangerous_passes(&f, &v, &cfg));
        assert_eq!(reference(&f, &v, &cfg), vec![2]);
    }

    #[test]
    fn delta_similarity_on_either_side() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut a = PassDelta::default();
        let mut b = PassDelta::default();
        a.added = set(&[&["p", "q"]]);
        b.added = set(&[&["p", "q"]]);
        assert!(deltas_similar(&a, &b, &cfg));
        // Or on the removed side.
        let mut c = PassDelta::default();
        let mut d = PassDelta::default();
        c.removed = set(&[&["r", "s"]]);
        d.removed = set(&[&["r", "s"]]);
        assert!(deltas_similar(&c, &d, &cfg));
        assert!(!deltas_similar(&a, &c, &cfg));
    }

    #[test]
    fn dangerous_passes_reports_slots() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut f = Dna::with_slots(4);
        let mut v = Dna::with_slots(4);
        f.deltas[2].removed = set(&[&["boundscheck", "initializedlength"]]);
        v.deltas[2].removed = set(&[&["boundscheck", "initializedlength"]]);
        f.deltas[3].added = set(&[&["m", "n"]]);
        v.deltas[3].added = set(&[&["x", "y"]]);
        assert_eq!(dangerous_passes(&f, &v, &cfg), vec![2]);
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = CompareConfig::default();
        assert_eq!(cfg.thr, 3);
        assert!((cfg.ratio - 0.5).abs() < f64::EPSILON);
    }
}
