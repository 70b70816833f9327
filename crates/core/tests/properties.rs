//! Randomized property tests on the Δ extractor and Δ comparator, driven
//! by the repo's seeded PRNG (deterministic: every run explores the same
//! cases, failures reproduce by seed).

use std::collections::BTreeSet;

use jitbull::compare::{compare_chains, CompareConfig};
use jitbull::extract::extract_delta;
use jitbull::index::{compare_ids, fingerprint, prefilter_may_match};
use jitbull::{Chain, ChainInterner};
use jitbull_mir::{Label, MirSnapshot, SnapInstr};
use jitbull_prng::Rng;

const LABELS: &[&str] = &[
    "add",
    "mul",
    "constant:number",
    "parameter0",
    "parameter1",
    "loadelement",
    "boundscheck",
    "initializedlength",
    "unbox:array",
    "return",
    "phi",
];

const CASES: u64 = 128;

fn label(rng: &mut Rng) -> Label {
    let name: &&str = rng.pick(LABELS);
    Label::from_name(name).expect("a mnemonic")
}

/// A random DAG snapshot: instruction `k` may only reference lower ids,
/// so the graph is acyclic by construction (like freshly built MIR).
fn snapshot(rng: &mut Rng) -> MirSnapshot {
    let n = rng.gen_range(1..24usize);
    let instrs = (0..n)
        .map(|id| SnapInstr {
            id: id as u32,
            label: label(rng),
            operands: if id == 0 {
                vec![]
            } else {
                (0..rng.gen_range(0..3usize))
                    .map(|_| rng.gen_range(0..id as u32))
                    .collect()
            },
        })
        .collect();
    MirSnapshot { instrs }
}

fn chain_set(rng: &mut Rng) -> BTreeSet<Chain> {
    let n = rng.gen_range(0..12usize);
    (0..n)
        .map(|_| {
            (0..rng.gen_range(2..5usize))
                .map(|_| label(rng))
                .collect::<Chain>()
        })
        .collect()
}

/// A pass that changes nothing has empty DNA.
#[test]
fn identical_snapshots_give_empty_delta() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let s = snapshot(&mut rng);
        let delta = extract_delta(&s, &s);
        assert!(delta.is_empty(), "seed {seed}: {delta:?}");
    }
}

/// Renumbering (an id permutation) is invisible to the extractor.
#[test]
fn id_permutation_gives_empty_delta() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let s = snapshot(&mut rng);
        let offset = rng.gen_range(1..1000u32);
        let renumbered = MirSnapshot {
            instrs: s
                .instrs
                .iter()
                .map(|i| SnapInstr {
                    id: i.id + offset,
                    label: i.label,
                    operands: i.operands.iter().map(|o| o + offset).collect(),
                })
                .collect(),
        };
        let delta = extract_delta(&s, &renumbered);
        assert!(delta.is_empty(), "seed {seed}: {delta:?}");
    }
}

/// Deltas are anti-symmetric: swapping before/after swaps removed and
/// added.
#[test]
fn delta_is_antisymmetric() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let a = snapshot(&mut rng);
        let b = snapshot(&mut rng);
        let ab = extract_delta(&a, &b);
        let ba = extract_delta(&b, &a);
        assert_eq!(ab.removed, ba.added, "seed {seed}");
        assert_eq!(ab.added, ba.removed, "seed {seed}");
    }
}

/// Self-comparison matches exactly when the set clears `Thr`.
#[test]
fn self_comparison_thresholds() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let set = chain_set(&mut rng);
        let thr = rng.gen_range(1..6usize);
        let config = CompareConfig { thr, ratio: 0.5 };
        let matches = compare_chains(&set, &set, &config);
        assert_eq!(matches, set.len() >= thr, "seed {seed}");
    }
}

/// Disjoint chain sets never match.
#[test]
fn disjoint_sets_never_match() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let set = chain_set(&mut rng);
        let config = CompareConfig::default();
        let relabeled: BTreeSet<Chain> = set
            .iter()
            .map(|c| {
                let mut c = c.clone();
                // A label outside `LABELS`, so no chain of `set` has it.
                c.push(Label::from_name("print").expect("a mnemonic"));
                c
            })
            .collect();
        assert!(!compare_chains(&set, &relabeled, &config), "seed {seed}");
    }
}

/// Interner round-trip: every interned chain resolves back to itself,
/// ids are stable under later interning, and equal chains share one id.
#[test]
fn interner_round_trip_stability_and_dedup() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let chains: Vec<Chain> = chain_set(&mut rng).into_iter().collect();
        let mut interner = ChainInterner::new();
        let ids: Vec<u32> = chains.iter().map(|c| interner.intern(c)).collect();
        // Round-trip.
        for (c, &id) in chains.iter().zip(&ids) {
            assert_eq!(interner.resolve(id), Some(c), "seed {seed}");
        }
        // Dedup: distinct chains got distinct ids, equal chains equal ids.
        for (i, a) in chains.iter().enumerate() {
            for (j, b) in chains.iter().enumerate() {
                assert_eq!(a == b, ids[i] == ids[j], "seed {seed}: {i} vs {j}");
            }
        }
        // Stability: interning more chains never moves an existing id.
        let more = chain_set(&mut rng);
        for c in &more {
            interner.intern(c);
        }
        for (c, &id) in chains.iter().zip(&ids) {
            assert_eq!(interner.intern(&c.clone()), id, "seed {seed}");
            assert_eq!(interner.resolve(id), Some(c), "seed {seed}");
        }
    }
}

/// The fingerprint prefilter has no false negatives: whenever two chain
/// sets intersect, their fingerprints share at least one bit.
#[test]
fn fingerprint_never_rejects_intersecting_sets() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let a = chain_set(&mut rng);
        let b = chain_set(&mut rng);
        // Force an intersection half the time by injecting a shared chain.
        let (a, b) = if seed % 2 == 0 && !a.is_empty() {
            let shared = a.iter().next().cloned().unwrap();
            let mut b2 = b.clone();
            b2.insert(shared);
            (a, b2)
        } else {
            (a, b)
        };
        let mut interner = ChainInterner::new();
        let ids_a: Vec<u32> = {
            let mut v: Vec<u32> = a.iter().map(|c| interner.intern(c)).collect();
            v.sort_unstable();
            v
        };
        let ids_b: Vec<u32> = {
            let mut v: Vec<u32> = b.iter().map(|c| interner.intern(c)).collect();
            v.sort_unstable();
            v
        };
        if a.intersection(&b).count() > 0 {
            assert!(
                prefilter_may_match(fingerprint(&ids_a), fingerprint(&ids_b)),
                "seed {seed}: false negative"
            );
        }
    }
}

/// On interned ids, `compare_ids` decides exactly like `compare_chains`
/// does on the chains the ids stand for, across random thresholds.
#[test]
fn compare_ids_agrees_with_compare_chains() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let a = chain_set(&mut rng);
        let b = chain_set(&mut rng);
        let config = CompareConfig {
            thr: rng.gen_range(0..6usize),
            ratio: rng.gen_range(0..101u32) as f64 / 100.0,
        };
        let mut interner = ChainInterner::new();
        let mut ids_a: Vec<u32> = a.iter().map(|c| interner.intern(c)).collect();
        ids_a.sort_unstable();
        let mut ids_b: Vec<u32> = b.iter().map(|c| interner.intern(c)).collect();
        ids_b.sort_unstable();
        assert_eq!(
            compare_ids(&ids_a, &ids_b, &config),
            compare_chains(&a, &b, &config),
            "seed {seed}"
        );
    }
}

/// Adding the same chains to both sides never breaks an existing match
/// (comparator monotonicity under shared growth).
#[test]
fn shared_growth_preserves_matches() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let a = chain_set(&mut rng);
        let b = chain_set(&mut rng);
        let extra = chain_set(&mut rng);
        let config = CompareConfig::default();
        if compare_chains(&a, &b, &config) {
            let a2: BTreeSet<Chain> = a.union(&extra).cloned().collect();
            let b2: BTreeSet<Chain> = b.union(&extra).cloned().collect();
            assert!(compare_chains(&a2, &b2, &config), "seed {seed}");
        }
    }
}
