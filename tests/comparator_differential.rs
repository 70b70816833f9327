//! Differential lockdown of the indexed Δ comparator.
//!
//! `jitbull::compare::reference` is the normative Algorithm 2
//! implementation; the indexed comparator
//! (`jitbull::index::ComparatorIndex` — interned and prefiltered) must
//! return byte-identical verdicts, also when one index persists across
//! many queries. These tests sweep seeded random DNA pairs, the full VDC
//! catalog, and adversarial near-threshold constructions, and fail on the
//! first divergence.

use std::collections::BTreeSet;
use std::sync::Arc;

use jitbull::compare::{reference, CompareConfig};
use jitbull::index::EntryMatches;
use jitbull::{Chain, ComparatorIndex, Dna, DnaDatabase};
use jitbull_prng::Rng;
use jitbull_vdc::{all_vdcs, build_database, extract_dna};

const LABELS: &[&str] = &[
    "add",
    "mul",
    "sub",
    "constant:number",
    "parameter0",
    "parameter1",
    "loadelement",
    "storeelement",
    "boundscheck",
    "initializedlength",
    "unbox:array",
    "return",
    "phi",
    "guardshape",
];

const SLOTS: usize = 8;

fn random_chain(rng: &mut Rng) -> Chain {
    (0..rng.gen_range(1..5usize))
        .map(|_| Arc::from(*rng.pick(LABELS)))
        .collect()
}

fn random_set(rng: &mut Rng, max: usize) -> BTreeSet<Chain> {
    (0..rng.gen_range(0..max))
        .map(|_| random_chain(rng))
        .collect()
}

fn random_dna(rng: &mut Rng) -> Dna {
    let mut dna = Dna::with_slots(SLOTS);
    for delta in &mut dna.deltas {
        if rng.gen_bool(0.4) {
            delta.removed = random_set(rng, 6);
        }
        if rng.gen_bool(0.4) {
            delta.added = random_set(rng, 6);
        }
    }
    dna
}

fn random_config(rng: &mut Rng) -> CompareConfig {
    CompareConfig {
        thr: rng.gen_range(0..5usize),
        ratio: rng.gen_range(0..101u32) as f64 / 100.0,
    }
}

/// The oracle: per-entry dangerous slots via the naive normative loop,
/// in the same shape `ComparatorIndex::query` reports.
fn reference_matches(db: &DnaDatabase, query: &Dna, config: &CompareConfig) -> EntryMatches {
    db.entries()
        .iter()
        .enumerate()
        .filter_map(|(i, e)| {
            let slots = reference(query, &e.dna, config);
            (!slots.is_empty()).then_some((i, slots))
        })
        .collect()
}

/// Runs `cases` queries against databases derived from `seed`, checking
/// one persistent index per database against the oracle. Returns the case
/// count.
fn sweep(seed: u64, databases: usize, cases_per_db: usize) -> usize {
    let mut rng = Rng::seed_from_u64(seed);
    let mut checked = 0;
    for db_i in 0..databases {
        let mut db = DnaDatabase::new();
        for e in 0..rng.gen_range(1..6usize) {
            db.install(
                format!("CVE-{db_i}-{e}"),
                format!("f{e}"),
                random_dna(&mut rng),
            );
        }
        let mut index = ComparatorIndex::default();
        let config = random_config(&mut rng);
        // Pre-generate a small pool so repeats re-use interned chains.
        let pool: Vec<Dna> = (0..8).map(|_| random_dna(&mut rng)).collect();
        for _ in 0..cases_per_db {
            let query = if rng.gen_bool(0.5) {
                rng.pick(&pool).clone()
            } else {
                random_dna(&mut rng)
            };
            let expected = reference_matches(&db, &query, &config);
            index.ensure(&db);
            let (got, _) = index.query(&query, &config);
            assert_eq!(
                got,
                expected,
                "divergence: db={db_i} seed={seed} config={config:?}\nquery:\n{}",
                query.to_text()
            );
            checked += 1;
        }
    }
    checked
}

/// The main differential sweep: ≥10k indexed-vs-reference comparisons
/// across random databases and configurations.
#[test]
fn random_sweep_finds_zero_divergences() {
    let checked = sweep(0xD1FF, 56, 180);
    assert!(checked >= 10_000, "only {checked} cases checked");
}

/// Large release-profile sweep, run by the CI `--ignored` job.
#[test]
#[ignore = "large sweep; run with --release -- --ignored"]
fn large_random_sweep_finds_zero_divergences() {
    let checked = sweep(0xB16_5EED, 160, 330);
    assert!(checked >= 50_000, "only {checked} cases checked");
}

/// Every VDC in the catalog, queried with every catalog DNA (including
/// its own — the paper's self-match case) under the paper's default
/// thresholds and several degenerate ones.
#[test]
fn full_vdc_catalog_agrees() {
    let vdcs = all_vdcs();
    let db = build_database(&vdcs).unwrap();
    assert!(!db.is_empty());
    // Query with exactly the DNA a protected engine would extract: each
    // VDC's trigger functions compiled on an engine carrying its CVE.
    let queries: Vec<(String, Dna)> = vdcs
        .iter()
        .flat_map(|v| {
            let vulns = jitbull_jit::VulnConfig::with([v.cve]);
            extract_dna(v, &vulns).unwrap_or_else(|e| panic!("{}: {e}", v.name))
        })
        .collect();
    let configs = [
        CompareConfig::default(),
        CompareConfig { thr: 1, ratio: 0.5 },
        CompareConfig { thr: 0, ratio: 0.0 },
        CompareConfig { thr: 2, ratio: 1.0 },
    ];
    for config in &configs {
        let mut index = ComparatorIndex::default();
        index.ensure(&db);
        for (fname, query) in &queries {
            let expected = reference_matches(&db, query, config);
            let (got, _) = index.query(query, config);
            assert_eq!(got, expected, "divergence: query={fname} config={config:?}");
        }
    }
    // At the permissive threshold, each trigger function's own DNA must
    // match its own database entry — the detection property the whole
    // mechanism rests on.
    let cfg = CompareConfig { thr: 1, ratio: 0.5 };
    let mut index = ComparatorIndex::default();
    index.ensure(&db);
    for (fname, query) in &queries {
        if query.is_trivial() {
            continue; // trivial DNA is never installed, so never matches
        }
        let (got, _) = index.query(query, &cfg);
        assert!(
            !got.is_empty(),
            "trigger {fname} did not match its own database entry"
        );
    }
}

/// Chains `c0..cn` shared between both sides plus per-side unique
/// filler, letting tests place `eq` exactly on a threshold boundary.
fn boundary_sets(
    shared: usize,
    a_extra: usize,
    b_extra: usize,
) -> (BTreeSet<Chain>, BTreeSet<Chain>) {
    let mk = |tag: &str, i: usize| -> Chain {
        vec![Arc::from(format!("{tag}{i}").as_str()), Arc::from("x")]
    };
    let mut a: BTreeSet<Chain> = (0..shared).map(|i| mk("c", i)).collect();
    let mut b = a.clone();
    for i in 0..a_extra {
        a.insert(mk("a", i));
    }
    for i in 0..b_extra {
        b.insert(mk("b", i));
    }
    (a, b)
}

fn dna_from_set(set: &BTreeSet<Chain>, slot: usize, removed_side: bool) -> Dna {
    let mut dna = Dna::with_slots(SLOTS);
    if removed_side {
        dna.deltas[slot].removed = set.clone();
    } else {
        dna.deltas[slot].added = set.clone();
    }
    dna
}

/// Near-threshold constructions: `eq == thr` exactly, one below, and
/// `eq` straddling `⌈ratio · min⌉` by ±1. Both comparators must draw the
/// same line in every case.
#[test]
fn threshold_boundaries_agree() {
    let mut cases: Vec<(usize, usize, usize, CompareConfig)> = Vec::new();
    // eq == thr and eq == thr - 1 at ratio 0 (ratio never binds).
    for thr in 1..6usize {
        cases.push((thr, 2, 2, CompareConfig { thr, ratio: 0.0 }));
        cases.push((thr - 1, 2, 2, CompareConfig { thr, ratio: 0.0 }));
    }
    // eq == ⌈ratio·min⌉ ± 1 with thr == 1 (ratio is the binding edge).
    for min_len in 2..10usize {
        for num in 1..4u32 {
            let ratio = f64::from(num) / 4.0;
            let needed = (ratio * min_len as f64).ceil() as usize;
            for eq in [needed.saturating_sub(1), needed, (needed + 1).min(min_len)] {
                if eq > min_len {
                    continue;
                }
                // a has exactly min_len chains (eq shared + filler),
                // b is strictly larger so min(|a|,|b|) == |a|.
                cases.push((
                    eq,
                    min_len - eq,
                    min_len - eq + 3,
                    CompareConfig { thr: 1, ratio },
                ));
            }
        }
    }
    // Also the paper's default thresholds at the eq == 3 boundary.
    for eq in [2, 3, 4] {
        cases.push((eq, 6 - eq, 8 - eq, CompareConfig::default()));
    }
    for (case_i, (shared, a_extra, b_extra, config)) in cases.into_iter().enumerate() {
        let (a, b) = boundary_sets(shared, a_extra, b_extra);
        for removed_side in [true, false] {
            for slot in [0, SLOTS - 1] {
                let query = dna_from_set(&a, slot, removed_side);
                let entry = dna_from_set(&b, slot, removed_side);
                let mut db = DnaDatabase::new();
                db.install("CVE-B", "f", entry.clone());
                let expected = reference_matches(&db, &query, &config);
                let mut index = ComparatorIndex::default();
                index.ensure(&db);
                let (got, _) = index.query(&query, &config);
                assert_eq!(
                    got, expected,
                    "divergence: case={case_i} shared={shared} \
                     a_extra={a_extra} b_extra={b_extra} config={config:?} \
                     removed_side={removed_side} slot={slot}"
                );
            }
        }
    }
}

/// Trivial and empty shapes: empty DNA, one-sided deltas, and databases
/// whose entries cover fewer slots than the query.
#[test]
fn degenerate_shapes_agree() {
    let mut rng = Rng::seed_from_u64(7);
    let shapes: Vec<Dna> = vec![
        Dna::with_slots(SLOTS),                            // fully trivial
        Dna::with_slots(0),                                // zero slots
        dna_from_set(&boundary_sets(3, 0, 0).0, 0, true),  // removed only
        dna_from_set(&boundary_sets(3, 0, 0).0, 0, false), // added only
        {
            let mut d = Dna::with_slots(2); // shorter than the query
            d.deltas[1].removed = random_set(&mut rng, 5);
            d
        },
    ];
    let configs = [
        CompareConfig::default(),
        CompareConfig { thr: 0, ratio: 0.0 },
        CompareConfig { thr: 1, ratio: 0.5 },
    ];
    for config in &configs {
        for entry in &shapes {
            let mut db = DnaDatabase::new();
            db.install("CVE-D", "f", entry.clone());
            // Trivial entries are skipped at install; an empty DB is
            // itself a degenerate case worth sweeping.
            for query in &shapes {
                let expected = reference_matches(&db, query, config);
                let mut index = ComparatorIndex::default();
                index.ensure(&db);
                let (got, _) = index.query(query, config);
                assert_eq!(got, expected, "config={config:?}");
            }
        }
    }
}

/// The engine-level wiring agrees too: running every VDC exploit on a
/// vulnerable engine with the full-catalog database yields the same
/// protection outcome and the same per-function tier statistics whether
/// the guard runs the indexed or the reference comparator.
#[test]
fn engine_outcomes_identical_across_comparator_modes() {
    use jitbull::{ComparatorMode, Guard};
    use jitbull_jit::engine::{Engine, EngineConfig};
    use jitbull_jit::VulnConfig;
    use jitbull_vdc::validate::run_script;

    let vdcs = all_vdcs();
    let db = build_database(&vdcs).unwrap();
    for poc in &vdcs {
        let run = |mode: ComparatorMode| {
            let config = EngineConfig {
                vulns: VulnConfig::all(),
                ..Default::default()
            };
            let mut guard = Guard::new(db.clone(), CompareConfig::default());
            guard.set_comparator_mode(mode);
            let mut engine = Engine::with_guard(config, guard);
            let outcome = run_script(&poc.source, &mut engine)
                .unwrap_or_else(|e| panic!("{}: {e}", poc.name));
            let stats: Vec<(usize, usize, usize)> =
                vec![(engine.nr_jit(), engine.nr_disjit(), engine.nr_nojit())];
            (outcome, stats)
        };
        let (out_idx, stats_idx) = run(ComparatorMode::Indexed);
        let (out_ref, stats_ref) = run(ComparatorMode::Reference);
        assert!(!out_idx.is_compromised(), "{}: {out_idx:?}", poc.name);
        assert_eq!(
            out_idx.is_compromised(),
            out_ref.is_compromised(),
            "{}",
            poc.name
        );
        assert_eq!(stats_idx, stats_ref, "{}", poc.name);
    }
}
