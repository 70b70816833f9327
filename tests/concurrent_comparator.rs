//! Multithreaded differential lockdown of the Δ comparator.
//!
//! Four reader threads each keep a *persistent* [`ComparatorIndex`] —
//! interned labels, prefilter and all — while a publisher hot-swaps the
//! shared database through a [`SnapshotCell`], exactly the shape
//! `jitbull-pool` workers run in production. Every verdict from every
//! thread must be byte-identical to the single-threaded normative
//! comparator (`jitbull::compare::reference`) evaluated on the same
//! snapshot. A stale index surviving a generation change, a snapshot
//! older than one already seen, or any non-`Sync` sharing bug shows up
//! here as a divergence.
//!
//! Progress is bound by counts, not by time: the publisher swaps only
//! after every reader has checked a batch on the current generation, and
//! readers stop once the publisher is done and they have each run
//! [`MIN_CHECKS`] comparisons — so a loaded host slows the test down but
//! cannot starve it.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use jitbull::compare::{reference, CompareConfig};
use jitbull::dna::chain;
use jitbull::index::EntryMatches;
use jitbull::{Chain, ComparatorIndex, Dna, DnaDatabase};
use jitbull_pool::SnapshotCell;
use jitbull_prng::Rng;

const LABELS: &[&str] = &[
    "add",
    "mul",
    "sub",
    "constant:number",
    "parameter0",
    "loadelement",
    "storeelement",
    "boundscheck",
    "unbox:array",
    "phi",
    "typeguard:object",
];

/// Random DNAs fill only their first `SLOTS` deltas; the rest stay empty.
const SLOTS: usize = 8;
const READERS: usize = 4;
const PUBLISHES: u64 = 40;
/// Comparisons each reader runs at least.
const MIN_CHECKS: usize = 250;
/// Comparisons per reader batch.
const BATCH: usize = 12;

fn random_chain(rng: &mut Rng) -> Chain {
    let names: Vec<&str> = (0..rng.gen_range(1..5usize))
        .map(|_| *rng.pick(LABELS))
        .collect();
    chain(&names)
}

fn random_set(rng: &mut Rng, max: usize) -> BTreeSet<Chain> {
    (0..rng.gen_range(0..max))
        .map(|_| random_chain(rng))
        .collect()
}

fn random_dna(rng: &mut Rng) -> Dna {
    let mut dna = Dna::default();
    for delta in &mut dna.deltas[..SLOTS] {
        if rng.gen_bool(0.4) {
            delta.removed = random_set(rng, 6);
        }
        if rng.gen_bool(0.4) {
            delta.added = random_set(rng, 6);
        }
    }
    dna
}

fn random_db(rng: &mut Rng, tag: u64) -> DnaDatabase {
    let mut db = DnaDatabase::new();
    for e in 0..rng.gen_range(1..6usize) {
        db.install(format!("CVE-{tag}-{e}"), format!("f{e}"), random_dna(rng));
    }
    db
}

/// The oracle, evaluated on the identical snapshot the index saw.
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

/// Marks a reader as out of the publisher's way when it exits, panics
/// included, so a divergence fails the test instead of hanging it.
struct ReleaseOnExit<'a>(&'a AtomicU64);

impl Drop for ReleaseOnExit<'_> {
    fn drop(&mut self) {
        self.0.store(u64::MAX, Ordering::Release);
    }
}

/// 4 readers × persistent indexes × a publisher swapping 40 databases:
/// zero divergences from the reference comparator, and every reader must
/// actually observe multiple generations (i.e. the index-rebuild path
/// runs mid-flight, not just at startup).
#[test]
fn indexed_comparator_agrees_with_reference_across_threads_and_hot_swaps() {
    let mut seed_rng = Rng::seed_from_u64(0xC0C0);
    let cell = Arc::new(SnapshotCell::new(random_db(&mut seed_rng, 0)));
    let done = Arc::new(AtomicBool::new(false));
    // The last generation each reader finished a batch on.
    let checked_generations: Arc<Vec<AtomicU64>> =
        Arc::new((0..READERS).map(|_| AtomicU64::new(0)).collect());

    let publisher = {
        let cell = Arc::clone(&cell);
        let done = Arc::clone(&done);
        let checked_generations = Arc::clone(&checked_generations);
        std::thread::spawn(move || {
            let mut rng = Rng::seed_from_u64(0x5EED_5EED);
            for tag in 1..=PUBLISHES {
                let generation = cell.generation();
                while checked_generations
                    .iter()
                    .any(|g| g.load(Ordering::Acquire) < generation)
                {
                    std::thread::yield_now();
                }
                let next = random_db(&mut rng, tag);
                cell.publish(|db| *db = Arc::new(next));
            }
            done.store(true, Ordering::Release);
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|reader| {
            let cell = Arc::clone(&cell);
            let done = Arc::clone(&done);
            let checked_generations = Arc::clone(&checked_generations);
            std::thread::spawn(move || {
                let _release = ReleaseOnExit(&checked_generations[reader]);
                let mut rng = Rng::seed_from_u64(0xBEEF + reader as u64);
                // Persistent across hot-swaps — the production shape.
                let mut index = ComparatorIndex::default();
                let mut generations = BTreeSet::new();
                let mut checked = 0usize;
                let mut last_generation = 0;
                loop {
                    let finish = done.load(Ordering::Acquire);
                    let db = cell.load();
                    let generation = db.generation();
                    assert!(generation >= last_generation, "generation went backwards");
                    last_generation = generation;
                    generations.insert(generation);
                    index.ensure(&db);
                    let config = CompareConfig {
                        thr: rng.gen_range(0..4usize),
                        ratio: rng.gen_range(0..101u32) as f64 / 100.0,
                    };
                    // A small pool so repeats hit interned chains; the
                    // index must still never outlive its generation.
                    let pool: Vec<Dna> = (0..4).map(|_| random_dna(&mut rng)).collect();
                    for _ in 0..BATCH {
                        let query = if rng.gen_bool(0.5) {
                            rng.pick(&pool).clone()
                        } else {
                            random_dna(&mut rng)
                        };
                        let expected = reference_matches(&db, &query, &config);
                        let (got, _) = index.query(&query, &config);
                        assert_eq!(
                            got, expected,
                            "reader {reader} diverged at generation {generation} config {config:?}\nquery:\n{}",
                            query.to_text()
                        );
                        checked += 1;
                    }
                    checked_generations[reader].fetch_max(generation, Ordering::AcqRel);
                    if finish && checked >= MIN_CHECKS {
                        return (checked, generations.len());
                    }
                }
            })
        })
        .collect();

    publisher.join().unwrap();
    let mut total = 0;
    for r in readers {
        let (checked, distinct_generations) = r.join().unwrap();
        total += checked;
        assert!(
            distinct_generations > 1,
            "reader never saw a hot-swap; the concurrent path went untested"
        );
    }
    assert!(total >= 1_000, "only {total} cross-thread comparisons ran");
}
