//! The indexed Δ comparator: chain interner and fingerprint prefilter.
//!
//! [`crate::compare::reference`] (the naive Algorithm 2 loop) recomputes
//! full `BTreeSet<Chain>` intersections for every (function, VDC, slot)
//! triple, so its cost is `O(entries × slots × chains × chain-length)`
//! string comparisons per Ion compilation — the runtime overhead the
//! paper's Figure 6 measures as the database grows. This module makes the
//! same decision procedure cheap without changing a single verdict:
//!
//! 1. **Chain interner** ([`ChainInterner`]): every distinct [`Chain`] is
//!    mapped to a dense `u32` id, so each `BTreeSet<Chain>` becomes a
//!    sorted `Vec<u32>` and set intersection becomes a linear merge over
//!    machine words instead of lexicographic label-vector comparisons.
//!    Ids are assigned in first-seen order, walking each set in its
//!    (name) order, so they — and the fingerprints below — are a
//!    function of the database and query order alone. The incremental
//!    extractor ([`crate::extract::incremental`]) interns its runs and
//!    windows in a `ChainInterner` of its own.
//! 2. **Fingerprint prefilter** ([`fingerprint`]): each delta side also
//!    carries a 64-bit Bloom-style hash of its chain ids. If the two
//!    fingerprints share no bit the sets share no chain, so the (slot,
//!    VDC) pair is rejected without touching the id vectors. The filter
//!    has false *positives* (a shared bit does not imply a shared chain)
//!    but never false negatives, so it can only skip work, never change
//!    the answer.
//!
//! Verdicts are cached per compilation by the compile cache
//! ([`crate::extract::memo`]), stamped with the database generation
//! (see [`DnaDatabase::generation`]); the index itself only scans.
//!
//! The simulated-cycle cost model mirrors the work actually done (hash,
//! intern, prefilter, merge), so `repro` figures built on
//! [`QueryReceipt::cost_cycles`] show the same shape a wall clock does.

use std::collections::HashMap;

use jitbull_mir::{Label, SlotSet, N_SLOTS};

use crate::compare::CompareConfig;
use crate::db::DnaDatabase;
use crate::dna::{Chain, Dna, PassDelta};

/// Cycles charged per query chain for the verdict lookup, hit or miss.
pub const HASH_COST_PER_CHAIN: u64 = 2;
/// Cycles charged per chain for interning (build or query side).
pub const INTERN_COST_PER_CHAIN: u64 = 8;
/// Cycles charged per fingerprint prefilter check.
pub const PREFILTER_COST: u64 = 2;
/// Cycles charged per id touched by a linear-merge intersection.
pub const MERGE_COST_PER_ID: u64 = 3;
/// Flat cycles charged for serving a verdict from the compile cache.
pub const CACHE_HIT_COST: u64 = 25;

/// Maps each distinct [`Chain`] to a dense `u32` id.
///
/// Ids are assigned in first-seen order and are stable for the lifetime
/// of the interner: interning more chains never changes an existing id.
#[derive(Debug, Clone, Default)]
pub struct ChainInterner {
    ids: HashMap<Chain, u32>,
    chains: Vec<Chain>,
}

impl ChainInterner {
    /// An empty interner.
    #[must_use]
    pub fn new() -> Self {
        ChainInterner::default()
    }

    /// The id for `chain`, allocating one on first sight.
    pub fn intern(&mut self, chain: &[Label]) -> u32 {
        if let Some(&id) = self.ids.get(chain) {
            return id;
        }
        let id = u32::try_from(self.chains.len()).expect("interner overflow");
        self.chains.push(chain.to_vec());
        self.ids.insert(chain.to_vec(), id);
        id
    }

    /// The chain behind `id`, if allocated.
    #[must_use]
    pub fn resolve(&self, id: u32) -> Option<&Chain> {
        self.chains.get(id as usize)
    }

    /// Number of distinct chains interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chains.len()
    }

    /// Whether nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chains.is_empty()
    }
}

/// SplitMix64 finalizer — the same mixer `jitbull-prng` uses.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 64-bit Bloom-style fingerprint over chain ids (two bits per id).
///
/// Guarantee: if sets `A ⊇ B` then `fingerprint(A) & fingerprint(B) ==
/// fingerprint(B)` — a superset's fingerprint covers the subset's bits —
/// so two sets with a common element always share at least one bit and
/// [`prefilter_may_match`] never rejects a pair the comparator would
/// match.
#[must_use]
pub fn fingerprint(ids: &[u32]) -> u64 {
    ids.iter().fold(0u64, |fp, &id| {
        let h = mix64(u64::from(id));
        fp | (1u64 << (h & 63)) | (1u64 << ((h >> 6) & 63))
    })
}

/// Whether two fingerprinted sets can possibly intersect.
#[inline]
#[must_use]
pub fn prefilter_may_match(fp_a: u64, fp_b: u64) -> bool {
    fp_a & fp_b != 0
}

/// Number of common ids between two sorted, duplicate-free id slices.
#[must_use]
pub fn intersection_count(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut eq) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                eq += 1;
                i += 1;
                j += 1;
            }
        }
    }
    eq
}

/// `COMPARECHAINS` over interned id sets — decision-identical to
/// [`crate::compare::compare_chains`] on the chains the ids stand for
/// (same thresholds, same float expression).
#[must_use]
pub fn compare_ids(a: &[u32], b: &[u32], config: &CompareConfig) -> bool {
    let max_eq = a.len().min(b.len());
    if max_eq == 0 {
        return false;
    }
    let eq = intersection_count(a, b);
    eq >= config.thr && (eq as f64) >= config.ratio * (max_eq as f64)
}

/// One pass delta in interned form: sorted id vectors plus per-side
/// fingerprints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexedDelta {
    /// Interned `δ⁻`, sorted ascending (set semantics preserved: the
    /// source `BTreeSet` holds distinct chains and interning is
    /// injective, so ids are distinct).
    pub removed: Vec<u32>,
    /// Interned `δ⁺`, sorted ascending.
    pub added: Vec<u32>,
    /// Fingerprint of `removed`.
    pub removed_fp: u64,
    /// Fingerprint of `added`.
    pub added_fp: u64,
}

impl IndexedDelta {
    /// Interns one [`PassDelta`].
    pub fn from_delta(delta: &PassDelta, interner: &mut ChainInterner) -> Self {
        let mut removed: Vec<u32> = delta.removed.iter().map(|c| interner.intern(c)).collect();
        removed.sort_unstable();
        let mut added: Vec<u32> = delta.added.iter().map(|c| interner.intern(c)).collect();
        added.sort_unstable();
        let removed_fp = fingerprint(&removed);
        let added_fp = fingerprint(&added);
        IndexedDelta {
            removed,
            added,
            removed_fp,
            added_fp,
        }
    }
}

/// What one [`ComparatorIndex::query`] did, for telemetry and the
/// simulated cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryReceipt {
    /// Whether the verdict came from the compile cache (set by the guard;
    /// [`ComparatorIndex::query`] always scans).
    pub cache_hit: bool,
    /// (slot, entry) delta sides rejected by the fingerprint prefilter.
    pub prefilter_rejects: u64,
    /// Linear-merge intersections actually performed.
    pub set_merges: u64,
    /// Simulated cycles the query consumed.
    pub cost_cycles: u64,
}

/// Cumulative counters across an index's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Queries scanned.
    pub queries: u64,
    /// Prefilter rejections.
    pub prefilter_rejects: u64,
    /// Merges performed.
    pub set_merges: u64,
    /// Index rebuilds (database generation changes observed).
    pub rebuilds: u64,
    /// Rebuilds that additionally discarded a poisoned index (see
    /// [`ComparatorIndex::poison`]).
    pub poison_purges: u64,
}

/// Per-entry dangerous slots, in database-entry order; entries with no
/// similar slot are omitted. Index positions refer to
/// [`DnaDatabase::entries`] at the generation the query ran against.
pub type EntryMatches = Vec<(usize, SlotSet)>;

#[derive(Debug, Clone, Copy, Default)]
struct ScanCounters {
    prefilter_rejects: u64,
    set_merges: u64,
    cost: u64,
}

fn side_similar(
    a: &[u32],
    b: &[u32],
    fp_a: u64,
    fp_b: u64,
    config: &CompareConfig,
    counters: &mut ScanCounters,
) -> bool {
    if a.is_empty() || b.is_empty() {
        // `max_eq == 0`: the reference comparator's early return.
        return false;
    }
    if config.thr >= 1 && !prefilter_may_match(fp_a, fp_b) {
        // Disjoint fingerprints ⇒ empty intersection ⇒ `eq == 0 < thr`.
        counters.prefilter_rejects += 1;
        counters.cost += PREFILTER_COST;
        return false;
    }
    counters.set_merges += 1;
    counters.cost += PREFILTER_COST + (a.len() + b.len()) as u64 * MERGE_COST_PER_ID;
    compare_ids(a, b, config)
}

fn delta_pair_similar(
    f: &IndexedDelta,
    v: &IndexedDelta,
    config: &CompareConfig,
    counters: &mut ScanCounters,
) -> bool {
    side_similar(
        &f.removed,
        &v.removed,
        f.removed_fp,
        v.removed_fp,
        config,
        counters,
    ) || side_similar(&f.added, &v.added, f.added_fp, v.added_fp, config, counters)
}

fn dangerous_slots_indexed(
    query: &IndexedDna,
    entry: &IndexedDna,
    config: &CompareConfig,
    counters: &mut ScanCounters,
) -> SlotSet {
    (0..N_SLOTS)
        .filter(|&i| delta_pair_similar(&query[i], &entry[i], config, counters))
        .collect()
}

/// A [`Dna`] in interned form, slot for slot.
type IndexedDna = [IndexedDelta; N_SLOTS];

/// Interns every slot of `dna`, in slot order (ids are first-seen).
fn index_dna(dna: &Dna, interner: &mut ChainInterner) -> IndexedDna {
    std::array::from_fn(|i| IndexedDelta::from_delta(&dna.deltas[i], interner))
}

/// The comparator index over one [`DnaDatabase`]'s entries.
///
/// Built lazily: [`ComparatorIndex::ensure`] re-interns the database
/// whenever its generation counter has moved (install / `remove_cve` /
/// wholesale replacement) — a query can therefore never observe a
/// database state other than the one it was answered against.
#[derive(Debug, Clone, Default)]
pub struct ComparatorIndex {
    interner: ChainInterner,
    /// Each database entry's interned DNA.
    entries: Vec<IndexedDna>,
    /// Database generation this index reflects (`0` = never built;
    /// real generations start at 1).
    generation: u64,
    /// Set by [`ComparatorIndex::poison`]; cleared (and counted) by the
    /// rebuild that discards the poisoned state.
    poisoned: bool,
    stats: IndexStats,
}

impl ComparatorIndex {
    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Corrupts the index in place, modelling a torn write over the
    /// comparator's interned state: the generation stamp is zeroed.
    /// Because real database generations start at 1, the zeroed stamp can
    /// never equal any database's generation — the next
    /// [`ComparatorIndex::ensure`] is therefore *guaranteed* to rebuild
    /// from the authoritative database, which is exactly the recovery
    /// property the chaos harness asserts: a poisoned index costs one
    /// rebuild, never a wrong verdict.
    pub fn poison(&mut self) {
        self.generation = 0;
        self.poisoned = true;
    }

    /// Rebuilds the index if `db` has changed generation since the last
    /// build. Returns the simulated cycles the rebuild cost (0 when the
    /// index was already current).
    pub fn ensure(&mut self, db: &DnaDatabase) -> u64 {
        if self.generation == db.generation() {
            return 0;
        }
        if self.poisoned {
            self.poisoned = false;
            self.stats.poison_purges += 1;
        }
        self.interner = ChainInterner::new();
        let mut cost = 0u64;
        self.entries = db
            .entries()
            .iter()
            .map(|e| {
                let slots = index_dna(&e.dna, &mut self.interner);
                let chains: u64 = slots
                    .iter()
                    .map(|s| (s.removed.len() + s.added.len()) as u64)
                    .sum();
                cost += chains * INTERN_COST_PER_CHAIN;
                slots
            })
            .collect();
        self.generation = db.generation();
        self.stats.rebuilds += 1;
        cost
    }

    /// Answers Algorithm 2 for `dna` against every indexed entry.
    ///
    /// Returns the per-entry dangerous slots (database-entry order,
    /// non-matching entries omitted) plus a [`QueryReceipt`] describing
    /// the work done. Decision-identical to running
    /// [`crate::compare::reference`] against each entry.
    pub fn query(&mut self, dna: &Dna, config: &CompareConfig) -> (EntryMatches, QueryReceipt) {
        self.stats.queries += 1;
        let f_chains = dna.chain_count();
        let query = index_dna(dna, &mut self.interner);
        let mut counters = ScanCounters::default();
        let mut matches = EntryMatches::new();
        for (idx, entry) in self.entries.iter().enumerate() {
            let slots = dangerous_slots_indexed(&query, entry, config, &mut counters);
            if !slots.is_empty() {
                matches.push((idx, slots));
            }
        }
        self.stats.prefilter_rejects += counters.prefilter_rejects;
        self.stats.set_merges += counters.set_merges;
        let receipt = QueryReceipt {
            cache_hit: false,
            prefilter_rejects: counters.prefilter_rejects,
            set_merges: counters.set_merges,
            cost_cycles: f_chains * (HASH_COST_PER_CHAIN + INTERN_COST_PER_CHAIN) + counters.cost,
        };
        (matches, receipt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dna::chain;
    use std::collections::BTreeSet;

    fn set(chains: &[&[&str]]) -> BTreeSet<Chain> {
        chains.iter().map(|c| chain(c)).collect()
    }

    fn dna_with(slot: usize, removed: &[&[&str]], added: &[&[&str]]) -> Dna {
        let mut dna = Dna::default();
        dna.deltas[slot].removed = set(removed);
        dna.deltas[slot].added = set(added);
        dna
    }

    #[test]
    fn interner_round_trips_and_dedups() {
        let mut interner = ChainInterner::new();
        let a = chain(&["boundscheck", "initializedlength"]);
        let b = chain(&["add", "parameter0"]);
        let ia = interner.intern(&a);
        let ib = interner.intern(&b);
        assert_ne!(ia, ib);
        assert_eq!(interner.intern(&a), ia);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.resolve(ia), Some(&a));
        assert_eq!(interner.resolve(ib), Some(&b));
        assert_eq!(interner.resolve(99), None);
    }

    #[test]
    fn compare_ids_mirrors_compare_chains_thresholds() {
        let cfg = CompareConfig::default();
        // 3 shared ids of min-set 3 → Thr and Ratio both satisfied.
        assert!(compare_ids(&[1, 2, 3], &[1, 2, 3, 9, 10], &cfg));
        // 2 shared < Thr.
        assert!(!compare_ids(&[1, 2], &[1, 2], &cfg));
        // 3 shared of min-set 8 → ratio 37.5 % < 50 %.
        assert!(!compare_ids(
            &[1, 2, 3, 4, 5, 6, 7, 8],
            &[1, 2, 3, 14, 15, 16, 17, 18],
            &cfg
        ));
        // Empty side never matches.
        assert!(!compare_ids(&[], &[], &cfg));
        assert!(!compare_ids(&[1], &[], &cfg));
    }

    #[test]
    fn fingerprint_never_rejects_intersecting_sets() {
        // Any two sets sharing an id share that id's bits.
        for shared in 0..512u32 {
            let a = fingerprint(&[shared, shared + 1000]);
            let b = fingerprint(&[shared, shared + 2000]);
            assert!(prefilter_may_match(a, b), "id {shared}");
        }
    }

    #[test]
    fn query_matches_reference_on_a_small_db() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let vdc = dna_with(3, &[&["boundscheck", "initializedlength"]], &[]);
        let other = dna_with(5, &[&["add", "mul"]], &[]);
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", vdc.clone());
        db.install("CVE-B", "g", other);
        let mut index = ComparatorIndex::default();
        index.ensure(&db);
        let (matches, receipt) = index.query(&vdc, &cfg);
        assert_eq!(matches, vec![(0, SlotSet::from_iter([3]))]);
        assert!(!receipt.cache_hit);
        assert!(receipt.cost_cycles > 0);
        // Reference agrees.
        for (i, e) in db.entries().iter().enumerate() {
            let slots = crate::compare::reference(&vdc, &e.dna, &cfg);
            match matches.iter().find(|(idx, _)| *idx == i) {
                Some((_, s)) => assert_eq!(*s, slots),
                None => assert!(slots.is_empty()),
            }
        }
    }

    #[test]
    fn database_change_rebuilds_before_the_next_query() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let vdc = dna_with(3, &[&["boundscheck", "initializedlength"]], &[]);
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", vdc.clone());
        let mut index = ComparatorIndex::default();
        index.ensure(&db);
        assert_eq!(
            index.query(&vdc, &cfg).0,
            vec![(0, SlotSet::from_iter([3]))]
        );
        assert_eq!(index.ensure(&db), 0, "an unchanged database is not rebuilt");
        db.remove_cve("CVE-A");
        index.ensure(&db);
        assert_eq!(index.stats().rebuilds, 2);
        assert!(index.query(&vdc, &cfg).0.is_empty());
    }

    #[test]
    fn poisoned_index_is_rebuilt_not_served() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let vdc = dna_with(3, &[&["boundscheck", "initializedlength"]], &[]);
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", vdc.clone());
        let mut index = ComparatorIndex::default();
        index.ensure(&db);
        let (clean, _) = index.query(&vdc, &cfg);
        assert_eq!(clean, vec![(0, SlotSet::from_iter([3]))]);
        index.poison();
        // The poisoned generation stamp (0) can never match a real
        // database generation, so ensure() must rebuild and purge.
        let cost = index.ensure(&db);
        assert!(cost > 0, "poisoned index must rebuild");
        assert_eq!(index.stats().poison_purges, 1);
        assert_eq!(index.query(&vdc, &cfg).0, clean);
        // A second ensure with no new poison is a no-op.
        assert_eq!(index.ensure(&db), 0);
        assert_eq!(index.stats().poison_purges, 1);
    }
}
