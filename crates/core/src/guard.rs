//! The engine-facing facade: extract DNA from a compilation trace, compare
//! against the database, and account the analysis cost.

use std::cell::RefCell;

use jitbull_chaos::{FaultInjector, FaultKind, FaultSite};
use jitbull_mir::PassTrace;
use jitbull_telemetry::{Collector, Event};

use crate::compare::CompareConfig;
use crate::db::DnaDatabase;
use crate::dna::Dna;
use crate::extract::incremental::{ExtractReceipt, IncrementalExtractor, IncrementalStats};
use crate::extract::memo::{DnaMemo, MemoKey, MemoStats, MEMO_HIT_COST, MEMO_KEY_COST_PER_INSTR};
use crate::extract::{extract_dna, trace_work};
use crate::index::{ComparatorIndex, IndexConfig, IndexStats, QueryReceipt};

/// Which Δ-comparator implementation a [`Guard`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComparatorMode {
    /// The interned / prefiltered / cached comparator pipeline
    /// ([`crate::index`]) — the production path.
    #[default]
    Indexed,
    /// The naive normative loop over [`crate::compare::reference`] —
    /// the oracle the differential harness compares against, and the
    /// baseline the fig6 bench reports speedups over.
    Reference,
}

/// Which Δ-extractor implementation a [`Guard`] runs. Orthogonal to
/// [`ComparatorMode`]: extraction produces the DNA, comparison judges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExtractorMode {
    /// The incremental extractor ([`crate::extract::incremental`]) in
    /// front of the shared DNA memo ([`crate::extract::memo`]) — the
    /// production path.
    #[default]
    Incremental,
    /// The naive normative [`crate::extract::extract_dna`] — the
    /// Algorithm 1 oracle the extractor differential harness compares
    /// against, and the baseline the `fig_extract` bench reports
    /// speedups over.
    Reference,
}

/// Cycle cost charged per instruction touched during Δ extraction.
pub const EXTRACT_COST_PER_INSTR: u64 = 120;
/// Cycle cost charged per (function-delta × DB-entry-delta) sub-chain
/// comparison unit.
pub const COMPARE_COST_PER_CHAIN: u64 = 60;

/// The result of analysing one compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Pipeline slots found similar to at least one VDC entry, sorted and
    /// deduplicated (the paper's `DisPass`).
    pub dangerous: Vec<usize>,
    /// Which VDC entries matched: `(cve, function, slots)`.
    pub matches: Vec<(String, String, Vec<usize>)>,
    /// Simulated cycles the analysis consumed (extraction + comparison).
    pub cost_cycles: u64,
    /// The extracted DNA (kept so callers can install it into a DB —
    /// that's exactly how VDC DNA is produced in step 1).
    pub dna: Dna,
}

/// JITBULL's runtime guard: database + comparator configuration.
///
/// # Examples
///
/// ```
/// use jitbull::{Guard, DnaDatabase, CompareConfig};
/// let guard = Guard::new(DnaDatabase::new(), CompareConfig::default());
/// assert!(!guard.enabled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Guard {
    db: DnaDatabase,
    config: CompareConfig,
    mode: ComparatorMode,
    extractor: ExtractorMode,
    /// Lazily (re)built comparator index over `db`; interior-mutable so
    /// `analyze(&self)` can populate caches. Cloning a guard clones the
    /// index too — valid, because the clone starts from identical
    /// database content at the same generation.
    index: RefCell<ComparatorIndex>,
    /// Incremental extractor state (interner, run-window cache);
    /// interior-mutable for the same reason as `index`. Cloning forks
    /// the caches — both forks stay exact, they just warm separately.
    incremental: RefCell<IncrementalExtractor>,
    /// Whole-function DNA memo. Clone-shared: guards built from the same
    /// [`DnaMemo`] handle (e.g. all pool workers) alias one store.
    memo: DnaMemo,
    /// Engine context folded into every memo key (vulnerability-config
    /// fingerprint): a different engine build compiles the same MIR
    /// differently, so its DNAs must never collide in the shared memo.
    extract_context: u64,
    /// Chaos hook: consulted once per indexed query
    /// ([`jitbull_chaos::FaultSite::ComparatorQuery`]) and once per
    /// incremental extraction
    /// ([`jitbull_chaos::FaultSite::ExtractQuery`]). Disabled by
    /// default — a single pointer test on the hot path.
    faults: FaultInjector,
}

impl Guard {
    /// Creates a guard over a database (indexed comparator).
    pub fn new(db: DnaDatabase, config: CompareConfig) -> Self {
        Guard::with_comparator(db, config, ComparatorMode::Indexed)
    }

    /// Creates a guard with an explicit comparator implementation.
    pub fn with_comparator(db: DnaDatabase, config: CompareConfig, mode: ComparatorMode) -> Self {
        Guard {
            db,
            config,
            mode,
            extractor: ExtractorMode::default(),
            index: RefCell::new(ComparatorIndex::default()),
            incremental: RefCell::new(IncrementalExtractor::default()),
            memo: DnaMemo::default(),
            extract_context: 0,
            faults: FaultInjector::disabled(),
        }
    }

    /// Arms (or disarms) the fault injector consulted per indexed query.
    /// A [`jitbull_chaos::FaultKind::CachePoison`] fault fired here
    /// corrupts the comparator's memoised state *before* the query runs,
    /// exercising the poison-purge recovery path.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// The comparator implementation in use.
    pub fn comparator_mode(&self) -> ComparatorMode {
        self.mode
    }

    /// Switches the comparator implementation.
    pub fn set_comparator_mode(&mut self, mode: ComparatorMode) {
        self.mode = mode;
    }

    /// The extractor implementation in use.
    pub fn extractor_mode(&self) -> ExtractorMode {
        self.extractor
    }

    /// Switches the extractor implementation.
    pub fn set_extractor_mode(&mut self, mode: ExtractorMode) {
        self.extractor = mode;
    }

    /// Replaces the DNA memo handle (the pool installs one shared memo
    /// into every worker's guard).
    pub fn set_dna_memo(&mut self, memo: DnaMemo) {
        self.memo = memo;
    }

    /// The DNA memo handle (aliases the shared store).
    pub fn dna_memo(&self) -> &DnaMemo {
        &self.memo
    }

    /// Sets the engine-context fingerprint folded into memo keys (the
    /// engine derives it from its vulnerability configuration).
    pub fn set_extract_context(&mut self, context: u64) {
        self.extract_context = context;
    }

    /// Replaces the index tuning knobs (cache bound, shard opt-in).
    pub fn set_index_config(&mut self, config: IndexConfig) {
        self.index.borrow_mut().set_config(config);
    }

    /// Cumulative indexed-comparator counters (all zero while the guard
    /// runs in [`ComparatorMode::Reference`]).
    pub fn comparator_stats(&self) -> IndexStats {
        self.index.borrow().stats()
    }

    /// Cumulative incremental-extractor counters (all zero while the
    /// guard runs in [`ExtractorMode::Reference`]).
    pub fn extractor_stats(&self) -> IncrementalStats {
        self.incremental.borrow().stats()
    }

    /// Cumulative DNA-memo counters for the guard's memo handle.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Whether JITBULL processing is active. With an empty database the
    /// engine skips snapshotting entirely — the paper's zero-overhead
    /// empty-DB property.
    pub fn enabled(&self) -> bool {
        !self.db.is_empty()
    }

    /// Immutable database access.
    pub fn db(&self) -> &DnaDatabase {
        &self.db
    }

    /// Mutable database access (install on disclosure, remove on patch).
    ///
    /// The returned guard unconditionally bumps the database generation
    /// when it drops ([`DnaDatabase::touch`]). `install` / `remove_cve`
    /// already bump on content change, but a raw `&mut DnaDatabase` also
    /// allows mutations that bypass them (`*guard.db_mut() = other`,
    /// `std::mem::take`, …) — without the drop bump those would leave the
    /// comparator's verdict cache keyed to a generation whose content no
    /// longer exists, silently serving stale verdicts. The bump-on-drop
    /// makes that unrepresentable at the cost of over-invalidating when
    /// the borrow turns out not to mutate.
    pub fn db_mut(&mut self) -> DbMut<'_> {
        DbMut { db: &mut self.db }
    }

    /// The comparator configuration.
    pub fn config(&self) -> &CompareConfig {
        &self.config
    }

    /// Analyses one compilation trace against every VDC entry (step 2 of
    /// the paper's workflow; Algorithm 2 inside). Extraction runs in the
    /// implementation selected by [`Guard::extractor_mode`]; comparison
    /// in the one selected by [`Guard::comparator_mode`]. Every
    /// combination returns identical `dangerous` / `matches` / `dna`
    /// (only `cost_cycles` differs, reflecting the work each actually
    /// does).
    pub fn analyze(&self, trace: &PassTrace, n_slots: usize) -> Analysis {
        self.analyze_with_receipts(trace, n_slots).0
    }

    /// Extraction dispatch: the configured extractor produces the DNA
    /// and the simulated cycles it cost; the incremental path
    /// additionally consults the shared memo and returns a receipt.
    fn extract_with_receipt(
        &self,
        trace: &PassTrace,
        n_slots: usize,
    ) -> (Dna, u64, Option<ExtractReceipt>) {
        match self.extractor {
            ExtractorMode::Reference => (
                extract_dna(trace, n_slots),
                trace_work(trace) * EXTRACT_COST_PER_INSTR,
                None,
            ),
            ExtractorMode::Incremental => {
                if let Some(FaultKind::CachePoison) = self.faults.fire(FaultSite::ExtractQuery) {
                    // The torn write lands before the lookup — the
                    // memo's purge-before-serve guarantee is the
                    // recovery path under test.
                    self.memo.poison();
                }
                let key = MemoKey::from_trace(trace, n_slots, self.extract_context);
                let mut cost = 0u64;
                if let Some(k) = &key {
                    cost += k.pre_mir_len() as u64 * MEMO_KEY_COST_PER_INSTR;
                    if let Some(dna) = self.memo.lookup(k) {
                        cost += MEMO_HIT_COST;
                        let receipt = ExtractReceipt {
                            memo_hit: true,
                            cost_cycles: cost,
                            ..ExtractReceipt::default()
                        };
                        return (dna, cost, Some(receipt));
                    }
                }
                let (dna, mut receipt) = self.incremental.borrow_mut().extract_dna(trace, n_slots);
                receipt.cost_cycles += cost;
                if let Some(k) = key {
                    self.memo.insert(k, dna.clone());
                }
                (dna, receipt.cost_cycles, Some(receipt))
            }
        }
    }

    fn analyze_with_receipts(
        &self,
        trace: &PassTrace,
        n_slots: usize,
    ) -> (Analysis, Option<ExtractReceipt>, Option<QueryReceipt>) {
        let (dna, extract_cost, extract_receipt) = self.extract_with_receipt(trace, n_slots);
        match self.mode {
            ComparatorMode::Reference => (
                self.compare_reference(dna, extract_cost),
                extract_receipt,
                None,
            ),
            ComparatorMode::Indexed => {
                let (analysis, receipt) = self.compare_indexed(dna, extract_cost);
                (analysis, extract_receipt, Some(receipt))
            }
        }
    }

    /// The naive Algorithm 2 loop over a pre-extracted DNA: full set
    /// intersections per (entry, slot), costed by sub-chain volume. This
    /// is the normative comparator — the indexed path must agree with it
    /// on every verdict.
    fn compare_reference(&self, dna: Dna, extract_cost: u64) -> Analysis {
        let mut cost = extract_cost;
        let mut dangerous: Vec<usize> = Vec::new();
        let mut matches = Vec::new();
        for entry in self.db.entries() {
            let slots = crate::compare::reference(&dna, &entry.dna, &self.config);
            // Comparison cost: proportional to the sub-chain volume on both
            // sides.
            let f_chains: usize = dna
                .deltas
                .iter()
                .map(|d| d.removed.len() + d.added.len())
                .sum();
            let v_chains: usize = entry
                .dna
                .deltas
                .iter()
                .map(|d| d.removed.len() + d.added.len())
                .sum();
            cost += (f_chains + v_chains) as u64 * COMPARE_COST_PER_CHAIN;
            if !slots.is_empty() {
                matches.push((entry.cve.clone(), entry.function.clone(), slots.clone()));
                dangerous.extend(slots);
            }
        }
        dangerous.sort_unstable();
        dangerous.dedup();
        Analysis {
            dangerous,
            matches,
            cost_cycles: cost,
            dna,
        }
    }

    /// Reference-comparator analysis of one trace (kept as the public
    /// normative entry point; extraction still follows
    /// [`Guard::extractor_mode`]).
    pub fn analyze_reference(&self, trace: &PassTrace, n_slots: usize) -> Analysis {
        let (dna, extract_cost, _) = self.extract_with_receipt(trace, n_slots);
        self.compare_reference(dna, extract_cost)
    }

    /// The indexed pipeline: ensure the index matches the database
    /// generation, query it (cache → prefilter → interned merges), and
    /// rebuild the entry-keyed result into the reference shape.
    fn compare_indexed(&self, dna: Dna, extract_cost: u64) -> (Analysis, QueryReceipt) {
        let mut cost = extract_cost;
        let mut index = self.index.borrow_mut();
        if let Some(FaultKind::CachePoison) = self.faults.fire(FaultSite::ComparatorQuery) {
            // The torn write lands before `ensure` — recovery is the
            // rebuild the zeroed generation stamp forces next line.
            index.poison();
        }
        cost += index.ensure(&self.db);
        let (hits, receipt) = index.query(&dna, &self.config);
        cost += receipt.cost_cycles;
        let entries = self.db.entries();
        let mut dangerous: Vec<usize> = Vec::new();
        let mut matches = Vec::new();
        for (idx, slots) in hits.iter() {
            let entry = &entries[*idx];
            matches.push((entry.cve.clone(), entry.function.clone(), slots.clone()));
            dangerous.extend(slots);
        }
        dangerous.sort_unstable();
        dangerous.dedup();
        (
            Analysis {
                dangerous,
                matches,
                cost_cycles: cost,
                dna,
            },
            receipt,
        )
    }

    /// Like [`Guard::analyze`], additionally reporting the analysis as an
    /// [`Event::GuardAnalyzed`] (preceded, on the incremental path, by an
    /// [`Event::ExtractorQuery`] describing the memo/fast-path work and,
    /// on the indexed path, by an [`Event::ComparatorQuery`] describing
    /// the cache/prefilter/shard work) to `collector`.
    pub fn analyze_observed(
        &self,
        trace: &PassTrace,
        n_slots: usize,
        collector: &mut dyn Collector,
    ) -> Analysis {
        let purges_before = self.index.borrow().stats().poison_purges;
        let memo_purges_before = self.memo.stats().poison_purges;
        let (analysis, extract_receipt, receipt) = self.analyze_with_receipts(trace, n_slots);
        let stats_after = self.index.borrow().stats();
        if stats_after.poison_purges > purges_before {
            collector.record(Event::CachePoisonPurged {
                rebuilds: stats_after.rebuilds,
            });
        }
        let memo_stats_after = self.memo.stats();
        if memo_stats_after.poison_purges > memo_purges_before {
            collector.record(Event::ExtractMemoPurged {
                purges: memo_stats_after.poison_purges,
            });
        }
        if let Some(r) = extract_receipt {
            collector.record(Event::ExtractorQuery {
                function: trace.function.clone(),
                memo_hit: r.memo_hit,
                passes_enumerated: r.passes_enumerated,
                passes_skipped: r.passes_skipped,
                chains_enumerated: r.chains_enumerated,
                chains_skipped: r.chains_skipped,
            });
        }
        if let Some(r) = receipt {
            collector.record(Event::ComparatorQuery {
                function: trace.function.clone(),
                cache_hit: r.cache_hit,
                prefilter_rejects: r.prefilter_rejects,
                set_merges: r.set_merges,
                shards: r.shards,
            });
        }
        collector.record(Event::GuardAnalyzed {
            function: trace.function.clone(),
            matches: analysis.matches.len() as u64,
            dangerous: analysis.dangerous.len() as u64,
            cost_cycles: analysis.cost_cycles,
        });
        analysis
    }

    /// Extracts DNA only (step 1: building database entries from a VDC
    /// compilation).
    pub fn extract(trace: &PassTrace, n_slots: usize) -> Dna {
        extract_dna(trace, n_slots)
    }
}

/// Mutable borrow of a [`Guard`]'s database that invalidates verdict
/// caches on drop. Returned by [`Guard::db_mut`]; dereferences to
/// [`DnaDatabase`], so existing `guard.db_mut().install(..)` call sites
/// compile unchanged.
#[derive(Debug)]
pub struct DbMut<'a> {
    db: &'a mut DnaDatabase,
}

impl std::ops::Deref for DbMut<'_> {
    type Target = DnaDatabase;
    fn deref(&self) -> &DnaDatabase {
        self.db
    }
}

impl std::ops::DerefMut for DbMut<'_> {
    fn deref_mut(&mut self) -> &mut DnaDatabase {
        self.db
    }
}

impl Drop for DbMut<'_> {
    fn drop(&mut self) {
        self.db.touch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull_mir::{MirSnapshot, PassRecord, SnapInstr};
    use std::sync::Arc;

    fn instr(id: u32, label: &str, operands: &[u32]) -> SnapInstr {
        SnapInstr {
            id,
            label: Arc::from(label),
            operands: operands.to_vec(),
        }
    }

    fn guarded_load() -> MirSnapshot {
        MirSnapshot {
            instrs: vec![
                instr(0, "parameter0", &[]),
                instr(1, "parameter1", &[]),
                instr(2, "unbox:array", &[0]),
                instr(3, "initializedlength", &[2]),
                instr(4, "boundscheck", &[1, 3]),
                instr(5, "loadelement", &[2, 4]),
                instr(6, "return", &[5]),
            ],
        }
    }

    fn unguarded_load() -> MirSnapshot {
        MirSnapshot {
            instrs: vec![
                instr(0, "parameter0", &[]),
                instr(1, "parameter1", &[]),
                instr(2, "unbox:array", &[0]),
                instr(5, "loadelement", &[2, 1]),
                instr(6, "return", &[5]),
            ],
        }
    }

    fn trace_removing_check(slot: usize) -> PassTrace {
        PassTrace {
            function: "f".into(),
            literals: Vec::new(),
            records: vec![PassRecord {
                slot,
                name: "GVN",
                before: guarded_load(),
                after: unguarded_load(),
            }],
        }
    }

    #[test]
    fn matching_trace_flags_the_pass() {
        // Build a DB from the "VDC" trace, then analyse an identical trace.
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let vdc_dna = Guard::extract(&trace_removing_check(6), 32);
        let mut db = DnaDatabase::new();
        db.install("CVE-2019-17026", "f", vdc_dna);
        let guard = Guard::new(db, cfg);
        assert!(guard.enabled());
        let analysis = guard.analyze(&trace_removing_check(6), 32);
        assert_eq!(analysis.dangerous, vec![6]);
        assert_eq!(analysis.matches.len(), 1);
        assert!(analysis.cost_cycles > 0);
    }

    #[test]
    fn different_slot_does_not_match() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let vdc_dna = Guard::extract(&trace_removing_check(6), 32);
        let mut db = DnaDatabase::new();
        db.install("CVE-2019-17026", "f", vdc_dna);
        let guard = Guard::new(db, cfg);
        let analysis = guard.analyze(&trace_removing_check(9), 32);
        assert!(analysis.dangerous.is_empty());
    }

    #[test]
    fn unrelated_delta_does_not_match() {
        let cfg = CompareConfig::default();
        let vdc_dna = Guard::extract(&trace_removing_check(6), 32);
        let mut db = DnaDatabase::new();
        db.install("CVE-2019-17026", "f", vdc_dna);
        let guard = Guard::new(db, cfg);
        // A benign pass that removed an arithmetic chain instead.
        let before = MirSnapshot {
            instrs: vec![
                instr(0, "parameter0", &[]),
                instr(1, "constant:number", &[]),
                instr(2, "add", &[0, 1]),
                instr(3, "mul", &[2, 2]),
                instr(4, "return", &[3]),
            ],
        };
        let after = MirSnapshot {
            instrs: vec![
                instr(0, "parameter0", &[]),
                instr(1, "constant:number", &[]),
                instr(3, "mul", &[0, 0]),
                instr(4, "return", &[3]),
            ],
        };
        let trace = PassTrace {
            function: "g".into(),
            literals: Vec::new(),
            records: vec![PassRecord {
                slot: 6,
                name: "GVN",
                before,
                after,
            }],
        };
        let analysis = guard.analyze(&trace, 32);
        assert!(analysis.dangerous.is_empty(), "{:?}", analysis.matches);
    }

    #[test]
    fn comparator_modes_agree_on_everything_but_cost() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", Guard::extract(&trace_removing_check(6), 32));
        db.install("CVE-B", "g", Guard::extract(&trace_removing_check(11), 32));
        let indexed = Guard::with_comparator(db.clone(), cfg, ComparatorMode::Indexed);
        let reference = Guard::with_comparator(db, cfg, ComparatorMode::Reference);
        for trace in [
            trace_removing_check(6),
            trace_removing_check(11),
            trace_removing_check(3),
        ] {
            let a = indexed.analyze(&trace, 32);
            let b = reference.analyze(&trace, 32);
            assert_eq!(a.dangerous, b.dangerous);
            assert_eq!(a.matches, b.matches);
            assert_eq!(a.dna, b.dna);
        }
        let stats = indexed.comparator_stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(reference.comparator_stats().queries, 0);
    }

    #[test]
    fn indexed_cache_hits_on_repeat_and_invalidates_on_change() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", Guard::extract(&trace_removing_check(6), 32));
        let mut guard = Guard::new(db, cfg);
        let trace = trace_removing_check(6);
        assert_eq!(guard.analyze(&trace, 32).dangerous, vec![6]);
        assert_eq!(guard.analyze(&trace, 32).dangerous, vec![6]);
        assert_eq!(guard.comparator_stats().cache_hits, 1);
        // Removing the CVE must not serve the stale cached verdict.
        guard.db_mut().remove_cve("CVE-A");
        assert!(guard.analyze(&trace, 32).dangerous.is_empty());
    }

    #[test]
    fn cache_poison_is_purged_and_reported() {
        use jitbull_chaos::{FaultPlan, FaultSite as Site};
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", Guard::extract(&trace_removing_check(6), 32));
        let mut guard = Guard::new(db, cfg);
        let trace = trace_removing_check(6);
        // Warm the verdict cache.
        assert_eq!(guard.analyze(&trace, 32).dangerous, vec![6]);
        // Poison the comparator state on the next query.
        guard.set_fault_injector(FaultInjector::from_plan(FaultPlan::new(5).script(
            Site::ComparatorQuery,
            FaultKind::CachePoison,
            0,
            1,
        )));
        let mut rec = jitbull_telemetry::Recorder::new();
        let analysis = guard.analyze_observed(&trace, 32, &mut rec);
        assert_eq!(
            analysis.dangerous,
            vec![6],
            "a poisoned cache must cost a rebuild, never a wrong verdict"
        );
        assert_eq!(guard.comparator_stats().poison_purges, 1);
        assert_eq!(rec.metrics().counter("recovery.cache_poison_purged"), 1);
        // The fault window is over: the next query is clean again.
        assert_eq!(guard.analyze(&trace, 32).dangerous, vec![6]);
        assert_eq!(guard.comparator_stats().poison_purges, 1);
    }

    #[test]
    fn extractor_modes_agree_on_everything_but_cost() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", Guard::extract(&trace_removing_check(6), 32));
        db.install("CVE-B", "g", Guard::extract(&trace_removing_check(11), 32));
        let mut incremental = Guard::new(db.clone(), cfg);
        incremental.set_extractor_mode(ExtractorMode::Incremental);
        let mut reference = Guard::new(db, cfg);
        reference.set_extractor_mode(ExtractorMode::Reference);
        for trace in [
            trace_removing_check(6),
            trace_removing_check(11),
            trace_removing_check(3),
        ] {
            let a = incremental.analyze(&trace, 32);
            let b = reference.analyze(&trace, 32);
            assert_eq!(a.dangerous, b.dangerous);
            assert_eq!(a.matches, b.matches);
            assert_eq!(a.dna, b.dna, "extractor modes must emit identical DNA");
        }
        assert_eq!(incremental.memo_stats().lookups, 3);
        assert_eq!(
            reference.memo_stats().lookups,
            0,
            "the reference extractor must bypass the memo entirely"
        );
    }

    #[test]
    fn memo_hits_on_repeat_analysis_and_costs_less() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", Guard::extract(&trace_removing_check(6), 32));
        let guard = Guard::new(db, cfg);
        let trace = trace_removing_check(6);
        let cold = guard.analyze(&trace, 32);
        let warm = guard.analyze(&trace, 32);
        assert_eq!(cold.dangerous, warm.dangerous);
        assert_eq!(cold.dna, warm.dna);
        let stats = guard.memo_stats();
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.hits, 1);
        assert!(
            warm.cost_cycles < cold.cost_cycles,
            "memo hit ({}) must be cheaper than the cold extraction ({})",
            warm.cost_cycles,
            cold.cost_cycles
        );
    }

    #[test]
    fn extract_context_change_invalidates_the_memo() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut guard = Guard::new(DnaDatabase::new(), cfg);
        let trace = trace_removing_check(6);
        guard.analyze(&trace, 32);
        guard.analyze(&trace, 32);
        assert_eq!(guard.memo_stats().hits, 1);
        // A new vulnerability context keys a different memo entry: the
        // same trace must be re-extracted, never served stale.
        guard.set_extract_context(0xdead_beef);
        guard.analyze(&trace, 32);
        assert_eq!(guard.memo_stats().hits, 1);
        assert_eq!(guard.memo_stats().lookups, 3);
    }

    #[test]
    fn extract_memo_poison_is_purged_and_reported() {
        use jitbull_chaos::{FaultPlan, FaultSite as Site};
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", Guard::extract(&trace_removing_check(6), 32));
        let mut guard = Guard::new(db, cfg);
        let trace = trace_removing_check(6);
        // Warm the memo.
        assert_eq!(guard.analyze(&trace, 32).dangerous, vec![6]);
        // Poison the memo on the next extraction query.
        guard.set_fault_injector(FaultInjector::from_plan(FaultPlan::new(5).script(
            Site::ExtractQuery,
            FaultKind::CachePoison,
            0,
            1,
        )));
        let mut rec = jitbull_telemetry::Recorder::new();
        let analysis = guard.analyze_observed(&trace, 32, &mut rec);
        assert_eq!(
            analysis.dangerous,
            vec![6],
            "a poisoned memo must cost a re-extraction, never a wrong verdict"
        );
        assert_eq!(guard.memo_stats().poison_purges, 1);
        assert_eq!(rec.metrics().counter("recovery.extract_memo_purged"), 1);
        // The fault window is over: the next analysis re-warms cleanly.
        assert_eq!(guard.analyze(&trace, 32).dangerous, vec![6]);
        assert_eq!(guard.memo_stats().poison_purges, 1);
    }

    #[test]
    fn multiple_vdcs_union_their_slots() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", Guard::extract(&trace_removing_check(6), 32));
        db.install("CVE-B", "f", Guard::extract(&trace_removing_check(11), 32));
        let guard = Guard::new(db, cfg);
        let mut trace = trace_removing_check(6);
        trace
            .records
            .push(trace_removing_check(11).records.pop().unwrap());
        let analysis = guard.analyze(&trace, 32);
        assert_eq!(analysis.dangerous, vec![6, 11]);
        assert_eq!(analysis.matches.len(), 2);
    }
}
