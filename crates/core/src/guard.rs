//! The engine-facing facade: look a compilation up in the compile cache,
//! extract DNA from its trace on a miss, compare against the database,
//! and account the analysis cost.

use std::cell::RefCell;
use std::sync::Arc;

use jitbull_chaos::{FaultInjector, FaultKind, FaultSite};
use jitbull_mir::{CompileKey, PassTrace, SlotSet};
use jitbull_telemetry::{Collector, Event};

use crate::compare::CompareConfig;
use crate::db::DnaDatabase;
use crate::dna::Dna;
use crate::extract::incremental::{ExtractReceipt, IncrementalExtractor};
use crate::extract::memo::{
    DnaMemo, MemoEntry, MemoStats, PipelineOutput, VerdictStamp, MEMO_HIT_COST,
    MEMO_KEY_COST_PER_INSTR,
};
use crate::extract::{extract_dna, trace_work};
use crate::index::{
    ComparatorIndex, EntryMatches, IndexStats, QueryReceipt, CACHE_HIT_COST, HASH_COST_PER_CHAIN,
};

/// Which Δ-comparator implementation a [`Guard`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComparatorMode {
    /// The interned / prefiltered comparator ([`crate::index`]) behind
    /// the compile cache's verdicts — the production path.
    #[default]
    Indexed,
    /// The naive normative loop over [`crate::compare::reference`] —
    /// the oracle the differential harness compares against, and the
    /// baseline the fig6 bench reports speedups over. Never reads or
    /// writes cached verdicts.
    Reference,
}

/// Which Δ-extractor implementation a [`Guard`] runs. Orthogonal to
/// [`ComparatorMode`]: extraction produces the DNA, comparison judges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExtractorMode {
    /// The incremental extractor ([`crate::extract::incremental`]) behind
    /// the shared compile cache ([`crate::extract::memo`]) — the
    /// production path.
    #[default]
    Incremental,
    /// The naive normative [`crate::extract::extract_dna`] — the
    /// Algorithm 1 oracle the extractor differential harness compares
    /// against, and the baseline the `fig_extract` bench reports
    /// speedups over. Bypasses the compile cache.
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
    /// Pipeline slots found similar to at least one VDC entry (the
    /// paper's `DisPass`).
    pub dangerous: SlotSet,
    /// Which VDC entries matched: `(cve, function, slots)`.
    pub matches: Vec<(String, String, SlotSet)>,
    /// Simulated cycles the analysis consumed (extraction + comparison).
    pub cost_cycles: u64,
    /// The extracted DNA (kept so callers can install it into a DB —
    /// that's exactly how VDC DNA is produced in step 1). Shared with
    /// the compile cache.
    pub dna: Arc<Dna>,
}

/// The compile cache's answer for one optimizing compilation, taken
/// before its pipeline runs ([`Guard::lookup`]). The default is keyless:
/// an analysis under it neither reads nor fills the cache.
#[derive(Debug, Default)]
pub struct Lookup {
    key: Option<CompileKey>,
    cached: Option<MemoEntry>,
    /// The memo's purge count, when this lookup purged a poisoned store.
    purged: Option<u64>,
    /// This round's clean pipeline output, to store with the entry.
    ran: Option<Arc<PipelineOutput>>,
}

impl Lookup {
    /// Whether the compilation must be traced: the cache holds no DNA
    /// for it.
    #[must_use]
    pub fn needs_trace(&self) -> bool {
        self.cached.is_none()
    }

    /// The stored pipeline output, which stands in for running the
    /// pipeline: the cache holds it once a clean round under the key ran.
    #[must_use]
    pub fn output(&self) -> Option<&Arc<PipelineOutput>> {
        self.cached.as_ref()?.output.as_ref()
    }

    /// Hands over the output of a pipeline run that went clean this round
    /// (not broken, no fault injector armed). The analysis stores it with
    /// the entry unless the entry holds one already; a keyless lookup
    /// drops it.
    pub fn store_output(&mut self, output: Arc<PipelineOutput>) {
        self.ran = Some(output);
    }
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
    /// Shared with the guard's clones and, in the serving pool, with the
    /// published snapshot; [`Guard::db_mut`] copies it on write.
    db: Arc<DnaDatabase>,
    config: CompareConfig,
    mode: ComparatorMode,
    extractor: ExtractorMode,
    /// Lazily (re)built comparator index over `db`; interior-mutable so
    /// `analyze_compile(&self, ..)` can rebuild it. Cloning a guard
    /// clones the index too — valid, because the clone starts from
    /// identical database content at the same generation.
    index: RefCell<ComparatorIndex>,
    /// Incremental extractor state (interner, run-window cache);
    /// interior-mutable for the same reason as `index`. Cloning forks
    /// the caches — both forks stay exact, they just warm separately.
    incremental: RefCell<IncrementalExtractor>,
    /// The compile cache. Clone-shared: guards built from the same
    /// [`DnaMemo`] handle (e.g. all pool workers) alias one store.
    memo: DnaMemo,
    /// Chaos hook: consulted once per cache lookup
    /// ([`jitbull_chaos::FaultSite::ExtractQuery`]) and once per indexed
    /// comparison ([`jitbull_chaos::FaultSite::ComparatorQuery`]).
    /// Disabled by default — a single pointer test on the hot path.
    faults: FaultInjector,
}

impl Guard {
    /// Creates a guard over a database, owned or shared (indexed
    /// comparator, incremental extractor, a private compile cache).
    pub fn new(db: impl Into<Arc<DnaDatabase>>, config: CompareConfig) -> Self {
        Guard {
            db: db.into(),
            config,
            ..Guard::default()
        }
    }

    /// Arms (or disarms) the fault injector. A
    /// [`jitbull_chaos::FaultKind::CachePoison`] fault fired at a lookup
    /// corrupts the compile cache, and one fired at an indexed comparison
    /// corrupts the comparator index, each *before* it is read —
    /// exercising the poison-purge recovery paths.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Switches the comparator implementation.
    pub fn set_comparator_mode(&mut self, mode: ComparatorMode) {
        self.mode = mode;
    }

    /// Switches the extractor implementation.
    pub fn set_extractor_mode(&mut self, mode: ExtractorMode) {
        self.extractor = mode;
    }

    /// Replaces the compile-cache handle (the pool installs one shared
    /// cache into every worker's guard).
    pub fn set_dna_memo(&mut self, memo: DnaMemo) {
        self.memo = memo;
    }

    /// Cumulative indexed-comparator counters (all zero while the guard
    /// runs in [`ComparatorMode::Reference`]).
    pub fn comparator_stats(&self) -> IndexStats {
        self.index.borrow().stats()
    }

    /// Cumulative compile-cache counters for the guard's cache handle.
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

    /// Mutable database access (install on disclosure, remove on patch),
    /// copying a shared database first. Any change, wholesale replacement
    /// included, leaves the database under a generation no cached
    /// verdict of other content carries ([`DnaDatabase`]).
    pub fn db_mut(&mut self) -> &mut DnaDatabase {
        Arc::make_mut(&mut self.db)
    }

    /// The comparator configuration.
    pub fn config(&self) -> &CompareConfig {
        &self.config
    }

    /// Consults the compile cache for a compilation about to run the
    /// pipeline. With the reference extractor the cache is bypassed and
    /// nothing is looked up.
    pub fn lookup(&self, key: CompileKey) -> Lookup {
        if self.extractor == ExtractorMode::Reference {
            return Lookup::default();
        }
        if let Some(FaultKind::CachePoison) = self.faults.fire(FaultSite::ExtractQuery) {
            // The torn write lands before the lookup — the memo's
            // purge-before-serve guarantee is the recovery path under
            // test.
            self.memo.poison();
        }
        let found = self.memo.lookup(&key, self.stamp().as_ref());
        Lookup {
            key: Some(key),
            cached: found.entry,
            purged: found.purged,
            ran: None,
        }
    }

    /// The stamp verdicts are cached under; `None` for the reference
    /// comparator, which never reads or writes them.
    fn stamp(&self) -> Option<VerdictStamp> {
        (self.mode == ComparatorMode::Indexed).then_some(VerdictStamp {
            generation: self.db.generation(),
            config: self.config,
        })
    }

    /// Analyses one compilation (step 2 of the paper's workflow;
    /// Algorithm 2 inside). A DNA cached under `lookup`'s key is used as
    /// is, and `trace` is then the untraced (or skipped) compilation's
    /// empty one, naming only the function. Otherwise the DNA is
    /// extracted from `trace` by the implementation selected by
    /// [`Guard::set_extractor_mode`] and, for a keyed lookup, cached
    /// together with any output handed over by [`Lookup::store_output`].
    /// Comparison runs in the implementation selected by
    /// [`Guard::set_comparator_mode`]; the indexed one serves the cached
    /// verdict when its stamp matches and caches the verdict it computes
    /// otherwise. Every combination returns identical `dangerous` /
    /// `matches` / `dna` (only `cost_cycles` differs, reflecting the work
    /// each actually does).
    ///
    /// With a `collector`, the analysis is reported as an
    /// [`Event::GuardAnalyzed`], preceded on the incremental path by an
    /// [`Event::ExtractorQuery`] describing the cache/fast-path work and,
    /// on the indexed path, by an [`Event::ComparatorQuery`] describing
    /// the verdict-cache/prefilter work.
    pub fn analyze_compile(
        &self,
        lookup: Lookup,
        trace: &PassTrace,
        collector: Option<&mut dyn Collector>,
    ) -> Analysis {
        let Lookup {
            key,
            cached,
            purged,
            ran,
        } = lookup;
        let dna_hit = cached.is_some();
        let (mut entry, mut cost, extract_receipt) = match cached {
            Some(entry) => {
                let cost = entry.pre_mir_len as u64 * MEMO_KEY_COST_PER_INSTR + MEMO_HIT_COST;
                let receipt = ExtractReceipt {
                    memo_hit: true,
                    cost_cycles: cost,
                    ..ExtractReceipt::default()
                };
                (entry, cost, Some(receipt))
            }
            None => self.extract_fresh(trace, key.is_some()),
        };
        let index_purges = self.index.borrow().stats().poison_purges;
        let (hits, receipt) = match self.mode {
            ComparatorMode::Reference => (self.compare_reference(&entry.dna, &mut cost), None),
            ComparatorMode::Indexed => {
                let cached = entry.verdict.take().map(|(_, hits)| hits);
                let (hits, receipt) = self.compare_indexed(&entry.dna, cached, &mut cost);
                (hits, Some(receipt))
            }
        };
        // Cache what this round computed: a new DNA, a verdict the cached
        // one's stamp no longer covered, or the entry's first output.
        let mut changed = !dna_hit || receipt.is_some_and(|r| !r.cache_hit);
        if entry.output.is_none() && ran.is_some() {
            entry.output = ran;
            changed = true;
        }
        let dna = Arc::clone(&entry.dna);
        if let Some(key) = key.filter(|_| changed) {
            entry.verdict = self.stamp().map(|stamp| (stamp, hits.clone()));
            self.memo.insert(key, entry);
        }
        let entries = self.db.entries();
        let mut dangerous = SlotSet::new();
        let mut matches = Vec::new();
        for (idx, slots) in hits {
            let e = &entries[idx];
            dangerous = dangerous.union(slots);
            matches.push((e.cve.clone(), e.function.clone(), slots));
        }
        let analysis = Analysis {
            dangerous,
            matches,
            cost_cycles: cost,
            dna,
        };
        let Some(collector) = collector else {
            return analysis;
        };
        let index_stats = self.index.borrow().stats();
        if index_stats.poison_purges > index_purges {
            collector.record(Event::CachePoisonPurged {
                rebuilds: index_stats.rebuilds,
            });
        }
        if let Some(purges) = purged {
            collector.record(Event::ExtractMemoPurged { purges });
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

    /// Extraction by the configured extractor: the DNA (with no verdict
    /// yet), the simulated cycles it cost — plus the key hash when
    /// `keyed` — and, on the incremental path, a receipt.
    fn extract_fresh(
        &self,
        trace: &PassTrace,
        keyed: bool,
    ) -> (MemoEntry, u64, Option<ExtractReceipt>) {
        let pre_mir_len = trace.initial.len();
        let (dna, cost, receipt) = match self.extractor {
            ExtractorMode::Reference => (
                extract_dna(trace),
                trace_work(trace) * EXTRACT_COST_PER_INSTR,
                None,
            ),
            ExtractorMode::Incremental => {
                let (dna, mut receipt) = self.incremental.borrow_mut().extract_dna(trace);
                if keyed {
                    receipt.cost_cycles += pre_mir_len as u64 * MEMO_KEY_COST_PER_INSTR;
                }
                (dna, receipt.cost_cycles, Some(receipt))
            }
        };
        let entry = MemoEntry {
            dna: Arc::new(dna),
            pre_mir_len,
            verdict: None,
            output: None,
        };
        (entry, cost, receipt)
    }

    /// The naive Algorithm 2 loop: full set intersections per (entry,
    /// slot), costed by sub-chain volume. This is the normative
    /// comparator — the indexed path must agree with it on every verdict.
    fn compare_reference(&self, dna: &Dna, cost: &mut u64) -> EntryMatches {
        let f_chains = dna.chain_count();
        self.db
            .entries()
            .iter()
            .enumerate()
            .filter_map(|(idx, entry)| {
                // Proportional to the sub-chain volume on both sides.
                *cost += (f_chains + entry.dna.chain_count()) * COMPARE_COST_PER_CHAIN;
                let slots = crate::compare::reference(dna, &entry.dna, &self.config);
                (!slots.is_empty()).then_some((idx, slots))
            })
            .collect()
    }

    /// The indexed pipeline: ensure the index matches the database
    /// generation, then serve the `cached` verdict or scan the index.
    fn compare_indexed(
        &self,
        dna: &Dna,
        cached: Option<EntryMatches>,
        cost: &mut u64,
    ) -> (EntryMatches, QueryReceipt) {
        let mut index = self.index.borrow_mut();
        if let Some(FaultKind::CachePoison) = self.faults.fire(FaultSite::ComparatorQuery) {
            // The torn write lands before `ensure` — recovery is the
            // rebuild the zeroed generation stamp forces next line.
            index.poison();
        }
        *cost += index.ensure(&self.db);
        let (hits, receipt) = match cached {
            Some(hits) => {
                let receipt = QueryReceipt {
                    cache_hit: true,
                    cost_cycles: dna.chain_count() * HASH_COST_PER_CHAIN + CACHE_HIT_COST,
                    ..QueryReceipt::default()
                };
                (hits, receipt)
            }
            None => index.query(dna, &self.config),
        };
        *cost += receipt.cost_cycles;
        (hits, receipt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull_mir::{Label, MirSnapshot, PassRecord};
    use jitbull_vm::bytecode::{Function, Op};

    /// A compile key standing for the compilation of `trace_removing_check(slot)`.
    fn key(slot: usize) -> CompileKey {
        let f = Function {
            name: "f".into(),
            arity: 0,
            n_locals: 0,
            code: vec![Op::ConstNum(slot as f64), Op::Return],
        };
        CompileKey::new(&f, SlotSet::new(), 0)
    }

    /// One engine round: look the compilation up, then analyse it (with
    /// an untraced, empty trace when the cache holds its DNA).
    fn round(guard: &Guard, slot: usize, collector: Option<&mut dyn Collector>) -> Analysis {
        let lookup = guard.lookup(key(slot));
        let trace = if lookup.needs_trace() {
            trace_removing_check(slot)
        } else {
            PassTrace::default()
        };
        guard.analyze_compile(lookup, &trace, collector)
    }

    fn instr(id: u32, label: &str, operands: &[u32]) -> (u32, Label, Vec<u32>) {
        let label = Label::from_name(label).expect("a mnemonic");
        (id, label, operands.to_vec())
    }

    fn snap(instrs: Vec<(u32, Label, Vec<u32>)>) -> MirSnapshot {
        let mut s = MirSnapshot::default();
        for (id, label, operands) in &instrs {
            s.push(*id, *label, operands);
        }
        s
    }

    fn guarded_load() -> MirSnapshot {
        snap(vec![
            instr(0, "parameter0", &[]),
            instr(1, "parameter1", &[]),
            instr(2, "unbox:array", &[0]),
            instr(3, "initializedlength", &[2]),
            instr(4, "boundscheck", &[1, 3]),
            instr(5, "loadelement", &[2, 4]),
            instr(6, "return", &[5]),
        ])
    }

    fn unguarded_load() -> MirSnapshot {
        snap(vec![
            instr(0, "parameter0", &[]),
            instr(1, "parameter1", &[]),
            instr(2, "unbox:array", &[0]),
            instr(5, "loadelement", &[2, 1]),
            instr(6, "return", &[5]),
        ])
    }

    fn trace_removing_check(slot: usize) -> PassTrace {
        PassTrace {
            function: "f".into(),
            initial: guarded_load(),
            records: vec![PassRecord {
                slot,
                name: "GVN",
                after: unguarded_load(),
            }],
        }
    }

    #[test]
    fn matching_trace_flags_the_pass() {
        // Build a DB from the "VDC" trace, then analyse an identical trace.
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let vdc_dna = extract_dna(&trace_removing_check(6));
        let mut db = DnaDatabase::new();
        db.install("CVE-2019-17026", "f", vdc_dna);
        let guard = Guard::new(db, cfg);
        assert!(guard.enabled());
        let analysis = guard.analyze_compile(Lookup::default(), &trace_removing_check(6), None);
        assert_eq!(analysis.dangerous, SlotSet::from_iter([6]));
        assert_eq!(analysis.matches.len(), 1);
        assert!(analysis.cost_cycles > 0);
    }

    #[test]
    fn different_slot_does_not_match() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let vdc_dna = extract_dna(&trace_removing_check(6));
        let mut db = DnaDatabase::new();
        db.install("CVE-2019-17026", "f", vdc_dna);
        let guard = Guard::new(db, cfg);
        let analysis = guard.analyze_compile(Lookup::default(), &trace_removing_check(9), None);
        assert!(analysis.dangerous.is_empty());
    }

    #[test]
    fn unrelated_delta_does_not_match() {
        let cfg = CompareConfig::default();
        let vdc_dna = extract_dna(&trace_removing_check(6));
        let mut db = DnaDatabase::new();
        db.install("CVE-2019-17026", "f", vdc_dna);
        let guard = Guard::new(db, cfg);
        // A benign pass that removed an arithmetic chain instead.
        let before = snap(vec![
            instr(0, "parameter0", &[]),
            instr(1, "constant:number", &[]),
            instr(2, "add", &[0, 1]),
            instr(3, "mul", &[2, 2]),
            instr(4, "return", &[3]),
        ]);
        let after = snap(vec![
            instr(0, "parameter0", &[]),
            instr(1, "constant:number", &[]),
            instr(3, "mul", &[0, 0]),
            instr(4, "return", &[3]),
        ]);
        let trace = PassTrace {
            function: "g".into(),
            initial: before,
            records: vec![PassRecord {
                slot: 6,
                name: "GVN",
                after,
            }],
        };
        let analysis = guard.analyze_compile(Lookup::default(), &trace, None);
        assert!(analysis.dangerous.is_empty(), "{:?}", analysis.matches);
    }

    #[test]
    fn comparator_modes_agree_on_everything_but_cost() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", extract_dna(&trace_removing_check(6)));
        db.install("CVE-B", "g", extract_dna(&trace_removing_check(11)));
        let indexed = Guard::new(db.clone(), cfg);
        let mut reference = Guard::new(db, cfg);
        reference.set_comparator_mode(ComparatorMode::Reference);
        for trace in [
            trace_removing_check(6),
            trace_removing_check(11),
            trace_removing_check(3),
        ] {
            let a = indexed.analyze_compile(Lookup::default(), &trace, None);
            let b = reference.analyze_compile(Lookup::default(), &trace, None);
            assert_eq!(a.dangerous, b.dangerous);
            assert_eq!(a.matches, b.matches);
            assert_eq!(a.dna, b.dna);
        }
        let stats = indexed.comparator_stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(reference.comparator_stats().queries, 0);
    }

    #[test]
    fn cached_verdict_hits_on_repeat_and_is_refreshed_on_change() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", extract_dna(&trace_removing_check(6)));
        let mut guard = Guard::new(db, cfg);
        assert_eq!(round(&guard, 6, None).dangerous, SlotSet::from_iter([6]));
        assert_eq!(round(&guard, 6, None).dangerous, SlotSet::from_iter([6]));
        assert_eq!(guard.memo_stats().verdict_hits, 1);
        assert_eq!(guard.comparator_stats().queries, 1);
        // Removing the CVE must not serve the stale cached verdict: the
        // DNA still hits, the verdict is recomputed and replaces it.
        guard.db_mut().remove_cve("CVE-A");
        assert!(round(&guard, 6, None).dangerous.is_empty());
        assert!(round(&guard, 6, None).dangerous.is_empty());
        let stats = guard.memo_stats();
        assert_eq!((stats.hits, stats.verdict_hits), (3, 2));
        assert_eq!(guard.comparator_stats().queries, 2);
    }

    #[test]
    fn reference_comparator_never_touches_verdicts() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", extract_dna(&trace_removing_check(6)));
        let mut guard = Guard::new(db, cfg);
        guard.set_comparator_mode(ComparatorMode::Reference);
        assert_eq!(round(&guard, 6, None).dangerous, SlotSet::from_iter([6]));
        // The DNA is shared with an indexed guard; the verdict is not.
        let mut indexed = guard.clone();
        indexed.set_comparator_mode(ComparatorMode::Indexed);
        assert_eq!(round(&indexed, 6, None).dangerous, SlotSet::from_iter([6]));
        assert_eq!(round(&guard, 6, None).dangerous, SlotSet::from_iter([6]));
        let stats = guard.memo_stats();
        assert_eq!((stats.hits, stats.verdict_hits), (2, 0));
    }

    #[test]
    fn cache_poison_is_purged_and_reported() {
        use jitbull_chaos::{FaultPlan, FaultSite as Site};
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", extract_dna(&trace_removing_check(6)));
        let mut guard = Guard::new(db, cfg);
        // Warm the verdict cache.
        assert_eq!(round(&guard, 6, None).dangerous, SlotSet::from_iter([6]));
        // Poison the comparator state on the next query.
        guard.set_fault_injector(FaultInjector::from_plan(FaultPlan::new(5).script(
            Site::ComparatorQuery,
            FaultKind::CachePoison,
            0,
            1,
        )));
        let mut rec = jitbull_telemetry::Recorder::new();
        let analysis = round(&guard, 6, Some(&mut rec));
        assert_eq!(
            analysis.dangerous,
            SlotSet::from_iter([6]),
            "a poisoned index must cost a rebuild, never a wrong verdict"
        );
        assert_eq!(guard.comparator_stats().poison_purges, 1);
        assert_eq!(rec.metrics().counter("recovery.cache_poison_purged"), 1);
        // The fault window is over: the next query is clean again.
        assert_eq!(round(&guard, 6, None).dangerous, SlotSet::from_iter([6]));
        assert_eq!(guard.comparator_stats().poison_purges, 1);
    }

    #[test]
    fn extractor_modes_agree_on_everything_but_cost() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", extract_dna(&trace_removing_check(6)));
        db.install("CVE-B", "g", extract_dna(&trace_removing_check(11)));
        let mut incremental = Guard::new(db.clone(), cfg);
        incremental.set_extractor_mode(ExtractorMode::Incremental);
        let mut reference = Guard::new(db, cfg);
        reference.set_extractor_mode(ExtractorMode::Reference);
        for slot in [6, 11, 3] {
            let a = round(&incremental, slot, None);
            let b = round(&reference, slot, None);
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
    fn memo_hit_skips_the_trace_and_costs_less() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", extract_dna(&trace_removing_check(6)));
        let guard = Guard::new(db, cfg);
        assert!(guard.lookup(key(6)).needs_trace());
        let cold = round(&guard, 6, None);
        assert!(!guard.lookup(key(6)).needs_trace());
        let warm = round(&guard, 6, None);
        assert_eq!(cold.dangerous, warm.dangerous);
        assert_eq!(cold.dna, warm.dna);
        let stats = guard.memo_stats();
        assert_eq!(stats.lookups, 4);
        assert_eq!(stats.hits, 2);
        assert!(
            warm.cost_cycles < cold.cost_cycles,
            "memo hit ({}) must be cheaper than the cold extraction ({})",
            warm.cost_cycles,
            cold.cost_cycles
        );
    }

    #[test]
    fn extract_memo_poison_is_purged_and_reported() {
        use jitbull_chaos::{FaultPlan, FaultSite as Site};
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", extract_dna(&trace_removing_check(6)));
        let mut guard = Guard::new(db, cfg);
        // Warm the memo.
        assert_eq!(round(&guard, 6, None).dangerous, SlotSet::from_iter([6]));
        // Poison the memo on the next lookup.
        guard.set_fault_injector(FaultInjector::from_plan(FaultPlan::new(5).script(
            Site::ExtractQuery,
            FaultKind::CachePoison,
            0,
            1,
        )));
        let mut rec = jitbull_telemetry::Recorder::new();
        let analysis = round(&guard, 6, Some(&mut rec));
        assert_eq!(
            analysis.dangerous,
            SlotSet::from_iter([6]),
            "a poisoned memo must cost a re-extraction, never a wrong verdict"
        );
        assert_eq!(guard.memo_stats().poison_purges, 1);
        assert_eq!(rec.metrics().counter("recovery.extract_memo_purged"), 1);
        // The fault window is over: the next analysis re-warms cleanly.
        assert_eq!(round(&guard, 6, None).dangerous, SlotSet::from_iter([6]));
        assert_eq!(guard.memo_stats().poison_purges, 1);
    }

    #[test]
    fn multiple_vdcs_union_their_slots() {
        let cfg = CompareConfig { thr: 1, ratio: 0.5 };
        let mut db = DnaDatabase::new();
        db.install("CVE-A", "f", extract_dna(&trace_removing_check(6)));
        db.install("CVE-B", "f", extract_dna(&trace_removing_check(11)));
        let guard = Guard::new(db, cfg);
        // Slot 6 removes the check, slot 8 (in neither entry) restores
        // it, slot 11 removes it again.
        let mut trace = trace_removing_check(6);
        trace.records.push(PassRecord {
            slot: 8,
            name: "LICM",
            after: guarded_load(),
        });
        trace.records.extend(trace_removing_check(11).records);
        let analysis = guard.analyze_compile(Lookup::default(), &trace, None);
        assert_eq!(analysis.dangerous, SlotSet::from_iter([6, 11]));
        assert_eq!(analysis.matches.len(), 2);
    }
}
