//! The incremental Δ-extractor: the fast production path for
//! Algorithm 1, mirroring what [`crate::index`] did for Algorithm 2.
//!
//! [`super::extract_delta`] (the normative reference) enumerates every
//! root-to-leaf chain of *both* snapshots of *every* pass and then
//! materialises, windows, and deduplicates label sub-chains through a
//! `BTreeSet<Chain>` — even for the many passes that changed nothing.
//! This module computes the same deltas, chain for chain, by diffing
//! structurally first and touching strings only where the IR actually
//! changed:
//!
//! 1. **Edge-multiset fast path**: a pass's label-pair edge multisets
//!    are compared before anything else. Each snapshot of a trace is
//!    counted once: a record's `after` counts are the next record's
//!    `before` counts, because that is the same snapshot. Equal
//!    multisets mean both directed changed-edge sets are empty, which
//!    means the reference's `diff_subchains` emits nothing regardless of
//!    what the chains look like — so the delta is empty and chain
//!    enumeration is skipped entirely. Most pipeline slots take this
//!    path on real workloads.
//! 2. **One-sided skip**: removed and added sub-chains depend on
//!    *directed* multiplicity drops. A side whose changed-edge set is
//!    empty contributes nothing, so its snapshot is never enumerated.
//! 3. **Id-path enumeration with cached reuse**: when a side must be
//!    enumerated, the DFS visits nodes in exactly the reference order
//!    with the same [`super::MAX_CHAINS`] / [`super::MAX_CHAIN_LEN`]
//!    caps, but records instruction-id paths instead of label vectors.
//!    A record's `after` snapshot is the next record's `before`, so the
//!    last enumeration is kept and reused when the snapshots compare
//!    equal (full structural equality — reuse can never be wrong, and it
//!    also serves an equal snapshot of a later trace).
//! 4. **Interned runs and memoised windows**: changed-edge runs along a
//!    path are materialised once, interned into the shared
//!    [`ChainInterner`], and expanded into their contiguous windows via
//!    a per-run-id cache. Duplicate sub-chains — the overwhelmingly
//!    common case, since every window of every chain through a changed
//!    region repeats — are deduplicated as `u32` ids and resolved back
//!    to label chains exactly once at the end.
//!
//! Exactness argument, step by step: (1) and (2) only ever *conclude
//! empty* when the reference provably emits empty; (3) walks the same
//! paths in the same order under the same caps, so the emitted chain
//! *set* is identical even when the caps bind; (4) is a pure
//! representation change — run → windows is deterministic, and the final
//! `BTreeSet` dedup is order-independent. The differential harness
//! (`tests/extract_differential.rs`) locks this in against tens of
//! thousands of random snapshot pairs.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use jitbull_mir::{MirSnapshot, PassTrace};

use crate::dna::{Chain, Dna, PassDelta};
use crate::index::ChainInterner;

use super::{
    build_graph, changed_edges, edge_counts, DepGraph, EdgeCounts, MAX_CHAINS, MAX_CHAIN_LEN,
};

/// Cycles charged per instruction for building and comparing a pass's
/// edge multisets (paid by every traced pass — the fast path's price).
pub const EDGE_DIFF_COST_PER_INSTR: u64 = 6;
/// Cycles charged per instruction of a snapshot whose chains were
/// actually enumerated (id-path DFS, no string materialisation).
pub const ENUM_COST_PER_INSTR: u64 = 24;
/// Cycles charged per id-path scanned for changed-edge runs.
pub const SCAN_COST_PER_CHAIN: u64 = 2;
/// Cycles charged per label when materialising and interning a
/// changed-edge run or one of its windows.
pub const RUN_INTERN_COST_PER_LABEL: u64 = 8;
/// Flat cycles charged when a run's window expansion is served from the
/// per-run-id cache.
pub const RUN_CACHE_HIT_COST: u64 = 2;

/// What one incremental extraction did (telemetry + simulated cost).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractReceipt {
    /// Whether the whole-function DNA came from the shared
    /// [`crate::extract::memo::DnaMemo`] (set by the guard, not here).
    pub memo_hit: bool,
    /// Traced passes whose chains were enumerated (≥1 side changed).
    pub passes_enumerated: u64,
    /// Traced passes proven empty by the edge-multiset fast path.
    pub passes_skipped: u64,
    /// Enumerated paths that crossed ≥1 changed edge (materialised).
    pub chains_enumerated: u64,
    /// Enumerated paths with no changed edge (integer scan only).
    pub chains_skipped: u64,
    /// Simulated cycles the extraction consumed.
    pub cost_cycles: u64,
}

/// Cumulative counters across an extractor's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Traces extracted.
    pub traces: u64,
    /// Passes whose chains were enumerated.
    pub passes_enumerated: u64,
    /// Passes proven empty without enumeration.
    pub passes_skipped: u64,
    /// Paths that crossed a changed edge.
    pub chains_enumerated: u64,
    /// Paths with no changed edge.
    pub chains_skipped: u64,
    /// Run window expansions served from the cache.
    pub run_cache_hits: u64,
    /// Snapshot enumerations reused from the previous record.
    pub enum_reuses: u64,
}

/// One enumerated snapshot: its graph labels plus the id paths the
/// reference DFS would have emitted, in emission order.
#[derive(Debug, Clone)]
struct EnumCache {
    snapshot: MirSnapshot,
    labels: HashMap<u32, Arc<str>>,
    paths: Vec<Vec<u32>>,
}

/// The incremental Δ-extractor. Interner and window caches persist
/// across passes, functions, and recompiles, so repeated changed regions
/// (the same GVN rewrite firing on every hot function, say) are
/// materialised once per process, not once per compilation.
#[derive(Debug, Clone, Default)]
pub struct IncrementalExtractor {
    interner: ChainInterner,
    /// run chain id → interned ids of all its contiguous windows (≥2).
    run_windows: HashMap<u32, Arc<Vec<u32>>>,
    /// Last enumerated snapshot, reused when the next record's
    /// counterpart compares structurally equal.
    enum_cache: Option<EnumCache>,
    stats: IncrementalStats,
}

impl IncrementalExtractor {
    /// An empty extractor.
    #[must_use]
    pub fn new() -> Self {
        IncrementalExtractor::default()
    }

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Incremental Algorithm 1 over a whole trace. Chain-for-chain equal
    /// to [`super::extract_dna`].
    pub fn extract_dna(&mut self, trace: &PassTrace, n_slots: usize) -> (Dna, ExtractReceipt) {
        self.stats.traces += 1;
        let mut dna = Dna::with_slots(n_slots);
        let mut receipt = ExtractReceipt::default();
        // Each snapshot is counted once and serves as `after` of one pass
        // and `before` of the next.
        let mut counts_before = edge_counts(&trace.initial);
        for (before, record) in trace.passes() {
            let counts_after = edge_counts(&record.after);
            if record.slot < n_slots {
                dna.deltas[record.slot] = self.delta_with_receipt(
                    [before, &record.after],
                    [&counts_before, &counts_after],
                    &mut receipt,
                );
            }
            counts_before = counts_after;
        }
        (dna, receipt)
    }

    /// Incremental Algorithm 1 for one pass. Chain-for-chain equal to
    /// [`super::extract_delta`].
    pub fn extract_delta(&mut self, before: &MirSnapshot, after: &MirSnapshot) -> PassDelta {
        let counts = [&edge_counts(before), &edge_counts(after)];
        self.delta_with_receipt([before, after], counts, &mut ExtractReceipt::default())
    }

    /// One pass's delta from its `(before, after)` snapshots and their
    /// edge multisets.
    fn delta_with_receipt(
        &mut self,
        [before, after]: [&MirSnapshot; 2],
        [counts_before, counts_after]: [&EdgeCounts; 2],
        receipt: &mut ExtractReceipt,
    ) -> PassDelta {
        let work = (before.len() + after.len()) as u64;
        receipt.cost_cycles += work * EDGE_DIFF_COST_PER_INSTR;
        if counts_before == counts_after {
            // No label-pair multiplicity moved in either direction, so
            // the reference's changed-edge sets are both empty and its
            // diff emits nothing — whatever the chains are.
            receipt.passes_skipped += 1;
            self.stats.passes_skipped += 1;
            return PassDelta::default();
        }
        receipt.passes_enumerated += 1;
        self.stats.passes_enumerated += 1;
        let removed_changed = changed_edges(counts_before, counts_after);
        let added_changed = changed_edges(counts_after, counts_before);
        PassDelta {
            removed: self.side(before, &removed_changed, receipt),
            added: self.side(after, &added_changed, receipt),
        }
    }

    /// One delta side: enumerate (or reuse) the snapshot's id paths, then
    /// collect interned windows of every maximal changed-edge run.
    fn side(
        &mut self,
        ir: &MirSnapshot,
        changed: &HashSet<(Arc<str>, Arc<str>)>,
        receipt: &mut ExtractReceipt,
    ) -> BTreeSet<Chain> {
        if changed.is_empty() {
            // An empty changed set can never start a run.
            return BTreeSet::new();
        }
        self.ensure_enumerated(ir, receipt);
        let cache = self.enum_cache.as_ref().expect("just enumerated");
        let unknown: Arc<str> = Arc::from("?");
        let label = |id: u32| {
            cache
                .labels
                .get(&id)
                .cloned()
                .unwrap_or_else(|| unknown.clone())
        };
        // Per-id-pair changed verdicts, memoised so each distinct edge
        // pays the label-pair hash once and every revisit is an integer
        // lookup.
        let mut pair_changed: HashMap<(u32, u32), bool> = HashMap::new();
        let mut out_ids: HashSet<u32> = HashSet::new();
        let mut run_lookups: Vec<(usize, usize)> = Vec::new();
        for path in &cache.paths {
            receipt.cost_cycles += SCAN_COST_PER_CHAIN;
            run_lookups.clear();
            let mut start: Option<usize> = None;
            for k in 0..path.len().saturating_sub(1) {
                let edge_changed = *pair_changed
                    .entry((path[k], path[k + 1]))
                    .or_insert_with(|| changed.contains(&(label(path[k]), label(path[k + 1]))));
                if edge_changed {
                    if start.is_none() {
                        start = Some(k);
                    }
                } else if let Some(s) = start.take() {
                    if k + 1 - s >= 2 {
                        run_lookups.push((s, k + 1));
                    }
                }
            }
            if let Some(s) = start {
                if path.len() - s >= 2 {
                    run_lookups.push((s, path.len()));
                }
            }
            if run_lookups.is_empty() {
                receipt.chains_skipped += 1;
                self.stats.chains_skipped += 1;
                continue;
            }
            receipt.chains_enumerated += 1;
            self.stats.chains_enumerated += 1;
            for &(s, e) in &run_lookups {
                let run: Chain = path[s..e].iter().map(|&id| label(id)).collect();
                receipt.cost_cycles += run.len() as u64 * RUN_INTERN_COST_PER_LABEL;
                let run_id = self.interner.intern(&run);
                let windows = match self.run_windows.get(&run_id) {
                    Some(w) => {
                        receipt.cost_cycles += RUN_CACHE_HIT_COST;
                        self.stats.run_cache_hits += 1;
                        Arc::clone(w)
                    }
                    None => {
                        let mut ids = Vec::new();
                        for len in 2..=run.len() {
                            for start in 0..=(run.len() - len) {
                                let window: Chain = run[start..start + len].to_vec();
                                receipt.cost_cycles +=
                                    window.len() as u64 * RUN_INTERN_COST_PER_LABEL;
                                ids.push(self.interner.intern(&window));
                            }
                        }
                        let ids = Arc::new(ids);
                        self.run_windows.insert(run_id, Arc::clone(&ids));
                        ids
                    }
                };
                out_ids.extend(windows.iter().copied());
            }
        }
        out_ids
            .into_iter()
            .map(|id| self.interner.resolve(id).expect("id just interned").clone())
            .collect()
    }

    /// Makes `enum_cache` hold `ir`'s id paths, reusing the previous
    /// enumeration when the snapshots compare equal (one pass's `after`
    /// is the next pass's `before`).
    fn ensure_enumerated(&mut self, ir: &MirSnapshot, receipt: &mut ExtractReceipt) {
        if let Some(cache) = &self.enum_cache {
            if cache.snapshot == *ir {
                self.stats.enum_reuses += 1;
                return;
            }
        }
        receipt.cost_cycles += ir.len() as u64 * ENUM_COST_PER_INSTR;
        let graph = build_graph(ir);
        let paths = enumerate_id_paths(&graph);
        self.enum_cache = Some(EnumCache {
            snapshot: ir.clone(),
            labels: graph.labels,
            paths,
        });
    }
}

/// The reference DFS ([`super::make_chains`]) emitting instruction-id
/// paths instead of label chains: same root order, same cycle guard,
/// same emission points, same caps — so the path *set* is identical to
/// the reference's chain set even when [`MAX_CHAINS`] binds.
fn enumerate_id_paths(g: &DepGraph) -> Vec<Vec<u32>> {
    let mut paths = Vec::new();
    for &root in &g.roots {
        let mut path: Vec<u32> = vec![root];
        dfs_ids(g, root, &mut path, &mut paths);
        if paths.len() >= MAX_CHAINS {
            break;
        }
    }
    paths
}

fn dfs_ids(g: &DepGraph, node: u32, path: &mut Vec<u32>, paths: &mut Vec<Vec<u32>>) {
    if paths.len() >= MAX_CHAINS {
        return;
    }
    let deps = g.deps.get(&node).map(Vec::as_slice).unwrap_or(&[]);
    let extendable: Vec<u32> = deps.iter().copied().filter(|d| !path.contains(d)).collect();
    if extendable.is_empty() || path.len() >= MAX_CHAIN_LEN {
        paths.push(path.clone());
        return;
    }
    for d in extendable {
        path.push(d);
        dfs_ids(g, d, path, paths);
        path.pop();
        if paths.len() >= MAX_CHAINS {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull_mir::{PassRecord, SnapInstr};

    fn instr(id: u32, label: &str, operands: &[u32]) -> SnapInstr {
        SnapInstr {
            id,
            label: Arc::from(label),
            operands: operands.to_vec(),
        }
    }

    fn snap(instrs: Vec<SnapInstr>) -> MirSnapshot {
        MirSnapshot { instrs }
    }

    fn guarded() -> MirSnapshot {
        snap(vec![
            instr(0, "parameter0", &[]),
            instr(1, "parameter1", &[]),
            instr(2, "initializedlength", &[0]),
            instr(3, "boundscheck", &[1, 2]),
            instr(4, "loadelement", &[0, 3]),
            instr(5, "return", &[4]),
        ])
    }

    fn unguarded() -> MirSnapshot {
        snap(vec![
            instr(0, "parameter0", &[]),
            instr(1, "parameter1", &[]),
            instr(4, "loadelement", &[0, 1]),
            instr(5, "return", &[4]),
        ])
    }

    #[test]
    fn agrees_with_reference_on_the_worked_example() {
        let before = snap(vec![
            instr(3, "d", &[]),
            instr(2, "c", &[3]),
            instr(1, "b", &[2]),
            instr(0, "a", &[1]),
        ]);
        let after = snap(vec![
            instr(4, "e", &[]),
            instr(2, "c", &[4]),
            instr(1, "b", &[2]),
        ]);
        let mut inc = IncrementalExtractor::new();
        assert_eq!(
            inc.extract_delta(&before, &after),
            super::super::extract_delta(&before, &after)
        );
    }

    #[test]
    fn fast_path_skips_unchanged_passes() {
        let s = guarded();
        let mut inc = IncrementalExtractor::new();
        let delta = inc.extract_delta(&s, &s);
        assert!(delta.is_empty());
        assert_eq!(inc.stats().passes_skipped, 1);
        assert_eq!(inc.stats().passes_enumerated, 0);
    }

    #[test]
    fn renumbering_takes_the_fast_path() {
        let before = snap(vec![
            instr(0, "parameter0", &[]),
            instr(1, "constant:number", &[]),
            instr(2, "add", &[0, 1]),
            instr(3, "return", &[2]),
        ]);
        let after = snap(vec![
            instr(10, "parameter0", &[]),
            instr(11, "constant:number", &[]),
            instr(12, "add", &[10, 11]),
            instr(13, "return", &[12]),
        ]);
        let mut inc = IncrementalExtractor::new();
        assert!(inc.extract_delta(&before, &after).is_empty());
        assert_eq!(inc.stats().passes_skipped, 1);
    }

    #[test]
    fn changed_pass_agrees_and_costs_less_than_reference() {
        let mut inc = IncrementalExtractor::new();
        let delta = inc.extract_delta(&guarded(), &unguarded());
        assert_eq!(delta, super::super::extract_delta(&guarded(), &unguarded()));
        assert!(!delta.is_empty());
        assert_eq!(inc.stats().passes_enumerated, 1);
    }

    #[test]
    fn run_window_cache_hits_on_repeat_deltas() {
        let mut inc = IncrementalExtractor::new();
        let first = inc.extract_delta(&guarded(), &unguarded());
        assert_eq!(inc.stats().run_cache_hits, 0);
        // Same structural change again: every run's windows are cached.
        let second = inc.extract_delta(&guarded(), &unguarded());
        assert_eq!(first, second);
        assert!(inc.stats().run_cache_hits > 0);
    }

    #[test]
    fn adjacent_records_reuse_the_enumeration() {
        let mid = unguarded();
        let end = snap(vec![instr(0, "parameter0", &[]), instr(5, "return", &[0])]);
        let trace = PassTrace {
            function: "f".into(),
            initial: guarded(),
            records: vec![
                PassRecord {
                    slot: 0,
                    name: "GVN",
                    after: mid,
                },
                PassRecord {
                    slot: 1,
                    name: "DCE",
                    after: end,
                },
            ],
        };
        let mut inc = IncrementalExtractor::new();
        let (dna, receipt) = inc.extract_dna(&trace, 4);
        assert_eq!(dna, super::super::extract_dna(&trace, 4));
        assert_eq!(receipt.passes_enumerated, 2);
        // Record 0's `after` enumeration serves record 1's `before`.
        assert!(inc.stats().enum_reuses >= 1, "{:?}", inc.stats());
    }

    #[test]
    fn trace_receipt_counts_fast_and_slow_passes() {
        let s = guarded();
        let trace = PassTrace {
            function: "f".into(),
            initial: s.clone(),
            records: vec![
                PassRecord {
                    slot: 0,
                    name: "Renumber",
                    after: s,
                },
                PassRecord {
                    slot: 2,
                    name: "GVN",
                    after: unguarded(),
                },
            ],
        };
        let mut inc = IncrementalExtractor::new();
        let (dna, receipt) = inc.extract_dna(&trace, 4);
        assert_eq!(dna, super::super::extract_dna(&trace, 4));
        assert_eq!(receipt.passes_skipped, 1);
        assert_eq!(receipt.passes_enumerated, 1);
        assert!(receipt.cost_cycles > 0);
        assert!(
            receipt.cost_cycles
                < super::super::trace_work(&trace) * crate::guard::EXTRACT_COST_PER_INSTR,
            "incremental must undercut the reference cost model"
        );
    }

    #[test]
    fn caps_agree_with_reference_on_pathological_graphs() {
        // The wide layered graph from the reference cap test, as the
        // `before` of a pass that removes one leaf edge — the chain cap
        // binds, and the emitted set must still match exactly.
        let mut instrs = Vec::new();
        for i in 0..6u32 {
            instrs.push(instr(i, "leaf", &[]));
        }
        let mut prev: Vec<u32> = (0..6).collect();
        let mut next_id = 6u32;
        for _ in 0..5 {
            let mut cur = Vec::new();
            for _ in 0..6 {
                instrs.push(instr(next_id, "mid", &prev.clone()));
                cur.push(next_id);
                next_id += 1;
            }
            prev = cur;
        }
        instrs.push(instr(next_id, "root", &prev));
        let before = snap(instrs.clone());
        // After: drop one leaf's edge by re-pointing a first-layer node.
        let mut after_instrs = instrs;
        after_instrs[6] = instr(6, "mid", &[1, 2, 3, 4, 5]);
        let after = snap(after_instrs);
        let mut inc = IncrementalExtractor::new();
        assert_eq!(
            inc.extract_delta(&before, &after),
            super::super::extract_delta(&before, &after)
        );
    }
}
