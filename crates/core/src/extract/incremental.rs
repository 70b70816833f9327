//! The incremental Δ-extractor: the fast production path for
//! Algorithm 1, mirroring what [`crate::index`] did for Algorithm 2.
//!
//! [`super::extract_delta`] (the normative reference) enumerates every
//! root-to-leaf chain of *both* snapshots of *every* pass and then
//! materialises, windows, and deduplicates label sub-chains through a
//! `BTreeSet<Chain>` — even for the many passes that changed nothing.
//! This module computes the same deltas, chain for chain, and never
//! reads a label name: snapshots, edges, paths and chains are all
//! [`Label`]s.
//!
//! 1. **Unchanged-snapshot skip**: a pass whose `after` snapshot equals
//!    its `before` has an empty delta, so nothing is counted. Most
//!    pipeline slots leave the IR exactly as they found it.
//! 2. **Edge-multiset fast path**: otherwise a pass's label-pair edge
//!    multisets — sorted `(Label, Label)` vectors — are compared before
//!    anything else. Each snapshot of a trace is counted at most once: a
//!    record's `after` edges are the next record's `before` edges,
//!    because that is the same snapshot. Equal multisets mean both
//!    directed changed-edge sets are empty, which means the reference's
//!    `diff_subchains` emits nothing regardless of what the chains look
//!    like — so the delta is empty and chain enumeration is skipped.
//! 3. **One-sided skip**: removed and added sub-chains depend on
//!    *directed* multiplicity drops. A side whose changed-edge set is
//!    empty contributes nothing, so its snapshot is never enumerated.
//! 4. **Dense-graph enumeration with cached reuse**: when a side must be
//!    enumerated, the snapshot becomes a graph over dense node positions
//!    (ids sorted, operands resolved by binary search), and the DFS
//!    visits nodes in exactly the reference order with the same
//!    [`super::MAX_CHAINS`] / [`super::MAX_CHAIN_LEN`] caps, recording
//!    position paths. A record's `after` snapshot is the next record's
//!    `before`, so the last enumeration is kept and reused when the
//!    snapshots compare equal (full structural equality — reuse can
//!    never be wrong, and it also serves an equal snapshot of a later
//!    trace).
//! 5. **Interned runs and memoised windows**: changed-edge runs along a
//!    path are interned in a [`ChainInterner`] and expanded into their
//!    contiguous windows via a per-run-id table. Duplicate sub-chains —
//!    the overwhelmingly common case, since every window of every chain
//!    through a changed region repeats — are deduplicated as a sorted id
//!    vector, and each distinct id's interned [`Chain`] is handed out
//!    once.
//!
//! Exactness argument, step by step: (1), (2) and (3) only ever
//! *conclude empty* when the reference provably emits empty; (4) walks
//! the same paths in the same order under the same caps, so the emitted
//! chain *set* is identical even when the caps bind; (5) is a pure
//! representation change — interning is injective, run → windows is
//! deterministic, and the final `BTreeSet` dedup is order-independent.
//! The differential harness (`tests/extract_differential.rs`) locks this
//! in against tens of thousands of random snapshot pairs and real
//! pipeline traces.

use std::collections::BTreeSet;

use jitbull_mir::{Label, MirSnapshot, PassTrace, N_SLOTS};

use crate::dna::{Chain, Dna, PassDelta};
use crate::index::ChainInterner;

use super::{MAX_CHAINS, MAX_CHAIN_LEN};

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
    /// Traced passes proven empty without enumeration: an unchanged
    /// snapshot or an unchanged edge multiset.
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

/// A snapshot's label-pair edge multiset, sorted. Counting
/// multiplicities (rather than set membership) keeps a removal visible
/// even when an identically-labeled edge survives elsewhere in the
/// function.
type Edges = Vec<(Label, Label)>;

/// `ir`'s instruction ids, ascending, with each id's label (the last
/// instruction carrying an id wins, as in the reference's maps).
fn labels_by_id(ir: &MirSnapshot) -> Vec<(u32, Label)> {
    let mut by_id: Vec<(u32, Label)> = ir.instrs.iter().map(|i| (i.id, i.label)).collect();
    // Stable, so equal ids keep snapshot order and the last one is kept.
    by_id.sort_by_key(|&(id, _)| id);
    by_id.dedup_by(|later, earlier| {
        let same = later.0 == earlier.0;
        if same {
            earlier.1 = later.1;
        }
        same
    });
    by_id
}

/// The label of operand `id`: its instruction's, or [`Label::UNKNOWN`]
/// when no instruction defines it.
fn label_of(by_id: &[(u32, Label)], id: u32) -> Label {
    by_id
        .binary_search_by_key(&id, |&(i, _)| i)
        .map_or(Label::UNKNOWN, |k| by_id[k].1)
}

/// `ir`'s [`Edges`]: one `(user, operand)` label pair per operand.
fn edges(ir: &MirSnapshot) -> Edges {
    let by_id = labels_by_id(ir);
    let mut edges: Edges = ir
        .instrs
        .iter()
        .flat_map(|i| i.operands.iter().map(|&o| (i.label, label_of(&by_id, o))))
        .collect();
    edges.sort_unstable();
    edges
}

/// The distinct edges whose multiplicity strictly dropped, each way:
/// `(from → to drops, to → from drops)`, both sorted.
fn changed_edges(from: &[(Label, Label)], to: &[(Label, Label)]) -> (Edges, Edges) {
    let (mut dropped, mut grew) = (Vec::new(), Vec::new());
    let (mut a, mut b) = (0, 0);
    while a < from.len() || b < to.len() {
        let edge = match (from.get(a), to.get(b)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => unreachable!("loop condition"),
        };
        let n_from = from[a..].iter().take_while(|&&e| e == edge).count();
        let n_to = to[b..].iter().take_while(|&&e| e == edge).count();
        if n_from > n_to {
            dropped.push(edge);
        } else if n_to > n_from {
            grew.push(edge);
        }
        a += n_from;
        b += n_to;
    }
    (dropped, grew)
}

/// A snapshot's dependency graph over dense node positions: every
/// instruction id and every operand id, ascending, so position order is
/// id order.
struct Graph {
    labels: Vec<Label>,
    /// Each node's operands.
    deps: Vec<Vec<u32>>,
    /// Graph nodes no one depends on, ascending.
    roots: Vec<u32>,
}

impl Graph {
    /// The reference's `build_graph`, densely: an instruction with
    /// operands and each of its operands enter the graph, operands of
    /// instructions sharing an id concatenate in snapshot order.
    fn build(ir: &MirSnapshot) -> Graph {
        let mut ids = Vec::with_capacity(2 * ir.len());
        for i in &ir.instrs {
            ids.push(i.id);
            ids.extend_from_slice(&i.operands);
        }
        ids.sort_unstable();
        ids.dedup();
        let pos = |id: u32| ids.binary_search(&id).expect("every id is a node");
        let n = ids.len();
        let mut labels = vec![Label::UNKNOWN; n];
        let mut deps = vec![Vec::new(); n];
        let mut in_graph = vec![false; n];
        let mut is_dep = vec![false; n];
        for i in &ir.instrs {
            let at = pos(i.id);
            labels[at] = i.label;
            in_graph[at] |= !i.operands.is_empty();
            for &o in &i.operands {
                let d = pos(o);
                deps[at].push(d as u32);
                in_graph[d] = true;
                is_dep[d] = true;
            }
        }
        let roots = (0..n)
            .filter(|&k| in_graph[k] && !is_dep[k])
            .map(|k| k as u32)
            .collect();
        Graph {
            labels,
            deps,
            roots,
        }
    }
}

/// The reference DFS (`make_chains`) emitting position paths instead of
/// label chains: same root order, same cycle guard, same emission
/// points, same caps — so the path *set* is identical to the
/// reference's chain set even when [`MAX_CHAINS`] binds.
fn enumerate_paths(g: &Graph) -> Vec<Vec<u32>> {
    let mut paths = Vec::new();
    let mut on_path = vec![false; g.labels.len()];
    for &root in &g.roots {
        let mut path = vec![root];
        on_path[root as usize] = true;
        dfs(g, &mut path, &mut on_path, &mut paths);
        on_path[root as usize] = false;
        if paths.len() >= MAX_CHAINS {
            break;
        }
    }
    paths
}

fn dfs(g: &Graph, path: &mut Vec<u32>, on_path: &mut [bool], paths: &mut Vec<Vec<u32>>) {
    if paths.len() >= MAX_CHAINS {
        return;
    }
    let deps = &g.deps[*path.last().expect("path starts at a root") as usize];
    // Leaf, cycle guard, or depth cap: emit the current path.
    if path.len() >= MAX_CHAIN_LEN || deps.iter().all(|&d| on_path[d as usize]) {
        paths.push(path.clone());
        return;
    }
    for &d in deps {
        // The path is the same at every iteration, so this is the
        // reference's up-front "extendable" filter.
        if on_path[d as usize] {
            continue;
        }
        path.push(d);
        on_path[d as usize] = true;
        dfs(g, path, on_path, paths);
        on_path[d as usize] = false;
        path.pop();
        if paths.len() >= MAX_CHAINS {
            return;
        }
    }
}

/// One enumerated snapshot: its node labels plus the position paths the
/// reference DFS would have emitted, in emission order.
#[derive(Debug, Clone)]
struct EnumCache {
    snapshot: MirSnapshot,
    labels: Vec<Label>,
    paths: Vec<Vec<u32>>,
}

/// The incremental Δ-extractor. Interner and window table persist
/// across passes, functions, and recompiles, so repeated changed regions
/// (the same GVN rewrite firing on every hot function, say) are
/// materialised once per process, not once per compilation.
#[derive(Debug, Clone, Default)]
pub struct IncrementalExtractor {
    /// Every run and window seen, by id.
    interner: ChainInterner,
    /// Run id → ids of all its contiguous windows (≥2), once expanded.
    windows: Vec<Option<Box<[u32]>>>,
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
    pub fn extract_dna(&mut self, trace: &PassTrace) -> (Dna, ExtractReceipt) {
        self.stats.traces += 1;
        let mut dna = Dna::default();
        let mut receipt = ExtractReceipt::default();
        // The current `before`'s edges, counted on first need: each
        // record's `after` is the next record's `before`.
        let mut before_edges: Option<Edges> = None;
        for (before, record) in trace.passes() {
            let after = &record.after;
            let in_range = record.slot < N_SLOTS;
            if after == before {
                // Equal snapshots have equal edges: the delta is empty,
                // and `before_edges` still describes the next `before`.
                if in_range {
                    self.skip(before, after, &mut receipt);
                    dna.deltas[record.slot] = PassDelta::default();
                }
                continue;
            }
            if !in_range {
                before_edges = None;
                continue;
            }
            let from = before_edges.take().unwrap_or_else(|| edges(before));
            let to = edges(after);
            dna.deltas[record.slot] = self.delta([before, after], [&from, &to], &mut receipt);
            before_edges = Some(to);
        }
        (dna, receipt)
    }

    /// Incremental Algorithm 1 for one pass. Chain-for-chain equal to
    /// [`super::extract_delta`].
    pub fn extract_delta(&mut self, before: &MirSnapshot, after: &MirSnapshot) -> PassDelta {
        let edges = [&edges(before), &edges(after)];
        self.delta([before, after], edges, &mut ExtractReceipt::default())
    }

    /// Accounts a pass proven empty without enumeration.
    fn skip(&mut self, before: &MirSnapshot, after: &MirSnapshot, receipt: &mut ExtractReceipt) {
        receipt.cost_cycles += (before.len() + after.len()) as u64 * EDGE_DIFF_COST_PER_INSTR;
        receipt.passes_skipped += 1;
        self.stats.passes_skipped += 1;
    }

    /// One pass's delta from its `(before, after)` snapshots and their
    /// edge multisets.
    fn delta(
        &mut self,
        [before, after]: [&MirSnapshot; 2],
        [from, to]: [&Edges; 2],
        receipt: &mut ExtractReceipt,
    ) -> PassDelta {
        if from == to {
            // No label-pair multiplicity moved in either direction, so
            // the reference's changed-edge sets are both empty and its
            // diff emits nothing — whatever the chains are.
            self.skip(before, after, receipt);
            return PassDelta::default();
        }
        receipt.cost_cycles += (before.len() + after.len()) as u64 * EDGE_DIFF_COST_PER_INSTR;
        receipt.passes_enumerated += 1;
        self.stats.passes_enumerated += 1;
        let (removed, added) = changed_edges(from, to);
        PassDelta {
            removed: self.side(before, &removed, receipt),
            added: self.side(after, &added, receipt),
        }
    }

    /// One delta side: enumerate (or reuse) the snapshot's paths, then
    /// collect interned windows of every maximal changed-edge run.
    fn side(
        &mut self,
        ir: &MirSnapshot,
        changed: &[(Label, Label)],
        receipt: &mut ExtractReceipt,
    ) -> BTreeSet<Chain> {
        if changed.is_empty() {
            // An empty changed set can never start a run.
            return BTreeSet::new();
        }
        self.ensure_enumerated(ir, receipt);
        let cache = self.enum_cache.as_ref().expect("just enumerated");
        let labels = &cache.labels;
        // Whether a changed edge leaves each node: most path edges fail
        // this flag test and never reach the pair search.
        let starts: Vec<bool> = labels
            .iter()
            .map(|&l| changed.binary_search_by(|e| e.0.cmp(&l)).is_ok())
            .collect();
        let is_changed = |a: u32, b: u32| {
            starts[a as usize]
                && changed
                    .binary_search(&(labels[a as usize], labels[b as usize]))
                    .is_ok()
        };
        let mut out_ids: Vec<u32> = Vec::new();
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut run: Vec<Label> = Vec::new();
        for path in &cache.paths {
            receipt.cost_cycles += SCAN_COST_PER_CHAIN;
            runs.clear();
            let mut start: Option<usize> = None;
            for k in 0..path.len().saturating_sub(1) {
                if is_changed(path[k], path[k + 1]) {
                    start.get_or_insert(k);
                } else if let Some(s) = start.take() {
                    runs.push((s, k + 1));
                }
            }
            if let Some(s) = start {
                runs.push((s, path.len()));
            }
            if runs.is_empty() {
                receipt.chains_skipped += 1;
                self.stats.chains_skipped += 1;
                continue;
            }
            receipt.chains_enumerated += 1;
            self.stats.chains_enumerated += 1;
            for &(s, e) in &runs {
                run.clear();
                run.extend(path[s..e].iter().map(|&n| labels[n as usize]));
                receipt.cost_cycles += run.len() as u64 * RUN_INTERN_COST_PER_LABEL;
                let run_id = self.interner.intern(&run) as usize;
                self.windows.resize(self.interner.len(), None);
                if let Some(windows) = &self.windows[run_id] {
                    receipt.cost_cycles += RUN_CACHE_HIT_COST;
                    self.stats.run_cache_hits += 1;
                    out_ids.extend_from_slice(windows);
                    continue;
                }
                let mut windows = Vec::new();
                for len in 2..=run.len() {
                    for window in run.windows(len) {
                        receipt.cost_cycles += len as u64 * RUN_INTERN_COST_PER_LABEL;
                        windows.push(self.interner.intern(window));
                    }
                }
                out_ids.extend_from_slice(&windows);
                self.windows[run_id] = Some(windows.into_boxed_slice());
            }
        }
        out_ids.sort_unstable();
        out_ids.dedup();
        out_ids
            .into_iter()
            .map(|id| self.interner.resolve(id).expect("interned").clone())
            .collect()
    }

    /// Makes `enum_cache` hold `ir`'s paths, reusing the previous
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
        let graph = Graph::build(ir);
        let paths = enumerate_paths(&graph);
        self.enum_cache = Some(EnumCache {
            snapshot: ir.clone(),
            labels: graph.labels,
            paths,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull_mir::{PassRecord, SnapInstr};

    fn instr(id: u32, label: &str, operands: &[u32]) -> SnapInstr {
        SnapInstr {
            id,
            label: Label::from_name(label).expect("a mnemonic"),
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
            instr(3, "div", &[]),
            instr(2, "call", &[3]),
            instr(1, "bitor", &[2]),
            instr(0, "add", &[1]),
        ]);
        let after = snap(vec![
            instr(4, "mul", &[]),
            instr(2, "call", &[4]),
            instr(1, "bitor", &[2]),
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
        let (dna, receipt) = inc.extract_dna(&trace);
        assert_eq!(dna, super::super::extract_dna(&trace));
        assert_eq!(receipt.passes_enumerated, 2);
        // Record 0's `after` enumeration serves record 1's `before`.
        assert!(inc.stats().enum_reuses >= 1, "{:?}", inc.stats());
    }

    #[test]
    fn out_of_range_record_resets_the_carried_edges() {
        // The record at slot `N_SLOTS` is skipped but still changes the
        // IR, so the next record's `before` edges must be counted afresh.
        let end = snap(vec![instr(0, "parameter0", &[]), instr(5, "return", &[0])]);
        let record = |slot, after| PassRecord {
            slot,
            name: "GVN",
            after,
        };
        let trace = PassTrace {
            function: "f".into(),
            initial: guarded(),
            records: vec![
                record(0, unguarded()),
                record(N_SLOTS, end),
                record(1, guarded()),
            ],
        };
        let (dna, _) = IncrementalExtractor::new().extract_dna(&trace);
        assert_eq!(dna, super::super::extract_dna(&trace));
        assert!(!dna.deltas[0].is_empty() && !dna.deltas[1].is_empty());
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
        let (dna, receipt) = inc.extract_dna(&trace);
        assert_eq!(dna, super::super::extract_dna(&trace));
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
            instrs.push(instr(i, "constant:number", &[]));
        }
        let mut prev: Vec<u32> = (0..6).collect();
        let mut next_id = 6u32;
        for _ in 0..5 {
            let mut cur = Vec::new();
            for _ in 0..6 {
                instrs.push(instr(next_id, "add", &prev.clone()));
                cur.push(next_id);
                next_id += 1;
            }
            prev = cur;
        }
        instrs.push(instr(next_id, "return", &prev));
        let before = snap(instrs.clone());
        // After: drop one leaf's edge by re-pointing a first-layer node.
        let mut after_instrs = instrs;
        after_instrs[6] = instr(6, "add", &[1, 2, 3, 4, 5]);
        let after = snap(after_instrs);
        let mut inc = IncrementalExtractor::new();
        assert_eq!(
            inc.extract_delta(&before, &after),
            super::super::extract_delta(&before, &after)
        );
    }
}
