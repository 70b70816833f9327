//! The Δ extractor (paper §IV-D, Algorithm 1).
//!
//! For a pass `i` with IR snapshots `IR_{i-1}` and `IR_i`:
//!
//! 1. Build instruction dependency graphs `G_{i-1}`, `G_i`: every
//!    instruction with operands enters the graph; an instruction used as an
//!    operand is a *dependency* of its user; roots are instructions no one
//!    uses.
//! 2. Enumerate all root-to-leaf dependency chains.
//! 3. Diff: an edge of an old chain that no longer exists (by opcode-label
//!    pair) after the pass is *removed*; maximal runs of removed edges form
//!    the removed sub-chains `δ_i^-`. Added sub-chains `δ_i^+` are computed
//!    symmetrically.
//!
//! Edges are identified by their *(user-label, operand-label)* pair rather
//! than instruction ids, so pure renumbering passes produce empty deltas
//! and structurally identical exploit variants (renamed variables,
//! different literals) produce identical chains.
//!
//! Divergence from the paper, documented in DESIGN.md: chain enumeration
//! is capped ([`MAX_CHAINS`], [`MAX_CHAIN_LEN`]) because root-to-leaf path
//! counts can grow exponentially in pathological DAGs; the caps are far
//! above what the evaluation workloads produce.

pub mod incremental;
pub mod memo;

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use jitbull_mir::{MirSnapshot, PassTrace};

use crate::dna::{Chain, Dna, PassDelta};

/// Maximum number of chains enumerated per graph.
pub const MAX_CHAINS: usize = 4096;
/// Maximum chain length (nodes).
pub const MAX_CHAIN_LEN: usize = 48;

/// A dependency graph over one snapshot.
pub(crate) struct DepGraph {
    /// node id -> label
    pub(crate) labels: HashMap<u32, Arc<str>>,
    /// node id -> dependencies (operands)
    pub(crate) deps: HashMap<u32, Vec<u32>>,
    /// ids that are not a dependency of anyone
    pub(crate) roots: Vec<u32>,
}

pub(crate) fn build_graph(ir: &MirSnapshot) -> DepGraph {
    let mut labels: HashMap<u32, Arc<str>> = HashMap::new();
    let mut deps: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut is_dep: HashSet<u32> = HashSet::new();
    let mut in_graph: HashSet<u32> = HashSet::new();
    // Label every instruction up front so operand nodes resolve.
    for i in &ir.instrs {
        labels.insert(i.id, i.label.clone());
    }
    for v in &ir.instrs {
        if v.operands.is_empty() {
            continue;
        }
        in_graph.insert(v.id);
        let entry = deps.entry(v.id).or_default();
        for &o in &v.operands {
            entry.push(o);
            is_dep.insert(o);
            in_graph.insert(o);
        }
    }
    let mut roots: Vec<u32> = in_graph
        .iter()
        .copied()
        .filter(|id| !is_dep.contains(id))
        .collect();
    roots.sort_unstable();
    DepGraph {
        labels,
        deps,
        roots,
    }
}

/// Enumerates root-to-leaf chains as (label sequence) paths, capped.
fn make_chains(g: &DepGraph) -> Vec<Chain> {
    let mut chains = Vec::new();
    let unknown: Arc<str> = Arc::from("?");
    for &root in &g.roots {
        let mut path: Vec<u32> = vec![root];
        dfs(g, root, &mut path, &mut chains, &unknown);
        if chains.len() >= MAX_CHAINS {
            break;
        }
    }
    chains
}

fn dfs(g: &DepGraph, node: u32, path: &mut Vec<u32>, chains: &mut Vec<Chain>, unknown: &Arc<str>) {
    if chains.len() >= MAX_CHAINS {
        return;
    }
    let deps = g.deps.get(&node).map(Vec::as_slice).unwrap_or(&[]);
    // Leaf, cycle guard, or depth cap: emit the current path.
    let extendable: Vec<u32> = deps.iter().copied().filter(|d| !path.contains(d)).collect();
    if extendable.is_empty() || path.len() >= MAX_CHAIN_LEN {
        chains.push(
            path.iter()
                .map(|id| g.labels.get(id).cloned().unwrap_or_else(|| unknown.clone()))
                .collect(),
        );
        return;
    }
    for d in extendable {
        path.push(d);
        dfs(g, d, path, chains, unknown);
        path.pop();
        if chains.len() >= MAX_CHAINS {
            return;
        }
    }
}

/// Instruction-level label-pair edge multiset of a snapshot. Counting
/// multiplicities (rather than set membership) keeps a removal visible
/// even when an identically-labeled edge survives elsewhere in the
/// function — e.g. one of two `loadelement→boundscheck` accesses losing
/// its check.
pub(crate) fn edge_counts(ir: &MirSnapshot) -> HashMap<(Arc<str>, Arc<str>), usize> {
    let mut labels: HashMap<u32, Arc<str>> = HashMap::new();
    for i in &ir.instrs {
        labels.insert(i.id, i.label.clone());
    }
    let unknown: Arc<str> = Arc::from("?");
    let mut counts = HashMap::new();
    for i in &ir.instrs {
        for o in &i.operands {
            let from = i.label.clone();
            let to = labels.get(o).cloned().unwrap_or_else(|| unknown.clone());
            *counts.entry((from, to)).or_insert(0) += 1;
        }
    }
    counts
}

/// Edges whose multiplicity strictly dropped from `from` to `to`.
pub(crate) fn changed_edges(
    from: &HashMap<(Arc<str>, Arc<str>), usize>,
    to: &HashMap<(Arc<str>, Arc<str>), usize>,
) -> HashSet<(Arc<str>, Arc<str>)> {
    from.iter()
        .filter(|(k, n)| to.get(*k).copied().unwrap_or(0) < **n)
        .map(|(k, _)| k.clone())
        .collect()
}

/// Collects maximal runs of edges from `chains` that are *not* in
/// `other_edges`, as label sub-chains.
fn diff_subchains(
    chains: &[Chain],
    changed: &HashSet<(Arc<str>, Arc<str>)>,
) -> std::collections::BTreeSet<Chain> {
    let mut out = std::collections::BTreeSet::new();
    let mut emit = |run: &[Arc<str>]| {
        // Every contiguous window of the changed run is a sub-chain; the
        // maximal run itself is the longest of them. Counting all windows
        // gives the comparator the granularity the paper's Thr=3 assumes
        // on real-engine-sized IR.
        for len in 2..=run.len() {
            for start in 0..=(run.len() - len) {
                out.insert(run[start..start + len].to_vec());
            }
        }
    };
    for c in chains {
        let mut run: Vec<Arc<str>> = Vec::new();
        for w in c.windows(2) {
            let edge = (w[0].clone(), w[1].clone());
            if !changed.contains(&edge) {
                if run.len() >= 2 {
                    emit(&run);
                }
                run.clear();
            } else {
                if run.is_empty() {
                    run.push(w[0].clone());
                }
                run.push(w[1].clone());
            }
        }
        if run.len() >= 2 {
            emit(&run);
        }
    }
    out
}

/// Computes `Δ_i = (δ_i^-, δ_i^+)` for one pass from its before/after
/// snapshots (Algorithm 1).
///
/// # Examples
///
/// The paper's worked example — `A→B→C→D` becoming `B→C→E` — yields
/// `δ^- = {A→B, C→D}` and `δ^+ = {C→E}`; see this module's tests.
pub fn extract_delta(before: &MirSnapshot, after: &MirSnapshot) -> PassDelta {
    let g_before = build_graph(before);
    let g_after = build_graph(after);
    let chains_before = make_chains(&g_before);
    let chains_after = make_chains(&g_after);
    let counts_before = edge_counts(before);
    let counts_after = edge_counts(after);
    PassDelta {
        removed: diff_subchains(
            &chains_before,
            &changed_edges(&counts_before, &counts_after),
        ),
        added: diff_subchains(&chains_after, &changed_edges(&counts_after, &counts_before)),
    }
}

/// Extracts the full DNA vector `(Δ_1 … Δ_n)` from a compilation trace.
/// `n_slots` is the pipeline length; slots the trace does not cover stay
/// empty.
pub fn extract_dna(trace: &PassTrace, n_slots: usize) -> Dna {
    let mut dna = Dna::with_slots(n_slots);
    for record in &trace.records {
        if record.slot < n_slots {
            dna.deltas[record.slot] = extract_delta(&record.before, &record.after);
        }
    }
    dna
}

/// Rough work estimate for one trace (instructions touched), used by the
/// guard's cycle-cost accounting.
pub fn trace_work(trace: &PassTrace) -> u64 {
    trace
        .records
        .iter()
        .map(|r| (r.before.len() + r.after.len()) as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull_mir::SnapInstr;

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

    #[test]
    fn paper_worked_example() {
        // Chain A→B→C→D becomes B→C→E.
        // Encode as: ids 0..3 labeled a,b,c,d with a depending on b, etc.
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
        let delta = extract_delta(&before, &after);
        let removed: Vec<String> = delta.removed.iter().map(|c| c.join(">")).collect();
        let added: Vec<String> = delta.added.iter().map(|c| c.join(">")).collect();
        assert_eq!(removed, vec!["a>b", "c>d"]);
        assert_eq!(added, vec!["c>e"]);
    }

    #[test]
    fn renumbering_produces_empty_delta() {
        let before = snap(vec![
            instr(0, "parameter0", &[]),
            instr(1, "constant:number", &[]),
            instr(2, "add", &[0, 1]),
            instr(3, "return", &[2]),
        ]);
        // Same structure, different ids.
        let after = snap(vec![
            instr(10, "parameter0", &[]),
            instr(11, "constant:number", &[]),
            instr(12, "add", &[10, 11]),
            instr(13, "return", &[12]),
        ]);
        let delta = extract_delta(&before, &after);
        assert!(delta.is_empty(), "{delta:?}");
    }

    #[test]
    fn removing_a_guard_yields_removed_subchain() {
        // return(load(array, check(idx, len(array)))) and the check gets
        // removed, load now takes idx directly.
        let before = snap(vec![
            instr(0, "parameter0", &[]),
            instr(1, "parameter1", &[]),
            instr(2, "initializedlength", &[0]),
            instr(3, "boundscheck", &[1, 2]),
            instr(4, "loadelement", &[0, 3]),
            instr(5, "return", &[4]),
        ]);
        let after = snap(vec![
            instr(0, "parameter0", &[]),
            instr(1, "parameter1", &[]),
            instr(4, "loadelement", &[0, 1]),
            instr(5, "return", &[4]),
        ]);
        let delta = extract_delta(&before, &after);
        assert!(
            delta
                .removed
                .iter()
                .any(|c| c.iter().any(|l| &**l == "boundscheck")),
            "expected a removed sub-chain through boundscheck: {delta:?}"
        );
        assert!(
            delta
                .added
                .iter()
                .any(|c| c.iter().any(|l| &**l == "loadelement")),
            "loadelement gained a new direct edge: {delta:?}"
        );
    }

    #[test]
    fn identical_snapshots_empty_delta() {
        let s = snap(vec![
            instr(0, "parameter0", &[]),
            instr(1, "neg", &[0]),
            instr(2, "return", &[1]),
        ]);
        assert!(extract_delta(&s, &s).is_empty());
    }

    #[test]
    fn cycles_do_not_hang() {
        // Phi cycles: 1 depends on 2, 2 depends on 1.
        let s = snap(vec![
            instr(1, "phi", &[2]),
            instr(2, "add", &[1]),
            instr(3, "return", &[1]),
        ]);
        let g = build_graph(&s);
        let chains = make_chains(&g);
        assert!(!chains.is_empty());
        for c in &chains {
            assert!(c.len() <= MAX_CHAIN_LEN);
        }
    }

    #[test]
    fn chain_cap_is_respected() {
        // A wide layered graph that would explode combinatorially.
        let mut instrs = Vec::new();
        // Layer 0: 8 leaves.
        for i in 0..8u32 {
            instrs.push(instr(i, "leaf", &[]));
        }
        // 6 layers, each node depends on all nodes of the previous layer.
        let mut prev: Vec<u32> = (0..8).collect();
        let mut next_id = 8u32;
        for _ in 0..6 {
            let mut cur = Vec::new();
            for _ in 0..8 {
                instrs.push(instr(next_id, "mid", &prev.clone()));
                cur.push(next_id);
                next_id += 1;
            }
            prev = cur;
        }
        instrs.push(instr(next_id, "root", &prev));
        let g = build_graph(&snap(instrs));
        let chains = make_chains(&g);
        assert!(chains.len() <= MAX_CHAINS);
    }

    #[test]
    fn extract_dna_covers_slots() {
        use jitbull_mir::{PassRecord, PassTrace};
        let before = snap(vec![
            instr(0, "parameter0", &[]),
            instr(1, "neg", &[0]),
            instr(2, "return", &[1]),
        ]);
        let after = snap(vec![instr(0, "parameter0", &[]), instr(2, "return", &[0])]);
        let trace = PassTrace {
            function: "f".into(),
            literals: Vec::new(),
            records: vec![PassRecord {
                slot: 2,
                name: "DCE",
                before: before.clone(),
                after,
            }],
        };
        let dna = extract_dna(&trace, 5);
        assert_eq!(dna.len(), 5);
        assert!(!dna.deltas[2].is_empty());
        assert!(dna.deltas[0].is_empty());
        assert!(trace_work(&trace) > 0);
    }
}
