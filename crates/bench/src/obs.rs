//! `repro -- obs`: the observability report. Runs the workload suite with
//! a telemetry [`Recorder`] attached and renders what the engine, the
//! pipeline, and the JITBULL guard reported about themselves — compiles,
//! tier promotions, guard verdicts, and cycles by pipeline slot.

use std::cell::RefCell;
use std::rc::Rc;

use jitbull::DnaDatabase;
use jitbull_jit::engine::EngineConfig;
use jitbull_telemetry::{Recorder, SlotStat};
use jitbull_workloads::{run_workload, run_workload_observed, Workload};

use crate::figures::{db_with, run_tuned};

/// Per-workload telemetry summary: one row of the `obs` report.
#[derive(Debug)]
pub struct ObsRow {
    /// Workload name.
    pub name: &'static str,
    /// Optimizing-tier compilations (including recompile rounds).
    pub compiles: u64,
    /// Functions promoted to baseline.
    pub promoted_baseline: u64,
    /// Compilations promoted to the optimizing tier.
    pub promoted_ion: u64,
    /// Guard analyses performed.
    pub analyses: u64,
    /// Go verdicts.
    pub go: u64,
    /// Recompile-without-passes verdicts.
    pub recompile: u64,
    /// No-JIT verdicts.
    pub nojit: u64,
    /// Simulated cycles spent in the optimization pipeline.
    pub pipeline_cycles: u64,
    /// Simulated cycles spent in guard analysis.
    pub guard_cycles: u64,
    /// Indexed comparisons run.
    pub comparator_queries: u64,
    /// Comparisons answered from the compile cache's verdicts.
    pub comparator_cache_hits: u64,
    /// Delta-side comparisons skipped by the fingerprint prefilter.
    pub comparator_prefilter_rejects: u64,
    /// Interned-id set merges actually performed.
    pub comparator_set_merges: u64,
    /// Incremental-extractor queries served.
    pub extract_queries: u64,
    /// Extractions answered straight from the shared compile cache.
    pub extract_memo_hits: u64,
    /// Passes whose changed subgraphs were actually enumerated.
    pub extract_passes_enumerated: u64,
    /// Passes proven empty without enumeration (unchanged snapshot or
    /// unchanged edge multiset).
    pub extract_passes_skipped: u64,
    /// Chains walked through changed subgraphs.
    pub extract_chains_enumerated: u64,
    /// Chains skipped because no changed edge touched them.
    pub extract_chains_skipped: u64,
    /// Operations the workload executed across all tiers.
    pub ops: u64,
}

/// Runs each workload under JITBULL with the first `n_vdcs` database
/// entries installed (and the matching vulnerable engine), a fresh
/// recorder per workload. Returns the per-workload rows plus the
/// slot-cycle attribution aggregated across the whole suite.
pub fn observe_workloads(workloads: &[Workload], n_vdcs: usize) -> (Vec<ObsRow>, Vec<SlotStat>) {
    let (db, vulns) = db_with(n_vdcs);
    let mut rows = Vec::new();
    let mut slots: Vec<SlotStat> = Vec::new();
    for w in workloads {
        let rec = Rc::new(RefCell::new(Recorder::new()));
        let m = run_workload_observed(
            w,
            EngineConfig {
                vulns: vulns.clone(),
                ..Default::default()
            },
            Some(db.clone()),
            rec.clone(),
        )
        .expect("workload runs");
        let rec = rec.borrow();
        let met = rec.metrics();
        rows.push(ObsRow {
            name: w.name,
            compiles: met.counter("engine.compile.ion"),
            promoted_baseline: met.counter("engine.promoted.baseline"),
            promoted_ion: met.counter("engine.promoted.ion"),
            analyses: met.counter("guard.analyses"),
            go: met.counter("policy.go"),
            recompile: met.counter("policy.recompile"),
            nojit: met.counter("policy.nojit"),
            pipeline_cycles: met.counter("pipeline.cycles"),
            guard_cycles: met.counter("guard.cycles"),
            comparator_queries: met.counter("comparator.queries"),
            comparator_cache_hits: met.counter("comparator.cache_hits"),
            comparator_prefilter_rejects: met.counter("comparator.prefilter_rejects"),
            comparator_set_merges: met.counter("comparator.set_merges"),
            extract_queries: met.counter("extract.queries"),
            extract_memo_hits: met.counter("extract.memo_hits"),
            extract_passes_enumerated: met.counter("extract.passes_enumerated"),
            extract_passes_skipped: met.counter("extract.passes_skipped"),
            extract_chains_enumerated: met.counter("extract.chains_enumerated"),
            extract_chains_skipped: met.counter("extract.chains_skipped"),
            ops: m.ops,
        });
        for (i, s) in rec.slot_stats().iter().enumerate() {
            if slots.len() <= i {
                slots.resize(i + 1, SlotStat::default());
            }
            let agg = &mut slots[i];
            if s.applications > 0 {
                agg.name = s.name;
            }
            agg.applications += s.applications;
            agg.cycles += s.cycles;
            agg.instrs_removed += s.instrs_removed;
            agg.instrs_added += s.instrs_added;
        }
    }
    (rows, slots)
}

/// Cycle counts for `w` on a plain JIT engine (no guard, no collector)
/// versus a JITBULL engine with an *empty* database and a recorder
/// attached. The two must match exactly: with no VDCs installed the
/// engine takes no snapshots and telemetry never touches the simulated
/// cycle model.
pub fn empty_db_overhead(w: &Workload) -> (u64, u64) {
    let plain = run_workload(w, EngineConfig::default(), None)
        .expect("plain run")
        .cycles;
    let rec = Rc::new(RefCell::new(Recorder::new()));
    let observed = run_workload_observed(
        w,
        EngineConfig::default(),
        Some(DnaDatabase::new()),
        rec.clone(),
    )
    .expect("observed run")
    .cycles;
    (plain, observed)
}

/// Per-workload naive-vs-indexed comparator cost: simulated analysis
/// cycles for the same run under each [`jitbull::ComparatorMode`].
pub fn comparator_cycles(w: &Workload, n_vdcs: usize) -> (u64, u64) {
    let (db, vulns) = db_with(n_vdcs);
    let run = |mode: jitbull::ComparatorMode| {
        run_tuned(w, &db, &vulns, |g| g.set_comparator_mode(mode)).analysis_cycles
    };
    (
        run(jitbull::ComparatorMode::Reference),
        run(jitbull::ComparatorMode::Indexed),
    )
}

/// Per-workload naive-vs-incremental extractor cost: simulated analysis
/// cycles for the same run under each [`jitbull::ExtractorMode`] (fresh
/// memo per run, so this measures the first-compile structural-diff win,
/// not memo hits).
pub fn extractor_cycles(w: &Workload, n_vdcs: usize) -> (u64, u64) {
    let (db, vulns) = db_with(n_vdcs);
    let run = |mode: jitbull::ExtractorMode| {
        run_tuned(w, &db, &vulns, |g| g.set_extractor_mode(mode)).analysis_cycles
    };
    (
        run(jitbull::ExtractorMode::Reference),
        run(jitbull::ExtractorMode::Incremental),
    )
}

/// Renders the per-workload summary table.
pub fn render_rows(rows: &[ObsRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.compiles.to_string(),
                r.promoted_baseline.to_string(),
                r.promoted_ion.to_string(),
                r.analyses.to_string(),
                format!("{}/{}/{}", r.go, r.recompile, r.nojit),
                r.pipeline_cycles.to_string(),
                r.guard_cycles.to_string(),
                format!("{}/{}", r.comparator_cache_hits, r.comparator_queries),
                r.comparator_prefilter_rejects.to_string(),
                r.comparator_set_merges.to_string(),
                format!("{}/{}", r.extract_memo_hits, r.extract_queries),
                format!(
                    "{}/{}",
                    r.extract_passes_skipped,
                    r.extract_passes_enumerated + r.extract_passes_skipped
                ),
                format!(
                    "{}/{}",
                    r.extract_chains_skipped,
                    r.extract_chains_enumerated + r.extract_chains_skipped
                ),
                r.ops.to_string(),
            ]
        })
        .collect();
    crate::render_table(
        &[
            "benchmark",
            "compiles",
            "baseline",
            "ion",
            "analyses",
            "go/rec/nojit",
            "pipeline cyc",
            "guard cyc",
            "cmp hit/q",
            "prefilt",
            "merges",
            "memo hit/q",
            "pass skip",
            "chain skip",
            "ops",
        ],
        &table,
    )
}

/// Renders the aggregated slot-cycle attribution table, busiest slots
/// first.
pub fn render_slots(slots: &[SlotStat]) -> String {
    let mut order: Vec<usize> = (0..slots.len())
        .filter(|&i| slots[i].applications > 0)
        .collect();
    order.sort_by_key(|&i| std::cmp::Reverse(slots[i].cycles));
    let total: u64 = slots.iter().map(|s| s.cycles).sum();
    let table: Vec<Vec<String>> = order
        .iter()
        .map(|&i| {
            let s = &slots[i];
            vec![
                i.to_string(),
                s.name.to_string(),
                s.applications.to_string(),
                s.cycles.to_string(),
                format!("{:.1}%", s.cycles as f64 * 100.0 / total.max(1) as f64),
                s.instrs_removed.to_string(),
                s.instrs_added.to_string(),
            ]
        })
        .collect();
    crate::render_table(
        &[
            "slot", "pass", "runs", "cycles", "share", "removed", "added",
        ],
        &table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull_workloads::microbenches;

    #[test]
    fn observed_microbenches_report_nonzero_activity() {
        let benches = microbenches();
        let (rows, slots) = observe_workloads(&benches, 4);
        assert_eq!(rows.len(), benches.len());
        for r in &rows {
            assert!(r.compiles > 0, "{}: no compiles", r.name);
            assert!(r.promoted_ion > 0, "{}: nothing promoted", r.name);
            // One verdict per analysis, one analysis per compile round.
            assert_eq!(r.analyses, r.compiles, "{}", r.name);
            assert_eq!(r.go + r.recompile + r.nojit, r.analyses, "{}", r.name);
            // The indexed comparator (the default) serves every analysis.
            assert_eq!(r.comparator_queries, r.analyses, "{}", r.name);
            assert!(r.comparator_cache_hits <= r.comparator_queries);
            // The incremental extractor (the default) serves every analysis.
            assert_eq!(r.extract_queries, r.analyses, "{}", r.name);
            assert!(r.extract_memo_hits <= r.extract_queries);
            assert!(r.pipeline_cycles > 0 && r.guard_cycles > 0 && r.ops > 0);
        }
        assert!(slots.iter().any(|s| s.cycles > 0));
    }

    #[test]
    fn empty_db_observation_is_cycle_neutral() {
        let benches = microbenches();
        let (plain, observed) = empty_db_overhead(&benches[0]);
        assert_eq!(plain, observed);
    }
}
