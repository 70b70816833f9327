//! Figure-5/6 reproduction bounds: JITBULL's overhead properties.

use jitbull::ComparatorMode;
use jitbull_bench::figures::{db_with, fig5, fig6, fig6_comparator, run_tuned};
use jitbull_workloads::octane_analogues;

#[test]
fn fig5_overhead_shapes_match_paper() {
    let rows = fig5();
    for r in &rows {
        // Paper §VI-C: an empty DB costs nothing.
        assert_eq!(
            r.jitbull_0, r.jit,
            "{}: empty-DB JITBULL must be free",
            r.name
        );
        // JITBULL's overhead (1-20 % in the paper; we allow a bit of
        // headroom) is far below disabling the JIT.
        let o1 = r.overhead_pct(r.jitbull_1);
        let o4 = r.overhead_pct(r.jitbull_4);
        assert!(
            (0.0..30.0).contains(&o1),
            "{}: #1 overhead {o1:.1}%",
            r.name
        );
        assert!(
            (-5.0..35.0).contains(&o4),
            "{}: #4 overhead {o4:.1}%",
            r.name
        );
        let nojit = r.overhead_pct(r.nojit);
        assert!(
            nojit > 45.0,
            "{}: NoJIT should be drastically slower, got {nojit:.1}%",
            r.name
        );
        assert!(
            nojit > 3.0 * o4.max(1.0),
            "{}: JITBULL ({o4:.1}%) must beat NoJIT ({nojit:.1}%) clearly",
            r.name
        );
    }
}

#[test]
fn fig6_overhead_flattens_with_db_size() {
    // Run the scalability sweep on a subset to keep the test fast.
    let workloads: Vec<_> = octane_analogues()
        .into_iter()
        .filter(|w| matches!(w.name, "Splay" | "Richards" | "Crypto"))
        .collect();
    let rows = fig6(&workloads);
    for r in &rows {
        let o1 = r.overhead_pct(1);
        let o8 = r.overhead_pct(8);
        // Paper: max 22 %, growth flattens beyond #4.
        assert!(o8 < 35.0, "{}: #8 overhead {o8:.1}%", r.name);
        assert!(
            o8 >= o1 - 6.0,
            "{}: overhead collapsed unexpectedly",
            r.name
        );
        let o4 = r.overhead_pct(4);
        let tail_growth = o8 - o4;
        assert!(
            tail_growth.abs() < 10.0,
            "{}: overhead did not stabilize beyond #4 ({tail_growth:.1}%)",
            r.name
        );
    }
}

#[test]
fn db_construction_is_deterministic() {
    let (a, _) = db_with(4);
    let (b, _) = db_with(4);
    assert_eq!(a, b);
}

/// The indexed comparator must beat the naive reference loop once the
/// database is non-trivial (acceptance: DB >= 8 entries), while producing
/// the exact same verdicts and program output.
#[test]
fn indexed_comparator_beats_reference_at_db8() {
    let (db, vulns) = db_with(8);
    for w in &octane_analogues() {
        let run = |mode: ComparatorMode| run_tuned(w, &db, &vulns, |g| g.set_comparator_mode(mode));
        let reference = run(ComparatorMode::Reference);
        let indexed = run(ComparatorMode::Indexed);
        // Same verdict mix and same execution, cheaper analysis.
        assert_eq!(reference.nr_jit, indexed.nr_jit, "{}", w.name);
        assert_eq!(reference.nr_disjit, indexed.nr_disjit, "{}", w.name);
        assert_eq!(reference.nr_nojit, indexed.nr_nojit, "{}", w.name);
        assert_eq!(reference.ops, indexed.ops, "{}", w.name);
        assert!(
            indexed.analysis_cycles < reference.analysis_cycles,
            "{}: indexed {} >= reference {} analysis cycles",
            w.name,
            indexed.analysis_cycles,
            reference.analysis_cycles
        );
    }
}

/// Release-profile smoke run of the full Figure-6 comparator sweep (the
/// CI `--ignored` job): indexed must win at every workload for DB >= 8.
#[test]
#[ignore = "slow: full fig6 comparator sweep, run via cargo test --release -- --ignored"]
fn fig6_comparator_sweep_smoke() {
    let sizes = [1usize, 2, 4, 8];
    let rows = fig6_comparator(&octane_analogues(), &sizes);
    assert!(!rows.is_empty());
    for r in &rows {
        let (reference, indexed) = r.cycles[sizes.len() - 1];
        assert!(
            indexed < reference,
            "{}: indexed {indexed} >= reference {reference} at #8",
            r.name
        );
        // Speedup grows (or at least does not regress badly) with DB size.
        assert!(r.speedup(sizes.len() - 1) > 1.0, "{}", r.name);
    }
}
