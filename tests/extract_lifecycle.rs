//! Lifecycle lockdown of the DNA memo cache: the shared memo must speed
//! up repeat compilations without *ever* serving a stale, corrupt, or
//! quarantine-bypassing extraction.
//!
//! Invalidation in the memo is by construction — the key is (pre-pipeline
//! MIR, executed pass schedule, slot count, vulnerability-set
//! fingerprint) — so these tests drive the engine end-to-end through the
//! scenarios where a cache bug would be exploitable: recompile rounds
//! that change the pass schedule, chaos-corrupted compilations, poisoned
//! stores, and quarantined functions.

use jitbull::{CompareConfig, DnaMemo, Guard};
use jitbull_chaos::{FaultInjector, FaultKind, FaultPlan, FaultSite, Quarantine};
use jitbull_jit::engine::{Engine, EngineConfig, TierStats};
use jitbull_jit::{CveId, VulnConfig};
use jitbull_vdc::{build_database, vdc};

/// Guaranteed self-matches under the repo's test-convention thresholds.
const PERMISSIVE: CompareConfig = CompareConfig { thr: 1, ratio: 0.5 };

/// The ServeArray workload: hot enough under fast-test thresholds to
/// reach Ion, and a guaranteed CVE-2019-17026 match against the VDC
/// database — so every run takes the analyze → Recompile → re-analyze
/// path, executing two different pass schedules per compiled function.
fn serve_array_source() -> String {
    jitbull_workloads::serving_mix()
        .into_iter()
        .find(|w| w.name == "ServeArray")
        .unwrap()
        .source
}

fn vulnerable_config(memo: &DnaMemo) -> EngineConfig {
    EngineConfig {
        vulns: VulnConfig::with([CveId::Cve2019_17026]),
        memo: memo.clone(),
        ..EngineConfig::fast_test()
    }
}

fn guarded_engine(config: EngineConfig) -> Engine {
    let db = build_database(&[vdc(CveId::Cve2019_17026)]).unwrap();
    Engine::with_guard(config, Guard::new(db, PERMISSIVE))
}

#[test]
fn recompile_after_schedule_change_misses_then_repeat_run_hits() {
    let memo = DnaMemo::default();
    let src = serve_array_source();

    // First run: the initial compile matches, the verdict is Recompile,
    // and the retry runs a *different* pass schedule (dangerous slots
    // disabled). Both analyses must miss the memo — same function, same
    // pre-MIR, different schedule ⇒ different key.
    let mut engine = guarded_engine(vulnerable_config(&memo));
    let first = engine.run_source_with(&src).unwrap();
    assert!(first.nr_disjit > 0, "the recompile path must be exercised");
    let cold = memo.stats();
    assert!(cold.lookups >= 2, "both compile rounds consult the memo");
    assert_eq!(cold.hits, 0, "a schedule change must never hit");
    assert_eq!(
        memo.len() as u64,
        cold.insertions,
        "every round memoizes under its own schedule key"
    );

    // Second run, fresh engine, same memo: both rounds replay the same
    // schedules, so both hit — and the verdicts are identical, proving
    // the memoized DNA is the one the oracle would re-extract.
    let mut engine = guarded_engine(vulnerable_config(&memo));
    let second = engine.run_source_with(&src).unwrap();
    let warm = memo.stats();
    assert_eq!(warm.hits, cold.lookups, "repeat run hits on every round");
    assert_eq!(second.outcome.printed, first.outcome.printed);
    assert_eq!(second.nr_disjit, first.nr_disjit);
    assert_eq!(second.nr_nojit, first.nr_nojit);
    assert!(
        second.analysis_cycles < first.analysis_cycles,
        "memo hits must make the repeat analysis cheaper ({} vs {})",
        second.analysis_cycles,
        first.analysis_cycles
    );
}

#[test]
fn vuln_context_change_cannot_serve_a_stale_extraction() {
    let memo = DnaMemo::default();
    let src = serve_array_source();
    let mut engine = guarded_engine(vulnerable_config(&memo));
    engine.run_source_with(&src).unwrap();
    let before = memo.stats();
    assert!(before.insertions > 0);

    // Same program on a *patched* engine: the vulnerability fingerprint
    // keys the memo, so nothing extracted on the vulnerable engine may be
    // served — the patched pipeline produces different deltas.
    let mut patched = guarded_engine(EngineConfig {
        vulns: VulnConfig::none(),
        memo: memo.clone(),
        ..EngineConfig::fast_test()
    });
    let out = patched.run_source_with(&src).unwrap();
    assert!(!out.outcome.printed.is_empty());
    let after = memo.stats();
    assert_eq!(
        after.hits, before.hits,
        "a changed vulnerability context must never hit"
    );
    assert!(
        after.insertions > before.insertions,
        "the patched run re-extracts and memoizes under its own context"
    );
}

#[test]
fn ir_corrupt_compilation_never_reaches_the_memo() {
    let memo = DnaMemo::default();
    let src = serve_array_source();

    // Corrupt the IR on every pass run: the coherency check abandons the
    // compilation before analysis, so the extractor never runs and the
    // memo must stay empty — no corrupt trace is ever memoized.
    let mut config = vulnerable_config(&memo);
    config.faults = FaultInjector::from_plan(FaultPlan::new(7).script(
        FaultSite::PassRun,
        FaultKind::IrCorrupt,
        0,
        u64::MAX,
    ));
    let mut engine = guarded_engine(config);
    let broken = engine.run_source_with(&src).unwrap();
    assert!(!broken.outcome.printed.is_empty(), "the run still answers");
    assert!(engine.compile_failures > 0, "the corruption must fire");
    let stats = memo.stats();
    assert_eq!(stats.lookups, 0, "no analysis ⇒ no memo traffic");
    assert_eq!(stats.insertions, 0, "a broken compile must not memoize");
    assert!(memo.is_empty());

    // A clean engine sharing the memo starts from scratch — misses, then
    // extracts fresh and reaches the normal verdicts.
    let mut clean = guarded_engine(vulnerable_config(&memo));
    let out = clean.run_source_with(&src).unwrap();
    assert_eq!(memo.stats().hits, 0, "nothing stale to serve");
    assert!(memo.stats().insertions > 0);
    assert!(out.nr_disjit > 0, "clean run reaches the recompile verdict");
}

#[test]
fn quarantined_functions_never_compile_hence_never_touch_the_memo() {
    let memo = DnaMemo::default();
    let quarantine = Quarantine::default(); // two strikes
    let src = serve_array_source();

    // Every compilation panics: the function earns its strikes and lands
    // in quarantine without a single successful extraction.
    let mut config = vulnerable_config(&memo);
    config.quarantine = quarantine.clone();
    config.faults = FaultInjector::from_plan(FaultPlan::new(11).script(
        FaultSite::PassRun,
        FaultKind::PassPanic,
        0,
        u64::MAX,
    ));
    let mut engine = guarded_engine(config);
    engine.run_source_with(&src).unwrap();
    engine.run_source_with(&src).unwrap();
    assert!(
        !quarantine.quarantined().is_empty(),
        "repeated panics must quarantine the function"
    );
    assert_eq!(memo.stats().lookups, 0, "no extraction ever completed");

    // A healthy engine sharing the quarantine list refuses to compile the
    // pinned function at all — so the memo still sees zero traffic for
    // it, and no stale DNA can possibly be served.
    let mut config = vulnerable_config(&memo);
    config.quarantine = quarantine.clone();
    let mut healthy = guarded_engine(config);
    let out = healthy.run_source_with(&src).unwrap();
    assert!(!out.outcome.printed.is_empty());
    assert_eq!(
        memo.stats().lookups,
        0,
        "a quarantined function must never reach the extractor"
    );
    for name in quarantine.quarantined() {
        let stats = out
            .stats
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no stats for quarantined fn {name}"));
        assert!(
            !matches!(stats.tier, TierStats::Ion | TierStats::IonPassesDisabled),
            "{name} is quarantined yet reached the optimizing tier"
        );
        assert!(stats.matched.is_empty(), "{name} produced DNA while pinned");
    }
    assert!(
        out.nr_nojit >= 1,
        "the hot quarantined function is pinned no-go"
    );
}

#[test]
fn extract_query_poison_recovers_with_telemetry_and_correct_verdicts() {
    use jitbull_telemetry::Recorder;
    use std::cell::RefCell;
    use std::rc::Rc;

    let memo = DnaMemo::default();
    let src = serve_array_source();

    // Warm the memo with a clean run.
    let mut engine = guarded_engine(vulnerable_config(&memo));
    let clean = engine.run_source_with(&src).unwrap();
    let warm = memo.stats();
    assert!(warm.insertions >= 2);

    // Poison the store on the first extractor query of the next run: the
    // purge-before-serve path must discard every entry, re-extract, and
    // reach the same verdicts — reported through telemetry.
    let mut config = vulnerable_config(&memo);
    config.faults = FaultInjector::from_plan(FaultPlan::new(13).script(
        FaultSite::ExtractQuery,
        FaultKind::CachePoison,
        0,
        1,
    ));
    let mut poisoned = guarded_engine(config);
    let rec = Rc::new(RefCell::new(Recorder::new()));
    poisoned.set_collector(rec.clone());
    let out = poisoned.run_source_with(&src).unwrap();
    assert_eq!(out.outcome.printed, clean.outcome.printed);
    assert_eq!(out.nr_disjit, clean.nr_disjit, "verdicts survive the purge");
    let stats = memo.stats();
    assert_eq!(stats.poison_purges, 1, "exactly one purge");
    assert_eq!(
        stats.hits, warm.hits,
        "a poisoned store must re-extract, never serve garbage"
    );
    let rec = rec.borrow();
    assert_eq!(
        rec.metrics().counter("recovery.extract_memo_purged"),
        1,
        "the purge surfaces in recovery telemetry"
    );
    assert!(rec.metrics().counter("extract.queries") >= 2);
}

/// Traced pipeline run over function `f` of `source` on a patched
/// engine: exactly the trace an Ion compilation hands the guard.
fn traced_f(source: &str) -> jitbull_mir::PassTrace {
    use jitbull_jit::pipeline::{optimize, OptimizeOptions};
    let program = jitbull_frontend::parse_program(source).unwrap();
    let module = jitbull_vm::compile_program(&program).unwrap();
    let mir = jitbull_mir::build_mir(&module, module.function_id("f").unwrap()).unwrap();
    let options = OptimizeOptions {
        trace: true,
        ..Default::default()
    };
    optimize(mir, &VulnConfig::none(), &options).trace
}

#[test]
fn functions_differing_only_in_literals_never_share_a_memo_entry() {
    use jitbull::{extract_dna, DnaDatabase};
    use jitbull_jit::pipeline::N_SLOTS;

    // Each pair builds identical pre-pipeline snapshots (labels drop
    // literal values) but folds to different graphs, so the reference
    // DNAs differ.
    let branch = "function f(a) { if (COND) { a[0] = 1; } else { a[1] = 2; a[2] = a[0] + 3; } return a[0]; }";
    let product = "function f(a) { var x = 2 * K; if (x > 5) { a[0] = 1; } else { a[1] = 2; a[2] = a[0] + 3; } return a[0]; }";
    let pairs = [
        (branch.replace("COND", "1"), branch.replace("COND", "0")),
        (product.replace('K', "3"), product.replace('K', "1")),
    ];
    let memo = DnaMemo::default();
    for (pair, (first, second)) in pairs.iter().enumerate() {
        let first = traced_f(first);
        let second = traced_f(second);
        assert_ne!(
            extract_dna(&first, N_SLOTS),
            extract_dna(&second, N_SLOTS),
            "the pair must differ under the oracle for the test to bite"
        );
        // Two guards over one memo, as two pool workers share it: the
        // second function must get its own DNA, not the first one's.
        for trace in [&first, &second] {
            let mut guard = Guard::new(DnaDatabase::new(), PERMISSIVE);
            guard.set_dna_memo(memo.clone());
            assert_eq!(
                guard.analyze(trace, N_SLOTS).dna,
                extract_dna(trace, N_SLOTS),
                "pair {pair}: the memo served a foreign DNA"
            );
        }
    }
    assert_eq!(memo.stats().hits, 0, "no pair member may hit the other");
}
