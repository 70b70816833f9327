//! Cross-function shared-cache differential for the compile cache.
//!
//! The compile cache (`jitbull::DnaMemo`) is shared the way the serving
//! pool shares it: several guards, each over its own database snapshot,
//! one store. It is keyed on the compile key (bytecode, disabled slots,
//! slot count, vulnerabilities) and serves a verdict only under the
//! database generation and thresholds it was given under. This harness
//! feeds it the traffic where a key that misses an input would alias:
//! seeded generated functions each followed by a twin that differs in one
//! constant, and the two constant-only pairs whose snapshots are
//! identical — while the databases are hot-swapped mid-sequence through
//! `db_mut` installs, removals and wholesale replacement.
//!
//! Every Ion round (recompile rounds included) is checked against the
//! oracles: its DNA against `extract_dna` of a fresh traced compile, its
//! verdict against `compare::reference` over the guard's current
//! database. The same traffic also runs through two guarded engines that
//! share one cache, checked against an oracle engine that never touches
//! a cache.

use jitbull::compare::reference;
use jitbull::{
    decide, extract_dna, Analysis, ComparatorMode, CompareConfig, Decision, DnaDatabase, DnaMemo,
    ExtractorMode, Guard,
};
use jitbull_frontend::ast::Expr;
use jitbull_frontend::visit::mutate_exprs_in_stmts;
use jitbull_frontend::{parse_program, print_program};
use jitbull_fuzzer::gen::{generate_complete, GenConfig};
use jitbull_jit::engine::{Engine, EngineConfig, FunctionStats};
use jitbull_jit::pipeline::{optimize, slot_disableable, OptimizeOptions, N_SLOTS};
use jitbull_jit::{CveId, VulnConfig};
use jitbull_mir::{build_mir, CompileKey};
use jitbull_prng::Rng;
use jitbull_vdc::{all_vdcs, build_database};
use jitbull_vm::bytecode::{FuncId, Module};
use jitbull_vm::compile_program;

/// Low thresholds so near-matches recompile and keys gain disabled slots.
const PERMISSIVE: CompareConfig = CompareConfig { thr: 1, ratio: 0.5 };

const SEEDS: u64 = 12;

/// Drives the two constant-only pairs' `f` hot under fast-test
/// thresholds.
const PAIR_DRIVER: &str =
    "var a = [1, 2, 3]; var s = 0; for (var w = 0; w < 40; w++) { s = s + f(a); } print(s);";

/// `source` with one numeric literal inside a function body changed.
fn constant_twin(source: &str, rng: &mut Rng) -> String {
    let mut program = parse_program(source).unwrap();
    let mut count = 0usize;
    for f in &mut program.functions {
        mutate_exprs_in_stmts(&mut f.body, &mut |e| {
            count += usize::from(matches!(e, Expr::Number(_)))
        });
    }
    assert!(count > 0, "no constant to mutate in\n{source}");
    let target = rng.gen_range(0..count);
    let mut seen = 0usize;
    for f in &mut program.functions {
        mutate_exprs_in_stmts(&mut f.body, &mut |e| {
            if let Expr::Number(n) = e {
                if seen == target {
                    *n += 1.0;
                }
                seen += 1;
            }
        });
    }
    print_program(&program)
}

/// The traffic: each generated program then its constant twin, then both
/// constant-only pairs.
fn traffic() -> Vec<String> {
    let mut rng = Rng::seed_from_u64(0xCAC4E);
    let mut out = Vec::new();
    for seed in 0..SEEDS {
        let source = generate_complete(&GenConfig {
            seed,
            warmup: 20,
            body_len: 6,
        });
        let twin = constant_twin(&source, &mut rng);
        out.push(source);
        out.push(twin);
    }
    let branch = "function f(a) { if (COND) { a[0] = 1; } else { a[1] = 2; a[2] = a[0] + 3; } return a[0]; }";
    let product = "function f(a) { var x = 2 * K; if (x > 5) { a[0] = 1; } else { a[1] = 2; a[2] = a[0] + 3; } return a[0]; }";
    for f in [
        branch.replace("COND", "1"),
        branch.replace("COND", "0"),
        product.replace('K', "3"),
        product.replace('K', "1"),
    ] {
        out.push(format!("{f}\n{PAIR_DRIVER}"));
    }
    out
}

/// Mid-sequence database changes, applied before traffic item `at`.
fn hot_swap(at: usize, len: usize, guards: &mut [Guard], full: &DnaDatabase, other: &DnaDatabase) {
    if at == len / 4 {
        guards[0].db_mut().remove_cve(CveId::Cve2019_17026.name());
    } else if at == len / 2 {
        *guards[1].db_mut() = other.clone();
    } else if at == 3 * len / 4 {
        for e in full.entries() {
            if e.cve == CveId::Cve2019_17026.name() {
                guards[0]
                    .db_mut()
                    .install(e.cve.clone(), e.function.clone(), e.dna.clone());
            }
        }
    }
}

/// The oracle: a fresh traced compile's DNA and the reference verdict
/// over `guard`'s current database.
fn oracle(guard: &Guard, module: &Module, func: FuncId, options: &OptimizeOptions) -> Analysis {
    let vulns = VulnConfig::all();
    let traced = OptimizeOptions {
        trace: true,
        ..options.clone()
    };
    let mir = build_mir(module, func).unwrap();
    let dna = extract_dna(&optimize(mir, &vulns, &traced).trace, N_SLOTS);
    let mut dangerous = Vec::new();
    let mut matches = Vec::new();
    for e in guard.db().entries() {
        let slots = reference(&dna, &e.dna, guard.config());
        if !slots.is_empty() {
            dangerous.extend(&slots);
            matches.push((e.cve.clone(), e.function.clone(), slots));
        }
    }
    dangerous.sort_unstable();
    dangerous.dedup();
    Analysis {
        dangerous,
        matches,
        cost_cycles: 0,
        dna,
    }
}

/// Compiles `func` the way the engine's Ion tier does — key, lookup,
/// pipeline traced only on a miss, analysis, recompile with the dangerous
/// slots off until the policy settles — checking every round against the
/// oracle. Returns the rounds run.
fn compile_checked(guard: &Guard, module: &Module, func: FuncId, label: &str) -> usize {
    let vulns = VulnConfig::all();
    let mut options = OptimizeOptions::default();
    for round in 1..=N_SLOTS + 1 {
        let Ok(mir) = build_mir(module, func) else {
            return round - 1;
        };
        let key = CompileKey::new(
            module.function(func),
            options.skipped_slots(),
            N_SLOTS,
            vulns.mask(),
        );
        let lookup = guard.lookup(key);
        options.trace = lookup.needs_trace();
        let result = optimize(mir, &vulns, &options);
        if result.broken.is_some() {
            return round;
        }
        let got = guard.analyze_compile(lookup, &result.trace, N_SLOTS, None);
        let expected = oracle(guard, module, func, &options);
        assert_eq!(got.dna, expected.dna, "{label} round {round}: foreign DNA");
        assert_eq!(
            got.matches, expected.matches,
            "{label} round {round}: verdict differs from the reference comparator"
        );
        let fresh: Vec<usize> = got
            .dangerous
            .into_iter()
            .filter(|s| !options.disabled_slots.contains(s))
            .collect();
        match decide(fresh, slot_disableable) {
            Decision::Recompile(slots) => options.disabled_slots.extend(slots),
            Decision::Go | Decision::NoJit(_) => return round,
        }
    }
    N_SLOTS + 1
}

#[test]
fn shared_compile_cache_agrees_with_the_oracles_across_functions_guards_and_hot_swaps() {
    let full = build_database(&all_vdcs()).unwrap();
    let other = build_database(&[jitbull_vdc::vdc(CveId::Cve2019_9810)]).unwrap();
    let memo = DnaMemo::default();
    let mut guards: Vec<Guard> = (0..2)
        .map(|_| {
            let mut g = Guard::new(full.clone(), PERMISSIVE);
            g.set_dna_memo(memo.clone());
            g
        })
        .collect();
    let traffic = traffic();
    let mut rounds = 0;
    let mut recompiled = 0;
    for (at, source) in traffic.iter().enumerate() {
        hot_swap(at, traffic.len(), &mut guards, &full, &other);
        let module = compile_program(&parse_program(source).unwrap()).unwrap();
        for (i, f) in module.functions.iter().enumerate() {
            if f.name == "<main>" {
                continue;
            }
            // Both guards compile every function: the second one is
            // served what the first one cached, under its own database.
            for (g, guard) in guards.iter().enumerate() {
                let label = format!("traffic {at} guard {g} fn {}", f.name);
                let n = compile_checked(guard, &module, FuncId(i as u32), &label);
                rounds += n;
                recompiled += usize::from(n > 1);
            }
        }
    }
    let stats = memo.stats();
    assert!(recompiled > 0, "no recompile round ran");
    assert!(stats.hits > 0, "the cache never served a DNA");
    assert!(stats.verdict_hits > 0, "the cache never served a verdict");
    assert!(
        stats.hits > stats.verdict_hits,
        "hot swaps never made a cached verdict stale"
    );
    assert!(rounds > 100, "only {rounds} Ion rounds checked");
}

/// What a run decided, per function, for the engine-level comparison.
fn decisions(stats: &[FunctionStats]) -> Vec<String> {
    stats
        .iter()
        .map(|s| {
            format!(
                "{} {:?} {:?} {:?}",
                s.name, s.tier, s.disabled_slots, s.matched
            )
        })
        .collect()
}

#[test]
fn engines_sharing_one_cache_decide_like_an_uncached_oracle_engine() {
    let full = build_database(&all_vdcs()).unwrap();
    let other = build_database(&[jitbull_vdc::vdc(CveId::Cve2019_9810)]).unwrap();
    let memo = DnaMemo::default();
    let config = EngineConfig {
        vulns: VulnConfig::all(),
        ..EngineConfig::fast_test()
    };
    let mut guards: Vec<Guard> = (0..2)
        .map(|_| {
            let mut g = Guard::new(full.clone(), PERMISSIVE);
            g.set_dna_memo(memo.clone());
            g
        })
        .collect();
    let traffic = traffic();
    for (at, source) in traffic.iter().enumerate() {
        hot_swap(at, traffic.len(), &mut guards, &full, &other);
        // Alternate engines, carrying each one's guard on like a pool
        // worker carries its warm guard from request to request.
        let slot = at % 2;
        let guard = std::mem::take(&mut guards[slot]);
        let mut oracle_guard = Guard::new(guard.db().clone(), PERMISSIVE);
        oracle_guard.set_extractor_mode(ExtractorMode::Reference);
        oracle_guard.set_comparator_mode(ComparatorMode::Reference);
        let mut engine = Engine::with_guard(config.clone(), guard);
        let got = engine.run_source_with(source).unwrap();
        guards[slot] = engine.into_guard().unwrap();
        let want = Engine::with_guard(config.clone(), oracle_guard)
            .run_source_with(source)
            .unwrap();
        assert_eq!(got.outcome.printed, want.outcome.printed, "traffic {at}");
        assert_eq!(
            got.outcome.status, want.outcome.status,
            "traffic {at}:\n{source}"
        );
        assert_eq!(
            decisions(&got.stats),
            decisions(&want.stats),
            "traffic {at}"
        );
    }
    let stats = memo.stats();
    assert!(stats.hits > 0 && stats.verdict_hits > 0, "{stats:?}");
}
