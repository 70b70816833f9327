//! Cross-function shared-cache differential for the compile cache.
//!
//! The compile cache (`jitbull::DnaMemo`) is shared the way the serving
//! pool shares it: several guards, each over its own database snapshot,
//! one store. It is keyed on the compile key (bytecode, disabled slots,
//! slot count, vulnerabilities), serves the stored pipeline output and
//! code in place of compiling, and serves a verdict only under the
//! database generation and thresholds it was given under. This harness
//! feeds it the traffic where a key that misses an input would alias:
//! seeded generated functions each followed by a twin that differs in one
//! constant and a twin that differs only in function names, and the two
//! constant-only pairs whose snapshots are identical — while the
//! databases are hot-swapped mid-sequence through `db_mut` installs,
//! removals and wholesale replacement.
//!
//! Every Ion round (recompile rounds included) is checked against the
//! oracles: its DNA against `extract_dna` of a fresh traced compile, its
//! verdict against `compare::reference` over the guard's current
//! database, and — when the cache serves the round's output — that
//! output against a fresh untraced `compile` of the same input: work,
//! executed slots, fired CVEs and, once stored, the lowered code. The
//! same traffic also runs through two guarded engines that share one
//! cache, checked against an oracle engine that never touches a cache.

use std::sync::Arc;

use jitbull::compare::reference;
use jitbull::{
    decide, extract_dna, Analysis, ComparatorMode, CompareConfig, Decision, DnaDatabase, DnaMemo,
    ExtractorMode, Guard, PipelineOutput,
};
use jitbull_frontend::ast::Expr;
use jitbull_frontend::visit::mutate_exprs_in_stmts;
use jitbull_frontend::{parse_program, print_program};
use jitbull_fuzzer::gen::{generate_complete, GenConfig};
use jitbull_jit::engine::{Engine, EngineConfig, FunctionStats};
use jitbull_jit::pipeline::{compile, CompileInput, OptimizeOptions, DISABLEABLE};
use jitbull_jit::{CveId, VulnConfig};
use jitbull_mir::{PassTrace, SlotSet, N_SLOTS};
use jitbull_prng::Rng;
use jitbull_vdc::{all_vdcs, build_database};
use jitbull_vm::bytecode::Function;
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

/// `source` with every function renamed: same bytecode, other names.
fn name_twin(source: &str) -> String {
    source
        .replace("hot(", "warm(")
        .replace("helper(", "aide(")
        .replace("f(", "g(")
}

/// The traffic: each generated program then its constant twin and its
/// name twin, then both constant-only pairs and their name twins.
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
        let renamed = name_twin(&source);
        out.push(source);
        out.push(twin);
        out.push(renamed);
    }
    let branch = "function f(a) { if (COND) { a[0] = 1; } else { a[1] = 2; a[2] = a[0] + 3; } return a[0]; }";
    let product = "function f(a) { var x = 2 * K; if (x > 5) { a[0] = 1; } else { a[1] = 2; a[2] = a[0] + 3; } return a[0]; }";
    for f in [
        branch.replace("COND", "1"),
        branch.replace("COND", "0"),
        product.replace('K', "3"),
        product.replace('K', "1"),
    ] {
        let source = format!("{f}\n{PAIR_DRIVER}");
        out.push(name_twin(&source));
        out.push(source);
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
fn oracle(guard: &Guard, input: &CompileInput<'_>) -> Analysis {
    let traced = OptimizeOptions {
        trace: true,
        ..OptimizeOptions::default()
    };
    let dna = extract_dna(&compile(input, &traced).unwrap().trace);
    let mut dangerous = SlotSet::new();
    let mut matches = Vec::new();
    for e in guard.db().entries() {
        let slots = reference(&dna, &e.dna, guard.config());
        if !slots.is_empty() {
            dangerous = dangerous.union(slots);
            matches.push((e.cve.clone(), e.function.clone(), slots));
        }
    }
    Analysis {
        dangerous,
        matches,
        cost_cycles: 0,
        dna: Arc::new(dna),
    }
}

/// A served output must be what a fresh untraced compile of the same
/// input produces: work, executed slots, fired CVEs and, when stored, the
/// lowered code field for field.
fn check_served(output: &PipelineOutput, input: &CompileInput<'_>, label: &str) {
    let fresh = compile(input, &OptimizeOptions::default()).unwrap();
    let expected = fresh.output();
    assert_eq!(output.work, expected.work, "{label}: served work");
    assert_eq!(
        output.slot_runs, expected.slot_runs,
        "{label}: served slots"
    );
    assert_eq!(
        output.vulns_fired, expected.vulns_fired,
        "{label}: served CVEs"
    );
    if let Some(code) = output.code.get() {
        assert_eq!(
            **code,
            jitbull_lir::compile(&fresh.mir),
            "{label}: served code"
        );
    }
}

/// What [`compile_checked`] saw.
#[derive(Default)]
struct Checked {
    rounds: usize,
    recompiled: usize,
    served: usize,
    served_code: usize,
}

/// Compiles `function` the way the engine's Ion tier does — key, lookup,
/// the stored output served on a hit or the pipeline run (traced only on
/// a DNA miss), analysis, recompile with the dangerous slots off until
/// the policy settles, code lowered and stored on promotion — checking
/// every round against the oracles.
fn compile_checked(guard: &Guard, function: &Function, label: &str, seen: &mut Checked) {
    let vulns = VulnConfig::all();
    let mut disabled = SlotSet::new();
    for round in 1..=N_SLOTS + 1 {
        let label = format!("{label} round {round}");
        seen.rounds += 1;
        seen.recompiled += usize::from(round == 2);
        let input = CompileInput::new(function, disabled, &vulns);
        let mut lookup = guard.lookup(input.key());
        let (output, mir, trace) = match lookup.output().cloned() {
            Some(output) => {
                check_served(&output, &input, &label);
                seen.served += 1;
                seen.served_code += usize::from(output.code.get().is_some());
                (output, None, PassTrace::default())
            }
            None => {
                let options = OptimizeOptions {
                    trace: lookup.needs_trace(),
                    ..OptimizeOptions::default()
                };
                let Ok(result) = compile(&input, &options) else {
                    return;
                };
                if result.broken.is_some() {
                    return;
                }
                let output = Arc::new(result.output());
                lookup.store_output(Arc::clone(&output));
                (output, Some(result.mir), result.trace)
            }
        };
        let got = guard.analyze_compile(lookup, &trace, None);
        let expected = oracle(guard, &input);
        assert_eq!(got.dna, expected.dna, "{label}: foreign DNA");
        assert_eq!(
            got.matches, expected.matches,
            "{label}: verdict differs from the reference comparator"
        );
        match decide(got.dangerous.difference(disabled), DISABLEABLE) {
            Decision::Recompile(slots) => disabled = disabled.union(slots),
            Decision::NoJit(_) => return,
            Decision::Go => {
                output.code.get_or_init(|| {
                    let mir = mir.unwrap_or_else(|| {
                        compile(&input, &OptimizeOptions::default()).unwrap().mir
                    });
                    Arc::new(jitbull_lir::compile(&mir))
                });
                return;
            }
        }
    }
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
    let mut seen = Checked::default();
    for (at, source) in traffic.iter().enumerate() {
        hot_swap(at, traffic.len(), &mut guards, &full, &other);
        let module = compile_program(&parse_program(source).unwrap()).unwrap();
        for f in &module.functions {
            if f.name == "<main>" {
                continue;
            }
            // Both guards compile every function: the second one is
            // served what the first one cached, under its own database.
            for (g, guard) in guards.iter().enumerate() {
                let label = format!("traffic {at} guard {g} fn {}", f.name);
                compile_checked(guard, f, &label, &mut seen);
            }
        }
    }
    let stats = memo.stats();
    assert!(seen.recompiled > 0, "no recompile round ran");
    assert!(stats.hits > 0, "the cache never served a DNA");
    assert!(stats.verdict_hits > 0, "the cache never served a verdict");
    assert!(
        stats.hits > stats.verdict_hits,
        "hot swaps never made a cached verdict stale"
    );
    assert!(seen.served > 100, "only {} rounds served", seen.served);
    assert!(seen.served_code > 0, "the cache never served code");
    assert_eq!(stats.code_hits as usize, seen.served_code);
    assert!(seen.rounds > 200, "only {} Ion rounds checked", seen.rounds);
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
    assert!(
        stats.code_hits > 0,
        "the engines never ran served code: {stats:?}"
    );
}
