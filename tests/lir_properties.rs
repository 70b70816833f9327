//! Randomized tests over the LIR backend, driven by the fuzz generator's
//! program space: every generated program's functions must (a) lower to
//! valid LIR, (b) receive a register allocation with no two overlapping
//! live intervals sharing a register, and (c) print the same output (or
//! fail with the same error) through the tiered LIR engine as through the
//! bytecode interpreter. Seeds are fixed, so every run checks the same
//! programs. A hand-written function with more values live than there
//! are registers checks guard flags in a spilled frame.

use jitbull_frontend::parse_program;
use jitbull_fuzzer::gen::{generate_complete, GenConfig};
use jitbull_jit::engine::{Engine, EngineConfig, TierStats};
use jitbull_jit::pipeline::{CompileInput, OptimizeOptions};
use jitbull_jit::VulnConfig;
use jitbull_lir::regalloc::{allocate, verify, N_REGS};
use jitbull_lir::{compile, lower};
use jitbull_mir::SlotSet;
use jitbull_vm::compile_program;
use jitbull_vm::runtime::ExploitStatus;

fn source_for(seed: u64) -> String {
    generate_complete(&GenConfig {
        seed,
        warmup: 12,
        body_len: 6,
    })
}

#[test]
fn lowering_and_allocation_are_sound() {
    for seed in 0..64u64 {
        let source = source_for(seed * 1_543);
        let program = parse_program(&source).expect("generated source parses");
        let module = compile_program(&program).expect("compiles");
        let vulns = VulnConfig::none();
        for (i, f) in module.functions.iter().enumerate() {
            let input = CompileInput::new(f, SlotSet::new(), &vulns);
            let optimized =
                jitbull_jit::compile(&input, &OptimizeOptions::default()).expect("mir builds");
            assert!(optimized.broken.is_none(), "seed {seed}");
            // Lower + allocate, then check the allocator invariant.
            let lowered = lower(&optimized.mir);
            assert_eq!(lowered.validate(), Ok(()), "seed {seed}:\n{lowered}");
            let allocation = allocate(&lowered);
            assert!(
                verify(&allocation),
                "allocation overlap for seed {seed} fn {i}:\n{lowered}"
            );
            // The full backend pipeline also ends valid.
            let compiled = compile(&optimized.mir);
            assert_eq!(compiled.validate(), Ok(()), "seed {seed}:\n{compiled}");
        }
    }
}

#[test]
fn lir_tier_agrees_with_interpreter() {
    for seed in 0..64u64 {
        let source = source_for(seed * 7_919 + 1);
        let run = |jit_enabled: bool| {
            Engine::run_source(
                &source,
                EngineConfig {
                    jit_enabled,
                    baseline_threshold: 3,
                    ion_threshold: 6,
                    fuel: 2_000_000,
                    ..Default::default()
                },
            )
            .map(|o| o.outcome.printed)
            .map_err(|e| format!("{e}"))
        };
        assert_eq!(run(false), run(true), "seed {seed}, source:\n{source}");
    }
}

/// `fill` keeps 20 values live across a loop of growth writes
/// (`a[a.length] = v`, whose `boundscheck` fails, so the write must take
/// the safe path) and in-range loads. After the loop it makes one more
/// growth write whose failing `boundscheck` is held across 20 further
/// values, which puts that guard's flag in a spill slot. Reading a wrong
/// guard flag turns a growth write into a raw write past the array, which
/// crashes or corrupts the output.
#[test]
fn spilled_frame_honours_failing_guards() {
    let xs: String = (0..20)
        .map(|k| format!("  var x{k} = n * {} + a.length;\n", k + 2))
        .collect();
    let ys: String = (0..20)
        .map(|k| format!("  var y{k} = t * {};\n", k + 2))
        .collect();
    let sum: Vec<String> = (0..20).map(|k| format!("x{k} + y{k}")).collect();
    let source = format!(
        "function fill(a, n) {{
{xs}  var t = 0;
  for (var i = 0; i < n; i++) {{
    a[a.length] = i * 3;
    t = t + a[i] + a[a.length - 1];
  }}
  var j = a.length;
  var e = a[j];
{ys}  a[j] = {};
  return t;
}}
var r = 0;
var a = [];
for (var c = 0; c < 30; c++) {{ a = [1, 2]; r = r + fill(a, 12); }}
print(r); print(a.length); print(a[13]); print(a[14]);
",
        sum.join(" + ")
    );

    let module = compile_program(&parse_program(&source).unwrap()).unwrap();
    let function = module.function(module.function_id("fill").unwrap());
    let vulns = VulnConfig::none();
    let input = CompileInput::new(function, SlotSet::new(), &vulns);
    let optimized = jitbull_jit::compile(&input, &OptimizeOptions::default()).unwrap();
    let code = compile(&optimized.mir);
    assert!(code.frame_size > N_REGS, "no spill slot:\n{code}");
    let spilled_bounds_flag = code
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .any(|i| i.guards.bounds && i.args[1].0 >= N_REGS);
    assert!(
        spilled_bounds_flag,
        "no bounds flag in a spill slot:\n{code}"
    );

    let run = |jit_enabled: bool| {
        Engine::run_source(
            &source,
            EngineConfig {
                jit_enabled,
                ..EngineConfig::fast_test()
            },
        )
        .unwrap()
    };
    let (interpreted, tiered) = (run(false), run(true));
    let fill = tiered.stats.iter().find(|s| s.name == "fill").unwrap();
    assert_eq!(fill.tier, TierStats::Ion);
    assert_eq!(tiered.outcome.status, ExploitStatus::Clean);
    assert_eq!(tiered.outcome.printed, interpreted.outcome.printed);
}
