//! Randomized tests over the LIR backend, driven by the fuzz generator's
//! program space and the workload programs: every function must (a)
//! lower to valid LIR, (b) receive a frame-slot assignment with no two
//! overlapping live intervals sharing a slot, a frame exactly as large as
//! the peak number of overlapping intervals, and no self-move left, and
//! (c) print the same output (or fail with the same error) through the
//! tiered LIR engine as through the bytecode interpreter. Seeds are
//! fixed, so every run checks the same programs. A hand-written function
//! with more than 16 values live checks guard flags in a large frame.

use jitbull_frontend::parse_program;
use jitbull_fuzzer::gen::{generate_complete, GenConfig};
use jitbull_jit::engine::{Engine, EngineConfig, TierStats};
use jitbull_jit::pipeline::{CompileInput, OptimizeOptions};
use jitbull_jit::VulnConfig;
use jitbull_lir::passes::thread_jumps;
use jitbull_lir::regalloc::{self, allocate, verify};
use jitbull_lir::{compile, lower, Allocation, LOp};
use jitbull_mir::{MirFunction, SlotSet};
use jitbull_vm::compile_program;
use jitbull_vm::runtime::ExploitStatus;
use jitbull_workloads::all_workloads;

fn source_for(seed: u64) -> String {
    generate_complete(&GenConfig {
        seed,
        warmup: 12,
        body_len: 6,
    })
}

/// The most live intervals that overlap pairwise. For intervals that is
/// the most that contain one position, and some interval's start is such
/// a position.
fn peak_live(allocation: &Allocation) -> u32 {
    let intervals: Vec<(u32, u32)> = allocation.intervals.iter().flatten().copied().collect();
    let live_at = |p: u32| intervals.iter().filter(|(s, e)| *s <= p && p <= *e).count();
    intervals
        .iter()
        .map(|(s, _)| live_at(*s))
        .max()
        .unwrap_or(0) as u32
}

/// Runs the backend stage by stage and checks what `compile` produces:
/// valid LIR, a sound slot assignment, a frame of exactly the peak number
/// of live intervals, and no self-move.
fn check_backend(mir: &MirFunction, context: &str) {
    let mut staged = lower(mir);
    assert_eq!(staged.validate(), Ok(()), "{context}:\n{staged}");
    thread_jumps(&mut staged);
    let allocation = allocate(&staged);
    assert!(verify(&allocation), "slot overlap in {context}:\n{staged}");
    regalloc::apply(&mut staged, &allocation);
    let compiled = compile(mir);
    assert_eq!(compiled, staged, "{context}");
    assert_eq!(compiled.validate(), Ok(()), "{context}:\n{compiled}");
    assert_eq!(
        compiled.frame_size,
        peak_live(&allocation),
        "{context}:\n{compiled}"
    );
    let self_move = compiled
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .any(|i| matches!(i.op, LOp::Move) && i.dst == Some(i.args[0]));
    assert!(!self_move, "self-move in {context}:\n{compiled}");
}

#[test]
fn lowering_and_allocation_are_sound() {
    let generated = (0..64u64).map(|seed| (format!("seed {seed}"), source_for(seed * 1_543)));
    let workloads = all_workloads()
        .into_iter()
        .map(|w| (w.name.to_string(), w.source));
    let vulns = VulnConfig::none();
    for (program, source) in generated.chain(workloads) {
        let parsed = parse_program(&source).expect("source parses");
        let module = compile_program(&parsed).expect("compiles");
        for f in &module.functions {
            let input = CompileInput::new(f, SlotSet::new(), &vulns);
            let optimized =
                jitbull_jit::compile(&input, &OptimizeOptions::default()).expect("mir builds");
            assert!(optimized.broken.is_none(), "{program}");
            check_backend(&optimized.mir, &format!("{program} fn {}", f.name));
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
/// values, which puts that guard's flag in a slot at or above 16. Reading
/// a wrong guard flag turns a growth write into a raw write past the
/// array, which crashes or corrupts the output.
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
    assert!(code.frame_size > 16, "no slot above 16:\n{code}");
    let spilled_bounds_flag = code
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .any(|i| i.guards.bounds && i.args[1].0 >= 16);
    assert!(
        spilled_bounds_flag,
        "no bounds flag in a slot at or above 16:\n{code}"
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
