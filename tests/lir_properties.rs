//! Randomized tests over the LIR backend, driven by the fuzz generator's
//! program space: every generated program's functions must (a) lower to
//! valid LIR, (b) receive a register allocation with no two overlapping
//! live intervals sharing a register, and (c) print the same output (or
//! fail with the same error) through the tiered LIR engine as through the
//! bytecode interpreter. Seeds are fixed, so every run checks the same
//! programs.

use jitbull_frontend::parse_program;
use jitbull_fuzzer::gen::{generate_complete, GenConfig};
use jitbull_jit::engine::{Engine, EngineConfig};
use jitbull_jit::pipeline::{optimize, OptimizeOptions};
use jitbull_jit::VulnConfig;
use jitbull_lir::regalloc::{allocate, verify};
use jitbull_lir::{compile, lower};
use jitbull_mir::build_mir;
use jitbull_vm::compile_program;

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
        for i in 0..module.functions.len() {
            let fid = jitbull_vm::bytecode::FuncId(i as u32);
            let mir = build_mir(&module, fid).expect("mir builds");
            let optimized = optimize(mir, &VulnConfig::none(), &OptimizeOptions::default());
            assert!(optimized.broken.is_none(), "seed {seed}");
            // Lower + allocate, then check the allocator invariant.
            let lowered = lower(&optimized.mir);
            assert_eq!(lowered.validate(), Ok(()), "seed {seed}:\n{lowered}");
            let allocation = allocate(&lowered);
            assert!(
                verify(&lowered, &allocation),
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
