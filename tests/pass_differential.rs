//! Per-pass differential testing: disabling any single (disableable)
//! pipeline slot must never change program behaviour — optimization
//! passes are semantics-preserving, and the go/no-go policy relies on
//! recompile-without-pass being a safe fallback.

use jitbull_frontend::parse_program;
use jitbull_fuzzer::gen::{generate_complete, GenConfig};
use jitbull_jit::engine::{Engine, EngineConfig};
use jitbull_jit::pipeline::slot_disableable;
use jitbull_mir::N_SLOTS;
use jitbull_workloads::workload;

fn run(source: &str, disabled: &[usize]) -> Vec<String> {
    Engine::run_source(
        source,
        EngineConfig {
            baseline_threshold: 3,
            ion_threshold: 6,
            fuel: 3_000_000,
            disabled_slots: disabled.iter().copied().collect(),
            ..Default::default()
        },
    )
    .map(|o| o.outcome.printed)
    .unwrap_or_else(|e| vec![format!("error: {e}")])
}

#[test]
fn disabling_any_single_slot_preserves_generated_program_behaviour() {
    for seed in [1u64, 9, 23, 47, 101, 500] {
        let source = generate_complete(&GenConfig {
            seed,
            warmup: 12,
            body_len: 6,
        });
        parse_program(&source).expect("generated source parses");
        let baseline = run(&source, &[]);
        for slot in 0..N_SLOTS {
            if !slot_disableable(slot) {
                continue;
            }
            let got = run(&source, &[slot]);
            assert_eq!(
                baseline, got,
                "seed {seed}: disabling slot {slot} changed behaviour\n{source}"
            );
        }
    }
}

#[test]
fn disabling_every_disableable_slot_preserves_workload_behaviour() {
    // The most pessimistic recompile outcome: everything optional off.
    let all_optional: Vec<usize> = (0..N_SLOTS).filter(|s| slot_disableable(*s)).collect();
    for name in ["Crypto", "Splay", "Gameboy", "Microbench2"] {
        let w = workload(name).expect("workload exists");
        let full = run(&w.source, &[]);
        let stripped = run(&w.source, &all_optional);
        assert_eq!(full, stripped, "{name}: stripped pipeline diverged");
    }
}

#[test]
fn stripped_pipeline_is_slower_but_still_beats_no_jit() {
    let all_optional: Vec<usize> = (0..N_SLOTS).filter(|s| slot_disableable(*s)).collect();
    let w = workload("Crypto").expect("workload exists");
    let cycles = |disabled: &[usize], jit: bool| {
        Engine::run_source(
            &w.source,
            EngineConfig {
                jit_enabled: jit,
                disabled_slots: disabled.iter().copied().collect(),
                ..Default::default()
            },
        )
        .unwrap()
        .outcome
        .cycles
    };
    let full = cycles(&[], true);
    let stripped = cycles(&all_optional, true);
    let nojit = cycles(&[], false);
    assert!(
        full <= stripped,
        "optimizations must help ({full} vs {stripped})"
    );
    assert!(
        stripped < nojit,
        "even a stripped JIT beats the interpreter ({stripped} vs {nojit})"
    );
}
