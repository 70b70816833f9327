//! Per-pass differential testing: disabling any single (disableable)
//! pipeline slot must never change program behaviour — optimization
//! passes are semantics-preserving, and the go/no-go policy relies on
//! recompile-without-pass being a safe fallback.

use jitbull_frontend::parse_program;
use jitbull_fuzzer::gen::{generate_complete, GenConfig};
use jitbull_jit::engine::{Engine, EngineConfig};
use jitbull_jit::pipeline::DISABLEABLE;
use jitbull_mir::SlotSet;
use jitbull_workloads::workload;

fn run(source: &str, disabled: SlotSet) -> Vec<String> {
    Engine::run_source(
        source,
        EngineConfig {
            baseline_threshold: 3,
            ion_threshold: 6,
            fuel: 3_000_000,
            disabled_slots: disabled,
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
        let baseline = run(&source, SlotSet::new());
        for slot in DISABLEABLE.iter() {
            let got = run(&source, SlotSet::from_iter([slot]));
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
    for name in ["Crypto", "Splay", "Gameboy", "Microbench2"] {
        let w = workload(name).expect("workload exists");
        let full = run(&w.source, SlotSet::new());
        let stripped = run(&w.source, DISABLEABLE);
        assert_eq!(full, stripped, "{name}: stripped pipeline diverged");
    }
}

#[test]
fn stripped_pipeline_is_slower_but_still_beats_no_jit() {
    let w = workload("Crypto").expect("workload exists");
    let cycles = |disabled: SlotSet, jit: bool| {
        Engine::run_source(
            &w.source,
            EngineConfig {
                jit_enabled: jit,
                disabled_slots: disabled,
                ..Default::default()
            },
        )
        .unwrap()
        .outcome
        .cycles
    };
    let full = cycles(SlotSet::new(), true);
    let stripped = cycles(DISABLEABLE, true);
    let nojit = cycles(SlotSet::new(), false);
    assert!(
        full <= stripped,
        "optimizations must help ({full} vs {stripped})"
    );
    assert!(
        stripped < nojit,
        "even a stripped JIT beats the interpreter ({stripped} vs {nojit})"
    );
}
