//! The policy's third scenario holds whatever `EngineConfig::disabled_slots`
//! contains: a mandatory slot still runs when the configuration names it,
//! so a dangerous one still gets the function no-go.
//!
//! The fixture's `f` has a constant branch: FoldTests (slot 12) folds it
//! and the mandatory PruneUnreachable (slot 13) then removes the dead
//! arm. The database holds one entry, `f`'s own slot-13 delta.

use jitbull::{extract_dna, CompareConfig, Dna, DnaDatabase, Guard};
use jitbull_frontend::parse_program;
use jitbull_jit::engine::{Engine, EngineConfig, FunctionStats, TierStats};
use jitbull_jit::pipeline::{compile, slot, CompileInput, OptimizeOptions, DISABLEABLE};
use jitbull_jit::VulnConfig;
use jitbull_mir::SlotSet;
use jitbull_vm::compile_program;

const SOURCE: &str = "function f(a, b) { var x = a + b; if (1 > 2) { x = x * b + a; } else { x = x - a; } return x + b * a; }
var s = 0; for (var i = 0; i < 200; i++) { s = s + f(i, 2); } print(s);";

/// A database holding `f`'s slot-13 delta and nothing else.
fn prune_entry_db() -> DnaDatabase {
    let module = compile_program(&parse_program(SOURCE).unwrap()).unwrap();
    let function = module.function(module.function_id("f").unwrap());
    let vulns = VulnConfig::none();
    let traced = OptimizeOptions {
        trace: true,
        ..OptimizeOptions::default()
    };
    let result = compile(
        &CompileInput::new(function, SlotSet::new(), &vulns),
        &traced,
    )
    .unwrap();
    let mut dna = Dna::default();
    dna.deltas[slot::PRUNE_2] = extract_dna(&result.trace).deltas[slot::PRUNE_2].clone();
    let mut db = DnaDatabase::new();
    db.install("CVE-PRUNE", "f", dna);
    assert_eq!(db.len(), 1, "the slot-13 delta is not trivial");
    db
}

/// `f`'s statistics after one guarded run with `disabled` configured.
fn run_f(disabled: SlotSet) -> FunctionStats {
    let config = EngineConfig {
        disabled_slots: disabled,
        ..EngineConfig::fast_test()
    };
    let mut engine = Engine::with_guard(
        config,
        Guard::new(prune_entry_db(), CompareConfig::default()),
    );
    engine.run_source_with(SOURCE).unwrap();
    let module = compile_program(&parse_program(SOURCE).unwrap()).unwrap();
    let stats = engine.function_stats(&module);
    stats.into_iter().find(|s| s.name == "f").unwrap()
}

#[test]
fn a_configured_mandatory_slot_still_gets_a_dangerous_function_no_go() {
    assert!(!DISABLEABLE.contains(slot::PRUNE_2), "slot 13 is mandatory");
    let plain = run_f(SlotSet::new());
    assert_eq!(plain.tier, TierStats::NoIon, "scenario 3");
    assert_eq!(plain.disabled_slots, SlotSet::from_iter([slot::PRUNE_2]));
    assert_eq!(plain.matched, [("CVE-PRUNE".to_owned(), "f".to_owned())]);
    let configured = run_f(SlotSet::from_iter([slot::PRUNE_2]));
    assert_eq!(configured.tier, plain.tier);
    assert_eq!(configured.disabled_slots, plain.disabled_slots);
    assert_eq!(configured.matched, plain.matched);
}
