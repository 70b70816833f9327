//! Developer tool: when a workload's JIT output diverges from the
//! interpreter, find the minimal set of pipeline slots whose disabling
//! fixes it (ddmin over `EngineConfig::disabled_slots`).

use jitbull_jit::engine::{Engine, EngineConfig};
use jitbull_jit::pipeline::PIPELINE;
use jitbull_mir::{SlotSet, N_SLOTS};

fn run(src: &str, jit: bool, disabled: SlotSet) -> Vec<String> {
    Engine::run_source(
        src,
        EngineConfig {
            jit_enabled: jit,
            disabled_slots: disabled,
            ..Default::default()
        },
    )
    .map(|o| o.outcome.printed)
    .unwrap_or_else(|e| vec![format!("ERR {e}")])
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "RayTrace".into());
    let w = jitbull_workloads::workload(&name).expect("workload");
    let want = run(&w.source, false, SlotSet::new());
    let got = run(&w.source, true, SlotSet::new());
    println!("interp: {want:?}\njit   : {got:?}");
    if want == got {
        println!("no divergence");
        return;
    }
    // Disable one slot at a time and see which single-slot removal fixes it.
    for (i, slot) in PIPELINE.iter().enumerate() {
        if run(&w.source, true, SlotSet::from_iter([i])) == want {
            println!("slot {i:2} {} -> disabling FIXES the divergence", slot.name);
        }
    }
    // ddmin: find a minimal disabled-set that fixes the divergence.
    let mut disabled: SlotSet = (0..N_SLOTS).collect();
    assert_eq!(
        run(&w.source, true, disabled),
        want,
        "even all-disabled diverges"
    );
    for slot in disabled.iter() {
        let trial = disabled.difference(SlotSet::from_iter([slot]));
        if run(&w.source, true, trial) == want {
            disabled = trial;
        }
    }
    println!("minimal disabled set that fixes it:");
    for i in disabled.iter() {
        println!("  slot {i:2} {}", PIPELINE[i].name);
    }
}
