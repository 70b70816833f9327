//! Inspect a function's JIT DNA: the per-pass removed/added dependency
//! sub-chains the Δ extractor produces (paper §IV-D, Listing 1 /
//! Algorithm 1).
//!
//! ```text
//! cargo run --release --example dna_inspect
//! ```

use jitbull::dna::chain_text;
use jitbull::extract_dna;
use jitbull_frontend::parse_program;
use jitbull_jit::pipeline::{compile, CompileInput, OptimizeOptions, PIPELINE};
use jitbull_jit::{CveId, VulnConfig};
use jitbull_mir::{build_mir, SlotSet};
use jitbull_vm::compile_program;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = r#"
        function hot(arr, idx, v) {
            arr.length = 8;
            arr[idx] = v;
            return arr[0];
        }
    "#;
    let program = parse_program(source)?;
    let module = compile_program(&program)?;
    let fid = module.function_id("hot").expect("declared above");

    // Print the freshly built MIR — the paper's Listing-1 view.
    let mir = build_mir(module.function(fid))?;
    println!("== MIR before optimization ==\n{mir}");

    for (label, vulns) in [
        ("patched engine", VulnConfig::none()),
        (
            "engine vulnerable to CVE-2019-17026",
            VulnConfig::with([CveId::Cve2019_17026]),
        ),
    ] {
        let input = CompileInput::new(module.function(fid), SlotSet::new(), &vulns);
        let traced = OptimizeOptions {
            trace: true,
            ..Default::default()
        };
        let result = compile(&input, &traced)?;
        let dna = extract_dna(&result.trace);
        println!("== JIT DNA on {label} ==");
        for (slot, delta) in dna.deltas.iter().enumerate() {
            if delta.is_empty() {
                continue;
            }
            println!("  pass {slot:2} ({}):", PIPELINE[slot].name);
            for chain in &delta.removed {
                println!("    - {}", chain_text(chain));
            }
            for chain in &delta.added {
                println!("    + {}", chain_text(chain));
            }
        }
        if !result.triggered.is_empty() {
            println!("  !! incorrect transforms fired: {:?}", result.triggered);
        }
        println!();
    }
    Ok(())
}
