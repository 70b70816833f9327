//! Developer tool: dump the per-slot JIT DNA of named functions in a
//! workload or VDC (helps when tuning triggers or diagnosing matches).

use jitbull::dna::chain_text;
use jitbull::extract_dna;
use jitbull_frontend::parse_program;
use jitbull_jit::pipeline::{compile, CompileInput, OptimizeOptions};
use jitbull_jit::VulnConfig;
use jitbull_mir::SlotSet;
use jitbull_vm::compile_program;

fn dump(src: &str, which: &str, vulns: &VulnConfig) {
    let p = parse_program(src).unwrap();
    let m = compile_program(&p).unwrap();
    for f in &m.functions {
        if f.name == "<main>" {
            continue;
        }
        if !which.is_empty() && f.name != which {
            continue;
        }
        let traced = OptimizeOptions {
            trace: true,
            ..Default::default()
        };
        let r = compile(&CompileInput::new(f, SlotSet::new(), vulns), &traced).unwrap();
        let dna = extract_dna(&r.trace);
        println!("--- fn {}", f.name);
        for (s, d) in dna.deltas.iter().enumerate() {
            if !d.is_empty() {
                println!("  slot {s}: -{} +{}", d.removed.len(), d.added.len());
                for c in d.removed.iter().take(6) {
                    println!("    - {}", chain_text(c));
                }
                for c in d.added.iter().take(6) {
                    println!("    + {}", chain_text(c));
                }
            }
        }
    }
}

fn main() {
    let v4 = VulnConfig::with([jitbull_jit::CveId::Cve2019_17026]);
    println!("===== Crypto stream (benign, vulnerable engine) =====");
    dump(
        &jitbull_workloads::workload("Crypto").unwrap().source,
        "stream",
        &v4,
    );
    println!("===== Splay insert =====");
    dump(
        &jitbull_workloads::workload("Splay").unwrap().source,
        "insert",
        &v4,
    );
    println!("===== 17026 VDC trigger =====");
    dump(
        &jitbull_vdc::vdc(jitbull_jit::CveId::Cve2019_17026).source,
        "shrink_smash",
        &v4,
    );
}
