//! Wall-clock bench for the core JITBULL operations: Δ extraction from a
//! trace and comparison against databases of increasing size — the raw
//! costs behind the paper's overhead figures.

use jitbull::{extract_dna, CompareConfig, Guard, Lookup};
use jitbull_bench::figures::db_with;
use jitbull_bench::timing::bench;
use jitbull_frontend::parse_program;
use jitbull_jit::pipeline::{compile, CompileInput, OptimizeOptions};
use jitbull_jit::VulnConfig;
use jitbull_mir::SlotSet;
use jitbull_vm::compile_program;

fn representative_trace() -> jitbull_mir::PassTrace {
    let w = jitbull_workloads::workload("Crypto").expect("workload");
    let p = parse_program(&w.source).unwrap();
    let m = compile_program(&p).unwrap();
    let fid = m.function_id("stream").unwrap();
    let vulns = VulnConfig::none();
    let traced = OptimizeOptions {
        trace: true,
        ..Default::default()
    };
    compile(
        &CompileInput::new(m.function(fid), SlotSet::new(), &vulns),
        &traced,
    )
    .unwrap()
    .trace
}

fn main() {
    let trace = representative_trace();
    bench("dna_extract_stream_fn", 5, 50, || extract_dna(&trace));
    println!("dna_analyze_by_db_size");
    for n in [1usize, 4, 8] {
        let (db, _) = db_with(n);
        let guard = Guard::new(db, CompareConfig::default());
        bench(&format!("db_size_{n}"), 5, 20, || {
            guard.analyze_compile(Lookup::default(), &trace, None)
        });
    }
}
