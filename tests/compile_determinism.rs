//! The optimizing compile path is deterministic: compiling the same
//! function twice — the second time on another thread — takes the same
//! pass snapshots, extracts the same DNA and lowers to a frame of the
//! same size.
//!
//! The pipeline's per-instruction side tables are indexed by id and
//! iterate in id order, so no pass output depends on a hasher's seed,
//! which differs between threads and between the tables of one thread.
//! A pass that walked a seeded hash table to decide its output (the
//! order LICM hoists a loop's instructions in, say) would show here as
//! two traces of one function that differ.

use jitbull::{extract_dna, Dna, IncrementalExtractor};
use jitbull_frontend::parse_program;
use jitbull_jit::engine::EngineConfig;
use jitbull_jit::pipeline::{compile, CompileInput, OptimizeOptions};
use jitbull_mir::{PassTrace, SlotSet};
use jitbull_vm::compile_program;

/// One function's compile: its trace, its DNA from both extractors and
/// its lowered frame size (`None` when the pipeline broke the graph).
#[derive(Debug, PartialEq)]
struct Compiled {
    name: String,
    trace: PassTrace,
    dna: Dna,
    incremental_dna: Dna,
    frame_size: Option<u32>,
}

/// Every workload and serving-mix script: `(name, source)`.
fn sources() -> Vec<(String, String)> {
    let mut workloads = jitbull_workloads::all_workloads();
    workloads.extend(jitbull_workloads::serving_mix());
    workloads
        .into_iter()
        .map(|w| (w.name.to_owned(), w.source))
        .collect()
}

/// Compiles every function of every source with the engine's default
/// vulnerability models on, so the models' own loop and guard walks run
/// too.
fn compile_all(sources: &[(String, String)]) -> Vec<Compiled> {
    let vulns = EngineConfig::default().vulns;
    let traced = OptimizeOptions {
        trace: true,
        ..OptimizeOptions::default()
    };
    let mut extractor = IncrementalExtractor::new();
    let mut out = Vec::new();
    for (name, source) in sources {
        let module = compile_program(&parse_program(source).expect("parses")).expect("compiles");
        for function in &module.functions {
            let input = CompileInput::new(function, SlotSet::new(), &vulns);
            let result = compile(&input, &traced).expect("builds MIR");
            let (incremental_dna, _) = extractor.extract_dna(&result.trace);
            let frame_size = result
                .broken
                .is_none()
                .then(|| jitbull_lir::compile(&result.mir).frame_size);
            out.push(Compiled {
                name: format!("{name}::{}", function.name),
                dna: extract_dna(&result.trace),
                trace: result.trace,
                incremental_dna,
                frame_size,
            });
        }
    }
    out
}

#[test]
fn compiles_repeat_exactly_across_threads() {
    let sources = sources();
    let here = compile_all(&sources);
    let there = std::thread::scope(|s| {
        s.spawn(|| compile_all(&sources))
            .join()
            .expect("the second compile does not panic")
    });
    assert_eq!(here.len(), there.len());
    assert!(here.len() > 20, "only {} functions compiled", here.len());
    for (a, b) in here.iter().zip(&there) {
        assert_eq!(a.name, b.name);
        assert!(a.trace.initial == b.trace.initial, "{}", a.name);
        for (x, y) in a.trace.records.iter().zip(&b.trace.records) {
            assert!(
                x == y,
                "{}: slot {} ({}) leaves different IR in the two compiles",
                a.name,
                x.slot,
                x.name
            );
        }
        assert!(a.trace == b.trace, "{}: pass traces differ", a.name);
        assert_eq!(a.dna, b.dna, "{}: DNA differs", a.name);
        assert_eq!(a.dna, a.incremental_dna, "{}: extractors disagree", a.name);
        assert_eq!(a.incremental_dna, b.incremental_dna, "{}", a.name);
        assert_eq!(a.frame_size, b.frame_size, "{}: frame sizes differ", a.name);
    }
}
