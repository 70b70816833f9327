//! Wall-clock bench for the optimizing compile path: the traced pass
//! pipeline and the incremental Δ-extractor, timed separately and in
//! process, over two script sets:
//!
//! * the serving mix (`jitbull_workloads::serving_mix()`);
//! * `serve_unique`-shaped scripts: the first [`UNIQUE_SCRIPTS`] scripts
//!   of seed [`SEED`] from the generator `perfbench` serves, read from
//!   `perfbench/src/gen.rs` so both use the same shapes.
//!
//! Every function of every script is compiled once per repetition with
//! tracing on (the engine's defaults: every modeled vulnerability on, no
//! slot skipped), and each trace is then extracted by a fresh
//! `IncrementalExtractor`. The two stages alternate, and the fastest of
//! [`REPS`] repetitions of each is reported as microseconds per script.
//! Wall time depends on the host and is printed, never asserted; what is
//! asserted is that every repetition does the same work: the pipeline's
//! work units, and the extraction's DNA and simulated cycles. (That the
//! traces themselves repeat is `tests/compile_determinism.rs`'s job.)
//!
//! Run with `cargo bench -p jitbull-bench --bench compile_wall`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use jitbull::{Dna, IncrementalExtractor};
use jitbull_bench::render_table;
use jitbull_frontend::parse_program;
use jitbull_jit::engine::EngineConfig;
use jitbull_jit::pipeline::{compile, CompileInput, OptimizeOptions};
use jitbull_jit::VulnConfig;
use jitbull_mir::{PassTrace, SlotSet};
use jitbull_prng::Rng;
use jitbull_vm::bytecode::Module;
use jitbull_vm::compile_program;

#[path = "../../../perfbench/src/gen.rs"]
#[allow(dead_code, unused_imports)]
mod gen;

/// Repetitions per stage; the fastest is reported.
const REPS: usize = 10;
/// `serve_unique`-shaped scripts timed.
const UNIQUE_SCRIPTS: usize = 200;
/// The generator's seed.
const SEED: u64 = 1;

fn modules(sources: &[String]) -> Vec<Module> {
    sources
        .iter()
        .map(|s| compile_program(&parse_program(s).expect("parses")).expect("compiles"))
        .collect()
}

/// One traced compile of every function: the traces and the work units.
fn pipeline(modules: &[Module], vulns: &VulnConfig) -> (Vec<PassTrace>, u64) {
    let traced = OptimizeOptions {
        trace: true,
        ..OptimizeOptions::default()
    };
    let mut traces = Vec::new();
    let mut work = 0;
    for function in modules.iter().flat_map(|m| &m.functions) {
        let input = CompileInput::new(function, SlotSet::new(), vulns);
        let result = compile(&input, &traced).expect("builds MIR");
        work += result.work;
        traces.push(result.trace);
    }
    (traces, work)
}

/// One extraction of every trace: the DNA and the simulated cycles.
fn extract(traces: &[PassTrace]) -> (Vec<Dna>, u64) {
    let mut extractor = IncrementalExtractor::new();
    let mut cycles = 0;
    let dna = traces
        .iter()
        .map(|trace| {
            let (dna, receipt) = extractor.extract_dna(trace);
            cycles += receipt.cost_cycles;
            dna
        })
        .collect();
    (dna, cycles)
}

fn timed<T>(run: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = black_box(run());
    (out, start.elapsed())
}

fn micros_per_script(d: Duration, scripts: usize) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6 / scripts as f64)
}

fn main() {
    let vulns = EngineConfig::default().vulns;
    let mix: Vec<String> = jitbull_workloads::serving_mix()
        .into_iter()
        .map(|w| w.source)
        .collect();
    let mut rng = Rng::seed_from_u64(SEED);
    let unique: Vec<String> = (0..UNIQUE_SCRIPTS).map(|_| gen::script(&mut rng)).collect();
    let mut rows = Vec::new();
    for (name, sources) in [("serving mix", mix), ("serve_unique shape", unique)] {
        let modules = modules(&sources);
        let (traces, work) = pipeline(&modules, &vulns);
        let (dna, cycles) = extract(&traces);
        let (mut best_pipeline, mut best_extract) = (Duration::MAX, Duration::MAX);
        for _ in 0..REPS {
            let ((_, again_work), wall) = timed(|| pipeline(&modules, &vulns));
            assert_eq!(again_work, work, "{name}: pipeline work changed");
            best_pipeline = best_pipeline.min(wall);
            let ((again, again_cycles), wall) = timed(|| extract(&traces));
            assert_eq!(again_cycles, cycles, "{name}: extraction cycles changed");
            assert!(again == dna, "{name}: DNA changed");
            best_extract = best_extract.min(wall);
        }
        rows.push(vec![
            name.to_owned(),
            sources.len().to_string(),
            traces.len().to_string(),
            micros_per_script(best_pipeline, sources.len()),
            micros_per_script(best_extract, sources.len()),
            work.to_string(),
            cycles.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "script set",
                "scripts",
                "functions",
                "pipeline us/script",
                "extract us/script",
                "work",
                "extract cycles",
            ],
            &rows,
        )
    );
}
