//! Wall-clock bench for the Δ-extractor: one workload run per extractor
//! mode (naive Algorithm 1 reference vs incremental + memo), the
//! repeat-compilation memo-hit scenario, and a kernel microbench of the
//! extractor itself. The paper-grade metric is the deterministic
//! simulated-cycle count, printed alongside; wall-clock measures the host
//! cost of running the simulator.

use jitbull::{DnaMemo, ExtractorMode, IncrementalExtractor, MemoEntry};
use jitbull_bench::figures::{db_with, run_tuned};
use jitbull_bench::timing::bench;
use jitbull_frontend::parse_program;
use jitbull_jit::pipeline::{optimize, OptimizeOptions, N_SLOTS};
use jitbull_jit::VulnConfig;
use jitbull_mir::{build_mir, CompileKey};
use jitbull_vm::compile_program;
use jitbull_workloads::workload;

fn main() {
    let w = workload("Splay").expect("workload exists");
    let (db, vulns) = db_with(4);

    // First-compile path: fresh memo per iteration, so the incremental
    // win is pure structural diffing (unchanged passes skipped), not
    // memoization.
    println!("fig_extract_splay_first_compile");
    let mut first_cycles = [0u64; 2];
    for (i, mode) in [ExtractorMode::Reference, ExtractorMode::Incremental]
        .into_iter()
        .enumerate()
    {
        let tag = match mode {
            ExtractorMode::Reference => "ref",
            ExtractorMode::Incremental => "inc",
        };
        let run = || run_tuned(&w, &db, &vulns, |g| g.set_extractor_mode(mode));
        first_cycles[i] = run().analysis_cycles;
        bench(&format!("first_compile_{tag}"), 2, 10, run);
    }
    let first_speedup = first_cycles[0] as f64 / first_cycles[1].max(1) as f64;
    println!(
        "analysis_cycles ref={} inc={} speedup={first_speedup:.2}x",
        first_cycles[0], first_cycles[1],
    );
    assert!(
        first_speedup >= 2.0,
        "first-compile extraction speedup floor violated: {first_speedup:.2}x < 2x"
    );

    // Repeat-compilation path: one shared memo; the first run pays the
    // extractions, every later run of the same program hits the memo.
    println!("fig_extract_splay_repeat_compile");
    let memo = DnaMemo::default();
    let repeat = || run_tuned(&w, &db, &vulns, |g| g.set_dna_memo(memo.clone()));
    let cold = repeat().analysis_cycles;
    let warm = repeat().analysis_cycles;
    bench("repeat_compile_memo_warm", 2, 10, repeat);
    let repeat_speedup = cold as f64 / warm.max(1) as f64;
    println!("analysis_cycles cold={cold} memo_warm={warm} speedup={repeat_speedup:.2}x");
    assert!(
        repeat_speedup >= 2.0,
        "repeat-compilation memo speedup floor violated: {repeat_speedup:.2}x < 2x"
    );

    // Extractor kernel in isolation: one traced Ion compilation of a
    // guarded array loop, digested by each implementation.
    println!("extract_kernel_sum_loop");
    let src =
        "function f(a, n) { var t = 0; for (var i = 0; i < n; i++) { t += a[i]; } return t; }";
    let program = parse_program(src).expect("parses");
    let module = compile_program(&program).expect("compiles");
    let fid = module.function_id("f").expect("function exists");
    let mir = build_mir(&module, fid).expect("mir builds");
    let result = optimize(
        mir,
        &VulnConfig::none(),
        &OptimizeOptions {
            trace: true,
            ..Default::default()
        },
    );
    let trace = result.trace;
    bench("reference_walk", 20, 100, || {
        jitbull::extract_dna(&trace, N_SLOTS)
    });
    bench("incremental_cold", 20, 100, || {
        IncrementalExtractor::new().extract_dna(&trace, N_SLOTS)
    });
    let mut warm_extractor = IncrementalExtractor::new();
    warm_extractor.extract_dna(&trace, N_SLOTS);
    bench("incremental_warm_runs", 20, 100, || {
        warm_extractor.extract_dna(&trace, N_SLOTS)
    });
    let memo = DnaMemo::default();
    let key = || CompileKey::new(module.function(fid), Vec::new(), N_SLOTS, 0);
    let (dna, _) = IncrementalExtractor::new().extract_dna(&trace, N_SLOTS);
    let pre_mir_len = trace.initial.len();
    let entry = MemoEntry {
        dna,
        pre_mir_len,
        verdict: None,
    };
    memo.insert(key(), entry);
    bench("memo_hit", 20, 100, || {
        memo.lookup(&key(), None).expect("memoized")
    });
}
