//! Wall-clock bench for the optimizing tier's executor: every
//! `all_workloads()` program at default tier thresholds, JIT off and JIT
//! on interleaved, best of `REPS` per configuration.
//!
//! Prints host milliseconds per configuration, the JIT/no-JIT wall-clock
//! ratio and the executed ops. Wall-clock is reported, never asserted (it
//! depends on the host); what is asserted is that every repetition of a
//! configuration executes exactly the same ops and cycles, since the cycle
//! model is deterministic.
//!
//! Run with `cargo bench -p jitbull-bench --bench exec_wall`.

use std::time::{Duration, Instant};

use jitbull_bench::render_table;
use jitbull_jit::engine::EngineConfig;
use jitbull_workloads::{all_workloads, run_workload, Workload};

/// Repetitions per configuration; the fastest is reported.
const REPS: usize = 3;

/// Best wall time plus the (repetition-invariant) ops and cycles.
struct Best {
    wall: Duration,
    ops: u64,
    cycles: u64,
}

fn time_once(w: &Workload, jit: bool, best: &mut Option<Best>) {
    let config = EngineConfig {
        jit_enabled: jit,
        ..EngineConfig::default()
    };
    let start = Instant::now();
    let m = run_workload(w, config, None).expect("workloads are benign");
    let wall = start.elapsed();
    match best {
        None => {
            *best = Some(Best {
                wall,
                ops: m.ops,
                cycles: m.cycles,
            })
        }
        Some(b) => {
            assert_eq!(
                (b.ops, b.cycles),
                (m.ops, m.cycles),
                "{} (jit {jit}): ops/cycles changed between repetitions",
                w.name
            );
            b.wall = b.wall.min(wall);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let mut rows = Vec::new();
    let (mut off_total, mut on_total) = (Duration::ZERO, Duration::ZERO);
    for w in all_workloads() {
        let (mut off, mut on) = (None, None);
        for _ in 0..REPS {
            time_once(&w, false, &mut off);
            time_once(&w, true, &mut on);
        }
        let (off, on) = (off.expect("REPS > 0"), on.expect("REPS > 0"));
        off_total += off.wall;
        on_total += on.wall;
        rows.push(vec![
            w.name.to_owned(),
            format!("{:.1}", ms(off.wall)),
            format!("{:.1}", ms(on.wall)),
            format!("{:.2}", ms(on.wall) / ms(off.wall)),
            off.ops.to_string(),
            on.ops.to_string(),
        ]);
    }
    rows.push(vec![
        "total".to_owned(),
        format!("{:.1}", ms(off_total)),
        format!("{:.1}", ms(on_total)),
        format!("{:.2}", ms(on_total) / ms(off_total)),
        String::new(),
        String::new(),
    ]);
    println!("exec_wall (best of {REPS}, JIT off/on interleaved)");
    print!(
        "{}",
        render_table(
            &[
                "workload",
                "nojit ms",
                "jit ms",
                "jit/nojit",
                "nojit ops",
                "jit ops"
            ],
            &rows,
        )
    );
}
