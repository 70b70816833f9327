//! Wall-clock bench for the Figure-5 configurations on one representative
//! workload: host time of the whole simulated stack per configuration.
//!
//! NOTE: wall-clock here measures the *host cost of running the
//! simulator* (the interpreter loop is cheaper per op for the host than
//! the LIR executor, so `nojit` can be faster in wall-clock).
//! The paper's metric is the deterministic simulated-cycle count, which
//! `repro -- fig5` reports.

use jitbull_bench::figures::db_with;
use jitbull_bench::timing::bench;
use jitbull_jit::engine::EngineConfig;
use jitbull_workloads::{run_workload, workload};

fn main() {
    let w = workload("Crypto").expect("workload exists");
    let (db1, vulns1) = db_with(1);
    let (db4, vulns4) = db_with(4);
    println!("fig5_crypto");
    bench("jit", 2, 10, || {
        run_workload(&w, EngineConfig::default(), None).unwrap()
    });
    bench("nojit", 2, 10, || {
        run_workload(
            &w,
            EngineConfig {
                jit_enabled: false,
                ..Default::default()
            },
            None,
        )
        .unwrap()
    });
    bench("jitbull_1", 2, 10, || {
        run_workload(
            &w,
            EngineConfig {
                vulns: vulns1.clone(),
                ..Default::default()
            },
            Some(db1.clone()),
        )
        .unwrap()
    });
    bench("jitbull_4", 2, 10, || {
        run_workload(
            &w,
            EngineConfig {
                vulns: vulns4.clone(),
                ..Default::default()
            },
            Some(db4.clone()),
        )
        .unwrap()
    });
}
