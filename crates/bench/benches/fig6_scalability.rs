//! Wall-clock bench for the Figure-6 database-size sweep on one workload,
//! run once per comparator mode (naive reference vs indexed pipeline),
//! plus a kernel microbench of the comparator itself.

use jitbull::{ComparatorIndex, ComparatorMode, CompareConfig};
use jitbull_bench::figures::db_with;
use jitbull_bench::timing::bench;
use jitbull_jit::engine::EngineConfig;
use jitbull_workloads::{run_workload, workload};

fn main() {
    let w = workload("Splay").expect("workload exists");
    println!("fig6_splay_db_size");
    for mode in [ComparatorMode::Reference, ComparatorMode::Indexed] {
        let tag = match mode {
            ComparatorMode::Reference => "ref",
            ComparatorMode::Indexed => "idx",
        };
        for n in [1usize, 2, 4, 8] {
            let (db, vulns) = db_with(n);
            bench(&format!("db_size_{n}_{tag}"), 2, 10, || {
                run_workload(
                    &w,
                    EngineConfig {
                        vulns: vulns.clone(),
                        comparator: mode,
                        ..Default::default()
                    },
                    Some(db.clone()),
                )
                .unwrap()
            });
        }
    }

    // Comparator kernel in isolation: one DNA queried against the full
    // 8-entry database, naive loop vs indexed scan.
    println!("comparator_kernel_db8");
    let (db, _) = db_with(8);
    let query = db.entries()[0].dna.clone();
    let config = CompareConfig::default();
    bench("reference_loop", 50, 200, || {
        db.entries()
            .iter()
            .map(|e| jitbull::compare::reference(&query, &e.dna, &config).len())
            .sum::<usize>()
    });
    bench("indexed_build", 50, 200, || {
        let mut index = ComparatorIndex::default();
        index.ensure(&db);
        index
    });
    let mut index = ComparatorIndex::default();
    index.ensure(&db);
    bench("indexed_scan", 50, 200, || index.query(&query, &config));
}
