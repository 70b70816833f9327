//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p jitbull-bench --release --bin repro -- all
//! cargo run -p jitbull-bench --release --bin repro -- table1
//! cargo run -p jitbull-bench --release --bin repro -- fig5
//! ```

use jitbull_bench::{ablation, chaos_bench, figures, obs, registry, render_table, security};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    match what {
        "table1" => table1(),
        "window" => window(),
        "security" => security(),
        "fig4" => fig4(),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "ablation" => ablation(),
        "ablation-policy" => ablation_policy(),
        "fuzz" => fuzz(),
        "obs" => observability(),
        "serve" => serve(),
        "chaos" => chaos(),
        "all" => {
            table1();
            window();
            security();
            fig4();
            fig5();
            fig6();
            ablation();
            ablation_policy();
            fuzz();
            observability();
            serve();
            chaos();
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!("usage: repro [table1|window|security|fig4|fig5|fig6|ablation|ablation-policy|fuzz|obs|serve|chaos|all]");
            std::process::exit(2);
        }
    }
}

fn heading(title: &str) {
    println!("\n=== {title} ===\n");
}

fn table1() {
    heading("Table I — JIT-engine vulnerability survey (VDC available = bolded in paper)");
    let rows: Vec<Vec<String>> = registry::table1()
        .iter()
        .map(|r| {
            vec![
                r.target.name().to_string(),
                r.id.to_string(),
                if r.has_vdc { "yes" } else { "-" }.to_string(),
                format!("{:.1}", r.cvss),
            ]
        })
        .collect();
    print!("{}", render_table(&["target", "cve", "vdc", "cvss"], &rows));
}

fn window() {
    heading("§III-C — vulnerability-window statistics (IonMonkey)");
    let s = registry::window_stats();
    println!("average window     : {:.1} days", s.average_days);
    println!(
        "longest window     : {} ({} days)",
        s.longest.0, s.longest.1
    );
    println!(
        "shortest window    : {} ({} days)",
        s.shortest.0, s.shortest.1
    );
    println!(
        "max concurrent 2019: {} ({})",
        s.max_concurrent_2019.0,
        s.max_concurrent_2019.1.join(", ")
    );
    println!("average CVSS       : {:.1}", s.average_cvss);
}

fn security() {
    heading("§VI-B — security evaluation (4 CVEs x PoC + 4 variants, + 17026 impl2)");
    let rows = security::security_eval();
    print!("{}", security::render(&rows));
}

fn fig4() {
    heading("Figure 4 — false-positive rates on harmless benchmarks (#1 vs #4 VDCs)");
    let rows = figures::fig4();
    print!("{}", figures::render_fig4(&rows));
}

fn fig5() {
    heading("Figure 5 — execution cycles: JIT / NoJIT / JITBULL #0 #1 #4");
    let rows = figures::fig5();
    print!("{}", figures::render_fig5(&rows));
}

fn fig6() {
    heading("Figure 6 — scalability with 1..8 VDCs in the database (overhead vs JIT)");
    let rows = figures::fig6(&jitbull_workloads::octane_analogues());
    print!("{}", figures::render_fig6(&rows));
    let sizes = [1usize, 2, 4, 8];
    println!("\ncomparator cost, naive (reference) vs indexed, analysis cycles:\n");
    let cmp = figures::fig6_comparator(&jitbull_workloads::octane_analogues(), &sizes);
    print!("{}", figures::render_fig6_comparator(&cmp, &sizes));
}

fn ablation() {
    heading("Ablation A1 — comparator thresholds (paper: Thr=3, Ratio=50%)");
    let points = ablation::threshold_sweep(&[1, 2, 3, 4, 5, 6, 8], &[0.25, 0.5, 0.75]);
    print!("{}", ablation::render_sweep(&points));
}

fn fuzz() {
    heading("Extension E1 — fuzzer-to-database loop (paper §IV-A threat model)");
    use jitbull::DnaDatabase;
    use jitbull_fuzzer::{install_until_neutralized, minimize, run_campaign};
    use jitbull_jit::VulnConfig;
    let vulns = VulnConfig::all();
    let report = run_campaign(0, 512, &vulns).expect("campaign runs");
    println!(
        "seeds run        : {} ({} finds, {} benign script errors)",
        report.executed,
        report.finds.len(),
        report.script_errors
    );
    let mut db = DnaDatabase::new();
    let mut neutralized = 0;
    let mut shrink_num = 0usize;
    let mut shrink_den = 0usize;
    for find in &report.finds {
        let min = minimize(find, &vulns);
        shrink_num += min.source.len();
        shrink_den += find.source.len();
        if install_until_neutralized(&mut db, &min, &vulns, 6).expect("triage") {
            neutralized += 1;
        }
    }
    println!(
        "triage loop      : {neutralized} / {} finds neutralized",
        report.finds.len()
    );
    println!(
        "minimization     : finds shrink to {:.0}% of original size on average",
        shrink_num as f64 * 100.0 / shrink_den.max(1) as f64
    );
    println!("database built   : {db}");
}

fn observability() {
    heading("Observability — engine/guard telemetry on the workload suite (JITBULL #4)");
    let workloads = jitbull_workloads::all_workloads();
    let (rows, slots) = obs::observe_workloads(&workloads, 4);
    print!("{}", obs::render_rows(&rows));
    println!("\ncycles by pipeline slot (whole suite, busiest first):\n");
    print!("{}", obs::render_slots(&slots));
    let (plain, observed) = obs::empty_db_overhead(&workloads[0]);
    println!(
        "\nempty-DB sanity ({}): plain JIT {plain} cycles, observed JITBULL#0 {observed} cycles (delta {})",
        workloads[0].name,
        observed as i64 - plain as i64
    );
    println!("\ncomparator cost, naive (reference) vs indexed, analysis cycles (#4 VDCs):\n");
    for w in &workloads {
        let (reference, indexed) = obs::comparator_cycles(w, 4);
        println!(
            "  {:<14} {reference} -> {indexed} ({:.1}x)",
            w.name,
            reference as f64 / indexed.max(1) as f64
        );
    }
    println!("\nextractor cost, naive (reference) vs incremental, analysis cycles (#4 VDCs):\n");
    for w in &workloads {
        let (reference, incremental) = obs::extractor_cycles(w, 4);
        println!(
            "  {:<14} {reference} -> {incremental} ({:.1}x)",
            w.name,
            reference as f64 / incremental.max(1) as f64
        );
    }

    // Recovery telemetry: run the deterministic fault ladder and surface
    // the chaos.* / recovery.* counters it produced.
    std::panic::set_hook(Box::new(|_| {}));
    let ladder = chaos_bench::ladder(42);
    println!(
        "\nchaos/recovery telemetry (fault ladder, seed {}, {} faults injected):",
        ladder.seed,
        ladder.injected()
    );
    for line in &ladder.telemetry {
        println!("  {line}");
    }
    let _ = std::panic::take_hook();
}

fn chaos() {
    heading("Chaos — deterministic fault ladder: every injected fault recovered");

    // Compile panics, worker panics, and deadline blowouts are the point
    // of the exercise; keep their backtraces out of the report.
    std::panic::set_hook(Box::new(|_| {}));

    let first = chaos_bench::ladder(42);
    let second = chaos_bench::ladder(42);
    print!("{}", chaos_bench::render_ladder(&first));
    println!(
        "\ninjected {} / recovered {} ({})",
        first.injected(),
        first.recovered(),
        if first.all_recovered() {
            "100% — zero stale verdicts, zero lost tickets"
        } else {
            "RECOVERY GAP"
        }
    );
    println!("\nper-kind fault tally:");
    for (kind, n) in &first.tally.counts {
        println!("  {kind:<18} {n}");
    }
    println!(
        "\ndeterminism: second run with seed {} is {}",
        first.seed,
        if first == second {
            "identical (same faults, same tallies, same evidence)"
        } else {
            "DIFFERENT"
        }
    );
    println!("\nrecovery telemetry (chaos.* / recovery.* metrics):");
    for line in &first.telemetry {
        println!("  {line}");
    }
    assert!(
        first.all_recovered(),
        "fault ladder left faults unrecovered"
    );
    assert_eq!(first, second, "fault ladder is not deterministic");
}

fn serve() {
    heading("Serving layer — jitbull-pool under load with a mid-traffic VDC hot-swap");
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    use jitbull::{CompareConfig, DnaDatabase};
    use jitbull_jit::engine::EngineConfig;
    use jitbull_jit::CveId;
    use jitbull_pool::{Pool, PoolConfig, Request, SharedCollector};
    use jitbull_telemetry::Recorder;
    use jitbull_vdc::{build_database, vdc};

    // Injected worker panics are part of the demonstration; keep their
    // backtraces out of the report.
    std::panic::set_hook(Box::new(|_| {}));

    let recorder = Arc::new(Mutex::new(Recorder::new()));
    let collector: SharedCollector = Arc::clone(&recorder) as SharedCollector;
    let pool = Pool::with_collector(
        PoolConfig {
            workers: 4,
            capacity: 8,
            // Permissive thresholds (the repo's test convention) so the
            // honest ServeArray false positive flips verdict after the swap.
            compare: CompareConfig { thr: 1, ratio: 0.5 },
            ..PoolConfig::default()
        },
        DnaDatabase::new(),
        collector,
    );
    let mix = jitbull_workloads::serving_mix();
    let request = |name: &str| {
        let w = mix.iter().find(|w| w.name == name).expect("mix workload");
        Request::new(w.source.clone()).with_config(EngineConfig::fast_test())
    };

    // Phase 1 — empty database: zero-overhead serving, no matches.
    let before: Vec<_> = (0..8)
        .filter_map(|i| pool.submit(request(mix[i % mix.len()].name)).ok())
        .collect();
    let mut pre_matches = 0usize;
    for t in before {
        if let Ok(r) = t.wait() {
            pre_matches += r.matched_cves.len();
        }
    }
    println!("phase 1 (no VDC DNA): {pre_matches} matches across 8 requests");

    // Hot-swap: CVE-2019-17026's window opens mid-traffic. The update
    // travels in the maintainer wire format, exercising the typed-error
    // reload path.
    let update = build_database(&[vdc(CveId::Cve2019_17026)])
        .expect("vdc database builds")
        .to_text();
    let empty_generation = pool.published().generation();
    let swap_generation = pool.reload_from_text(&update).expect("well-formed update");
    println!(
        "hot-swap published generation {swap_generation} (database was empty at generation {empty_generation})"
    );

    // Phase 2 — every post-swap ServeArray response must reflect the new
    // database: generation >= swap generation and the honest false
    // positive flagged.
    let after: Vec<_> = (0..8)
        .filter_map(|_| pool.submit(request("ServeArray")).ok())
        .collect();
    let (mut post, mut flagged, mut stale) = (0usize, 0usize, 0usize);
    for t in after {
        if let Ok(r) = t.wait() {
            post += 1;
            if r.matched_cves.iter().any(|c| c == "CVE-2019-17026") {
                flagged += 1;
            }
            if r.db_generation < swap_generation {
                stale += 1;
            }
        }
    }
    println!(
        "phase 2 (post-swap ServeArray): {flagged}/{post} flagged CVE-2019-17026, {stale} served from a stale snapshot"
    );

    // Phase 3 — degradation ladder: an overload burst (queue capacity 8),
    // zero-deadline requests that fall back to the interpreter, and two
    // injected worker panics.
    let burst: Vec<_> = (0..32)
        .map(|i| pool.submit(request(mix[i % mix.len()].name)))
        .filter_map(Result::ok)
        .collect();
    for t in burst {
        let _ = t.wait();
    }
    let late: Vec<_> = (0..4)
        .filter_map(|_| {
            pool.submit(request("ServeArith").with_deadline(Duration::ZERO))
                .ok()
        })
        .collect();
    for t in late {
        let _ = t.wait();
    }
    for _ in 0..2 {
        if let Ok(t) = pool.submit(Request::new("print(0);").with_chaos_panic()) {
            let _ = t.wait();
        }
    }
    // One post-panic request proves the pool still serves.
    let alive = pool
        .submit(request("ServeArith"))
        .ok()
        .and_then(|t| t.wait().ok())
        .is_some();

    let stats = pool.shutdown();
    println!("\npool counters:");
    println!("  submitted        : {}", stats.submitted);
    println!("  rejected (overload): {}", stats.rejected);
    println!("  served           : {}", stats.served);
    println!("  degraded (no-JIT fallback): {}", stats.degraded);
    println!("  worker restarts  : {}", stats.worker_restarts);
    println!("  hot-swaps        : {}", stats.hotswaps);
    println!(
        "  busy cycles/worker: {:?} (balance {:.2}x of {} workers)",
        stats.worker_cycles,
        stats.cycle_speedup(),
        stats.worker_cycles.len()
    );
    println!(
        "  serving after panics: {}",
        if alive { "yes" } else { "NO" }
    );

    let rec = recorder.lock().unwrap();
    println!("\ntelemetry (pool.* metrics):");
    for line in jitbull_telemetry::export_text(&rec)
        .lines()
        .filter(|l| l.contains("pool."))
    {
        println!("{line}");
    }
}

fn ablation_policy() {
    heading("Ablation A2 — per-pass policy vs whole-JIT-per-function policy (4 VDCs)");
    let rows = ablation::policy_ablation();
    print!("{}", ablation::render_policy(&rows));
}
