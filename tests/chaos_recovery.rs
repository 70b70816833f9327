//! Chaos-recovery integration: every self-healing mechanism holds its
//! guarantee under deterministic fault injection, and arming the
//! injector without firing it is cycle-neutral.
//!
//! The `#[ignore]` soak at the bottom sweeps many seeds at production
//! fault rates (CI runs it in release via `-- --ignored`).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use jitbull::{CompareConfig, DnaDatabase, Guard, LoadMode};
use jitbull_bench::chaos_bench;
use jitbull_chaos::retry::RetryPolicy;
use jitbull_chaos::{BreakerConfig, FaultInjector, FaultKind, FaultPlan, FaultSite, Quarantine};
use jitbull_jit::engine::{Engine, EngineConfig, TierStats};
use jitbull_jit::CveId;
use jitbull_pool::{Pool, PoolConfig, Request, Ticket};
use jitbull_telemetry::Recorder;
use jitbull_vdc::{build_database, vdc};

/// Same hot loop as the engine's own tier tests: `work` crosses the
/// fast-test Ion threshold and the script prints `15`.
const HOT: &str = "
    function work(a) { var t = 0; for (var i = 0; i < a.length; i++) { t = t + a[i]; } return t; }
    var arr = [1, 2, 3, 4, 5];
    var total = 0;
    for (var r = 0; r < 50; r++) { total = work(arr); }
    print(total);
";

const PERMISSIVE: CompareConfig = CompareConfig { thr: 1, ratio: 0.5 };

fn db_17026() -> DnaDatabase {
    build_database(&[vdc(CveId::Cve2019_17026)]).expect("vdc database builds")
}

fn serving_source(name: &str) -> String {
    jitbull_workloads::serving_mix()
        .iter()
        .find(|w| w.name == name)
        .expect("serving-mix workload")
        .source
        .clone()
}

// ---------------------------------------------------------------------
// No-fault overhead: the CI `no-fault-overhead` check.
// ---------------------------------------------------------------------

/// An injector that is armed (rules installed on every site, so each
/// hot-path check walks the rule list) but can never fire must leave the
/// simulated cycle counts bit-identical — plain and guarded.
#[test]
fn armed_idle_injector_is_cycle_neutral_over_serving_mix() {
    for p in chaos_bench::injector_overhead() {
        assert_eq!(
            p.disabled_cycles, p.armed_cycles,
            "{}: armed-idle injector perturbed plain engine cycles",
            p.workload
        );
        assert_eq!(
            p.guarded_disabled_cycles, p.guarded_armed_cycles,
            "{}: armed-idle injector perturbed guarded engine cycles",
            p.workload
        );
    }
}

// ---------------------------------------------------------------------
// Quarantine.
// ---------------------------------------------------------------------

/// Two compile panics strike the function into quarantine; it finishes
/// the run in a lower tier with the right answer, and a later engine
/// sharing the same quarantine never re-attempts the compile.
#[test]
fn two_compile_panics_quarantine_and_pin_no_go() {
    let inj = FaultInjector::from_plan(FaultPlan::new(9).script(
        FaultSite::PassRun,
        FaultKind::PassPanic,
        0,
        2,
    ));
    let quarantine = Quarantine::default();
    let out = Engine::new(EngineConfig {
        faults: inj.clone(),
        quarantine: quarantine.clone(),
        ..EngineConfig::fast_test()
    })
    .run_source_with(HOT)
    .expect("script still serves");
    assert_eq!(out.outcome.printed, vec!["15"]);
    assert_eq!(out.compile_failures, 2);
    assert_eq!(quarantine.strikes("work"), 2);
    assert!(quarantine.is_quarantined("work"));
    assert_eq!(inj.occurrences(FaultSite::PassRun), 2);

    // The pin outlives the engine: a fresh engine with a fully-armed
    // panic plan never reaches the pass (no occurrences consumed).
    let rearmed = FaultInjector::from_plan(FaultPlan::new(9).script(
        FaultSite::PassRun,
        FaultKind::PassPanic,
        0,
        u64::MAX,
    ));
    let again = Engine::new(EngineConfig {
        faults: rearmed.clone(),
        quarantine: quarantine.clone(),
        ..EngineConfig::fast_test()
    })
    .run_source_with(HOT)
    .expect("quarantined function serves without compiling");
    assert_eq!(again.outcome.printed, vec!["15"]);
    assert_eq!(again.compile_failures, 0);
    assert_eq!(rearmed.occurrences(FaultSite::PassRun), 0);
}

/// Strikes only grow: recovery never un-quarantines within a process.
#[test]
fn quarantine_is_monotonic() {
    let q = Quarantine::with_threshold(2);
    assert_eq!(q.strike("f"), 1);
    assert!(!q.is_quarantined("f"));
    assert_eq!(q.strike("f"), 2);
    assert!(q.is_quarantined("f"));
    q.strike("f");
    assert!(q.is_quarantined("f"));
    assert_eq!(q.quarantined(), vec!["f".to_string()]);
}

// ---------------------------------------------------------------------
// Watchdog.
// ---------------------------------------------------------------------

/// A stalled pass (250k extra work units) is charged at most the 25k
/// budget, the function is pinned interpreter-only, and the run still
/// prints the right answer.
#[test]
fn watchdog_caps_runaway_compilation_and_pins_interpreter() {
    let clean = Engine::run_source(HOT, EngineConfig::fast_test())
        .expect("clean run")
        .outcome
        .cycles;
    let budget = 25_000u64;
    let inj = FaultInjector::from_plan(FaultPlan::new(9).script(
        FaultSite::PassRun,
        FaultKind::PassStall {
            extra_work: 250_000,
        },
        0,
        1,
    ));
    let out = Engine::new(EngineConfig {
        faults: inj,
        watchdog_budget: Some(budget),
        ..EngineConfig::fast_test()
    })
    .run_source_with(HOT)
    .expect("script still serves");
    assert_eq!(out.outcome.printed, vec!["15"]);
    assert_eq!(out.watchdog_expiries, 1);
    let pinned = out
        .stats
        .iter()
        .find(|s| s.name == "work")
        .expect("work stats");
    assert_eq!(pinned.tier, TierStats::Interpreter);
    // The stall itself (250k) must not be charged — only the budget,
    // plus the slower interpreter-only execution of the pinned function.
    // A generous envelope that an uncapped charge would blow through:
    assert!(
        out.outcome.cycles < clean + budget + 200_000,
        "stalled run charged {} cycles vs {} clean — stall not capped",
        out.outcome.cycles,
        clean
    );
}

// ---------------------------------------------------------------------
// IR corruption.
// ---------------------------------------------------------------------

/// An injected IR corruption is caught by the post-pass coherency check;
/// the broken graph is abandoned before execution and the function runs
/// in a safe tier.
#[test]
fn ir_corruption_is_caught_before_execution() {
    let inj = FaultInjector::from_plan(FaultPlan::new(9).script(
        FaultSite::PassRun,
        FaultKind::IrCorrupt,
        0,
        1,
    ));
    let out = Engine::new(EngineConfig {
        faults: inj,
        ..EngineConfig::fast_test()
    })
    .run_source_with(HOT)
    .expect("script still serves");
    assert_eq!(out.outcome.printed, vec!["15"]);
    assert_eq!(out.compile_failures, 1);
    let stats = out
        .stats
        .iter()
        .find(|s| s.name == "work")
        .expect("work stats");
    assert_eq!(stats.tier, TierStats::NoIon);
}

// ---------------------------------------------------------------------
// Circuit breaker (pool).
// ---------------------------------------------------------------------

/// Two failing requests trip a tight breaker; cooldown admissions serve
/// degraded; the half-open probe succeeds and re-arms the JIT.
#[test]
fn breaker_trips_cools_down_probes_and_rearms() {
    let inj = FaultInjector::from_plan(FaultPlan::new(9).script(
        FaultSite::PassRun,
        FaultKind::PassPanic,
        0,
        4,
    ));
    let pool = Pool::new(
        PoolConfig {
            workers: 1,
            capacity: 16,
            faults: inj,
            breaker: BreakerConfig {
                window: 8,
                threshold: 2,
                cooldown: 3,
            },
            ..PoolConfig::default()
        },
        DnaDatabase::new(),
    );
    let hot = |name: &str| {
        format!(
            "function {name}(a) {{ var t = 0; for (var i = 0; i < 10; i++) {{ t = t + a; }} return t; }}
             var r = 0; for (var k = 0; k < 30; k++) {{ r = {name}(2); }} print(r);"
        )
    };
    let serve = |src: String| {
        pool.submit(Request::new(src).with_config(EngineConfig::fast_test()))
            .and_then(Ticket::wait)
            .expect("request serves")
    };
    // Each burst request panics twice (retry, then quarantine) and
    // reports one failure; the second report crosses the threshold.
    let a = serve(hot("ha"));
    let b = serve(hot("hb"));
    assert_eq!(a.compile_failures, 2);
    assert_eq!(b.compile_failures, 2);
    assert_eq!(a.printed, vec!["20"]);
    // Cooldown: exactly three degraded admissions.
    for _ in 0..3 {
        let r = serve(hot("hc"));
        assert!(r.breaker_degraded && r.degraded);
        assert_eq!(r.printed, vec!["20"], "degraded run must still be correct");
    }
    // The probe compiles cleanly (the panic window is spent) and re-arms.
    let probe = serve(hot("hd"));
    assert!(!probe.breaker_degraded);
    assert_eq!(probe.compile_failures, 0);
    let bstats = pool.breaker_stats();
    assert_eq!(bstats.state, "closed");
    assert_eq!((bstats.trips, bstats.probes, bstats.rearms), (1, 1, 1));
    assert_eq!(pool.quarantined(), vec!["ha".to_string(), "hb".to_string()]);
    let stats = pool.shutdown();
    assert_eq!(stats.breaker_degraded, 3);
}

// ---------------------------------------------------------------------
// DB reload retry (pool).
// ---------------------------------------------------------------------

/// Two transient I/O faults are retried away with seeded backoff; the
/// third attempt publishes.
#[test]
fn reload_retry_recovers_transient_faults() {
    let inj = FaultInjector::from_plan(FaultPlan::new(9).script(
        FaultSite::DbLoad,
        FaultKind::DbIo,
        0,
        2,
    ));
    let pool = Pool::new(
        PoolConfig {
            workers: 1,
            capacity: 8,
            compare: PERMISSIVE,
            faults: inj,
            ..PoolConfig::default()
        },
        DnaDatabase::new(),
    );
    let update = db_17026().to_text();
    let policy = RetryPolicy {
        base_micros: 20,
        seed: 9,
        ..RetryPolicy::default()
    };
    let empty_generation = pool.published().generation();
    let (generation, report) = pool
        .reload_with_retry(&update, LoadMode::Strict, &policy)
        .expect("third attempt lands");
    assert!(generation > empty_generation);
    assert_eq!(pool.published().generation(), generation);
    assert!(report.is_clean());
    let r = pool
        .submit(Request::new(serving_source("ServeArray")).with_config(EngineConfig::fast_test()))
        .and_then(Ticket::wait)
        .expect("serves after recovered reload");
    assert_eq!(r.db_generation, generation);
    assert!(r.matched_cves.iter().any(|c| c == "CVE-2019-17026"));
    pool.shutdown();
}

/// A persistent parse fault exhausts the retry policy; nothing partial
/// is ever published and the last good snapshot keeps serving verdicts.
#[test]
fn exhausted_reload_retry_never_publishes_partial() {
    let inj = FaultInjector::from_plan(FaultPlan::new(9).script(
        FaultSite::DbLoad,
        FaultKind::DbParse,
        0,
        u64::MAX,
    ));
    let pool = Pool::new(
        PoolConfig {
            workers: 1,
            capacity: 8,
            compare: PERMISSIVE,
            faults: inj,
            ..PoolConfig::default()
        },
        db_17026(),
    );
    let generation_before = pool.published().generation();
    let err = pool
        .reload_with_retry(
            &db_17026().to_text(),
            LoadMode::Strict,
            &RetryPolicy {
                base_micros: 20,
                seed: 9,
                ..RetryPolicy::default()
            },
        )
        .expect_err("persistent fault exhausts the policy");
    assert_eq!(err.kind(), "parse");
    assert_eq!(
        pool.published().generation(),
        generation_before,
        "partial state was published"
    );
    let r = pool
        .submit(Request::new(serving_source("ServeArray")).with_config(EngineConfig::fast_test()))
        .and_then(Ticket::wait)
        .expect("old snapshot still serves");
    assert!(r.matched_cves.iter().any(|c| c == "CVE-2019-17026"));
    pool.shutdown();
}

// ---------------------------------------------------------------------
// Torn reads and partial salvage.
// ---------------------------------------------------------------------

/// Strict mode refuses a torn (truncated mid-write) update outright.
#[test]
fn strict_mode_refuses_torn_update() {
    let inj = FaultInjector::from_plan(FaultPlan::new(9).script(
        FaultSite::DbLoad,
        FaultKind::DbTruncate,
        0,
        1,
    ));
    let text = db_17026().to_text();
    let err = DnaDatabase::from_text_faulted(&text, LoadMode::Strict, &inj)
        .expect_err("torn update refused");
    assert_eq!(err.kind(), "parse");
}

/// Partial mode salvages the well-formed entries of a corrupt update and
/// pins every skip to an absolute file line.
#[test]
fn partial_mode_skips_malformed_entries_with_line_numbers() {
    let text = build_database(&[vdc(CveId::Cve2019_17026), vdc(CveId::Cve2019_9810)])
        .expect("vdc database builds")
        .to_text();
    let mut lines: Vec<&str> = text.lines().collect();
    let second_header = lines
        .iter()
        .position(|l| l.starts_with("@entry"))
        .and_then(|first| {
            lines[first + 1..]
                .iter()
                .position(|l| l.starts_with("@entry"))
                .map(|off| first + 1 + off)
        })
        .expect("two entries");
    lines.insert(second_header + 1, "12 & torn garbage");
    let garbage_line = second_header + 2; // 1-based line of the insert
    let mangled = lines.join("\n");

    // Strict refuses the whole update...
    assert!(DnaDatabase::from_text_checked(&mangled, LoadMode::Strict).is_err());
    // ...partial salvages the intact entry and pins the warning.
    let (db, report) =
        DnaDatabase::from_text_checked(&mangled, LoadMode::Partial).expect("partial mode salvages");
    assert_eq!(db.len(), 1);
    assert_eq!((report.loaded, report.skipped), (1, 1));
    assert!(!report.is_clean());
    assert_eq!(report.warnings.len(), 1);
    assert!(
        report.warnings[0]
            .to_string()
            .contains(&format!("line {garbage_line}")),
        "warning `{}` should name line {garbage_line}",
        report.warnings[0]
    );
}

// ---------------------------------------------------------------------
// Comparator cache poisoning.
// ---------------------------------------------------------------------

/// A poisoned comparator index is detected by the generation check and
/// rebuilt — no wrong verdict is ever served.
#[test]
fn cache_poison_is_purged_not_served() {
    let rec = Rc::new(RefCell::new(Recorder::new()));
    let inj = FaultInjector::from_plan(FaultPlan::new(9).script(
        FaultSite::ComparatorQuery,
        FaultKind::CachePoison,
        0,
        1,
    ));
    let mut engine = Engine::with_guard(
        EngineConfig {
            faults: inj.clone(),
            ..EngineConfig::fast_test()
        },
        Guard::new(db_17026(), PERMISSIVE),
    );
    engine.set_collector(rec.clone());
    let out = engine
        .run_source_with(&serving_source("ServeArray"))
        .expect("script still serves");
    assert_eq!(inj.tally().get("cache_poison"), 1);
    assert!(
        rec.borrow()
            .metrics()
            .counter("recovery.cache_poison_purged")
            >= 1,
        "purge never recorded"
    );
    // The honest ServeArray false positive still matches: the sentinel
    // verdict did not leak.
    assert!(out
        .stats
        .iter()
        .any(|s| s.matched.iter().any(|(c, _)| c == "CVE-2019-17026")));
}

// ---------------------------------------------------------------------
// Graceful drain.
// ---------------------------------------------------------------------

/// `shutdown_with_deadline` stops accepting, drains the queue, and
/// resolves every already-accepted ticket.
#[test]
fn graceful_drain_resolves_every_ticket() {
    let pool = Pool::new(
        PoolConfig {
            workers: 1,
            capacity: 32,
            ..PoolConfig::default()
        },
        DnaDatabase::new(),
    );
    let src = serving_source("ServeArith");
    let tickets: Vec<Ticket> = (0..8)
        .map(|_| {
            pool.submit(Request::new(src.clone()).with_config(EngineConfig::fast_test()))
                .expect("capacity")
        })
        .collect();
    let stats = pool.shutdown_with_deadline(Duration::ZERO);
    assert_eq!(stats.served, 8);
    for t in tickets {
        let r = t
            .try_wait()
            .expect("ticket resolved by drain")
            .expect("drained request serves");
        assert!(!r.printed.is_empty());
    }
}

// ---------------------------------------------------------------------
// Ladder determinism and the seeded sweep.
// ---------------------------------------------------------------------

/// The full fault ladder is a pure function of its seed: same seed, same
/// faults, same tallies, same evidence.
#[test]
fn fault_ladder_is_deterministic_and_fully_recovered() {
    let first = chaos_bench::ladder(5);
    let second = chaos_bench::ladder(5);
    assert!(first.injected() > 0);
    assert!(first.all_recovered(), "unrecovered: {:#?}", first.steps);
    assert_eq!(first, second, "same seed must replay identically");
}

/// Property-style sweep: at production-ish fault rates, across seeds, no
/// ticket is ever lost, no verdict is ever served from a snapshot older
/// than the one current at submit time, quarantine only grows, and the
/// breaker is never left stuck open without its cooldown accounting.
#[test]
fn seeded_sweep_holds_recovery_invariants() {
    for seed in [11u64, 23, 37] {
        sweep(seed, 60);
    }
}

fn sweep(seed: u64, requests: usize) {
    let inj = FaultInjector::from_plan(
        FaultPlan::new(seed)
            .random(FaultSite::WorkerServe, FaultKind::DeadlineBlowout, 0.05)
            .random(FaultSite::PassRun, FaultKind::PassPanic, 0.02)
            .script(FaultSite::DbLoad, FaultKind::DbIo, 0, 1),
    );
    let pool = Pool::new(
        PoolConfig {
            workers: 2,
            capacity: requests.max(1),
            compare: PERMISSIVE,
            faults: inj.clone(),
            ..PoolConfig::default()
        },
        DnaDatabase::new(),
    );
    let empty_generation = pool.published().generation();
    let mix = jitbull_workloads::serving_mix();
    let mut tickets: Vec<(u64, Ticket)> = Vec::new();
    let mut quarantined_midway = Vec::new();
    for i in 0..requests {
        if i == requests / 2 {
            // Mid-traffic reload rides out the scripted transient I/O
            // fault via retry.
            let (generation, report) = pool
                .reload_with_retry(
                    &db_17026().to_text(),
                    LoadMode::Strict,
                    &RetryPolicy {
                        base_micros: 10,
                        seed,
                        ..RetryPolicy::default()
                    },
                )
                .expect("transient reload fault retried away");
            assert!(generation > empty_generation);
            assert!(report.is_clean());
            quarantined_midway = pool.quarantined();
        }
        let w = &mix[i % mix.len()];
        let submit_generation = pool.published().generation();
        let t = pool
            .submit(Request::new(w.source.clone()).with_config(EngineConfig::fast_test()))
            .expect("capacity sized to the sweep");
        tickets.push((submit_generation, t));
    }
    let total = tickets.len();
    let mut served = 0usize;
    for (submit_generation, t) in tickets {
        // No lost tickets: wait always resolves, Ok or typed error.
        if let Ok(r) = t.wait() {
            served += 1;
            assert!(
                r.min_generation >= submit_generation,
                "seed {seed}: generation went back"
            );
            assert!(
                r.db_generation >= r.min_generation,
                "seed {seed}: stale verdict"
            );
            assert!(!r.printed.is_empty(), "seed {seed}: lost output");
        }
    }
    // Quarantine is monotonic across the run.
    let quarantined_final = pool.quarantined();
    for f in &quarantined_midway {
        assert!(
            quarantined_final.contains(f),
            "seed {seed}: {f} left quarantine"
        );
    }
    let bstats = pool.breaker_stats();
    assert!(
        bstats.rearms <= bstats.trips,
        "seed {seed}: rearm without trip"
    );
    // Every re-arm is a successful probe report. (`probes` may exceed
    // `trips`: a probe admission that ends up deadline-degraded cancels
    // its permit, freeing the half-open slot for another probe.)
    assert!(
        bstats.rearms <= bstats.probes,
        "seed {seed}: rearm without probe"
    );
    // A breaker that tripped and is closed again must have re-armed
    // through a successful probe — there is no other path back.
    assert!(
        bstats.trips == 0 || bstats.state != "closed" || bstats.rearms > 0,
        "seed {seed}: breaker closed again without a re-arm"
    );
    let stats = pool.shutdown();
    assert_eq!(
        stats.served as usize, served,
        "seed {seed}: served mismatch"
    );
    assert_eq!(
        served, total,
        "seed {seed}: PassPanic faults quarantine, never kill requests"
    );
}

/// Release-profile chaos soak: the sweep invariants at scale — many
/// seeds, hundreds of requests each, reloads mid-traffic.
#[test]
#[ignore = "chaos soak; run with --release -- --ignored"]
fn chaos_soak_sweeps_many_seeds() {
    for seed in 0..96u64 {
        sweep(seed * 7 + 1, 8000);
    }
    // And the ladder stays deterministic under repetition.
    let reference = chaos_bench::ladder(99);
    for _ in 0..3 {
        assert_eq!(chaos_bench::ladder(99), reference);
    }
}
