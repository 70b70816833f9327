//! Chaos engineering harness: the deterministic fault ladder behind
//! `repro -- chaos`, the injector-overhead measurement, and the faulted
//! serving-throughput retention check (`benches/chaos_overhead.rs`).
//!
//! The ladder walks every self-healing mechanism in order — quarantine,
//! watchdog, IR-corruption fallback, circuit breaker, DB-reload retry,
//! torn-read refusal + partial salvage, cache-poison purge, worker
//! deadline blowout/panic, and graceful drain — injecting faults through
//! [`FaultInjector`] and verifying the engine recovered from each one.
//! Everything in the resulting [`LadderReport`] is a pure function of the
//! seed: two runs with the same seed must compare equal, which is the
//! tentpole's determinism acceptance criterion.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use jitbull::{CompareConfig, DnaDatabase, Guard, LoadMode};
use jitbull_chaos::retry::RetryPolicy;
use jitbull_chaos::{
    BreakerConfig, ChaosTally, FaultInjector, FaultKind, FaultPlan, FaultSite, Quarantine,
};
use jitbull_jit::engine::{Engine, EngineConfig, TierStats};
use jitbull_jit::CveId;
use jitbull_pool::{Pool, PoolConfig, PoolError, Request, SharedCollector, Ticket};
use jitbull_telemetry::{export_text, Collector, Event, Recorder};
use jitbull_vdc::{build_database, vdc};

use crate::render_table;

/// Permissive comparator thresholds (the repo's test convention) so the
/// honest `ServeArray` false positive matches CVE-2019-17026's DNA.
const PERMISSIVE: CompareConfig = CompareConfig { thr: 1, ratio: 0.5 };

/// A hot single-function workload: `work` crosses the fast-test Ion
/// threshold and the script prints `15`.
const HOT: &str = "
    function work(a) { var t = 0; for (var i = 0; i < a.length; i++) { t = t + a[i]; } return t; }
    var arr = [1, 2, 3, 4, 5];
    var total = 0;
    for (var r = 0; r < 50; r++) { total = work(arr); }
    print(total);
";

/// A hot workload whose function name is chosen per call (the breaker
/// rung needs distinct functions so quarantine and breaker trips stay
/// separable). Prints a deterministic checksum.
fn hot_src(name: &str) -> String {
    format!(
        "function {name}(a, b) {{ var t = 0; for (var i = 0; i < 20; i++) {{ t = t + a * i - b; }} return t; }}
         var r = 0;
         for (var k = 0; k < 30; k++) {{ r = {name}(k, 3); }}
         print(r);"
    )
}

/// Bridges the pool's thread-safe recorder into the engine's
/// single-threaded collector slot, so engine-phase recovery events land
/// in the same ladder-wide recorder as the pool phases'.
struct Shared(Arc<Mutex<Recorder>>);

impl Collector for Shared {
    fn record(&mut self, event: Event) {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(event);
    }
}

fn engine_collector(rec: &Arc<Mutex<Recorder>>) -> Rc<RefCell<dyn Collector>> {
    Rc::new(RefCell::new(Shared(Arc::clone(rec))))
}

fn counter(rec: &Arc<Mutex<Recorder>>, name: &str) -> u64 {
    rec.lock()
        .unwrap_or_else(|e| e.into_inner())
        .metrics()
        .counter(name)
}

/// One rung of the fault ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderStep {
    /// The recovery mechanism this rung exercises.
    pub mechanism: &'static str,
    /// Faults the injector fired during the rung.
    pub injected: u64,
    /// Faults the engine demonstrably recovered from.
    pub recovered: u64,
    /// Deterministic facts backing the recovered count.
    pub evidence: String,
}

/// The full ladder outcome. Derives `PartialEq` so the determinism check
/// is a single comparison: same seed ⇒ equal reports.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderReport {
    /// Seed every fault plan and retry policy derived from.
    pub seed: u64,
    /// One entry per rung, in execution order.
    pub steps: Vec<LadderStep>,
    /// Per-kind injected counts merged across all rungs.
    pub tally: ChaosTally,
    /// `chaos.*` / `recovery.*` metric lines from the ladder's recorder.
    pub telemetry: Vec<String>,
}

impl LadderReport {
    /// Total faults injected.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.steps.iter().map(|s| s.injected).sum()
    }

    /// Total faults recovered.
    #[must_use]
    pub fn recovered(&self) -> u64 {
        self.steps.iter().map(|s| s.recovered).sum()
    }

    /// Whether every rung recovered every fault it injected.
    #[must_use]
    pub fn all_recovered(&self) -> bool {
        self.steps.iter().all(|s| s.injected == s.recovered)
    }
}

/// Runs the full fault ladder with every plan derived from `seed`.
#[must_use]
pub fn ladder(seed: u64) -> LadderReport {
    let rec = Arc::new(Mutex::new(Recorder::new()));
    let steps = vec![
        quarantine_rung(seed, &rec),
        watchdog_rung(seed, &rec),
        ir_corrupt_rung(seed, &rec),
        breaker_rung(seed, &rec),
        reload_rung(seed, &rec),
        torn_read_rung(seed),
        cache_poison_rung(seed, &rec),
        worker_rung(seed, &rec),
        drain_rung(&rec),
    ];
    let mut tally = ChaosTally::default();
    for (_, t) in &steps {
        tally.merge(t);
    }
    let guard = rec.lock().unwrap_or_else(|e| e.into_inner());
    let telemetry: Vec<String> = export_text(&guard)
        .lines()
        .map(str::trim_start)
        .filter(|l| l.starts_with("chaos.") || l.starts_with("recovery."))
        .map(str::to_owned)
        .collect();
    drop(guard);
    LadderReport {
        seed,
        steps: steps.into_iter().map(|(s, _)| s).collect(),
        tally,
        telemetry,
    }
}

/// Rung 1 — two scripted compile panics earn the hot function two
/// quarantine strikes; the second pins it no-go and the script still
/// prints the right answer from the baseline tier.
fn quarantine_rung(seed: u64, rec: &Arc<Mutex<Recorder>>) -> (LadderStep, ChaosTally) {
    let inj = FaultInjector::from_plan(FaultPlan::new(seed).script(
        FaultSite::PassRun,
        FaultKind::PassPanic,
        0,
        2,
    ));
    let quarantine = Quarantine::default();
    let mut engine = Engine::new(EngineConfig {
        faults: inj.clone(),
        quarantine: quarantine.clone(),
        ..EngineConfig::fast_test()
    });
    engine.set_collector(engine_collector(rec));
    let out = engine.run_source_with(HOT).expect("script still serves");
    let pinned = quarantine.is_quarantined("work");
    let correct = out.outcome.printed == vec!["15".to_string()];
    let injected = inj.tally().total();
    let recovered = if pinned && correct {
        out.compile_failures
    } else {
        0
    };
    let step = LadderStep {
        mechanism: "quarantine: 2 compile panics pin no-go",
        injected,
        recovered,
        evidence: format!(
            "strikes={} quarantined={:?} output_correct={correct}",
            quarantine.strikes("work"),
            quarantine.quarantined(),
        ),
    };
    (step, inj.tally())
}

/// Rung 2 — a stalled pass blows the compilation's cycle budget; the
/// watchdog caps the charge, pins the function interpreter-only, and the
/// script still completes.
fn watchdog_rung(seed: u64, rec: &Arc<Mutex<Recorder>>) -> (LadderStep, ChaosTally) {
    let inj = FaultInjector::from_plan(FaultPlan::new(seed ^ 0x2).script(
        FaultSite::PassRun,
        FaultKind::PassStall {
            extra_work: 250_000,
        },
        0,
        1,
    ));
    let mut engine = Engine::new(EngineConfig {
        faults: inj.clone(),
        watchdog_budget: Some(25_000),
        ..EngineConfig::fast_test()
    });
    engine.set_collector(engine_collector(rec));
    let out = engine.run_source_with(HOT).expect("script still serves");
    let pinned = out
        .stats
        .iter()
        .any(|s| s.name == "work" && s.tier == TierStats::Interpreter);
    let correct = out.outcome.printed == vec!["15".to_string()];
    let injected = inj.tally().total();
    let recovered = if pinned && correct {
        out.watchdog_expiries
    } else {
        0
    };
    let step = LadderStep {
        mechanism: "watchdog: stalled pass capped at budget",
        injected,
        recovered,
        evidence: format!(
            "expiries={} pinned_interp={pinned} output_correct={correct}",
            out.watchdog_expiries,
        ),
    };
    (step, inj.tally())
}

/// Rung 3 — an injected IR corruption is caught by the pipeline's
/// coherency check; the compilation is abandoned and the function falls
/// back without ever executing the corrupt graph.
fn ir_corrupt_rung(seed: u64, rec: &Arc<Mutex<Recorder>>) -> (LadderStep, ChaosTally) {
    let inj = FaultInjector::from_plan(FaultPlan::new(seed ^ 0x3).script(
        FaultSite::PassRun,
        FaultKind::IrCorrupt,
        0,
        1,
    ));
    let mut engine = Engine::new(EngineConfig {
        faults: inj.clone(),
        ..EngineConfig::fast_test()
    });
    engine.set_collector(engine_collector(rec));
    let out = engine.run_source_with(HOT).expect("script still serves");
    let fell_back = out
        .stats
        .iter()
        .any(|s| s.name == "work" && s.tier == TierStats::NoIon);
    let correct = out.outcome.printed == vec!["15".to_string()];
    let injected = inj.tally().total();
    let recovered = if fell_back && correct {
        out.compile_failures
    } else {
        0
    };
    let step = LadderStep {
        mechanism: "ir-corrupt: broken graph abandoned pre-exec",
        injected,
        recovered,
        evidence: format!(
            "compile_failures={} fell_back={fell_back} output_correct={correct}",
            out.compile_failures,
        ),
    };
    (step, inj.tally())
}

/// Rung 4 — two requests with panicking compilations trip a tight
/// breaker; three cooldown requests serve degraded; the half-open probe
/// compiles cleanly and re-arms the JIT for everyone.
fn breaker_rung(seed: u64, rec: &Arc<Mutex<Recorder>>) -> (LadderStep, ChaosTally) {
    let inj = FaultInjector::from_plan(FaultPlan::new(seed ^ 0x4).script(
        FaultSite::PassRun,
        FaultKind::PassPanic,
        0,
        4,
    ));
    let pool = Pool::with_collector(
        PoolConfig {
            workers: 1,
            capacity: 16,
            compare: CompareConfig::default(),
            faults: inj.clone(),
            breaker: BreakerConfig {
                window: 8,
                threshold: 2,
                cooldown: 3,
            },
            ..PoolConfig::default()
        },
        DnaDatabase::new(),
        Arc::clone(rec) as SharedCollector,
    );
    let serve = |name: &str| {
        pool.submit(Request::new(hot_src(name)).with_config(EngineConfig::fast_test()))
            .and_then(Ticket::wait)
    };
    // Two failure bursts: each request's compile panics twice (retry then
    // quarantine), so each reports one failure to the breaker window.
    let a = serve("hotA");
    let b = serve("hotB");
    // Cooldown: three admissions served interpreter-only.
    let cooldown_degraded = (0..3)
        .filter(|_| serve("cool").is_ok_and(|r| r.breaker_degraded))
        .count();
    // The probe compiles cleanly (the panic window is spent) and re-arms.
    let probe = serve("hotC");
    let bstats = pool.breaker_stats();
    let quarantined = pool.quarantined();
    let stats = pool.shutdown();
    let bursts_served = a.as_ref().is_ok_and(|r| r.compile_failures == 2)
        && b.as_ref().is_ok_and(|r| r.compile_failures == 2);
    let rearmed = bstats.state == "closed"
        && (bstats.trips, bstats.probes, bstats.rearms) == (1, 1, 1)
        && probe.is_ok_and(|r| !r.breaker_degraded && r.compile_failures == 0);
    let injected = inj.tally().total();
    let recovered = if bursts_served && rearmed && cooldown_degraded == 3 {
        stats.compile_failures
    } else {
        0
    };
    let step = LadderStep {
        mechanism: "breaker: trip, cooldown, probe, re-arm",
        injected,
        recovered,
        evidence: format!(
            "state={} trips={} probes={} rearms={} degraded={} quarantined={quarantined:?}",
            bstats.state, bstats.trips, bstats.probes, bstats.rearms, stats.breaker_degraded,
        ),
    };
    (step, inj.tally())
}

/// Rung 5 — a reload rides out two transient I/O faults with seeded
/// backoff, then a persistent parse fault exhausts the policy without
/// ever unpublishing the last good snapshot.
fn reload_rung(seed: u64, rec: &Arc<Mutex<Recorder>>) -> (LadderStep, ChaosTally) {
    let inj = FaultInjector::from_plan(
        FaultPlan::new(seed ^ 0x5)
            .script(FaultSite::DbLoad, FaultKind::DbIo, 0, 2)
            .script(FaultSite::DbLoad, FaultKind::DbParse, 3, u64::MAX),
    );
    let pool = Pool::with_collector(
        PoolConfig {
            workers: 1,
            capacity: 8,
            compare: PERMISSIVE,
            faults: inj.clone(),
            breaker: BreakerConfig::default(),
            ..PoolConfig::default()
        },
        DnaDatabase::new(),
        Arc::clone(rec) as SharedCollector,
    );
    let update = build_database(&[vdc(CveId::Cve2019_17026)])
        .expect("vdc database builds")
        .to_text();
    let policy = RetryPolicy {
        base_micros: 20,
        seed,
        ..RetryPolicy::default()
    };
    // Two injected I/O faults, then the third attempt lands.
    let first = pool.reload_with_retry(&update, LoadMode::Strict, &policy);
    let good_generation = first.as_ref().map_or(0, |(generation, _)| *generation);
    let recovered_swap = first.as_ref().is_ok_and(|(_, report)| report.is_clean())
        && pool.published().generation() == good_generation;
    // A persistent parse fault: every attempt fails, nothing publishes.
    let second = pool.reload_with_retry(&update, LoadMode::Strict, &policy);
    let refused = second.as_ref().is_err_and(|e| e.kind() == "parse");
    let intact = pool.published().generation() == good_generation;
    // The pool still serves verdicts from the last good snapshot.
    let mix = jitbull_workloads::serving_mix();
    let serve_array = &mix
        .iter()
        .find(|w| w.name == "ServeArray")
        .expect("mix")
        .source;
    let flagged = pool
        .submit(Request::new(serve_array.clone()).with_config(EngineConfig::fast_test()))
        .and_then(Ticket::wait)
        .is_ok_and(|r| {
            r.db_generation == good_generation
                && r.matched_cves.iter().any(|c| c == "CVE-2019-17026")
        });
    pool.shutdown();
    let injected = inj.tally().total();
    let recovered = u64::from(recovered_swap) * inj.tally().get("db_io")
        + u64::from(refused && intact && flagged) * inj.tally().get("db_parse");
    let step = LadderStep {
        mechanism: "reload retry: backoff, never publish partial",
        injected,
        recovered,
        evidence: format!(
            "recovered_swap={recovered_swap} persistent_refused={refused} snapshot_intact={intact} still_flagging={flagged}"
        ),
    };
    (step, inj.tally())
}

/// Rung 6 — a torn (truncated) update is refused outright under strict
/// parsing, and partial mode salvages the well-formed entries of a
/// hand-corrupted update with line-numbered warnings.
fn torn_read_rung(seed: u64) -> (LadderStep, ChaosTally) {
    let inj = FaultInjector::from_plan(FaultPlan::new(seed ^ 0x6).script(
        FaultSite::DbLoad,
        FaultKind::DbTruncate,
        0,
        1,
    ));
    let text = build_database(&[vdc(CveId::Cve2019_17026), vdc(CveId::Cve2019_9810)])
        .expect("vdc database builds")
        .to_text();
    let refused = DnaDatabase::from_text_faulted(&text, LoadMode::Strict, &inj).is_err();
    // Partial-mode salvage: corrupt the second entry's first body line.
    let mut lines: Vec<&str> = text.lines().collect();
    let second_header = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.starts_with("@entry"))
        .nth(1)
        .map(|(i, _)| i)
        .expect("two entries");
    lines.insert(second_header + 1, "12 & torn garbage");
    let mangled = lines.join("\n");
    let salvage = DnaDatabase::from_text_checked(&mangled, LoadMode::Partial);
    let (salvaged, warned_line) = match &salvage {
        Ok((db, report)) => (
            db.len() == 1 && report.loaded == 1 && report.skipped == 1,
            report
                .warnings
                .first()
                .map(ToString::to_string)
                .unwrap_or_default(),
        ),
        Err(_) => (false, String::new()),
    };
    let injected = inj.tally().total();
    let recovered = u64::from(refused && salvaged) * injected;
    let step = LadderStep {
        mechanism: "torn read: strict refusal, partial salvage",
        injected,
        recovered,
        evidence: format!(
            "strict_refused={refused} partial_loaded_1_skipped_1={salvaged} warning=\"{warned_line}\""
        ),
    };
    (step, inj.tally())
}

/// Rung 7 — the comparator index is poisoned in place; the generation
/// check rebuilds it, and no wrong verdict is ever served (the honest
/// false positive still matches).
fn cache_poison_rung(seed: u64, rec: &Arc<Mutex<Recorder>>) -> (LadderStep, ChaosTally) {
    let inj = FaultInjector::from_plan(FaultPlan::new(seed ^ 0x7).script(
        FaultSite::ComparatorQuery,
        FaultKind::CachePoison,
        0,
        1,
    ));
    let purges_before = counter(rec, "recovery.cache_poison_purged");
    let db = build_database(&[vdc(CveId::Cve2019_17026)]).expect("vdc database builds");
    let mut engine = Engine::with_guard(
        EngineConfig {
            faults: inj.clone(),
            ..EngineConfig::fast_test()
        },
        Guard::new(db, PERMISSIVE),
    );
    engine.set_collector(engine_collector(rec));
    let mix = jitbull_workloads::serving_mix();
    let serve_array = &mix
        .iter()
        .find(|w| w.name == "ServeArray")
        .expect("mix")
        .source;
    let out = engine
        .run_source_with(serve_array)
        .expect("script still serves");
    let purges = counter(rec, "recovery.cache_poison_purged") - purges_before;
    let matched = out
        .stats
        .iter()
        .any(|s| s.matched.iter().any(|(c, _)| c == "CVE-2019-17026"));
    let injected = inj.tally().total();
    let recovered = if matched { purges.min(injected) } else { 0 };
    let step = LadderStep {
        mechanism: "cache poison: purged, never served",
        injected,
        recovered,
        evidence: format!("purges={purges} verdict_still_matches={matched}"),
    };
    (step, inj.tally())
}

/// Rung 8 — a deadline blowout degrades one request to interpreter-only
/// and a worker panic is isolated and respawned; every ticket resolves.
fn worker_rung(seed: u64, rec: &Arc<Mutex<Recorder>>) -> (LadderStep, ChaosTally) {
    let inj = FaultInjector::from_plan(
        FaultPlan::new(seed ^ 0x8)
            .script(FaultSite::WorkerServe, FaultKind::DeadlineBlowout, 0, 1)
            .script(FaultSite::WorkerServe, FaultKind::WorkerPanic, 1, 1),
    );
    let pool = Pool::with_collector(
        PoolConfig {
            workers: 1,
            capacity: 8,
            compare: CompareConfig::default(),
            faults: inj.clone(),
            breaker: BreakerConfig::default(),
            ..PoolConfig::default()
        },
        DnaDatabase::new(),
        Arc::clone(rec) as SharedCollector,
    );
    let mix = jitbull_workloads::serving_mix();
    let arith = &mix
        .iter()
        .find(|w| w.name == "ServeArith")
        .expect("mix")
        .source;
    let serve = || {
        pool.submit(Request::new(arith.clone()).with_config(EngineConfig::fast_test()))
            .and_then(Ticket::wait)
    };
    let blown = serve();
    let panicked = serve();
    let after = serve();
    let stats = pool.shutdown();
    let degraded_ok = blown.is_ok_and(|r| r.degraded && !r.breaker_degraded);
    let isolated = matches!(panicked, Err(PoolError::Panicked))
        && after.is_ok_and(|r| !r.degraded)
        && stats.worker_restarts == 1;
    let injected = inj.tally().total();
    let recovered = u64::from(degraded_ok) + u64::from(isolated);
    let step = LadderStep {
        mechanism: "worker: blowout degraded, panic respawned",
        injected,
        recovered,
        evidence: format!(
            "blowout_degraded={degraded_ok} panic_isolated={isolated} restarts={}",
            stats.worker_restarts,
        ),
    };
    (step, inj.tally())
}

/// Rung 9 — graceful drain: `shutdown_with_deadline(0)` stops accepting
/// and resolves every already-queued ticket (degraded where the deadline
/// lapsed) instead of dropping any.
fn drain_rung(rec: &Arc<Mutex<Recorder>>) -> (LadderStep, ChaosTally) {
    let pool = Pool::with_collector(
        PoolConfig {
            workers: 1,
            capacity: 32,
            compare: CompareConfig::default(),
            faults: FaultInjector::disabled(),
            breaker: BreakerConfig::default(),
            ..PoolConfig::default()
        },
        DnaDatabase::new(),
        Arc::clone(rec) as SharedCollector,
    );
    let mix = jitbull_workloads::serving_mix();
    let arith = &mix
        .iter()
        .find(|w| w.name == "ServeArith")
        .expect("mix")
        .source;
    let tickets: Vec<_> = (0..8)
        .filter_map(|_| {
            pool.submit(Request::new(arith.clone()).with_config(EngineConfig::fast_test()))
                .ok()
        })
        .collect();
    let submitted = tickets.len();
    let stats = pool.shutdown_with_deadline(Duration::ZERO);
    let resolved = tickets
        .into_iter()
        .filter(|t| t.try_wait().is_some())
        .count();
    let drained = submitted == 8 && resolved == 8 && stats.served == 8;
    let step = LadderStep {
        mechanism: "drain: zero-deadline shutdown loses nothing",
        injected: 0,
        recovered: 0,
        evidence: format!(
            "submitted={submitted} resolved={resolved} served={} all_resolved={drained}",
            stats.served
        ),
    };
    (step, ChaosTally::default())
}

/// Renders the ladder as a fixed-width table.
#[must_use]
pub fn render_ladder(report: &LadderReport) -> String {
    let rows: Vec<Vec<String>> = report
        .steps
        .iter()
        .map(|s| {
            vec![
                s.mechanism.to_string(),
                s.injected.to_string(),
                s.recovered.to_string(),
                if s.injected == s.recovered {
                    "yes"
                } else {
                    "NO"
                }
                .to_string(),
                s.evidence.clone(),
            ]
        })
        .collect();
    render_table(
        &["mechanism", "injected", "recovered", "ok", "evidence"],
        &rows,
    )
}

/// One workload's injector-overhead measurement: simulated cycles with
/// the default (disabled) injector vs an armed-but-idle plan whose rules
/// can never fire. Both must be identical — arming the machinery costs
/// nothing in the cycle model.
#[derive(Debug, Clone)]
pub struct OverheadPoint {
    /// Workload name.
    pub workload: &'static str,
    /// Cycles with the disabled injector, no guard.
    pub disabled_cycles: u64,
    /// Cycles with an armed-idle injector, no guard.
    pub armed_cycles: u64,
    /// Cycles with the disabled injector, guarded (1 VDC).
    pub guarded_disabled_cycles: u64,
    /// Cycles with an armed-idle injector, guarded (1 VDC).
    pub guarded_armed_cycles: u64,
}

impl OverheadPoint {
    /// Whether the armed-idle runs are cycle-identical to the disabled
    /// ones (the no-fault-overhead acceptance criterion).
    #[must_use]
    pub fn is_neutral(&self) -> bool {
        self.disabled_cycles == self.armed_cycles
            && self.guarded_disabled_cycles == self.guarded_armed_cycles
    }
}

/// A plan that arms every site (so each hot-path check actually consults
/// the rule list) but whose triggers can never fire.
#[must_use]
pub fn armed_idle_plan(seed: u64) -> FaultPlan {
    FaultSite::ALL
        .iter()
        .fold(FaultPlan::new(seed), |plan, &site| {
            plan.script(site, FaultKind::PassPanic, u64::MAX, 0)
        })
}

fn cycles_with(source: &str, faults: FaultInjector, guarded: bool) -> u64 {
    let config = EngineConfig {
        faults,
        ..EngineConfig::fast_test()
    };
    let outcome = if guarded {
        let db = build_database(&[vdc(CveId::Cve2019_17026)]).expect("vdc database builds");
        Engine::with_guard(config, Guard::new(db, CompareConfig::default())).run_source_with(source)
    } else {
        Engine::run_source(source, config)
    };
    outcome.expect("workload runs").outcome.cycles
}

/// Measures injector overhead over the serving mix: disabled vs
/// armed-idle, plain and guarded.
#[must_use]
pub fn injector_overhead() -> Vec<OverheadPoint> {
    jitbull_workloads::serving_mix()
        .iter()
        .map(|w| OverheadPoint {
            workload: w.name,
            disabled_cycles: cycles_with(&w.source, FaultInjector::disabled(), false),
            armed_cycles: cycles_with(
                &w.source,
                FaultInjector::from_plan(armed_idle_plan(0)),
                false,
            ),
            guarded_disabled_cycles: cycles_with(&w.source, FaultInjector::disabled(), true),
            guarded_armed_cycles: cycles_with(
                &w.source,
                FaultInjector::from_plan(armed_idle_plan(0)),
                true,
            ),
        })
        .collect()
}

/// Renders the overhead table.
#[must_use]
pub fn render_overhead(points: &[OverheadPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.workload.to_string(),
                p.disabled_cycles.to_string(),
                p.armed_cycles.to_string(),
                p.guarded_disabled_cycles.to_string(),
                p.guarded_armed_cycles.to_string(),
                if p.is_neutral() { "0" } else { "NONZERO" }.to_string(),
            ]
        })
        .collect();
    render_table(
        &[
            "workload",
            "off",
            "armed-idle",
            "guarded off",
            "guarded armed",
            "delta",
        ],
        &rows,
    )
}

/// Serving-throughput retention under a low-rate fault plan: 1% of
/// requests blow their deadline and 0.1% of pass executions corrupt the
/// IR. Throughput is served requests per simulated busy cycle, so the
/// ratio is host-independent.
#[derive(Debug, Clone)]
pub struct RetentionPoint {
    /// Requests pushed through each pool.
    pub requests: usize,
    /// Total busy cycles, fault-free run.
    pub clean_cycles: u64,
    /// Total busy cycles, faulted run.
    pub faulted_cycles: u64,
    /// Requests served in the fault-free run.
    pub clean_served: u64,
    /// Requests served in the faulted run.
    pub faulted_served: u64,
    /// Tickets resolved in the faulted run (success or typed error).
    pub faulted_resolved: u64,
    /// Faults the injector fired during the faulted run.
    pub injected: u64,
    /// Faulted throughput over fault-free throughput.
    pub retention: f64,
}

/// Runs the same request batch through a fault-free pool and a faulted
/// one (4 workers, serving mix, 1 VDC) and compares cycle throughput.
#[must_use]
pub fn faulted_retention(requests: usize, seed: u64) -> RetentionPoint {
    let db = build_database(&[vdc(CveId::Cve2019_17026)]).expect("vdc database builds");
    let mix = jitbull_workloads::serving_mix();
    let run = |faults: FaultInjector| {
        let pool = Pool::new(
            PoolConfig {
                workers: 4,
                capacity: requests.max(1),
                compare: CompareConfig::default(),
                faults,
                ..PoolConfig::default()
            },
            db.clone(),
        );
        let tickets: Vec<_> = (0..requests)
            .map(|i| {
                let w = &mix[i % mix.len()];
                pool.submit(Request::new(w.source.clone()).with_config(EngineConfig::fast_test()))
                    .expect("capacity sized to the batch")
            })
            .collect();
        // `wait` blocks until the worker answers, so simply draining the
        // tickets proves none were lost (a dropped responder still
        // delivers a typed error).
        let resolved = tickets.into_iter().map(Ticket::wait).count() as u64;
        let stats = pool.shutdown();
        (
            stats.served,
            stats.worker_cycles.iter().sum::<u64>(),
            resolved,
        )
    };
    let (clean_served, clean_cycles, _) = run(FaultInjector::disabled());
    let inj = FaultInjector::from_plan(
        FaultPlan::new(seed)
            .random(FaultSite::WorkerServe, FaultKind::DeadlineBlowout, 0.01)
            .random(FaultSite::PassRun, FaultKind::IrCorrupt, 0.001),
    );
    let (faulted_served, faulted_cycles, faulted_resolved) = run(inj.clone());
    let throughput = |served: u64, cycles: u64| served as f64 / cycles.max(1) as f64;
    RetentionPoint {
        requests,
        clean_cycles,
        faulted_cycles,
        clean_served,
        faulted_served,
        faulted_resolved,
        injected: inj.tally().total(),
        retention: throughput(faulted_served, faulted_cycles)
            / throughput(clean_served, clean_cycles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armed_idle_injector_is_cycle_neutral() {
        for p in injector_overhead() {
            assert!(
                p.is_neutral(),
                "{}: disabled {}/{} vs armed {}/{}",
                p.workload,
                p.disabled_cycles,
                p.guarded_disabled_cycles,
                p.armed_cycles,
                p.guarded_armed_cycles
            );
        }
    }

    #[test]
    fn ladder_recovers_every_injected_fault() {
        let report = ladder(7);
        assert!(report.injected() > 0, "ladder injected nothing");
        assert!(
            report.all_recovered(),
            "unrecovered rungs: {:#?}",
            report
                .steps
                .iter()
                .filter(|s| s.injected != s.recovered)
                .collect::<Vec<_>>()
        );
        assert_eq!(report.injected(), report.tally.total());
    }
}
