//! Telemetry integration: invariants the event stream and metrics must
//! satisfy over full workload runs.

use std::cell::RefCell;
use std::rc::Rc;

use jitbull::{CompareConfig, DnaDatabase, DnaMemo, Guard};
use jitbull_bench::figures::db_with;
use jitbull_jit::engine::{Engine, EngineConfig};
use jitbull_jit::VulnConfig;
use jitbull_telemetry::{Event, Recorder, Tier};
use jitbull_workloads::{microbenches, run_workload, run_workload_observed, serving_mix};

/// A recorder with the default ring. A test that reads the event stream
/// first asserts its run dropped no event.
fn recorder() -> Rc<RefCell<Recorder>> {
    Rc::new(RefCell::new(Recorder::new()))
}

#[test]
fn ion_promotions_match_ion_compiles_on_a_clean_engine() {
    for w in microbenches() {
        let rec = recorder();
        let m = run_workload_observed(&w, EngineConfig::default(), None, rec.clone())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let rec = rec.borrow();
        let met = rec.metrics();
        // No guard, harmless code: every optimizing compile promotes.
        assert_eq!(
            met.counter("engine.compile.ion"),
            met.counter("engine.promoted.ion"),
            "{}",
            w.name
        );
        assert_eq!(met.counter("engine.promoted.ion"), m.nr_jit as u64);
        assert_eq!(met.counter("runs.clean"), 1);
        // Counters agree with the raw event stream.
        assert_eq!(rec.events().dropped(), 0);
        let promoted_events = rec
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::TierPromoted {
                        tier: Tier::Ion,
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(promoted_events, met.counter("engine.promoted.ion"));
    }
}

#[test]
fn verdicts_partition_analyses_under_jitbull() {
    let (db, vulns) = db_with(4);
    for w in microbenches() {
        let rec = recorder();
        run_workload_observed(
            &w,
            EngineConfig {
                vulns: vulns.clone(),
                ..Default::default()
            },
            Some(db.clone()),
            rec.clone(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let rec = rec.borrow();
        let met = rec.metrics();
        let analyses = met.counter("guard.analyses");
        assert!(analyses > 0, "{}: guard never ran", w.name);
        // Exactly one policy verdict per guard analysis, one analysis per
        // optimizing compile round.
        assert_eq!(
            met.counter("policy.go")
                + met.counter("policy.recompile")
                + met.counter("policy.nojit"),
            analyses,
            "{}",
            w.name
        );
        assert_eq!(analyses, met.counter("engine.compile.ion"), "{}", w.name);
        // Per-slot attribution covers the whole pipeline charge.
        let slot_total: u64 = rec.slot_stats().iter().map(|s| s.cycles).sum();
        assert_eq!(slot_total, met.counter("pipeline.cycles"), "{}", w.name);
    }
}

#[test]
fn empty_db_observation_is_cycle_neutral_and_guard_silent() {
    let benches = microbenches();
    let plain = run_workload(&benches[0], EngineConfig::default(), None).unwrap();
    let rec = recorder();
    let observed = run_workload_observed(
        &benches[0],
        EngineConfig::default(),
        Some(DnaDatabase::new()),
        rec.clone(),
    )
    .unwrap();
    // Attaching a recorder must not perturb the simulated cycle model —
    // the paper's zero-overhead empty-DB property survives observation.
    assert_eq!(plain.cycles, observed.cycles);
    let rec = rec.borrow();
    let met = rec.metrics();
    // With no VDCs installed the guard and policy never run.
    assert_eq!(met.counter("guard.analyses"), 0);
    assert_eq!(
        met.counter("policy.go") + met.counter("policy.recompile") + met.counter("policy.nojit"),
        0
    );
    assert_eq!(rec.events().dropped(), 0);
    assert!(rec.events().iter().all(|e| !matches!(
        e,
        Event::GuardAnalyzed { .. } | Event::PolicyDecision { .. }
    )));
}

/// Per Ion compile round of one run on `engine`: the `PassApplied`
/// events it emitted (slot, name, instruction counts and cycles).
fn pass_rounds(engine: &mut Engine, source: &str) -> Vec<Vec<Event>> {
    let rec = recorder();
    engine.set_collector(rec.clone());
    engine.run_source_with(source).unwrap();
    assert_eq!(rec.borrow().events().dropped(), 0);
    let mut rounds: Vec<Vec<Event>> = Vec::new();
    for e in rec.borrow().events().iter() {
        match e {
            Event::CompileStarted {
                tier: Tier::Ion, ..
            } => rounds.push(Vec::new()),
            Event::PassApplied { .. } => rounds.last_mut().unwrap().push(e.clone()),
            _ => {}
        }
    }
    rounds
}

#[test]
fn a_served_round_replays_the_passes_of_the_round_that_stored_it() {
    let db = jitbull_vdc::build_database(&jitbull_vdc::all_vdcs()).unwrap();
    let mut guard = Guard::new(db, CompareConfig { thr: 1, ratio: 0.5 });
    let memo = DnaMemo::default();
    guard.set_dna_memo(memo.clone());
    let config = EngineConfig {
        vulns: VulnConfig::all(),
        ..EngineConfig::fast_test()
    };
    let mut engine = Engine::with_guard(config, guard);
    let mix = serving_mix();
    let source = &mix.iter().find(|w| w.name == "ServeArray").unwrap().source;
    let stored = pass_rounds(&mut engine, source);
    let cold = memo.stats();
    assert_eq!(cold.hits, 0);
    assert!(stored.len() > 1, "the script must recompile: {stored:?}");
    // The same script again: every round is served from the cache, and
    // replays exactly the passes the compiling round reported.
    let served = pass_rounds(&mut engine, source);
    let warm = memo.stats();
    assert_eq!(warm.hits - cold.hits, warm.lookups - cold.lookups);
    assert!(warm.code_hits > 0, "{warm:?}");
    assert_eq!(served, stored);
    assert!(served.iter().all(|round| !round.is_empty()));
}
