//! Worker threads: dequeue → refresh snapshot → (maybe degrade) →
//! execute → respond. Panics are isolated per worker and recovered by an
//! in-thread supervisor that rebuilds the worker's state from scratch.

use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use jitbull::{CompareConfig, DnaDatabase, DnaMemo, Guard};
use jitbull_chaos::{CircuitBreaker, FaultInjector, FaultKind, FaultSite, Quarantine};
use jitbull_jit::engine::Engine;
use jitbull_telemetry::{Collector, Event};

use crate::error::PoolError;
use crate::pool::{Job, PoolResponse, SharedCollector, StatsInner};
use crate::queue::BoundedQueue;
use crate::swap::EpochCell;

/// Everything a worker thread needs, cloned per worker at pool start.
pub(crate) struct WorkerCtx {
    pub(crate) index: usize,
    pub(crate) queue: Arc<BoundedQueue<Job>>,
    pub(crate) cell: Arc<EpochCell>,
    pub(crate) stats: Arc<StatsInner>,
    pub(crate) collector: Option<SharedCollector>,
    pub(crate) compare: CompareConfig,
    pub(crate) memo: DnaMemo,
    pub(crate) faults: FaultInjector,
    pub(crate) breaker: CircuitBreaker,
    pub(crate) quarantine: Quarantine,
    pub(crate) drain_by: Arc<OnceLock<Instant>>,
}

/// Adapts the pool's `Arc<Mutex<_>>` shared collector to the engine's
/// thread-local `Rc<RefCell<dyn Collector>>` slot, so engine-level
/// recovery events (watchdog expiries, quarantines, injected faults)
/// surface in the pool's recorder.
struct Forward(SharedCollector);

impl Collector for Forward {
    fn record(&mut self, event: Event) {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(event);
    }
}

impl WorkerCtx {
    fn record(&self, event: Event) {
        if let Some(c) = &self.collector {
            c.lock().unwrap_or_else(|e| e.into_inner()).record(event);
        }
    }
}

/// Per-worker mutable state: the snapshot the worker currently serves
/// from and the warm guard (comparator index + verdict cache) built over
/// it. Dropped wholesale when the epoch moves or the worker respawns.
struct WorkerState {
    epoch: u64,
    db: Option<Arc<DnaDatabase>>,
    guard: Option<Guard>,
}

/// The thread body: run [`worker_loop`] until the queue closes; if it
/// panics, count a restart and run it again with fresh state. The panic
/// unwinds through the in-flight [`Job`], whose responder delivers
/// [`PoolError::Panicked`] on drop — the caller's ticket never hangs.
pub(crate) fn supervise(ctx: WorkerCtx) {
    loop {
        match std::panic::catch_unwind(AssertUnwindSafe(|| worker_loop(&ctx))) {
            Ok(()) => return,
            Err(_) => {
                ctx.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
                ctx.record(Event::PoolWorkerRestarted { worker: ctx.index });
            }
        }
    }
}

fn worker_loop(ctx: &WorkerCtx) {
    let mut state = WorkerState {
        epoch: 0,
        db: None,
        guard: None,
    };
    while let Some(job) = ctx.queue.pop() {
        serve(ctx, &mut state, job);
    }
}

fn serve(ctx: &WorkerCtx, state: &mut WorkerState, job: Job) {
    let Job {
        request,
        enqueued_at,
        min_epoch,
        responder,
    } = job;

    // Refresh the snapshot if a publisher moved the epoch. The lock-free
    // check makes the steady state cheap; the reload drops the warm guard
    // because its index and verdict cache belong to the old content.
    if state.db.is_none() || ctx.cell.epoch() != state.epoch {
        let (epoch, db) = ctx.cell.load();
        state.epoch = epoch;
        state.db = Some(db);
        state.guard = None;
    }
    debug_assert!(state.epoch >= min_epoch, "epoch ran backwards");

    // Chaos hook: one occurrence per dequeued request.
    let mut chaos_blowout = false;
    match ctx.faults.fire(FaultSite::WorkerServe) {
        Some(FaultKind::WorkerPanic) => {
            // Unwind through the supervisor; the responder's drop
            // resolves the ticket with `PoolError::Panicked`.
            panic!("chaos: injected worker panic");
        }
        Some(FaultKind::DeadlineBlowout) => chaos_blowout = true,
        _ => {}
    }

    let wait = enqueued_at.elapsed();
    let drain_lapsed = ctx.drain_by.get().is_some_and(|by| Instant::now() >= *by);
    let deadline_degraded =
        request.deadline.is_some_and(|d| wait >= d) || chaos_blowout || drain_lapsed;

    if request.chaos_panic {
        // Fault injection: unwind through the supervisor. `request` (and
        // nothing else) is lost; the responder's drop reports it.
        panic!("chaos_panic: injected worker fault");
    }

    let mut config = request.config;
    // Thread the pool-wide chaos/recovery state through the engine: the
    // injector reaches the pipeline, extractor, and comparator, and
    // quarantine strikes accumulate across requests and worker respawns.
    config.faults = ctx.faults.clone();
    config.quarantine = ctx.quarantine.clone();
    // The pool's shared DNA memo is authoritative: every worker memoizes
    // into (and hits from) the same store, and the memo outlives snapshot
    // swaps because extraction never reads the VDC database. The request
    // keeps its own extractor mode.
    config.memo = ctx.memo.clone();

    // Circuit breaker: an open breaker degrades the run engine-wide; a
    // half-open one lets exactly one probe compile.
    let permit = ctx.breaker.admit();
    let breaker_degraded = config.jit_enabled && !deadline_degraded && !permit.jit_allowed();
    let degraded = deadline_degraded || breaker_degraded;
    if degraded {
        // Graceful degradation — the paper's no-JIT scenario generalized
        // to load shedding: a late request still gets a correct answer,
        // just from the (cheap-to-enter) interpreter.
        config.jit_enabled = false;
    }
    let jit_ran = config.jit_enabled;

    let db = Arc::clone(state.db.as_ref().expect("snapshot loaded"));
    let guard = state
        .guard
        .take()
        .unwrap_or_else(|| Guard::with_comparator((*db).clone(), ctx.compare, config.comparator));
    let mut engine = Engine::with_guard(config, guard);
    if let Some(shared) = &ctx.collector {
        engine.set_collector(Rc::new(RefCell::new(Forward(Arc::clone(shared)))));
    }
    let started = Instant::now();
    let result = engine.run_source_with(&request.source);
    let run_micros = started.elapsed().as_micros() as u64;
    let compile_failures = engine.compile_failures;
    // Keep the warm guard for the next request on this snapshot.
    state.guard = engine.into_guard();

    // Close the breaker loop: a JIT-enabled run reports its compilation
    // health; a degraded run says nothing about it, so its permit is
    // cancelled (freeing a wedged probe slot rather than faking a
    // verdict).
    if jit_ran {
        permit.report(compile_failures > 0);
    } else {
        permit.cancel();
    }
    for (from, to) in ctx.breaker.drain_transitions() {
        ctx.record(Event::BreakerTransition { from, to });
    }

    let wait_micros = wait.as_micros() as u64;
    ctx.stats.served.fetch_add(1, Ordering::Relaxed);
    ctx.stats
        .compile_failures
        .fetch_add(compile_failures, Ordering::Relaxed);
    if degraded {
        ctx.stats.degraded.fetch_add(1, Ordering::Relaxed);
    }
    if breaker_degraded {
        ctx.stats.breaker_degraded.fetch_add(1, Ordering::Relaxed);
    }
    ctx.record(Event::PoolServed {
        worker: ctx.index,
        degraded,
        wait_micros,
        run_micros,
    });

    match result {
        Ok(out) => {
            ctx.stats.worker_cycles[ctx.index].fetch_add(out.outcome.cycles, Ordering::Relaxed);
            let mut matched_cves: Vec<String> = out
                .stats
                .iter()
                .flat_map(|s| s.matched.iter().map(|(cve, _)| cve.clone()))
                .collect();
            matched_cves.sort();
            matched_cves.dedup();
            responder.send(Ok(PoolResponse {
                worker: ctx.index,
                db_epoch: state.epoch,
                db_generation: db.generation(),
                min_epoch,
                degraded,
                printed: out.outcome.printed,
                cycles: out.outcome.cycles,
                nr_jit: out.nr_jit,
                nr_disjit: out.nr_disjit,
                nr_nojit: out.nr_nojit,
                analysis_cycles: out.analysis_cycles,
                matched_cves,
                wait_micros,
                run_micros,
                breaker_degraded,
                compile_failures,
            }));
        }
        Err(e) => responder.send(Err(PoolError::Script(e.to_string()))),
    }
}
