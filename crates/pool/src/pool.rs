//! The pool itself: configuration, request/response types, the submit
//! path, database hot-swap publishing, and lifecycle management.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use jitbull::{CompareConfig, DbError, Dna, DnaDatabase, DnaMemo, LoadMode, LoadReport};
use jitbull_chaos::retry::{retry_with, RetryPolicy};
use jitbull_chaos::{BreakerConfig, BreakerStats, CircuitBreaker, FaultInjector, Quarantine};
use jitbull_jit::engine::EngineConfig;
use jitbull_telemetry::{Collector, Event};

use crate::error::PoolError;
use crate::queue::{BoundedQueue, PushError};
use crate::swap::SnapshotCell;
use crate::worker;

/// Shared dyn-collector handle: workers, publishers, and the submit path
/// all record into the same recorder.
pub type SharedCollector = Arc<Mutex<dyn Collector + Send>>;

/// Pool sizing and comparator configuration.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads, each owning an engine (minimum 1).
    pub workers: usize,
    /// Queue capacity; submissions beyond it are rejected with
    /// [`PoolError::Overload`].
    pub capacity: usize,
    /// Δ-comparator thresholds shared by every worker's guard.
    pub compare: CompareConfig,
    /// Compile cache (DNAs, verdicts, pipeline outputs and code) shared
    /// by every worker's guard. The default is one fresh store per pool;
    /// handing the same handle to several pools shares compilation and
    /// analysis work across them. Compilation and extraction are
    /// independent of the VDC database, so DNAs and code stay warm
    /// across hot swaps; verdicts are stamped with the database
    /// generation.
    pub memo: DnaMemo,
    /// Fault injector threaded through every worker (dequeue hook, the
    /// engine's pipeline, the guard's comparator) and the reload path.
    /// Disabled by default — zero overhead.
    pub faults: FaultInjector,
    /// JIT circuit-breaker tuning. The default window/threshold tolerate
    /// isolated compilation failures; a genuine failure burst trips
    /// engine-wide interpreter degradation until a probe succeeds.
    pub breaker: BreakerConfig,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 4,
            capacity: 64,
            compare: CompareConfig::default(),
            memo: DnaMemo::default(),
            faults: FaultInjector::disabled(),
            breaker: BreakerConfig::default(),
        }
    }
}

/// One script-serving request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The script source to execute.
    pub source: String,
    /// Per-request engine configuration (tier thresholds, vulnerability
    /// set, …). The serving worker replaces its `faults` and `quarantine`
    /// with the pool's, and clears `jit_enabled` when it degrades the
    /// request.
    pub config: EngineConfig,
    /// Maximum time the request may wait in the queue before the worker
    /// degrades it to interpreter-only execution (`None` = never).
    pub deadline: Option<Duration>,
    /// Fault injection: the serving worker panics instead of executing
    /// (soak tests exercise the isolate-and-respawn path with this).
    pub chaos_panic: bool,
}

impl Request {
    /// A request with the default engine configuration and no deadline.
    #[must_use]
    pub fn new(source: impl Into<String>) -> Self {
        Request {
            source: source.into(),
            config: EngineConfig::default(),
            deadline: None,
            chaos_panic: false,
        }
    }

    /// Replaces the engine configuration.
    #[must_use]
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the queue-wait deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Arms the fault injector.
    #[must_use]
    pub fn with_chaos_panic(mut self) -> Self {
        self.chaos_panic = true;
        self
    }
}

/// What a worker produced for one request.
#[derive(Debug, Clone)]
pub struct PoolResponse {
    /// Worker index that served the request.
    pub worker: usize,
    /// Generation of the database snapshot the verdicts came from (ties
    /// the response to exact content). Always `>= min_generation` — the
    /// no-stale-verdict guarantee.
    pub db_generation: u64,
    /// Generation published when the request was submitted.
    pub min_generation: u64,
    /// Whether the deadline lapsed and the run fell back to
    /// interpreter-only execution.
    pub degraded: bool,
    /// Lines the script printed.
    pub printed: Vec<String>,
    /// Simulated cycles the run consumed.
    pub cycles: u64,
    /// Functions that reached the optimizing tier (`Nr_JIT`).
    pub nr_jit: usize,
    /// Functions with ≥1 pass disabled (`Nr_DisJIT`).
    pub nr_disjit: usize,
    /// Functions whose optimizing JIT was vetoed (`Nr_NoJIT`).
    pub nr_nojit: usize,
    /// Simulated cycles spent in JITBULL analysis.
    pub analysis_cycles: u64,
    /// Distinct CVEs any function's DNA matched, sorted.
    pub matched_cves: Vec<String>,
    /// Microseconds spent waiting in the queue.
    pub wait_micros: u64,
    /// Microseconds the worker spent executing.
    pub run_micros: u64,
    /// Whether the run was degraded to interpreter-only because the JIT
    /// circuit breaker was open (subset of `degraded`).
    pub breaker_degraded: bool,
    /// Compilations this run abandoned (panic, broken graph, or watchdog
    /// expiry) — each recovered by per-function fallback.
    pub compile_failures: u64,
}

/// One-shot response slot shared between a [`Ticket`] and the worker-side
/// [`Responder`].
#[derive(Debug)]
struct TicketShared {
    slot: Mutex<Option<Result<PoolResponse, PoolError>>>,
    ready: Condvar,
}

/// The caller's handle to a submitted request.
#[derive(Debug)]
pub struct Ticket {
    shared: Arc<TicketShared>,
}

impl Ticket {
    fn new() -> (Ticket, Responder) {
        let shared = Arc::new(TicketShared {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        });
        (
            Ticket {
                shared: Arc::clone(&shared),
            },
            Responder {
                shared,
                sent: false,
            },
        )
    }

    /// Blocks until the request resolves. Every accepted request
    /// resolves: the worker responds, or — if it panics or the pool
    /// drops the job — the responder's drop delivers
    /// [`PoolError::Panicked`] / [`PoolError::ShuttingDown`].
    pub fn wait(self) -> Result<PoolResponse, PoolError> {
        let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self
                .shared
                .ready
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking check; returns the resolution if available.
    pub fn try_wait(&self) -> Option<Result<PoolResponse, PoolError>> {
        self.shared
            .slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }
}

/// Worker-side half of the one-shot. If dropped unanswered (worker panic
/// unwinding, queue dropped at shutdown), delivers [`PoolError::Panicked`]
/// so the ticket can never hang.
#[derive(Debug)]
pub(crate) struct Responder {
    shared: Arc<TicketShared>,
    sent: bool,
}

impl Responder {
    pub(crate) fn send(mut self, result: Result<PoolResponse, PoolError>) {
        self.deliver(result);
        self.sent = true;
    }

    fn deliver(&self, result: Result<PoolResponse, PoolError>) {
        let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(result);
        drop(slot);
        self.shared.ready.notify_one();
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if !self.sent {
            self.deliver(Err(PoolError::Panicked));
        }
    }
}

/// A queued unit of work (request + submit-time stamps + response slot).
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) request: Request,
    pub(crate) enqueued_at: Instant,
    pub(crate) min_generation: u64,
    pub(crate) responder: Responder,
}

/// Lock-free counters shared by the pool handle and its workers.
#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub(crate) submitted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) served: AtomicU64,
    pub(crate) degraded: AtomicU64,
    pub(crate) breaker_degraded: AtomicU64,
    pub(crate) compile_failures: AtomicU64,
    pub(crate) worker_restarts: AtomicU64,
    pub(crate) hotswaps: AtomicU64,
    /// Simulated busy cycles per worker (index = worker).
    pub(crate) worker_cycles: Vec<AtomicU64>,
}

/// A point-in-time copy of the pool's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests refused with [`PoolError::Overload`].
    pub rejected: u64,
    /// Requests a worker finished (success or script error).
    pub served: u64,
    /// Served requests that fell back to interpreter-only execution.
    pub degraded: u64,
    /// Degradations forced by the open JIT circuit breaker (subset of
    /// `degraded`).
    pub breaker_degraded: u64,
    /// Compilations abandoned across all workers (panic / broken graph /
    /// watchdog), each recovered by per-function fallback.
    pub compile_failures: u64,
    /// Worker panics recovered by respawn.
    pub worker_restarts: u64,
    /// Database snapshots published.
    pub hotswaps: u64,
    /// Simulated busy cycles per worker.
    pub worker_cycles: Vec<u64>,
}

impl PoolStats {
    /// Load-balance quality: total busy simulated cycles divided by the
    /// busiest worker's cycles. Equals the worker count under perfect
    /// balance and 1.0 when one worker did everything — the pool's
    /// scaling headline on any host, independent of physical core count.
    #[must_use]
    pub fn cycle_speedup(&self) -> f64 {
        let total: u64 = self.worker_cycles.iter().sum();
        let max = self.worker_cycles.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 0.0;
        }
        total as f64 / max as f64
    }
}

/// The concurrent script-serving runtime.
///
/// `workers` threads each own a JIT engine and a guard over the current
/// database snapshot; a bounded queue feeds them; [`Pool::install`] /
/// [`Pool::remove_cve`] / [`Pool::reload_from_text`] hot-swap the
/// database mid-traffic via [`SnapshotCell`].
pub struct Pool {
    queue: Arc<BoundedQueue<Job>>,
    cell: Arc<SnapshotCell>,
    stats: Arc<StatsInner>,
    collector: Option<SharedCollector>,
    /// Shared per-pool fault injector (clones in every worker).
    faults: FaultInjector,
    /// Engine-wide JIT circuit breaker shared by every worker.
    breaker: CircuitBreaker,
    /// Pool-wide function quarantine, surviving worker respawns.
    quarantine: Quarantine,
    /// Graceful-drain deadline: set once by
    /// [`Pool::shutdown_with_deadline`]; workers serve remaining queued
    /// requests interpreter-only after it lapses.
    drain_by: Arc<OnceLock<Instant>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Starts a pool serving from `db`.
    #[must_use]
    pub fn new(config: PoolConfig, db: DnaDatabase) -> Self {
        Pool::build(config, db, None)
    }

    /// Starts a pool that records telemetry into `collector`.
    #[must_use]
    pub fn with_collector(config: PoolConfig, db: DnaDatabase, collector: SharedCollector) -> Self {
        Pool::build(config, db, Some(collector))
    }

    fn build(config: PoolConfig, db: DnaDatabase, collector: Option<SharedCollector>) -> Self {
        let workers = config.workers.max(1);
        let queue = Arc::new(BoundedQueue::new(config.capacity));
        let cell = Arc::new(SnapshotCell::new(db));
        let stats = Arc::new(StatsInner {
            worker_cycles: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            ..Default::default()
        });
        let breaker = CircuitBreaker::new(config.breaker);
        let quarantine = Quarantine::default();
        let drain_by = Arc::new(OnceLock::new());
        let handles = (0..workers)
            .map(|ix| {
                let ctx = worker::WorkerCtx {
                    index: ix,
                    queue: Arc::clone(&queue),
                    cell: Arc::clone(&cell),
                    stats: Arc::clone(&stats),
                    collector: collector.clone(),
                    compare: config.compare,
                    memo: config.memo.clone(),
                    faults: config.faults.clone(),
                    breaker: breaker.clone(),
                    quarantine: quarantine.clone(),
                    drain_by: Arc::clone(&drain_by),
                };
                std::thread::Builder::new()
                    .name(format!("jitbull-pool-worker-{ix}"))
                    .spawn(move || worker::supervise(ctx))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            queue,
            cell,
            stats,
            collector,
            faults: config.faults,
            breaker,
            quarantine,
            drain_by,
            handles,
        }
    }

    fn record(&self, event: Event) {
        if let Some(c) = &self.collector {
            c.lock().unwrap_or_else(|e| e.into_inner()).record(event);
        }
    }

    /// Submits a request. Non-blocking: a full queue yields
    /// [`PoolError::Overload`] immediately (backpressure), a closed pool
    /// yields [`PoolError::ShuttingDown`].
    ///
    /// # Errors
    ///
    /// [`PoolError::Overload`] / [`PoolError::ShuttingDown`] as above.
    pub fn submit(&self, request: Request) -> Result<Ticket, PoolError> {
        let (ticket, responder) = Ticket::new();
        let job = Job {
            request,
            enqueued_at: Instant::now(),
            min_generation: self.cell.generation(),
            responder,
        };
        match self.queue.try_push(job) {
            Ok(depth) => {
                self.stats.submitted.fetch_add(1, Ordering::Relaxed);
                self.record(Event::PoolSubmitted {
                    depth: depth as u64,
                });
                Ok(ticket)
            }
            Err(PushError::Full(job, depth)) => {
                // Mark answered so the drop doesn't report a panic.
                job.responder.send(Err(PoolError::Overload { depth }));
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                self.record(Event::PoolRejected {
                    depth: depth as u64,
                });
                Err(PoolError::Overload { depth })
            }
            Err(PushError::Closed(job)) => {
                job.responder.send(Err(PoolError::ShuttingDown));
                Err(PoolError::ShuttingDown)
            }
        }
    }

    /// Publishes what `edit` makes of the database and records the
    /// hot-swap. Returns `edit`'s result and the generation published.
    fn publish<R>(&self, edit: impl FnOnce(&mut Arc<DnaDatabase>) -> R) -> (R, u64) {
        let (result, db) = self.cell.publish(edit);
        self.stats.hotswaps.fetch_add(1, Ordering::Relaxed);
        self.record(Event::PoolHotSwap {
            entries: db.len() as u64,
            generation: db.generation(),
        });
        (result, db.generation())
    }

    /// Installs a VDC entry and publishes the new snapshot mid-traffic.
    /// Returns the published generation.
    pub fn install(&self, cve: impl Into<String>, function: impl Into<String>, dna: Dna) -> u64 {
        let ((), generation) = self.publish(|db| Arc::make_mut(db).install(cve, function, dna));
        generation
    }

    /// Removes a CVE's entries and publishes. Returns `(entries removed,
    /// published generation)`.
    pub fn remove_cve(&self, cve: &str) -> (usize, u64) {
        self.publish(|db| Arc::make_mut(db).remove_cve(cve))
    }

    /// Replaces the whole database from maintainer-update text and
    /// publishes. Returns the published generation.
    ///
    /// # Errors
    ///
    /// Propagates [`DbError`]; the failure kind is also recorded as an
    /// [`Event::PoolReloadFailed`] and the previous database keeps
    /// serving untouched.
    pub fn reload_from_text(&self, text: &str) -> Result<u64, DbError> {
        match DnaDatabase::from_text(text) {
            Ok(db) => Ok(self.publish(|slot| *slot = Arc::new(db)).1),
            Err(e) => {
                self.record(Event::PoolReloadFailed { kind: e.kind() });
                Err(e)
            }
        }
    }

    /// [`Pool::reload_from_text`] hardened for transient faults: parses
    /// through the pool's fault injector and retries with seeded
    /// exponential backoff. The swap is all-or-nothing — a partial or
    /// failed parse never publishes, so the previous snapshot keeps
    /// serving through every retry and past final failure. Each retry is
    /// recorded as an [`Event::ReloadRetry`]; a success that needed
    /// retries as an [`Event::ReloadRecovered`].
    ///
    /// Returns the published generation and the [`LoadReport`] (non-empty
    /// warnings only under [`LoadMode::Partial`]).
    ///
    /// # Errors
    ///
    /// The final attempt's [`DbError`] once the policy's attempts are
    /// exhausted (also recorded as [`Event::PoolReloadFailed`]).
    pub fn reload_with_retry(
        &self,
        text: &str,
        mode: LoadMode,
        policy: &RetryPolicy,
    ) -> Result<(u64, LoadReport), DbError> {
        let (result, retries) = retry_with(
            policy,
            |_| DnaDatabase::from_text_faulted(text, mode, &self.faults),
            |attempt, backoff_micros, err: &DbError| {
                self.record(Event::ReloadRetry {
                    attempt,
                    backoff_micros,
                    kind: err.kind(),
                });
            },
        );
        match result {
            Ok((db, report)) => {
                let ((), generation) = self.publish(|slot| *slot = Arc::new(db));
                if retries.attempts > 1 {
                    self.record(Event::ReloadRecovered {
                        attempts: retries.attempts,
                    });
                }
                Ok((generation, report))
            }
            Err(e) => {
                self.record(Event::PoolReloadFailed { kind: e.kind() });
                Err(e)
            }
        }
    }

    /// A snapshot of the shared JIT circuit breaker's health.
    #[must_use]
    pub fn breaker_stats(&self) -> BreakerStats {
        self.breaker.stats()
    }

    /// Functions pinned no-go by the pool-wide quarantine, sorted.
    #[must_use]
    pub fn quarantined(&self) -> Vec<String> {
        self.quarantine.quarantined()
    }

    /// The currently published snapshot.
    #[must_use]
    pub fn published(&self) -> Arc<DnaDatabase> {
        self.cell.load()
    }

    /// Current queue depth (racy; for gauges).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// A snapshot of the pool's counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            served: self.stats.served.load(Ordering::Relaxed),
            degraded: self.stats.degraded.load(Ordering::Relaxed),
            breaker_degraded: self.stats.breaker_degraded.load(Ordering::Relaxed),
            compile_failures: self.stats.compile_failures.load(Ordering::Relaxed),
            worker_restarts: self.stats.worker_restarts.load(Ordering::Relaxed),
            hotswaps: self.stats.hotswaps.load(Ordering::Relaxed),
            worker_cycles: self
                .stats
                .worker_cycles
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Stops accepting requests, drains the queue, joins every worker,
    /// and returns the final counters.
    pub fn shutdown(mut self) -> PoolStats {
        self.queue.close();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.stats()
    }

    /// Graceful drain: stops accepting, serves already-queued requests
    /// normally until `deadline` from now, and resolves whatever is
    /// still queued after that as interpreter-only (degraded) responses.
    /// No accepted ticket is ever dropped — late requests get a correct,
    /// cheaper answer instead of an error.
    pub fn shutdown_with_deadline(self, deadline: Duration) -> PoolStats {
        let _ = self.drain_by.set(Instant::now() + deadline);
        self.shutdown()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.queue.close();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}
