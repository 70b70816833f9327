//! # jitbull-telemetry — engine-wide observability
//!
//! The paper's whole mechanism is a sequence of runtime decisions — tier
//! promotions, per-pass IR deltas, dangerous-pass matches, go /
//! recompile-without-passes / no-JIT verdicts — and this crate makes them
//! observable without touching the numbers the figures are built from.
//! It is dependency-free and hand-rolled (no `tracing`), consistent with
//! the repo's offline-build stance.
//!
//! Three layers:
//!
//! * [`Event`] — the typed event taxonomy ([`event`]), stored in a
//!   bounded [`RingBuffer`] so telemetry can never exhaust memory;
//! * [`Registry`] — named counters / gauges / log₂ histograms
//!   ([`metrics`]), updated automatically as events arrive;
//! * [`export`] — the text rendering of a [`Recorder`]'s state.
//!
//! The engine-facing surface is the [`Collector`] trait. Producers hold
//! an `Option<Rc<RefCell<dyn Collector>>>` and skip event construction
//! entirely when none is attached, so an unobserved engine does no
//! telemetry work at all — preserving the paper's zero-overhead
//! empty-database property (§V). [`NoopCollector`] exists for call sites
//! that want a `&mut dyn Collector` unconditionally; its `record` is an
//! empty inline function.
//!
//! # Examples
//!
//! ```
//! use jitbull_telemetry::{Collector, Event, Recorder, Tier};
//!
//! let mut rec = Recorder::new();
//! rec.record(Event::TierPromoted { function: "hot".into(), tier: Tier::Ion });
//! assert_eq!(rec.metrics().counter("engine.promoted.ion"), 1);
//! assert_eq!(rec.events().len(), 1);
//! ```

pub mod event;
pub mod export;
pub mod metrics;
pub mod ring;

pub use event::{Event, Tier, Verdict};
pub use export::export_text;
pub use metrics::{Histogram, Registry};
pub use ring::RingBuffer;

/// Receives telemetry events. Implemented by [`Recorder`] (stores and
/// aggregates) and [`NoopCollector`] (discards).
pub trait Collector {
    /// Ingests one event.
    fn record(&mut self, event: Event);
}

/// A collector that discards everything. `record` is an empty `#[inline]`
/// body, so passing it compiles down to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopCollector;

impl Collector for NoopCollector {
    #[inline]
    fn record(&mut self, _event: Event) {}
}

/// Event-ring capacity of every [`Recorder`].
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// Per-slot aggregation of [`Event::PassApplied`] — the cycle-attribution
/// table behind `repro -- obs`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotStat {
    /// Pass name as of the last application seen for this slot.
    pub name: &'static str,
    /// Times the slot ran.
    pub applications: u64,
    /// Simulated compile cycles attributed to the slot.
    pub cycles: u64,
    /// Net instructions removed across applications.
    pub instrs_removed: u64,
    /// Net instructions added across applications.
    pub instrs_added: u64,
}

/// The default collector: a bounded event ring plus a metrics registry
/// that aggregates every event as it arrives.
#[derive(Debug, Clone)]
pub struct Recorder {
    events: RingBuffer<Event>,
    metrics: Registry,
    slots: Vec<SlotStat>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder whose event ring holds at most
    /// [`DEFAULT_EVENT_CAPACITY`] events.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            events: RingBuffer::new(DEFAULT_EVENT_CAPACITY),
            metrics: Registry::new(),
            slots: Vec::new(),
        }
    }

    /// The stored events (oldest first, bounded).
    #[must_use]
    pub fn events(&self) -> &RingBuffer<Event> {
        &self.events
    }

    /// The aggregated metrics.
    #[must_use]
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Mutable metrics access, for producers that export gauges directly
    /// (database size, fuel used, …).
    pub fn metrics_mut(&mut self) -> &mut Registry {
        &mut self.metrics
    }

    /// Per-slot cycle attribution, indexed by pipeline slot. Slots that
    /// never ran have `applications == 0`.
    #[must_use]
    pub fn slot_stats(&self) -> &[SlotStat] {
        &self.slots
    }

    /// Whether nothing at all was recorded (events, metrics, slots).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.metrics.is_empty() && self.slots.is_empty()
    }

    fn aggregate(&mut self, event: &Event) {
        self.metrics
            .counter_inc(&format!("events.{}", event.kind()));
        match event {
            Event::CompileStarted { tier, .. } => {
                self.metrics
                    .counter_inc(&format!("engine.compile.{}", tier.name()));
            }
            Event::TierPromoted { tier, .. } => {
                self.metrics
                    .counter_inc(&format!("engine.promoted.{}", tier.name()));
            }
            Event::PassApplied {
                slot,
                name,
                instrs_removed,
                instrs_added,
                cycles,
            } => {
                self.metrics.counter_add("pipeline.cycles", *cycles);
                self.metrics.observe("pipeline.slot_cycles", *cycles);
                if self.slots.len() <= *slot {
                    self.slots.resize(*slot + 1, SlotStat::default());
                }
                let s = &mut self.slots[*slot];
                s.name = name;
                s.applications += 1;
                s.cycles = s.cycles.saturating_add(*cycles);
                s.instrs_removed = s.instrs_removed.saturating_add(*instrs_removed);
                s.instrs_added = s.instrs_added.saturating_add(*instrs_added);
            }
            Event::ComparatorQuery {
                cache_hit,
                prefilter_rejects,
                set_merges,
                ..
            } => {
                self.metrics.counter_inc("comparator.queries");
                self.metrics.counter_inc(if *cache_hit {
                    "comparator.cache_hits"
                } else {
                    "comparator.cache_misses"
                });
                self.metrics
                    .counter_add("comparator.prefilter_rejects", *prefilter_rejects);
                self.metrics
                    .counter_add("comparator.set_merges", *set_merges);
            }
            Event::ExtractorQuery {
                memo_hit,
                passes_enumerated,
                passes_skipped,
                chains_enumerated,
                chains_skipped,
                ..
            } => {
                self.metrics.counter_inc("extract.queries");
                self.metrics.counter_inc(if *memo_hit {
                    "extract.memo_hits"
                } else {
                    "extract.memo_misses"
                });
                self.metrics
                    .counter_add("extract.passes_enumerated", *passes_enumerated);
                self.metrics
                    .counter_add("extract.passes_skipped", *passes_skipped);
                self.metrics
                    .counter_add("extract.chains_enumerated", *chains_enumerated);
                self.metrics
                    .counter_add("extract.chains_skipped", *chains_skipped);
            }
            Event::GuardAnalyzed {
                matches,
                dangerous,
                cost_cycles,
                ..
            } => {
                self.metrics.counter_inc("guard.analyses");
                self.metrics.counter_add("guard.matches", *matches);
                self.metrics
                    .counter_add("guard.dangerous_slots", *dangerous);
                self.metrics.counter_add("guard.cycles", *cost_cycles);
                self.metrics.observe("guard.cost_cycles", *cost_cycles);
            }
            Event::PolicyDecision { verdict, .. } => {
                self.metrics
                    .counter_inc(&format!("policy.{}", verdict.name()));
            }
            Event::ExploitOutcome { clean, .. } => {
                self.metrics.counter_inc(if *clean {
                    "runs.clean"
                } else {
                    "runs.compromised"
                });
            }
            Event::FuzzSeed {
                find, script_error, ..
            } => {
                self.metrics.counter_inc("fuzz.seeds");
                if *find {
                    self.metrics.counter_inc("fuzz.finds");
                }
                if *script_error {
                    self.metrics.counter_inc("fuzz.script_errors");
                }
            }
            Event::FuzzCampaignFinished { .. } => {
                self.metrics.counter_inc("fuzz.campaigns");
            }
            Event::PoolSubmitted { depth } => {
                self.metrics.counter_inc("pool.submitted");
                self.metrics.gauge_set("pool.queue_depth", *depth as i64);
            }
            Event::PoolRejected { depth } => {
                self.metrics.counter_inc("pool.rejected");
                self.metrics.gauge_set("pool.queue_depth", *depth as i64);
            }
            Event::PoolServed {
                degraded,
                wait_micros,
                run_micros,
                ..
            } => {
                self.metrics.counter_inc("pool.served");
                if *degraded {
                    self.metrics.counter_inc("pool.degraded");
                }
                self.metrics.observe("pool.wait_us", *wait_micros);
                self.metrics.observe("pool.service_us", *run_micros);
            }
            Event::PoolHotSwap {
                entries,
                generation,
            } => {
                self.metrics.counter_inc("pool.hotswaps");
                self.metrics.gauge_set("pool.db_entries", *entries as i64);
                self.metrics
                    .gauge_set("pool.db_generation", *generation as i64);
            }
            Event::PoolWorkerRestarted { .. } => {
                self.metrics.counter_inc("pool.worker_restarts");
            }
            Event::PoolReloadFailed { kind } => {
                self.metrics
                    .counter_inc(&format!("pool.reload_failed.{kind}"));
            }
            Event::ChaosInjected { site, fault } => {
                self.metrics.counter_inc("chaos.injected");
                self.metrics.counter_inc(&format!("chaos.injected.{fault}"));
                self.metrics.counter_inc(&format!("chaos.site.{site}"));
            }
            Event::WatchdogExpired { budget, spent, .. } => {
                self.metrics.counter_inc("recovery.watchdog_expired");
                self.metrics
                    .gauge_set("recovery.watchdog_budget", *budget as i64);
                self.metrics.observe("recovery.watchdog_spent", *spent);
            }
            Event::CompileFailed { cause, .. } => {
                self.metrics.counter_inc("recovery.compile_failed");
                self.metrics
                    .counter_inc(&format!("recovery.compile_failed.{cause}"));
            }
            Event::FunctionQuarantined { .. } => {
                self.metrics.counter_inc("recovery.quarantined");
            }
            Event::BreakerTransition { to, .. } => {
                self.metrics
                    .counter_inc(&format!("recovery.breaker_to.{to}"));
                match *to {
                    "open" => self.metrics.counter_inc("recovery.breaker_trips"),
                    "closed" => self.metrics.counter_inc("recovery.breaker_rearms"),
                    _ => self.metrics.counter_inc("recovery.breaker_probes"),
                }
            }
            Event::ReloadRetry {
                backoff_micros,
                kind,
                ..
            } => {
                self.metrics.counter_inc("recovery.reload_retries");
                self.metrics
                    .counter_inc(&format!("recovery.reload_retries.{kind}"));
                self.metrics
                    .observe("recovery.reload_backoff_us", *backoff_micros);
            }
            Event::ReloadRecovered { .. } => {
                self.metrics.counter_inc("recovery.reload_recovered");
            }
            Event::CachePoisonPurged { .. } => {
                self.metrics.counter_inc("recovery.cache_poison_purged");
            }
            Event::ExtractMemoPurged { .. } => {
                self.metrics.counter_inc("recovery.extract_memo_purged");
            }
            Event::TriageRound { neutralized, .. } => {
                self.metrics.counter_inc("triage.rounds");
                if *neutralized {
                    self.metrics.counter_inc("triage.neutralized");
                }
            }
        }
    }
}

impl Collector for Recorder {
    fn record(&mut self, event: Event) {
        self.aggregate(&event);
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_aggregates_events_into_metrics() {
        let mut rec = Recorder::new();
        rec.record(Event::CompileStarted {
            function: "f".into(),
            tier: Tier::Ion,
        });
        rec.record(Event::TierPromoted {
            function: "f".into(),
            tier: Tier::Ion,
        });
        rec.record(Event::PassApplied {
            slot: 6,
            name: "GVN",
            instrs_removed: 3,
            instrs_added: 1,
            cycles: 40,
        });
        rec.record(Event::PassApplied {
            slot: 6,
            name: "GVN",
            instrs_removed: 1,
            instrs_added: 0,
            cycles: 10,
        });
        rec.record(Event::PolicyDecision {
            function: "f".into(),
            verdict: Verdict::Recompile,
            slots: vec![6],
        });
        let m = rec.metrics();
        assert_eq!(m.counter("engine.compile.ion"), 1);
        assert_eq!(m.counter("engine.promoted.ion"), 1);
        assert_eq!(m.counter("policy.recompile"), 1);
        assert_eq!(m.counter("pipeline.cycles"), 50);
        assert_eq!(m.counter("events.pass_applied"), 2);
        let slot = &rec.slot_stats()[6];
        assert_eq!(slot.name, "GVN");
        assert_eq!(slot.applications, 2);
        assert_eq!(slot.cycles, 50);
        assert_eq!(slot.instrs_removed, 4);
        assert_eq!(rec.events().len(), 5);
    }

    #[test]
    fn extractor_events_aggregate_into_extract_metrics() {
        let mut rec = Recorder::new();
        rec.record(Event::ExtractorQuery {
            function: "f".into(),
            memo_hit: false,
            passes_enumerated: 2,
            passes_skipped: 9,
            chains_enumerated: 5,
            chains_skipped: 7,
        });
        rec.record(Event::ExtractorQuery {
            function: "f".into(),
            memo_hit: true,
            passes_enumerated: 0,
            passes_skipped: 0,
            chains_enumerated: 0,
            chains_skipped: 0,
        });
        rec.record(Event::ExtractMemoPurged { purges: 1 });
        let m = rec.metrics();
        assert_eq!(m.counter("extract.queries"), 2);
        assert_eq!(m.counter("extract.memo_hits"), 1);
        assert_eq!(m.counter("extract.memo_misses"), 1);
        assert_eq!(m.counter("extract.passes_enumerated"), 2);
        assert_eq!(m.counter("extract.passes_skipped"), 9);
        assert_eq!(m.counter("extract.chains_enumerated"), 5);
        assert_eq!(m.counter("extract.chains_skipped"), 7);
        assert_eq!(m.counter("recovery.extract_memo_purged"), 1);
    }

    #[test]
    fn pool_events_aggregate_into_pool_metrics() {
        let mut rec = Recorder::new();
        rec.record(Event::PoolSubmitted { depth: 3 });
        rec.record(Event::PoolRejected { depth: 8 });
        rec.record(Event::PoolServed {
            worker: 1,
            degraded: true,
            wait_micros: 120,
            run_micros: 900,
        });
        rec.record(Event::PoolServed {
            worker: 0,
            degraded: false,
            wait_micros: 10,
            run_micros: 400,
        });
        rec.record(Event::PoolHotSwap {
            entries: 5,
            generation: 42,
        });
        rec.record(Event::PoolWorkerRestarted { worker: 1 });
        rec.record(Event::PoolReloadFailed { kind: "parse" });
        let m = rec.metrics();
        assert_eq!(m.counter("pool.submitted"), 1);
        assert_eq!(m.counter("pool.rejected"), 1);
        assert_eq!(m.counter("pool.served"), 2);
        assert_eq!(m.counter("pool.degraded"), 1);
        assert_eq!(m.counter("pool.hotswaps"), 1);
        assert_eq!(m.counter("pool.worker_restarts"), 1);
        assert_eq!(m.counter("pool.reload_failed.parse"), 1);
        assert_eq!(m.gauge("pool.queue_depth"), Some(8));
        assert_eq!(m.gauge("pool.db_entries"), Some(5));
        assert_eq!(m.gauge("pool.db_generation"), Some(42));
        assert_eq!(m.histogram("pool.wait_us").unwrap().count(), 2);
        assert_eq!(m.histogram("pool.service_us").unwrap().count(), 2);
    }

    #[test]
    fn chaos_and_recovery_events_aggregate() {
        let mut rec = Recorder::new();
        rec.record(Event::ChaosInjected {
            site: "pass_run",
            fault: "pass_panic",
        });
        rec.record(Event::ChaosInjected {
            site: "db_load",
            fault: "db_io",
        });
        rec.record(Event::WatchdogExpired {
            function: "hot".into(),
            budget: 5_000,
            spent: 5_000,
        });
        rec.record(Event::CompileFailed {
            function: "hot".into(),
            cause: "panic",
        });
        rec.record(Event::FunctionQuarantined {
            function: "hot".into(),
            strikes: 2,
        });
        rec.record(Event::BreakerTransition {
            from: "closed",
            to: "open",
        });
        rec.record(Event::BreakerTransition {
            from: "open",
            to: "half_open",
        });
        rec.record(Event::BreakerTransition {
            from: "half_open",
            to: "closed",
        });
        rec.record(Event::ReloadRetry {
            attempt: 1,
            backoff_micros: 120,
            kind: "io",
        });
        rec.record(Event::ReloadRecovered { attempts: 2 });
        rec.record(Event::CachePoisonPurged { rebuilds: 2 });
        let m = rec.metrics();
        assert_eq!(m.counter("chaos.injected"), 2);
        assert_eq!(m.counter("chaos.injected.pass_panic"), 1);
        assert_eq!(m.counter("chaos.site.db_load"), 1);
        assert_eq!(m.counter("recovery.watchdog_expired"), 1);
        assert_eq!(m.counter("recovery.compile_failed.panic"), 1);
        assert_eq!(m.counter("recovery.quarantined"), 1);
        assert_eq!(m.counter("recovery.breaker_trips"), 1);
        assert_eq!(m.counter("recovery.breaker_probes"), 1);
        assert_eq!(m.counter("recovery.breaker_rearms"), 1);
        assert_eq!(m.counter("recovery.reload_retries.io"), 1);
        assert_eq!(m.counter("recovery.reload_recovered"), 1);
        assert_eq!(m.counter("recovery.cache_poison_purged"), 1);
        assert_eq!(m.gauge("recovery.watchdog_budget"), Some(5_000));
        assert_eq!(
            m.histogram("recovery.reload_backoff_us").unwrap().count(),
            1
        );
    }

    #[test]
    fn noop_collector_discards() {
        let mut noop = NoopCollector;
        noop.record(Event::ExploitOutcome {
            clean: true,
            status: "clean".into(),
        });
        // Nothing to observe; the type has no state at all.
        assert_eq!(std::mem::size_of::<NoopCollector>(), 0);
    }

    #[test]
    fn recorder_ring_is_bounded() {
        let mut rec = Recorder::new();
        let total = DEFAULT_EVENT_CAPACITY as u64 + 3;
        for i in 0..total {
            rec.record(Event::FuzzSeed {
                seed: i,
                find: false,
                script_error: false,
            });
        }
        assert_eq!(rec.events().len(), DEFAULT_EVENT_CAPACITY);
        assert_eq!(rec.events().dropped(), 3);
        // Metrics still saw every event.
        assert_eq!(rec.metrics().counter("fuzz.seeds"), total);
    }
}
