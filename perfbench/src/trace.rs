//! Traced runs: a telemetry collector that turns the engine's existing
//! event stream into per-layer spans and counts.
//!
//! The engine reports, per optimizing (Ion) compilation round, in this
//! order and on the compiling thread: `CompileStarted`, one `PassApplied`
//! per pipeline slot (all emitted right after the pass pipeline returns),
//! the guard's `ExtractorQuery` / `ComparatorQuery` / `GuardAnalyzed`
//! (after Δ-extraction and Δ-comparison finish), then `PolicyDecision`.
//! Timestamping those events on arrival therefore brackets three spans:
//!
//! * `optimize` — `CompileStarted` → first `PassApplied`: MIR build plus
//!   the 32-slot pass pipeline;
//! * `guard` — last `PassApplied` → `GuardAnalyzed`: JITBULL's
//!   Δ-extraction and Δ-comparison;
//! * `compile` — `CompileStarted` → `PolicyDecision`: the whole round.
//!
//! Pool workers share one collector, so span state is kept per thread.

use std::collections::HashMap;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use jitbull_telemetry::{Collector, Event, Tier, Verdict};

#[derive(Debug, Default)]
struct Open {
    compile_start: Option<Instant>,
    last_pass: Option<Instant>,
}

/// Span durations and layer counters gathered over a traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    open: HashMap<ThreadId, Open>,
    /// Ion compile rounds, one span each.
    pub compile: Vec<Duration>,
    /// MIR build + pass pipeline, per round.
    pub optimize: Vec<Duration>,
    /// Δ-extraction + Δ-comparison, per round.
    pub guard: Vec<Duration>,
    /// Extractor queries.
    pub extractions: u64,
    /// Extractor queries served from the DNA memo.
    pub memo_hits: u64,
    /// Chains the incremental extractor walked.
    pub chains_enumerated: u64,
    /// Comparator queries.
    pub comparisons: u64,
    /// Comparator queries served from the verdict cache.
    pub verdict_hits: u64,
    /// Interned-id set merges the comparator performed.
    pub set_merges: u64,
    /// Policy verdicts.
    pub decisions: u64,
    /// Verdicts that recompiled without passes or vetoed Ion.
    pub restrictive: u64,
}

impl Collector for Tracer {
    fn record(&mut self, event: Event) {
        let now = Instant::now();
        let open = self.open.entry(std::thread::current().id()).or_default();
        let close = match event {
            Event::CompileStarted {
                tier: Tier::Ion, ..
            } => {
                *open = Open {
                    compile_start: Some(now),
                    last_pass: None,
                };
                None
            }
            Event::PassApplied { .. } => {
                if let (Some(start), None) = (open.compile_start, open.last_pass) {
                    self.optimize.push(now - start);
                }
                open.last_pass = Some(now);
                None
            }
            Event::ExtractorQuery {
                memo_hit,
                chains_enumerated,
                ..
            } => {
                self.extractions += 1;
                self.memo_hits += u64::from(memo_hit);
                self.chains_enumerated += chains_enumerated;
                None
            }
            Event::ComparatorQuery {
                cache_hit,
                set_merges,
                ..
            } => {
                self.comparisons += 1;
                self.verdict_hits += u64::from(cache_hit);
                self.set_merges += set_merges;
                None
            }
            Event::GuardAnalyzed { .. } => {
                if let Some(last) = open.last_pass {
                    self.guard.push(now - last);
                }
                None
            }
            Event::PolicyDecision { verdict, .. } => {
                self.decisions += 1;
                self.restrictive += u64::from(verdict != Verdict::Go);
                open.compile_start.take()
            }
            // A round that ends without a verdict (no guard, or a failed
            // compilation) still closes its span.
            Event::TierPromoted {
                tier: Tier::Ion, ..
            }
            | Event::CompileFailed { .. } => open.compile_start.take(),
            _ => None,
        };
        if let Some(start) = close {
            self.compile.push(now - start);
        }
    }
}
