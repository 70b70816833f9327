//! The typed event taxonomy: everything the engine, the guard, the
//! fuzzer, and the workload harness can report about themselves.
//!
//! Events are deliberately *flat* — plain fields, no references into
//! engine state — so a ring buffer of them is a self-contained record of
//! a run that exporters can serialize without touching the engine again.

/// An execution tier a function can be promoted into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Baseline (unoptimized machine code) tier.
    Baseline,
    /// Optimizing (Ion-like) tier.
    Ion,
}

impl Tier {
    /// Lower-case name, used in metric keys and exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Baseline => "baseline",
            Tier::Ion => "ion",
        }
    }
}

/// The JITBULL policy verdict for one analyzed compilation (paper §V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Scenario 1: use the optimized code as-is.
    Go,
    /// Scenario 2: recompile with the dangerous slots disabled.
    Recompile,
    /// Scenario 3: abandon optimized compilation for the function.
    NoJit,
}

impl Verdict {
    /// Lower-case name, used in metric keys and exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Go => "go",
            Verdict::Recompile => "recompile",
            Verdict::NoJit => "nojit",
        }
    }
}

/// One structured telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A tier compilation began for `function`.
    CompileStarted {
        /// Source-level function name.
        function: String,
        /// Target tier.
        tier: Tier,
    },
    /// `function` finished compiling and now executes in `tier`.
    TierPromoted {
        /// Source-level function name.
        function: String,
        /// Tier reached.
        tier: Tier,
    },
    /// One pipeline slot ran during an optimizing compilation.
    PassApplied {
        /// Pipeline slot index (`0..N_SLOTS`).
        slot: usize,
        /// Pass name (several slots may share one, e.g. GVN).
        name: &'static str,
        /// Instructions the slot removed (net, by IR size).
        instrs_removed: u64,
        /// Instructions the slot added (net, by IR size).
        instrs_added: u64,
        /// Simulated compile cycles attributed to the slot.
        cycles: u64,
    },
    /// The indexed comparator served one guard query (emitted before the
    /// matching [`Event::GuardAnalyzed`]; absent on the reference path).
    ComparatorQuery {
        /// Function whose DNA was queried.
        function: String,
        /// Whether the verdict came from the compile cache.
        cache_hit: bool,
        /// (entry, slot, side) comparisons skipped by the fingerprint
        /// prefilter.
        prefilter_rejects: u64,
        /// Full interned-id set merges actually performed.
        set_merges: u64,
    },
    /// The incremental extractor served one guard extraction (emitted
    /// before the matching [`Event::GuardAnalyzed`]; absent on the
    /// reference path).
    ExtractorQuery {
        /// Function whose trace was extracted.
        function: String,
        /// Whether the DNA came straight from the shared memo cache.
        memo_hit: bool,
        /// Passes whose changed subgraphs were actually enumerated.
        passes_enumerated: u64,
        /// Passes proven empty without enumeration (unchanged snapshot
        /// or unchanged edge multiset).
        passes_skipped: u64,
        /// Chains walked through changed subgraphs.
        chains_enumerated: u64,
        /// Chains skipped because no changed edge touched them.
        chains_skipped: u64,
    },
    /// The JITBULL guard analyzed one compilation trace.
    GuardAnalyzed {
        /// Function whose trace was analyzed.
        function: String,
        /// VDC entries that matched.
        matches: u64,
        /// Distinct dangerous slots flagged.
        dangerous: u64,
        /// Simulated cycles the analysis consumed.
        cost_cycles: u64,
    },
    /// The go / recompile-without-passes / no-JIT policy decided.
    PolicyDecision {
        /// Function the verdict applies to.
        function: String,
        /// The verdict.
        verdict: Verdict,
        /// The dangerous slots behind the verdict (empty for `Go`).
        slots: Vec<usize>,
    },
    /// A run finished; what the simulated process experienced.
    ExploitOutcome {
        /// `false` when the run crashed or executed sprayed shellcode.
        clean: bool,
        /// Human-readable status (`"clean"`, crash site, …).
        status: String,
    },
    /// One fuzzer seed finished executing.
    FuzzSeed {
        /// The generator seed.
        seed: u64,
        /// Whether the program compromised the runtime (a find).
        find: bool,
        /// Whether it ended in a benign script error.
        script_error: bool,
    },
    /// A fuzzing campaign completed.
    FuzzCampaignFinished {
        /// Seeds executed.
        executed: u64,
        /// Security-relevant finds.
        finds: u64,
        /// Benign script errors.
        script_errors: u64,
    },
    /// A request entered the serving pool's queue.
    PoolSubmitted {
        /// Queue depth right after the enqueue (includes this request).
        depth: u64,
    },
    /// The pool refused a request because the queue was at capacity.
    PoolRejected {
        /// Queue depth at the moment of rejection.
        depth: u64,
    },
    /// A worker finished serving one request.
    PoolServed {
        /// Worker index that served it.
        worker: usize,
        /// Whether the request was past its deadline and fell back to
        /// interpreter-only execution.
        degraded: bool,
        /// Microseconds the request waited in the queue.
        wait_micros: u64,
        /// Microseconds the worker spent executing it.
        run_micros: u64,
    },
    /// A new database snapshot was published to the workers.
    PoolHotSwap {
        /// Entries in the new snapshot.
        entries: u64,
        /// The database generation the snapshot was published under.
        generation: u64,
    },
    /// A worker thread panicked while serving and was respawned.
    PoolWorkerRestarted {
        /// Worker index that was restarted.
        worker: usize,
    },
    /// A database reload (e.g. `Pool::reload_from_text`) failed.
    PoolReloadFailed {
        /// Stable failure label (`DbError::kind`: `"io"` / `"parse"`).
        kind: &'static str,
    },
    /// The chaos layer injected one fault (armed runs only; a disabled
    /// injector emits nothing).
    ChaosInjected {
        /// Injection site name (`FaultSite::name`).
        site: &'static str,
        /// Fault kind name (`FaultKind::name`).
        fault: &'static str,
    },
    /// The compilation watchdog expired: the function fell back to
    /// interpreter-only execution and the remaining compile work was
    /// abandoned.
    WatchdogExpired {
        /// Function whose compilation was cut off.
        function: String,
        /// The configured cycle budget.
        budget: u64,
        /// Simulated cycles actually charged (capped at the budget).
        spent: u64,
    },
    /// One Ion compilation failed without producing optimized code.
    CompileFailed {
        /// Function that failed to compile.
        function: String,
        /// Stable failure label: `"panic"`, `"broken"`, or `"watchdog"`.
        cause: &'static str,
    },
    /// A function crossed the quarantine strike threshold and is now
    /// pinned no-go.
    FunctionQuarantined {
        /// The quarantined function.
        function: String,
        /// Strikes accumulated when quarantine triggered.
        strikes: u32,
    },
    /// The pool's JIT circuit breaker changed state.
    BreakerTransition {
        /// State left (`"closed"` / `"open"` / `"half_open"`).
        from: &'static str,
        /// State entered.
        to: &'static str,
    },
    /// A database reload attempt failed and will be retried after a
    /// backoff.
    ReloadRetry {
        /// The attempt that failed (1-based).
        attempt: u32,
        /// Microseconds backed off before the next attempt.
        backoff_micros: u64,
        /// Failure label (`DbError::kind`: `"io"` / `"parse"`).
        kind: &'static str,
    },
    /// A retried database reload eventually succeeded and was published.
    ReloadRecovered {
        /// Attempts it took (≥ 2; first-try successes emit nothing).
        attempts: u32,
    },
    /// The comparator detected a poisoned index (torn generation stamp)
    /// and discarded it via a full index rebuild.
    CachePoisonPurged {
        /// Index rebuilds performed so far, purges included.
        rebuilds: u64,
    },
    /// A compile-cache lookup detected a poisoned store (torn write) and
    /// discarded every cached entry before serving anything.
    ExtractMemoPurged {
        /// Memo poison purges performed so far.
        purges: u64,
    },
    /// One iteration of the fuzzer's install-until-neutralized triage loop.
    TriageRound {
        /// The find's seed.
        seed: u64,
        /// Round index (0-based).
        round: u64,
        /// Database entries after this round's installs.
        db_entries: u64,
        /// Whether the find is neutralized as of this round.
        neutralized: bool,
    },
}

impl Event {
    /// Stable kind tag (used by exporters and per-kind counters).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Event::CompileStarted { .. } => "compile_started",
            Event::TierPromoted { .. } => "tier_promoted",
            Event::PassApplied { .. } => "pass_applied",
            Event::ComparatorQuery { .. } => "comparator_query",
            Event::ExtractorQuery { .. } => "extractor_query",
            Event::GuardAnalyzed { .. } => "guard_analyzed",
            Event::PolicyDecision { .. } => "policy_decision",
            Event::ExploitOutcome { .. } => "exploit_outcome",
            Event::FuzzSeed { .. } => "fuzz_seed",
            Event::FuzzCampaignFinished { .. } => "fuzz_campaign_finished",
            Event::PoolSubmitted { .. } => "pool_submitted",
            Event::PoolRejected { .. } => "pool_rejected",
            Event::PoolServed { .. } => "pool_served",
            Event::PoolHotSwap { .. } => "pool_hotswap",
            Event::PoolWorkerRestarted { .. } => "pool_worker_restarted",
            Event::PoolReloadFailed { .. } => "pool_reload_failed",
            Event::ChaosInjected { .. } => "chaos_injected",
            Event::WatchdogExpired { .. } => "watchdog_expired",
            Event::CompileFailed { .. } => "compile_failed",
            Event::FunctionQuarantined { .. } => "function_quarantined",
            Event::BreakerTransition { .. } => "breaker_transition",
            Event::ReloadRetry { .. } => "reload_retry",
            Event::ReloadRecovered { .. } => "reload_recovered",
            Event::CachePoisonPurged { .. } => "cache_poison_purged",
            Event::ExtractMemoPurged { .. } => "extract_memo_purged",
            Event::TriageRound { .. } => "triage_round",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_names_are_stable() {
        assert_eq!(Tier::Baseline.name(), "baseline");
        assert_eq!(Tier::Ion.name(), "ion");
        assert_eq!(Verdict::Go.name(), "go");
        assert_eq!(Verdict::Recompile.name(), "recompile");
        assert_eq!(Verdict::NoJit.name(), "nojit");
        let ev = Event::PolicyDecision {
            function: "f".into(),
            verdict: Verdict::Go,
            slots: vec![],
        };
        assert_eq!(ev.kind(), "policy_decision");
    }
}
