//! The tiered execution engine and its JITBULL integration.
//!
//! Tier ladder (thresholds from the paper's §II):
//!
//! * **interpreter** — 10 cycles/op, from the first invocation;
//! * **baseline** — 4 cycles/op, after 100 invocations (unoptimized
//!   machine code: same bytecode, cheaper dispatch);
//! * **optimizing (Ion)** — 1 cycle/LIR instruction, after 1500
//!   invocations: the 32-slot pipeline's output, lowered and
//!   register-allocated by `jitbull-lir`.
//!
//! When a JITBULL guard is installed *and its database is non-empty*, each
//! optimizing compilation is looked up in the guard's compile cache by its
//! [`CompileKey`], traced only when the cache holds no DNA for it, compared,
//! and the paper's go / recompile-without-passes / no-Ion policy applied.
//! With an empty database there is no key, no lookup and no snapshot — the
//! zero-overhead property of §V.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use jitbull::{decide, decide_observed, ComparatorMode, Decision, DnaMemo, ExtractorMode, Guard};
use jitbull_chaos::{FaultInjector, Quarantine};
use jitbull_frontend::parse_program;
use jitbull_mir::{build_mir, CompileKey};
use jitbull_telemetry::{Collector, Event, Tier};
use jitbull_vm::bytecode::{FuncId, Module};
use jitbull_vm::interp;
use jitbull_vm::runtime::{ExploitStatus, Outcome, Runtime, BASELINE_COST, INTERP_COST};
use jitbull_vm::{compile_program, Dispatcher, Value, VmError};

use crate::pipeline::{optimize, slot_disableable, OptimizeOptions, N_SLOTS};
use crate::vuln::VulnConfig;

/// Cycle cost charged per bytecode op for a baseline compilation.
const BASELINE_COMPILE_COST: u64 = 15;
/// Cycle cost charged per unit of pipeline work for an Ion compilation.
const ION_COMPILE_COST: u64 = 4;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Invocations before baseline compilation (paper: 100).
    pub baseline_threshold: u64,
    /// Invocations before optimizing compilation (paper: 1500).
    pub ion_threshold: u64,
    /// Whether the JIT is enabled at all (`false` = the paper's *NoJIT*
    /// configuration: everything interprets).
    pub jit_enabled: bool,
    /// Vulnerabilities present in this engine build.
    pub vulns: VulnConfig,
    /// Ablation knob: when `true`, a JITBULL match disables the whole
    /// optimizing JIT for the function instead of recompiling with the
    /// dangerous passes off (the coarse policy the paper argues against).
    pub whole_jit_policy: bool,
    /// Execution fuel (ops) for runs started through [`Engine::run_source`].
    pub fuel: u64,
    /// Pipeline slots to skip unconditionally (debugging / ablations —
    /// e.g. "run everything without GVN"). Mandatory slots still run.
    pub disabled_slots: std::collections::HashSet<usize>,
    /// Which Δ-comparator implementation the guard uses (indexed by
    /// default; `Reference` runs the naive normative Algorithm 2 loop).
    pub comparator: ComparatorMode,
    /// Which Δ-extractor implementation the guard uses (incremental by
    /// default; `Reference` runs the naive normative Algorithm 1 walk).
    pub extractor: ExtractorMode,
    /// Compile cache handed to the guard. Cloning the config clones the
    /// handle, not the store, so a pool can share one cache across every
    /// worker's engine.
    pub memo: DnaMemo,
    /// Chaos fault injector, threaded into the pipeline and the guard.
    /// Disabled by default (zero overhead, zero cycle-model impact).
    pub faults: FaultInjector,
    /// Compilation watchdog: simulated-cycle budget for one function's
    /// Ion compilation (all recompile rounds plus analysis included). On
    /// expiry the charge is capped at the budget and the function is
    /// pinned to interpreter-only execution. `None` = unbounded.
    pub watchdog_budget: Option<u64>,
    /// Shared strike list: a function whose compilation panics twice
    /// (configurable) is pinned no-go instead of retrying forever. The
    /// pool hands every worker the same list so quarantine survives
    /// across requests.
    pub quarantine: Quarantine,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            baseline_threshold: 100,
            ion_threshold: 1500,
            jit_enabled: true,
            vulns: VulnConfig::none(),
            whole_jit_policy: false,
            fuel: 500_000_000,
            disabled_slots: std::collections::HashSet::new(),
            comparator: ComparatorMode::default(),
            extractor: ExtractorMode::default(),
            memo: DnaMemo::default(),
            faults: FaultInjector::disabled(),
            watchdog_budget: None,
            quarantine: Quarantine::default(),
        }
    }
}

impl EngineConfig {
    /// Lowered thresholds for fast tests (baseline 5, ion 10).
    pub fn fast_test() -> Self {
        EngineConfig {
            baseline_threshold: 5,
            ion_threshold: 10,
            ..Default::default()
        }
    }
}

/// Which tier a function currently executes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierStats {
    /// Still interpreting.
    Interpreter,
    /// Baseline-compiled.
    Baseline,
    /// Fully optimized.
    Ion,
    /// Optimized with one or more passes disabled by JITBULL.
    IonPassesDisabled,
    /// Optimizing compilation vetoed by JITBULL (runs baseline forever).
    NoIon,
}

/// Per-function statistics, the raw material of the paper's Figure 4.
#[derive(Debug, Clone)]
pub struct FunctionStats {
    /// Function name.
    pub name: String,
    /// Total invocations.
    pub invocations: u64,
    /// Final tier.
    pub tier: TierStats,
    /// Pipeline slots JITBULL disabled for this function.
    pub disabled_slots: Vec<usize>,
    /// Vulnerabilities (by CVE name) whose incorrect transform fired in
    /// this function's final compilation.
    pub vulns_fired: Vec<String>,
    /// VDC database entries this function's DNA matched: (cve, vdc
    /// function name).
    pub matched: Vec<(String, String)>,
}

#[derive(Debug, Default)]
struct FuncState {
    invocations: u64,
    baseline: bool,
    ion: Option<Rc<jitbull_lir::LFunction>>,
    no_ion: bool,
    /// Watchdog verdict: this function runs interpreter-only, no
    /// baseline, no Ion, no further compile attempts.
    pinned_interp: bool,
    disabled_slots: Vec<usize>,
    vulns_fired: Vec<String>,
    matched: Vec<(String, String)>,
}

/// The tiered engine. Implements [`Dispatcher`], so it can be handed to
/// `interp::run_module` directly.
pub struct Engine {
    config: EngineConfig,
    guard: Option<Guard>,
    state: HashMap<FuncId, FuncState>,
    /// Cycles spent in JITBULL analysis (reported separately for the
    /// overhead breakdowns).
    pub analysis_cycles: u64,
    /// Ion compilations that failed without producing code (pass panic,
    /// broken graph, watchdog expiry). The pool's circuit breaker feeds
    /// on this count.
    pub compile_failures: u64,
    /// Watchdog expiries among those failures.
    pub watchdog_expiries: u64,
    collector: Option<Rc<RefCell<dyn Collector>>>,
}

impl Engine {
    /// Creates an engine without JITBULL.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            guard: None,
            state: HashMap::new(),
            analysis_cycles: 0,
            compile_failures: 0,
            watchdog_expiries: 0,
            collector: None,
        }
    }

    /// Creates an engine protected by a JITBULL guard. The guard is
    /// switched to the comparator selected by
    /// [`EngineConfig::comparator`], the extractor selected by
    /// [`EngineConfig::extractor`] and the compile cache
    /// [`EngineConfig::memo`], so the config knobs are authoritative.
    pub fn with_guard(config: EngineConfig, mut guard: Guard) -> Self {
        guard.set_comparator_mode(config.comparator);
        guard.set_extractor_mode(config.extractor);
        guard.set_dna_memo(config.memo.clone());
        guard.set_fault_injector(config.faults.clone());
        Engine {
            config,
            guard: Some(guard),
            state: HashMap::new(),
            analysis_cycles: 0,
            compile_failures: 0,
            watchdog_expiries: 0,
            collector: None,
        }
    }

    /// Attaches a telemetry collector: subsequent compilations, guard
    /// analyses, policy verdicts, and run outcomes are reported through
    /// it. Without a collector no event is even constructed —
    /// observability costs nothing unless asked for.
    pub fn set_collector(&mut self, collector: Rc<RefCell<dyn Collector>>) {
        self.collector = Some(collector);
    }

    #[inline]
    fn emit(&self, make: impl FnOnce() -> Event) {
        if let Some(c) = &self.collector {
            c.borrow_mut().record(make());
        }
    }

    /// The installed guard, if any.
    pub fn guard(&self) -> Option<&Guard> {
        self.guard.as_ref()
    }

    /// Consumes the engine, returning its guard (with the comparator
    /// index and extractor state it warmed up). The serving pool uses this
    /// to carry a worker's warm guard into the replacement engine after a
    /// database hot-swap instead of re-interning the world from scratch.
    pub fn into_guard(self) -> Option<Guard> {
        self.guard
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Per-function statistics keyed by function id, for the Figure-4
    /// metrics (`Nr_JIT`, `Nr_DisJIT`, `Nr_NoJIT`).
    pub fn function_stats(&self, module: &Module) -> Vec<FunctionStats> {
        let mut stats: Vec<FunctionStats> = self
            .state
            .iter()
            .map(|(fid, st)| FunctionStats {
                name: module.function(*fid).name.clone(),
                invocations: st.invocations,
                tier: if st.pinned_interp {
                    TierStats::Interpreter
                } else if st.no_ion {
                    TierStats::NoIon
                } else if st.ion.is_some() {
                    if st.disabled_slots.is_empty() {
                        TierStats::Ion
                    } else {
                        TierStats::IonPassesDisabled
                    }
                } else if st.baseline {
                    TierStats::Baseline
                } else {
                    TierStats::Interpreter
                },
                disabled_slots: st.disabled_slots.clone(),
                vulns_fired: st.vulns_fired.clone(),
                matched: st.matched.clone(),
            })
            .collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }

    /// Count of functions that reached (attempted) the optimizing tier —
    /// the paper's `Nr_JIT`.
    pub fn nr_jit(&self) -> usize {
        self.state
            .values()
            .filter(|s| s.ion.is_some() || s.no_ion)
            .count()
    }

    /// Functions whose compilation had ≥1 pass disabled (`Nr_DisJIT`).
    pub fn nr_disjit(&self) -> usize {
        self.state
            .values()
            .filter(|s| s.ion.is_some() && !s.disabled_slots.is_empty())
            .count()
    }

    /// Functions whose optimizing JIT was vetoed entirely (`Nr_NoJIT`).
    pub fn nr_nojit(&self) -> usize {
        self.state.values().filter(|s| s.no_ion).count()
    }

    /// Watchdog expiry: charge the budget remainder (the watchdog bounds
    /// the compile cost — that is its entire point), pin the function to
    /// interpreter-only, and count the failure.
    fn watchdog_expire(
        &mut self,
        rt: &mut Runtime,
        func: FuncId,
        name: &str,
        matched: Vec<(String, String)>,
        budget: u64,
        spent: u64,
    ) {
        rt.add_cycles(budget.saturating_sub(spent));
        self.compile_failures += 1;
        self.watchdog_expiries += 1;
        self.emit(|| Event::WatchdogExpired {
            function: name.to_owned(),
            budget,
            spent: budget,
        });
        self.emit(|| Event::CompileFailed {
            function: name.to_owned(),
            cause: "watchdog",
        });
        let st = self.state.entry(func).or_default();
        st.no_ion = true;
        st.pinned_interp = true;
        st.matched = matched;
    }

    /// A compilation panicked (chaos-injected or natural). The panic is
    /// contained here: the function earns a quarantine strike and the
    /// engine keeps serving. Below the strike threshold the next hot
    /// invocation may retry; at the threshold the function is pinned
    /// no-go.
    fn compile_panicked(&mut self, func: FuncId, name: &str, payload: &(dyn std::any::Any + Send)) {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("opaque panic");
        if msg.contains("chaos:") {
            self.emit(|| Event::ChaosInjected {
                site: "pass_run",
                fault: "pass_panic",
            });
        }
        self.compile_failures += 1;
        self.emit(|| Event::CompileFailed {
            function: name.to_owned(),
            cause: "panic",
        });
        let strikes = self.config.quarantine.strike(name);
        if self.config.quarantine.is_quarantined(name) {
            self.emit(|| Event::FunctionQuarantined {
                function: name.to_owned(),
                strikes,
            });
            self.state.entry(func).or_default().no_ion = true;
        }
    }

    fn compile_ion(&mut self, rt: &mut Runtime, module: &Module, func: FuncId) {
        let name = module.function(func).name.clone();
        // Quarantined functions are pinned no-go: their compilations keep
        // blowing up, so we stop feeding them to the pipeline.
        if self.config.quarantine.is_quarantined(&name) {
            self.state.entry(func).or_default().no_ion = true;
            return;
        }
        let jitbull_active = self.guard.as_ref().map(Guard::enabled).unwrap_or(false);
        // JITBULL sits inside OptimizeMIR (paper §V), so every retry is
        // analyzed again: disabling one dangerous pass can unshadow a
        // different buggy transform further down the pipeline, which the
        // next round then catches. The loop reaches a fixpoint because
        // the disabled set only grows.
        let mut disabled: std::collections::HashSet<usize> = self.config.disabled_slots.clone();
        let mut matched: Vec<(String, String)> = Vec::new();
        // Watchdog accounting: cycles charged for this function's whole
        // compilation (every round, analysis included).
        let mut spent = 0u64;
        for _round in 0..=N_SLOTS {
            self.emit(|| Event::CompileStarted {
                function: module.function(func).name.clone(),
                tier: Tier::Ion,
            });
            let Ok(mir) = build_mir(module, func) else {
                self.state.entry(func).or_default().no_ion = true;
                return;
            };
            // The key holds only the disabled slots the pipeline honours.
            let lookup = jitbull_active.then(|| {
                let honoured = disabled
                    .iter()
                    .copied()
                    .filter(|&s| s < N_SLOTS && slot_disableable(s));
                let key = CompileKey::new(
                    module.function(func),
                    honoured.collect(),
                    N_SLOTS,
                    self.config.vulns.mask(),
                );
                self.guard.as_ref().expect("guard present").lookup(key)
            });
            let options = OptimizeOptions {
                trace: lookup.as_ref().is_some_and(jitbull::Lookup::needs_trace),
                disabled_slots: disabled.clone(),
                faults: self.config.faults.clone(),
            };
            let vulns = &self.config.vulns;
            let result = match catch_unwind(AssertUnwindSafe(|| optimize(mir, vulns, &options))) {
                Ok(result) => result,
                Err(payload) => {
                    self.compile_panicked(func, &name, payload.as_ref());
                    return;
                }
            };
            for &(fault, _slot) in &result.injected {
                self.emit(|| Event::ChaosInjected {
                    site: "pass_run",
                    fault,
                });
            }
            let round_cost = result.work * ION_COMPILE_COST;
            if let Some(budget) = self.config.watchdog_budget {
                if spent.saturating_add(round_cost) > budget {
                    self.watchdog_expire(rt, func, &name, matched, budget, spent);
                    return;
                }
            }
            rt.add_cycles(round_cost);
            spent += round_cost;
            if let Some(c) = &self.collector {
                let mut col = c.borrow_mut();
                for run in &result.slot_runs {
                    col.record(Event::PassApplied {
                        slot: run.slot,
                        name: run.name,
                        instrs_removed: run.instrs_before.saturating_sub(run.instrs_after),
                        instrs_added: run.instrs_after.saturating_sub(run.instrs_before),
                        cycles: run.work * ION_COMPILE_COST,
                    });
                }
            }
            if result.broken.is_some() {
                self.compile_failures += 1;
                self.emit(|| Event::CompileFailed {
                    function: name.clone(),
                    cause: "broken",
                });
                self.state.entry(func).or_default().no_ion = true;
                return;
            }
            let mut fired: Vec<String> = result
                .triggered
                .iter()
                .map(|(c, _)| c.name().to_owned())
                .collect();
            fired.dedup();
            let Some(lookup) = lookup else {
                self.emit(|| Event::TierPromoted {
                    function: module.function(func).name.clone(),
                    tier: Tier::Ion,
                });
                let tier = Rc::new(jitbull_lir::compile(&result.mir));
                let st = self.state.entry(func).or_default();
                st.ion = Some(tier);
                st.vulns_fired = fired;
                return;
            };
            let guard = self.guard.as_ref().expect("guard present");
            let analysis = match &self.collector {
                Some(c) => guard.analyze_compile(
                    lookup,
                    &result.trace,
                    N_SLOTS,
                    Some(&mut *c.borrow_mut()),
                ),
                None => guard.analyze_compile(lookup, &result.trace, N_SLOTS, None),
            };
            if let Some(budget) = self.config.watchdog_budget {
                if spent.saturating_add(analysis.cost_cycles) > budget {
                    self.watchdog_expire(rt, func, &name, matched, budget, spent);
                    return;
                }
            }
            rt.add_cycles(analysis.cost_cycles);
            spent += analysis.cost_cycles;
            self.analysis_cycles += analysis.cost_cycles;
            for (cve, function, _) in &analysis.matches {
                let entry = (cve.clone(), function.clone());
                if !matched.contains(&entry) {
                    matched.push(entry);
                }
            }
            let fresh: Vec<usize> = analysis
                .dangerous
                .iter()
                .copied()
                .filter(|s| !disabled.contains(s))
                .collect();
            let user_disabled: Vec<usize> = self.config.disabled_slots.iter().copied().collect();
            let decision = match &self.collector {
                Some(c) => decide_observed(
                    fresh,
                    slot_disableable,
                    &module.function(func).name,
                    &mut *c.borrow_mut(),
                ),
                None => decide(fresh, slot_disableable),
            };
            match decision {
                Decision::Go => {
                    let jitbull_slots: Vec<usize> = {
                        let mut v: Vec<usize> = disabled
                            .iter()
                            .copied()
                            .filter(|s| !user_disabled.contains(s))
                            .collect();
                        v.sort_unstable();
                        v
                    };
                    if !jitbull_slots.is_empty() && self.config.whole_jit_policy {
                        let st = self.state.entry(func).or_default();
                        st.disabled_slots = jitbull_slots;
                        st.matched = matched;
                        st.no_ion = true;
                        return;
                    }
                    self.emit(|| Event::TierPromoted {
                        function: module.function(func).name.clone(),
                        tier: Tier::Ion,
                    });
                    let tier = Rc::new(jitbull_lir::compile(&result.mir));
                    let st = self.state.entry(func).or_default();
                    st.disabled_slots = jitbull_slots;
                    st.matched = matched;
                    st.ion = Some(tier);
                    st.vulns_fired = fired;
                    return;
                }
                Decision::Recompile(slots) => {
                    disabled.extend(slots);
                    // loop: recompile and re-analyze
                }
                Decision::NoJit(slots) => {
                    let st = self.state.entry(func).or_default();
                    let mut all: Vec<usize> = disabled
                        .iter()
                        .copied()
                        .filter(|s| !user_disabled.contains(s))
                        .chain(slots)
                        .collect();
                    all.sort_unstable();
                    all.dedup();
                    st.disabled_slots = all;
                    st.matched = matched;
                    st.no_ion = true;
                    return;
                }
            }
        }
        // Could not reach a clean compilation within the round budget:
        // conservative no-Ion fallback.
        let st = self.state.entry(func).or_default();
        st.no_ion = true;
        st.matched = matched;
    }

    /// Parses, compiles and runs a source program under this engine
    /// configuration (no JITBULL guard).
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] for parse/compile errors; runtime errors are
    /// captured in the outcome's exploit status where applicable, and
    /// otherwise returned.
    pub fn run_source(source: &str, config: EngineConfig) -> Result<EngineOutcome, VmError> {
        let mut engine = Engine::new(config);
        engine.run_source_with(source)
    }

    /// Runs a source program on this engine instance (reusing its guard
    /// and configuration). Crash-class errors terminate the script but
    /// produce an outcome (like a tab crashing), other errors propagate.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] for parse/compile/type/fuel errors.
    pub fn run_source_with(&mut self, source: &str) -> Result<EngineOutcome, VmError> {
        let program = parse_program(source).map_err(|e| VmError::Parse(e.to_string()))?;
        let module = compile_program(&program)?;
        let mut rt = Runtime::with_fuel(self.config.fuel);
        let result = interp::run_module(&mut rt, &module, self);
        match result {
            Ok(_) | Err(VmError::Crash(_)) => {}
            Err(e) => return Err(e),
        }
        let outcome = rt.into_outcome();
        self.emit(|| Event::ExploitOutcome {
            clean: !outcome.status.is_compromised(),
            status: match &outcome.status {
                ExploitStatus::Clean => "clean".to_owned(),
                ExploitStatus::Crashed(site) => format!("crash: {site}"),
                ExploitStatus::ShellcodeExecuted => "shellcode-executed".to_owned(),
            },
        });
        Ok(EngineOutcome {
            outcome,
            stats: self.function_stats(&module),
            nr_jit: self.nr_jit(),
            nr_disjit: self.nr_disjit(),
            nr_nojit: self.nr_nojit(),
            analysis_cycles: self.analysis_cycles,
            compile_failures: self.compile_failures,
            watchdog_expiries: self.watchdog_expiries,
        })
    }
}

/// Everything a run produces: VM outcome plus engine statistics.
#[derive(Debug)]
pub struct EngineOutcome {
    /// Printed lines, cycles, exploit status.
    pub outcome: Outcome,
    /// Per-function tier statistics.
    pub stats: Vec<FunctionStats>,
    /// Functions that reached the optimizing tier (`Nr_JIT`).
    pub nr_jit: usize,
    /// Functions with ≥1 disabled pass (`Nr_DisJIT`).
    pub nr_disjit: usize,
    /// Functions with the optimizing JIT vetoed (`Nr_NoJIT`).
    pub nr_nojit: usize,
    /// Cycles spent in JITBULL analysis.
    pub analysis_cycles: u64,
    /// Ion compilations that failed without producing code (panic,
    /// broken graph, watchdog expiry).
    pub compile_failures: u64,
    /// Watchdog expiries among those failures.
    pub watchdog_expiries: u64,
}

impl Dispatcher for Engine {
    fn call(
        &mut self,
        rt: &mut Runtime,
        module: &Module,
        func: FuncId,
        this: Value,
        args: Vec<Value>,
    ) -> Result<Value, VmError> {
        let st = self.state.entry(func).or_default();
        st.invocations += 1;
        let inv = st.invocations;
        if self.config.jit_enabled && !st.pinned_interp {
            let mut promoted_baseline = false;
            if !st.baseline && inv >= self.config.baseline_threshold {
                st.baseline = true;
                rt.add_cycles(module.function(func).len() as u64 * BASELINE_COMPILE_COST);
                promoted_baseline = true;
            }
            let needs_ion =
                st.baseline && st.ion.is_none() && !st.no_ion && inv >= self.config.ion_threshold;
            if promoted_baseline {
                self.emit(|| Event::CompileStarted {
                    function: module.function(func).name.clone(),
                    tier: Tier::Baseline,
                });
                self.emit(|| Event::TierPromoted {
                    function: module.function(func).name.clone(),
                    tier: Tier::Baseline,
                });
            }
            if needs_ion {
                self.compile_ion(rt, module, func);
            }
        }
        let st = self.state.entry(func).or_default();
        let cost = match (&st.ion, st.baseline) {
            // Watchdog verdict: interpreter-only, whatever tiers the
            // function had reached before.
            _ if st.pinned_interp => INTERP_COST,
            (Some(code), _) => {
                let code = Rc::clone(code);
                return jitbull_lir::run(&code, rt, module, this, &args, self);
            }
            (None, true) => BASELINE_COST,
            (None, false) => INTERP_COST,
        };
        interp::run_function(rt, module, func, this, args, self, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull::{CompareConfig, DnaDatabase};

    fn printed(src: &str, config: EngineConfig) -> Vec<String> {
        Engine::run_source(src, config)
            .unwrap_or_else(|e| panic!("{e}"))
            .outcome
            .printed
    }

    const SUM_LOOP: &str = "
        function work(a) { var t = 0; for (var i = 0; i < a.length; i++) { t = t + a[i]; } return t; }
        var arr = [1, 2, 3, 4, 5];
        var total = 0;
        for (var r = 0; r < 50; r++) { total = work(arr); }
        print(total);
    ";

    #[test]
    fn tiers_agree_with_interpreter() {
        let interp_only = EngineConfig {
            jit_enabled: false,
            ..EngineConfig::fast_test()
        };
        let jit = EngineConfig::fast_test();
        assert_eq!(printed(SUM_LOOP, interp_only.clone()), vec!["15"]);
        assert_eq!(printed(SUM_LOOP, jit), vec!["15"]);
    }

    #[test]
    fn jit_is_faster_than_interpreter() {
        let no_jit = Engine::run_source(
            SUM_LOOP,
            EngineConfig {
                jit_enabled: false,
                ..EngineConfig::fast_test()
            },
        )
        .unwrap();
        let jit = Engine::run_source(SUM_LOOP, EngineConfig::fast_test()).unwrap();
        assert!(
            jit.outcome.cycles < no_jit.outcome.cycles,
            "jit {} !< nojit {}",
            jit.outcome.cycles,
            no_jit.outcome.cycles
        );
    }

    #[test]
    fn hot_function_reaches_ion() {
        let out = Engine::run_source(SUM_LOOP, EngineConfig::fast_test()).unwrap();
        let work = out.stats.iter().find(|s| s.name == "work").unwrap();
        assert_eq!(work.tier, TierStats::Ion);
        assert_eq!(out.nr_jit, 1);
        assert_eq!(out.nr_disjit, 0);
        assert_eq!(out.nr_nojit, 0);
    }

    #[test]
    fn cold_function_stays_interpreted() {
        let out = Engine::run_source(
            "function once() { return 1; } print(once());",
            EngineConfig::fast_test(),
        )
        .unwrap();
        let once = out.stats.iter().find(|s| s.name == "once").unwrap();
        assert_eq!(once.tier, TierStats::Interpreter);
    }

    #[test]
    fn empty_guard_db_adds_no_analysis_cycles() {
        let guard = Guard::new(DnaDatabase::new(), CompareConfig::default());
        let mut engine = Engine::with_guard(EngineConfig::fast_test(), guard);
        let out = engine.run_source_with(SUM_LOOP).unwrap();
        assert_eq!(out.analysis_cycles, 0);
        assert_eq!(out.outcome.printed, vec!["15"]);
    }

    #[test]
    fn collector_sees_the_run_without_changing_cycles() {
        use jitbull_telemetry::Recorder;
        let plain = Engine::run_source(SUM_LOOP, EngineConfig::fast_test()).unwrap();
        let mut engine = Engine::new(EngineConfig::fast_test());
        let rec = Rc::new(RefCell::new(Recorder::new()));
        engine.set_collector(rec.clone());
        let observed = engine.run_source_with(SUM_LOOP).unwrap();
        // Observation must not perturb the simulated cycle model.
        assert_eq!(observed.outcome.cycles, plain.outcome.cycles);
        let rec = rec.borrow();
        let m = rec.metrics();
        assert_eq!(m.counter("engine.compile.ion"), 1);
        assert_eq!(m.counter("engine.promoted.ion"), 1);
        assert!(m.counter("engine.promoted.baseline") >= 1);
        assert_eq!(m.counter("runs.clean"), 1);
        // Per-slot attribution covers the whole compile charge.
        let slot_cycles: u64 = rec.slot_stats().iter().map(|s| s.cycles).sum();
        assert_eq!(m.counter("pipeline.cycles"), slot_cycles);
        assert!(slot_cycles > 0);
    }

    #[test]
    fn recursion_and_polymorphism_survive_tiering() {
        let src = "
            function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
            print(fib(15));
        ";
        assert_eq!(printed(src, EngineConfig::fast_test()), vec!["610"]);
    }

    #[test]
    fn objects_and_method_calls_in_ion() {
        let src = "
            function Counter(start) { this.n = start; this.bump = bump; }
            function bump(k) { this.n = this.n + k; return this.n; }
            var c = new Counter(10);
            var last = 0;
            for (var i = 0; i < 60; i++) { last = c.bump(1); }
            print(last);
        ";
        assert_eq!(printed(src, EngineConfig::fast_test()), vec!["70"]);
    }

    #[test]
    fn string_building_in_ion() {
        let src = "
            function tag(s) { return \"<\" + s + \">\"; }
            var out = \"\";
            for (var i = 0; i < 40; i++) { out = tag(\"x\"); }
            print(out);
        ";
        assert_eq!(printed(src, EngineConfig::fast_test()), vec!["<x>"]);
    }

    #[test]
    fn growth_pattern_matches_interpreter() {
        // Append writes at a[a.length] grow the array on every tier.
        let src = "
            function append(a, v) { a[a.length] = v; return a.length; }
            var a = [];
            var len = 0;
            for (var i = 0; i < 50; i++) { len = append(a, i); }
            print(len); print(a[49]);
        ";
        assert_eq!(printed(src, EngineConfig::fast_test()), vec!["50", "49"]);
        assert_eq!(
            printed(
                src,
                EngineConfig {
                    jit_enabled: false,
                    ..EngineConfig::fast_test()
                }
            ),
            vec!["50", "49"]
        );
    }
}
