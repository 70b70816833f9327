//! The tiered execution engine and its JITBULL integration.
//!
//! Tier ladder (thresholds from the paper's §II):
//!
//! * **interpreter** — 25 cycles/op, from the first invocation;
//! * **baseline** — 5 cycles/op, after 100 invocations (unoptimized
//!   machine code: same bytecode, cheaper dispatch);
//! * **optimizing (Ion)** — 1 cycle/LIR instruction, after 1500
//!   invocations: the 32-slot pipeline's output, lowered and
//!   register-allocated by `jitbull-lir`.
//!
//! When a JITBULL guard is installed *and its database is non-empty*, each
//! optimizing compilation round is looked up in the guard's compile cache
//! by the key of its [`CompileInput`], compared, and the paper's go /
//! recompile-without-passes / no-Ion policy applied. A round whose key
//! the cache has compiled before is served the stored output in place of
//! running the pipeline — MIR building, the 32 slots, lowering and
//! register allocation are skipped — yet charged the same simulated
//! cycles, so the cycle model cannot tell a hit from a compile. A round
//! that runs the pipeline is traced only when the cache holds no DNA for
//! it, and only code that promotes is lowered. With a fault injector
//! armed no output is stored or served, so chaos plans see every pass
//! run. With an empty database there is no key, no lookup and no
//! snapshot — the zero-overhead property of §V.
//!
//! Tiers and verdicts belong to one run: every run starts each function of
//! its module in the interpreter. Only the configuration, the guard (with
//! its compile cache) and the collector carry from one script to the next.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

use jitbull::{decide, Decision, Guard, Lookup, PipelineOutput};
use jitbull_chaos::{FaultInjector, Quarantine};
use jitbull_frontend::parse_program;
use jitbull_lir::LFunction;
use jitbull_mir::{MirFunction, PassTrace, SlotSet, N_SLOTS};
use jitbull_telemetry::{Collector, Event, Tier};
use jitbull_vm::bytecode::{FuncId, Module};
use jitbull_vm::interp;
use jitbull_vm::runtime::{ExploitStatus, Outcome, Runtime, BASELINE_COST, INTERP_COST};
use jitbull_vm::{compile_program, Dispatcher, Value, VmError};

use crate::pipeline::{compile, CompileInput, OptimizeOptions, DISABLEABLE};
use crate::vuln::VulnConfig;

/// Cycle cost charged per bytecode op for a baseline compilation.
const BASELINE_COMPILE_COST: u64 = 15;
/// Cycle cost charged per unit of pipeline work for an Ion compilation.
const ION_COMPILE_COST: u64 = 4;

/// Engine configuration. The guard's own settings (comparator,
/// extractor, compile cache) are made on the [`Guard`].
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
    /// e.g. "run everything without GVN"). Mandatory slots still run, and
    /// are still analysed: a dangerous one gets the function no-go.
    pub disabled_slots: SlotSet,
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
            disabled_slots: SlotSet::new(),
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
    pub disabled_slots: SlotSet,
    /// Vulnerabilities (by CVE name) whose incorrect transform fired in
    /// this function's final compilation.
    pub vulns_fired: Vec<String>,
    /// VDC database entries this function's DNA matched: (cve, vdc
    /// function name).
    pub matched: Vec<(String, String)>,
}

/// Where a function stands on the tier ladder in the current run.
#[derive(Debug, Default)]
enum FuncTier {
    /// Interpreted, not yet hot enough for baseline.
    #[default]
    Interpreter,
    /// Baseline-compiled; the first invocation past the Ion threshold
    /// compiles it (again, after a panic short of quarantine).
    Baseline,
    /// Runs this optimized code.
    Ion {
        code: Arc<LFunction>,
        /// Vulnerabilities whose incorrect transform fired in `code`.
        vulns_fired: Vec<&'static str>,
    },
    /// No optimized code for the rest of the run: vetoed by JITBULL,
    /// failed or quarantined. Runs baseline.
    NoIon,
    /// Watchdog verdict: interpreter-only, no further compile attempts.
    Pinned,
}

/// What JITBULL decided for a function's optimizing compilation.
#[derive(Debug, Default)]
struct Verdict {
    /// Slots JITBULL disabled (those the pipeline skips for the
    /// configuration alone excluded).
    disabled_slots: SlotSet,
    /// VDC entries matched: (cve, vdc function name).
    matched: Vec<(String, String)>,
}

#[derive(Debug, Default)]
struct FuncState {
    invocations: u64,
    tier: FuncTier,
    verdict: Verdict,
}

/// One run's state: each function of the module it runs, indexed by
/// [`FuncId`], and the run's counters.
#[derive(Debug, Default)]
struct Run {
    funcs: Vec<FuncState>,
    analysis_cycles: u64,
    compile_failures: u64,
    watchdog_expiries: u64,
}

/// The tiered engine: configuration, an optional JITBULL guard and an
/// optional collector, reused across the scripts it runs. Implements
/// [`Dispatcher`] for the run [`Engine::run_source_with`] sets up.
pub struct Engine {
    config: EngineConfig,
    guard: Option<Guard>,
    collector: Option<Rc<RefCell<dyn Collector>>>,
    /// The current (or last finished) run, replaced by every
    /// [`Engine::run_source_with`] so no script inherits another's code.
    run: Run,
}

impl Engine {
    /// Creates an engine without JITBULL.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            guard: None,
            collector: None,
            run: Run::default(),
        }
    }

    /// Creates an engine protected by a JITBULL guard. The guard keeps
    /// its comparator, extractor and compile cache; the engine hands it
    /// only [`EngineConfig::faults`].
    pub fn with_guard(config: EngineConfig, mut guard: Guard) -> Self {
        guard.set_fault_injector(config.faults.clone());
        Engine {
            guard: Some(guard),
            ..Engine::new(config)
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

    /// Consumes the engine, returning its guard (with the comparator
    /// index and extractor state it warmed up). A pool worker uses this to
    /// carry its warm guard from one request to the next on the same
    /// database snapshot, and a benchmark batch from one program to the
    /// next; a new snapshot gets a new guard.
    pub fn into_guard(self) -> Option<Guard> {
        self.guard
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Ion compilations of the last run that failed without producing
    /// code (pass panic, broken graph, watchdog expiry) — also after a
    /// run that ended in an error. The pool's circuit breaker feeds on
    /// this count.
    pub fn compile_failures(&self) -> u64 {
        self.run.compile_failures
    }

    /// Statistics of the last run's invoked functions, sorted by name,
    /// for the Figure-4 metrics (`Nr_JIT`, `Nr_DisJIT`, `Nr_NoJIT`).
    /// `module` is the module that run compiled.
    pub fn function_stats(&self, module: &Module) -> Vec<FunctionStats> {
        let mut stats: Vec<FunctionStats> = self
            .run
            .funcs
            .iter()
            .zip(&module.functions)
            .filter(|(st, _)| st.invocations > 0)
            .map(|(st, f)| FunctionStats {
                name: f.name.clone(),
                invocations: st.invocations,
                tier: match st.tier {
                    FuncTier::Interpreter | FuncTier::Pinned => TierStats::Interpreter,
                    FuncTier::Baseline => TierStats::Baseline,
                    FuncTier::Ion { .. } if st.verdict.disabled_slots.is_empty() => TierStats::Ion,
                    FuncTier::Ion { .. } => TierStats::IonPassesDisabled,
                    FuncTier::NoIon => TierStats::NoIon,
                },
                disabled_slots: st.verdict.disabled_slots,
                vulns_fired: match &st.tier {
                    FuncTier::Ion { vulns_fired, .. } => {
                        vulns_fired.iter().map(|&cve| cve.to_owned()).collect()
                    }
                    _ => Vec::new(),
                },
                matched: st.verdict.matched.clone(),
            })
            .collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }

    fn count(&self, pred: impl Fn(&FuncState) -> bool) -> usize {
        self.run.funcs.iter().filter(|st| pred(st)).count()
    }

    /// Count of functions that reached (attempted) the optimizing tier in
    /// the last run — the paper's `Nr_JIT`.
    pub fn nr_jit(&self) -> usize {
        self.count(|st| !matches!(st.tier, FuncTier::Interpreter | FuncTier::Baseline))
    }

    /// Functions whose compilation had ≥1 pass disabled (`Nr_DisJIT`).
    pub fn nr_disjit(&self) -> usize {
        self.count(|st| {
            matches!(st.tier, FuncTier::Ion { .. }) && !st.verdict.disabled_slots.is_empty()
        })
    }

    /// Functions whose optimizing JIT was vetoed entirely (`Nr_NoJIT`).
    pub fn nr_nojit(&self) -> usize {
        self.count(|st| matches!(st.tier, FuncTier::NoIon | FuncTier::Pinned))
    }

    /// The watchdog budget, when charging `cost` on top of `spent` would
    /// overrun it.
    fn overrun(&self, spent: u64, cost: u64) -> Option<u64> {
        self.config
            .watchdog_budget
            .filter(|&budget| spent.saturating_add(cost) > budget)
    }

    /// Watchdog expiry: charge the budget remainder (the watchdog bounds
    /// the compile cost — that is its entire point), pin the function to
    /// interpreter-only, and count the failure.
    fn watchdog_expire(
        &mut self,
        rt: &mut Runtime,
        name: &str,
        matched: Vec<(String, String)>,
        budget: u64,
        spent: u64,
    ) -> (FuncTier, Verdict) {
        rt.add_cycles(budget.saturating_sub(spent));
        self.run.compile_failures += 1;
        self.run.watchdog_expiries += 1;
        self.emit(|| Event::WatchdogExpired {
            function: name.to_owned(),
            budget,
            spent: budget,
        });
        self.emit(|| Event::CompileFailed {
            function: name.to_owned(),
            cause: "watchdog",
        });
        let verdict = Verdict {
            matched,
            ..Verdict::default()
        };
        (FuncTier::Pinned, verdict)
    }

    /// A compilation panicked (chaos-injected or natural). The panic is
    /// contained here: the function earns a quarantine strike and the
    /// engine keeps serving. Below the strike threshold the function stays
    /// at baseline and the next hot invocation retries; at the threshold
    /// it is pinned no-go.
    fn compile_panicked(
        &mut self,
        name: &str,
        payload: &(dyn std::any::Any + Send),
    ) -> (FuncTier, Verdict) {
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
        self.run.compile_failures += 1;
        self.emit(|| Event::CompileFailed {
            function: name.to_owned(),
            cause: "panic",
        });
        let strikes = self.config.quarantine.strike(name);
        if !self.config.quarantine.is_quarantined(name) {
            return (FuncTier::Baseline, Verdict::default());
        }
        self.emit(|| Event::FunctionQuarantined {
            function: name.to_owned(),
            strikes,
        });
        (FuncTier::NoIon, Verdict::default())
    }

    /// Promotes the function to a round's code: the code stored with its
    /// output, else `mir` lowered, else — for a served round whose key
    /// never promoted before — a fresh untraced pipeline run lowered. The
    /// lowered code is stored with the output, so a compile-cache entry
    /// gains code the first time a round under its key promotes.
    fn promote(
        &self,
        input: &CompileInput<'_>,
        output: &PipelineOutput,
        mir: Option<MirFunction>,
    ) -> FuncTier {
        self.emit(|| Event::TierPromoted {
            function: input.function().name.clone(),
            tier: Tier::Ion,
        });
        let code = output.code.get_or_init(|| {
            let mir = mir.unwrap_or_else(|| {
                compile(input, &OptimizeOptions::default())
                    .expect("a served key compiled clean before")
                    .mir
            });
            Arc::new(jitbull_lir::compile(&mir))
        });
        FuncTier::Ion {
            code: Arc::clone(code),
            vulns_fired: output.vulns_fired.clone(),
        }
    }

    /// One optimizing compilation of `func`, recompile rounds included:
    /// the tier it leaves the function in and the verdict behind it.
    fn compile_ion(
        &mut self,
        rt: &mut Runtime,
        module: &Module,
        func: FuncId,
    ) -> (FuncTier, Verdict) {
        let function = module.function(func);
        let name = &function.name;
        // Quarantined functions are pinned no-go: their compilations keep
        // blowing up, so we stop feeding them to the pipeline.
        if self.config.quarantine.is_quarantined(name) {
            return (FuncTier::NoIon, Verdict::default());
        }
        let jitbull_active = self.guard.as_ref().is_some_and(Guard::enabled);
        // Stored outputs are neither served nor stored while a fault
        // injector is armed: chaos plans see every pass run.
        let cacheable = !self.config.faults.is_enabled();
        // JITBULL sits inside OptimizeMIR (paper §V), so every retry is
        // analyzed again: disabling one dangerous pass can unshadow a
        // different buggy transform further down the pipeline, which the
        // next round then catches. The loop reaches a fixpoint because
        // the disabled set only grows. It starts from the configured slots
        // the pipeline skips: a configured mandatory slot still runs, so
        // its danger is still news to the policy.
        let configured = self.config.disabled_slots.intersection(DISABLEABLE);
        let mut disabled = configured;
        let mut matched: Vec<(String, String)> = Vec::new();
        // Watchdog accounting: cycles charged for this function's whole
        // compilation (every round, analysis included).
        let mut spent = 0u64;
        for _round in 0..=N_SLOTS {
            self.emit(|| Event::CompileStarted {
                function: name.clone(),
                tier: Tier::Ion,
            });
            let input = CompileInput::new(function, disabled, &self.config.vulns);
            let lookup = self
                .guard
                .as_ref()
                .filter(|_| jitbull_active)
                .map(|guard| guard.lookup(input.key()));
            let served = lookup
                .as_ref()
                .and_then(Lookup::output)
                .filter(|_| cacheable)
                .cloned();
            // The round's output and, when the pipeline ran, its result.
            let (output, ran) = match served {
                Some(output) => (output, None),
                None => {
                    let options = OptimizeOptions {
                        trace: lookup.as_ref().is_some_and(Lookup::needs_trace),
                        faults: self.config.faults.clone(),
                    };
                    let result = match catch_unwind(AssertUnwindSafe(|| compile(&input, &options)))
                    {
                        Ok(Ok(result)) => result,
                        Ok(Err(_)) => return (FuncTier::NoIon, Verdict::default()),
                        Err(payload) => return self.compile_panicked(name, payload.as_ref()),
                    };
                    for &(fault, _slot) in &result.injected {
                        self.emit(|| Event::ChaosInjected {
                            site: "pass_run",
                            fault,
                        });
                    }
                    (Arc::new(result.output()), Some(result))
                }
            };
            let round_cost = output.work * ION_COMPILE_COST;
            if let Some(budget) = self.overrun(spent, round_cost) {
                return self.watchdog_expire(rt, name, matched, budget, spent);
            }
            rt.add_cycles(round_cost);
            spent += round_cost;
            if let Some(c) = &self.collector {
                let mut col = c.borrow_mut();
                for run in &output.slot_runs {
                    col.record(Event::PassApplied {
                        slot: run.slot,
                        name: run.name,
                        instrs_removed: run.instrs_before.saturating_sub(run.instrs_after),
                        instrs_added: run.instrs_after.saturating_sub(run.instrs_before),
                        cycles: run.work * ION_COMPILE_COST,
                    });
                }
            }
            if ran.as_ref().is_some_and(|result| result.broken.is_some()) {
                self.run.compile_failures += 1;
                self.emit(|| Event::CompileFailed {
                    function: name.clone(),
                    cause: "broken",
                });
                return (FuncTier::NoIon, Verdict::default());
            }
            let (mir, trace) = match ran {
                Some(result) => (Some(result.mir), result.trace),
                None => {
                    let trace = PassTrace {
                        function: name.clone(),
                        ..PassTrace::default()
                    };
                    (None, trace)
                }
            };
            let Some(mut lookup) = lookup else {
                return (self.promote(&input, &output, mir), Verdict::default());
            };
            if cacheable && mir.is_some() {
                lookup.store_output(Arc::clone(&output));
            }
            let guard = self.guard.as_ref().expect("a lookup comes from the guard");
            let analysis = match &self.collector {
                Some(c) => guard.analyze_compile(lookup, &trace, Some(&mut *c.borrow_mut())),
                None => guard.analyze_compile(lookup, &trace, None),
            };
            if let Some(budget) = self.overrun(spent, analysis.cost_cycles) {
                return self.watchdog_expire(rt, name, matched, budget, spent);
            }
            rt.add_cycles(analysis.cost_cycles);
            spent += analysis.cost_cycles;
            self.run.analysis_cycles += analysis.cost_cycles;
            for (cve, function, _) in &analysis.matches {
                let entry = (cve.clone(), function.clone());
                if !matched.contains(&entry) {
                    matched.push(entry);
                }
            }
            let fresh = analysis.dangerous.difference(disabled);
            let decision = decide(fresh, DISABLEABLE);
            self.emit(|| Event::PolicyDecision {
                function: name.clone(),
                verdict: match decision {
                    Decision::Go => jitbull_telemetry::Verdict::Go,
                    Decision::Recompile(_) => jitbull_telemetry::Verdict::Recompile,
                    Decision::NoJit(_) => jitbull_telemetry::Verdict::NoJit,
                },
                slots: decision.dangerous_passes().iter().collect(),
            });
            let (no_go, vetoed) = match decision {
                Decision::Go => (false, SlotSet::new()),
                Decision::Recompile(slots) => {
                    disabled = disabled.union(slots);
                    continue;
                }
                Decision::NoJit(slots) => (true, slots),
            };
            let verdict = Verdict {
                disabled_slots: disabled.union(vetoed).difference(configured),
                matched,
            };
            // The whole-JIT ablation vetoes every function JITBULL touched.
            if no_go || (self.config.whole_jit_policy && !verdict.disabled_slots.is_empty()) {
                return (FuncTier::NoIon, verdict);
            }
            return (self.promote(&input, &output, mir), verdict);
        }
        // Could not reach a clean compilation within the round budget:
        // conservative no-Ion fallback.
        let verdict = Verdict {
            matched,
            ..Verdict::default()
        };
        (FuncTier::NoIon, verdict)
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
    /// and configuration) from fresh per-function state. Crash-class
    /// errors terminate the script but produce an outcome (like a tab
    /// crashing), other errors propagate; the engine's statistics then
    /// still describe the run.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] for parse/compile/type/fuel errors.
    pub fn run_source_with(&mut self, source: &str) -> Result<EngineOutcome, VmError> {
        self.run = Run::default();
        let program = parse_program(source).map_err(|e| VmError::Parse(e.to_string()))?;
        let module = compile_program(&program)?;
        self.run.funcs = module
            .functions
            .iter()
            .map(|_| FuncState::default())
            .collect();
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
            analysis_cycles: self.run.analysis_cycles,
            compile_failures: self.run.compile_failures,
            watchdog_expiries: self.run.watchdog_expiries,
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
        let ix = func.0 as usize;
        let st = &mut self.run.funcs[ix];
        st.invocations += 1;
        let inv = st.invocations;
        if self.config.jit_enabled {
            if matches!(st.tier, FuncTier::Interpreter) && inv >= self.config.baseline_threshold {
                st.tier = FuncTier::Baseline;
                rt.add_cycles(module.function(func).len() as u64 * BASELINE_COMPILE_COST);
                self.emit(|| Event::CompileStarted {
                    function: module.function(func).name.clone(),
                    tier: Tier::Baseline,
                });
                self.emit(|| Event::TierPromoted {
                    function: module.function(func).name.clone(),
                    tier: Tier::Baseline,
                });
            }
            if matches!(self.run.funcs[ix].tier, FuncTier::Baseline)
                && inv >= self.config.ion_threshold
            {
                let (tier, verdict) = self.compile_ion(rt, module, func);
                let st = &mut self.run.funcs[ix];
                st.tier = tier;
                st.verdict = verdict;
            }
        }
        let cost = match &self.run.funcs[ix].tier {
            FuncTier::Ion { code, .. } => {
                let code = Arc::clone(code);
                return jitbull_lir::run(&code, rt, module, this, &args, self);
            }
            FuncTier::Baseline | FuncTier::NoIon => BASELINE_COST,
            FuncTier::Interpreter | FuncTier::Pinned => INTERP_COST,
        };
        interp::run_function(rt, module, func, this, args, self, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull::{CompareConfig, DnaDatabase};
    use jitbull_telemetry::Recorder;

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

    /// Two probe scripts of the same module shape: their hot functions
    /// share a `FuncId` but compute different things.
    const PROBES: [&str; 2] = [
        "function f(x) { return x + 1; } var t = 0; for (var i = 0; i < 40; i++) { t = f(i); } print(t);",
        "function g(s) { return s * 100; } var t = 0; for (var i = 0; i < 40; i++) { t = g(i); } print(t);",
    ];

    /// Runs `src` on `engine`; returns the outcome and the Ion compile
    /// rounds the run started.
    fn observed(engine: &mut Engine, src: &str) -> (EngineOutcome, u64) {
        let rec = Rc::new(RefCell::new(Recorder::new()));
        engine.set_collector(rec.clone());
        let out = engine.run_source_with(src).unwrap();
        let rounds = rec.borrow().metrics().counter("engine.compile.ion");
        (out, rounds)
    }

    /// What a run decided per function: name, invocations and tier.
    fn tiers(out: &EngineOutcome) -> Vec<(String, u64, TierStats)> {
        out.stats
            .iter()
            .map(|s| (s.name.clone(), s.invocations, s.tier))
            .collect()
    }

    #[test]
    fn each_script_on_one_engine_runs_like_on_a_fresh_engine() {
        let db = jitbull_vdc::build_database(&jitbull_vdc::all_vdcs()).expect("catalog builds");
        let unguarded = || Engine::new(EngineConfig::fast_test());
        let guarded = || {
            let guard = Guard::new(db.clone(), CompareConfig::default());
            Engine::with_guard(EngineConfig::fast_test(), guard)
        };
        for make in [&unguarded as &dyn Fn() -> Engine, &guarded] {
            let mut engine = make();
            let is_guarded = engine.guard.is_some();
            for probe in PROBES {
                let (got, got_rounds) = observed(&mut engine, probe);
                let (want, want_rounds) = observed(&mut make(), probe);
                assert_eq!(got.outcome.printed, want.outcome.printed, "{probe}");
                assert_eq!(tiers(&got), tiers(&want), "{probe}");
                // The hot function gets its own compile rounds, each
                // analysed when the guard is on.
                assert!(got_rounds >= 1, "{probe}");
                assert_eq!(got_rounds, want_rounds, "{probe}");
                assert_eq!(got.analysis_cycles > 0, is_guarded, "{probe}");
                if !is_guarded {
                    assert_eq!(got.outcome.cycles, want.outcome.cycles, "{probe}");
                }
            }
        }
    }

    #[test]
    fn a_script_that_fails_to_parse_leaves_no_statistics_behind() {
        let mut engine = Engine::new(EngineConfig::fast_test());
        engine.run_source_with(SUM_LOOP).unwrap();
        assert_eq!(engine.nr_jit(), 1);
        assert!(engine.run_source_with("function (").is_err());
        assert_eq!(engine.nr_jit(), 0);
        let module = compile_program(&parse_program(SUM_LOOP).unwrap()).unwrap();
        assert!(engine.function_stats(&module).is_empty());
    }

    #[test]
    fn collector_sees_the_run_without_changing_cycles() {
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
