//! The optimization pipeline (`OptimizeMIR`): 32 slots over the MIR, in an
//! order modeled on IonMonkey's, with per-slot disabling, vulnerability
//! hooks, and snapshot tracing (`IR_0 … IR_n`) for JITBULL's Δ extractor.
//!
//! [`compile`] is the only way in: it takes a [`CompileInput`], the
//! struct the compile cache's key is built from, so the pipeline cannot
//! read an input the key lacks.

use jitbull::PipelineOutput;
use jitbull_chaos::{FaultInjector, FaultKind, FaultSite};
use jitbull_mir::build::MirBuildError;
use jitbull_mir::{
    build_mir, CompileKey, MirFunction, MirSnapshot, PassRecord, PassTrace, SlotRun, SlotSet,
    N_SLOTS,
};
use jitbull_vm::bytecode::Function;

use crate::passes::{self, PassContext};
use crate::vuln::{self, VulnConfig};

/// A pipeline slot: one application of one pass.
#[derive(Clone, Copy)]
pub struct PassSlot {
    /// Pass name (several slots may share one, e.g. GVN runs twice).
    pub name: &'static str,
    /// Whether JITBULL may disable this slot. Mandatory slots keep the
    /// graph executable (renumbering, pruning, coherency, edge splitting).
    pub disableable: bool,
    run: fn(&mut MirFunction, &mut PassContext<'_>),
}

impl std::fmt::Debug for PassSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassSlot")
            .field("name", &self.name)
            .field("disableable", &self.disableable)
            .finish()
    }
}

/// Named indexes of noteworthy slots (used by the vulnerability models and
/// tests).
pub mod slot {
    pub const RENUMBER_1: usize = 0;
    pub const PRUNE_1: usize = 1;
    pub const ELIMINATE_TRIVIAL_PHIS_1: usize = 2;
    pub const TYPE_SPECIALIZATION: usize = 3;
    pub const EAGER_SIMPLIFICATION: usize = 4;
    pub const ALIAS_ANALYSIS: usize = 5;
    pub const GVN_1: usize = 6;
    pub const RENUMBER_2: usize = 7;
    pub const LICM: usize = 8;
    pub const RANGE_ANALYSIS: usize = 9;
    pub const BOUNDS_CHECK_ELIMINATION: usize = 10;
    pub const ELIMINATE_REDUNDANT_CHECKS_1: usize = 11;
    pub const FOLD_TESTS: usize = 12;
    pub const PRUNE_2: usize = 13;
    pub const DCE_1: usize = 14;
    pub const ELIMINATE_DEAD_PHIS_1: usize = 15;
    pub const REORDER_COMMUTATIVE: usize = 16;
    pub const SINK: usize = 17;
    pub const REDUNDANT_LOAD_ELIMINATION: usize = 18;
    pub const GVN_2: usize = 19;
    pub const DCE_2: usize = 20;
    pub const RANGE_ASSERTIONS: usize = 21;
    pub const SPLIT_CRITICAL_EDGES: usize = 22;
    pub const RENUMBER_3: usize = 23;
    pub const EDGE_CASE_ANALYSIS: usize = 24;
    pub const ELIMINATE_REDUNDANT_CHECKS_2: usize = 25;
    pub const FOLD_LINEAR_ARITHMETIC: usize = 26;
    pub const DCE_3: usize = 27;
    pub const ELIMINATE_DEAD_PHIS_2: usize = 28;
    pub const COHERENCY: usize = 29;
    pub const SCHEDULING: usize = 30;
    pub const RENUMBER_FINAL: usize = 31;
}

/// The pipeline, in execution order: one entry per slot, [`N_SLOTS`] in
/// all (`n` in the paper's `Δ_1 … Δ_n`; SpiderMonkey has 32 and so do
/// we).
pub const PIPELINE: [PassSlot; N_SLOTS] = [
    PassSlot {
        name: "RenumberInstructions",
        disableable: false,
        run: passes::renumber::renumber,
    },
    PassSlot {
        name: "PruneUnreachable",
        disableable: false,
        run: passes::prune::prune_unreachable,
    },
    PassSlot {
        name: "EliminateTrivialPhis",
        disableable: true,
        run: passes::phis::eliminate_trivial_phis,
    },
    PassSlot {
        name: "TypeSpecialization",
        disableable: true,
        run: passes::typespec::type_specialization,
    },
    PassSlot {
        name: "EagerSimplification",
        disableable: true,
        run: passes::simplify::eager_simplify,
    },
    PassSlot {
        name: "AliasAnalysis",
        disableable: false,
        run: passes::range::alias_analysis,
    },
    PassSlot {
        name: "GVN",
        disableable: true,
        run: passes::gvn::gvn,
    },
    PassSlot {
        name: "RenumberInstructions",
        disableable: false,
        run: passes::renumber::renumber,
    },
    PassSlot {
        name: "LICM",
        disableable: true,
        run: passes::licm::licm,
    },
    PassSlot {
        name: "RangeAnalysis",
        disableable: true,
        run: passes::range::range_analysis,
    },
    PassSlot {
        name: "BoundsCheckElimination",
        disableable: true,
        run: passes::range::bounds_check_elimination,
    },
    PassSlot {
        name: "EliminateRedundantChecks",
        disableable: true,
        run: passes::checks::eliminate_redundant_checks,
    },
    PassSlot {
        name: "FoldTests",
        disableable: true,
        run: passes::simplify::fold_tests,
    },
    PassSlot {
        name: "PruneUnreachable",
        disableable: false,
        run: passes::prune::prune_unreachable,
    },
    PassSlot {
        name: "DCE",
        disableable: true,
        run: passes::dce::dce,
    },
    PassSlot {
        name: "EliminateDeadPhis",
        disableable: true,
        run: passes::phis::eliminate_dead_phis,
    },
    PassSlot {
        name: "ReorderCommutative",
        disableable: true,
        run: passes::reorder::reorder_commutative,
    },
    PassSlot {
        name: "Sink",
        disableable: true,
        run: passes::sink::sink,
    },
    PassSlot {
        name: "RedundantLoadElimination",
        disableable: true,
        run: passes::loadelim::redundant_load_elimination,
    },
    PassSlot {
        name: "GVN",
        disableable: true,
        run: passes::gvn::gvn,
    },
    PassSlot {
        name: "DCE",
        disableable: true,
        run: passes::dce::dce,
    },
    PassSlot {
        name: "RangeAssertions",
        disableable: true,
        run: passes::range::range_assertions,
    },
    PassSlot {
        name: "SplitCriticalEdges",
        disableable: false,
        run: passes::splitedges::split_critical_edges,
    },
    PassSlot {
        name: "RenumberInstructions",
        disableable: false,
        run: passes::renumber::renumber,
    },
    PassSlot {
        name: "EdgeCaseAnalysis",
        disableable: true,
        run: passes::range::edge_case_analysis,
    },
    PassSlot {
        name: "EliminateRedundantChecks",
        disableable: true,
        run: passes::checks::eliminate_redundant_checks,
    },
    PassSlot {
        name: "FoldLinearArithmetic",
        disableable: true,
        run: passes::linear::fold_linear_arithmetic,
    },
    PassSlot {
        name: "DCE",
        disableable: true,
        run: passes::dce::dce,
    },
    PassSlot {
        name: "EliminateDeadPhis",
        disableable: true,
        run: passes::phis::eliminate_dead_phis,
    },
    PassSlot {
        name: "CheckGraphCoherency",
        disableable: false,
        run: passes::range::check_graph_coherency,
    },
    PassSlot {
        name: "InstructionScheduling",
        disableable: true,
        run: passes::reorder::schedule_constants,
    },
    PassSlot {
        name: "RenumberInstructions",
        disableable: false,
        run: passes::renumber::renumber,
    },
];

/// The slots JITBULL's policy may disable: every [`PassSlot`] of
/// [`PIPELINE`] marked `disableable`.
pub const DISABLEABLE: SlotSet = {
    let mut set = SlotSet::new();
    let mut slot = 0;
    while slot < N_SLOTS {
        if PIPELINE[slot].disableable {
            set.insert(slot);
        }
        slot += 1;
    }
    set
};

/// Everything one optimizing compilation's output depends on: the
/// function's bytecode, the disableable slots the pipeline skips and the
/// engine's vulnerabilities. [`compile`] reads nothing else, and
/// [`CompileInput::key`] is built from this struct alone, so two inputs
/// with equal keys compile to equal output.
#[derive(Debug, Clone)]
pub struct CompileInput<'a> {
    function: &'a Function,
    /// Disableable slots to skip.
    skipped: SlotSet,
    vulns: &'a VulnConfig,
}

impl<'a> CompileInput<'a> {
    /// The input for compiling `function` with the slots in `disabled`
    /// off, in an engine with `vulns` present. Mandatory slots run
    /// whatever `disabled` says, so they are dropped from it here.
    pub fn new(function: &'a Function, disabled: SlotSet, vulns: &'a VulnConfig) -> Self {
        CompileInput {
            function,
            skipped: disabled.intersection(DISABLEABLE),
            vulns,
        }
    }

    /// The function being compiled.
    pub fn function(&self) -> &'a Function {
        self.function
    }

    /// The compile-cache key of this input.
    pub fn key(&self) -> CompileKey {
        CompileKey::new(self.function, self.skipped, self.vulns.mask())
    }
}

/// How one pipeline run goes, beside what it compiles. Neither option
/// changes a clean run's output: tracing only records the IR, and the
/// fault injector changes only the runs it fires in.
#[derive(Debug, Clone, Default)]
pub struct OptimizeOptions {
    /// Capture the IR entering the pipeline and after every executed
    /// slot (JITBULL enabled).
    pub trace: bool,
    /// Chaos injector consulted once per executed slot
    /// ([`FaultSite::PassRun`]). Disabled by default: a single pointer
    /// test per slot, no cycle-model impact.
    pub faults: FaultInjector,
}

/// Result of one pipeline run.
#[derive(Debug)]
pub struct OptimizeResult {
    /// The optimized function (valid unless `broken`).
    pub mir: MirFunction,
    /// Snapshot trace (empty when tracing was off).
    pub trace: PassTrace,
    /// Vulnerability transforms that fired: (cve, slot).
    pub triggered: Vec<(vuln::CveId, usize)>,
    /// Set when the coherency pass found a broken graph — the engine must
    /// abandon this compilation (`OptimizeMIR` returning `FAILURE`).
    pub broken: Option<String>,
    /// Total instructions processed across slots (compile-cost model).
    pub work: u64,
    /// Per-slot measurements, one per executed slot.
    pub slot_runs: Vec<SlotRun>,
    /// Chaos faults injected during this run, as `(kind name, slot)`.
    /// `PassPanic` never appears here — it unwinds instead of returning.
    pub injected: Vec<(&'static str, usize)>,
}

impl OptimizeResult {
    /// What the compile cache keeps of this run in place of running it
    /// again: its work, executed slots and fired vulnerabilities. The
    /// code is lowered later, and only if the compilation promotes.
    pub fn output(&self) -> PipelineOutput {
        let mut vulns_fired: Vec<&'static str> =
            self.triggered.iter().map(|(cve, _)| cve.name()).collect();
        vulns_fired.dedup();
        PipelineOutput {
            work: self.work,
            slot_runs: self.slot_runs.clone(),
            vulns_fired,
            ..PipelineOutput::default()
        }
    }
}

/// Compiles `input`: builds its MIR and runs the optimization pipeline
/// over it. Lowering the result is left to the caller, which lowers only
/// the compilations it promotes.
///
/// # Errors
///
/// Returns [`MirBuildError`] when the bytecode does not build.
pub fn compile(
    input: &CompileInput<'_>,
    options: &OptimizeOptions,
) -> Result<OptimizeResult, MirBuildError> {
    Ok(optimize(build_mir(input.function)?, input, options))
}

/// Runs the optimization pipeline over `mir`, built from `input`.
fn optimize(
    mut mir: MirFunction,
    input: &CompileInput<'_>,
    options: &OptimizeOptions,
) -> OptimizeResult {
    let mut cx = PassContext::new(input.vulns);
    let mut trace = PassTrace {
        function: mir.name.clone(),
        initial: if options.trace {
            mir.snapshot()
        } else {
            MirSnapshot::default()
        },
        records: Vec::new(),
    };
    let mut work = 0u64;
    let mut slot_runs = Vec::new();
    let mut injected = Vec::new();
    for (index, slot) in PIPELINE.iter().enumerate() {
        if input.skipped.contains(index) {
            continue;
        }
        let mut stall_work = 0u64;
        let mut corrupt = false;
        match options.faults.fire(FaultSite::PassRun) {
            Some(FaultKind::PassPanic) => {
                panic!("chaos: injected pass panic at slot {index} ({})", slot.name)
            }
            Some(FaultKind::PassStall { extra_work }) => {
                stall_work = extra_work;
                injected.push(("pass_stall", index));
            }
            Some(FaultKind::IrCorrupt) => {
                corrupt = true;
                injected.push(("ir_corrupt", index));
            }
            _ => {}
        }
        let count_before = mir.instr_count() as u64;
        work += count_before + stall_work;
        (slot.run)(&mut mir, &mut cx);
        vuln::apply_vulnerabilities(index, &mut mir, &mut cx);
        if corrupt {
            cx.broken = Some(format!("chaos: injected IR corruption at slot {index}"));
        }
        slot_runs.push(SlotRun {
            slot: index,
            name: slot.name,
            instrs_before: count_before,
            instrs_after: mir.instr_count() as u64,
            work: count_before + stall_work,
        });
        if options.trace {
            trace.records.push(PassRecord {
                slot: index,
                name: slot.name,
                after: mir.snapshot(),
            });
        }
        if cx.broken.is_some() {
            break;
        }
    }
    OptimizeResult {
        mir,
        trace,
        triggered: cx.triggered,
        broken: cx.broken,
        work,
        slot_runs,
        injected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vuln::CveId;
    use jitbull_frontend::parse_program;
    use jitbull_vm::compile_program;

    fn mir_of(src: &str, name: &str) -> MirFunction {
        let p = parse_program(src).unwrap();
        let m = compile_program(&p).unwrap();
        build_mir(m.function(m.function_id(name).unwrap())).unwrap()
    }

    /// Compiles function `name` of `src` with the slots in `disabled` off.
    fn run(
        src: &str,
        name: &str,
        disabled: &[usize],
        vulns: &VulnConfig,
        options: &OptimizeOptions,
    ) -> OptimizeResult {
        let m = compile_program(&parse_program(src).unwrap()).unwrap();
        let f = m.function(m.function_id(name).unwrap());
        compile(
            &CompileInput::new(f, disabled.iter().copied().collect(), vulns),
            options,
        )
        .unwrap()
    }

    fn traced() -> OptimizeOptions {
        OptimizeOptions {
            trace: true,
            ..Default::default()
        }
    }

    #[test]
    fn pipeline_has_32_slots_like_spidermonkey() {
        assert_eq!(N_SLOTS, 32);
    }

    #[test]
    fn optimizes_and_stays_valid() {
        let src = "function f(a, n) { var t = 0; for (var i = 0; i < n; i++) { t = t + a[i] * 2 + (3 * 4); } return t; }";
        let before = mir_of(src, "f").instr_count();
        let result = run(
            src,
            "f",
            &[],
            &VulnConfig::none(),
            &OptimizeOptions::default(),
        );
        assert!(result.broken.is_none());
        assert_eq!(result.mir.validate(), Ok(()));
        assert!(
            result.mir.instr_count() <= before + 4,
            "optimization should not bloat much"
        );
        assert!(result.triggered.is_empty());
        assert!(result.trace.records.is_empty());
        assert!(
            result.trace.initial.is_empty(),
            "untraced runs snapshot nothing"
        );
        assert!(result.work > 0);
    }

    #[test]
    fn tracing_captures_every_executed_slot() {
        let src = "function f(a, i) { return a[i] + a[i]; }";
        let result = run(src, "f", &[], &VulnConfig::none(), &traced());
        assert_eq!(result.trace.records.len(), N_SLOTS);
        // GVN's pass must show a shrinking IR (the duplicate chains merge).
        let (before, gvn) = result.trace.passes().nth(slot::GVN_1).unwrap();
        assert_eq!(gvn.slot, slot::GVN_1);
        assert!(gvn.after.len() < before.len());
    }

    #[test]
    fn trace_is_the_snapshot_sequence_of_executed_slots() {
        let src = "function f(a, i) { return a[i] + a[i]; }";
        // RENUMBER_FINAL is mandatory: it still runs, so it is still traced.
        let disabled = [slot::GVN_1, slot::LICM, slot::RENUMBER_FINAL];
        let result = run(src, "f", &disabled, &VulnConfig::none(), &traced());
        let trace = &result.trace;
        assert_eq!(trace.initial, mir_of(src, "f").snapshot());
        let executed: Vec<usize> = result.slot_runs.iter().map(|r| r.slot).collect();
        let traced: Vec<usize> = trace.passes().map(|(_, r)| r.slot).collect();
        assert_eq!(traced, executed);
        assert_eq!(traced.len(), N_SLOTS - 2);
        let mut expected_before = &trace.initial;
        for (before, record) in trace.passes() {
            assert_eq!(before, expected_before, "slot {}", record.slot);
            expected_before = &record.after;
        }
    }

    #[test]
    fn disabled_slots_are_skipped() {
        let src = "function f(a, i) { return a[i] + a[i]; }";
        let disabled = [slot::GVN_1, slot::GVN_2];
        let result = run(src, "f", &disabled, &VulnConfig::none(), &traced());
        assert_eq!(result.trace.records.len(), N_SLOTS - 2);
        assert!(result
            .trace
            .records
            .iter()
            .all(|r| r.slot != slot::GVN_1 && r.slot != slot::GVN_2));
    }

    #[test]
    fn mandatory_slots_cannot_be_skipped() {
        let m =
            compile_program(&parse_program("function f(a) { return a + 1; }").unwrap()).unwrap();
        let f = m.function(m.function_id("f").unwrap());
        let vulns = VulnConfig::none();
        let input = CompileInput::new(f, SlotSet::from_iter([slot::RENUMBER_FINAL]), &vulns);
        assert_eq!(
            input.key(),
            CompileInput::new(f, SlotSet::new(), &vulns).key()
        );
        let result = compile(&input, &OptimizeOptions::default()).unwrap();
        assert!(result.broken.is_none());
        // Final renumber still ran: ids are dense.
        let mut expected = 0;
        for b in &result.mir.blocks {
            for i in b.iter_all() {
                assert_eq!(i.id.0, expected);
                expected += 1;
            }
        }
    }

    #[test]
    fn vulnerability_fires_in_its_slot_and_is_visible_in_trace() {
        let result = run(
            "function pwn(a, v) { a.length = 4; a[20] = v; return 0; }",
            "pwn",
            &[],
            &VulnConfig::with([CveId::Cve2019_17026]),
            &traced(),
        );
        assert!(result
            .triggered
            .contains(&(CveId::Cve2019_17026, slot::GVN_1)));
        // No boundscheck survives.
        assert!(!result
            .mir
            .blocks
            .iter()
            .flat_map(|b| b.iter_all())
            .any(|i| matches!(i.op, jitbull_mir::MOpcode::BoundsCheck)));
        // And the GVN pass shows the removal.
        let (before, gvn) = result.trace.passes().nth(slot::GVN_1).unwrap();
        let before_checks = before
            .instrs
            .iter()
            .filter(|i| i.label.name() == "boundscheck")
            .count();
        let after_checks = gvn
            .after
            .instrs
            .iter()
            .filter(|i| i.label.name() == "boundscheck")
            .count();
        assert!(before_checks > after_checks);
    }

    #[test]
    fn disabling_the_buggy_slot_neutralizes_the_vulnerability() {
        let result = run(
            "function pwn(a, v) { a.length = 4; a[20] = v; return 0; }",
            "pwn",
            &[slot::GVN_1],
            &VulnConfig::with([CveId::Cve2019_17026]),
            &OptimizeOptions::default(),
        );
        assert!(result.triggered.is_empty());
        assert!(result
            .mir
            .blocks
            .iter()
            .flat_map(|b| b.iter_all())
            .any(|i| matches!(i.op, jitbull_mir::MOpcode::BoundsCheck)));
    }

    #[test]
    fn slot_runs_partition_the_work() {
        let src = "function f(a, i) { return a[i] + a[i]; }";
        let result = run(
            src,
            "f",
            &[],
            &VulnConfig::none(),
            &OptimizeOptions::default(),
        );
        assert_eq!(result.slot_runs.len(), N_SLOTS);
        let total: u64 = result.slot_runs.iter().map(|r| r.work).sum();
        assert_eq!(total, result.work, "slot work must partition total work");
        // GVN shrinks the duplicated load chain.
        let gvn = &result.slot_runs[slot::GVN_1];
        assert_eq!(gvn.name, "GVN");
        assert!(gvn.instrs_after < gvn.instrs_before);
    }

    #[test]
    fn chaos_stall_inflates_work_deterministically() {
        use jitbull_chaos::FaultPlan;
        let base = run(
            "function f(a, i) { return a[i] + a[i]; }",
            "f",
            &[],
            &VulnConfig::none(),
            &OptimizeOptions::default(),
        );
        let faults = FaultInjector::from_plan(FaultPlan::new(1).script(
            FaultSite::PassRun,
            FaultKind::PassStall { extra_work: 10_000 },
            3,
            1,
        ));
        let stalled = run(
            "function f(a, i) { return a[i] + a[i]; }",
            "f",
            &[],
            &VulnConfig::none(),
            &OptimizeOptions {
                faults,
                ..Default::default()
            },
        );
        assert_eq!(stalled.work, base.work + 10_000);
        assert_eq!(stalled.injected, vec![("pass_stall", 3)]);
        assert!(stalled.broken.is_none());
    }

    #[test]
    fn chaos_corruption_breaks_the_graph_at_the_faulted_slot() {
        let faults = FaultInjector::from_plan(jitbull_chaos::FaultPlan::new(2).script(
            FaultSite::PassRun,
            FaultKind::IrCorrupt,
            5,
            1,
        ));
        let result = run(
            "function f(a, i) { return a[i] + a[i]; }",
            "f",
            &[],
            &VulnConfig::none(),
            &OptimizeOptions {
                faults,
                ..Default::default()
            },
        );
        let broken = result.broken.expect("corruption must break the graph");
        assert!(broken.contains("chaos"), "{broken}");
        assert_eq!(result.injected, vec![("ir_corrupt", 5)]);
    }

    #[test]
    fn chaos_panic_unwinds_out_of_the_pipeline() {
        let faults = FaultInjector::from_plan(jitbull_chaos::FaultPlan::new(3).script(
            FaultSite::PassRun,
            FaultKind::PassPanic,
            0,
            1,
        ));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(
                "function f(a) { return a + 1; }",
                "f",
                &[],
                &VulnConfig::none(),
                &OptimizeOptions {
                    faults,
                    ..Default::default()
                },
            )
        }))
        .expect_err("scripted panic must unwind");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("chaos: injected pass panic"), "{msg}");
    }

    #[test]
    fn disabled_injector_changes_nothing() {
        let base = run(
            "function f(a, b) { return (a + b) * (a + b); }",
            "f",
            &[],
            &VulnConfig::none(),
            &OptimizeOptions::default(),
        );
        // An armed injector whose plan never matches must be
        // indistinguishable too (the no-fault-overhead guarantee).
        let armed_idle = FaultInjector::from_plan(jitbull_chaos::FaultPlan::new(9).script(
            FaultSite::PassRun,
            FaultKind::PassPanic,
            u64::MAX,
            0,
        ));
        let idle = run(
            "function f(a, b) { return (a + b) * (a + b); }",
            "f",
            &[],
            &VulnConfig::none(),
            &OptimizeOptions {
                faults: armed_idle,
                ..Default::default()
            },
        );
        assert_eq!(idle.work, base.work);
        assert!(idle.injected.is_empty());
        assert_eq!(idle.mir.instr_count(), base.mir.instr_count());
    }

    #[test]
    fn idempotent_second_run_changes_little() {
        let src = "function f(a, b) { return (a + b) * (a + b); }";
        let m = compile_program(&parse_program(src).unwrap()).unwrap();
        let vulns = VulnConfig::none();
        let input = CompileInput::new(
            m.function(m.function_id("f").unwrap()),
            SlotSet::new(),
            &vulns,
        );
        let r1 = compile(&input, &OptimizeOptions::default()).unwrap();
        let count1 = r1.mir.instr_count();
        let r2 = optimize(r1.mir, &input, &OptimizeOptions::default());
        assert_eq!(r2.mir.instr_count(), count1);
    }
}
