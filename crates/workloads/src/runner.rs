//! Running workloads under configurable engines and collecting the
//! measurements the paper's figures are built from.

use std::cell::RefCell;
use std::rc::Rc;

use jitbull::{CompareConfig, DnaDatabase, Guard};
use jitbull_jit::engine::{Engine, EngineConfig, EngineOutcome};
use jitbull_telemetry::Collector;
use jitbull_vm::VmError;

use crate::suite::Workload;

/// One workload run's results.
#[derive(Debug)]
pub struct Measurement {
    /// Workload name.
    pub name: &'static str,
    /// Checksum line(s) the program printed.
    pub printed: Vec<String>,
    /// Total simulated cycles (execution + compilation + analysis).
    pub cycles: u64,
    /// Executed operations across all tiers.
    pub ops: u64,
    /// Functions that reached the optimizing tier (`Nr_JIT`).
    pub nr_jit: usize,
    /// Functions with ≥1 pass disabled (`Nr_DisJIT`).
    pub nr_disjit: usize,
    /// Functions whose optimizing JIT was vetoed (`Nr_NoJIT`).
    pub nr_nojit: usize,
    /// Cycles JITBULL spent on extraction + comparison.
    pub analysis_cycles: u64,
}

impl Measurement {
    /// `%Pass Dis.` from the paper's Figure 4.
    pub fn pct_pass_disabled(&self) -> f64 {
        if self.nr_jit == 0 {
            0.0
        } else {
            self.nr_disjit as f64 * 100.0 / self.nr_jit as f64
        }
    }

    /// `%No JIT` from the paper's Figure 4.
    pub fn pct_nojit(&self) -> f64 {
        if self.nr_jit == 0 {
            0.0
        } else {
            self.nr_nojit as f64 * 100.0 / self.nr_jit as f64
        }
    }

    /// `%Safe Code` from the paper's Figure 4.
    pub fn pct_safe(&self) -> f64 {
        100.0 - self.pct_pass_disabled() - self.pct_nojit()
    }

    fn from_outcome(name: &'static str, out: EngineOutcome) -> Measurement {
        Measurement {
            name,
            printed: out.outcome.printed,
            cycles: out.outcome.cycles,
            ops: out.outcome.ops,
            nr_jit: out.nr_jit,
            nr_disjit: out.nr_disjit,
            nr_nojit: out.nr_nojit,
            analysis_cycles: out.analysis_cycles,
        }
    }
}

/// Runs one workload on an engine with the given configuration and an
/// optional JITBULL database.
///
/// # Errors
///
/// Propagates [`VmError`] — workloads are harmless, so any error is a
/// harness bug (crash-class errors would indicate a vulnerability model
/// breaking benign code).
pub fn run_workload(
    w: &Workload,
    config: EngineConfig,
    db: Option<DnaDatabase>,
) -> Result<Measurement, VmError> {
    run_inner(w, config, db, None)
}

/// Like [`run_workload`], with a telemetry collector attached to the
/// engine for the duration of the run.
///
/// # Errors
///
/// Same as [`run_workload`].
pub fn run_workload_observed(
    w: &Workload,
    config: EngineConfig,
    db: Option<DnaDatabase>,
    collector: Rc<RefCell<dyn Collector>>,
) -> Result<Measurement, VmError> {
    run_inner(w, config, db, Some(collector))
}

fn run_inner(
    w: &Workload,
    config: EngineConfig,
    db: Option<DnaDatabase>,
    collector: Option<Rc<RefCell<dyn Collector>>>,
) -> Result<Measurement, VmError> {
    let mut engine = match db {
        Some(db) => Engine::with_guard(config, Guard::new(db, CompareConfig::default())),
        None => Engine::new(config),
    };
    if let Some(c) = collector {
        engine.set_collector(c);
    }
    let out = engine.run_source_with(&w.source)?;
    if out.outcome.status.is_compromised() {
        return Err(VmError::Crash(format!(
            "harmless workload {} reported {:?}",
            w.name, out.outcome.status
        )));
    }
    Ok(Measurement::from_outcome(w.name, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::all_workloads;
    use jitbull_jit::VulnConfig;

    /// Every workload must print the same checksum on every tier
    /// configuration — including on an engine that ships all eight
    /// vulnerabilities (benign code must not be miscompiled into wrong
    /// answers by the *triggers* firing spuriously at runtime).
    #[test]
    fn workloads_agree_across_interpreter_and_jit() {
        for w in all_workloads() {
            let interp = run_workload(
                &w,
                EngineConfig {
                    jit_enabled: false,
                    ..Default::default()
                },
                None,
            )
            .unwrap_or_else(|e| panic!("{} interp: {e}", w.name));
            let jit = run_workload(&w, EngineConfig::default(), None)
                .unwrap_or_else(|e| panic!("{} jit: {e}", w.name));
            assert_eq!(
                interp.printed, jit.printed,
                "{}: interpreter vs JIT output mismatch",
                w.name
            );
            assert!(!interp.printed.is_empty(), "{} printed nothing", w.name);
            assert!(
                jit.cycles < interp.cycles,
                "{}: JIT ({}) not faster than interpreter ({})",
                w.name,
                jit.cycles,
                interp.cycles
            );
        }
    }

    #[test]
    fn workloads_survive_a_fully_vulnerable_engine() {
        for w in all_workloads() {
            let vulnerable = run_workload(
                &w,
                EngineConfig {
                    vulns: VulnConfig::all(),
                    ..Default::default()
                },
                None,
            )
            .unwrap_or_else(|e| panic!("{} vulnerable engine: {e}", w.name));
            let clean = run_workload(&w, EngineConfig::default(), None).unwrap();
            assert_eq!(
                vulnerable.printed, clean.printed,
                "{}: wrong answer on vulnerable engine",
                w.name
            );
        }
    }

    #[test]
    fn every_workload_jits_at_least_one_function() {
        for w in all_workloads() {
            let m = run_workload(&w, EngineConfig::default(), None).unwrap();
            assert!(
                m.nr_jit >= 1,
                "{} never reached the optimizing tier",
                w.name
            );
            assert_eq!(m.nr_disjit, 0);
            assert_eq!(m.nr_nojit, 0);
        }
    }

    #[test]
    fn percentage_arithmetic() {
        let m = Measurement {
            name: "t",
            printed: vec![],
            cycles: 0,
            ops: 0,
            nr_jit: 10,
            nr_disjit: 3,
            nr_nojit: 1,
            analysis_cycles: 0,
        };
        assert!((m.pct_pass_disabled() - 30.0).abs() < 1e-9);
        assert!((m.pct_nojit() - 10.0).abs() < 1e-9);
        assert!((m.pct_safe() - 60.0).abs() < 1e-9);
    }
}
