//! The §VI-B security evaluation: 4 CVEs × (PoC + 4 generated variants),
//! plus the cross-implementation check for CVE-2019-17026.

use jitbull::{CompareConfig, Guard};
use jitbull_frontend::parse_program;
use jitbull_jit::engine::{Engine, EngineConfig};
use jitbull_jit::{CveId, VulnConfig};
use jitbull_mir::SlotSet;
use jitbull_vdc::validate::run_script;
use jitbull_vdc::{
    alternate_implementation, build_database, generate, vdc, VariantKind, Vdc, VdcOutcome,
};
use jitbull_vm::compile_program;

/// One row of the detection table.
#[derive(Debug, Clone)]
pub struct SecurityRow {
    /// CVE under test.
    pub cve: CveId,
    /// Script label (poc / renamed / minified / reordered / split /
    /// impl2).
    pub case: String,
    /// Outcome on the vulnerable, unprotected engine.
    pub unprotected: VdcOutcome,
    /// Outcome on the vulnerable engine with JITBULL (DB holds only the
    /// base PoC's DNA).
    pub protected: VdcOutcome,
    /// Whether JITBULL flagged ≥1 function (disabled passes or vetoed the
    /// JIT).
    pub detected: bool,
    /// Pipeline slots JITBULL disabled across functions.
    pub disabled_slots: SlotSet,
}

impl SecurityRow {
    /// The paper's success criterion: the attack works unprotected and is
    /// neutralized under JITBULL.
    pub fn neutralized(&self) -> bool {
        self.unprotected.is_compromised() && !self.protected.is_compromised() && self.detected
    }
}

fn run_case(cve: CveId, case: &str, script: &Vdc, base: &Vdc) -> SecurityRow {
    let vulns = VulnConfig::with([cve]);
    // Unprotected.
    let mut plain = Engine::new(EngineConfig {
        vulns: vulns.clone(),
        ..Default::default()
    });
    let unprotected = run_script(&script.source, &mut plain).expect("unprotected run");
    // Protected: DB holds only the *base* PoC's DNA (the variant is the
    // unknown attacker script).
    let db = build_database(std::slice::from_ref(base)).expect("db builds");
    let guard = Guard::new(db, CompareConfig::default());
    let mut shielded = Engine::with_guard(
        EngineConfig {
            vulns,
            ..Default::default()
        },
        guard,
    );
    let protected = run_script(&script.source, &mut shielded).expect("protected run");
    let detected = shielded.nr_disjit() + shielded.nr_nojit() > 0;
    // The engine keeps the run's per-function verdicts even when a script
    // error ended it; its statistics take the module only for names.
    let program = parse_program(&script.source).expect("script parses");
    let module = compile_program(&program).expect("script compiles");
    let disabled_slots = shielded
        .function_stats(&module)
        .iter()
        .fold(SlotSet::new(), |set, f| set.union(f.disabled_slots));
    SecurityRow {
        cve,
        case: case.to_string(),
        unprotected,
        protected,
        detected,
        disabled_slots,
    }
}

/// Runs the full §VI-B evaluation.
pub fn security_eval() -> Vec<SecurityRow> {
    let mut rows = Vec::new();
    for cve in CveId::security_set() {
        let base = vdc(cve);
        rows.push(run_case(cve, "poc", &base, &base));
        for kind in VariantKind::all() {
            let variant = generate(&base, kind);
            rows.push(run_case(cve, kind.suffix(), &variant, &base));
        }
        if let Some(alt) = alternate_implementation(cve) {
            // The paper's cross-implementation experiment: impl 1 in the
            // DB, impl 2 as the running script.
            rows.push(run_case(cve, "impl2", &alt, &base));
        }
    }
    rows
}

/// Renders the detection table.
pub fn render(rows: &[SecurityRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.cve.name().to_string(),
                r.case.clone(),
                outcome_label(&r.unprotected),
                outcome_label(&r.protected),
                if r.detected { "yes" } else { "NO" }.to_string(),
                if r.neutralized() { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    let detected = rows.iter().filter(|r| r.neutralized()).count();
    format!(
        "{}\ndetection rate: {detected}/{} ({:.0}%)\n",
        crate::render_table(
            &[
                "cve",
                "case",
                "unprotected",
                "with jitbull",
                "detected",
                "neutralized"
            ],
            &table_rows
        ),
        rows.len(),
        detected as f64 * 100.0 / rows.len() as f64
    )
}

fn outcome_label(o: &VdcOutcome) -> String {
    match o {
        VdcOutcome::Crashed(_) => "CRASH".to_string(),
        VdcOutcome::ShellcodeExecuted => "SHELLCODE".to_string(),
        VdcOutcome::Harmless { error: None } => "clean".to_string(),
        VdcOutcome::Harmless { error: Some(_) } => "clean (script error)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_rate_is_100_percent() {
        let rows = security_eval();
        // 4 CVEs x (poc + 4 variants) + the 17026 second implementation.
        assert_eq!(rows.len(), 4 * 5 + 1);
        for r in &rows {
            assert!(
                r.neutralized(),
                "{} {} not neutralized: unprotected={:?} protected={:?} detected={}",
                r.cve.name(),
                r.case,
                r.unprotected,
                r.protected,
                r.detected
            );
        }
    }

    #[test]
    fn outcomes_match_poc_classes() {
        let rows = security_eval();
        for r in rows.iter().filter(|r| r.case == "poc") {
            match r.cve {
                CveId::Cve2019_9791 | CveId::Cve2019_9810 => {
                    assert!(matches!(r.unprotected, VdcOutcome::Crashed(_)))
                }
                CveId::Cve2019_11707 | CveId::Cve2019_17026 => {
                    assert!(matches!(r.unprotected, VdcOutcome::ShellcodeExecuted))
                }
                _ => unreachable!(),
            }
        }
    }
}
