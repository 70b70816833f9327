//! Step 1 of the paper's workflow: extracting VDC DNA and building the
//! JITBULL database.
//!
//! DNA extraction is purely structural — the trigger functions are
//! compiled through the (vulnerable) pipeline with tracing on, and the Δ
//! extractor digests the per-pass snapshots. No execution of the exploit
//! is required, which mirrors the paper's recommendation that the
//! *maintainer* extracts and ships DNA vectors rather than handing users
//! a live weapon.

use jitbull::{Dna, DnaDatabase};
use jitbull_frontend::parse_program;
use jitbull_jit::pipeline::{compile, CompileInput, OptimizeOptions};
use jitbull_jit::VulnConfig;
use jitbull_mir::SlotSet;
use jitbull_vm::{compile_program, VmError};

use crate::catalog::Vdc;

/// Extracts the DNA of each trigger function of a demonstrator code,
/// compiling on an engine with the given vulnerabilities present.
///
/// # Errors
///
/// Returns [`VmError`] if the VDC source fails to parse/compile or a
/// trigger function is missing.
pub fn extract_dna(v: &Vdc, vulns: &VulnConfig) -> Result<Vec<(String, Dna)>, VmError> {
    let program = parse_program(&v.source).map_err(|e| VmError::Parse(e.to_string()))?;
    let module = compile_program(&program)?;
    let mut out = Vec::new();
    for name in &v.trigger_functions {
        let fid = module
            .function_id(name)
            .ok_or_else(|| VmError::Compile(format!("trigger `{name}` missing in {}", v.name)))?;
        let input = CompileInput::new(module.function(fid), SlotSet::new(), vulns);
        let result = compile(&input, &traced()).map_err(|e| VmError::Compile(e.to_string()))?;
        let dna = jitbull::extract_dna(&result.trace);
        out.push((name.clone(), dna));
    }
    Ok(out)
}

/// Extracts the DNA of *every* function in an arbitrary program (used by
/// the fuzzer integration, where nobody knows which function carries the
/// bug). Trivial DNA entries are filtered by the database on install.
///
/// # Errors
///
/// Returns [`VmError`] on parse/compile failures.
pub fn extract_program_dna(
    source: &str,
    vulns: &VulnConfig,
) -> Result<Vec<(String, Dna)>, VmError> {
    extract_program_dna_with(source, vulns, SlotSet::new())
}

/// Like [`extract_program_dna`], but compiling with the given pipeline
/// slots disabled — the configuration a JITBULL-protected engine would
/// actually use after earlier matches, which can *unshadow* a second bug
/// further down the pipeline (see the fuzzer crate's triage loop).
///
/// # Errors
///
/// Returns [`VmError`] on parse/compile failures.
pub fn extract_program_dna_with(
    source: &str,
    vulns: &VulnConfig,
    disabled_slots: SlotSet,
) -> Result<Vec<(String, Dna)>, VmError> {
    let program = parse_program(source).map_err(|e| VmError::Parse(e.to_string()))?;
    let module = compile_program(&program)?;
    let mut out = Vec::new();
    for f in &module.functions {
        if f.name == "<main>" {
            continue;
        }
        let input = CompileInput::new(f, disabled_slots, vulns);
        let Ok(result) = compile(&input, &traced()) else {
            continue;
        };
        out.push((f.name.clone(), jitbull::extract_dna(&result.trace)));
    }
    Ok(out)
}

/// Pipeline options that trace every executed slot.
fn traced() -> OptimizeOptions {
    OptimizeOptions {
        trace: true,
        ..OptimizeOptions::default()
    }
}

/// Builds a JITBULL database from a set of demonstrator codes (one entry
/// per trigger function). Each VDC's DNA is extracted on an engine
/// vulnerable to *its own* CVE — the situation during that CVE's
/// vulnerability window.
///
/// # Errors
///
/// Propagates extraction errors.
pub fn build_database(vdcs: &[Vdc]) -> Result<DnaDatabase, VmError> {
    let mut db = DnaDatabase::new();
    for v in vdcs {
        let vulns = VulnConfig::with([v.cve]);
        for (function, dna) in extract_dna(v, &vulns)? {
            db.install(v.cve.name(), function, dna);
        }
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{all_vdcs, vdc};
    use jitbull_jit::CveId;

    #[test]
    fn vdc_dna_is_nontrivial_and_marks_the_buggy_slot() {
        for v in all_vdcs() {
            let vulns = VulnConfig::with([v.cve]);
            let dnas = extract_dna(&v, &vulns).unwrap();
            assert!(!dnas.is_empty());
            for (name, dna) in &dnas {
                assert!(!dna.is_trivial(), "{}:{name} produced trivial DNA", v.name);
                let slot = v.cve.pass_slot();
                assert!(
                    !dna.deltas[slot].is_empty(),
                    "{}:{name} has empty delta in its buggy slot {slot}",
                    v.name
                );
            }
        }
    }

    #[test]
    fn database_builds_with_all_eight() {
        let db = build_database(&all_vdcs()).unwrap();
        assert_eq!(db.len(), 8);
        assert_eq!(db.cves().len(), 8);
    }

    #[test]
    fn patched_engine_dna_differs_from_vulnerable_dna() {
        let v = vdc(CveId::Cve2019_17026);
        let vulnerable = extract_dna(&v, &VulnConfig::with([v.cve])).unwrap();
        let patched = extract_dna(&v, &VulnConfig::none()).unwrap();
        assert_ne!(vulnerable[0].1, patched[0].1);
    }

    #[test]
    fn dna_database_round_trips_through_text() {
        let db = build_database(&[vdc(CveId::Cve2019_17026)]).unwrap();
        let text = db.to_text();
        let back = DnaDatabase::from_text(&text).unwrap();
        assert_eq!(db, back);
    }
}
