//! End-to-end reproduction of the paper's §VI-B security evaluation:
//! every exploit variant must compromise the unprotected vulnerable
//! engine and be neutralized (with detection) once the base PoC's DNA is
//! in JITBULL's database.

use jitbull::{CompareConfig, Guard};
use jitbull_jit::engine::{Engine, EngineConfig};
use jitbull_jit::{CveId, VulnConfig};
use jitbull_vdc::validate::run_script;
use jitbull_vdc::{
    alternate_implementation, build_database, generate, vdc, ExploitKind, VariantKind, Vdc,
    VdcOutcome,
};

fn vulnerable(cve: CveId) -> EngineConfig {
    EngineConfig {
        vulns: VulnConfig::with([cve]),
        ..Default::default()
    }
}

fn run_unprotected(script: &Vdc, cve: CveId) -> VdcOutcome {
    let mut engine = Engine::new(vulnerable(cve));
    run_script(&script.source, &mut engine).expect("script runs")
}

fn run_protected(script: &Vdc, base: &Vdc, cve: CveId) -> (VdcOutcome, bool) {
    let db = build_database(std::slice::from_ref(base)).expect("db builds");
    let mut engine = Engine::with_guard(vulnerable(cve), Guard::new(db, CompareConfig::default()));
    let outcome = run_script(&script.source, &mut engine).expect("script runs");
    let detected = engine.nr_disjit() + engine.nr_nojit() > 0;
    (outcome, detected)
}

#[test]
fn all_variants_of_all_security_cves_are_neutralized() {
    for cve in CveId::security_set() {
        let base = vdc(cve);
        let mut cases = vec![base.clone()];
        cases.extend(VariantKind::all().iter().map(|k| generate(&base, *k)));
        for case in &cases {
            let unprotected = run_unprotected(case, cve);
            assert!(
                unprotected.matches(case.expected),
                "{}: expected {:?} unprotected, got {unprotected:?}",
                case.name,
                case.expected
            );
            let (protected, detected) = run_protected(case, &base, cve);
            assert!(
                !protected.is_compromised(),
                "{}: still compromised under JITBULL: {protected:?}",
                case.name
            );
            assert!(detected, "{}: JITBULL did not flag anything", case.name);
        }
    }
}

#[test]
fn cross_implementation_detection_for_cve_2019_17026() {
    // The paper's only real two-implementation case: install impl 1's
    // DNA, run impl 2.
    let cve = CveId::Cve2019_17026;
    let base = vdc(cve);
    let alt = alternate_implementation(cve).expect("second implementation exists");
    assert_eq!(
        run_unprotected(&alt, cve),
        VdcOutcome::ShellcodeExecuted,
        "impl2 must exploit the unprotected engine"
    );
    let (protected, detected) = run_protected(&alt, &base, cve);
    assert!(!protected.is_compromised(), "{protected:?}");
    assert!(detected);
}

#[test]
fn crash_cves_crash_and_payload_cves_spray() {
    // §VI-B: first two CVEs crash, last two execute a payload.
    let expectations = [
        (CveId::Cve2019_9791, ExploitKind::Crash),
        (CveId::Cve2019_9810, ExploitKind::Crash),
        (CveId::Cve2019_11707, ExploitKind::Shellcode),
        (CveId::Cve2019_17026, ExploitKind::Shellcode),
    ];
    for (cve, kind) in expectations {
        let base = vdc(cve);
        assert_eq!(base.expected, kind);
        let outcome = run_unprotected(&base, cve);
        assert!(outcome.matches(kind), "{}: {outcome:?}", base.name);
    }
}

#[test]
fn scalability_cves_also_neutralize() {
    // The four §VI-D vulnerabilities (re-implemented from Bugzilla
    // descriptions in the paper) get the same end-to-end treatment.
    for cve in [
        CveId::Cve2019_9792,
        CveId::Cve2019_9795,
        CveId::Cve2019_9813,
        CveId::Cve2020_26952,
    ] {
        let base = vdc(cve);
        let unprotected = run_unprotected(&base, cve);
        assert!(
            unprotected.is_compromised(),
            "{}: {unprotected:?}",
            base.name
        );
        let (protected, detected) = run_protected(&base, &base, cve);
        assert!(!protected.is_compromised(), "{}: {protected:?}", base.name);
        assert!(detected, "{}", base.name);
    }
}

#[test]
fn patch_lifecycle_removes_protection_overhead_and_detection() {
    // DB lifecycle: install on disclosure -> detects; remove on patch ->
    // stops matching (and the patched engine is safe anyway).
    let cve = CveId::Cve2019_17026;
    let base = vdc(cve);
    let db = build_database(std::slice::from_ref(&base)).expect("db");
    let mut guard = Guard::new(db, CompareConfig::default());
    assert!(guard.enabled());
    // Patch lands: DNA removed, engine fixed.
    assert!(guard.db_mut().remove_cve(cve.name()) > 0);
    assert!(!guard.enabled());
    let mut engine = Engine::with_guard(EngineConfig::default(), guard);
    let out = engine.run_source_with(&base.source).expect("runs");
    assert!(!out.outcome.status.is_compromised());
    assert_eq!(out.nr_disjit + out.nr_nojit, 0);
    assert_eq!(out.analysis_cycles, 0, "empty DB must cost nothing");
}

#[test]
fn no_jit_engine_is_immune_but_thats_the_expensive_mitigation() {
    // The strawman the paper argues against: disabling the JIT entirely
    // does stop the exploit...
    let cve = CveId::Cve2019_17026;
    let base = vdc(cve);
    let mut engine = Engine::new(EngineConfig {
        jit_enabled: false,
        vulns: VulnConfig::with([cve]),
        ..Default::default()
    });
    let outcome = run_script(&base.source, &mut engine).expect("runs");
    assert!(!outcome.is_compromised());
}

/// Every row of the §VI-B table names the slots its detection disabled:
/// a detected row at least one, an undetected row none.
#[test]
fn security_rows_name_the_disabled_slots() {
    for row in jitbull_bench::security::security_eval() {
        let label = format!("{} {}", row.cve.name(), row.case);
        if row.detected {
            assert!(
                !row.disabled_slots.is_empty(),
                "{label}: detected without a slot"
            );
        } else {
            assert!(
                row.disabled_slots.is_empty(),
                "{label}: {:?}",
                row.disabled_slots
            );
        }
    }
}
