//! Regression test for the engine's re-analysis fixpoint (§V: JITBULL
//! runs inside `OptimizeMIR`, so a recompile-with-passes-disabled is
//! itself analyzed again).
//!
//! The fixture function carries *two* buggy-transform triggers: an
//! `Array.pop` (CVE-2019-11707, check elimination at slot 11) and an
//! offset index `arr[i + 4]` (CVE-2020-26952, linear-arithmetic folding
//! at slot 26). On the fully vulnerable engine the 11707 transform
//! removes the check first, so the 26952 transform finds nothing — its
//! signature only surfaces on the *recompiled* pipeline where slot 11 is
//! disabled. Without the fixpoint (or without the fuzzer crate's
//! iterated extraction), disabling slot 11 alone would leave the
//! function exploitable through the unshadowed 26952 path.

use jitbull::{CompareConfig, DnaDatabase, Guard};
use jitbull_fuzzer::harness::{campaign_engine, install_until_neutralized};
use jitbull_fuzzer::Find;
use jitbull_jit::engine::Engine;
use jitbull_jit::{CveId, VulnConfig};
use jitbull_vdc::dna::extract_program_dna;
use jitbull_vdc::validate::run_script;
use jitbull_vdc::VdcOutcome;

const TWO_VULN_SOURCE: &str = r#"
function hot(arr, i, v) {
  var t = 0;
  arr.pop();
  arr.length = 12;
  t = t + arr[i + 4];
  arr[i] = v;
  return t;
}
var data = new Array(12);
for (var s = 0; s < 12; s++) { data[s] = s; }
var sink = 0;
for (var w = 0; w < 20; w++) { sink = hot(data, 2, w); }
sink = hot(data, 100000, 7);
print(sink);
"#;

fn two_vulns() -> VulnConfig {
    VulnConfig::with([CveId::Cve2019_11707, CveId::Cve2020_26952])
}

#[test]
fn fixture_is_exploitable_unprotected() {
    let mut engine = Engine::new(campaign_engine(two_vulns()));
    let outcome = run_script(TWO_VULN_SOURCE, &mut engine).unwrap();
    assert!(outcome.is_compromised(), "{outcome:?}");
}

#[test]
fn single_shot_dna_misses_the_shadowed_vulnerability() {
    // DNA extracted from the plain vulnerable pipeline only carries the
    // 11707 signature (26952 was shadowed), so one install round is not
    // enough…
    let vulns = two_vulns();
    let mut db = DnaDatabase::new();
    for (function, dna) in extract_program_dna(TWO_VULN_SOURCE, &vulns).unwrap() {
        db.install("FIXTURE", function, dna);
    }
    let mut guarded = Engine::with_guard(
        campaign_engine(vulns),
        Guard::new(db, CompareConfig::default()),
    );
    let outcome = run_script(TWO_VULN_SOURCE, &mut guarded).unwrap();
    // The guard does flag and disable the first signature…
    assert!(guarded.nr_disjit() + guarded.nr_nojit() > 0);
    // …but the recompiled pipeline unshadows the second bug. (If this
    // ever starts passing, the extractor learned to see shadowed
    // signatures in one shot — update the docs and drop the triage loop's
    // extra rounds.)
    assert!(
        outcome.is_compromised(),
        "expected the shadowed 26952 path to still fire: {outcome:?}"
    );
}

#[test]
fn iterated_extraction_reaches_a_protective_fixpoint() {
    let vulns = two_vulns();
    let mut db = DnaDatabase::new();
    let find = Find {
        seed: 0,
        source: TWO_VULN_SOURCE.to_string(),
        outcome: VdcOutcome::Crashed(String::new()),
    };
    let neutralized = install_until_neutralized(&mut db, &find, &vulns, 6).unwrap();
    assert!(neutralized, "triage loop failed to converge");
    // The final database carries more than the first round's entries.
    assert!(
        db.len() >= 2,
        "expected signatures from ≥2 rounds, got {}",
        db.len()
    );
    // And a fresh engine with that database is safe.
    let mut guarded = Engine::with_guard(
        campaign_engine(vulns),
        Guard::new(db, CompareConfig::default()),
    );
    let outcome = run_script(TWO_VULN_SOURCE, &mut guarded).unwrap();
    assert!(!outcome.is_compromised(), "{outcome:?}");
    // Both buggy slots ended up disabled on the hot function.
    let program = jitbull_frontend::parse_program(TWO_VULN_SOURCE).unwrap();
    let module = jitbull_vm::compile_program(&program).unwrap();
    let stats = guarded.function_stats(&module);
    let hot = stats.iter().find(|f| f.name == "hot").unwrap();
    assert!(
        hot.disabled_slots
            .contains(CveId::Cve2019_11707.pass_slot()),
        "slot {} missing from {:?}",
        CveId::Cve2019_11707.pass_slot(),
        hot.disabled_slots
    );
    assert!(
        hot.disabled_slots
            .contains(CveId::Cve2020_26952.pass_slot()),
        "slot {} missing from {:?}",
        CveId::Cve2020_26952.pass_slot(),
        hot.disabled_slots
    );
}
