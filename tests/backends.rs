//! Differential of the optimizing tier against the normative oracle, the
//! bytecode interpreter (`jit_enabled: false`): every workload prints the
//! same output on both, and every security-set PoC compromises only the
//! vulnerable Ion tier. The tiered runs also lock the simulated cost model
//! — cycles, ops, tier counts and analysis cycles of every suite workload
//! — to `tests/golden/cycles.txt`, and the guard's share of it (every
//! workload under a guard over the whole VDC catalog) to
//! `tests/golden/guarded_cycles.txt`.
//!
//! Regenerate the cost tables after an intentional cost-model change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test backends
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use jitbull::{CompareConfig, ExtractorMode, Guard};
use jitbull_jit::engine::{Engine, EngineConfig, EngineOutcome};
use jitbull_jit::{CveId, VulnConfig};
use jitbull_vdc::validate::{run_script, VdcOutcome};
use jitbull_vdc::{all_vdcs, build_database, vdc};
use jitbull_workloads::all_workloads;

fn run(source: &str, config: EngineConfig) -> EngineOutcome {
    Engine::run_source(source, config).unwrap_or_else(|e| panic!("{e}"))
}

fn interpreter() -> EngineConfig {
    EngineConfig {
        jit_enabled: false,
        ..Default::default()
    }
}

fn cost_line(name: &str, o: &EngineOutcome) -> String {
    format!(
        "{name} cycles={} ops={} nr_jit={} nr_disjit={} nr_nojit={} analysis_cycles={}\n",
        o.outcome.cycles, o.outcome.ops, o.nr_jit, o.nr_disjit, o.nr_nojit, o.analysis_cycles
    )
}

/// Compares `actual` against the checked-in cost table `file` (under
/// `tests/golden/`), or rewrites the table when `UPDATE_GOLDEN` is set.
fn check_cost_table(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("write {file}: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{file}: {e} — regenerate with UPDATE_GOLDEN=1"));
    let mut diff = String::new();
    for (g, a) in golden.lines().zip(actual.lines()) {
        if g != a {
            let _ = writeln!(diff, "  golden   {g}\n  measured {a}");
        }
    }
    assert!(
        diff.is_empty() && golden.lines().count() == actual.lines().count(),
        "cost model moved (intentional? regenerate with UPDATE_GOLDEN=1):\n{diff}"
    );
}

#[test]
fn all_workloads_agree_across_backends() {
    let mut table = String::from("# workload cost model, default EngineConfig\n");
    for w in all_workloads() {
        let interp = run(&w.source, interpreter());
        let ion = run(&w.source, EngineConfig::default());
        assert_eq!(
            interp.outcome.printed, ion.outcome.printed,
            "{}: Ion diverged from the interpreter",
            w.name
        );
        table.push_str(&cost_line(w.name, &ion));
    }
    check_cost_table("cycles.txt", &table);
}

/// The guard's cost model: every workload under default `EngineConfig`
/// (fresh compile cache) guarded by the whole VDC catalog. The reference
/// extractor charges ~15x the incremental one's analysis work and runs as
/// much slower, so its rows cover the two microbenches only.
#[test]
fn guarded_cost_model_is_pinned() {
    let db = build_database(&all_vdcs()).expect("VDC catalog builds");
    let mut table = String::from(
        "# guarded by the whole VDC catalog, default EngineConfig and CompareConfig\n",
    );
    for w in all_workloads() {
        let mut modes = vec![("incremental", ExtractorMode::Incremental)];
        if w.name.starts_with("Microbench") {
            modes.push(("reference", ExtractorMode::Reference));
        }
        for (mode, extractor) in modes {
            let mut guard = Guard::new(db.clone(), CompareConfig::default());
            guard.set_extractor_mode(extractor);
            let out = Engine::with_guard(EngineConfig::default(), guard)
                .run_source_with(&w.source)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            table.push_str(&cost_line(&format!("{}/{mode}", w.name), &out));
        }
    }
    check_cost_table("guarded_cycles.txt", &table);
}

#[test]
fn exploits_work_through_both_backends() {
    for cve in CveId::security_set() {
        let poc = vdc(cve);
        let vulnerable = EngineConfig {
            vulns: VulnConfig::with([cve]),
            ..Default::default()
        };
        let outcome = |config: EngineConfig| {
            run_script(&poc.source, &mut Engine::new(config))
                .unwrap_or_else(|e| panic!("{}: {e}", poc.name))
        };
        let ion = outcome(vulnerable.clone());
        assert!(ion.matches(poc.expected), "{} on Ion: {ion:?}", poc.name);
        // The interpreter never runs the incorrect transform, so the same
        // build is safe without the optimizing tier — and a patched Ion
        // engine agrees with it.
        let interp = outcome(EngineConfig {
            jit_enabled: false,
            ..vulnerable
        });
        assert!(
            matches!(interp, VdcOutcome::Harmless { .. }),
            "{} on the interpreter: {interp:?}",
            poc.name
        );
        assert_eq!(
            outcome(EngineConfig::default()),
            interp,
            "{}: patched Ion diverged from the interpreter",
            poc.name
        );
    }
}
