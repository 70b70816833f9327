//! Campaign running and automatic DNA installation.

use jitbull::{CompareConfig, DnaDatabase, Guard};
use jitbull_jit::engine::{Engine, EngineConfig};
use jitbull_jit::VulnConfig;
use jitbull_mir::SlotSet;
use jitbull_telemetry::{Collector, Event, NoopCollector};
use jitbull_vdc::dna::{extract_program_dna, extract_program_dna_with};
use jitbull_vdc::validate::run_script;
use jitbull_vdc::VdcOutcome;
use jitbull_vm::VmError;

use crate::gen::{generate_complete, GenConfig};

/// A crashing/compromising program the campaign found.
#[derive(Debug, Clone)]
pub struct Find {
    /// The seed that produced it.
    pub seed: u64,
    /// The complete program.
    pub source: String,
    /// What it did to the runtime.
    pub outcome: VdcOutcome,
}

/// Campaign results.
#[derive(Debug)]
pub struct CampaignReport {
    /// Seeds executed.
    pub executed: u64,
    /// Programs that ended in a benign script error (interesting but not
    /// security-relevant).
    pub script_errors: u64,
    /// Security-relevant finds.
    pub finds: Vec<Find>,
}

/// Engine configuration used by campaigns: low tier thresholds so every
/// generated program reaches the optimizing JIT quickly, bounded fuel so
/// runaway programs cannot stall the campaign.
pub fn campaign_engine(vulns: VulnConfig) -> EngineConfig {
    EngineConfig {
        baseline_threshold: 4,
        ion_threshold: 8,
        vulns,
        fuel: 2_000_000,
        ..Default::default()
    }
}

/// Runs `count` seeds starting at `first_seed` against an engine with the
/// given vulnerabilities, collecting every find.
///
/// # Errors
///
/// Propagates only harness-level failures (fuel exhaustion is treated as
/// a non-find, parse errors cannot occur for generated programs).
pub fn run_campaign(
    first_seed: u64,
    count: u64,
    vulns: &VulnConfig,
) -> Result<CampaignReport, VmError> {
    run_campaign_observed(first_seed, count, vulns, &mut NoopCollector)
}

/// Like [`run_campaign`], additionally reporting one
/// [`Event::FuzzSeed`] per seed and a closing
/// [`Event::FuzzCampaignFinished`] to `collector`.
///
/// # Errors
///
/// Same as [`run_campaign`].
pub fn run_campaign_observed(
    first_seed: u64,
    count: u64,
    vulns: &VulnConfig,
    collector: &mut dyn Collector,
) -> Result<CampaignReport, VmError> {
    let mut report = CampaignReport {
        executed: 0,
        script_errors: 0,
        finds: Vec::new(),
    };
    for seed in first_seed..first_seed + count {
        let source = generate_complete(&GenConfig {
            seed,
            warmup: 20,
            body_len: 5,
        });
        let mut engine = Engine::new(campaign_engine(vulns.clone()));
        report.executed += 1;
        let (find, script_error) = match run_script(&source, &mut engine) {
            Ok(VdcOutcome::Harmless { error: None }) => (false, false),
            Ok(VdcOutcome::Harmless { error: Some(_) }) => {
                report.script_errors += 1;
                (false, true)
            }
            Ok(outcome) => {
                report.finds.push(Find {
                    seed,
                    source,
                    outcome,
                });
                (true, false)
            }
            Err(VmError::OutOfFuel) => (false, false),
            Err(e) => return Err(e),
        };
        collector.record(Event::FuzzSeed {
            seed,
            find,
            script_error,
        });
    }
    collector.record(Event::FuzzCampaignFinished {
        executed: report.executed,
        finds: report.finds.len() as u64,
        script_errors: report.script_errors,
    });
    Ok(report)
}

/// Extracts the DNA of every function of a find (compiled on the same
/// vulnerable engine the campaign used) and installs the non-trivial
/// entries into the database, tagged by the find's seed — the automated
/// equivalent of a maintainer shipping a VDC update.
///
/// # Errors
///
/// Propagates extraction failures.
pub fn auto_install(
    db: &mut DnaDatabase,
    find: &Find,
    vulns: &VulnConfig,
) -> Result<usize, VmError> {
    let before = db.len();
    for (function, dna) in extract_program_dna(&find.source, vulns)? {
        db.install(format!("FUZZ-{:08}", find.seed), function, dna);
    }
    Ok(db.len() - before)
}

/// Triage loop: install the find's DNA, re-run under protection, and —
/// when the find *still* compromises the runtime because disabling the
/// matched passes unshadowed a second buggy transform further down the
/// pipeline — extract the DNA of the find under the protected engine's
/// actual pipeline configuration and install that too. Repeats until the
/// find is neutralized or `max_rounds` is exhausted.
///
/// Returns `true` when the find ends up neutralized.
///
/// # Errors
///
/// Propagates extraction/harness failures.
pub fn install_until_neutralized(
    db: &mut DnaDatabase,
    find: &Find,
    vulns: &VulnConfig,
    max_rounds: usize,
) -> Result<bool, VmError> {
    install_until_neutralized_observed(db, find, vulns, max_rounds, &mut NoopCollector)
}

/// Like [`install_until_neutralized`], additionally reporting one
/// [`Event::TriageRound`] per protected re-run to `collector`.
///
/// # Errors
///
/// Same as [`install_until_neutralized`].
pub fn install_until_neutralized_observed(
    db: &mut DnaDatabase,
    find: &Find,
    vulns: &VulnConfig,
    max_rounds: usize,
    collector: &mut dyn Collector,
) -> Result<bool, VmError> {
    auto_install(db, find, vulns)?;
    for round in 0..max_rounds {
        let mut guarded = Engine::with_guard(
            campaign_engine(vulns.clone()),
            Guard::new(db.clone(), CompareConfig::default()),
        );
        let outcome = run_script(&find.source, &mut guarded)?;
        let neutralized = !outcome.is_compromised();
        collector.record(Event::TriageRound {
            seed: find.seed,
            round: round as u64,
            db_entries: db.len() as u64,
            neutralized,
        });
        if neutralized {
            return Ok(true);
        }
        // Re-extract with the slots the guard actually disabled; if the
        // protected pipeline surfaced new deltas, they become entries.
        let program = jitbull_frontend::parse_program(&find.source)
            .map_err(|e| VmError::Parse(e.to_string()))?;
        let module = jitbull_vm::compile_program(&program)?;
        let disabled = guarded
            .function_stats(&module)
            .iter()
            .fold(SlotSet::new(), |set, f| set.union(f.disabled_slots));
        let before = db.len();
        for (function, dna) in extract_program_dna_with(&find.source, vulns, disabled)? {
            db.install(format!("FUZZ-{:08}", find.seed), function, dna);
        }
        if db.len() == before {
            // Nothing new to learn; the find evades this database.
            return Ok(false);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull::{CompareConfig, Guard};
    use jitbull_jit::CveId;

    fn first_find(vulns: &VulnConfig, max_seeds: u64) -> Find {
        for start in (0..max_seeds).step_by(64) {
            let report = run_campaign(start, 64, vulns).expect("campaign runs");
            if let Some(f) = report.finds.into_iter().next() {
                return f;
            }
        }
        panic!("no find within {max_seeds} seeds");
    }

    #[test]
    fn campaign_finds_crashers_on_a_vulnerable_engine() {
        let vulns = VulnConfig::all();
        let report = run_campaign(0, 128, &vulns).expect("campaign runs");
        assert_eq!(report.executed, 128);
        assert!(
            !report.finds.is_empty(),
            "a fully vulnerable engine must yield finds ({} script errors)",
            report.script_errors
        );
    }

    #[test]
    fn observed_campaign_counts_match_the_report() {
        use jitbull_telemetry::Recorder;
        let mut rec = Recorder::new();
        let report = run_campaign_observed(0, 64, &VulnConfig::all(), &mut rec).expect("campaign");
        let m = rec.metrics();
        assert_eq!(m.counter("fuzz.seeds"), report.executed);
        assert_eq!(m.counter("fuzz.finds"), report.finds.len() as u64);
        assert_eq!(m.counter("fuzz.script_errors"), report.script_errors);
        assert_eq!(m.counter("fuzz.campaigns"), 1);
    }

    #[test]
    fn campaign_is_quiet_on_a_patched_engine() {
        let report = run_campaign(0, 128, &VulnConfig::none()).expect("campaign runs");
        assert!(
            report.finds.is_empty(),
            "patched engine produced {:?}",
            report.finds.iter().map(|f| f.seed).collect::<Vec<_>>()
        );
    }

    #[test]
    fn triage_loop_neutralizes_finds() {
        let vulns = VulnConfig::all();
        let find = first_find(&vulns, 512);
        let mut db = DnaDatabase::new();
        let ok = install_until_neutralized(&mut db, &find, &vulns, 6).expect("triage");
        assert!(
            ok,
            "seed {} evaded the triage loop:\n{}",
            find.seed, find.source
        );
        // And the final database really does protect a fresh engine.
        let mut guarded = Engine::with_guard(
            campaign_engine(vulns.clone()),
            Guard::new(db, CompareConfig::default()),
        );
        let outcome = run_script(&find.source, &mut guarded).expect("rerun");
        assert!(!outcome.is_compromised(), "{outcome:?}");
        assert!(guarded.nr_disjit() + guarded.nr_nojit() > 0);
    }

    #[test]
    fn multi_vulnerability_find_needs_the_iterated_extraction() {
        // Seed 2 carries (at least) a pop-trigger and an offset-index
        // trigger: disabling the first unshadows the second, so the
        // single-shot install is insufficient but the triage loop wins.
        // (If generator changes ever make this seed single-vuln, the
        // stronger half below still must hold.)
        let vulns = VulnConfig::all();
        let source = generate_complete(&GenConfig {
            seed: 2,
            warmup: 20,
            body_len: 5,
        });
        let find = Find {
            seed: 2,
            source,
            outcome: VdcOutcome::Crashed(String::new()),
        };
        let mut db = DnaDatabase::new();
        let ok = install_until_neutralized(&mut db, &find, &vulns, 6).expect("triage");
        assert!(ok, "triage loop failed on the multi-vuln find");
    }

    #[test]
    fn single_cve_campaign_attributes_to_that_cve() {
        // With only 17026 enabled, any find must involve a length
        // manipulation (the trigger requires setarraylength).
        let vulns = VulnConfig::with([CveId::Cve2019_17026]);
        let report = run_campaign(0, 512, &vulns).expect("campaign runs");
        for f in &report.finds {
            assert!(
                f.source.contains(".length ="),
                "seed {} crashed without the 17026 trigger:\n{}",
                f.seed,
                f.source
            );
        }
    }
}
