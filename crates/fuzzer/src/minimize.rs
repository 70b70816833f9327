//! Test-case minimization: shrink a find to the smallest program that
//! still compromises the runtime (fewer statements → fewer overlapping
//! vulnerabilities → sharper DNA).

use jitbull_frontend::ast::Program;
use jitbull_frontend::{parse_program, print_program};
use jitbull_jit::engine::Engine;
use jitbull_jit::VulnConfig;
use jitbull_vdc::validate::run_script;

use crate::harness::campaign_engine;
use crate::Find;

fn still_compromises(source: &str, vulns: &VulnConfig) -> bool {
    let mut engine = Engine::new(campaign_engine(vulns.clone()));
    match run_script(source, &mut engine) {
        Ok(outcome) => outcome.is_compromised(),
        Err(_) => false,
    }
}

/// All removable statement slots of a program, as (path) indices. We
/// only delete inside function bodies and at the top level, one whole
/// statement at a time — enough granularity for generator output.
fn candidates(program: &Program) -> Vec<(Option<usize>, usize)> {
    let mut out = Vec::new();
    for (fi, f) in program.functions.iter().enumerate() {
        for si in 0..f.body.len() {
            out.push((Some(fi), si));
        }
    }
    for si in 0..program.top_level.len() {
        out.push((None, si));
    }
    out
}

fn remove(program: &Program, site: (Option<usize>, usize)) -> Program {
    let mut p = program.clone();
    match site {
        (Some(fi), si) => {
            p.functions[fi].body.remove(si);
        }
        (None, si) => {
            p.top_level.remove(si);
        }
    }
    p
}

/// Greedy ddmin over whole statements: repeatedly delete any single
/// statement whose removal keeps the program compromising, until no
/// deletion survives. Returns the minimized find (unchanged when nothing
/// can be removed).
///
/// # Panics
///
/// Panics if the find's source no longer parses (harness invariant).
pub fn minimize(find: &Find, vulns: &VulnConfig) -> Find {
    let mut program = parse_program(&find.source).expect("find parses");
    // Certain statements are load-bearing scaffolding the generator
    // always needs (returns keep bodies valid); statement removal that
    // breaks parsing/compiling simply fails the predicate.
    loop {
        let mut improved = false;
        for site in candidates(&program) {
            let trial = remove(&program, site);
            let source = print_program(&trial);
            if parse_program(&source).is_ok() && still_compromises(&source, vulns) {
                program = trial;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    Find {
        seed: find.seed,
        source: print_program(&program),
        outcome: find.outcome.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_campaign;

    /// The first find of a small campaign over every modeled CVE.
    fn first_find(vulns: &VulnConfig) -> Find {
        let report = run_campaign(0, 96, vulns).expect("campaign");
        report.finds.first().expect("at least one find").clone()
    }

    fn function_statements(source: &str) -> usize {
        parse_program(source)
            .unwrap()
            .functions
            .iter()
            .map(|f| f.body.len())
            .sum()
    }

    #[test]
    fn minimized_find_still_compromises_and_is_smaller_or_equal() {
        let vulns = VulnConfig::all();
        let find = first_find(&vulns);
        let min = minimize(&find, &vulns);
        assert!(
            still_compromises(&min.source, &vulns),
            "minimized program went benign:\n{}",
            min.source
        );
        assert!(
            min.source.len() <= find.source.len(),
            "minimization grew the program"
        );
    }

    #[test]
    fn minimization_strips_benign_filler() {
        // A real find: generated programs carry filler statements around
        // the ones that trigger the bug.
        let vulns = VulnConfig::all();
        let find = first_find(&vulns);
        assert!(
            still_compromises(&find.source, &vulns),
            "the find must compromise for minimization to mean anything"
        );
        let original_stmts = function_statements(&find.source);
        let min = minimize(&find, &vulns);
        let min_stmts = function_statements(&min.source);
        assert!(
            min_stmts < original_stmts,
            "expected some statement to be removable ({original_stmts} -> {min_stmts})\n{}",
            min.source
        );
    }
}
