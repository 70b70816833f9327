//! Phi cleanup passes: trivial-phi elimination (IonMonkey `EliminatePhis`
//! folding) and dead-phi removal.

use std::collections::{HashMap, HashSet};

use jitbull_mir::{InstrId, MirFunction};

use super::util::{remove_instrs, replace_uses_map, use_counts};
use super::PassContext;

/// Replaces phis whose inputs are all the same value (ignoring
/// self-references) with that value, to a fixpoint.
pub fn eliminate_trivial_phis(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    loop {
        let mut replacements: HashMap<InstrId, InstrId> = HashMap::new();
        for b in &f.blocks {
            for phi in &b.phis {
                let mut unique: Option<InstrId> = None;
                let mut trivial = true;
                for &o in &phi.operands {
                    if o == phi.id {
                        continue; // self reference
                    }
                    match unique {
                        None => unique = Some(o),
                        Some(u) if u == o => {}
                        Some(_) => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if trivial {
                    if let Some(u) = unique {
                        replacements.insert(phi.id, u);
                    }
                }
            }
        }
        if replacements.is_empty() {
            return;
        }
        replace_uses_map(f, &replacements);
        let dead: HashSet<InstrId> = replacements.keys().copied().collect();
        remove_instrs(f, &dead);
    }
}

/// Removes phis (transitively) used by nothing.
pub fn eliminate_dead_phis(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    loop {
        let uses = use_counts(f);
        let dead: HashSet<InstrId> = f
            .blocks
            .iter()
            .flat_map(|b| b.phis.iter())
            .filter(|p| uses.get(&p.id).copied().unwrap_or(0) == 0)
            .map(|p| p.id)
            .collect();
        if dead.is_empty() {
            return;
        }
        remove_instrs(f, &dead);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vuln::VulnConfig;
    use jitbull_frontend::parse_program;
    use jitbull_mir::build_mir;
    use jitbull_vm::compile_program;

    fn mir(src: &str, name: &str) -> MirFunction {
        let p = parse_program(src).unwrap();
        let m = compile_program(&p).unwrap();
        build_mir(m.function(m.function_id(name).unwrap())).unwrap()
    }

    #[test]
    fn same_value_both_arms_becomes_direct_use() {
        // x is 1 on both paths: the join phi is trivial.
        let mut f = mir(
            "function f(c) { var x = 1; if (c) { x = 1; } else { x = 1; } return x; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        let before: usize = f.blocks.iter().map(|b| b.phis.len()).sum();
        eliminate_trivial_phis(&mut f, &mut cx);
        eliminate_dead_phis(&mut f, &mut cx);
        let after: usize = f.blocks.iter().map(|b| b.phis.len()).sum();
        assert!(after < before, "phis {before} -> {after}\n{f}");
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn loop_carried_phi_is_kept() {
        let mut f = mir(
            "function f(n) { var t = 0; for (var i = 0; i < n; i++) { t += i; } return t; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        eliminate_trivial_phis(&mut f, &mut cx);
        eliminate_dead_phis(&mut f, &mut cx);
        let phis: usize = f.blocks.iter().map(|b| b.phis.len()).sum();
        assert!(phis >= 2, "induction phis must survive\n{f}");
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn unused_loop_phi_is_dropped() {
        // `u` is loop-carried but never read after the loop.
        let mut f = mir(
            "function f(n) { var u = 0; var t = 0; for (var i = 0; i < n; i++) { u = u + 2; t = t + 1; } return t; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        let before: usize = f.blocks.iter().map(|b| b.phis.len()).sum();
        // The add feeding u is removed by DCE normally; dead-phi alone
        // can't drop it because the add uses the phi. Run trivial+dead to
        // check stability instead.
        eliminate_trivial_phis(&mut f, &mut cx);
        eliminate_dead_phis(&mut f, &mut cx);
        assert!(f.validate().is_ok());
        let after: usize = f.blocks.iter().map(|b| b.phis.len()).sum();
        assert!(after <= before);
    }
}
