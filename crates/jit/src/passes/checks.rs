//! Redundant-check elimination (IonMonkey `EliminateRedundantChecks`):
//! removes guards (`boundscheck`, `unbox`, `typeguard`) dominated by an
//! identical guard on the same operands. Sound because a guard's outcome
//! is a pure function of its operand *values*, which are the same SSA
//! values.

use std::collections::{HashMap, HashSet};

use jitbull_mir::analysis::{dominates, immediate_dominators, reverse_postorder};
use jitbull_mir::{InstrId, MirFunction};

use super::util::{remove_instrs, replace_uses_map};
use super::PassContext;

/// Runs redundant-check elimination.
pub fn eliminate_redundant_checks(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    let idom = immediate_dominators(f);
    let rpo = reverse_postorder(f);
    let mut table: HashMap<String, Vec<(jitbull_mir::BlockId, InstrId)>> = HashMap::new();
    let mut replacements: HashMap<InstrId, InstrId> = HashMap::new();
    let mut dead: HashSet<InstrId> = HashSet::new();
    let resolve = |replacements: &HashMap<InstrId, InstrId>, mut id: InstrId| {
        while let Some(&n) = replacements.get(&id) {
            id = n;
        }
        id
    };
    for &b in &rpo {
        for i in &f.block(b).instrs {
            if !i.op.is_guard() {
                continue;
            }
            let mut k = format!("{:?}", i.op);
            for o in &i.operands {
                k.push_str(&format!(",{}", resolve(&replacements, *o).0));
            }
            let entries = table.entry(k).or_default();
            let mut found = None;
            for &(db, did) in entries.iter() {
                if db == b || dominates(db, b, &idom) {
                    found = Some(did);
                    break;
                }
            }
            match found {
                Some(prev) if prev != i.id => {
                    replacements.insert(i.id, prev);
                    dead.insert(i.id);
                }
                _ => entries.push((b, i.id)),
            }
        }
    }
    replace_uses_map(f, &replacements);
    remove_instrs(f, &dead);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vuln::VulnConfig;
    use jitbull_frontend::parse_program;
    use jitbull_mir::{build_mir, MOpcode};
    use jitbull_vm::compile_program;

    fn mir(src: &str, name: &str) -> MirFunction {
        let p = parse_program(src).unwrap();
        let m = compile_program(&p).unwrap();
        build_mir(m.function(m.function_id(name).unwrap())).unwrap()
    }

    fn count_checks(f: &MirFunction) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| b.iter_all())
            .filter(|i| matches!(i.op, MOpcode::BoundsCheck))
            .count()
    }

    #[test]
    fn dominating_identical_guard_wins() {
        // Read a[i] before the branch and again inside it: after the unbox
        // and length chains merge, the dominated check is redundant.
        let mut f = mir(
            "function f(a, i, c) { var x = a[i]; if (c) { x = x + a[i]; } return x; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        // First merge the unbox/length chains (as the pipeline would via GVN).
        crate::passes::gvn::gvn(&mut f, &mut cx);
        let before = count_checks(&f);
        eliminate_redundant_checks(&mut f, &mut cx);
        let after = count_checks(&f);
        assert!(after <= before);
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn sibling_branches_keep_their_guards() {
        let mut f = mir(
            "function f(a, i, c) { if (c) { return a[i]; } return a[i] + 1; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        let before = count_checks(&f);
        eliminate_redundant_checks(&mut f, &mut cx);
        assert_eq!(count_checks(&f), before);
    }
}
