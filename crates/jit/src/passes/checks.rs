//! Redundant-check elimination (IonMonkey `EliminateRedundantChecks`):
//! removes guards (`boundscheck`, `unbox`, `typeguard`) dominated by an
//! identical guard on the same operands. Sound because a guard's outcome
//! is a pure function of its operand *values*, which are the same SSA
//! values.

use std::collections::HashMap;

use jitbull_mir::analysis::{immediate_dominators, reverse_postorder};
use jitbull_mir::dense::IdMap;
use jitbull_mir::{InstrId, MirFunction};

use super::gvn::{number, resolve, Key, KeyDefs};
use super::util::forward;
use super::PassContext;

/// Runs redundant-check elimination.
pub fn eliminate_redundant_checks(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    let idom = immediate_dominators(f);
    let rpo = reverse_postorder(f);
    // Keyed by script content, so std's keyed hasher stays.
    let mut table: HashMap<Key<'_>, KeyDefs> = HashMap::new();
    let mut replacements: IdMap<InstrId, InstrId> = IdMap::with_bound(f.id_bound() as usize);
    for &b in &rpo {
        for i in &f.block(b).instrs {
            if !i.op.is_guard() {
                continue;
            }
            let operands = i.operands.iter().map(|&o| resolve(&replacements, o));
            let Some(k) = Key::new(&i.op, operands) else {
                continue;
            };
            if let Some(prev) = number(&mut table, k, b, i.id, &idom) {
                replacements.insert(i.id, prev);
            }
        }
    }
    forward(f, &replacements);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vuln::VulnConfig;
    use jitbull_frontend::parse_program;
    use jitbull_mir::{build_mir, Block, Instruction, MOpcode, TypeHint};
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
    fn only_guards_of_one_kind_and_hint_fold() {
        // Guards on one value: the repeated `unbox:array` folds; a
        // different hint, or a type guard with the same hint, does not.
        let mut f = MirFunction::new("t");
        let v = f.fresh_id();
        let guards = [
            MOpcode::Unbox(TypeHint::Array),
            MOpcode::Unbox(TypeHint::Object),
            MOpcode::TypeGuard(TypeHint::Array),
            MOpcode::Unbox(TypeHint::Array),
        ];
        let mut instrs = vec![Instruction::new(v, MOpcode::Parameter(0), vec![])];
        let mut ids = Vec::new();
        for op in guards {
            let id = f.fresh_id();
            instrs.push(Instruction::new(id, op, vec![v]));
            ids.push(id);
        }
        let ret = f.fresh_id();
        instrs.push(Instruction::new(ret, MOpcode::Return, vec![ids[3]]));
        f.blocks.push(Block {
            phis: vec![],
            phi_preds: vec![],
            instrs,
        });
        let vulns = VulnConfig::default();
        eliminate_redundant_checks(&mut f, &mut PassContext::new(&vulns));
        assert_eq!(f.validate(), Ok(()));
        let left: Vec<InstrId> = f.blocks[0].instrs.iter().map(|i| i.id).collect();
        assert_eq!(left, vec![v, ids[0], ids[1], ids[2], ret], "{f}");
        assert_eq!(f.blocks[0].instrs[4].operands, vec![ids[0]], "{f}");
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
