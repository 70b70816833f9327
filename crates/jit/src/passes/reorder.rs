//! Canonicalization passes: commutative operand ordering and simple
//! instruction scheduling (constants float to the top of their block).

use jitbull_mir::{MOpcode, MirFunction};

use super::PassContext;

fn commutative(op: &MOpcode) -> bool {
    use jitbull_mir::CmpOp;
    matches!(
        op,
        MOpcode::Mul // both operands are number-coerced
            | MOpcode::BitAnd
            | MOpcode::BitOr
            | MOpcode::BitXor
            | MOpcode::Compare(CmpOp::Eq)
            | MOpcode::Compare(CmpOp::Ne)
            | MOpcode::Compare(CmpOp::StrictEq)
            | MOpcode::Compare(CmpOp::StrictNe)
    )
}

/// Orders the operands of commutative instructions by ascending id, so GVN
/// sees `mul a b` and `mul b a` as congruent on its next application.
pub fn reorder_commutative(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    for b in &mut f.blocks {
        for i in &mut b.instrs {
            if commutative(&i.op) && i.operands.len() == 2 && i.operands[0] > i.operands[1] {
                i.operands.swap(0, 1);
            }
        }
    }
}

/// Moves constants to the front of their block (after phis), modelling a
/// scheduling pass: a real, observable-in-the-IR reordering with no
/// semantic effect.
pub fn schedule_constants(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    for b in &mut f.blocks {
        let mut consts = Vec::new();
        let mut rest = Vec::new();
        for i in b.instrs.drain(..) {
            if matches!(i.op, MOpcode::Constant(_)) {
                consts.push(i);
            } else {
                rest.push(i);
            }
        }
        consts.extend(rest);
        b.instrs = consts;
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
    fn canonicalizes_mul_but_not_sub() {
        let mut f = mir("function f(a, b) { return b * a + (b - a); }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        reorder_commutative(&mut f, &mut cx);
        for i in f.blocks.iter().flat_map(|b| b.instrs.iter()) {
            match i.op {
                MOpcode::Mul => assert!(i.operands[0] <= i.operands[1]),
                MOpcode::Sub => {
                    // b - a keeps its original (descending) order.
                    assert!(i.operands[0] > i.operands[1]);
                }
                _ => {}
            }
        }
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn schedules_constants_first() {
        let mut f = mir("function f(a) { var x = a + 1; return x * 2; }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        schedule_constants(&mut f, &mut cx);
        assert_eq!(f.validate(), Ok(()));
        let b = &f.blocks[0];
        let first_non_const = b
            .instrs
            .iter()
            .position(|i| !matches!(i.op, MOpcode::Constant(_)))
            .unwrap();
        assert!(b.instrs[..first_non_const]
            .iter()
            .all(|i| matches!(i.op, MOpcode::Constant(_))));
        assert!(!b.instrs[first_non_const..]
            .iter()
            .any(|i| matches!(i.op, MOpcode::Constant(_))));
    }
}
