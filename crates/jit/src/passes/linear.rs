//! Linear-arithmetic folding (IonMonkey `FoldLinearArithConstants`):
//! reassociates `(x + c1) + c2` into `x + (c1+c2)` so downstream passes
//! see a single constant offset. Only applied when the inner add's result
//! is provably numeric (its operand went through a number unbox or is an
//! int32 producer), since `+` on strings is concatenation.

use jitbull_mir::dense::IdMap;
use jitbull_mir::{ConstVal, InstrId, MOpcode, MirFunction, TypeHint};

use super::util::def_instrs;
use super::PassContext;

fn numeric_producer(op: &MOpcode) -> bool {
    matches!(
        op,
        MOpcode::Sub
            | MOpcode::Mul
            | MOpcode::Div
            | MOpcode::Mod
            | MOpcode::Neg
            | MOpcode::BitAnd
            | MOpcode::BitOr
            | MOpcode::BitXor
            | MOpcode::Lsh
            | MOpcode::Rsh
            | MOpcode::Ursh
            | MOpcode::BitNot
            | MOpcode::ToNumber
            | MOpcode::Unbox(TypeHint::Number)
            | MOpcode::ArrayLength
            | MOpcode::InitializedLength
            | MOpcode::Constant(ConstVal::Number(_))
            | MOpcode::MathFunction(_)
    )
}

/// Runs one folding sweep. Constants are materialized as new instructions
/// placed right before the rewritten add.
pub fn fold_linear_arithmetic(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    let defs = def_instrs(f);
    let const_num = |id: InstrId| -> Option<f64> {
        match defs.get(id).map(|i| &i.op) {
            Some(MOpcode::Constant(ConstVal::Number(n))) => Some(*n),
            _ => None,
        }
    };
    // Planned rewrites: (instr id) -> (x, combined constant).
    let mut plans: IdMap<InstrId, (InstrId, f64)> = IdMap::with_bound(f.id_bound() as usize);
    for b in &f.blocks {
        for i in &b.instrs {
            if !matches!(i.op, MOpcode::Add) {
                continue;
            }
            let Some(c2) = const_num(i.operands[1]) else {
                continue;
            };
            let Some(inner) = defs.get(i.operands[0]) else {
                continue;
            };
            if !matches!(inner.op, MOpcode::Add) {
                continue;
            }
            let Some(c1) = const_num(inner.operands[1]) else {
                continue;
            };
            let x = inner.operands[0];
            // x must be provably numeric for reassociation to be sound.
            let numeric = defs
                .get(x)
                .map(|d| numeric_producer(&d.op))
                .unwrap_or(false);
            if numeric {
                plans.insert(i.id, (x, c1 + c2));
            }
        }
    }
    if plans.is_empty() {
        return;
    }
    for bi in 0..f.blocks.len() {
        let mut pos = 0;
        while pos < f.blocks[bi].instrs.len() {
            let id = f.blocks[bi].instrs[pos].id;
            if let Some(&(x, c)) = plans.get(id) {
                let cid = f.fresh_id();
                f.blocks[bi].instrs.insert(
                    pos,
                    jitbull_mir::Instruction::new(
                        cid,
                        MOpcode::Constant(ConstVal::Number(c)),
                        vec![],
                    ),
                );
                pos += 1;
                let i = &mut f.blocks[bi].instrs[pos];
                i.operands = vec![x, cid];
            }
            pos += 1;
        }
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
    fn folds_numeric_offset_chain() {
        // (x|0) makes x numeric, then +1 +2 should combine into +3.
        let mut f = mir("function f(x) { return ((x | 0) + 1) + 2; }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        fold_linear_arithmetic(&mut f, &mut cx);
        assert_eq!(f.validate(), Ok(()));
        assert!(
            f.blocks
                .iter()
                .flat_map(|b| b.instrs.iter())
                .any(|i| matches!(&i.op, MOpcode::Constant(ConstVal::Number(n)) if *n == 3.0)),
            "{f}"
        );
    }

    #[test]
    fn leaves_possible_string_concat_alone() {
        // x may be a string: (x + 1) + 2 must NOT become x + 3.
        let mut f = mir("function f(x) { return (x + 1) + 2; }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        let before = f.to_string();
        fold_linear_arithmetic(&mut f, &mut cx);
        assert_eq!(before, f.to_string());
    }
}
