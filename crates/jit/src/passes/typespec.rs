//! Type specialization: inserts `unbox:number` guards in front of
//! arithmetic consumers of untyped definitions (parameters, property and
//! element loads, calls), mirroring how IonMonkey specializes on type
//! feedback. The guards are value-transparent: the LIR executor records
//! whether each speculation held and keeps generic semantics for the
//! consumers, so a missed speculation never changes a result.

use jitbull_mir::dense::IdSet;
use jitbull_mir::{InstrId, Instruction, MOpcode, MirFunction, TypeHint};

use super::util::def_instrs;
use super::PassContext;

fn is_untyped_source(op: &MOpcode) -> bool {
    matches!(
        op,
        MOpcode::Parameter(_)
            | MOpcode::LoadProperty(_)
            | MOpcode::LoadGlobal(_)
            | MOpcode::Call(_)
            | MOpcode::CallMethod(_)
    )
}

fn wants_number_operands(op: &MOpcode) -> bool {
    matches!(
        op,
        MOpcode::Sub | MOpcode::Mul | MOpcode::Div | MOpcode::Mod | MOpcode::Neg
    )
}

/// Inserts `unbox:number` before numeric consumers of untyped values (one
/// unbox per consumer operand, placed immediately before the consumer; GVN
/// merges duplicates later).
pub fn type_specialization(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    let defs = def_instrs(f);
    let untyped: IdSet<InstrId> = defs
        .iter()
        .filter(|(_, i)| is_untyped_source(&i.op))
        .map(|(id, _)| id)
        .collect();
    for bi in 0..f.blocks.len() {
        let mut pos = 0;
        while pos < f.blocks[bi].instrs.len() {
            let needs: Vec<usize> = {
                let i = &f.blocks[bi].instrs[pos];
                if wants_number_operands(&i.op) {
                    i.operands
                        .iter()
                        .enumerate()
                        .filter(|&(_, &o)| untyped.contains(o))
                        .map(|(k, _)| k)
                        .collect()
                } else {
                    Vec::new()
                }
            };
            for k in needs {
                let operand = f.blocks[bi].instrs[pos].operands[k];
                let id = f.fresh_id();
                f.blocks[bi].instrs.insert(
                    pos,
                    Instruction::new(id, MOpcode::Unbox(TypeHint::Number), vec![operand]),
                );
                pos += 1;
                f.blocks[bi].instrs[pos].operands[k] = id;
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

    #[test]
    fn inserts_number_guards_for_parameters() {
        let p = parse_program("function f(a, b) { return a * b - 1; }").unwrap();
        let m = compile_program(&p).unwrap();
        let mut f = build_mir(m.function(m.function_id("f").unwrap())).unwrap();
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        type_specialization(&mut f, &mut cx);
        assert_eq!(f.validate(), Ok(()));
        let unboxes = f
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .filter(|i| matches!(i.op, MOpcode::Unbox(TypeHint::Number)))
            .count();
        assert_eq!(unboxes, 2, "{f}"); // a and b feeding the mul
    }

    #[test]
    fn add_is_left_generic() {
        // Add may be string concatenation; it must not get number guards.
        let p = parse_program("function f(a, b) { return a + b; }").unwrap();
        let m = compile_program(&p).unwrap();
        let mut f = build_mir(m.function(m.function_id("f").unwrap())).unwrap();
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        type_specialization(&mut f, &mut cx);
        let unboxes = f
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .filter(|i| matches!(i.op, MOpcode::Unbox(TypeHint::Number)))
            .count();
        assert_eq!(unboxes, 0);
    }
}
