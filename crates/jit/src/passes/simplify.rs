//! Eager simplification: constant folding, safe algebraic identities, and
//! test folding (IonMonkey `FoldConstants` / `FoldTests`).

use std::sync::Arc;

use jitbull_frontend::ast::{BinOp, UnOp};
use jitbull_mir::dense::{IdMap, IdSet};
use jitbull_mir::{CmpOp, ConstVal, InstrId, Instruction, MOpcode, MirFunction};
use jitbull_vm::interp::{eval_binop, eval_unop};
use jitbull_vm::Value;

use super::util::{def_instrs, forward};
use super::PassContext;

fn const_value(c: &ConstVal) -> Option<Value> {
    Some(match c {
        ConstVal::Number(n) => Value::Number(*n),
        ConstVal::Str(s) => Value::str(&**s),
        ConstVal::Bool(b) => Value::Bool(*b),
        ConstVal::Undefined => Value::Undefined,
        ConstVal::Null => Value::Null,
        ConstVal::Func(_) => return None,
    })
}

fn value_const(v: &Value) -> Option<ConstVal> {
    Some(match v {
        Value::Number(n) => ConstVal::Number(*n),
        Value::Str(s) => ConstVal::Str(Arc::from(&**s)),
        Value::Bool(b) => ConstVal::Bool(*b),
        Value::Undefined => ConstVal::Undefined,
        Value::Null => ConstVal::Null,
        _ => return None,
    })
}

fn binop_of(op: &MOpcode) -> Option<BinOp> {
    Some(match op {
        MOpcode::Add => BinOp::Add,
        MOpcode::Sub => BinOp::Sub,
        MOpcode::Mul => BinOp::Mul,
        MOpcode::Div => BinOp::Div,
        MOpcode::Mod => BinOp::Mod,
        MOpcode::BitAnd => BinOp::BitAnd,
        MOpcode::BitOr => BinOp::BitOr,
        MOpcode::BitXor => BinOp::BitXor,
        MOpcode::Lsh => BinOp::Shl,
        MOpcode::Rsh => BinOp::Shr,
        MOpcode::Ursh => BinOp::Ushr,
        MOpcode::Compare(c) => match c {
            CmpOp::Eq => BinOp::Eq,
            CmpOp::Ne => BinOp::Ne,
            CmpOp::StrictEq => BinOp::StrictEq,
            CmpOp::StrictNe => BinOp::StrictNe,
            CmpOp::Lt => BinOp::Lt,
            CmpOp::Le => BinOp::Le,
            CmpOp::Gt => BinOp::Gt,
            CmpOp::Ge => BinOp::Ge,
        },
        _ => return None,
    })
}

fn unop_of(op: &MOpcode) -> Option<UnOp> {
    Some(match op {
        MOpcode::Neg => UnOp::Neg,
        MOpcode::Not => UnOp::Not,
        MOpcode::BitNot => UnOp::BitNot,
        MOpcode::ToNumber => UnOp::Plus,
        MOpcode::TypeOf => UnOp::Typeof,
        _ => return None,
    })
}

/// Whether the instruction always produces an int32-coerced number.
fn produces_int32(op: &MOpcode) -> bool {
    matches!(
        op,
        MOpcode::BitAnd
            | MOpcode::BitOr
            | MOpcode::BitXor
            | MOpcode::Lsh
            | MOpcode::Rsh
            | MOpcode::BitNot
    )
}

/// Folds constant expressions and safe algebraic identities, to a
/// fixpoint. Folding rewrites the instruction *in place* into a
/// `constant`, preserving its id, so uses need no updating; identities use
/// use-replacement.
pub fn eager_simplify(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    loop {
        let bound = f.id_bound() as usize;
        let mut consts: IdMap<InstrId, ConstVal> = IdMap::with_bound(bound);
        let mut int32_defs: IdSet<InstrId> = IdSet::with_bound(bound);
        for i in f.blocks.iter().flat_map(|b| b.instrs.iter()) {
            match &i.op {
                MOpcode::Constant(c) => {
                    consts.insert(i.id, c.clone());
                }
                op if produces_int32(op) => {
                    int32_defs.insert(i.id);
                }
                _ => {}
            }
        }
        let mut folded = false;
        let mut replacements: IdMap<InstrId, InstrId> = IdMap::with_bound(bound);
        for b in &mut f.blocks {
            for i in &mut b.instrs {
                // Constant folding through the real VM semantics.
                if let Some(bin) = binop_of(&i.op) {
                    if let (Some(ca), Some(cb)) = (
                        i.operands.first().and_then(|&o| consts.get(o)),
                        i.operands.get(1).and_then(|&o| consts.get(o)),
                    ) {
                        if let (Some(va), Some(vb)) = (const_value(ca), const_value(cb)) {
                            let result = eval_binop(bin, &va, &vb);
                            if let Some(c) = value_const(&result) {
                                i.op = MOpcode::Constant(c);
                                i.operands.clear();
                                folded = true;
                                continue;
                            }
                        }
                    }
                    // `x | 0` where x is already int32-producing.
                    if matches!(i.op, MOpcode::BitOr) {
                        if let (Some(&x), Some(c)) = (
                            i.operands.first(),
                            i.operands.get(1).and_then(|&o| consts.get(o)),
                        ) {
                            if matches!(c, ConstVal::Number(n) if *n == 0.0)
                                && int32_defs.contains(x)
                            {
                                replacements.insert(i.id, x);
                                continue;
                            }
                        }
                    }
                }
                if let Some(un) = unop_of(&i.op) {
                    if let Some(ca) = i.operands.first().and_then(|&o| consts.get(o)) {
                        if let Some(va) = const_value(ca) {
                            let result = eval_unop(un, &va);
                            if let Some(c) = value_const(&result) {
                                i.op = MOpcode::Constant(c);
                                i.operands.clear();
                                folded = true;
                                continue;
                            }
                        }
                    }
                }
                // not(not(x)) used only in tests is folded by fold_tests;
                // neg(neg(x)) is exactly ToNumber(x) — fold to that.
                if matches!(i.op, MOpcode::Neg) {
                    // handled via constant folding only; general neg(neg)
                    // would need def lookup each iteration — cheap enough:
                }
            }
        }
        if !replacements.is_empty() {
            forward(f, &replacements);
            folded = true;
        }
        if !folded {
            return;
        }
    }
}

/// Folds `test` terminators: a constant condition turns the test into a
/// `goto`; a `not(x)` condition swaps the branch targets. Phi inputs of
/// the abandoned successor are cleaned up.
pub fn fold_tests(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    let defs = def_instrs(f);
    // (block index, taken target, abandoned target) edits.
    let mut edits: Vec<(usize, Instruction)> = Vec::new();
    let mut abandoned: Vec<(jitbull_mir::BlockId, jitbull_mir::BlockId)> = Vec::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        let Some(t) = b.terminator() else { continue };
        let MOpcode::Test {
            then_block,
            else_block,
        } = t.op
        else {
            continue;
        };
        let cond = t.operands[0];
        let Some(def) = defs.get(cond) else { continue };
        match &def.op {
            MOpcode::Constant(c) => {
                let truthy = match c {
                    ConstVal::Number(n) => *n != 0.0 && !n.is_nan(),
                    ConstVal::Str(s) => !s.is_empty(),
                    ConstVal::Bool(b) => *b,
                    ConstVal::Undefined | ConstVal::Null => false,
                    ConstVal::Func(_) => true,
                };
                let (taken, dropped) = if truthy {
                    (then_block, else_block)
                } else {
                    (else_block, then_block)
                };
                if taken != dropped {
                    edits.push((bi, Instruction::new(t.id, MOpcode::Goto(taken), vec![])));
                    abandoned.push((jitbull_mir::BlockId(bi as u32), dropped));
                }
            }
            MOpcode::Not => {
                let inner = def.operands[0];
                edits.push((
                    bi,
                    Instruction::new(
                        t.id,
                        MOpcode::Test {
                            then_block: else_block,
                            else_block: then_block,
                        },
                        vec![inner],
                    ),
                ));
            }
            _ => {}
        }
    }
    for (bi, new_term) in edits {
        *f.blocks[bi].instrs.last_mut().expect("terminator") = new_term;
    }
    // Remove phi inputs flowing along abandoned edges.
    for (from, to) in abandoned {
        let b = f.block_mut(to);
        while let Some(pos) = b.phi_preds.iter().position(|p| *p == from) {
            b.phi_preds.remove(pos);
            for phi in &mut b.phis {
                phi.operands.remove(pos);
            }
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

    fn count(f: &MirFunction, pred: impl Fn(&MOpcode) -> bool) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| b.iter_all())
            .filter(|i| pred(&i.op))
            .count()
    }

    #[test]
    fn folds_constant_arithmetic() {
        let mut f = mir("function f() { return 2 * 3 + 4; }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        eager_simplify(&mut f, &mut cx);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::Add | MOpcode::Mul)), 0);
        assert!(f
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .any(|i| matches!(&i.op, MOpcode::Constant(ConstVal::Number(n)) if *n == 10.0)));
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn folds_string_concat_and_typeof() {
        let mut f = mir("function f() { return typeof (\"a\" + \"b\"); }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        eager_simplify(&mut f, &mut cx);
        assert!(f
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .any(|i| matches!(&i.op, MOpcode::Constant(ConstVal::Str(s)) if &**s == "string")));
    }

    #[test]
    fn or_zero_identity_only_for_int32_producers() {
        let mut f = mir("function f(x) { return (x & 255) | 0; }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        eager_simplify(&mut f, &mut cx);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::BitOr)), 0, "{f}");
        // But plain `x | 0` must stay (x may be a string).
        let mut g = mir("function f(x) { return x | 0; }", "f");
        eager_simplify(&mut g, &mut cx);
        assert_eq!(count(&g, |o| matches!(o, MOpcode::BitOr)), 1);
    }

    #[test]
    fn fold_tests_on_constant_condition() {
        let mut f = mir("function f() { if (true) { return 1; } return 2; }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        eager_simplify(&mut f, &mut cx);
        fold_tests(&mut f, &mut cx);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::Test { .. })), 0, "{f}");
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn fold_tests_swaps_on_not() {
        let mut f = mir("function f(c) { if (!c) { return 1; } return 2; }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        fold_tests(&mut f, &mut cx);
        // The test's condition is now the raw parameter.
        let test = f
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .find(|i| matches!(i.op, MOpcode::Test { .. }))
            .unwrap();
        let defs = def_instrs(&f);
        let cond = defs.get(test.operands[0]).unwrap();
        assert!(matches!(cond.op, MOpcode::Parameter(0)));
        assert_eq!(f.validate(), Ok(()));
    }
}
