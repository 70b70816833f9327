//! Engine-agnostic IR snapshots.
//!
//! A [`MirSnapshot`] is what the JITBULL core consumes: a flat list of
//! `(id, label, operands)` triples taken from the IR between optimization
//! passes. Labels are opcode mnemonics *without* literal values or
//! variable/property names, so DNA comparisons key on the structural shape
//! of the optimization — exactly what lets the paper's system recognise a
//! renamed/minified exploit variant.
//!
//! Passes do read what labels drop (constant folding reads values, branch
//! folding reads block targets), so a cache keyed on snapshots must also
//! key on [`literals`]: everything the labels leave out.

use std::sync::Arc;

use crate::graph::MirFunction;
use crate::opcode::{ConstVal, MOpcode};

/// One instruction in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SnapInstr {
    /// The instruction's SSA id at snapshot time.
    pub id: u32,
    /// Opcode label (e.g. `boundscheck`, `compare:lt`, `constant:number`).
    pub label: Arc<str>,
    /// Operand ids.
    pub operands: Vec<u32>,
}

/// A flat snapshot of a function's IR between two optimization passes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct MirSnapshot {
    /// All instructions, in block order (phis first within each block).
    pub instrs: Vec<SnapInstr>,
}

impl MirSnapshot {
    /// Number of instructions captured.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// The record of one optimization pass's effect: the IR immediately before
/// and immediately after the pass ran.
#[derive(Debug, Clone, PartialEq)]
pub struct PassRecord {
    /// Pipeline slot index (`i` in the paper's `Δ_i`), `0..n`.
    pub slot: usize,
    /// Human-readable pass name (`"GVN"`, `"LICM"`, …).
    pub name: &'static str,
    /// IR before the pass (`IR_{i-1}`).
    pub before: MirSnapshot,
    /// IR after the pass (`IR_i`).
    pub after: MirSnapshot,
}

/// A payload a snapshot label drops, in the order [`literals`] emits it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Literal {
    /// A number constant, by bit pattern.
    Number(u64),
    /// A string constant or a property name.
    Str(Arc<str>),
    /// A boolean constant.
    Bool(bool),
    /// A callee or global id, a block target, an arity, or a block shape
    /// (instruction count, predecessors).
    Index(u32),
}

/// The full per-compilation trace a JIT engine hands to JITBULL: one
/// [`PassRecord`] per executed pipeline slot. This is the engine-agnostic
/// interface of the paper's Δ extractor input.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PassTrace {
    /// Name of the function being compiled (diagnostics).
    pub function: String,
    /// [`literals`] of the MIR entering the pipeline: with the first
    /// record's `before` snapshot, everything the pipeline's output
    /// depends on. Extraction ignores it; the DNA memo keys on it.
    pub literals: Vec<Literal>,
    /// One record per pass, in pipeline order.
    pub records: Vec<PassRecord>,
}

/// Takes a snapshot of the current IR.
pub fn snapshot(f: &MirFunction) -> MirSnapshot {
    let mut instrs = Vec::with_capacity(f.instr_count());
    for b in &f.blocks {
        for i in b.iter_all() {
            instrs.push(SnapInstr {
                id: i.id.0,
                label: Arc::from(i.op.mnemonic().as_str()),
                operands: i.operands.iter().map(|o| o.0).collect(),
            });
        }
    }
    MirSnapshot { instrs }
}

/// Everything `f`'s [`snapshot`] drops: the id bound, then per block its
/// instruction count and phi predecessors, then each instruction's
/// literal values, property names, global and callee ids, branch targets
/// and arities. Together with the snapshot this determines `f` up to its
/// name and VM function id, which no pass reads.
pub fn literals(f: &MirFunction) -> Vec<Literal> {
    use Literal::Index;
    let mut out = vec![Index(f.id_bound())];
    for b in &f.blocks {
        out.push(Index((b.phis.len() + b.instrs.len()) as u32));
        out.push(Index(b.phi_preds.len() as u32));
        out.extend(b.phi_preds.iter().map(|p| Index(p.0)));
        for i in &b.instrs {
            match &i.op {
                MOpcode::Constant(ConstVal::Number(n)) => out.push(Literal::Number(n.to_bits())),
                MOpcode::Constant(ConstVal::Str(s))
                | MOpcode::LoadProperty(s)
                | MOpcode::StoreProperty(s) => out.push(Literal::Str(Arc::from(&**s))),
                MOpcode::Constant(ConstVal::Bool(v)) => out.push(Literal::Bool(*v)),
                MOpcode::Constant(ConstVal::Func(id)) => out.push(Index(id.0)),
                MOpcode::LoadGlobal(n) | MOpcode::StoreGlobal(n) | MOpcode::NewArray(n) => {
                    out.push(Index(u32::from(*n)));
                }
                MOpcode::Call(n)
                | MOpcode::CallMethod(n)
                | MOpcode::New(n)
                | MOpcode::Intrinsic(_, n) => out.push(Index(u32::from(*n))),
                MOpcode::Goto(target) => out.push(Index(target.0)),
                MOpcode::Test {
                    then_block,
                    else_block,
                } => out.extend([Index(then_block.0), Index(else_block.0)]),
                _ => {}
            }
        }
    }
    out
}

impl MirFunction {
    /// Convenience: [`snapshot`] as a method.
    pub fn snapshot(&self) -> MirSnapshot {
        snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_mir;
    use jitbull_frontend::parse_program;
    use jitbull_vm::compile_program;

    #[test]
    fn snapshot_strips_values_but_keeps_structure() {
        let p1 = parse_program("function f(a, i) { return a[i] + 1; }").unwrap();
        let p2 = parse_program("function f(zz, qq) { return zz[qq] + 99; }").unwrap();
        let m1 = compile_program(&p1).unwrap();
        let m2 = compile_program(&p2).unwrap();
        let s1 = build_mir(&m1, m1.function_id("f").unwrap())
            .unwrap()
            .snapshot();
        let s2 = build_mir(&m2, m2.function_id("f").unwrap())
            .unwrap()
            .snapshot();
        // Renaming variables and changing literals leaves identical labels.
        let l1: Vec<_> = s1.instrs.iter().map(|i| i.label.clone()).collect();
        let l2: Vec<_> = s2.instrs.iter().map(|i| i.label.clone()).collect();
        assert_eq!(l1, l2);
        assert!(l1.iter().any(|l| &**l == "boundscheck"));
    }

    #[test]
    fn snapshot_preserves_operand_edges() {
        let p = parse_program("function f(a) { return a + a; }").unwrap();
        let m = compile_program(&p).unwrap();
        let s = build_mir(&m, m.function_id("f").unwrap())
            .unwrap()
            .snapshot();
        let add = s.instrs.iter().find(|i| &*i.label == "add").unwrap();
        assert_eq!(add.operands.len(), 2);
        assert_eq!(add.operands[0], add.operands[1]); // both operands are `a`
    }

    #[test]
    fn literals_keep_what_labels_drop() {
        let lits = |src: &str| {
            let m = compile_program(&parse_program(src).unwrap()).unwrap();
            let f = build_mir(&m, m.function_id("f").unwrap()).unwrap();
            (f.snapshot(), literals(&f))
        };
        let (s1, l1) = lits("function f(a) { return a.x + 1; }");
        let (s2, l2) = lits("function f(a) { return a.y + 1; }");
        let (s3, l3) = lits("function f(a) { return a.x + 2; }");
        assert_eq!(s1, s2);
        assert_eq!(s1, s3);
        assert_ne!(l1, l2, "property names differ");
        assert_ne!(l1, l3, "constant values differ");
        assert_eq!(l1, lits("function f(b) { return b.x + 1; }").1);
    }

    #[test]
    fn empty_snapshot() {
        let s = MirSnapshot::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
