//! Engine-agnostic IR snapshots.
//!
//! A [`MirSnapshot`] is what the JITBULL core consumes: a flat list of
//! `(id, label, operands)` triples taken from the IR between optimization
//! passes. Labels are opcode mnemonics *without* literal values or
//! variable/property names, so DNA comparisons key on the structural shape
//! of the optimization — exactly what lets the paper's system recognise a
//! renamed/minified exploit variant.
//!
//! A compilation's [`PassTrace`] is the snapshot sequence `IR_0 … IR_n`:
//! the IR entering the pipeline, then the IR after each executed slot.
//! Each snapshot is stored once; pass `i`'s `(IR_{i-1}, IR_i)` pair is
//! read back with [`PassTrace::passes`].

use std::sync::Arc;

use crate::graph::MirFunction;

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

/// One executed optimization pass and the IR it left behind. The IR it
/// started from is the previous record's `after` (or the trace's
/// `initial`); [`PassTrace::passes`] pairs them up.
#[derive(Debug, Clone, PartialEq)]
pub struct PassRecord {
    /// Pipeline slot index (`i` in the paper's `Δ_i`), `0..n`.
    pub slot: usize,
    /// Human-readable pass name (`"GVN"`, `"LICM"`, …).
    pub name: &'static str,
    /// IR after the pass (`IR_i`).
    pub after: MirSnapshot,
}

/// The full per-compilation trace a JIT engine hands to JITBULL: the IR
/// entering the pipeline, then one [`PassRecord`] per executed pipeline
/// slot. This is the engine-agnostic interface of the paper's Δ extractor
/// input.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PassTrace {
    /// Name of the function being compiled (diagnostics).
    pub function: String,
    /// IR entering the first executed slot (`IR_0`; empty when the
    /// compilation was not traced).
    pub initial: MirSnapshot,
    /// One record per pass, in pipeline order.
    pub records: Vec<PassRecord>,
}

impl PassTrace {
    /// Each record with the IR it started from, `(IR_{i-1}, record)`:
    /// `initial` for the first record, the previous record's `after`
    /// for every other.
    pub fn passes(&self) -> impl Iterator<Item = (&MirSnapshot, &PassRecord)> {
        let befores = std::iter::once(&self.initial).chain(self.records.iter().map(|r| &r.after));
        befores.zip(&self.records)
    }
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
    fn empty_snapshot() {
        let s = MirSnapshot::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
