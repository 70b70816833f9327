//! Engine-agnostic IR snapshots.
//!
//! A [`MirSnapshot`] is what the JITBULL core consumes: a flat list of
//! `(id, label, operands)` triples taken from the IR between optimization
//! passes. Labels are integer [`Label`]s over the fixed mnemonic table:
//! opcode names *without* literal values or variable/property names, so
//! DNA comparisons key on the structural shape of the optimization —
//! exactly what lets the paper's system recognise a renamed/minified
//! exploit variant.
//!
//! A snapshot is four arrays, not one record per instruction: ids,
//! labels, each instruction's operand end offset, and every operand
//! concatenated in snapshot order. Taking one allocates those four
//! arrays whatever the function's size, and comparing two snapshots
//! compares four integer slices.
//!
//! A compilation's [`PassTrace`] is the snapshot sequence `IR_0 … IR_n`:
//! the IR entering the pipeline, then the IR after each executed slot.
//! Each snapshot is stored once; pass `i`'s `(IR_{i-1}, IR_i)` pair is
//! read back with [`PassTrace::passes`].

use crate::graph::MirFunction;
use crate::label::Label;

/// One instruction of a snapshot, borrowed from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapInstr<'a> {
    /// The instruction's SSA id at snapshot time.
    pub id: u32,
    /// Opcode label (e.g. `boundscheck`, `compare:lt`, `constant:number`).
    pub label: Label,
    /// Operand ids.
    pub operands: &'a [u32],
}

/// A flat snapshot of a function's IR between two optimization passes:
/// its instructions in block order (phis first within each block).
/// Instruction `k` is `(ids[k], labels[k],
/// operands[operand_ends[k - 1]..operand_ends[k]])`, with the first
/// start at 0.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MirSnapshot {
    ids: Vec<u32>,
    labels: Vec<Label>,
    operand_ends: Vec<u32>,
    operands: Vec<u32>,
}

impl MirSnapshot {
    /// Appends one instruction.
    pub fn push(&mut self, id: u32, label: Label, operands: &[u32]) {
        self.ids.push(id);
        self.labels.push(label);
        self.operands.extend_from_slice(operands);
        self.operand_ends.push(self.operands.len() as u32);
    }

    /// Number of instructions captured.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Every instruction's id, in snapshot order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Every instruction's label, in snapshot order.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Instruction `k`'s operand ids.
    ///
    /// # Panics
    ///
    /// When `k >= self.len()`.
    pub fn operands(&self, k: usize) -> &[u32] {
        let start = if k == 0 { 0 } else { self.operand_ends[k - 1] };
        &self.operands[start as usize..self.operand_ends[k] as usize]
    }

    /// Every operand of every instruction, concatenated in snapshot order.
    pub fn all_operands(&self) -> &[u32] {
        &self.operands
    }

    /// The instructions, in snapshot order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = SnapInstr<'_>> + '_ {
        (0..self.len()).map(|k| SnapInstr {
            id: self.ids[k],
            label: self.labels[k],
            operands: self.operands(k),
        })
    }
}

/// One executed optimization pass and the IR it left behind. The IR it
/// started from is the previous record's `after` (or the trace's
/// `initial`); [`PassTrace::passes`] pairs them up.
#[derive(Debug, Clone, PartialEq)]
pub struct PassRecord {
    /// Pipeline slot index (`i` in the paper's `Δ_i`), `< N_SLOTS`.
    pub slot: usize,
    /// Human-readable pass name (`"GVN"`, `"LICM"`, …).
    pub name: &'static str,
    /// IR after the pass (`IR_i`).
    pub after: MirSnapshot,
}

/// Measurements for one executed optimization pass. Unlike a
/// [`PassRecord`] it is taken on every compilation, traced or not: the
/// compile-cost model and per-slot telemetry read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRun {
    /// Pipeline slot index.
    pub slot: usize,
    /// Pass name.
    pub name: &'static str,
    /// IR size entering the slot.
    pub instrs_before: u64,
    /// IR size leaving the slot.
    pub instrs_after: u64,
    /// Work units charged to the slot (its share of the compilation's
    /// total).
    pub work: u64,
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
    let all = || f.blocks.iter().flat_map(|b| b.iter_all());
    let n_operands = all().map(|i| i.operands.len()).sum();
    let n_instrs = f.instr_count();
    let mut snap = MirSnapshot {
        ids: Vec::with_capacity(n_instrs),
        labels: Vec::with_capacity(n_instrs),
        operand_ends: Vec::with_capacity(n_instrs),
        operands: Vec::with_capacity(n_operands),
    };
    for i in all() {
        snap.ids.push(i.id.0);
        snap.labels.push(i.op.label());
        snap.operands.extend(i.operands.iter().map(|o| o.0));
        snap.operand_ends.push(snap.operands.len() as u32);
    }
    snap
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
        let s1 = build_mir(m1.function(m1.function_id("f").unwrap()))
            .unwrap()
            .snapshot();
        let s2 = build_mir(m2.function(m2.function_id("f").unwrap()))
            .unwrap()
            .snapshot();
        // Renaming variables and changing literals leaves identical labels.
        let l1 = s1.labels();
        assert_eq!(l1, s2.labels());
        assert!(l1.iter().any(|l| l.name() == "boundscheck"));
    }

    #[test]
    fn snapshot_preserves_operand_edges() {
        let p = parse_program("function f(a) { return a + a; }").unwrap();
        let m = compile_program(&p).unwrap();
        let s = build_mir(m.function(m.function_id("f").unwrap()))
            .unwrap()
            .snapshot();
        let add = s.iter().find(|i| i.label.name() == "add").unwrap();
        assert_eq!(add.operands.len(), 2);
        assert_eq!(add.operands[0], add.operands[1]); // both operands are `a`
    }

    #[test]
    fn empty_snapshot() {
        let s = MirSnapshot::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn push_and_iter_round_trip() {
        let add = Label::from_name("add").unwrap();
        let ret = Label::from_name("return").unwrap();
        let mut s = MirSnapshot::default();
        s.push(3, add, &[1, 2, 1, 7]);
        s.push(4, ret, &[]);
        s.push(5, ret, &[3]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.ids(), &[3, 4, 5]);
        assert_eq!(s.operands(0), &[1, 2, 1, 7]);
        assert!(s.operands(1).is_empty());
        assert_eq!(s.operands(2), &[3]);
        assert_eq!(s.all_operands(), &[1, 2, 1, 7, 3]);
        let mut rebuilt = MirSnapshot::default();
        for i in s.iter() {
            rebuilt.push(i.id, i.label, i.operands);
        }
        assert_eq!(rebuilt, s);
        // Equal instruction lists make equal snapshots, and moving an
        // operand across an instruction boundary does not.
        let mut moved = MirSnapshot::default();
        moved.push(3, add, &[1, 2, 1]);
        moved.push(4, ret, &[7]);
        moved.push(5, ret, &[3]);
        assert_eq!(moved.all_operands(), s.all_operands());
        assert_ne!(moved, s);
    }
}
