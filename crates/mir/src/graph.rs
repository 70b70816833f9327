//! The MIR control-flow graph: blocks of instructions.

use std::fmt;

use crate::instr::{InstrId, Instruction};
use crate::opcode::MOpcode;

/// A basic block id (index into [`MirFunction::blocks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block{}", self.0)
    }
}

/// A basic block: leading phis, then straight-line instructions, ending in
/// a terminator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Phi instructions; operand `j` of each phi flows in from
    /// `phi_preds[j]`.
    pub phis: Vec<Instruction>,
    /// Predecessor order for phi operands.
    pub phi_preds: Vec<BlockId>,
    /// Non-phi instructions, last one a terminator.
    pub instrs: Vec<Instruction>,
}

impl Block {
    /// The block's terminator, if the block is well-formed.
    pub fn terminator(&self) -> Option<&Instruction> {
        self.instrs.last().filter(|i| i.op.is_terminator())
    }

    /// Successor blocks, from the terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self.terminator().map(|t| &t.op) {
            Some(MOpcode::Goto(b)) => vec![*b],
            Some(MOpcode::Test {
                then_block,
                else_block,
            }) => vec![*then_block, *else_block],
            _ => Vec::new(),
        }
    }

    /// Iterates phis then body instructions.
    pub fn iter_all(&self) -> impl Iterator<Item = &Instruction> {
        self.phis.iter().chain(self.instrs.iter())
    }
}

/// A function's MIR: the unit the optimization pipeline transforms and the
/// Δ extractor snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct MirFunction {
    /// Source-level function name (diagnostics only).
    pub name: String,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<Block>,
    next_id: u32,
}

impl MirFunction {
    /// Creates an empty function shell.
    pub fn new(name: impl Into<String>) -> Self {
        MirFunction {
            name: name.into(),
            blocks: Vec::new(),
            next_id: 0,
        }
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total instruction count (phis included).
    pub fn instr_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.phis.len() + b.instrs.len())
            .sum()
    }

    /// Allocates a fresh instruction id.
    pub fn fresh_id(&mut self) -> InstrId {
        let id = InstrId(self.next_id);
        self.next_id += 1;
        id
    }

    /// One past the largest id ever allocated (dense after renumbering).
    pub fn id_bound(&self) -> u32 {
        self.next_id
    }

    /// Overrides the id counter (used by the renumbering pass).
    pub fn set_id_bound(&mut self, bound: u32) {
        self.next_id = bound;
    }

    /// Immutable block access.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutable block access.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// All block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Predecessor lists for every block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, b) in self.blocks.iter().enumerate() {
            for s in b.successors() {
                preds[s.0 as usize].push(BlockId(i as u32));
            }
        }
        preds
    }

    /// Structural well-formedness check used by tests and debug assertions
    /// between passes: terminators present, operand references defined,
    /// phi arity matches `phi_preds`.
    pub fn validate(&self) -> Result<(), String> {
        use std::collections::HashSet;
        let mut defined = HashSet::new();
        for b in &self.blocks {
            for i in b.iter_all() {
                if !defined.insert(i.id) {
                    return Err(format!("duplicate instruction id {}", i.id));
                }
            }
        }
        for (bi, b) in self.blocks.iter().enumerate() {
            match b.terminator() {
                Some(_) => {}
                None => return Err(format!("block{bi} has no terminator")),
            }
            for (pos, i) in b.instrs.iter().enumerate() {
                if i.op.is_terminator() && pos + 1 != b.instrs.len() {
                    return Err(format!("block{bi} has a terminator mid-block"));
                }
            }
            for phi in &b.phis {
                if !matches!(phi.op, MOpcode::Phi) {
                    return Err(format!("block{bi} has a non-phi in its phi list"));
                }
                if phi.operands.len() != b.phi_preds.len() {
                    return Err(format!(
                        "block{bi} phi {} arity {} != preds {}",
                        phi.id,
                        phi.operands.len(),
                        b.phi_preds.len()
                    ));
                }
            }
            for i in b.iter_all() {
                for op in &i.operands {
                    if !defined.contains(op) {
                        return Err(format!(
                            "instruction {} references undefined operand {}",
                            i.id, op
                        ));
                    }
                }
            }
            for s in b.successors() {
                if s.0 as usize >= self.blocks.len() {
                    return Err(format!("block{bi} jumps to missing {s}"));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for MirFunction {
    /// Prints in the paper's Listing-1 style: numbered instructions grouped
    /// by block.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "mir function `{}`", self.name)?;
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(f, "block{i}:")?;
            for phi in &b.phis {
                writeln!(f, "  {phi}")?;
            }
            for instr in &b.instrs {
                writeln!(f, "  {instr}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::{ConstVal, MOpcode};

    fn simple_fn() -> MirFunction {
        let mut f = MirFunction::new("t");
        let c = f.fresh_id();
        let r = f.fresh_id();
        f.blocks.push(Block {
            phis: vec![],
            phi_preds: vec![],
            instrs: vec![
                Instruction::new(c, MOpcode::Constant(ConstVal::Number(1.0)), vec![]),
                Instruction::new(r, MOpcode::Return, vec![c]),
            ],
        });
        f
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert_eq!(simple_fn().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_missing_terminator() {
        let mut f = simple_fn();
        f.blocks[0].instrs.pop();
        assert!(f.validate().is_err());
    }

    #[test]
    fn validate_rejects_undefined_operand() {
        let mut f = simple_fn();
        f.blocks[0].instrs[1].operands[0] = InstrId(99);
        assert!(f.validate().is_err());
    }

    #[test]
    fn validate_rejects_duplicate_ids() {
        let mut f = simple_fn();
        let dup = f.blocks[0].instrs[0].clone();
        f.blocks[0].instrs.insert(0, dup);
        assert!(f.validate().is_err());
    }

    #[test]
    fn successors_from_terminators() {
        let f = simple_fn();
        assert!(f.blocks[0].successors().is_empty());
        let mut g = MirFunction::new("g");
        let id = g.fresh_id();
        g.blocks.push(Block {
            phis: vec![],
            phi_preds: vec![],
            instrs: vec![Instruction::new(id, MOpcode::Goto(BlockId(1)), vec![])],
        });
        let c = g.fresh_id();
        let r = g.fresh_id();
        g.blocks.push(Block {
            phis: vec![],
            phi_preds: vec![],
            instrs: vec![
                Instruction::new(c, MOpcode::Constant(ConstVal::Undefined), vec![]),
                Instruction::new(r, MOpcode::Return, vec![c]),
            ],
        });
        assert_eq!(g.blocks[0].successors(), vec![BlockId(1)]);
        assert_eq!(g.predecessors()[1], vec![BlockId(0)]);
        assert_eq!(g.validate(), Ok(()));
    }
}
