//! MIR instructions.

use std::fmt;

use crate::opcode::MOpcode;

/// An SSA value / instruction number. Unique within a [`crate::graph::MirFunction`]
/// (the renumbering pass keeps ids dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstrId(pub u32);

impl fmt::Display for InstrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One MIR instruction: an opcode plus operand references (other
/// instructions' ids), in SSA form.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// This instruction's SSA id.
    pub id: InstrId,
    /// The operation.
    pub op: MOpcode,
    /// Operand instruction ids (roles documented on [`MOpcode`]).
    pub operands: Vec<InstrId>,
}

impl Instruction {
    /// Creates an instruction.
    pub fn new(id: InstrId, op: MOpcode, operands: Vec<InstrId>) -> Self {
        Instruction { id, op, operands }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.id, self.op)?;
        for operand in &self.operands {
            write!(f, " {operand}")?;
        }
        match &self.op {
            MOpcode::Goto(b) => write!(f, " -> block{}", b.0)?,
            MOpcode::Test {
                then_block,
                else_block,
            } => write!(f, " ? block{} : block{}", then_block.0, else_block.0)?,
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::BlockId;
    use crate::opcode::{ConstVal, MOpcode};

    #[test]
    fn display_matches_listing_shape() {
        let i = Instruction::new(
            InstrId(8),
            MOpcode::BoundsCheck,
            vec![InstrId(2), InstrId(7)],
        );
        assert_eq!(i.to_string(), "8 boundscheck 2 7");
        let c = Instruction::new(InstrId(1), MOpcode::Constant(ConstVal::Null), vec![]);
        assert_eq!(c.to_string(), "1 constant:null");
        let g = Instruction::new(InstrId(9), MOpcode::Goto(BlockId(2)), vec![]);
        assert_eq!(g.to_string(), "9 goto -> block2");
    }
}
