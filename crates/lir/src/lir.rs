//! LIR data structures: a non-SSA register machine representation.

use std::fmt;

use jitbull_mir::dense::Id;
use jitbull_mir::MOpcode;

/// A virtual register, which is also a frame-slot index. Before slot
/// assignment each MIR instruction's value lives in the vreg with its
/// instruction id, in a slot of its own; phi destinations are written
/// from several predecessors (the IR is *not* SSA any more). Slot
/// assignment renumbers every operand to a slot it shares only with
/// values not live at the same time (see [`crate::regalloc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u32);

impl Id for VReg {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }

    #[inline]
    fn from_index(index: usize) -> Self {
        VReg(index as u32)
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A LIR basic block id (indexes [`LFunction::blocks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LBlockId(pub u32);

impl fmt::Display for LBlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Which guards vouch for a memory access, captured from the MIR
/// def-use graph at lowering time (operand identity is lost once phis
/// become moves). A guard vouches only for the operand it defines, so
/// its value is live from the guard to the access and no other value
/// writes that frame slot in between: the executor reads the pass/fail
/// flag of the operand's own slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardRefs {
    /// The index operand (`args[1]`) is a still-present `boundscheck`.
    pub bounds: bool,
    /// The base operand (`args[0]`) is a still-present `unbox:array`.
    pub unbox: bool,
}

/// A LIR operation.
#[derive(Debug, Clone, PartialEq)]
pub enum LOp {
    /// `dst = args[0]` (phi resolution emits these).
    Move,
    /// A computational MIR opcode (never a terminator or phi). Operand
    /// roles are the MIR ones; the result goes to `dst`.
    Op(MOpcode),
    /// Unconditional jump.
    Jump(LBlockId),
    /// Conditional jump on `args[0]`'s truthiness.
    Branch {
        /// Taken when truthy.
        then_block: LBlockId,
        /// Taken when falsy.
        else_block: LBlockId,
    },
    /// Return `args[0]`.
    Return,
}

impl LOp {
    /// Whether this ends a block.
    pub fn is_terminator(&self) -> bool {
        matches!(self, LOp::Jump(_) | LOp::Branch { .. } | LOp::Return)
    }
}

/// One LIR instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct LInstr {
    /// The operation.
    pub op: LOp,
    /// Result vreg, if the operation produces a value.
    pub dst: Option<VReg>,
    /// Argument vregs.
    pub args: Vec<VReg>,
    /// Guard references for memory operations.
    pub guards: GuardRefs,
}

impl LInstr {
    /// A plain instruction with no guards.
    pub fn new(op: LOp, dst: Option<VReg>, args: Vec<VReg>) -> Self {
        LInstr {
            op,
            dst,
            args,
            guards: GuardRefs::default(),
        }
    }

    /// A vreg-to-vreg move.
    pub fn mov(dst: VReg, src: VReg) -> Self {
        LInstr::new(LOp::Move, Some(dst), vec![src])
    }
}

impl fmt::Display for LInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(d) = self.dst {
            write!(f, "{d} = ")?;
        }
        match &self.op {
            LOp::Move => write!(f, "mov {}", self.args[0]),
            LOp::Op(m) => {
                write!(f, "{m}")?;
                for a in &self.args {
                    write!(f, " {a}")?;
                }
                Ok(())
            }
            LOp::Jump(t) => write!(f, "jmp {t}"),
            LOp::Branch {
                then_block,
                else_block,
            } => write!(f, "br {} ? {then_block} : {else_block}", self.args[0]),
            LOp::Return => write!(f, "ret {}", self.args[0]),
        }
    }
}

/// A LIR basic block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LBlock {
    /// Instructions; the last one is a terminator.
    pub instrs: Vec<LInstr>,
}

impl LBlock {
    /// The block's successors.
    pub fn successors(&self) -> Vec<LBlockId> {
        match self.instrs.last().map(|i| &i.op) {
            Some(LOp::Jump(t)) => vec![*t],
            Some(LOp::Branch {
                then_block,
                else_block,
            }) => vec![*then_block, *else_block],
            _ => Vec::new(),
        }
    }
}

/// A lowered function: plain data, free of names, so it is shared
/// across threads and equal for every function with the same compile
/// input.
#[derive(Debug, Clone, PartialEq)]
pub struct LFunction {
    /// Blocks; entry is block 0. Block ids correspond to the MIR blocks
    /// they were lowered from (jump threading may leave orphans).
    pub blocks: Vec<LBlock>,
    /// Number of frame slots every operand indexes: one per vreg before
    /// slot assignment, the peak number of live values after it.
    pub frame_size: u32,
}

impl LFunction {
    /// Total instruction count.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Allocates a fresh vreg (used for scratch vregs in parallel move
    /// resolution).
    pub fn fresh_vreg(&mut self) -> VReg {
        let v = VReg(self.frame_size);
        self.frame_size += 1;
        v
    }

    /// Structural sanity check: every block reachable from the entry
    /// ends in a terminator, operands index the frame.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = vec![false; self.blocks.len()];
        let mut work = vec![LBlockId(0)];
        while let Some(b) = work.pop() {
            if seen[b.0 as usize] {
                continue;
            }
            seen[b.0 as usize] = true;
            let block = &self.blocks[b.0 as usize];
            match block.instrs.last() {
                Some(t) if t.op.is_terminator() => {}
                _ => return Err(format!("{b} lacks a terminator")),
            }
            for (i, instr) in block.instrs.iter().enumerate() {
                if instr.op.is_terminator() && i + 1 != block.instrs.len() {
                    return Err(format!("{b} has a terminator mid-block"));
                }
                for a in &instr.args {
                    if a.0 >= self.frame_size {
                        return Err(format!("{b}: arg {a} out of range"));
                    }
                }
                if let Some(d) = instr.dst {
                    if d.0 >= self.frame_size {
                        return Err(format!("{b}: dst {d} out of range"));
                    }
                }
            }
            for s in block.successors() {
                if s.0 as usize >= self.blocks.len() {
                    return Err(format!("{b} jumps to missing {s}"));
                }
                work.push(s);
            }
        }
        Ok(())
    }
}

impl fmt::Display for LFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "lir function ({} slots)", self.frame_size)?;
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(f, "L{i}:")?;
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
    use jitbull_mir::{ConstVal, MOpcode};

    #[test]
    fn display_shapes() {
        let i = LInstr::new(
            LOp::Op(MOpcode::Constant(ConstVal::Number(1.0))),
            Some(VReg(3)),
            vec![],
        );
        assert_eq!(i.to_string(), "v3 = constant:number");
        assert_eq!(LInstr::mov(VReg(1), VReg(2)).to_string(), "v1 = mov v2");
    }

    #[test]
    fn code_crosses_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LFunction>();
    }

    #[test]
    fn validate_catches_missing_terminator() {
        let f = LFunction {
            blocks: vec![LBlock {
                instrs: vec![LInstr::mov(VReg(0), VReg(0))],
            }],
            frame_size: 1,
        };
        assert!(f.validate().is_err());
    }

    #[test]
    fn validate_accepts_return() {
        let f = LFunction {
            blocks: vec![LBlock {
                instrs: vec![
                    LInstr::new(
                        LOp::Op(MOpcode::Constant(ConstVal::Undefined)),
                        Some(VReg(0)),
                        vec![],
                    ),
                    LInstr::new(LOp::Return, None, vec![VReg(0)]),
                ],
            }],
            frame_size: 1,
        };
        assert_eq!(f.validate(), Ok(()));
    }
}
