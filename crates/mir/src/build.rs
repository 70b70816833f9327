//! Bytecode → MIR construction (the paper's step ③).
//!
//! The builder abstractly interprets the stack bytecode: the operand stack
//! and local slots are tracked as vectors of SSA ids, blocks are cut at
//! jump targets, and phi instructions are created at every join and loop
//! header for each live local and stack slot.
//!
//! Element accesses are emitted in the guarded form the paper's Listing 1
//! shows for IonMonkey:
//!
//! ```text
//!   n   unbox:array <array>
//!   n+1 initializedlength <n>
//!   n+2 boundscheck <index> <n+1>
//!   n+3 loadelement <n> <n+2>
//! ```
//!
//! so that a pass which (incorrectly) removes the `boundscheck` leaves a
//! raw, exploitable `loadelement`/`storeelement` behind.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use jitbull_frontend::ast::{BinOp, UnOp};
use jitbull_vm::bytecode::{Function, Op};

use crate::graph::{Block, BlockId, MirFunction};
use crate::instr::{InstrId, Instruction};
use crate::opcode::{CmpOp, ConstVal, MOpcode, TypeHint};

/// An error during MIR construction. These indicate internal inconsistencies
/// (unbalanced stacks, malformed bytecode) and should not occur for
/// compiler-produced modules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirBuildError(String);

impl fmt::Display for MirBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mir build error: {}", self.0)
    }
}

impl Error for MirBuildError {}

/// Builds the MIR for one function from its bytecode alone: nothing else
/// of the module it came from (other functions, global names) is in
/// reach.
///
/// # Errors
///
/// Returns [`MirBuildError`] on malformed bytecode (unbalanced stacks at
/// joins, jumps out of range).
pub fn build_mir(function: &Function) -> Result<MirFunction, MirBuildError> {
    Builder::new(function)?.run()
}

#[derive(Clone, Debug, PartialEq)]
struct AbstractState {
    locals: Vec<InstrId>,
    stack: Vec<InstrId>,
}

struct Builder<'f> {
    function: &'f Function,
    /// Sorted bytecode offsets at which blocks begin (reachable only).
    starts: Vec<usize>,
    /// Bytecode offset → MIR block id, for offsets where a kept block
    /// starts.
    block_of: Vec<Option<BlockId>>,
    /// Per block: does it need phis (join point or loop header)?
    needs_phis: Vec<bool>,
    mir: MirFunction,
    /// Entry state per block, set when the first edge arrives.
    entry_state: Vec<Option<AbstractState>>,
}

impl<'f> Builder<'f> {
    fn new(function: &'f Function) -> Result<Self, MirBuildError> {
        let code = &function.code;
        // 1. Block boundaries: whether a block starts at each offset.
        let mut starts = vec![false; code.len().max(1)];
        starts[0] = true;
        for (pc, op) in code.iter().enumerate() {
            match op {
                Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfTrue(t) => {
                    let t = *t as usize;
                    if t >= code.len() {
                        return Err(MirBuildError(format!("jump target {t} out of range")));
                    }
                    starts[t] = true;
                    if pc + 1 < code.len() {
                        starts[pc + 1] = true;
                    }
                }
                Op::Return if pc + 1 < code.len() => {
                    starts[pc + 1] = true;
                }
                _ => {}
            }
        }
        let all_starts: Vec<usize> = (0..starts.len()).filter(|&pc| starts[pc]).collect();
        // 2. Bytecode-level successor map and reachability.
        let range_end = |i: usize| all_starts.get(i + 1).copied().unwrap_or(code.len());
        let succs_of = |i: usize| -> Vec<usize> {
            let end = range_end(i);
            let last = &code[end - 1];
            match last {
                Op::Jump(t) => vec![*t as usize],
                Op::JumpIfFalse(t) | Op::JumpIfTrue(t) => {
                    let mut v = vec![*t as usize];
                    if end < code.len() {
                        v.push(end);
                    }
                    v
                }
                Op::Return => vec![],
                _ => {
                    if end < code.len() {
                        vec![end]
                    } else {
                        vec![]
                    }
                }
            }
        };
        // Bytecode offset → index in `all_starts`, for block starts.
        let mut index_of = vec![usize::MAX; starts.len()];
        for (i, &s) in all_starts.iter().enumerate() {
            index_of[s] = i;
        }
        let mut reachable = vec![false; all_starts.len()];
        let mut work = vec![0usize];
        while let Some(i) = work.pop() {
            if reachable[i] {
                continue;
            }
            reachable[i] = true;
            for s in succs_of(i) {
                work.push(index_of[s]);
            }
        }
        // 3. Keep reachable blocks, in pc order.
        let kept: Vec<usize> = all_starts
            .iter()
            .enumerate()
            .filter(|(i, _)| reachable[*i])
            .map(|(_, &s)| s)
            .collect();
        let mut block_of = vec![None; starts.len()];
        for (i, &s) in kept.iter().enumerate() {
            block_of[s] = Some(BlockId(i as u32));
        }
        // 4. Predecessor counts and back-edge detection (on reachable set).
        let mut pred_count = vec![0usize; kept.len()];
        let mut has_back_edge = vec![false; kept.len()];
        for (i, &start) in kept.iter().enumerate() {
            let orig = index_of[start];
            for s in succs_of(orig) {
                if let Some(target) = block_of[s] {
                    pred_count[target.0 as usize] += 1;
                    if s <= start {
                        has_back_edge[target.0 as usize] = true;
                    }
                }
            }
            let _ = i;
        }
        let needs_phis: Vec<bool> = (0..kept.len())
            .map(|i| i != 0 && (pred_count[i] > 1 || has_back_edge[i]))
            .collect();
        let mut mir = MirFunction::new(function.name.clone());
        mir.blocks = vec![Block::default(); kept.len()];
        let entry_state = vec![None; kept.len()];
        Ok(Builder {
            function,
            starts: kept,
            block_of,
            needs_phis,
            mir,
            entry_state,
        })
    }

    /// The block starting at bytecode offset `pc`: every jump target and
    /// fall-through of a reachable block starts a kept block.
    fn block_at(&self, pc: usize) -> BlockId {
        self.block_of[pc].expect("a reachable block starts here")
    }

    fn run(mut self) -> Result<MirFunction, MirBuildError> {
        let f = self.function;
        // Seed the entry block: parameters then an undefined constant for
        // the remaining locals.
        let mut locals = Vec::with_capacity(f.n_locals as usize);
        let mut entry_instrs = Vec::new();
        for i in 0..f.arity {
            let id = self.mir.fresh_id();
            entry_instrs.push(Instruction::new(id, MOpcode::Parameter(i), vec![]));
            locals.push(id);
        }
        if f.n_locals as usize > f.arity as usize {
            let id = self.mir.fresh_id();
            entry_instrs.push(Instruction::new(
                id,
                MOpcode::Constant(ConstVal::Undefined),
                vec![],
            ));
            for _ in f.arity as usize..f.n_locals as usize {
                locals.push(id);
            }
        }
        self.entry_state[0] = Some(AbstractState {
            locals,
            stack: Vec::new(),
        });
        self.mir.blocks[0].instrs = entry_instrs;

        for bi in 0..self.starts.len() {
            self.process_block(bi)?;
        }
        debug_assert_eq!(self.mir.validate(), Ok(()));
        Ok(self.mir)
    }

    fn process_block(&mut self, bi: usize) -> Result<(), MirBuildError> {
        let start = self.starts[bi];
        let end = self
            .starts
            .get(bi + 1)
            .copied()
            .unwrap_or(self.function.code.len());
        let mut state = match &self.entry_state[bi] {
            Some(s) => s.clone(),
            None => {
                return Err(MirBuildError(format!(
                    "block at pc {start} processed before any edge arrived"
                )))
            }
        };
        // Instructions emitted into this block (appended after any seeded
        // parameter instructions in the entry block).
        let mut out: Vec<Instruction> = std::mem::take(&mut self.mir.blocks[bi].instrs);
        let function = self.function;
        let code = &function.code;
        let mut pc = start;
        let mut terminated = false;
        macro_rules! emit {
            ($op:expr, $operands:expr) => {{
                let id = self.mir.fresh_id();
                out.push(Instruction::new(id, $op, $operands));
                id
            }};
        }
        macro_rules! pop {
            () => {
                state
                    .stack
                    .pop()
                    .ok_or_else(|| MirBuildError(format!("stack underflow at pc {pc}")))?
            };
        }
        while pc < end {
            let op = &code[pc];
            match op {
                Op::ConstNum(n) => {
                    let id = emit!(MOpcode::Constant(ConstVal::Number(*n)), vec![]);
                    state.stack.push(id);
                }
                Op::ConstStr(s) => {
                    let id = emit!(MOpcode::Constant(ConstVal::Str(Arc::from(&**s))), vec![]);
                    state.stack.push(id);
                }
                Op::ConstBool(b) => {
                    let id = emit!(MOpcode::Constant(ConstVal::Bool(*b)), vec![]);
                    state.stack.push(id);
                }
                Op::ConstUndefined => {
                    let id = emit!(MOpcode::Constant(ConstVal::Undefined), vec![]);
                    state.stack.push(id);
                }
                Op::ConstNull => {
                    let id = emit!(MOpcode::Constant(ConstVal::Null), vec![]);
                    state.stack.push(id);
                }
                Op::LoadFunc(fid) => {
                    let id = emit!(MOpcode::Constant(ConstVal::Func(*fid)), vec![]);
                    state.stack.push(id);
                }
                Op::Pop => {
                    pop!();
                }
                Op::Dup => {
                    let top = *state
                        .stack
                        .last()
                        .ok_or_else(|| MirBuildError(format!("dup underflow at pc {pc}")))?;
                    state.stack.push(top);
                }
                Op::LoadLocal(s) => state.stack.push(state.locals[*s as usize]),
                Op::StoreLocal(s) => {
                    let v = pop!();
                    state.locals[*s as usize] = v;
                }
                Op::LoadGlobal(s) => {
                    let id = emit!(MOpcode::LoadGlobal(*s), vec![]);
                    state.stack.push(id);
                }
                Op::StoreGlobal(s) => {
                    let v = pop!();
                    emit!(MOpcode::StoreGlobal(*s), vec![v]);
                }
                Op::LoadThis => {
                    let id = emit!(MOpcode::This, vec![]);
                    state.stack.push(id);
                }
                Op::Bin(op) => {
                    let b = pop!();
                    let a = pop!();
                    let id = emit!(lower_binop(*op), vec![a, b]);
                    state.stack.push(id);
                }
                Op::Un(op) => {
                    let a = pop!();
                    let id = emit!(lower_unop(*op), vec![a]);
                    state.stack.push(id);
                }
                Op::Call(argc) => {
                    let mut args = split(&mut state.stack, *argc as usize, pc)?;
                    let callee = pop!();
                    let mut operands = vec![callee];
                    operands.append(&mut args);
                    let id = emit!(MOpcode::Call(*argc), operands);
                    state.stack.push(id);
                }
                Op::CallMethod(argc) => {
                    let mut args = split(&mut state.stack, *argc as usize, pc)?;
                    let callee = pop!();
                    let base = pop!();
                    let mut operands = vec![base, callee];
                    operands.append(&mut args);
                    let id = emit!(MOpcode::CallMethod(*argc), operands);
                    state.stack.push(id);
                }
                Op::New(argc) => {
                    let mut args = split(&mut state.stack, *argc as usize, pc)?;
                    let callee = pop!();
                    let mut operands = vec![callee];
                    operands.append(&mut args);
                    let id = emit!(MOpcode::New(*argc), operands);
                    state.stack.push(id);
                }
                Op::NewArray(n) => {
                    let items = split(&mut state.stack, *n as usize, pc)?;
                    let id = emit!(MOpcode::NewArray(*n), items);
                    state.stack.push(id);
                }
                Op::NewArrayN => {
                    let len = pop!();
                    let id = emit!(MOpcode::NewArrayN, vec![len]);
                    state.stack.push(id);
                }
                Op::NewObject => {
                    let id = emit!(MOpcode::NewObject, vec![]);
                    state.stack.push(id);
                }
                Op::GetElem => {
                    let idx = pop!();
                    let base = pop!();
                    let unboxed = emit!(MOpcode::Unbox(TypeHint::Array), vec![base]);
                    let len = emit!(MOpcode::InitializedLength, vec![unboxed]);
                    let ck = emit!(MOpcode::BoundsCheck, vec![idx, len]);
                    let v = emit!(MOpcode::LoadElement, vec![unboxed, ck]);
                    state.stack.push(v);
                }
                Op::SetElem => {
                    let val = pop!();
                    let idx = pop!();
                    let base = pop!();
                    let unboxed = emit!(MOpcode::Unbox(TypeHint::Array), vec![base]);
                    let len = emit!(MOpcode::InitializedLength, vec![unboxed]);
                    let ck = emit!(MOpcode::BoundsCheck, vec![idx, len]);
                    emit!(MOpcode::StoreElement, vec![unboxed, ck, val]);
                    state.stack.push(val);
                }
                Op::GetProp(name) => {
                    let base = pop!();
                    let id = emit!(MOpcode::LoadProperty(Arc::from(&**name)), vec![base]);
                    state.stack.push(id);
                }
                Op::SetProp(name) => {
                    let val = pop!();
                    let base = pop!();
                    emit!(MOpcode::StoreProperty(Arc::from(&**name)), vec![base, val]);
                    state.stack.push(val);
                }
                Op::GetMethod(name) => {
                    let base = *state
                        .stack
                        .last()
                        .ok_or_else(|| MirBuildError(format!("method underflow at pc {pc}")))?;
                    let id = emit!(MOpcode::LoadProperty(Arc::from(&**name)), vec![base]);
                    state.stack.push(id);
                }
                Op::GetLength => {
                    let base = pop!();
                    let id = emit!(MOpcode::ArrayLength, vec![base]);
                    state.stack.push(id);
                }
                Op::SetLength => {
                    let val = pop!();
                    let base = pop!();
                    emit!(MOpcode::SetArrayLength, vec![base, val]);
                    state.stack.push(val);
                }
                Op::Print => {
                    let v = pop!();
                    emit!(MOpcode::Print, vec![v]);
                }
                Op::FromCharCode => {
                    let v = pop!();
                    let id = emit!(MOpcode::FromCharCode, vec![v]);
                    state.stack.push(id);
                }
                Op::Math(mf) => {
                    let args = split(&mut state.stack, mf.arity() as usize, pc)?;
                    let id = emit!(MOpcode::MathFunction(*mf), args);
                    state.stack.push(id);
                }
                Op::Intrinsic(m, argc) => {
                    let mut args = split(&mut state.stack, *argc as usize, pc)?;
                    let recv = pop!();
                    let mut operands = vec![recv];
                    operands.append(&mut args);
                    let id = emit!(MOpcode::Intrinsic(*m, *argc), operands);
                    state.stack.push(id);
                }
                Op::Jump(t) => {
                    let target = self.block_at(*t as usize);
                    emit!(MOpcode::Goto(target), vec![]);
                    self.edge(BlockId(bi as u32), target, &state)?;
                    terminated = true;
                    break;
                }
                Op::JumpIfFalse(t) | Op::JumpIfTrue(t) => {
                    let cond = pop!();
                    let target = self.block_at(*t as usize);
                    let fall = self.block_at(end);
                    let (then_block, else_block) = if matches!(op, Op::JumpIfFalse(_)) {
                        (fall, target)
                    } else {
                        (target, fall)
                    };
                    emit!(
                        MOpcode::Test {
                            then_block,
                            else_block
                        },
                        vec![cond]
                    );
                    self.edge(BlockId(bi as u32), target, &state)?;
                    self.edge(BlockId(bi as u32), fall, &state)?;
                    terminated = true;
                    break;
                }
                Op::Return => {
                    let v = pop!();
                    emit!(MOpcode::Return, vec![v]);
                    terminated = true;
                    break;
                }
            }
            pc += 1;
        }
        if !terminated {
            // Fell off the end of the block: implicit goto to the next one.
            let fall = self.block_at(end);
            let id = self.mir.fresh_id();
            out.push(Instruction::new(id, MOpcode::Goto(fall), vec![]));
            self.mir.blocks[bi].instrs = out;
            self.edge(BlockId(bi as u32), fall, &state)?;
        } else {
            self.mir.blocks[bi].instrs = out;
        }
        Ok(())
    }

    /// Records a CFG edge, creating/extending phis or propagating state.
    fn edge(
        &mut self,
        from: BlockId,
        to: BlockId,
        exit: &AbstractState,
    ) -> Result<(), MirBuildError> {
        let ti = to.0 as usize;
        if self.needs_phis[ti] {
            if self.entry_state[ti].is_none() {
                // First arrival: create one phi per local and stack slot.
                let mut locals = Vec::with_capacity(exit.locals.len());
                let mut stack = Vec::with_capacity(exit.stack.len());
                for _ in 0..exit.locals.len() {
                    let id = self.mir.fresh_id();
                    self.mir.blocks[ti]
                        .phis
                        .push(Instruction::new(id, MOpcode::Phi, vec![]));
                    locals.push(id);
                }
                for _ in 0..exit.stack.len() {
                    let id = self.mir.fresh_id();
                    self.mir.blocks[ti]
                        .phis
                        .push(Instruction::new(id, MOpcode::Phi, vec![]));
                    stack.push(id);
                }
                self.entry_state[ti] = Some(AbstractState { locals, stack });
            }
            let entry = self.entry_state[ti].clone().expect("phi entry just set");
            if entry.locals.len() != exit.locals.len() || entry.stack.len() != exit.stack.len() {
                return Err(MirBuildError(format!(
                    "unbalanced join into {to}: {}+{} vs {}+{}",
                    entry.locals.len(),
                    entry.stack.len(),
                    exit.locals.len(),
                    exit.stack.len()
                )));
            }
            let block = &mut self.mir.blocks[ti];
            block.phi_preds.push(from);
            for (slot, phi) in block.phis.iter_mut().enumerate() {
                let incoming = if slot < exit.locals.len() {
                    exit.locals[slot]
                } else {
                    exit.stack[slot - exit.locals.len()]
                };
                phi.operands.push(incoming);
            }
            Ok(())
        } else {
            match &self.entry_state[ti] {
                None => {
                    self.entry_state[ti] = Some(exit.clone());
                    Ok(())
                }
                Some(existing) if existing == exit => Ok(()),
                Some(_) => Err(MirBuildError(format!(
                    "block {to} received conflicting states but was not a join"
                ))),
            }
        }
    }
}

fn split(stack: &mut Vec<InstrId>, n: usize, pc: usize) -> Result<Vec<InstrId>, MirBuildError> {
    if stack.len() < n {
        return Err(MirBuildError(format!("argument underflow at pc {pc}")));
    }
    Ok(stack.split_off(stack.len() - n))
}

fn lower_binop(op: BinOp) -> MOpcode {
    match op {
        BinOp::Add => MOpcode::Add,
        BinOp::Sub => MOpcode::Sub,
        BinOp::Mul => MOpcode::Mul,
        BinOp::Div => MOpcode::Div,
        BinOp::Mod => MOpcode::Mod,
        BinOp::Eq => MOpcode::Compare(CmpOp::Eq),
        BinOp::Ne => MOpcode::Compare(CmpOp::Ne),
        BinOp::StrictEq => MOpcode::Compare(CmpOp::StrictEq),
        BinOp::StrictNe => MOpcode::Compare(CmpOp::StrictNe),
        BinOp::Lt => MOpcode::Compare(CmpOp::Lt),
        BinOp::Le => MOpcode::Compare(CmpOp::Le),
        BinOp::Gt => MOpcode::Compare(CmpOp::Gt),
        BinOp::Ge => MOpcode::Compare(CmpOp::Ge),
        BinOp::BitAnd => MOpcode::BitAnd,
        BinOp::BitOr => MOpcode::BitOr,
        BinOp::BitXor => MOpcode::BitXor,
        BinOp::Shl => MOpcode::Lsh,
        BinOp::Shr => MOpcode::Rsh,
        BinOp::Ushr => MOpcode::Ursh,
    }
}

fn lower_unop(op: UnOp) -> MOpcode {
    match op {
        UnOp::Neg => MOpcode::Neg,
        UnOp::Not => MOpcode::Not,
        UnOp::BitNot => MOpcode::BitNot,
        UnOp::Plus => MOpcode::ToNumber,
        UnOp::Typeof => MOpcode::TypeOf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull_frontend::parse_program;
    use jitbull_vm::compile_program;

    fn mir_of(src: &str, name: &str) -> MirFunction {
        let p = parse_program(src).unwrap();
        let m = compile_program(&p).unwrap();
        build_mir(m.function(m.function_id(name).unwrap())).unwrap()
    }

    #[test]
    fn straight_line_function() {
        let mir = mir_of("function f(a, b) { return a + b; }", "f");
        assert_eq!(mir.block_count(), 1);
        assert_eq!(mir.validate(), Ok(()));
        let text = mir.to_string();
        assert!(text.contains("parameter0"), "{text}");
        assert!(text.contains("add"), "{text}");
        assert!(text.contains("return"), "{text}");
    }

    #[test]
    fn element_access_emits_guarded_pattern() {
        let mir = mir_of("function f(a, i) { return a[i]; }", "f");
        let text = mir.to_string();
        let pos_ub = text.find("unbox:array").unwrap();
        let pos_len = text.find("initializedlength").unwrap();
        let pos_ck = text.find("boundscheck").unwrap();
        let pos_ld = text.find("loadelement").unwrap();
        assert!(
            pos_ub < pos_len && pos_len < pos_ck && pos_ck < pos_ld,
            "{text}"
        );
    }

    #[test]
    fn loop_creates_phis() {
        let mir = mir_of(
            "function f(n) { var t = 0; for (var i = 0; i < n; i++) { t = t + i; } return t; }",
            "f",
        );
        assert_eq!(mir.validate(), Ok(()));
        let phi_count: usize = mir.blocks.iter().map(|b| b.phis.len()).sum();
        assert!(phi_count >= 2, "expected loop phis, got {phi_count}\n{mir}");
        // Loop header phis must have two operands (entry + back edge).
        let header = mir
            .blocks
            .iter()
            .find(|b| !b.phis.is_empty())
            .expect("phi block");
        assert_eq!(header.phi_preds.len(), 2);
        for phi in &header.phis {
            assert_eq!(phi.operands.len(), 2);
        }
    }

    #[test]
    fn if_else_joins_with_phi() {
        let mir = mir_of(
            "function f(c) { var x; if (c) { x = 1; } else { x = 2; } return x; }",
            "f",
        );
        assert_eq!(mir.validate(), Ok(()));
        let join = mir
            .blocks
            .iter()
            .find(|b| b.phi_preds.len() == 2)
            .expect("join block with 2 preds");
        assert!(!join.phis.is_empty());
    }

    #[test]
    fn logical_and_produces_value_phi() {
        // `a && b` merges a stack slot, not a local.
        let mir = mir_of("function f(a, b) { return a && b; }", "f");
        assert_eq!(mir.validate(), Ok(()));
        let phi_count: usize = mir.blocks.iter().map(|b| b.phis.len()).sum();
        assert!(phi_count >= 1, "{mir}");
    }

    #[test]
    fn dead_code_after_return_is_dropped() {
        let mir = mir_of("function f() { return 1; var x = 2; x = x; }", "f");
        assert_eq!(mir.validate(), Ok(()));
        // Unreachable trailing code must not leave invalid blocks behind.
        for b in &mir.blocks {
            assert!(b.terminator().is_some());
        }
    }

    #[test]
    fn while_true_with_break() {
        let mir = mir_of(
            "function f() { var i = 0; while (true) { i++; if (i > 3) { break; } } return i; }",
            "f",
        );
        assert_eq!(mir.validate(), Ok(()));
    }

    #[test]
    fn nested_loops_validate() {
        let mir = mir_of(
            "function f(n) { var t = 0; for (var i = 0; i < n; i++) { for (var j = 0; j < i; j++) { if (j % 2) { t += j; } else { t -= 1; } } } return t; }",
            "f",
        );
        assert_eq!(mir.validate(), Ok(()));
        assert!(mir.block_count() >= 6);
    }

    #[test]
    fn calls_and_methods() {
        let mir = mir_of(
            "function g(x) { return x; } function f(o) { g(1); o.m(2, 3); return new g(4); }",
            "f",
        );
        let text = mir.to_string();
        assert!(text.contains(" call "), "{text}");
        assert!(text.contains("callmethod"), "{text}");
        assert!(text.contains("newcall"), "{text}");
        assert!(text.contains("loadproperty"), "{text}");
    }

    #[test]
    fn main_function_builds() {
        let p =
            parse_program("var x = 1; for (var i = 0; i < 3; i++) { x *= 2; } print(x);").unwrap();
        let m = compile_program(&p).unwrap();
        let mir = build_mir(m.function(m.entry)).unwrap();
        assert_eq!(mir.validate(), Ok(()));
        assert!(mir.to_string().contains("storeglobal"));
    }

    #[test]
    fn every_compiled_function_in_a_program_builds() {
        let src = r"
            function fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
            function sum(a) { var t = 0; for (var i = 0; i < a.length; i++) { t += a[i]; } return t; }
            function make(n) { var a = new Array(n); for (var i = 0; i < n; i++) { a[i] = i; } return a; }
            var r = fib(10) + sum(make(20));
            print(r);
        ";
        let p = parse_program(src).unwrap();
        let m = compile_program(&p).unwrap();
        for (i, f) in m.functions.iter().enumerate() {
            let mir = build_mir(f).unwrap();
            assert_eq!(mir.validate(), Ok(()), "function {i} invalid:\n{mir}");
        }
    }
}
