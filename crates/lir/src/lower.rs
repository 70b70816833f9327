//! MIR → LIR lowering (paper step ⑤), including out-of-SSA translation.
//!
//! Phis become **parallel move groups** placed at the end of each
//! predecessor (the MIR pipeline's mandatory critical-edge splitting
//! guarantees a predecessor of a phi block has that block as its only
//! successor). Parallel moves are sequentialized with the classic
//! worklist algorithm, breaking cycles through a scratch register.

use std::collections::HashMap;

use jitbull_mir::{InstrId, MOpcode, MirFunction, TypeHint};

use crate::lir::{GuardRefs, LBlock, LBlockId, LFunction, LInstr, LOp, VReg};

/// Lowers optimized MIR to (unallocated) LIR.
pub fn lower(mir: &MirFunction) -> LFunction {
    let mut f = LFunction {
        blocks: vec![LBlock::default(); mir.block_count()],
        frame_size: mir.id_bound(),
    };
    // Opcode kinds per MIR id, for guard-reference capture.
    let mut kinds: HashMap<InstrId, &MOpcode> = HashMap::new();
    for b in &mir.blocks {
        for i in b.iter_all() {
            kinds.insert(i.id, &i.op);
        }
    }
    // 1. Straight-line lowering of every block body.
    for (bi, block) in mir.blocks.iter().enumerate() {
        let out = &mut f.blocks[bi].instrs;
        for i in &block.instrs {
            let args: Vec<VReg> = i.operands.iter().map(|o| VReg(o.0)).collect();
            match &i.op {
                MOpcode::Goto(t) => {
                    out.push(LInstr::new(LOp::Jump(LBlockId(t.0)), None, vec![]));
                }
                MOpcode::Test {
                    then_block,
                    else_block,
                } => {
                    out.push(LInstr::new(
                        LOp::Branch {
                            then_block: LBlockId(then_block.0),
                            else_block: LBlockId(else_block.0),
                        },
                        None,
                        args,
                    ));
                }
                MOpcode::Return => {
                    out.push(LInstr::new(LOp::Return, None, args));
                }
                MOpcode::Phi => unreachable!("phis live in the phi list"),
                op => {
                    let mut instr = LInstr::new(LOp::Op(op.clone()), Some(VReg(i.id.0)), args);
                    instr.guards = capture_guards(op, &i.operands, &kinds);
                    out.push(instr);
                }
            }
        }
    }

    // 2. Out-of-SSA: emit parallel move groups on each incoming edge of
    // every phi block, at the end of the predecessor (before its
    // terminator).
    for block in &mir.blocks {
        if block.phis.is_empty() {
            continue;
        }
        for (j, pred) in block.phi_preds.iter().enumerate() {
            let moves: Vec<(VReg, VReg)> = block
                .phis
                .iter()
                .map(|phi| (VReg(phi.id.0), VReg(phi.operands[j].0)))
                .collect();
            let seq = sequentialize(&moves, &mut f);
            let pred_block = &mut f.blocks[pred.0 as usize];
            let at = pred_block.instrs.len().saturating_sub(1);
            for (k, m) in seq.into_iter().enumerate() {
                pred_block.instrs.insert(at + k, m);
            }
        }
    }
    debug_assert_eq!(f.validate(), Ok(()));
    f
}

/// Captures which guards vouch for this operation's memory access: whether
/// the index is defined by a `boundscheck` and the base by an
/// `unbox:array`, which the executor's raw-vs-guarded split reads.
fn capture_guards(
    op: &MOpcode,
    operands: &[InstrId],
    kinds: &HashMap<InstrId, &MOpcode>,
) -> GuardRefs {
    let is_unbox_array =
        |id: InstrId| matches!(kinds.get(&id), Some(MOpcode::Unbox(TypeHint::Array)));
    let is_bounds = |id: InstrId| matches!(kinds.get(&id), Some(MOpcode::BoundsCheck));
    match op {
        MOpcode::LoadElement | MOpcode::StoreElement => {
            let base = operands[0];
            let idx = operands[1];
            GuardRefs {
                bounds: is_bounds(idx),
                unbox: is_unbox_array(base),
            }
        }
        MOpcode::InitializedLength | MOpcode::ArrayLength => {
            let base = operands[0];
            GuardRefs {
                bounds: false,
                unbox: is_unbox_array(base),
            }
        }
        _ => GuardRefs::default(),
    }
}

/// Sequentializes a parallel move group `dst_i ← src_i`, breaking cycles
/// through a fresh scratch vreg. Classic algorithm: emit moves whose
/// destination is not a pending source; when stuck, rotate a cycle via
/// the scratch register.
fn sequentialize(moves: &[(VReg, VReg)], f: &mut LFunction) -> Vec<LInstr> {
    let mut pending: Vec<(VReg, VReg)> = moves.iter().copied().filter(|(d, s)| d != s).collect();
    let mut out = Vec::new();
    while !pending.is_empty() {
        let ready = pending
            .iter()
            .position(|(d, _)| !pending.iter().any(|(_, s)| s == d));
        match ready {
            Some(k) => {
                let (d, s) = pending.remove(k);
                out.push(LInstr::mov(d, s));
            }
            None => {
                // Pure cycle: move one destination into scratch, rewrite
                // the source that referenced it, and continue.
                let scratch = f.fresh_vreg();
                let (d, s) = pending.remove(0);
                out.push(LInstr::mov(scratch, d));
                for (_, src) in pending.iter_mut() {
                    if *src == d {
                        *src = scratch;
                    }
                }
                out.push(LInstr::mov(d, s));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull_frontend::parse_program;
    use jitbull_mir::build_mir;
    use jitbull_vm::compile_program;

    fn mir_of(src: &str, name: &str) -> MirFunction {
        let p = parse_program(src).unwrap();
        let m = compile_program(&p).unwrap();
        build_mir(m.function(m.function_id(name).unwrap())).unwrap()
    }

    #[test]
    fn lowers_straight_line() {
        let mir = mir_of("function f(a, b) { return a * b + 1; }", "f");
        let f = lower(&mir);
        assert_eq!(f.validate(), Ok(()));
        let text = f.to_string();
        assert!(text.contains("mul"), "{text}");
        assert!(text.contains("ret"), "{text}");
    }

    #[test]
    fn loop_phis_become_edge_moves() {
        let mir = mir_of(
            "function f(n) { var t = 0; for (var i = 0; i < n; i++) { t = t + i; } return t; }",
            "f",
        );
        let f = lower(&mir);
        assert_eq!(f.validate(), Ok(()));
        let moves = f
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .filter(|i| matches!(i.op, LOp::Move))
            .count();
        assert!(moves >= 2, "expected phi moves\n{f}");
        // Moves sit before terminators.
        for b in &f.blocks {
            for (i, instr) in b.instrs.iter().enumerate() {
                if matches!(instr.op, LOp::Move) {
                    assert!(i + 1 < b.instrs.len());
                }
            }
        }
    }

    #[test]
    fn guard_refs_are_captured() {
        let mir = mir_of("function f(a, i) { return a[i]; }", "f");
        let f = lower(&mir);
        let load = f
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .find(|i| matches!(&i.op, LOp::Op(MOpcode::LoadElement)))
            .unwrap();
        assert!(load.guards.bounds);
        assert!(load.guards.unbox);
    }

    #[test]
    fn parallel_move_cycle_breaks_with_scratch() {
        // swap: a <- b, b <- a
        let mut f = LFunction {
            blocks: vec![],
            frame_size: 2,
        };
        let seq = sequentialize(&[(VReg(0), VReg(1)), (VReg(1), VReg(0))], &mut f);
        assert_eq!(seq.len(), 3, "{seq:?}");
        assert_eq!(f.frame_size, 3); // scratch allocated
                                     // Simulate to verify the swap.
        let mut vals = [10, 20, 0];
        for m in &seq {
            let d = m.dst.unwrap().0 as usize;
            let s = m.args[0].0 as usize;
            vals[d] = vals[s];
        }
        assert_eq!(vals[0], 20);
        assert_eq!(vals[1], 10);
    }

    #[test]
    fn parallel_move_chain_orders_correctly() {
        // a <- b, b <- c: must move a<-b first.
        let mut f = LFunction {
            blocks: vec![],
            frame_size: 3,
        };
        let seq = sequentialize(&[(VReg(0), VReg(1)), (VReg(1), VReg(2))], &mut f);
        assert_eq!(seq.len(), 2);
        let mut vals = vec![1, 2, 3];
        for m in &seq {
            let d = m.dst.unwrap().0 as usize;
            let s = m.args[0].0 as usize;
            vals[d] = vals[s];
        }
        assert_eq!(vals, vec![2, 3, 3]);
    }

    #[test]
    fn self_moves_are_dropped() {
        let mut f = LFunction {
            blocks: vec![],
            frame_size: 1,
        };
        let seq = sequentialize(&[(VReg(0), VReg(0))], &mut f);
        assert!(seq.is_empty());
    }
}
