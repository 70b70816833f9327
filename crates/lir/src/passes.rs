//! LIR-level backend passes (paper step ⑥: "This representation … also
//! undergoes optimization passes, but focuses on binary code
//! generation").

use crate::lir::{LBlockId, LFunction, LOp};

/// Jump threading: a block consisting of nothing but `jmp T` is skipped
/// by retargeting its predecessors directly at `T`, to a fixpoint.
/// Orphaned blocks are left in place (the executor never reaches them).
pub fn thread_jumps(f: &mut LFunction) {
    // target(b) = where b ultimately lands if it is a pure trampoline.
    let resolve = |f: &LFunction, mut b: LBlockId| -> LBlockId {
        let mut hops = 0;
        loop {
            let block = &f.blocks[b.0 as usize];
            match (&block.instrs.as_slice(), hops > f.blocks.len()) {
                (_, true) => return b, // cycle of empty jumps; keep
                ([only], false) => match only.op {
                    LOp::Jump(t) if t != b => {
                        b = t;
                        hops += 1;
                    }
                    _ => return b,
                },
                _ => return b,
            }
        }
    };
    for bi in 0..f.blocks.len() {
        let mut retargets: Vec<(usize, LOp)> = Vec::new();
        if let Some(term) = f.blocks[bi].instrs.last() {
            let new_op = match &term.op {
                LOp::Jump(t) => {
                    let r = resolve(f, *t);
                    (r != *t).then_some(LOp::Jump(r))
                }
                LOp::Branch {
                    then_block,
                    else_block,
                } => {
                    let rt_ = resolve(f, *then_block);
                    let re = resolve(f, *else_block);
                    (rt_ != *then_block || re != *else_block).then_some(LOp::Branch {
                        then_block: rt_,
                        else_block: re,
                    })
                }
                _ => None,
            };
            if let Some(op) = new_op {
                retargets.push((f.blocks[bi].instrs.len() - 1, op));
            }
        }
        for (at, op) in retargets {
            f.blocks[bi].instrs[at].op = op;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lir::{LBlock, LInstr, VReg};
    use jitbull_mir::{ConstVal, MOpcode};

    fn ret_block(v: VReg) -> LBlock {
        LBlock {
            instrs: vec![
                LInstr::new(
                    LOp::Op(MOpcode::Constant(ConstVal::Number(1.0))),
                    Some(v),
                    vec![],
                ),
                LInstr::new(LOp::Return, None, vec![v]),
            ],
        }
    }

    #[test]
    fn threads_through_trampolines() {
        // L0 -> L1 (jump-only) -> L2 (return).
        let mut f = LFunction {
            blocks: vec![
                LBlock {
                    instrs: vec![LInstr::new(LOp::Jump(LBlockId(1)), None, vec![])],
                },
                LBlock {
                    instrs: vec![LInstr::new(LOp::Jump(LBlockId(2)), None, vec![])],
                },
                ret_block(VReg(0)),
            ],
            frame_size: 1,
        };
        thread_jumps(&mut f);
        assert_eq!(
            f.blocks[0].instrs.last().unwrap().op,
            LOp::Jump(LBlockId(2))
        );
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn cycle_of_empty_jumps_terminates() {
        // L0 branches into the cycle L1 <-> L2 or to L3 (return).
        let mut f = LFunction {
            blocks: vec![
                LBlock {
                    instrs: vec![
                        LInstr::new(
                            LOp::Op(MOpcode::Constant(ConstVal::Bool(true))),
                            Some(VReg(0)),
                            vec![],
                        ),
                        LInstr::new(
                            LOp::Branch {
                                then_block: LBlockId(1),
                                else_block: LBlockId(3),
                            },
                            None,
                            vec![VReg(0)],
                        ),
                    ],
                },
                LBlock {
                    instrs: vec![LInstr::new(LOp::Jump(LBlockId(2)), None, vec![])],
                },
                LBlock {
                    instrs: vec![LInstr::new(LOp::Jump(LBlockId(1)), None, vec![])],
                },
                ret_block(VReg(0)),
            ],
            frame_size: 1,
        };
        thread_jumps(&mut f);
        assert_eq!(f.validate(), Ok(()));
        match &f.blocks[0].instrs[1].op {
            LOp::Branch {
                then_block,
                else_block,
            } => {
                assert!([LBlockId(1), LBlockId(2)].contains(then_block), "{f}");
                assert_eq!(*else_block, LBlockId(3));
            }
            op => panic!("branch became {op:?}"),
        }
    }
}
