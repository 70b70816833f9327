//! Unreachable-block pruning (IonMonkey `PruneUnusedBranches` /
//! `RemoveUnmarkedBlocks`). Mandatory: later passes assume every block is
//! reachable.

use std::collections::HashMap;

use jitbull_mir::{BlockId, MOpcode, MirFunction};

use super::PassContext;

/// Removes blocks unreachable from the entry, remapping block ids in
/// terminators and phi predecessor lists, and dropping phi operands that
/// flowed in from removed predecessors.
pub fn prune_unreachable(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    let n = f.block_count();
    let mut reachable = vec![false; n];
    let mut work = vec![BlockId(0)];
    while let Some(b) = work.pop() {
        if reachable[b.0 as usize] {
            continue;
        }
        reachable[b.0 as usize] = true;
        for s in f.block(b).successors() {
            work.push(s);
        }
    }
    if reachable.iter().all(|&r| r) {
        return;
    }
    // Old id -> new id for surviving blocks.
    let mut remap: HashMap<BlockId, BlockId> = HashMap::new();
    let mut next = 0u32;
    for (i, ok) in reachable.iter().enumerate() {
        if *ok {
            remap.insert(BlockId(i as u32), BlockId(next));
            next += 1;
        }
    }
    let mut old_blocks = std::mem::take(&mut f.blocks);
    for (i, mut b) in old_blocks.drain(..).enumerate() {
        if !reachable[i] {
            continue;
        }
        // Drop phi inputs from removed predecessors.
        let keep: Vec<bool> = b
            .phi_preds
            .iter()
            .map(|p| reachable[p.0 as usize])
            .collect();
        if keep.iter().any(|k| !k) {
            for phi in &mut b.phis {
                let mut slot = 0;
                phi.operands.retain(|_| {
                    let k = keep[slot];
                    slot += 1;
                    k
                });
            }
            let mut slot = 0;
            b.phi_preds.retain(|_| {
                let k = keep[slot];
                slot += 1;
                k
            });
        }
        for p in &mut b.phi_preds {
            *p = remap[p];
        }
        if let Some(t) = b.instrs.last_mut() {
            match &mut t.op {
                MOpcode::Goto(x) => *x = remap[x],
                MOpcode::Test {
                    then_block,
                    else_block,
                } => {
                    *then_block = remap[then_block];
                    *else_block = remap[else_block];
                }
                _ => {}
            }
        }
        f.blocks.push(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vuln::VulnConfig;
    use jitbull_mir::{Block, ConstVal, Instruction};

    #[test]
    fn removes_orphan_block_and_remaps() {
        let mut f = MirFunction::new("t");
        // block0 -> block2; block1 is unreachable.
        let goto_id = f.fresh_id();
        f.blocks.push(Block {
            phis: vec![],
            phi_preds: vec![],
            instrs: vec![Instruction::new(goto_id, MOpcode::Goto(BlockId(2)), vec![])],
        });
        let dead_c = f.fresh_id();
        let dead_r = f.fresh_id();
        f.blocks.push(Block {
            phis: vec![],
            phi_preds: vec![],
            instrs: vec![
                Instruction::new(dead_c, MOpcode::Constant(ConstVal::Null), vec![]),
                Instruction::new(dead_r, MOpcode::Return, vec![dead_c]),
            ],
        });
        let c = f.fresh_id();
        let r = f.fresh_id();
        f.blocks.push(Block {
            phis: vec![],
            phi_preds: vec![BlockId(0), BlockId(1)],
            instrs: vec![
                Instruction::new(c, MOpcode::Constant(ConstVal::Undefined), vec![]),
                Instruction::new(r, MOpcode::Return, vec![c]),
            ],
        });
        // Give the target block a phi fed by both preds.
        let phi = f.fresh_id();
        f.blocks[2]
            .phis
            .push(Instruction::new(phi, MOpcode::Phi, vec![c, dead_c]));
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        prune_unreachable(&mut f, &mut cx);
        assert_eq!(f.block_count(), 2);
        // Phi lost the input from the removed predecessor.
        assert_eq!(f.blocks[1].phis[0].operands.len(), 1);
        assert_eq!(f.blocks[1].phi_preds, vec![BlockId(0)]);
        assert_eq!(f.validate(), Ok(()));
    }
}
