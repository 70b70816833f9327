//! Critical-edge splitting (IonMonkey `SplitCriticalEdges`). Mandatory:
//! register allocators require no edge to go from a multi-successor block
//! straight into a multi-predecessor block.

use jitbull_mir::{Block, BlockId, Instruction, MOpcode, MirFunction};

use super::PassContext;

/// Splits every critical edge by inserting an empty forwarding block.
pub fn split_critical_edges(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    let preds = f.predecessors();
    let mut edits: Vec<(BlockId, usize, BlockId)> = Vec::new(); // (from, succ idx, to)
    for b in f.block_ids() {
        let succs = f.block(b).successors();
        if succs.len() < 2 {
            continue;
        }
        for (si, s) in succs.iter().enumerate() {
            if preds[s.0 as usize].len() >= 2 {
                edits.push((b, si, *s));
            }
        }
    }
    for (from, si, to) in edits {
        let new_id = BlockId(f.blocks.len() as u32);
        let gid = f.fresh_id();
        f.blocks.push(Block {
            phis: vec![],
            phi_preds: vec![],
            instrs: vec![Instruction::new(gid, MOpcode::Goto(to), vec![])],
        });
        // Redirect the terminator's si-th successor.
        let term = f
            .block_mut(from)
            .instrs
            .last_mut()
            .expect("terminator exists");
        match &mut term.op {
            MOpcode::Test {
                then_block,
                else_block,
            } => {
                if si == 0 {
                    *then_block = new_id;
                } else {
                    *else_block = new_id;
                }
            }
            MOpcode::Goto(t) => *t = new_id,
            _ => unreachable!("multi-successor block must end in test"),
        }
        // Update the target's phi predecessor list. Only the first
        // matching entry: a test with both arms on the same target
        // contributes two entries, one per edit.
        if let Some(p) = f.block_mut(to).phi_preds.iter_mut().find(|p| **p == from) {
            *p = new_id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vuln::VulnConfig;
    use jitbull_frontend::parse_program;
    use jitbull_mir::build_mir;
    use jitbull_vm::compile_program;

    #[test]
    fn splits_if_without_else_join_edge() {
        // `if` without `else`: the branch block has two successors and the
        // join has two predecessors — the fall-through edge is critical.
        let p = parse_program("function f(c) { var x = 0; if (c) { x = 1; } return x; }").unwrap();
        let m = compile_program(&p).unwrap();
        let mut f = build_mir(m.function(m.function_id("f").unwrap())).unwrap();
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        let before = f.block_count();
        split_critical_edges(&mut f, &mut cx);
        assert!(f.block_count() > before, "{f}");
        assert_eq!(f.validate(), Ok(()));
        // No critical edges remain.
        let preds = f.predecessors();
        for b in f.block_ids() {
            let succs = f.block(b).successors();
            if succs.len() >= 2 {
                for s in succs {
                    assert!(
                        preds[s.0 as usize].len() < 2,
                        "critical edge {b} -> {s} remains\n{f}"
                    );
                }
            }
        }
    }

    #[test]
    fn straight_line_untouched() {
        let p = parse_program("function f(a) { return a + 1; }").unwrap();
        let m = compile_program(&p).unwrap();
        let mut f = build_mir(m.function(m.function_id("f").unwrap())).unwrap();
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        let before = f.block_count();
        split_critical_edges(&mut f, &mut cx);
        assert_eq!(f.block_count(), before);
    }
}
