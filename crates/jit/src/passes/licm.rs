//! Loop-invariant code motion (IonMonkey `LICM`).
//!
//! Hoists *pure, movable* instructions whose operands are all defined
//! outside the loop into the loop's preheader. Memory reads and guards are
//! deliberately not hoisted by the legitimate pass — hoisting a
//! `boundscheck` past a call that can shrink the array is exactly the
//! CVE-2019-9792 model in [`crate::vuln`].

use jitbull_mir::analysis::natural_loops;
use jitbull_mir::dense::IdSet;
use jitbull_mir::{BlockId, InstrId, MirFunction};

use super::util::def_blocks;
use super::PassContext;

/// Finds the preheader of a loop: the unique predecessor of the header
/// outside the loop.
pub fn preheader(f: &MirFunction, header: BlockId, members: &IdSet<BlockId>) -> Option<BlockId> {
    let preds = f.predecessors();
    let outside: Vec<BlockId> = preds[header.0 as usize]
        .iter()
        .copied()
        .filter(|&p| !members.contains(p))
        .collect();
    match outside.as_slice() {
        [single] => Some(*single),
        _ => None,
    }
}

/// Runs LICM over every natural loop, innermost-last order not required
/// since hoisting is iterated to a fixpoint per loop.
pub fn licm(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    let loops = natural_loops(f);
    for l in &loops {
        let Some(pre) = preheader(f, l.header, &l.members) else {
            continue;
        };
        loop {
            let defs = def_blocks(f);
            // An instruction is invariant if movable and all operands are
            // defined outside the loop.
            let mut hoisted = false;
            for b in l.members.iter() {
                let mut idx = 0;
                while idx < f.block(b).instrs.len() {
                    let i = &f.block(b).instrs[idx];
                    let invariant = i.op.is_movable()
                        && i.operands.iter().all(|o| {
                            defs.get(*o)
                                .map(|&db| !l.members.contains(db))
                                .unwrap_or(false)
                        });
                    if invariant {
                        let instr = f.block_mut(b).instrs.remove(idx);
                        let pre_block = f.block_mut(pre);
                        let at = pre_block.instrs.len().saturating_sub(1);
                        pre_block.instrs.insert(at, instr);
                        hoisted = true;
                    } else {
                        idx += 1;
                    }
                }
            }
            if !hoisted {
                break;
            }
        }
    }
}

/// Ids of instructions inside loop `members` (test helper).
pub fn loop_instr_ids(f: &MirFunction, members: &IdSet<BlockId>) -> IdSet<InstrId> {
    members
        .iter()
        .flat_map(|b| f.block(b).iter_all().map(|i| i.id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vuln::VulnConfig;
    use jitbull_frontend::parse_program;
    use jitbull_mir::{build_mir, MOpcode};
    use jitbull_vm::compile_program;

    fn mir(src: &str, name: &str) -> MirFunction {
        let p = parse_program(src).unwrap();
        let m = compile_program(&p).unwrap();
        build_mir(m.function(m.function_id(name).unwrap())).unwrap()
    }

    #[test]
    fn hoists_invariant_multiplication() {
        let mut f = mir(
            "function f(n, k) { var t = 0; for (var i = 0; i < n; i++) { t = t + k * 3; } return t; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        // The pipeline runs trivial-phi elimination first; without it a
        // loop-invariant local is a self-referential phi in the header.
        crate::passes::phis::eliminate_trivial_phis(&mut f, &mut cx);
        licm(&mut f, &mut cx);
        assert_eq!(f.validate(), Ok(()));
        let loops = natural_loops(&f);
        let ids = loop_instr_ids(&f, &loops[0].members);
        // No mul remains inside the loop.
        let mul_in_loop = f
            .blocks
            .iter()
            .flat_map(|b| b.iter_all())
            .filter(|i| matches!(i.op, MOpcode::Mul) && ids.contains(i.id))
            .count();
        assert_eq!(mul_in_loop, 0, "{f}");
    }

    #[test]
    fn does_not_hoist_variant_or_memory_ops() {
        let mut f = mir(
            "function f(a, n) { var t = 0; for (var i = 0; i < n; i++) { t = t + a[i] * i; } return t; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        let before = f.to_string();
        licm(&mut f, &mut cx);
        assert_eq!(f.validate(), Ok(()));
        let loops = natural_loops(&f);
        let ids = loop_instr_ids(&f, &loops[0].members);
        // loadelement and boundscheck stay in the loop.
        for i in f.blocks.iter().flat_map(|b| b.iter_all()) {
            if matches!(i.op, MOpcode::LoadElement | MOpcode::BoundsCheck) {
                assert!(
                    ids.contains(i.id),
                    "hoisted {i}\nbefore:\n{before}\nafter:\n{f}"
                );
            }
        }
    }

    #[test]
    fn preheader_detection() {
        let f = mir(
            "function f(n) { var t = 0; for (var i = 0; i < n; i++) { t += i; } return t; }",
            "f",
        );
        let loops = natural_loops(&f);
        assert!(preheader(&f, loops[0].header, &loops[0].members).is_some());
    }
}
