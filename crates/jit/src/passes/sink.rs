//! Sinking (IonMonkey `Sink`): moves pure computations into the single
//! block that uses them, shortening live ranges and keeping work off paths
//! that never need it.

use jitbull_mir::dense::IdMap;
use jitbull_mir::{BlockId, InstrId, MirFunction};

use super::PassContext;

/// Where an instruction's uses are, as far as sinking cares.
#[derive(Clone, Copy, PartialEq)]
enum UseSites {
    /// Every use is a non-phi operand in this block.
    Block(BlockId),
    /// Uses in more than one block, or a phi use.
    Spread,
}

/// Sinks movable instructions whose uses all live in one other block
/// (and none of which are phis) to just before their first use.
pub fn sink(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    // Use sites per id; an id with no entry has no use.
    let mut use_sites: IdMap<InstrId, UseSites> = IdMap::with_bound(f.id_bound() as usize);
    let mut note = |o: InstrId, site: UseSites| {
        let sites = use_sites.get_or_insert_with(o, || site);
        if *sites != site {
            *sites = UseSites::Spread;
        }
    };
    for b in f.block_ids() {
        let block = f.block(b);
        for phi in &block.phis {
            for &o in &phi.operands {
                note(o, UseSites::Spread);
            }
        }
        for i in &block.instrs {
            for &o in &i.operands {
                note(o, UseSites::Block(b));
            }
        }
    }
    // Candidate moves: (def block, instr id, target block).
    let mut moves: Vec<(BlockId, InstrId, BlockId)> = Vec::new();
    for b in f.block_ids() {
        for i in &f.block(b).instrs {
            if !i.op.is_movable() {
                continue;
            }
            if let Some(&UseSites::Block(target)) = use_sites.get(i.id) {
                if target != b {
                    moves.push((b, i.id, target));
                }
            }
        }
    }
    // Apply moves one at a time; skip an instruction if a prior move
    // already moved one of its operand definitions after it (re-checking
    // keeps this simple and safe).
    for (from, id, to) in moves {
        let from_block = f.block_mut(from);
        let Some(pos) = from_block.instrs.iter().position(|i| i.id == id) else {
            continue;
        };
        let instr = from_block.instrs.remove(pos);
        let target = f.block_mut(to);
        let insert_at = target
            .instrs
            .iter()
            .position(|i| i.operands.contains(&id))
            .unwrap_or(0);
        target.instrs.insert(insert_at, instr);
    }
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
    fn sinks_into_conditional_user_block() {
        // a * b is only needed on the taken path.
        let mut f = mir(
            "function f(a, b, c) { var x = a * b; if (c) { return x; } return 0; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        let mul_block_before = f
            .block_ids()
            .find(|b| {
                f.block(*b)
                    .instrs
                    .iter()
                    .any(|i| matches!(i.op, MOpcode::Mul))
            })
            .unwrap();
        sink(&mut f, &mut cx);
        assert_eq!(f.validate(), Ok(()));
        let mul_block_after = f
            .block_ids()
            .find(|b| {
                f.block(*b)
                    .instrs
                    .iter()
                    .any(|i| matches!(i.op, MOpcode::Mul))
            })
            .unwrap();
        assert_ne!(mul_block_before, mul_block_after, "{f}");
    }

    #[test]
    fn leaves_multi_block_uses_alone() {
        let mut f = mir(
            "function f(a, b, c) { var x = a * b; if (c) { return x; } return x + 1; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        let before = f.to_string();
        sink(&mut f, &mut cx);
        assert_eq!(before, f.to_string());
    }

    #[test]
    fn never_sinks_toward_phi_uses() {
        let mut f = mir(
            "function f(c, a) { var x = a * 2; var y; if (c) { y = x; } else { y = 0; } return y; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        sink(&mut f, &mut cx);
        assert_eq!(f.validate(), Ok(()));
    }
}
