//! Global value numbering (IonMonkey `ValueNumbering`).
//!
//! Dominator-ordered congruence folding:
//!
//! * pure movable instructions (`add`, `compare`, constants, …) with equal
//!   opcode and operands collapse onto the dominating occurrence;
//! * guards (`boundscheck`, `unbox`, `typeguard`) with equal operands are
//!   *legitimately* redundant when dominated by an identical guard — the
//!   paper's CVE-2019-17026 discussion is precisely about this elimination
//!   being applied when it is **not** justified (see [`crate::vuln`]);
//! * memory reads (`initializedlength`, `arraylength`, `loadproperty`)
//!   are folded only within a block with no intervening effectful
//!   instruction, which keeps the legitimate pass conservative.

use std::collections::{HashMap, HashSet};

use jitbull_mir::analysis::{dominates, immediate_dominators, reverse_postorder};
use jitbull_mir::{InstrId, MOpcode, MirFunction};

use super::util::{remove_instrs, replace_uses_map};
use super::PassContext;

/// Congruence key: mnemonic (which encodes constants' kinds but we need
/// exact constant identity, so constants get their value embedded) plus
/// operand ids.
fn key(op: &MOpcode, operands: &[InstrId]) -> Option<String> {
    use std::fmt::Write as _;
    // NOTE: keys must use the full Debug form, not `label()` — the
    // label deliberately drops payloads (global slot, property name)
    // for DNA labeling, and two loads of *different* globals must never
    // be congruent.
    let tag = match op {
        MOpcode::Constant(c) => format!("const:{c:?}"),
        other if other.is_movable() => format!("{other:?}"),
        MOpcode::BoundsCheck | MOpcode::Unbox(_) | MOpcode::TypeGuard(_) => format!("{op:?}"),
        _ => return None,
    };
    let mut k = tag;
    for o in operands {
        let _ = write!(k, ",{}", o.0);
    }
    Some(k)
}

/// Runs GVN over the function.
pub fn gvn(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    let idom = immediate_dominators(f);
    let rpo = reverse_postorder(f);
    // Value table: key -> (defining block, id).
    let mut table: HashMap<String, Vec<(jitbull_mir::BlockId, InstrId)>> = HashMap::new();
    let mut replacements: HashMap<InstrId, InstrId> = HashMap::new();
    let mut dead: HashSet<InstrId> = HashSet::new();

    let resolve = |replacements: &HashMap<InstrId, InstrId>, mut id: InstrId| {
        while let Some(&n) = replacements.get(&id) {
            id = n;
        }
        id
    };

    for &b in &rpo {
        // Block-local memory-read numbering, reset at effectful ops.
        let mut mem_table: HashMap<String, InstrId> = HashMap::new();
        let block = f.block(b).clone();
        for i in &block.instrs {
            let operands: Vec<InstrId> = i
                .operands
                .iter()
                .map(|o| resolve(&replacements, *o))
                .collect();
            if i.op.is_effectful() {
                mem_table.clear();
                continue;
            }
            if i.op.reads_memory() {
                let mut k = format!("{:?}", i.op);
                for o in &operands {
                    k.push_str(&format!(",{}", o.0));
                }
                if let Some(&prev) = mem_table.get(&k) {
                    replacements.insert(i.id, prev);
                    dead.insert(i.id);
                } else {
                    mem_table.insert(k, i.id);
                }
                continue;
            }
            let Some(k) = key(&i.op, &operands) else {
                continue;
            };
            let entries = table.entry(k).or_default();
            let mut found = None;
            for &(db, did) in entries.iter() {
                if db == b || dominates(db, b, &idom) {
                    found = Some(did);
                    break;
                }
            }
            match found {
                Some(prev) if prev != i.id => {
                    replacements.insert(i.id, prev);
                    dead.insert(i.id);
                }
                _ => entries.push((b, i.id)),
            }
        }
    }
    replace_uses_map(f, &replacements);
    remove_instrs(f, &dead);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vuln::VulnConfig;
    use jitbull_frontend::parse_program;
    use jitbull_mir::build_mir;
    use jitbull_vm::compile_program;

    fn mir(src: &str, name: &str) -> MirFunction {
        let p = parse_program(src).unwrap();
        let m = compile_program(&p).unwrap();
        build_mir(m.function(m.function_id(name).unwrap())).unwrap()
    }

    fn count(f: &MirFunction, pred: impl Fn(&MOpcode) -> bool) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| b.iter_all())
            .filter(|i| pred(&i.op))
            .count()
    }

    #[test]
    fn merges_congruent_arithmetic() {
        let mut f = mir("function f(a, b) { return (a + b) * (a + b); }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::Add)), 2);
        gvn(&mut f, &mut cx);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::Add)), 1, "{f}");
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn merges_duplicate_constants() {
        let mut f = mir("function f(x) { return x * 7 + 7; }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        gvn(&mut f, &mut cx);
        let sevens = f
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .filter(|i| matches!(&i.op, MOpcode::Constant(jitbull_mir::ConstVal::Number(n)) if *n == 7.0))
            .count();
        assert_eq!(sevens, 1);
    }

    #[test]
    fn does_not_merge_constants_of_different_value() {
        let mut f = mir("function f(x) { return x * 7 + 8; }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        gvn(&mut f, &mut cx);
        let consts = count(&f, |o| matches!(o, MOpcode::Constant(_)));
        assert!(consts >= 2, "{f}");
    }

    #[test]
    fn eliminates_redundant_bounds_check_same_block() {
        // a[i] + a[i]: second unbox/length/check collapse onto the first.
        let mut f = mir("function f(a, i) { return a[i] + a[i]; }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::BoundsCheck)), 2);
        gvn(&mut f, &mut cx);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::BoundsCheck)), 1, "{f}");
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn does_not_merge_loads_of_different_globals() {
        // Regression: `loadglobal` for two different slots (or
        // `loadproperty` of two names) must never be congruent even
        // though their DNA mnemonics coincide.
        let mut f = mir(
            "function g() { return 1; } function h() { return 2; } function f() { return g() + h(); }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        gvn(&mut f, &mut cx);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::LoadGlobal(_))), 2, "{f}");
        let mut p = mir("function f(o) { return o.x + o.y; }", "f");
        gvn(&mut p, &mut cx);
        assert_eq!(
            count(&p, |o| matches!(o, MOpcode::LoadProperty(_))),
            2,
            "{p}"
        );
    }

    #[test]
    fn does_not_merge_length_reads_across_stores() {
        // The store between the two reads may change the length.
        let mut f = mir(
            "function f(a, i) { var x = a[i]; a[100] = 1; return x + a[i]; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::InitializedLength)), 3);
        gvn(&mut f, &mut cx);
        // The two pre-store reads merge legally; the post-store read must
        // survive (2, not 1).
        assert_eq!(
            count(&f, |o| matches!(o, MOpcode::InitializedLength)),
            2,
            "{f}"
        );
        // And it must appear *after* the store in block order.
        let instrs: Vec<_> = f.blocks[0]
            .instrs
            .iter()
            .map(|i| i.op.label().name())
            .collect();
        let store_pos = instrs.iter().position(|&m| m == "storeelement").unwrap();
        let last_len = instrs
            .iter()
            .rposition(|&m| m == "initializedlength")
            .unwrap();
        assert!(last_len > store_pos, "{f}");
    }

    #[test]
    fn does_not_merge_across_non_dominating_blocks() {
        let mut f = mir(
            "function f(c, a, b) { if (c) { return a + b; } return a + b; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        gvn(&mut f, &mut cx);
        // Neither branch dominates the other: both adds stay.
        assert_eq!(count(&f, |o| matches!(o, MOpcode::Add)), 2);
    }

    #[test]
    fn merges_across_dominating_blocks() {
        let mut f = mir(
            "function f(c, a, b) { var x = a + b; if (c) { return x + (a + b); } return 0; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        gvn(&mut f, &mut cx);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::Add)), 2, "{f}");
        // x+(a+b): inner a+b merged with dominating def, outer add stays.
        assert_eq!(f.validate(), Ok(()));
    }
}
