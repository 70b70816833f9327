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

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use jitbull_mir::analysis::{dominates, immediate_dominators, reverse_postorder};
use jitbull_mir::dense::IdMap;
use jitbull_mir::{BlockId, ConstVal, InstrId, Label, MOpcode, MirFunction};

use super::util::forward;
use super::PassContext;

/// What an opcode's label leaves out: the constant's value, the global
/// slot or the property name. Two loads of *different* globals share a
/// label (DNA labels drop payloads on purpose) but must never be
/// congruent.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Payload<'f> {
    None,
    /// A number's bits, every NaN as one pattern: all NaNs are congruent,
    /// `0.0` and `-0.0` are not.
    Number(u64),
    Text(&'f str),
    Index(u32),
}

/// The operands a congruence key holds inline. Every opcode that GVN or
/// check elimination numbers takes at most two.
const KEY_OPERANDS: usize = 2;

/// Congruence key: the opcode's identity (label plus payload) and its
/// operand ids after earlier replacements. Redundant-check elimination
/// keys its guards the same way.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(super) struct Key<'f> {
    label: Label,
    payload: Payload<'f>,
    arity: u8,
    operands: [u32; KEY_OPERANDS],
}

impl<'f> Key<'f> {
    /// `None` for an instruction with more operands than a key holds,
    /// which leaves it unnumbered.
    pub(super) fn new(
        op: &'f MOpcode,
        operands: impl ExactSizeIterator<Item = InstrId>,
    ) -> Option<Self> {
        if operands.len() > KEY_OPERANDS {
            return None;
        }
        let payload = match op {
            MOpcode::Constant(ConstVal::Number(n)) => Payload::Number(if n.is_nan() {
                f64::NAN.to_bits()
            } else {
                n.to_bits()
            }),
            MOpcode::Constant(ConstVal::Str(s)) => Payload::Text(s),
            MOpcode::Constant(ConstVal::Bool(b)) => Payload::Index(u32::from(*b)),
            MOpcode::Constant(ConstVal::Func(id)) => Payload::Index(id.0),
            MOpcode::LoadProperty(name) => Payload::Text(name),
            MOpcode::LoadGlobal(slot) => Payload::Index(u32::from(*slot)),
            _ => Payload::None,
        };
        let mut key = Key {
            label: op.label(),
            payload,
            arity: operands.len() as u8,
            operands: [0; KEY_OPERANDS],
        };
        for (slot, o) in key.operands.iter_mut().zip(operands) {
            *slot = o.0;
        }
        Some(key)
    }
}

/// The definitions of one congruence key a dominator-ordered walk has
/// kept: no two of them dominate each other (a later one would have
/// folded onto the earlier), so at most one dominates any block.
/// Almost every key has one definition, which is held inline.
pub(super) enum KeyDefs {
    One(BlockId, InstrId),
    Many(Vec<(BlockId, InstrId)>),
}

impl KeyDefs {
    /// The definition dominating block `b`, if any.
    fn dominating(&self, b: BlockId, idom: &[Option<BlockId>]) -> Option<InstrId> {
        let dominates_b = |db: BlockId| db == b || dominates(db, b, idom);
        match *self {
            KeyDefs::One(db, id) => dominates_b(db).then_some(id),
            KeyDefs::Many(ref defs) => defs
                .iter()
                .find(|&&(db, _)| dominates_b(db))
                .map(|&(_, id)| id),
        }
    }

    fn push(&mut self, b: BlockId, id: InstrId) {
        match *self {
            KeyDefs::One(db, did) => *self = KeyDefs::Many(vec![(db, did), (b, id)]),
            KeyDefs::Many(ref mut defs) => defs.push((b, id)),
        }
    }
}

/// A dominator-ordered value table: looks `(b, id)`'s key up and
/// returns the dominating congruent definition to fold `id` onto, or
/// records `id` as the key's definition in block `b`. Blocks must be
/// visited in an order where a block's dominators come first.
pub(super) fn number<'f>(
    table: &mut HashMap<Key<'f>, KeyDefs>,
    key: Key<'f>,
    b: BlockId,
    id: InstrId,
    idom: &[Option<BlockId>],
) -> Option<InstrId> {
    match table.entry(key) {
        Entry::Vacant(slot) => {
            slot.insert(KeyDefs::One(b, id));
            None
        }
        Entry::Occupied(mut slot) => match slot.get().dominating(b, idom) {
            Some(prev) if prev != id => Some(prev),
            _ => {
                slot.get_mut().push(b, id);
                None
            }
        },
    }
}

/// Follows a replacement chain to the instruction that survives.
pub(super) fn resolve(replacements: &IdMap<InstrId, InstrId>, mut id: InstrId) -> InstrId {
    while let Some(&n) = replacements.get(id) {
        id = n;
    }
    id
}

/// Runs GVN over the function.
pub fn gvn(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    let idom = immediate_dominators(f);
    let rpo = reverse_postorder(f);
    // Value table: key -> its definitions, sized for every instruction
    // so it never rehashes. Keys are script content, so the table keeps
    // std's keyed hasher.
    let mut table: HashMap<Key<'_>, KeyDefs> = HashMap::with_capacity(f.instr_count());
    // Block-local memory-read numbering, reset at effectful ops.
    let mut mem_table: HashMap<Key<'_>, InstrId> = HashMap::new();
    let mut replacements: IdMap<InstrId, InstrId> = IdMap::with_bound(f.id_bound() as usize);

    for &b in &rpo {
        mem_table.clear();
        for i in &f.block(b).instrs {
            if i.op.is_effectful() {
                mem_table.clear();
                continue;
            }
            let numbered = i.op.reads_memory() || i.op.is_movable() || i.op.is_guard();
            if !numbered {
                continue;
            }
            let operands = i.operands.iter().map(|&o| resolve(&replacements, o));
            let Some(k) = Key::new(&i.op, operands) else {
                continue;
            };
            if i.op.reads_memory() {
                if let Some(&prev) = mem_table.get(&k) {
                    replacements.insert(i.id, prev);
                } else {
                    mem_table.insert(k, i.id);
                }
                continue;
            }
            if let Some(prev) = number(&mut table, k, b, i.id, &idom) {
                replacements.insert(i.id, prev);
            }
        }
    }
    forward(f, &replacements);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vuln::VulnConfig;
    use jitbull_frontend::parse_program;
    use jitbull_mir::{build_mir, Block, BlockId, ConstVal, Instruction};
    use jitbull_vm::compile_program;

    fn mir(src: &str, name: &str) -> MirFunction {
        let p = parse_program(src).unwrap();
        let m = compile_program(&p).unwrap();
        build_mir(m.function(m.function_id(name).unwrap())).unwrap()
    }

    /// Appends a block of `(id, opcode, operands)` instructions.
    fn push_block(
        f: &mut MirFunction,
        preds: &[u32],
        instrs: Vec<(InstrId, MOpcode, Vec<InstrId>)>,
    ) {
        f.blocks.push(Block {
            phis: vec![],
            phi_preds: preds.iter().map(|&p| BlockId(p)).collect(),
            instrs: instrs
                .into_iter()
                .map(|(id, op, operands)| Instruction::new(id, op, operands))
                .collect(),
        });
    }

    /// One block: the given constants, each returned through an `add`
    /// chain so every one has a user.
    fn constants(values: &[f64]) -> MirFunction {
        let mut f = MirFunction::new("t");
        let mut instrs = Vec::new();
        let mut ids = Vec::new();
        for &v in values {
            let id = f.fresh_id();
            instrs.push((id, MOpcode::Constant(ConstVal::Number(v)), vec![]));
            ids.push(id);
        }
        let mut acc = ids[0];
        for &id in &ids[1..] {
            let sum = f.fresh_id();
            instrs.push((sum, MOpcode::Add, vec![acc, id]));
            acc = sum;
        }
        let ret = f.fresh_id();
        instrs.push((ret, MOpcode::Return, vec![acc]));
        push_block(&mut f, &[], instrs);
        f
    }

    fn run_gvn(f: &mut MirFunction) {
        let vulns = VulnConfig::default();
        gvn(f, &mut PassContext::new(&vulns));
        assert_eq!(f.validate(), Ok(()));
    }

    fn ids_of(f: &MirFunction, pred: impl Fn(&MOpcode) -> bool) -> Vec<InstrId> {
        let all = f.blocks.iter().flat_map(|b| b.iter_all());
        all.filter(|i| pred(&i.op)).map(|i| i.id).collect()
    }

    #[test]
    fn nan_constants_fold_whatever_their_bits() {
        let quiet = f64::NAN;
        let payload = f64::from_bits(quiet.to_bits() | 1);
        let negative = -quiet;
        assert!(payload.is_nan() && negative.is_nan());
        assert_ne!(quiet.to_bits(), payload.to_bits());
        assert_ne!(quiet.to_bits(), negative.to_bits());
        let mut f = constants(&[quiet, payload, negative]);
        run_gvn(&mut f);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::Constant(_))), 1, "{f}");
    }

    #[test]
    fn signed_zeros_do_not_fold() {
        let mut f = constants(&[0.0, -0.0, 0.0]);
        run_gvn(&mut f);
        let zeros: Vec<u64> = f
            .blocks
            .iter()
            .flat_map(|b| b.iter_all())
            .filter_map(|i| match i.op {
                MOpcode::Constant(ConstVal::Number(n)) => Some(n.to_bits()),
                _ => None,
            })
            .collect();
        assert_eq!(zeros, vec![0.0f64.to_bits(), (-0.0f64).to_bits()], "{f}");
    }

    #[test]
    fn loads_fold_only_for_the_same_global_or_property() {
        let mut f = MirFunction::new("t");
        let base = f.fresh_id();
        let mut instrs = vec![(base, MOpcode::Parameter(0), vec![])];
        let loads = [
            (MOpcode::LoadProperty("x".into()), vec![base]),
            (MOpcode::LoadProperty("y".into()), vec![base]),
            (MOpcode::LoadProperty("x".into()), vec![base]),
            (MOpcode::LoadGlobal(1), vec![]),
            (MOpcode::LoadGlobal(2), vec![]),
            (MOpcode::LoadGlobal(1), vec![]),
        ];
        let mut ids = Vec::new();
        for (op, operands) in loads {
            let id = f.fresh_id();
            instrs.push((id, op, operands));
            ids.push(id);
        }
        let ret = f.fresh_id();
        instrs.push((ret, MOpcode::Return, vec![ids[0]]));
        push_block(&mut f, &[], instrs);
        run_gvn(&mut f);
        // The second `x` and the second global 1 fold; nothing else does.
        let left = ids_of(&f, |o| o.reads_memory());
        assert_eq!(left, vec![ids[0], ids[1], ids[3], ids[4]], "{f}");
    }

    #[test]
    fn equal_guards_fold_only_under_dominance() {
        // block0 checks (i, n) and branches to block1 or block2, which
        // both go to block3. block1 repeats block0's check (dominated:
        // folds) and checks (i, m); block2 and block3 check (i, m) too,
        // and neither block1 nor block2 dominates them: all three stay.
        let mut f = MirFunction::new("t");
        let [i, n, m, c, check0] = [(); 5].map(|_| f.fresh_id());
        let [check1, check_a, goto1] = [(); 3].map(|_| f.fresh_id());
        let [check_b, goto2, check_c, ret, test] = [(); 5].map(|_| f.fresh_id());
        let branch = MOpcode::Test {
            then_block: BlockId(1),
            else_block: BlockId(2),
        };
        push_block(
            &mut f,
            &[],
            vec![
                (i, MOpcode::Parameter(0), vec![]),
                (n, MOpcode::Parameter(1), vec![]),
                (m, MOpcode::Parameter(2), vec![]),
                (c, MOpcode::Parameter(3), vec![]),
                (check0, MOpcode::BoundsCheck, vec![i, n]),
                (test, branch, vec![c]),
            ],
        );
        push_block(
            &mut f,
            &[0],
            vec![
                (check1, MOpcode::BoundsCheck, vec![i, n]),
                (check_a, MOpcode::BoundsCheck, vec![i, m]),
                (goto1, MOpcode::Goto(BlockId(3)), vec![]),
            ],
        );
        push_block(
            &mut f,
            &[0],
            vec![
                (check_b, MOpcode::BoundsCheck, vec![i, m]),
                (goto2, MOpcode::Goto(BlockId(3)), vec![]),
            ],
        );
        push_block(
            &mut f,
            &[1, 2],
            vec![
                (check_c, MOpcode::BoundsCheck, vec![i, m]),
                (ret, MOpcode::Return, vec![check_c]),
            ],
        );
        run_gvn(&mut f);
        let checks = ids_of(&f, |o| matches!(o, MOpcode::BoundsCheck));
        assert_eq!(checks, vec![check0, check_a, check_b, check_c], "{f}");
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
