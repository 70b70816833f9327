//! Shared helpers for pass implementations.

use std::collections::{HashMap, HashSet};

use jitbull_mir::{BlockId, InstrId, Instruction, MOpcode, MirFunction};

/// Maps every instruction id to the block defining it.
pub fn def_blocks(f: &MirFunction) -> HashMap<InstrId, BlockId> {
    let mut map = HashMap::with_capacity(f.instr_count());
    for b in f.block_ids() {
        for i in f.block(b).iter_all() {
            map.insert(i.id, b);
        }
    }
    map
}

/// Every instruction of a function by id, borrowed from it: entry `k`
/// is the instruction defining `InstrId(k)` (the last one in block
/// order, should two share an id).
pub struct Defs<'f>(Vec<Option<&'f Instruction>>);

impl<'f> Defs<'f> {
    /// The instruction defining `id`, if any.
    pub fn get(&self, id: InstrId) -> Option<&'f Instruction> {
        self.0.get(id.0 as usize).copied().flatten()
    }

    /// Every defined instruction, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &'f Instruction> + '_ {
        self.0.iter().flatten().copied()
    }
}

/// Indexes every instruction of `f` by id. Ids are dense below
/// [`MirFunction::id_bound`], so the index is a table, not a map.
pub fn def_instrs(f: &MirFunction) -> Defs<'_> {
    let mut by_id = vec![None; f.id_bound() as usize];
    for i in f.blocks.iter().flat_map(|b| b.iter_all()) {
        let k = i.id.0 as usize;
        if k >= by_id.len() {
            by_id.resize(k + 1, None);
        }
        by_id[k] = Some(i);
    }
    Defs(by_id)
}

/// Counts how many operand references each instruction has.
pub fn use_counts(f: &MirFunction) -> HashMap<InstrId, usize> {
    let mut map = HashMap::new();
    for b in &f.blocks {
        for i in b.iter_all() {
            for o in &i.operands {
                *map.entry(*o).or_insert(0) += 1;
            }
        }
    }
    map
}

/// Replaces every use of `from` with `to` across the whole function
/// (operands and phi inputs).
pub fn replace_uses(f: &mut MirFunction, from: InstrId, to: InstrId) {
    for b in &mut f.blocks {
        for i in b.phis.iter_mut().chain(b.instrs.iter_mut()) {
            for o in &mut i.operands {
                if *o == from {
                    *o = to;
                }
            }
        }
    }
}

/// Applies a set of `from → to` replacements in one sweep, following
/// chains (`a→b, b→c` rewrites `a` to `c`).
pub fn replace_uses_map(f: &mut MirFunction, map: &HashMap<InstrId, InstrId>) {
    if map.is_empty() {
        return;
    }
    let resolve = |mut id: InstrId| {
        let mut hops = 0;
        while let Some(&next) = map.get(&id) {
            id = next;
            hops += 1;
            if hops > map.len() {
                break; // cycle guard; cannot happen with well-formed passes
            }
        }
        id
    };
    for b in &mut f.blocks {
        for i in b.phis.iter_mut().chain(b.instrs.iter_mut()) {
            for o in &mut i.operands {
                *o = resolve(*o);
            }
        }
    }
}

/// Removes the given non-terminator instructions (body and phi lists).
pub fn remove_instrs(f: &mut MirFunction, dead: &HashSet<InstrId>) {
    if dead.is_empty() {
        return;
    }
    for b in &mut f.blocks {
        b.phis.retain(|i| !dead.contains(&i.id));
        b.instrs
            .retain(|i| i.op.is_terminator() || !dead.contains(&i.id));
    }
}

/// Strips value-transparent guards (`unbox`, `typeguard`, `boundscheck`)
/// to find the underlying definition id.
pub fn strip_guards(defs: &Defs<'_>, mut id: InstrId) -> InstrId {
    loop {
        match defs.get(id) {
            Some(i) if i.op.is_guard() && !i.operands.is_empty() => id = i.operands[0],
            _ => return id,
        }
    }
}

/// Whether two ids denote "the same array" for vulnerability-trigger
/// purposes: equal after stripping guards, or both loads from the same
/// global slot / property name.
pub fn same_array_root(defs: &Defs<'_>, a: InstrId, b: InstrId) -> bool {
    let ra = strip_guards(defs, a);
    let rb = strip_guards(defs, b);
    if ra == rb {
        return true;
    }
    match (defs.get(ra).map(|i| &i.op), defs.get(rb).map(|i| &i.op)) {
        (Some(MOpcode::LoadGlobal(x)), Some(MOpcode::LoadGlobal(y))) => x == y,
        (Some(MOpcode::LoadProperty(x)), Some(MOpcode::LoadProperty(y))) => x == y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull_frontend::parse_program;
    use jitbull_mir::build_mir;
    use jitbull_vm::compile_program;

    fn mir(src: &str, name: &str) -> MirFunction {
        let p = parse_program(src).unwrap();
        let m = compile_program(&p).unwrap();
        build_mir(m.function(m.function_id(name).unwrap())).unwrap()
    }

    #[test]
    fn def_and_use_maps() {
        let f = mir("function f(a) { return a + a; }", "f");
        let defs = def_blocks(&f);
        assert_eq!(defs.len(), f.instr_count());
        let uses = use_counts(&f);
        // Parameter a is used twice by the add.
        let param = f.blocks[0].instrs[0].id;
        assert_eq!(uses[&param], 2);
    }

    #[test]
    fn replace_and_remove() {
        let mut f = mir("function f(a, b) { return a + b; }", "f");
        let a = f.blocks[0].instrs[0].id;
        let b = f.blocks[0].instrs[1].id;
        replace_uses(&mut f, b, a);
        let add = f
            .blocks
            .iter()
            .flat_map(|bl| bl.instrs.iter())
            .find(|i| matches!(i.op, MOpcode::Add))
            .unwrap();
        assert_eq!(add.operands, vec![a, a]);
        let mut dead = HashSet::new();
        dead.insert(b);
        remove_instrs(&mut f, &dead);
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn replacement_chains_resolve() {
        let mut f = mir("function f(a, b) { return a + b; }", "f");
        let a = f.blocks[0].instrs[0].id;
        let b = f.blocks[0].instrs[1].id;
        let mut map = HashMap::new();
        map.insert(a, b); // a -> b
        map.insert(b, a); // pathological cycle must not hang
        replace_uses_map(&mut f, &map);
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn guard_stripping_finds_array_root() {
        let f = mir("function f(a, i) { return a[i]; }", "f");
        let defs = def_instrs(&f);
        let load = f
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .find(|i| matches!(i.op, MOpcode::LoadElement))
            .unwrap();
        let root = strip_guards(&defs, load.operands[0]);
        assert!(matches!(defs.get(root).unwrap().op, MOpcode::Parameter(0)));
        assert!(same_array_root(&defs, load.operands[0], root));
    }
}
