//! Shared helpers for pass implementations.

use jitbull_mir::dense::{IdMap, IdSet};
use jitbull_mir::{BlockId, InstrId, Instruction, MOpcode, MirFunction};

/// Maps every instruction id to the block defining it.
pub fn def_blocks(f: &MirFunction) -> IdMap<InstrId, BlockId> {
    let mut map = IdMap::with_bound(f.id_bound() as usize);
    for b in f.block_ids() {
        for i in f.block(b).iter_all() {
            map.insert(i.id, b);
        }
    }
    map
}

/// Every instruction of a function by id, borrowed from it: the entry
/// for `id` is the instruction defining it (the last one in block
/// order, should two share an id).
pub type Defs<'f> = IdMap<InstrId, &'f Instruction>;

/// Indexes every instruction of `f` by id.
pub fn def_instrs(f: &MirFunction) -> Defs<'_> {
    let mut by_id = IdMap::with_bound(f.id_bound() as usize);
    for i in f.blocks.iter().flat_map(|b| b.iter_all()) {
        by_id.insert(i.id, i);
    }
    by_id
}

/// The ids some instruction (phis included) uses as an operand.
pub fn used_ids(f: &MirFunction) -> IdSet<InstrId> {
    let mut used = IdSet::with_bound(f.id_bound() as usize);
    for i in f.blocks.iter().flat_map(|b| b.iter_all()) {
        used.extend(i.operands.iter().copied());
    }
    used
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
fn replace_uses_map(f: &mut MirFunction, map: &IdMap<InstrId, InstrId>) {
    if map.is_empty() {
        return;
    }
    let resolve = |mut id: InstrId| {
        let mut hops = 0;
        while let Some(&next) = map.get(id) {
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
pub fn remove_instrs(f: &mut MirFunction, dead: &IdSet<InstrId>) {
    if dead.is_empty() {
        return;
    }
    for b in &mut f.blocks {
        b.phis.retain(|i| !dead.contains(i.id));
        b.instrs
            .retain(|i| i.op.is_terminator() || !dead.contains(i.id));
    }
}

/// Forwards each replaced instruction to its replacement: rewrites
/// every use of a key of `map` to its value, following chains
/// (`a→b, b→c` rewrites `a` to `c`), then removes the keys'
/// instructions.
pub fn forward(f: &mut MirFunction, map: &IdMap<InstrId, InstrId>) {
    if map.is_empty() {
        return;
    }
    replace_uses_map(f, map);
    remove_instrs(f, &map.keys().collect());
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
    fn def_and_use_tables() {
        let f = mir("function f(a) { return a + a; }", "f");
        let defs = def_blocks(&f);
        assert_eq!(defs.len(), f.instr_count());
        let used = used_ids(&f);
        // Parameter a is used (twice) by the add; the return is unused.
        let param = f.blocks[0].instrs[0].id;
        let ret = f.blocks[0].instrs.last().unwrap().id;
        assert!(used.contains(param) && !used.contains(ret));
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
        let mut dead = IdSet::new();
        dead.insert(b);
        remove_instrs(&mut f, &dead);
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn replacement_chains_resolve() {
        let mut f = mir("function f(a, b) { return a + b; }", "f");
        let a = f.blocks[0].instrs[0].id;
        let b = f.blocks[0].instrs[1].id;
        let mut map = IdMap::new();
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
