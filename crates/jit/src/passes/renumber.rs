//! Instruction renumbering (IonMonkey `RenumberInstructions`).
//!
//! Assigns dense, block-ordered ids. Mandatory: lowering sizes its vreg
//! table by id, and several passes assume `id_bound()` is tight.

use std::collections::HashMap;

use jitbull_mir::{InstrId, MirFunction};

use super::PassContext;

/// Renumbers all instructions densely in block order (phis first).
pub fn renumber(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    let mut map: HashMap<InstrId, InstrId> = HashMap::with_capacity(f.instr_count());
    let mut next = 0u32;
    for b in &f.blocks {
        for i in b.iter_all() {
            map.insert(i.id, InstrId(next));
            next += 1;
        }
    }
    for b in &mut f.blocks {
        for i in b.phis.iter_mut().chain(b.instrs.iter_mut()) {
            i.id = map[&i.id];
            for o in &mut i.operands {
                *o = map[o];
            }
        }
    }
    f.set_id_bound(next);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vuln::VulnConfig;
    use jitbull_frontend::parse_program;
    use jitbull_mir::build_mir;
    use jitbull_vm::compile_program;

    #[test]
    fn ids_become_dense_and_graph_stays_valid() {
        let p = parse_program(
            "function f(n) { var t = 0; for (var i = 0; i < n; i++) { t += i; } return t; }",
        )
        .unwrap();
        let m = compile_program(&p).unwrap();
        let mut f = build_mir(m.function(m.function_id("f").unwrap())).unwrap();
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        renumber(&mut f, &mut cx);
        assert_eq!(f.validate(), Ok(()));
        let mut expected = 0u32;
        for b in &f.blocks {
            for i in b.iter_all() {
                assert_eq!(i.id.0, expected);
                expected += 1;
            }
        }
        assert_eq!(f.id_bound(), expected);
    }
}
