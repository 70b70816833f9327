//! Dead code elimination (IonMonkey `EliminateDeadCode`).
//!
//! Liveness roots are effectful instructions and terminators; anything a
//! root (transitively) references stays. Guards survive exactly when the
//! access they protect survives — an orphaned guard is removable, which is
//! correct because nothing consumes its vouching.

use std::collections::HashSet;

use jitbull_mir::{InstrId, MirFunction};

use super::util::remove_instrs;
use super::PassContext;

/// Removes pure instructions and phis that no live instruction references.
pub fn dce(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    let mut live: HashSet<InstrId> = HashSet::new();
    let mut work: Vec<InstrId> = Vec::new();
    for b in &f.blocks {
        for i in &b.instrs {
            if i.op.is_effectful() || i.op.is_terminator() {
                live.insert(i.id);
                work.extend(&i.operands);
            }
        }
    }
    // Operand index for transitive marking.
    let defs = super::util::def_instrs(f);
    while let Some(id) = work.pop() {
        if !live.insert(id) {
            continue;
        }
        if let Some(i) = defs.get(&id) {
            work.extend(&i.operands);
        }
    }
    let dead: HashSet<InstrId> = defs
        .keys()
        .copied()
        .filter(|id| !live.contains(id))
        .collect();
    remove_instrs(f, &dead);
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

    fn count(f: &MirFunction, pred: impl Fn(&MOpcode) -> bool) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| b.iter_all())
            .filter(|i| pred(&i.op))
            .count()
    }

    #[test]
    fn removes_unused_arithmetic() {
        let mut f = mir("function f(a, b) { var unused = a * b; return a; }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::Mul)), 1);
        dce(&mut f, &mut cx);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::Mul)), 0);
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn keeps_effectful_instructions() {
        let mut f = mir(
            "function g() { return 1; } function f(a) { g(); a[0] = 2; print(a); return 0; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        dce(&mut f, &mut cx);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::Call(_))), 1);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::StoreElement)), 1);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::Print)), 1);
        // The store's boundscheck chain stays because the store uses it.
        assert_eq!(count(&f, |o| matches!(o, MOpcode::BoundsCheck)), 1);
    }

    #[test]
    fn removes_unused_load_and_its_guards() {
        let mut f = mir("function f(a, i) { var x = a[i]; return 7; }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        dce(&mut f, &mut cx);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::LoadElement)), 0);
        assert_eq!(count(&f, |o| matches!(o, MOpcode::BoundsCheck)), 0);
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn removes_dead_loop_computation_chain() {
        let mut f = mir(
            "function f(n) { var u = 0; var t = 0; for (var i = 0; i < n; i++) { u = u + 2; t = t + 1; } return t; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        let adds_before = count(&f, |o| matches!(o, MOpcode::Add));
        dce(&mut f, &mut cx);
        let adds_after = count(&f, |o| matches!(o, MOpcode::Add));
        assert!(adds_after < adds_before, "{f}");
        assert_eq!(f.validate(), Ok(()));
    }
}
