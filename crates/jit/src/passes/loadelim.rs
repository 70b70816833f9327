//! Block-local redundant property-load elimination (a simplified
//! IonMonkey `ScalarReplacement`-family optimization).
//!
//! Within one block, a `loadproperty` that re-reads a (base, name) pair
//! already read or written — with no intervening instruction that could
//! write memory — is forwarded. Writes to a property invalidate cached
//! entries for that name on *every* base (aliasing-conservative).

use std::collections::HashMap;

use jitbull_mir::dense::IdMap;
use jitbull_mir::{InstrId, MOpcode, MirFunction};

use super::util::forward;
use super::PassContext;

/// Runs redundant-load elimination.
pub fn redundant_load_elimination(f: &mut MirFunction, _cx: &mut PassContext<'_>) {
    let mut replacements: IdMap<InstrId, InstrId> = IdMap::with_bound(f.id_bound() as usize);
    // (base, name) -> known value. Names are script content, so the
    // table keeps std's keyed hasher.
    let mut known: HashMap<(InstrId, &str), InstrId> = HashMap::new();
    for b in &f.blocks {
        known.clear();
        for i in &b.instrs {
            match &i.op {
                MOpcode::LoadProperty(name) => {
                    let k = (i.operands[0], &**name);
                    if let Some(&v) = known.get(&k) {
                        replacements.insert(i.id, v);
                    } else {
                        known.insert(k, i.id);
                    }
                }
                MOpcode::StoreProperty(name) => {
                    let (base, value) = (i.operands[0], i.operands[1]);
                    known.retain(|&(_, n), _| n != &**name);
                    known.insert((base, &**name), value);
                }
                op if op.is_effectful() => known.clear(),
                _ => {}
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
    use jitbull_mir::build_mir;
    use jitbull_vm::compile_program;

    fn mir(src: &str, name: &str) -> MirFunction {
        let p = parse_program(src).unwrap();
        let m = compile_program(&p).unwrap();
        build_mir(m.function(m.function_id(name).unwrap())).unwrap()
    }

    fn loads(f: &MirFunction) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| b.iter_all())
            .filter(|i| matches!(i.op, MOpcode::LoadProperty(_)))
            .count()
    }

    #[test]
    fn forwards_repeated_reads() {
        let mut f = mir("function f(o) { return o.x + o.x; }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        assert_eq!(loads(&f), 2);
        redundant_load_elimination(&mut f, &mut cx);
        assert_eq!(loads(&f), 1);
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn forwards_store_to_load() {
        let mut f = mir("function f(o, v) { o.x = v; return o.x; }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        redundant_load_elimination(&mut f, &mut cx);
        assert_eq!(loads(&f), 0, "{f}");
    }

    #[test]
    fn calls_invalidate_cache() {
        let mut f = mir(
            "function g() { return 0; } function f(o) { var a = o.x; g(); return a + o.x; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        redundant_load_elimination(&mut f, &mut cx);
        assert_eq!(loads(&f), 2);
    }

    #[test]
    fn store_to_same_name_other_base_invalidates() {
        let mut f = mir(
            "function f(o, p, v) { var a = o.x; p.x = v; return a + o.x; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        redundant_load_elimination(&mut f, &mut cx);
        // o and p might alias: the second o.x must be re-read.
        assert_eq!(loads(&f), 2);
    }
}
