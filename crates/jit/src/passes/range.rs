//! Range analysis and bounds-check elimination (IonMonkey
//! `RangeAnalysis` / `EliminateRedundantBoundsChecks`), plus the
//! annotation-only slots (`EdgeCaseAnalysis`, `RangeAssertions`,
//! `AliasAnalysis`) that exist in the pipeline but do not transform IR.

use jitbull_mir::dense::{IdMap, IdSet};
use jitbull_mir::{ConstVal, InstrId, MOpcode, MirFunction};

use super::util::{def_instrs, forward};
use super::{PassContext, Range};

/// Computes conservative value ranges and stores them in the context.
pub fn range_analysis(f: &mut MirFunction, cx: &mut PassContext<'_>) {
    cx.ranges.clear();
    // One forward sweep in block order; misses loop-carried refinement by
    // design (conservative).
    for b in &f.blocks {
        for i in b.iter_all() {
            let r = match &i.op {
                MOpcode::Constant(ConstVal::Number(n)) if n.fract() == 0.0 && n.is_finite() => {
                    Some(Range { lo: *n, hi: *n })
                }
                MOpcode::Ursh => Some(Range {
                    lo: 0.0,
                    hi: u32::MAX as f64,
                }),
                MOpcode::BitAnd => {
                    // x & c is within [0, c] when c >= 0.
                    i.operands
                        .iter()
                        .filter_map(|o| cx.ranges.get(*o))
                        .filter(|r| r.lo >= 0.0)
                        .map(|r| Range { lo: 0.0, hi: r.hi })
                        .next()
                }
                MOpcode::Add => {
                    let a = i.operands.first().and_then(|o| cx.ranges.get(*o));
                    let b = i.operands.get(1).and_then(|o| cx.ranges.get(*o));
                    match (a, b) {
                        (Some(x), Some(y)) => Some(Range {
                            lo: x.lo + y.lo,
                            hi: x.hi + y.hi,
                        }),
                        _ => None,
                    }
                }
                _ => None,
            };
            if let Some(r) = r {
                cx.ranges.insert(i.id, r);
            }
        }
    }
}

/// Lengths provably fixed: arrays allocated in this function with a
/// constant size and never resized or written.
fn fixed_length_arrays(f: &MirFunction) -> IdMap<InstrId, f64> {
    let defs = def_instrs(f);
    let mut sizes: IdMap<InstrId, f64> = IdMap::with_bound(f.id_bound() as usize);
    for b in &f.blocks {
        for i in &b.instrs {
            match &i.op {
                MOpcode::NewArrayN => {
                    if let Some(MOpcode::Constant(ConstVal::Number(n))) =
                        defs.get(i.operands[0]).map(|d| &d.op)
                    {
                        sizes.insert(i.id, *n);
                    }
                }
                MOpcode::NewArray(n) => {
                    sizes.insert(i.id, *n as f64);
                }
                _ => {}
            }
        }
    }
    // Disqualify arrays that are resized, written, passed to calls, or
    // stored anywhere (conservative escape analysis).
    let strip = |id: InstrId| super::util::strip_guards(&defs, id);
    let mut disqualified: IdSet<InstrId> = IdSet::with_bound(f.id_bound() as usize);
    for b in &f.blocks {
        for i in &b.instrs {
            match &i.op {
                MOpcode::SetArrayLength | MOpcode::StoreElement | MOpcode::Intrinsic(_, _) => {
                    disqualified.insert(strip(i.operands[0]));
                }
                MOpcode::Call(_)
                | MOpcode::CallMethod(_)
                | MOpcode::New(_)
                | MOpcode::StoreProperty(_)
                | MOpcode::StoreGlobal(_)
                | MOpcode::NewArray(_)
                | MOpcode::Return => {
                    for o in &i.operands {
                        disqualified.insert(strip(*o));
                    }
                }
                MOpcode::Phi => {
                    for o in &i.operands {
                        disqualified.insert(strip(*o));
                    }
                }
                _ => {}
            }
        }
    }
    sizes.retain(|id, _| !disqualified.contains(id));
    sizes
}

/// Removes bounds checks whose index range provably fits a fixed-length
/// array. Legitimate and conservative; the aggressive (buggy) variants
/// live in [`crate::vuln`].
pub fn bounds_check_elimination(f: &mut MirFunction, cx: &mut PassContext<'_>) {
    let defs = def_instrs(f);
    let fixed = fixed_length_arrays(f);
    let mut replacements: IdMap<InstrId, InstrId> = IdMap::with_bound(f.id_bound() as usize);
    for b in &f.blocks {
        for i in &b.instrs {
            let MOpcode::BoundsCheck = i.op else { continue };
            let idx = i.operands[0];
            let len = i.operands[1];
            let Some(r) = cx.ranges.get(idx) else {
                continue;
            };
            // len must be initializedlength of a fixed-size array.
            let Some(len_def) = defs.get(len) else {
                continue;
            };
            if !matches!(
                len_def.op,
                MOpcode::InitializedLength | MOpcode::ArrayLength
            ) {
                continue;
            }
            let array = super::util::strip_guards(&defs, len_def.operands[0]);
            let Some(&size) = fixed.get(array) else {
                continue;
            };
            if r.lo >= 0.0 && r.hi < size {
                replacements.insert(i.id, idx);
            }
        }
    }
    forward(f, &replacements);
}

/// Annotation-only slot: alias analysis (computes nothing the simplified
/// pipeline needs beyond what GVN re-derives; present to mirror the real
/// pass list and to carry vulnerability hooks).
pub fn alias_analysis(_f: &mut MirFunction, _cx: &mut PassContext<'_>) {}

/// Annotation-only slot: edge case analysis.
pub fn edge_case_analysis(_f: &mut MirFunction, _cx: &mut PassContext<'_>) {}

/// Annotation-only slot: range assertions (debug verification in
/// IonMonkey).
pub fn range_assertions(_f: &mut MirFunction, _cx: &mut PassContext<'_>) {}

/// Graph coherency check (IonMonkey `AssertExtendedGraphCoherency`).
/// Marks the compilation broken instead of panicking.
pub fn check_graph_coherency(f: &mut MirFunction, cx: &mut PassContext<'_>) {
    if let Err(msg) = f.validate() {
        cx.broken = Some(msg);
    }
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

    fn checks(f: &MirFunction) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| b.iter_all())
            .filter(|i| matches!(i.op, MOpcode::BoundsCheck))
            .count()
    }

    #[test]
    fn removes_check_on_constant_index_into_local_fixed_array() {
        let mut f = mir("function f() { var a = [1, 2, 3, 4]; return a[2]; }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        assert_eq!(checks(&f), 1);
        range_analysis(&mut f, &mut cx);
        bounds_check_elimination(&mut f, &mut cx);
        assert_eq!(checks(&f), 0, "{f}");
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn keeps_check_when_array_is_resized() {
        let mut f = mir(
            "function f() { var a = [1, 2, 3, 4]; a.length = 1; return a[2]; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        range_analysis(&mut f, &mut cx);
        bounds_check_elimination(&mut f, &mut cx);
        assert_eq!(checks(&f), 1, "{f}");
    }

    #[test]
    fn keeps_check_when_index_unknown() {
        let mut f = mir("function f(i) { var a = [1, 2, 3]; return a[i]; }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        range_analysis(&mut f, &mut cx);
        bounds_check_elimination(&mut f, &mut cx);
        assert_eq!(checks(&f), 1);
    }

    #[test]
    fn keeps_check_when_array_escapes() {
        let mut f = mir(
            "function g(x) { return x; } function f() { var a = [1, 2]; g(a); return a[1]; }",
            "f",
        );
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        range_analysis(&mut f, &mut cx);
        bounds_check_elimination(&mut f, &mut cx);
        assert_eq!(checks(&f), 1);
    }

    #[test]
    fn ranges_for_masked_values() {
        let mut f = mir("function f(x) { return x & 15; }", "f");
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        range_analysis(&mut f, &mut cx);
        let band = f
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .find(|i| matches!(i.op, MOpcode::BitAnd))
            .unwrap();
        let r = cx.ranges[band.id];
        assert_eq!(r.lo, 0.0);
        assert_eq!(r.hi, 15.0);
    }

    #[test]
    fn coherency_flags_broken_graphs() {
        let mut f = mir("function f() { return 1; }", "f");
        f.blocks[0].instrs.pop(); // drop the terminator
        let vulns = VulnConfig::default();
        let mut cx = PassContext::new(&vulns);
        check_graph_coherency(&mut f, &mut cx);
        assert!(cx.broken.is_some());
    }
}
