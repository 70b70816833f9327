//! Injectable models of the eight IonMonkey CVEs the paper evaluates
//! (§VI-B security set: CVE-2019-9791, -9810, -11707, -17026; §VI-D
//! scalability set: CVE-2019-9792, -9795, -9813, CVE-2020-26952).
//!
//! Each model is an **incorrect transform** attached to a specific
//! pipeline slot, firing only when the compiled function exhibits the
//! IR pattern its proof-of-concept sets up (the *trigger*). The effect is
//! always the removal or weakening of a guard (`boundscheck` /
//! `unbox:array`), which is exactly the bug class the paper's Section III
//! analysis identifies; with the guard gone, the LIR executor's raw memory
//! accesses become reachable and the simulated heap can actually be
//! corrupted.
//!
//! Enabling a model makes the engine *vulnerable* (it models running the
//! unpatched Firefox 65); it does not by itself exploit anything — the
//! demonstrator codes in `jitbull-vdc` do that.

use std::collections::{BTreeSet, HashSet};
use std::fmt;

use jitbull_mir::analysis::natural_loops;
use jitbull_mir::{InstrId, MOpcode, MirFunction};

use crate::passes::util::{
    def_instrs, remove_instrs, replace_uses_map, same_array_root, strip_guards,
};
use crate::passes::PassContext;
use crate::pipeline::slot;

/// One modeled vulnerability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CveId {
    /// Type-inference confusion → `unbox:array` dropped on phi'd bases
    /// (crash PoC). Injected into *TypeSpecialization*.
    Cve2019_9791,
    /// Masked-index bounds check removed by GVN when the array is also
    /// resized (crash PoC). Injected into *GVN*.
    Cve2019_9810,
    /// `Array.pop`-related check removal (payload PoC). Injected into
    /// *EliminateRedundantChecks* (first application).
    Cve2019_11707,
    /// The paper's running example: GVN removes the bounds check after an
    /// `arr.length` shrink due to bad alias/dependency modeling (payload
    /// PoC). Injected into *GVN*.
    Cve2019_17026,
    /// LICM "hoists" checks past calls that may resize the array.
    /// Injected into *LICM*.
    Cve2019_9792,
    /// Range analysis trusts a growth-only assumption for induction
    /// indexes when `push` is present. Injected into
    /// *BoundsCheckElimination*.
    Cve2019_9795,
    /// Redundant-check merge ignores dominance across sibling blocks.
    /// Injected into *EliminateRedundantChecks* (second application).
    Cve2019_9813,
    /// Linear-arithmetic folding "proves" `x + c` in range. Injected into
    /// *FoldLinearArithmetic*.
    Cve2020_26952,
}

impl CveId {
    /// All modeled CVEs, security-evaluation set first.
    pub fn all() -> [CveId; 8] {
        [
            CveId::Cve2019_9791,
            CveId::Cve2019_9810,
            CveId::Cve2019_11707,
            CveId::Cve2019_17026,
            CveId::Cve2019_9792,
            CveId::Cve2019_9795,
            CveId::Cve2019_9813,
            CveId::Cve2020_26952,
        ]
    }

    /// The four CVEs of the paper's §VI-B security evaluation.
    pub fn security_set() -> [CveId; 4] {
        [
            CveId::Cve2019_9791,
            CveId::Cve2019_9810,
            CveId::Cve2019_11707,
            CveId::Cve2019_17026,
        ]
    }

    /// Canonical CVE identifier.
    pub fn name(self) -> &'static str {
        match self {
            CveId::Cve2019_9791 => "CVE-2019-9791",
            CveId::Cve2019_9810 => "CVE-2019-9810",
            CveId::Cve2019_11707 => "CVE-2019-11707",
            CveId::Cve2019_17026 => "CVE-2019-17026",
            CveId::Cve2019_9792 => "CVE-2019-9792",
            CveId::Cve2019_9795 => "CVE-2019-9795",
            CveId::Cve2019_9813 => "CVE-2019-9813",
            CveId::Cve2020_26952 => "CVE-2020-26952",
        }
    }

    /// Parses a canonical CVE identifier.
    pub fn from_name(name: &str) -> Option<CveId> {
        CveId::all().into_iter().find(|c| c.name() == name)
    }

    /// The pipeline slot whose pass carries this bug.
    pub fn pass_slot(self) -> usize {
        match self {
            CveId::Cve2019_9791 => slot::TYPE_SPECIALIZATION,
            CveId::Cve2019_9810 => slot::GVN_1,
            CveId::Cve2019_11707 => slot::ELIMINATE_REDUNDANT_CHECKS_1,
            CveId::Cve2019_17026 => slot::GVN_1,
            CveId::Cve2019_9792 => slot::LICM,
            CveId::Cve2019_9795 => slot::BOUNDS_CHECK_ELIMINATION,
            CveId::Cve2019_9813 => slot::ELIMINATE_REDUNDANT_CHECKS_2,
            CveId::Cve2020_26952 => slot::FOLD_LINEAR_ARITHMETIC,
        }
    }
}

impl fmt::Display for CveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The set of vulnerabilities present in this engine build (i.e. which
/// unpatched bugs the simulated browser ships with).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VulnConfig {
    enabled: BTreeSet<CveId>,
}

impl VulnConfig {
    /// No vulnerabilities (a fully patched engine).
    pub fn none() -> Self {
        VulnConfig::default()
    }

    /// All eight modeled vulnerabilities.
    pub fn all() -> Self {
        let mut v = VulnConfig::default();
        for c in CveId::all() {
            v.enabled.insert(c);
        }
        v
    }

    /// An engine vulnerable to exactly these CVEs.
    pub fn with(cves: impl IntoIterator<Item = CveId>) -> Self {
        VulnConfig {
            enabled: cves.into_iter().collect(),
        }
    }

    /// Enables one CVE.
    pub fn enable(&mut self, cve: CveId) {
        self.enabled.insert(cve);
    }

    /// Whether the CVE is enabled.
    pub fn is_enabled(&self, cve: CveId) -> bool {
        self.enabled.contains(&cve)
    }

    /// All enabled CVEs.
    pub fn enabled(&self) -> impl Iterator<Item = CveId> + '_ {
        self.enabled.iter().copied()
    }

    /// The enabled set as a bitmask, bit `cve as u32` per enabled CVE:
    /// exact, so two configs share a mask iff they enable the same CVEs.
    /// Compile keys hold it, so changing the engine's vulnerability
    /// surface can never serve a stale extraction.
    pub fn mask(&self) -> u64 {
        self.enabled.iter().fold(0, |m, &cve| m | 1 << cve as u32)
    }
}

/// Applies every enabled vulnerability whose pass lives in `slot_index`,
/// right after the legitimate pass body ran. Fired transforms are logged
/// in the context.
pub fn apply_vulnerabilities(slot_index: usize, f: &mut MirFunction, cx: &mut PassContext<'_>) {
    for cve in CveId::all() {
        if cve.pass_slot() == slot_index && cx.vulns.is_enabled(cve) {
            let fired = match cve {
                CveId::Cve2019_9791 => cve_9791(f),
                CveId::Cve2019_9810 => cve_9810(f),
                CveId::Cve2019_11707 => cve_11707(f),
                CveId::Cve2019_17026 => cve_17026(f),
                CveId::Cve2019_9792 => cve_9792(f),
                CveId::Cve2019_9795 => cve_9795(f),
                CveId::Cve2019_9813 => cve_9813(f),
                CveId::Cve2020_26952 => cve_26952(f),
            };
            if fired {
                cx.triggered.push((cve, slot_index));
            }
        }
    }
}

/// Removes the given bounds checks, rewiring users to the raw index.
fn drop_checks(f: &mut MirFunction, checks: Vec<(InstrId, InstrId)>) -> bool {
    if checks.is_empty() {
        return false;
    }
    let map: std::collections::HashMap<InstrId, InstrId> = checks.iter().copied().collect();
    let dead: HashSet<InstrId> = checks.iter().map(|(id, _)| *id).collect();
    replace_uses_map(f, &map);
    remove_instrs(f, &dead);
    true
}

/// All `boundscheck` instructions as `(id, idx operand, len operand)`.
fn all_checks(f: &MirFunction) -> Vec<(InstrId, InstrId, InstrId)> {
    f.blocks
        .iter()
        .flat_map(|b| b.instrs.iter())
        .filter(|i| matches!(i.op, MOpcode::BoundsCheck))
        .map(|i| (i.id, i.operands[0], i.operands[1]))
        .collect()
}

/// CVE-2019-17026 model: if the function shrinks some array's length
/// (`setarraylength`), GVN's (incorrect) dependency analysis treats the
/// pre-shrink length as still valid and removes the bounds checks on that
/// same array.
fn cve_17026(f: &mut MirFunction) -> bool {
    let defs = def_instrs(f);
    let resized: Vec<InstrId> = f
        .blocks
        .iter()
        .flat_map(|b| b.instrs.iter())
        .filter(|i| matches!(i.op, MOpcode::SetArrayLength))
        .map(|i| i.operands[0])
        .collect();
    if resized.is_empty() {
        return false;
    }
    let mut victims = Vec::new();
    for (id, idx, len) in all_checks(f) {
        let Some(len_def) = defs.get(&len) else {
            continue;
        };
        if !matches!(
            len_def.op,
            MOpcode::InitializedLength | MOpcode::ArrayLength
        ) {
            continue;
        }
        let array = len_def.operands[0];
        if resized.iter().any(|r| same_array_root(&defs, *r, array)) {
            victims.push((id, idx));
        }
    }
    drop_checks(f, victims)
}

/// CVE-2019-9810 model: a masked index (`x & c`) is "proven" in range and
/// its check removed whenever the function also resizes an array — the
/// same root flaw as 17026, surfacing on the masked-index pattern.
fn cve_9810(f: &mut MirFunction) -> bool {
    let defs = def_instrs(f);
    let has_resize = f
        .blocks
        .iter()
        .flat_map(|b| b.instrs.iter())
        .any(|i| matches!(i.op, MOpcode::SetArrayLength));
    if !has_resize {
        return false;
    }
    let mut victims = Vec::new();
    for (id, idx, _len) in all_checks(f) {
        let root = strip_guards(&defs, idx);
        if matches!(defs.get(&root).map(|d| &d.op), Some(MOpcode::BitAnd)) {
            victims.push((id, idx));
        }
    }
    drop_checks(f, victims)
}

/// CVE-2019-11707 model: checks on arrays that also flow into
/// `Array.prototype.pop` are considered redundant (the pop's length
/// update is mis-modeled).
fn cve_11707(f: &mut MirFunction) -> bool {
    let defs = def_instrs(f);
    let popped: Vec<InstrId> = f
        .blocks
        .iter()
        .flat_map(|b| b.instrs.iter())
        .filter(|i| {
            matches!(
                i.op,
                MOpcode::Intrinsic(jitbull_vm::bytecode::IntrinsicMethod::Pop, _)
            )
        })
        .map(|i| i.operands[0])
        .collect();
    if popped.is_empty() {
        return false;
    }
    let mut victims = Vec::new();
    for (id, idx, len) in all_checks(f) {
        let Some(len_def) = defs.get(&len) else {
            continue;
        };
        if !matches!(
            len_def.op,
            MOpcode::InitializedLength | MOpcode::ArrayLength
        ) {
            continue;
        }
        let array = len_def.operands[0];
        if popped.iter().any(|p| same_array_root(&defs, *p, array)) {
            victims.push((id, idx));
        }
    }
    drop_checks(f, victims)
}

/// CVE-2019-9791 model: when a phi merges `undefined` into a value that
/// is also used as an element-access base, type inference wrongly
/// concludes the base is always an array and drops its `unbox:array`
/// guard. With the guard gone, a number flowing in is dereferenced as a
/// heap address (type confusion).
fn cve_9791(f: &mut MirFunction) -> bool {
    let defs = def_instrs(f);
    // A phi is "poisoned" when one of its inputs is constant undefined or
    // a number while others are not.
    let poisoned_phis: HashSet<InstrId> = f
        .blocks
        .iter()
        .flat_map(|b| b.phis.iter())
        .filter(|phi| {
            phi.operands.iter().any(|o| {
                matches!(
                    defs.get(o).map(|d| &d.op),
                    Some(MOpcode::Constant(jitbull_mir::ConstVal::Undefined))
                        | Some(MOpcode::Constant(jitbull_mir::ConstVal::Number(_)))
                )
            })
        })
        .map(|phi| phi.id)
        .collect();
    if poisoned_phis.is_empty() {
        return false;
    }
    // Drop unbox:array guards whose operand resolves to a poisoned phi.
    let mut map = std::collections::HashMap::new();
    let mut dead = HashSet::new();
    for b in &f.blocks {
        for i in &b.instrs {
            if let MOpcode::Unbox(jitbull_mir::TypeHint::Array) = i.op {
                let root = strip_guards(&defs, i.operands[0]);
                if poisoned_phis.contains(&root) {
                    map.insert(i.id, i.operands[0]);
                    dead.insert(i.id);
                }
            }
        }
    }
    if map.is_empty() {
        return false;
    }
    replace_uses_map(f, &map);
    remove_instrs(f, &dead);
    true
}

/// CVE-2019-9792 model: LICM treats bounds checks inside loops containing
/// calls as loop-invariant and removes them from the loop ("hoists past
/// the call" — but the callee can resize the array).
fn cve_9792(f: &mut MirFunction) -> bool {
    let loops = natural_loops(f);
    let mut victims = Vec::new();
    for l in &loops {
        let has_call = l.members.iter().any(|b| {
            f.block(*b)
                .instrs
                .iter()
                .any(|i| matches!(i.op, MOpcode::Call(_) | MOpcode::CallMethod(_)))
        });
        if !has_call {
            continue;
        }
        for b in &l.members {
            for i in &f.block(*b).instrs {
                if matches!(i.op, MOpcode::BoundsCheck) {
                    victims.push((i.id, i.operands[0]));
                }
            }
        }
    }
    victims.dedup();
    drop_checks(f, victims)
}

/// CVE-2019-9795 model: with `push` present, range analysis assumes the
/// array only grows and removes checks whose index is a loop-carried phi.
fn cve_9795(f: &mut MirFunction) -> bool {
    let defs = def_instrs(f);
    let has_push = f.blocks.iter().flat_map(|b| b.instrs.iter()).any(|i| {
        matches!(
            i.op,
            MOpcode::Intrinsic(jitbull_vm::bytecode::IntrinsicMethod::Push, _)
        )
    });
    if !has_push {
        return false;
    }
    let mut victims = Vec::new();
    for (id, idx, _len) in all_checks(f) {
        let root = strip_guards(&defs, idx);
        if matches!(defs.get(&root).map(|d| &d.op), Some(MOpcode::Phi)) {
            victims.push((id, idx));
        }
    }
    drop_checks(f, victims)
}

/// CVE-2019-9813 model: the redundancy merge forgets to require
/// dominance — any later (block-order) check on an array that has an
/// earlier check *somewhere* is removed.
fn cve_9813(f: &mut MirFunction) -> bool {
    let defs = def_instrs(f);
    let checks = all_checks(f);
    if checks.len() < 2 {
        return false;
    }
    // Block-order position of each check.
    let mut seen_roots: HashSet<InstrId> = HashSet::new();
    let mut victims = Vec::new();
    for b in &f.blocks {
        for i in &b.instrs {
            if !matches!(i.op, MOpcode::BoundsCheck) {
                continue;
            }
            let Some(len_def) = defs.get(&i.operands[1]) else {
                continue;
            };
            if len_def.operands.is_empty() {
                continue;
            }
            let root = strip_guards(&defs, len_def.operands[0]);
            if !seen_roots.insert(root) {
                victims.push((i.id, i.operands[0]));
            }
        }
    }
    drop_checks(f, victims)
}

/// CVE-2020-26952 model: linear-arithmetic folding "proves" any index of
/// the form `x + constant` in range and removes its check.
fn cve_26952(f: &mut MirFunction) -> bool {
    let defs = def_instrs(f);
    let mut victims = Vec::new();
    for (id, idx, _len) in all_checks(f) {
        let root = strip_guards(&defs, idx);
        let Some(d) = defs.get(&root) else { continue };
        if matches!(d.op, MOpcode::Add) {
            let rhs_const = d
                .operands
                .get(1)
                .and_then(|o| defs.get(o))
                .map(|x| matches!(x.op, MOpcode::Constant(jitbull_mir::ConstVal::Number(_))))
                .unwrap_or(false);
            if rhs_const {
                victims.push((id, idx));
            }
        }
    }
    drop_checks(f, victims)
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

    fn checks(f: &MirFunction) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| b.iter_all())
            .filter(|i| matches!(i.op, MOpcode::BoundsCheck))
            .count()
    }

    #[test]
    fn cve_ids_round_trip() {
        for cve in CveId::all() {
            assert_eq!(CveId::from_name(cve.name()), Some(cve));
        }
        assert_eq!(CveId::from_name("CVE-1999-0001"), None);
    }

    #[test]
    fn config_controls_application() {
        let mut f = mir(
            "function pwn(a, v) { a.length = 4; a[20] = v; return a[0]; }",
            "pwn",
        );
        // Disabled: nothing happens.
        let vulns = VulnConfig::none();
        let mut cx = PassContext::new(&vulns);
        let before = checks(&f);
        apply_vulnerabilities(slot::GVN_1, &mut f, &mut cx);
        assert_eq!(checks(&f), before);
        assert!(cx.triggered.is_empty());
        // Enabled: checks on the resized array are gone.
        let vulns = VulnConfig::with([CveId::Cve2019_17026]);
        let mut cx = PassContext::new(&vulns);
        apply_vulnerabilities(slot::GVN_1, &mut f, &mut cx);
        assert_eq!(checks(&f), 0, "{f}");
        assert_eq!(cx.triggered, vec![(CveId::Cve2019_17026, slot::GVN_1)]);
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn cve_17026_needs_a_resize() {
        let mut f = mir("function f(a, i) { return a[i]; }", "f");
        assert!(!cve_17026(&mut f));
        assert_eq!(checks(&f), 1);
    }

    #[test]
    fn cve_9810_needs_mask_and_resize() {
        let mut f = mir("function f(a, i) { a.length = 2; return a[i & 255]; }", "f");
        assert!(cve_9810(&mut f));
        assert_eq!(checks(&f), 0);
        let mut g = mir("function f(a, i) { return a[i & 255]; }", "f");
        assert!(!cve_9810(&mut g));
        let mut h = mir("function f(a, i) { a.length = 2; return a[i]; }", "f");
        assert!(!cve_9810(&mut h));
    }

    #[test]
    fn cve_11707_triggers_on_pop() {
        let mut f = mir("function f(a, i, v) { a.pop(); a[i] = v; return 0; }", "f");
        assert!(cve_11707(&mut f));
        assert_eq!(checks(&f), 0);
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn cve_9791_drops_unbox_on_poisoned_phi() {
        let mut f = mir(
            "function f(c, a, i) { var b; if (c) { b = a; } else { b = 3735928559; } return b[i]; }",
            "f",
        );
        let unboxes_before = f
            .blocks
            .iter()
            .flat_map(|b| b.iter_all())
            .filter(|i| matches!(i.op, MOpcode::Unbox(jitbull_mir::TypeHint::Array)))
            .count();
        assert!(unboxes_before >= 1);
        assert!(cve_9791(&mut f));
        let unboxes_after = f
            .blocks
            .iter()
            .flat_map(|b| b.iter_all())
            .filter(|i| matches!(i.op, MOpcode::Unbox(jitbull_mir::TypeHint::Array)))
            .count();
        assert_eq!(unboxes_after, 0, "{f}");
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn cve_9792_strips_checks_in_call_loops() {
        let mut f = mir(
            "function g() { return 0; } function f(a, n, v) { for (var i = 0; i < n; i++) { g(); a[i] = v; } return 0; }",
            "f",
        );
        assert!(cve_9792(&mut f));
        assert_eq!(checks(&f), 0);
        // No call in the loop: no trigger.
        let mut h = mir(
            "function f(a, n, v) { for (var i = 0; i < n; i++) { a[i] = v; } return 0; }",
            "f",
        );
        assert!(!cve_9792(&mut h));
    }

    #[test]
    fn cve_9795_triggers_on_push_with_phi_index() {
        let mut f = mir(
            "function f(a, n) { var t = 0; a.push(1); for (var i = 0; i < n; i++) { t += a[i]; } return t; }",
            "f",
        );
        assert!(cve_9795(&mut f));
        assert_eq!(checks(&f), 0);
    }

    #[test]
    fn cve_9813_removes_non_dominated_duplicate() {
        let mut f = mir(
            "function f(a, i, c) { if (c) { a[i] = 1; } else { a[i] = 2; } return 0; }",
            "f",
        );
        assert_eq!(checks(&f), 2);
        assert!(cve_9813(&mut f));
        assert_eq!(checks(&f), 1);
    }

    #[test]
    fn cve_26952_removes_offset_index_checks() {
        let mut f = mir("function f(a, i) { return a[i + 3]; }", "f");
        assert!(cve_26952(&mut f));
        assert_eq!(checks(&f), 0);
        let mut g = mir("function f(a, i) { return a[i]; }", "f");
        assert!(!cve_26952(&mut g));
    }

    #[test]
    fn mask_is_one_bit_per_enabled_cve() {
        assert_eq!(VulnConfig::none().mask(), 0);
        assert_eq!(VulnConfig::all().mask(), (1 << CveId::all().len()) - 1);
        let singles: u64 = CveId::all()
            .into_iter()
            .map(|cve| VulnConfig::with([cve]).mask())
            .inspect(|m| assert_eq!(m.count_ones(), 1))
            .fold(0, |acc, m| {
                assert_eq!(acc & m, 0, "two CVEs share a bit");
                acc | m
            });
        assert_eq!(singles, VulnConfig::all().mask());
        // Order of enablement is irrelevant: the set is canonical.
        let mut a = VulnConfig::none();
        a.enable(CveId::Cve2019_9810);
        a.enable(CveId::Cve2019_17026);
        assert_eq!(
            a.mask(),
            VulnConfig::with([CveId::Cve2019_17026, CveId::Cve2019_9810]).mask()
        );
    }
}
