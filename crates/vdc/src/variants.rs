//! The paper's four variant-generation approaches (§VI-B-b):
//!
//! 1. **Renaming script variables** (Terser-like mangling) — shows JITBULL
//!    is not tied to syntax;
//! 2. **Minifying code** — renaming plus whitespace/formatting removal;
//! 3. **Mixing independent instructions and adding JITed functions** —
//!    reorders commuting statements inside function bodies and adds decoy
//!    hot functions that get JIT-compiled but play no part in the exploit;
//! 4. **Adding sub-functions** — splits each JITed function behind a chain
//!    of wrappers, multiplying the number of JITed functions and
//!    obfuscating which one carries the exploit.
//!
//! Every generator takes and returns a complete [`Vdc`]; outputs are
//! re-parsed, guaranteeing the variants are valid programs. The
//! `validate` tests check the paper's key property: each variant still
//! exploits the vulnerable engine.

use std::collections::{HashMap, HashSet};

use jitbull_frontend::ast::{Expr, FunctionDecl, Program, Stmt, Target};
use jitbull_frontend::parse_program;
use jitbull_frontend::printer::{print_program_with, Style};
use jitbull_frontend::visit::{collect_var_reads, collect_var_writes, stmt_has_heap_effects};

use crate::catalog::Vdc;

/// The four variant kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariantKind {
    /// Approach 1: rename every user identifier.
    Renamed,
    /// Approach 2: rename + minified output.
    Minified,
    /// Approach 3: reorder independent statements + decoy JITed functions.
    Reordered,
    /// Approach 4: wrap each function behind sub-function chains.
    Split,
}

impl VariantKind {
    /// All four kinds in paper order.
    pub fn all() -> [VariantKind; 4] {
        [
            VariantKind::Renamed,
            VariantKind::Minified,
            VariantKind::Reordered,
            VariantKind::Split,
        ]
    }

    /// Suffix appended to the variant's name.
    pub fn suffix(self) -> &'static str {
        match self {
            VariantKind::Renamed => "renamed",
            VariantKind::Minified => "minified",
            VariantKind::Reordered => "reordered",
            VariantKind::Split => "split",
        }
    }
}

/// Names with compiler-level meaning that must never be renamed.
const RESERVED: &[&str] = &["print", "Math", "String", "Array"];

/// Generates a variant of a demonstrator code.
///
/// # Panics
///
/// Panics if the input source does not parse (catalog sources always do).
pub fn generate(base: &Vdc, kind: VariantKind) -> Vdc {
    let program = parse_program(&base.source).expect("catalog source parses");
    let (program, trigger_map, minified) = match kind {
        VariantKind::Renamed => {
            let (p, map) = rename_identifiers(program);
            (p, map, false)
        }
        VariantKind::Minified => {
            let (p, map) = rename_identifiers(program);
            (p, map, true)
        }
        VariantKind::Reordered => {
            let p = add_decoys(reorder_statements(program));
            (p, HashMap::new(), false)
        }
        VariantKind::Split => {
            let (p, map) = split_functions(program);
            (p, map, false)
        }
    };
    let style = if minified {
        Style::Minified
    } else {
        Style::Pretty
    };
    let source = print_program_with(&program, style);
    // Ensure the output is valid by re-parsing it.
    parse_program(&source).expect("generated variant parses");
    let trigger_functions = base
        .trigger_functions
        .iter()
        .map(|t| trigger_map.get(t).cloned().unwrap_or_else(|| t.clone()))
        .collect();
    Vdc {
        cve: base.cve,
        name: format!("{}-{}", base.name, kind.suffix()),
        source,
        expected: base.expected,
        trigger_functions,
    }
}

/// Approach 1: consistent renaming of all user-declared identifiers.
/// Returns the program and the old→new map for function names.
fn rename_identifiers(mut program: Program) -> (Program, HashMap<String, String>) {
    let mut declared: Vec<String> = Vec::new();
    let mut seen = HashSet::new();
    let declare = |name: &str, declared: &mut Vec<String>, seen: &mut HashSet<String>| {
        if !RESERVED.contains(&name) && seen.insert(name.to_owned()) {
            declared.push(name.to_owned());
        }
    };
    fn scan_stmts(stmts: &[Stmt], declare: &mut impl FnMut(&str)) {
        for s in stmts {
            match s {
                Stmt::VarDecl(name, _) => declare(name),
                Stmt::Func(f) => {
                    declare(&f.name);
                    for p in &f.params {
                        declare(p);
                    }
                    scan_stmts(&f.body, declare);
                }
                Stmt::If(_, a, b) => {
                    scan_stmts(a, declare);
                    scan_stmts(b, declare);
                }
                Stmt::While(_, body) => scan_stmts(body, declare),
                Stmt::For { init, body, .. } => {
                    if let Some(i) = init {
                        scan_stmts(std::slice::from_ref(i), declare);
                    }
                    scan_stmts(body, declare);
                }
                Stmt::Block(body) => scan_stmts(body, declare),
                _ => {}
            }
        }
    }
    {
        let mut d = |n: &str| declare(n, &mut declared, &mut seen);
        for f in &program.functions {
            d(&f.name);
            for p in &f.params {
                d(p);
            }
        }
        let funcs: Vec<_> = program.functions.iter().map(|f| f.body.clone()).collect();
        for body in &funcs {
            scan_stmts(body, &mut d);
        }
        scan_stmts(&program.top_level, &mut d);
    }
    let map: HashMap<String, String> = declared
        .iter()
        .enumerate()
        .map(|(i, n)| (n.clone(), format!("v{i}")))
        .collect();
    rename_in_program(&mut program, &map);
    (program, map)
}

fn rename_in_program(program: &mut Program, map: &HashMap<String, String>) {
    for f in &mut program.functions {
        rename_in_function(f, map);
    }
    rename_in_stmts(&mut program.top_level, map);
}

fn rename_in_function(f: &mut FunctionDecl, map: &HashMap<String, String>) {
    if let Some(n) = map.get(&f.name) {
        f.name = n.clone();
    }
    for p in &mut f.params {
        if let Some(n) = map.get(p) {
            *p = n.clone();
        }
    }
    rename_in_stmts(&mut f.body, map);
}

fn rename_in_stmts(stmts: &mut [Stmt], map: &HashMap<String, String>) {
    for s in stmts {
        match s {
            Stmt::VarDecl(name, init) => {
                if let Some(n) = map.get(name) {
                    *name = n.clone();
                }
                if let Some(e) = init {
                    rename_in_expr(e, map);
                }
            }
            Stmt::Expr(e) => rename_in_expr(e, map),
            Stmt::If(c, a, b) => {
                rename_in_expr(c, map);
                rename_in_stmts(a, map);
                rename_in_stmts(b, map);
            }
            Stmt::While(c, body) => {
                rename_in_expr(c, map);
                rename_in_stmts(body, map);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    rename_in_stmts(std::slice::from_mut(&mut **i), map);
                }
                if let Some(c) = cond {
                    rename_in_expr(c, map);
                }
                if let Some(st) = step {
                    rename_in_expr(st, map);
                }
                rename_in_stmts(body, map);
            }
            Stmt::Return(Some(e)) => rename_in_expr(e, map),
            Stmt::Func(f) => rename_in_function(f, map),
            Stmt::Block(body) => rename_in_stmts(body, map),
            Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
        }
    }
}

fn rename_in_expr(expr: &mut Expr, map: &HashMap<String, String>) {
    jitbull_frontend::visit::mutate_expr(expr, &mut |e| match e {
        Expr::Var(name) => {
            if let Some(n) = map.get(name) {
                *name = n.clone();
            }
        }
        Expr::New(name, _) => {
            if let Some(n) = map.get(name) {
                *name = n.clone();
            }
        }
        Expr::Assign(Target::Var(name), _) => {
            if let Some(n) = map.get(name) {
                *name = n.clone();
            }
        }
        Expr::IncDec {
            target: Target::Var(name),
            ..
        } => {
            if let Some(n) = map.get(name) {
                *name = n.clone();
            }
        }
        _ => {}
    });
}

/// Approach 3a: bubble independent adjacent statements inside function
/// bodies (top-level order is left alone — the exploit's heap layout
/// depends on it).
fn reorder_statements(mut program: Program) -> Program {
    for f in &mut program.functions {
        reorder_in_stmts(&mut f.body);
    }
    program
}

#[allow(clippy::ptr_arg)] // recursion takes the Vec it reorders in place
fn reorder_in_stmts(stmts: &mut Vec<Stmt>) {
    // Recurse first.
    for s in stmts.iter_mut() {
        match s {
            Stmt::If(_, a, b) => {
                reorder_in_stmts(a);
                reorder_in_stmts(b);
            }
            Stmt::While(_, body) | Stmt::For { body, .. } => reorder_in_stmts(body),
            Stmt::Block(body) => reorder_in_stmts(body),
            Stmt::Func(f) => reorder_in_stmts(&mut f.body),
            _ => {}
        }
    }
    // One bubble pass swapping independent neighbours.
    let mut i = 0;
    while i + 1 < stmts.len() {
        if independent(&stmts[i], &stmts[i + 1]) {
            stmts.swap(i, i + 1);
            i += 2; // don't swap the same statement twice in one pass
        } else {
            i += 1;
        }
    }
}

/// Conservative statement independence: no heap effects on either side,
/// no control flow, and disjoint variable read/write sets.
fn independent(a: &Stmt, b: &Stmt) -> bool {
    fn simple(s: &Stmt) -> Option<(Vec<String>, Vec<String>)> {
        match s {
            Stmt::Expr(e) => {
                let mut reads = Vec::new();
                let mut writes = Vec::new();
                collect_var_reads(e, &mut reads);
                collect_var_writes(e, &mut writes);
                Some((reads, writes))
            }
            Stmt::VarDecl(name, Some(e)) => {
                let mut reads = Vec::new();
                let mut writes = vec![name.clone()];
                collect_var_reads(e, &mut reads);
                collect_var_writes(e, &mut writes);
                Some((reads, writes))
            }
            _ => None,
        }
    }
    if stmt_has_heap_effects(a) || stmt_has_heap_effects(b) {
        return false;
    }
    let (Some((ra, wa)), Some((rb, wb))) = (simple(a), simple(b)) else {
        return false;
    };
    let disjoint = |xs: &[String], ys: &[String]| xs.iter().all(|x| !ys.contains(x));
    disjoint(&wa, &rb) && disjoint(&wa, &wb) && disjoint(&wb, &ra)
}

/// Approach 3b: decoy functions that get JIT-compiled but do not
/// participate in the exploit. They allocate nothing, so the exploit's
/// heap layout is untouched.
fn add_decoys(mut program: Program) -> Program {
    let decoys = parse_program(
        "function decoy_spin(x) { var t = 0; for (var i = 0; i < 8; i++) { t = t + x * i; } return t; }\n\
         function decoy_mix(a, b) { return (a ^ b) + (a & b) * 2; }\n\
         var decoy_acc = 0;\n\
         for (var decoy_i = 0; decoy_i < 1700; decoy_i++) { decoy_acc = decoy_acc + decoy_spin(decoy_i) + decoy_mix(decoy_i, 7); }\n",
    )
    .expect("decoy source parses");
    // Decoys go first: their warm-up runs before the exploit but touches
    // no arrays.
    let mut functions = decoys.functions;
    functions.extend(program.functions);
    program.functions = functions;
    let mut top = decoys.top_level;
    top.extend(program.top_level);
    program.top_level = top;
    program
}

/// Approach 4: every function body moves behind a two-deep wrapper chain;
/// the original name becomes the outermost wrapper so call sites are
/// untouched, and the innermost function (which carries the exploit
/// pattern) is a *new* JITed function.
fn split_functions(mut program: Program) -> (Program, HashMap<String, String>) {
    let mut new_functions = Vec::new();
    let mut trigger_map = HashMap::new();
    for f in program.functions.drain(..) {
        let inner_name = format!("{}_inner", f.name);
        let core_name = format!("{}_core", f.name);
        trigger_map.insert(f.name.clone(), core_name.clone());
        let args: Vec<Expr> = f.params.iter().map(|p| Expr::Var(p.clone())).collect();
        let outer = FunctionDecl {
            name: f.name.clone(),
            params: f.params.clone(),
            body: vec![Stmt::Return(Some(Expr::Call(
                Box::new(Expr::Var(inner_name.clone())),
                args.clone(),
            )))],
        };
        let inner = FunctionDecl {
            name: inner_name,
            params: f.params.clone(),
            body: vec![Stmt::Return(Some(Expr::Call(
                Box::new(Expr::Var(core_name.clone())),
                args,
            )))],
        };
        let core = FunctionDecl {
            name: core_name,
            params: f.params,
            body: f.body,
        };
        new_functions.push(outer);
        new_functions.push(inner);
        new_functions.push(core);
    }
    program.functions = new_functions;
    (program, trigger_map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::vdc;
    use jitbull_jit::CveId;

    #[test]
    fn renamed_variant_has_no_original_identifiers() {
        let base = vdc(CveId::Cve2019_17026);
        let variant = generate(&base, VariantKind::Renamed);
        assert!(
            !variant.source.contains("shrink_smash"),
            "{}",
            variant.source
        );
        assert!(!variant.source.contains("prey"));
        assert!(variant.source.contains("print")); // reserved names stay
        assert!(variant.source.contains("Array"));
        // Trigger rename is tracked.
        assert_eq!(variant.trigger_functions.len(), 1);
        assert!(variant.trigger_functions[0].starts_with('v'));
    }

    #[test]
    fn minified_variant_is_one_line() {
        let base = vdc(CveId::Cve2019_9810);
        let variant = generate(&base, VariantKind::Minified);
        assert!(!variant.source.contains('\n') || variant.source.lines().count() <= 1);
        assert!(variant.source.len() < base.source.len());
    }

    #[test]
    fn reordered_variant_adds_decoys() {
        let base = vdc(CveId::Cve2019_11707);
        let variant = generate(&base, VariantKind::Reordered);
        assert!(variant.source.contains("decoy_spin"));
        assert!(variant.source.contains("decoy_mix"));
        assert_eq!(variant.trigger_functions, base.trigger_functions);
    }

    #[test]
    fn split_variant_triples_function_count() {
        let base = vdc(CveId::Cve2019_9791);
        let variant = generate(&base, VariantKind::Split);
        let p = parse_program(&variant.source).unwrap();
        let base_p = parse_program(&base.source).unwrap();
        assert_eq!(p.functions.len(), base_p.functions.len() * 3);
        assert_eq!(variant.trigger_functions, vec!["confuse_core"]);
    }

    #[test]
    fn all_variants_of_all_vdcs_generate_and_parse() {
        for v in crate::catalog::all_vdcs() {
            for kind in VariantKind::all() {
                let variant = generate(&v, kind);
                parse_program(&variant.source).unwrap_or_else(|e| panic!("{}: {e}", variant.name));
            }
        }
    }

    #[test]
    fn statement_independence_is_conservative() {
        let p = parse_program("var a = 1; var b = 2; a = b; f();").unwrap();
        // a=1 and b=2 commute.
        assert!(independent(&p.top_level[0], &p.top_level[1]));
        // b=2 and a=b do not (write-read).
        assert!(!independent(&p.top_level[1], &p.top_level[2]));
        // Calls never commute.
        assert!(!independent(&p.top_level[0], &p.top_level[3]));
    }
}
