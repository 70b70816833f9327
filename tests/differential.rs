//! Randomized differential testing: generated minijs programs must print
//! exactly the same output on the interpreter and on the fully optimizing
//! engine (this is the test class that caught the GVN global-merging
//! miscompilation during development). Driven by the repo's seeded PRNG:
//! deterministic, reproducible by seed.

use jitbull_jit::engine::{Engine, EngineConfig};
use jitbull_jit::VulnConfig;
use jitbull_prng::Rng;

#[derive(Debug, Clone)]
enum E {
    A,
    B,
    T,
    V(u8),
    Lit(i8),
    Arr(Box<E>),
    Bin(u8, Box<E>, Box<E>),
    Neg(Box<E>),
    Floor(Box<E>),
}

#[derive(Debug, Clone)]
enum S {
    SetV(u8, Box<E>),
    SetT(Box<E>),
    SetArr(Box<E>, Box<E>),
    If(Box<E>, Vec<S>, Vec<S>),
    For(u8, Vec<S>),
}

fn gen_expr(rng: &mut Rng, depth: u32) -> E {
    if depth == 0 || rng.gen_bool(0.35) {
        return match rng.gen_range(0..5u32) {
            0 => E::A,
            1 => E::B,
            2 => E::T,
            3 => E::V(rng.gen_range(0..4u8)),
            _ => E::Lit(rng.gen_range(-9i8..10)),
        };
    }
    let d = depth - 1;
    match rng.gen_range(0..4u32) {
        0 => E::Arr(Box::new(gen_expr(rng, d))),
        1 => E::Bin(
            rng.gen_range(0..10u8),
            Box::new(gen_expr(rng, d)),
            Box::new(gen_expr(rng, d)),
        ),
        2 => E::Neg(Box::new(gen_expr(rng, d))),
        _ => E::Floor(Box::new(gen_expr(rng, d))),
    }
}

fn gen_stmts(rng: &mut Rng, depth: u32, lo: usize, hi: usize) -> Vec<S> {
    (0..rng.gen_range(lo..hi))
        .map(|_| gen_stmt(rng, depth))
        .collect()
}

fn gen_stmt(rng: &mut Rng, depth: u32) -> S {
    if depth == 0 || rng.gen_bool(0.5) {
        return match rng.gen_range(0..3u32) {
            0 => S::SetV(rng.gen_range(0..4u8), Box::new(gen_expr(rng, 3))),
            1 => S::SetT(Box::new(gen_expr(rng, 3))),
            _ => S::SetArr(Box::new(gen_expr(rng, 3)), Box::new(gen_expr(rng, 3))),
        };
    }
    let d = depth - 1;
    if rng.gen_bool(0.5) {
        S::If(
            Box::new(gen_expr(rng, 3)),
            gen_stmts(rng, d, 1, 3),
            gen_stmts(rng, d, 0, 3),
        )
    } else {
        S::For(rng.gen_range(1..5u8), gen_stmts(rng, d, 1, 3))
    }
}

fn render_expr(e: &E, out: &mut String) {
    match e {
        E::A => out.push('a'),
        E::B => out.push('b'),
        E::T => out.push('t'),
        E::V(v) => out.push_str(&format!("v{}", v % 4)),
        E::Lit(n) => out.push_str(&format!("({n})")),
        E::Arr(i) => {
            out.push_str("arr[(");
            render_expr(i, out);
            out.push_str(") & 7]");
        }
        E::Bin(op, x, y) => {
            let sym = ["+", "-", "*", "/", "%", "&", "|", "^", "<", "=="][*op as usize % 10];
            out.push('(');
            render_expr(x, out);
            out.push_str(&format!(" {sym} "));
            render_expr(y, out);
            out.push(')');
        }
        E::Neg(x) => {
            out.push_str("(0 - ");
            render_expr(x, out);
            out.push(')');
        }
        E::Floor(x) => {
            out.push_str("Math.floor(");
            render_expr(x, out);
            out.push(')');
        }
    }
}

fn render_stmt(s: &S, out: &mut String, loop_counter: &mut u32) {
    match s {
        S::SetV(v, e) => {
            out.push_str(&format!("v{} = ", v % 4));
            render_expr(e, out);
            out.push_str(";\n");
        }
        S::SetT(e) => {
            out.push_str("t = t + ");
            render_expr(e, out);
            out.push_str(";\n");
        }
        S::SetArr(i, v) => {
            out.push_str("arr[(");
            render_expr(i, out);
            out.push_str(") & 7] = ");
            render_expr(v, out);
            out.push_str(";\n");
        }
        S::If(c, a, b) => {
            out.push_str("if ((");
            render_expr(c, out);
            out.push_str(") % 2) {\n");
            for s in a {
                render_stmt(s, out, loop_counter);
            }
            out.push_str("} else {\n");
            for s in b {
                render_stmt(s, out, loop_counter);
            }
            out.push_str("}\n");
        }
        S::For(n, body) => {
            let k = *loop_counter;
            *loop_counter += 1;
            out.push_str(&format!("for (var k{k} = 0; k{k} < {n}; k{k}++) {{\n"));
            for s in body {
                render_stmt(s, out, loop_counter);
            }
            out.push_str("}\n");
        }
    }
}

fn render_program(stmts: &[S]) -> String {
    let mut body = String::new();
    let mut loop_counter = 0;
    for s in stmts {
        render_stmt(s, &mut body, &mut loop_counter);
    }
    format!(
        "function f(a, b, arr) {{\n\
         var t = 0;\n\
         var v0 = a; var v1 = b; var v2 = a - b; var v3 = 1;\n\
         {body}\
         return t + v0 + v1 + v2 + v3;\n\
         }}\n\
         var arr = [1, 2, 3, 4, 5, 6, 7, 8];\n\
         var out = 0;\n\
         for (var i = 0; i < 40; i++) {{ out = f(i, (i * 3) % 7, arr); }}\n\
         print(out);\n\
         var chk = 0;\n\
         for (var j = 0; j < 8; j++) {{ chk = chk + arr[j] * (j + 1); }}\n\
         print(chk);\n"
    )
}

fn gen_program(seed: u64, max_stmts: usize) -> String {
    let mut rng = Rng::seed_from_u64(seed);
    let stmts = gen_stmts(&mut rng, 2, 1, max_stmts);
    render_program(&stmts)
}

fn run(source: &str, jit: bool, vulns: VulnConfig) -> Vec<String> {
    Engine::run_source(
        source,
        EngineConfig {
            jit_enabled: jit,
            vulns,
            fuel: 5_000_000,
            ..EngineConfig::fast_test()
        },
    )
    .map(|o| o.outcome.printed)
    .unwrap_or_else(|e| vec![format!("error: {e}")])
}

/// Optimized execution must match interpretation exactly.
#[test]
fn jit_matches_interpreter() {
    for seed in 0..48u64 {
        let source = gen_program(seed, 6);
        let interp = run(&source, false, VulnConfig::none());
        let jit = run(&source, true, VulnConfig::none());
        assert_eq!(interp, jit, "seed {seed}, source:\n{source}");
    }
}

/// A fully vulnerable engine must still run *benign* generated code
/// correctly: all accesses are masked in-bounds, so even incorrectly
/// removed checks cannot change behaviour.
#[test]
fn vulnerable_engine_is_correct_on_benign_code() {
    for seed in 1000..1048u64 {
        let source = gen_program(seed, 5);
        let interp = run(&source, false, VulnConfig::none());
        let vulnerable = run(&source, true, VulnConfig::all());
        assert_eq!(interp, vulnerable, "seed {seed}, source:\n{source}");
    }
}

/// Operand values that miss every number fast path of the optimizing
/// tier: strings, booleans, `undefined`, `null`, `NaN`, infinities, `-0`,
/// and fractional, negative and far out-of-range numbers.
const MIXED_VALUES: &str = "[0, -0, 1, -1, 2.5, -3.5, 7, 1e9, 0 / 0, 1 / 0, \
                            \"abc\", \"\", \"3\", true, false, undefined, null]";

/// A mixed-type operand or statement target inside the hot function `h`.
fn mixed_operand(rng: &mut Rng) -> String {
    match rng.gen_range(0..6u32) {
        0 => "p".into(),
        1 => "q".into(),
        2 => "r".into(),
        3 => "s".into(),
        4 => ["true", "null", "\"x\"", "undefined", "-0", "2.5"][rng.gen_range(0..6usize)].into(),
        _ => format!("{}", rng.gen_range(-3i32..9)),
    }
}

fn mixed_stmt(rng: &mut Rng, depth: u32) -> String {
    const OPS: [&str; 18] = [
        "+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "===", "!==", "&", "|", "^",
        "<<", ">>>",
    ];
    let x = mixed_operand(rng);
    let y = mixed_operand(rng);
    let dst = if rng.gen_bool(0.5) { "r" } else { "s" };
    match rng.gen_range(0..if depth == 0 { 9 } else { 10u32 }) {
        0..=2 => format!("{dst} = {x} {} {y};\n", OPS[rng.gen_range(0..OPS.len())]),
        3 => format!("{dst} = base[{x}];\n"),
        4 => format!("{dst} = base.length;\n"),
        5 => format!(
            "{dst} = {}({x});\n",
            ["-", "!", "~", "typeof ", "+"][rng.gen_range(0..5usize)]
        ),
        6 => format!("{dst} = Math.floor({x});\n"),
        // Stores only into the array and the object (a store into a string
        // throws), at indices that cannot grow the heap without bound.
        7 => format!(
            "if (base === arr || base === obj) {{ base[{}] = {x}; }}\n",
            ["0", "3", "-1", "2.5", "9", "\"k\"", "p & 7", "q & 15"][rng.gen_range(0..8usize)]
        ),
        8 => format!("{dst} = {x} >> {y};\n"),
        _ => format!(
            "if ({x} {} {y}) {{\n{}}} else {{\n{}}}\n",
            ["<", "==", "===", ">="][rng.gen_range(0..4usize)],
            mixed_stmt(rng, depth - 1),
            mixed_stmt(rng, depth - 1)
        ),
    }
}

/// Every binary operator of [`mixed_stmt`] and the unary ones, printed.
const ALL_OPS: &str = "function ops(p, q) {\n\
     print(p + q); print(p - q); print(p * q); print(p / q); print(p % q);\n\
     print(p < q); print(p <= q); print(p > q); print(p >= q);\n\
     print(p == q); print(p != q); print(p === q); print(p !== q);\n\
     print(p & q); print(p | q); print(p ^ q); print(p << q); print(p >> q); print(p >>> q);\n\
     print(-p); print(!p); print(~p); print(typeof p); print(+p); print(Math.floor(p));\n\
     return q;\n\
     }\n";

/// Two hot functions over every pair of [`MIXED_VALUES`]: `ops` applies
/// every operator to the pair, and a generated `h` mixes operators,
/// element loads and stores, against an array, a string, an object or a
/// mixed-element array base. With `EngineConfig::fast_test` all but their
/// first ten calls run optimized.
fn gen_mixed_program(seed: u64) -> String {
    let mut rng = Rng::seed_from_u64(seed);
    let body: String = (0..rng.gen_range(3..7usize))
        .map(|_| mixed_stmt(&mut rng, 1))
        .collect();
    format!(
        "var arr = [1, 2, 3, 4, 5, 6, 7, 8];\n\
         var obj = {{length: 3, a: 1}};\n\
         var mixed = [1, \"2\", true, null];\n\
         {ALL_OPS}\
         function h(p, q, base) {{\n\
         var r = 0; var s = 1;\n\
         {body}\
         print(s);\n\
         return r;\n\
         }}\n\
         var vals = {MIXED_VALUES};\n\
         var bases = [arr, \"hello\", obj, mixed];\n\
         for (var i = 0; i < vals.length; i++) {{\n\
         for (var j = 0; j < vals.length; j++) {{\n\
         print(ops(vals[i], vals[j]));\n\
         print(h(vals[i], vals[j], bases[(i + j) % 4]));\n\
         }}\n\
         }}\n\
         print(arr.length); print(arr[3]); print(obj.k);\n"
    )
}

/// Printed lines plus how the run ended: its exploit status, or the error
/// that stopped it.
fn run_to_end(source: &str, jit: bool) -> (Vec<String>, String) {
    match Engine::run_source(
        source,
        EngineConfig {
            jit_enabled: jit,
            fuel: 5_000_000,
            ..EngineConfig::fast_test()
        },
    ) {
        Ok(o) => (o.outcome.printed, format!("{:?}", o.outcome.status)),
        Err(e) => (Vec::new(), format!("error: {e}")),
    }
}

/// Every number fast path of the optimizing tier falls back to the
/// interpreter's semantics for other operand types: generated code over
/// mixed-type operands prints the same and ends the same on both tiers.
#[test]
fn mixed_type_operands_match_interpreter() {
    for seed in 0..40u64 {
        let source = gen_mixed_program(seed);
        let interp = run_to_end(&source, false);
        let jit = run_to_end(&source, true);
        assert_eq!(
            interp.1, "Clean",
            "seed {seed} must run to the end:\n{source}"
        );
        assert_eq!(interp, jit, "seed {seed}, source:\n{source}");
    }
}

/// Calls with fewer arguments than the callee's arity, with more, and with
/// more than the optimizing tier gathers into its stack buffer, as plain
/// calls, method calls and constructor calls, from interpreted and from
/// optimized callers.
const CALL_SHAPES: &str = "
function few(a, b, c) { return typeof c + \":\" + a + \":\" + b; }
function more(a) { return a * 2; }
function wide(a, b, c, d, e, f, g, h, i, j, k, l) {
  return a + b * 2 + c * 3 + d * 4 + e * 5 + f * 6 + g * 7 + h * 8 + i * 9 + j * 10 + k * 11 + l * 12;
}
function Pt(a, b, c, d, e, f, g, h) { this.s = a + b + c + d + e + f + g + h; }
var o = {};
o.m = wide;
function caller(i) {
  print(few(i));
  print(few(i, \"s\"));
  print(few(i, 1, true, 3, 4));
  print(more(i, 1, 2, 3, 4, 5, 6, 7, 8, 9));
  print(wide(i, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11));
  print(wide(i, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13));
  print(wide(i, 1, 2));
  print(o.m(i, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11));
  print(new Pt(i, 1, 2, 3, 4, 5, 6, 7).s);
  print(new Pt(i).s);
  return i;
}
for (var i = 0; i < 30; i++) { print(caller(i)); print(wide(i, i, i, i, i, i, i, i, i, i, i, i, i)); }
";

/// A recursion as deep as `Runtime::MAX_DEPTH` allows: the entry frame
/// plus 599 calls when `DEPTH` is 598.
const DEEP_RECURSION: &str = "
function down(n) { if (n == 0) { return 0; } return down(n - 1) + 1; }
for (var i = 0; i < 20; i++) { print(down(i)); }
print(down(DEPTH));
";

/// The call protocol (arguments passed as a slice, frames from the
/// runtime's free list) behaves the same on both tiers: argument counts
/// that miss the arity, argument lists longer than the stack buffer, and
/// the depth limit.
#[test]
fn call_protocol_matches_interpreter() {
    let interp = run_to_end(CALL_SHAPES, false);
    assert_eq!(interp.1, "Clean");
    assert_eq!(interp.0.len(), 30 * 12);
    assert_eq!(interp, run_to_end(CALL_SHAPES, true));

    // 600 frames of either tier outgrow a test thread's 2 MiB native
    // stack in a debug build.
    let deep = |depth: &str, jit: bool| {
        let source = DEEP_RECURSION.replace("DEPTH", depth);
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(move || run_to_end(&source, jit))
            .expect("spawn a deep-recursion thread")
            .join()
            .expect("deep recursion runs without panicking")
    };
    let interp = deep("598", false);
    assert_eq!(interp.1, "Clean");
    assert_eq!(interp.0.last().map(String::as_str), Some("598"));
    assert_eq!(interp, deep("598", true));

    let interp = deep("599", false);
    assert_eq!(interp.1, "error: type error: call stack depth exceeded");
    assert_eq!(interp, deep("599", true));
}
