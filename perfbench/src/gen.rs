//! Seeded generation of fresh request-sized scripts for `serve_unique`.
//!
//! Each script holds its own hot functions, built from a small statement
//! vocabulary with a seeded operator in every slot, and no shared
//! callees. MIR carries operator kinds but no literal values, so the
//! operator and statement choices are what make each function's
//! pre-pipeline MIR, and so its DNA-memo key, new: with seven statements
//! of a few hundred shapes each, two functions of a run almost never
//! share a key, and every optimizing compile pays Δ-extraction and
//! Δ-comparison. The expected output is not modelled here; the benchmark
//! takes it from the interpreter tier.
//!
//! `& 65535` masks keep every intermediate well inside the int32 range
//! JavaScript's bitwise operators convert to, so all tiers agree.

use jitbull_prng::Rng;

/// Hot functions per script.
const FUNCS: usize = 2;
/// Statements per hot function.
const STMTS: usize = 7;
/// Top-level calls of each hot function: past `EngineConfig::fast_test`'s
/// Ion threshold (10), few enough that a pool serves hundreds a second.
const CALLS: u32 = 60;
/// Trip count of the inner loop statement.
const LOOP_TRIPS: u32 = 6;
const MASK: u32 = 65535;
const RESULT_MASK: u32 = 1_048_575;

/// Binary operators that keep masked operands inside int32.
const OPS: [&str; 5] = ["+", "-", "^", "|", "&"];
const CMPS: [&str; 4] = ["<", ">", "==", "!="];

fn op(rng: &mut Rng) -> &'static str {
    OPS[rng.gen_range(0..OPS.len())]
}

/// Appends one statement of a seeded kind to `out`. `t` is the
/// accumulator, `a` the call argument, `arr` a 16-element array of
/// numbers; `n` keeps local names unique.
fn statement(rng: &mut Rng, n: usize, out: &mut String) {
    let c = rng.gen_range(1..100u32);
    let (o1, o2) = (op(rng), op(rng));
    let line = match rng.gen_range(0..6u32) {
        0 => format!("  t = ((t {o1} a) {o2} {c}) & {MASK};\n"),
        1 => {
            let cmp = *rng.pick(&CMPS);
            format!(
                "  if ((t & 255) {cmp} {c}) {{ t = (t {o1} a) & {MASK}; }} \
                 else {{ t = (t {o2} {c}) & {MASK}; }}\n"
            )
        }
        2 => format!(
            "  for (var k{n} = 0; k{n} < {LOOP_TRIPS}; k{n}++) \
             {{ t = ((t {o1} k{n}) {o2} a) & {MASK}; }}\n"
        ),
        3 => format!(
            "  arr[(t {o1} {c}) & 15] = (t {o2} a) & {MASK};\n  \
             t = (t + arr[(a + {c}) & 15]) & {MASK};\n"
        ),
        4 => format!(
            "  var p{n} = {{x: (t {o1} a) & 255, y: a & 255}};\n  \
             t = (t {o2} p{n}.x * p{n}.y) & {MASK};\n"
        ),
        _ => format!("  t = (t {o1} Math.floor(t / {})) & {MASK};\n", c % 7 + 2),
    };
    out.push_str(&line);
}

/// Generates one fresh script that prints one line.
pub fn script(rng: &mut Rng) -> String {
    let mut source = String::new();
    for f in 0..FUNCS {
        source.push_str(&format!("function f{f}(arr, a) {{\n  var t = a & 255;\n"));
        for n in 0..STMTS {
            statement(rng, n, &mut source);
        }
        source.push_str("  return t;\n}\n");
    }
    let calls: String = (0..FUNCS).map(|f| format!(" + f{f}(arr, k)")).collect();
    source.push_str(&format!(
        "var arr = new Array(16);\n\
         for (var i = 0; i < 16; i++) {{ arr[i] = i; }}\n\
         var r = 0;\n\
         for (var k = 0; k < {CALLS}; k++) {{ r = (r{calls}) & {RESULT_MASK}; }}\n\
         print(r);\n"
    ));
    source
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull::{CompareConfig, Guard};
    use jitbull_jit::engine::{Engine, EngineConfig};

    /// Guarded tiered runs print what the interpreter prints, so the
    /// benchmark's scripts never fail on their own account.
    #[test]
    fn tiers_agree_with_the_interpreter() {
        let db = jitbull_vdc::build_database(&jitbull_vdc::all_vdcs()).expect("catalog builds");
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..300 {
            let source = script(&mut rng);
            let expected = jitbull_vm::run_source(&source)
                .expect("script runs")
                .printed;
            assert_eq!(expected.len(), 1, "{source}");
            let guard = Guard::new(db.clone(), CompareConfig::default());
            let mut engine = Engine::with_guard(EngineConfig::fast_test(), guard);
            let out = engine.run_source_with(&source).expect("engine runs");
            assert_eq!(out.outcome.printed, expected, "{source}");
        }
    }
}
