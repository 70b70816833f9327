//! Allocation budget of the optimizing compile path.
//!
//! Every compile that misses the compile cache runs the traced pipeline
//! and the incremental Δ-extractor, so heap allocations there are paid
//! per compile. This test counts the allocations a traced compile plus
//! its extraction makes — on this test's thread only — over fixed
//! functions: every function of the serving mix, and a script shaped like
//! the benchmark's freshly generated `serve_unique` requests (two hot
//! functions of seven statements). It fails when the count per
//! instruction entering the pipeline rises past a bound set with headroom
//! above the current code, so a change that brings back an allocation
//! per instruction, per snapshot or per enumerated chain shows here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jitbull::IncrementalExtractor;
use jitbull_frontend::parse_program;
use jitbull_jit::pipeline::{compile, CompileInput, OptimizeOptions};
use jitbull_jit::VulnConfig;
use jitbull_mir::SlotSet;
use jitbull_vm::compile_program;

/// Counts allocation calls (`alloc`, `alloc_zeroed`, `realloc`) of the
/// thread that armed it; every call is served by the system allocator.
struct CountingAllocator;

thread_local! {
    /// This thread's count, `None` while the thread is not counting.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_allocation() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocation calls `f` makes on this thread.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).expect("armed above");
    (out, n)
}

/// A request in the shape of the benchmark's `serve_unique` scripts:
/// two hot functions of seven statements each (masked arithmetic, a
/// branch, an inner loop, array stores and loads, object fields,
/// `Math.floor`), called past the optimizing tier's threshold.
const SERVE_UNIQUE_SHAPE: &str = "
function f0(arr, a) {
  var t = a & 255;
  t = ((t + a) ^ 17) & 65535;
  if ((t & 255) < 40) { t = (t | a) & 65535; } else { t = (t - 9) & 65535; }
  for (var k2 = 0; k2 < 6; k2++) { t = ((t ^ k2) + a) & 65535; }
  arr[(t & 31) & 15] = (t | a) & 65535;
  t = (t + arr[(a + 5) & 15]) & 65535;
  var p4 = {x: (t - a) & 255, y: a & 255};
  t = (t ^ p4.x * p4.y) & 65535;
  t = (t + Math.floor(t / 3)) & 65535;
  t = ((t & a) | 77) & 65535;
  return t;
}
function f1(arr, a) {
  var t = a & 255;
  for (var k0 = 0; k0 < 6; k0++) { t = ((t + k0) & a) & 65535; }
  t = ((t - a) + 3) & 65535;
  if ((t & 255) != 12) { t = (t ^ a) & 65535; } else { t = (t & 91) & 65535; }
  var p3 = {x: (t | a) & 255, y: a & 255};
  t = (t + p3.x * p3.y) & 65535;
  t = (t - Math.floor(t / 5)) & 65535;
  arr[(t + 8) & 15] = (t - a) & 65535;
  t = (t + arr[(a + 2) & 15]) & 65535;
  t = ((t | a) ^ 60) & 65535;
  return t;
}
var arr = [];
for (var i = 0; i < 16; i++) { arr[i] = i; }
var s = 0;
for (var k = 0; k < 60; k++) { s = (s + f0(arr, k) + f1(arr, k)) & 1048575; }
print(s);
";

/// Traced compile plus incremental extraction of every function of
/// every source: `(allocation calls, instructions entering the pipeline)`.
fn compile_and_extract(sources: &[&str]) -> (u64, u64) {
    let vulns = VulnConfig::none();
    let traced = OptimizeOptions {
        trace: true,
        ..Default::default()
    };
    let mut extractor = IncrementalExtractor::new();
    let (mut allocations, mut instrs) = (0, 0);
    for source in sources {
        let module = compile_program(&parse_program(source).unwrap()).unwrap();
        for function in &module.functions {
            let input = CompileInput::new(function, SlotSet::new(), &vulns);
            let (result, n) = count_allocations(|| {
                let result = compile(&input, &traced).expect("builds MIR");
                extractor.extract_dna(&result.trace);
                result
            });
            assert!(result.broken.is_none(), "{}", function.name);
            allocations += n;
            instrs += result.trace.initial.len() as u64;
        }
    }
    (allocations, instrs)
}

/// Allocation calls per instruction entering the pipeline, at most: the
/// code makes ≈ 23.7 on the serving mix and ≈ 10.4 on the
/// `serve_unique`-shaped script, and each bound leaves about half as much
/// again.
const SERVING_MIX_BUDGET: f64 = 35.0;
const SERVE_UNIQUE_BUDGET: f64 = 16.0;

#[test]
fn traced_compile_and_extraction_stay_within_the_allocation_budget() {
    let mix: Vec<String> = jitbull_workloads::serving_mix()
        .into_iter()
        .map(|w| w.source)
        .collect();
    let mix: Vec<&str> = mix.iter().map(String::as_str).collect();
    for (name, sources, budget) in [
        ("serving mix", mix.as_slice(), SERVING_MIX_BUDGET),
        (
            "serve_unique shape",
            &[SERVE_UNIQUE_SHAPE][..],
            SERVE_UNIQUE_BUDGET,
        ),
    ] {
        let (allocations, instrs) = compile_and_extract(sources);
        assert!(instrs > 0, "{name}: nothing compiled");
        let per_instr = allocations as f64 / instrs as f64;
        eprintln!("{name}: {allocations} allocation calls over {instrs} instructions ({per_instr:.1} per instruction)");
        assert!(
            per_instr <= budget,
            "{name}: {allocations} allocation calls over {instrs} instructions is {per_instr:.1} \
             per instruction, past the budget of {budget}"
        );
    }
}
