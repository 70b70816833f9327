//! # jitbull-vm — the minijs runtime substrate
//!
//! This crate is the runtime half of the substrate the JITBULL reproduction
//! is built on: a bytecode virtual machine for the minijs language defined
//! in `jitbull-frontend`, playing the role SpiderMonkey's interpreter and
//! object model play in the paper.
//!
//! Key components:
//!
//! * [`value::Value`] — dynamically-typed runtime values.
//! * [`heap::Heap`] — a **flat, linearly-addressed element heap** in which
//!   array element storage and array headers (length / capacity) live in
//!   adjacent cells. This is what makes JIT bounds-check-elimination bugs
//!   *actually exploitable* in the simulation: an out-of-bounds write from
//!   code whose bounds check was (incorrectly) optimized away lands on the
//!   next array's header, exactly like the CVE-2019-17026 proof of concept
//!   corrupts an adjacent `ArrayObject` in SpiderMonkey.
//! * [`bytecode`] — the stack-machine instruction set.
//! * [`compiler`] — AST → bytecode compilation (hoisting, scoping).
//! * [`interp`] — the interpreter tier, parameterized by a [`dispatch::Dispatcher`]
//!   so that a JIT engine (the `jitbull-jit` crate) can interpose tiered
//!   execution on every call.
//! * [`runtime::Runtime`] — globals, heap, exploit status, and the
//!   deterministic cycle cost model used by the paper-figure benchmarks.
//!
//! # Examples
//!
//! ```
//! use jitbull_vm::run_source;
//!
//! let outcome = run_source("var t = 0; for (var i = 0; i < 10; i++) { t += i; } print(t);")?;
//! assert_eq!(outcome.printed, vec!["45"]);
//! # Ok::<(), jitbull_vm::error::VmError>(())
//! ```

pub mod bytecode;
pub mod compiler;
pub mod dispatch;
pub mod error;
pub mod heap;
pub mod interp;
pub mod runtime;
pub mod value;

pub use bytecode::{FuncId, Function, Module};
pub use compiler::compile_program;
pub use dispatch::{Dispatcher, InterpDispatcher};
pub use error::VmError;
pub use heap::Heap;
pub use runtime::{ExploitStatus, Frame, Outcome, Runtime};
pub use value::Value;

use jitbull_frontend::parse_program;

/// Parses, compiles and runs a minijs source string on the interpreter-only
/// dispatcher, returning the [`Outcome`] (printed lines, cycles, exploit
/// status).
///
/// # Errors
///
/// Returns [`VmError`] for parse errors, runtime type errors, crashes, or
/// fuel exhaustion.
pub fn run_source(source: &str) -> Result<Outcome, VmError> {
    let program = parse_program(source).map_err(|e| VmError::Parse(e.to_string()))?;
    let module = compile_program(&program)?;
    let mut runtime = Runtime::new();
    let mut dispatcher = InterpDispatcher;
    interp::run_module(&mut runtime, &module, &mut dispatcher)?;
    Ok(runtime.into_outcome())
}
