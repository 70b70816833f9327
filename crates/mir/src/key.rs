//! The compile key: everything an optimizing compilation's output depends
//! on, known before the pipeline runs.
//!
//! The types keep the compilation from reading anything else.
//! [`crate::build_mir`] takes one function's bytecode (`&Function`) and
//! has no module in reach, and the engine's pipeline is entered only
//! through `jitbull_jit::compile`, whose `CompileInput` holds that
//! bytecode, the slots the pipeline skips and the engine's injected
//! vulnerabilities, and builds this key from those fields alone. Two
//! compilations with equal keys therefore run the same passes over the
//! same graphs, leave the same trace and lower to the same code. That is
//! what lets the compile cache answer a compilation — DNA, verdict and
//! code — before running it.
//! The pipeline length is no input either: it is the constant [`N_SLOTS`].

use std::mem::Discriminant;
use std::sync::Arc;

use jitbull_vm::bytecode::{Function, Op};

/// The pipeline length: `n` in the paper's JIT DNA `Δ^f = (Δ_1 … Δ_n)`.
/// IonMonkey runs 32 passes, and `jitbull_jit::PIPELINE` is typed by it.
pub const N_SLOTS: usize = 32;

/// The inputs of one optimizing compilation.
///
/// The function's name is left out: no pass or vulnerability model reads
/// it, so functions that differ only in name share a key.
///
/// # Examples
///
/// ```
/// use jitbull_frontend::parse_program;
/// use jitbull_mir::CompileKey;
/// use jitbull_vm::compile_program;
///
/// let module = compile_program(&parse_program(
///     "function f(a) { return a + 1; } function g(b) { return b + 1; } function h(a) { return a + 2; }",
/// )?)?;
/// let key = |name: &str| {
///     let f = module.function(module.function_id(name).unwrap());
///     CompileKey::new(f, Vec::new(), 0)
/// };
/// assert_eq!(key("f"), key("g"));
/// assert_ne!(key("f"), key("h"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompileKey {
    code: Vec<KeyOp>,
    arity: u8,
    n_locals: u16,
    /// Disableable slots the pipeline skips, sorted.
    disabled: Vec<usize>,
    /// Enabled vulnerabilities, one bit each.
    vulns: u64,
}

impl CompileKey {
    /// The key for compiling `function` with the disableable slots in
    /// `disabled` skipped, in an engine whose enabled vulnerabilities form
    /// the bitmask `vulns`. Callers pass only slots the pipeline honours;
    /// mandatory slots run whatever the disabled set says.
    #[must_use]
    pub fn new(function: &Function, mut disabled: Vec<usize>, vulns: u64) -> Self {
        disabled.sort_unstable();
        disabled.dedup();
        CompileKey {
            code: function.code.iter().map(KeyOp::new).collect(),
            arity: function.arity,
            n_locals: function.n_locals,
            disabled,
            vulns,
        }
    }
}

/// One bytecode op: its variant plus its payload. Numbers compare by bit
/// pattern; strings are copied into `Arc<str>` so keys can cross threads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct KeyOp {
    variant: Discriminant<Op>,
    bits: u64,
    text: Option<Arc<str>>,
}

impl KeyOp {
    fn new(op: &Op) -> Self {
        let (bits, text) = match op {
            Op::ConstNum(n) => (n.to_bits(), None),
            Op::ConstStr(s) | Op::GetProp(s) | Op::SetProp(s) | Op::GetMethod(s) => {
                (0, Some(Arc::from(&**s)))
            }
            Op::ConstBool(b) => (u64::from(*b), None),
            Op::LoadFunc(id) => (u64::from(id.0), None),
            Op::LoadLocal(n)
            | Op::StoreLocal(n)
            | Op::LoadGlobal(n)
            | Op::StoreGlobal(n)
            | Op::NewArray(n) => (u64::from(*n), None),
            Op::Jump(pc) | Op::JumpIfFalse(pc) | Op::JumpIfTrue(pc) => (u64::from(*pc), None),
            Op::Call(n) | Op::CallMethod(n) | Op::New(n) => (u64::from(*n), None),
            Op::Bin(b) => (*b as u64, None),
            Op::Un(u) => (*u as u64, None),
            Op::Math(m) => (*m as u64, None),
            Op::Intrinsic(m, n) => ((*m as u64) << 8 | u64::from(*n), None),
            Op::ConstUndefined
            | Op::ConstNull
            | Op::Pop
            | Op::Dup
            | Op::LoadThis
            | Op::Return
            | Op::NewArrayN
            | Op::NewObject
            | Op::GetElem
            | Op::SetElem
            | Op::GetLength
            | Op::SetLength
            | Op::Print
            | Op::FromCharCode => (0, None),
        };
        KeyOp {
            variant: std::mem::discriminant(op),
            bits,
            text,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull_frontend::parse_program;
    use jitbull_vm::compile_program;

    fn key_of(src: &str, disabled: Vec<usize>, vulns: u64) -> CompileKey {
        let module = compile_program(&parse_program(src).unwrap()).unwrap();
        CompileKey::new(
            module.function(module.function_id("f").unwrap()),
            disabled,
            vulns,
        )
    }

    #[test]
    fn key_covers_every_payload_labels_drop() {
        let base = key_of("function f(a) { return a.x + 1; }", vec![], 0);
        assert_eq!(base, key_of("function f(b) { return b.x + 1; }", vec![], 0));
        for other in [
            "function f(a) { return a.y + 1; }",
            "function f(a) { return a.x + 2; }",
            "function f(a) { return a.x - 1; }",
            "function f(a, b) { return a.x + 1; }",
        ] {
            assert_ne!(base, key_of(other, vec![], 0), "{other}");
        }
    }

    #[test]
    fn key_covers_schedule_and_vulnerabilities() {
        let src = "function f(a) { return a[0]; }";
        let base = key_of(src, vec![6, 3], 0);
        assert_eq!(base, key_of(src, vec![3, 6, 6], 0), "a set, not a list");
        assert_ne!(base, key_of(src, vec![3], 0));
        assert_ne!(base, key_of(src, vec![6, 3], 1));
    }

    #[test]
    fn keys_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompileKey>();
    }
}
