//! The stack-machine bytecode the compiler emits and the interpreter (and
//! the JIT's MIR builder) consume.

use std::fmt;
use std::rc::Rc;

pub use jitbull_frontend::ast::{BinOp, UnOp};

/// Identifies a function within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// A `Math.*` intrinsic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MathFn {
    Floor,
    Ceil,
    Round,
    Sqrt,
    Abs,
    Sin,
    Cos,
    Tan,
    Atan,
    Atan2,
    Exp,
    Log,
    Min,
    Max,
    Pow,
    Random,
}

impl MathFn {
    /// Every intrinsic, in declaration order.
    pub const ALL: [MathFn; 16] = [
        MathFn::Floor,
        MathFn::Ceil,
        MathFn::Round,
        MathFn::Sqrt,
        MathFn::Abs,
        MathFn::Sin,
        MathFn::Cos,
        MathFn::Tan,
        MathFn::Atan,
        MathFn::Atan2,
        MathFn::Exp,
        MathFn::Log,
        MathFn::Min,
        MathFn::Max,
        MathFn::Pow,
        MathFn::Random,
    ];

    /// Resolves a `Math.<name>` property to an intrinsic.
    pub fn from_name(name: &str) -> Option<MathFn> {
        Some(match name {
            "floor" => MathFn::Floor,
            "ceil" => MathFn::Ceil,
            "round" => MathFn::Round,
            "sqrt" => MathFn::Sqrt,
            "abs" => MathFn::Abs,
            "sin" => MathFn::Sin,
            "cos" => MathFn::Cos,
            "tan" => MathFn::Tan,
            "atan" => MathFn::Atan,
            "atan2" => MathFn::Atan2,
            "exp" => MathFn::Exp,
            "log" => MathFn::Log,
            "min" => MathFn::Min,
            "max" => MathFn::Max,
            "pow" => MathFn::Pow,
            "random" => MathFn::Random,
            _ => return None,
        })
    }

    /// Number of arguments the intrinsic consumes (Random takes none,
    /// Min/Max/Pow/Atan2 take two, the rest one).
    pub fn arity(self) -> u8 {
        match self {
            MathFn::Random => 0,
            MathFn::Min | MathFn::Max | MathFn::Pow | MathFn::Atan2 => 2,
            _ => 1,
        }
    }
}

/// A reserved method on strings or arrays, dispatched structurally by the
/// compiler (minijs has no prototype chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntrinsicMethod {
    /// `arr.push(v)` — appends, returns new length.
    Push,
    /// `arr.pop()` — removes and returns last element.
    Pop,
    /// `s.charCodeAt(i)`.
    CharCodeAt,
    /// `s.charAt(i)`.
    CharAt,
    /// `s.substring(a, b)`.
    Substring,
    /// `s.indexOf(t)`.
    IndexOf,
}

impl IntrinsicMethod {
    /// Every method, in declaration order.
    pub const ALL: [IntrinsicMethod; 6] = [
        IntrinsicMethod::Push,
        IntrinsicMethod::Pop,
        IntrinsicMethod::CharCodeAt,
        IntrinsicMethod::CharAt,
        IntrinsicMethod::Substring,
        IntrinsicMethod::IndexOf,
    ];

    /// Resolves a reserved method name.
    pub fn from_name(name: &str) -> Option<IntrinsicMethod> {
        Some(match name {
            "push" => IntrinsicMethod::Push,
            "pop" => IntrinsicMethod::Pop,
            "charCodeAt" => IntrinsicMethod::CharCodeAt,
            "charAt" => IntrinsicMethod::CharAt,
            "substring" => IntrinsicMethod::Substring,
            "indexOf" => IntrinsicMethod::IndexOf,
            _ => return None,
        })
    }
}

/// One bytecode instruction.
///
/// Stack effects are written `[inputs] -> [outputs]`, deepest first.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `[] -> [n]`
    ConstNum(f64),
    /// `[] -> [s]`
    ConstStr(Rc<str>),
    /// `[] -> [b]`
    ConstBool(bool),
    /// `[] -> [undefined]`
    ConstUndefined,
    /// `[] -> [null]`
    ConstNull,
    /// `[] -> [function]`
    LoadFunc(FuncId),
    /// `[v] -> []`
    Pop,
    /// `[v] -> [v, v]`
    Dup,
    /// `[] -> [local]`
    LoadLocal(u16),
    /// `[v] -> []` (stores into local slot)
    StoreLocal(u16),
    /// `[] -> [global]`
    LoadGlobal(u16),
    /// `[v] -> []`
    StoreGlobal(u16),
    /// `[] -> [this]`
    LoadThis,
    /// `[a, b] -> [a op b]`
    Bin(BinOp),
    /// `[a] -> [op a]`
    Un(UnOp),
    /// Unconditional jump to absolute pc.
    Jump(u32),
    /// `[cond] -> []`, jumps when falsy.
    JumpIfFalse(u32),
    /// `[cond] -> []`, jumps when truthy.
    JumpIfTrue(u32),
    /// `[v] -> <returns v>`
    Return,
    /// `[func, arg0..argN-1] -> [result]`, `this = undefined`.
    Call(u8),
    /// `[base, func, arg0..argN-1] -> [result]`, `this = base`.
    CallMethod(u8),
    /// `[func, arg0..argN-1] -> [new object]`.
    New(u8),
    /// `[item0..itemN-1] -> [array]`
    NewArray(u16),
    /// `[len] -> [array]` — `new Array(n)`, capacity = n, undefined-filled.
    NewArrayN,
    /// `[] -> [object]`
    NewObject,
    /// `[arr, idx] -> [elem]`
    GetElem,
    /// `[arr, idx, v] -> [v]`
    SetElem,
    /// `[base] -> [value]`
    GetProp(Rc<str>),
    /// `[base, v] -> [v]`
    SetProp(Rc<str>),
    /// `[base] -> [base, func]` (method lookup for `CallMethod`)
    GetMethod(Rc<str>),
    /// `[arr_or_str] -> [length]`
    GetLength,
    /// `[arr, v] -> [v]` — `arr.length = v`.
    SetLength,
    /// `[v] -> []` prints the value.
    Print,
    /// `[n] -> [s]` — `String.fromCharCode(n)`.
    FromCharCode,
    /// `[args…] -> [result]` — Math intrinsic with fixed arity.
    Math(MathFn),
    /// `[recv, args…] -> [result]` — reserved string/array method.
    Intrinsic(IntrinsicMethod, u8),
}

/// A compiled function.
#[derive(Debug, Clone)]
pub struct Function {
    /// Source-level name (or `<main>` for top-level code).
    pub name: String,
    /// Number of declared parameters.
    pub arity: u8,
    /// Total local slots (params + `var` declarations).
    pub n_locals: u16,
    /// Bytecode.
    pub code: Vec<Op>,
}

impl Function {
    /// Bytecode length, used by the JIT's compile-cost model.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the function has no bytecode.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

/// A compiled program: all functions plus the global name table.
#[derive(Debug, Clone)]
pub struct Module {
    /// All functions; `entry` indexes the synthesized `<main>`.
    pub functions: Vec<Function>,
    /// Global slot names (functions are pre-bound to their slots).
    pub global_names: Vec<String>,
    /// The synthesized top-level function.
    pub entry: FuncId,
}

impl Module {
    /// Looks up a function.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// Finds a function id by source-level name.
    pub fn function_id(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Number of global slots.
    pub fn global_count(&self) -> usize {
        self.global_names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn math_fn_resolution_and_arity() {
        assert_eq!(MathFn::from_name("floor"), Some(MathFn::Floor));
        assert_eq!(MathFn::from_name("nope"), None);
        assert_eq!(MathFn::Random.arity(), 0);
        assert_eq!(MathFn::Pow.arity(), 2);
        assert_eq!(MathFn::Sqrt.arity(), 1);
    }

    #[test]
    fn intrinsic_resolution() {
        assert_eq!(
            IntrinsicMethod::from_name("push"),
            Some(IntrinsicMethod::Push)
        );
        assert_eq!(IntrinsicMethod::from_name("shift"), None);
    }

    #[test]
    fn func_id_display() {
        assert_eq!(FuncId(3).to_string(), "fn#3");
    }
}
