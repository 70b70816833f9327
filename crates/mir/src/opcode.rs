//! MIR opcodes.
//!
//! Names mirror IonMonkey's MIR where a counterpart exists (`boundscheck`,
//! `initializedlength`, `loadelement`, …) so that printed IR reads like the
//! paper's Listing 1.

use std::fmt;
use std::sync::Arc;

use jitbull_vm::bytecode::{FuncId, IntrinsicMethod, MathFn};

use crate::graph::BlockId;

/// Comparison operators (MIR `compare` variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    StrictEq,
    StrictNe,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Every operator, in declaration order.
    pub const ALL: [CmpOp; 8] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::StrictEq,
        CmpOp::StrictNe,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// Short mnemonic used in printed IR and DNA labels.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::StrictEq => "stricteq",
            CmpOp::StrictNe => "strictne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }
}

/// A compile-time constant value.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstVal {
    Number(f64),
    Str(Arc<str>),
    Bool(bool),
    Undefined,
    Null,
    /// Reference to a function in the module.
    Func(FuncId),
}

/// Runtime type hints used by [`MOpcode::TypeGuard`] / [`MOpcode::Unbox`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeHint {
    Number,
    Int32,
    Bool,
    Str,
    Array,
    Object,
}

impl TypeHint {
    /// Every hint, in declaration order.
    pub const ALL: [TypeHint; 6] = [
        TypeHint::Number,
        TypeHint::Int32,
        TypeHint::Bool,
        TypeHint::Str,
        TypeHint::Array,
        TypeHint::Object,
    ];

    /// Lowercase mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            TypeHint::Number => "number",
            TypeHint::Int32 => "int32",
            TypeHint::Bool => "bool",
            TypeHint::Str => "string",
            TypeHint::Array => "array",
            TypeHint::Object => "object",
        }
    }
}

/// A MIR opcode. Operand counts/roles are documented per variant; operands
/// themselves live on [`crate::instr::Instruction`].
#[derive(Debug, Clone, PartialEq)]
pub enum MOpcode {
    /// Formal parameter `i`. No operands.
    Parameter(u8),
    /// The `this` receiver. No operands.
    This,
    /// A literal. No operands.
    Constant(ConstVal),
    /// SSA phi; operand `j` flows from predecessor `phi_preds[j]` of the
    /// containing block.
    Phi,

    // --- control flow (block terminators) ---
    /// Unconditional edge. No value operands.
    Goto(BlockId),
    /// Conditional edge: operand 0 is the condition.
    Test {
        /// Successor when the condition is truthy.
        then_block: BlockId,
        /// Successor when the condition is falsy.
        else_block: BlockId,
    },
    /// Function return: operand 0 is the value.
    Return,

    // --- arithmetic / logic (operands: lhs, rhs unless noted) ---
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Compare(CmpOp),
    BitAnd,
    BitOr,
    BitXor,
    Lsh,
    Rsh,
    Ursh,
    /// Bitwise not; 1 operand.
    BitNot,
    /// Arithmetic negation; 1 operand.
    Neg,
    /// Logical not; 1 operand.
    Not,
    /// Numeric coercion (`+x`); 1 operand.
    ToNumber,
    /// `typeof`; 1 operand.
    TypeOf,

    // --- calls (operands: callee, then args; CallMethod: base, callee, args) ---
    Call(u8),
    CallMethod(u8),
    New(u8),

    // --- allocation ---
    /// Operands: the `n` initial elements.
    NewArray(u16),
    /// Operand 0: requested length.
    NewArrayN,
    /// No operands.
    NewObject,

    // --- guards ---
    /// Operands: (index, length). Yields the index; optimized element
    /// accesses whose index flows through a live `BoundsCheck` take the
    /// safe path on failure. **Removing this instruction incorrectly is
    /// exactly the CVE-2019-17026 bug class.**
    BoundsCheck,
    /// Type guard inserted by the type-specialization pass. Operand 0:
    /// guarded value; yields it.
    TypeGuard(TypeHint),
    /// Unbox-with-check (IonMonkey `unbox`). Operand 0: boxed value.
    Unbox(TypeHint),

    // --- memory ---
    /// Operand 0: array. Yields the initialized length (used by element
    /// access guards, as in the paper's Listing 1).
    InitializedLength,
    /// Operand 0: array/string. Yields `.length`.
    ArrayLength,
    /// Operands: (array, new length).
    SetArrayLength,
    /// Operands: (base, index). Raw element read when guarded-ok.
    LoadElement,
    /// Operands: (base, index, value).
    StoreElement,
    /// Operand 0: base.
    LoadProperty(Arc<str>),
    /// Operands: (base, value).
    StoreProperty(Arc<str>),
    /// No operands.
    LoadGlobal(u16),
    /// Operand 0: value.
    StoreGlobal(u16),

    // --- intrinsics ---
    /// Operand 0: value to print.
    Print,
    /// Operands: the intrinsic's arguments.
    MathFunction(MathFn),
    /// Operands: receiver, then args.
    Intrinsic(IntrinsicMethod, u8),
    /// Operand 0: char code.
    FromCharCode,
}

impl MOpcode {
    /// Whether the instruction is a block terminator.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            MOpcode::Goto(_) | MOpcode::Test { .. } | MOpcode::Return
        )
    }

    /// Whether the instruction has observable side effects (writes, I/O,
    /// calls) and therefore must not be removed or duplicated.
    pub fn is_effectful(&self) -> bool {
        matches!(
            self,
            MOpcode::Call(_)
                | MOpcode::CallMethod(_)
                | MOpcode::New(_)
                | MOpcode::StoreElement
                | MOpcode::StoreProperty(_)
                | MOpcode::StoreGlobal(_)
                | MOpcode::SetArrayLength
                | MOpcode::Print
                | MOpcode::Intrinsic(_, _)
                | MOpcode::MathFunction(MathFn::Random)
        )
    }

    /// Whether the instruction is a guard: value-transparent, but its
    /// execution is what keeps a subsequent raw access safe. Guards may
    /// only be removed when *provably* redundant — the injected
    /// vulnerability models break exactly this rule.
    pub fn is_guard(&self) -> bool {
        matches!(
            self,
            MOpcode::BoundsCheck | MOpcode::TypeGuard(_) | MOpcode::Unbox(_)
        )
    }

    /// Whether the instruction reads mutable memory (so it may not be
    /// hoisted/merged across writes without alias reasoning).
    pub fn reads_memory(&self) -> bool {
        matches!(
            self,
            MOpcode::LoadElement
                | MOpcode::LoadProperty(_)
                | MOpcode::LoadGlobal(_)
                | MOpcode::InitializedLength
                | MOpcode::ArrayLength
        )
    }

    /// Whether the instruction is a candidate for value numbering: pure,
    /// deterministic, and congruent when opcodes+operands match.
    pub fn is_movable(&self) -> bool {
        matches!(
            self,
            MOpcode::Constant(_)
                | MOpcode::Parameter(_)
                | MOpcode::This
                | MOpcode::Add
                | MOpcode::Sub
                | MOpcode::Mul
                | MOpcode::Div
                | MOpcode::Mod
                | MOpcode::Compare(_)
                | MOpcode::BitAnd
                | MOpcode::BitOr
                | MOpcode::BitXor
                | MOpcode::Lsh
                | MOpcode::Rsh
                | MOpcode::Ursh
                | MOpcode::BitNot
                | MOpcode::Neg
                | MOpcode::Not
                | MOpcode::ToNumber
                | MOpcode::TypeOf
                | MOpcode::FromCharCode
        )
    }
}

impl fmt::Display for MOpcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label().name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_is_consistent() {
        assert!(MOpcode::StoreElement.is_effectful());
        assert!(!MOpcode::LoadElement.is_effectful());
        assert!(MOpcode::LoadElement.reads_memory());
        assert!(MOpcode::BoundsCheck.is_guard());
        assert!(!MOpcode::BoundsCheck.is_effectful());
        assert!(MOpcode::Add.is_movable());
        assert!(!MOpcode::Call(0).is_movable());
        assert!(MOpcode::Goto(BlockId(0)).is_terminator());
        assert!(!MOpcode::Add.is_terminator());
        // Math.random is effectful (consumes RNG state), other math is not.
        assert!(MOpcode::MathFunction(MathFn::Random).is_effectful());
        assert!(!MOpcode::MathFunction(MathFn::Sqrt).is_effectful());
    }
}
