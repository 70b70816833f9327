//! Integer opcode labels.
//!
//! A [`Label`] is how the Δ extractor sees an instruction: its opcode
//! mnemonic *without* literal values or variable/property names
//! (`boundscheck`, `compare:lt`, `constant:number`, `parameter1`). The
//! set of mnemonics is finite — each opcode, refined by its compare op,
//! type hint, constant kind, math function or intrinsic, plus
//! `parameter0`–`parameter255` — so a label is a `u16` index into one
//! fixed table, and `?` (the [`Label::UNKNOWN`] of a dangling operand)
//! completes it. The table is sorted by name, so labels order as their
//! names do. A DNA chain is a `Vec<Label>` from snapshot to comparator;
//! names appear only where DNA meets text ([`Label::name`],
//! [`Label::from_name`]).

use std::fmt;
use std::sync::LazyLock;

use jitbull_vm::bytecode::{IntrinsicMethod, MathFn};

use crate::opcode::{CmpOp, ConstVal, MOpcode, TypeHint};

/// An opcode label: an index into the fixed, name-sorted mnemonic table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(u16);

/// Mnemonics of the opcodes whose label carries no refinement.
const PLAIN: [&str; 39] = [
    "this",
    "phi",
    "goto",
    "test",
    "return",
    "add",
    "sub",
    "mul",
    "div",
    "mod",
    "bitand",
    "bitor",
    "bitxor",
    "lsh",
    "rsh",
    "ursh",
    "bitnot",
    "neg",
    "not",
    "tonumber",
    "typeof",
    "call",
    "callmethod",
    "newcall",
    "newarray",
    "newarrayn",
    "newobject",
    "boundscheck",
    "initializedlength",
    "arraylength",
    "setarraylength",
    "loadelement",
    "storeelement",
    "loadproperty",
    "storeproperty",
    "loadglobal",
    "storeglobal",
    "print",
    "fromcharcode",
];

/// Constant kinds, in [`constant_kind`] order. The value itself is left
/// out so variants with different literals still match.
const CONST_KINDS: [&str; 6] = ["number", "string", "bool", "undefined", "null", "function"];

// Slots of the table before sorting: `?`, the parameters, then one
// section per label family.
const PARAMETER: u16 = 1;
const PLAIN_BASE: u16 = PARAMETER + 256;
const CONSTANT: u16 = PLAIN_BASE + PLAIN.len() as u16;
const COMPARE: u16 = CONSTANT + CONST_KINDS.len() as u16;
const TYPEGUARD: u16 = COMPARE + CmpOp::ALL.len() as u16;
const UNBOX: u16 = TYPEGUARD + TypeHint::ALL.len() as u16;
const MATH: u16 = UNBOX + TypeHint::ALL.len() as u16;
const INTRINSIC: u16 = MATH + MathFn::ALL.len() as u16;
const COUNT: u16 = INTRINSIC + IntrinsicMethod::ALL.len() as u16;

/// Every label's name, in label (that is, name) order, and the label of
/// each slot.
struct Table {
    names: Vec<String>,
    labels: Vec<Label>,
}

static TABLE: LazyLock<Table> = LazyLock::new(|| {
    let mut names = vec![String::new(); usize::from(COUNT)];
    let mut put = |at: u16, name: String| {
        let slot = &mut names[usize::from(at)];
        assert!(slot.is_empty(), "label {at} named twice");
        *slot = name;
    };
    put(0, "?".into());
    for i in 0..=u8::MAX {
        put(PARAMETER + u16::from(i), format!("parameter{i}"));
    }
    for (i, name) in (0..).zip(PLAIN) {
        put(PLAIN_BASE + i, name.into());
    }
    for (i, kind) in (0..).zip(CONST_KINDS) {
        put(CONSTANT + i, format!("constant:{kind}"));
    }
    for op in CmpOp::ALL {
        put(COMPARE + op as u16, format!("compare:{}", op.mnemonic()));
    }
    for h in TypeHint::ALL {
        put(TYPEGUARD + h as u16, format!("typeguard:{}", h.mnemonic()));
        put(UNBOX + h as u16, format!("unbox:{}", h.mnemonic()));
    }
    for f in MathFn::ALL {
        put(MATH + f as u16, format!("math:{f:?}").to_lowercase());
    }
    for m in IntrinsicMethod::ALL {
        put(
            INTRINSIC + m as u16,
            format!("intrinsic:{m:?}").to_lowercase(),
        );
    }
    assert!(names.iter().all(|n| !n.is_empty()), "unnamed label");
    let mut slots: Vec<usize> = (0..names.len()).collect();
    slots.sort_by(|&a, &b| names[a].cmp(&names[b]));
    let mut labels = vec![Label::UNKNOWN; slots.len()];
    for (label, &slot) in (0..).zip(&slots) {
        labels[slot] = Label(label);
    }
    let names: Vec<String> = slots.iter().map(|&slot| names[slot].clone()).collect();
    assert!(names.windows(2).all(|w| w[0] < w[1]), "label names collide");
    assert_eq!(names[0], "?", "`?` sorts first, as `Label::UNKNOWN`");
    Table { names, labels }
});

/// The slot of a plain mnemonic, resolved at compile time.
const fn plain(name: &str) -> u16 {
    let mut i = 0;
    while i < PLAIN.len() {
        if PLAIN[i].len() == name.len() {
            let (a, b) = (PLAIN[i].as_bytes(), name.as_bytes());
            let mut k = 0;
            while k < a.len() && a[k] == b[k] {
                k += 1;
            }
            if k == a.len() {
                return PLAIN_BASE + i as u16;
            }
        }
        i += 1;
    }
    panic!("not a plain mnemonic");
}

/// Index of a constant's kind in [`CONST_KINDS`].
fn constant_kind(c: &ConstVal) -> u16 {
    match c {
        ConstVal::Number(_) => 0,
        ConstVal::Str(_) => 1,
        ConstVal::Bool(_) => 2,
        ConstVal::Undefined => 3,
        ConstVal::Null => 4,
        ConstVal::Func(_) => 5,
    }
}

impl Label {
    /// The label of an operand no instruction in the snapshot defines.
    pub const UNKNOWN: Label = Label(0);

    /// The label's index in the mnemonic table, ordered as labels are.
    #[must_use]
    pub const fn code(self) -> u16 {
        self.0
    }

    /// The mnemonic (e.g. `boundscheck`, `compare:lt`, `?`).
    #[must_use]
    pub fn name(self) -> &'static str {
        &TABLE.names[usize::from(self.0)]
    }

    /// The label named `name`, if the table has one.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Label> {
        let at = TABLE.names.binary_search_by(|n| n.as_str().cmp(name));
        at.ok().map(|i| Label(i as u16))
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.name())
    }
}

impl MOpcode {
    /// The opcode's label, matching printed IR (and, where one exists,
    /// IonMonkey's own spelling). Never allocates: the opcode picks a
    /// slot, and the slot's label is one table read.
    #[must_use]
    pub fn label(&self) -> Label {
        let slot = match self {
            MOpcode::Parameter(i) => PARAMETER + u16::from(*i),
            MOpcode::Constant(c) => CONSTANT + constant_kind(c),
            MOpcode::Compare(op) => COMPARE + *op as u16,
            MOpcode::TypeGuard(h) => TYPEGUARD + *h as u16,
            MOpcode::Unbox(h) => UNBOX + *h as u16,
            MOpcode::MathFunction(f) => MATH + *f as u16,
            MOpcode::Intrinsic(m, _) => INTRINSIC + *m as u16,
            MOpcode::This => const { plain("this") },
            MOpcode::Phi => const { plain("phi") },
            MOpcode::Goto(_) => const { plain("goto") },
            MOpcode::Test { .. } => const { plain("test") },
            MOpcode::Return => const { plain("return") },
            MOpcode::Add => const { plain("add") },
            MOpcode::Sub => const { plain("sub") },
            MOpcode::Mul => const { plain("mul") },
            MOpcode::Div => const { plain("div") },
            MOpcode::Mod => const { plain("mod") },
            MOpcode::BitAnd => const { plain("bitand") },
            MOpcode::BitOr => const { plain("bitor") },
            MOpcode::BitXor => const { plain("bitxor") },
            MOpcode::Lsh => const { plain("lsh") },
            MOpcode::Rsh => const { plain("rsh") },
            MOpcode::Ursh => const { plain("ursh") },
            MOpcode::BitNot => const { plain("bitnot") },
            MOpcode::Neg => const { plain("neg") },
            MOpcode::Not => const { plain("not") },
            MOpcode::ToNumber => const { plain("tonumber") },
            MOpcode::TypeOf => const { plain("typeof") },
            MOpcode::Call(_) => const { plain("call") },
            MOpcode::CallMethod(_) => const { plain("callmethod") },
            MOpcode::New(_) => const { plain("newcall") },
            MOpcode::NewArray(_) => const { plain("newarray") },
            MOpcode::NewArrayN => const { plain("newarrayn") },
            MOpcode::NewObject => const { plain("newobject") },
            MOpcode::BoundsCheck => const { plain("boundscheck") },
            MOpcode::InitializedLength => const { plain("initializedlength") },
            MOpcode::ArrayLength => const { plain("arraylength") },
            MOpcode::SetArrayLength => const { plain("setarraylength") },
            MOpcode::LoadElement => const { plain("loadelement") },
            MOpcode::StoreElement => const { plain("storeelement") },
            MOpcode::LoadProperty(_) => const { plain("loadproperty") },
            MOpcode::StoreProperty(_) => const { plain("storeproperty") },
            MOpcode::LoadGlobal(_) => const { plain("loadglobal") },
            MOpcode::StoreGlobal(_) => const { plain("storeglobal") },
            MOpcode::Print => const { plain("print") },
            MOpcode::FromCharCode => const { plain("fromcharcode") },
        };
        TABLE.labels[usize::from(slot)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::BlockId;
    use jitbull_vm::bytecode::FuncId;

    /// Every opcode refinement with the name the string labels spelled
    /// (`format!`ed mnemonics), written out.
    fn every_opcode() -> Vec<(MOpcode, String)> {
        let named: Vec<(MOpcode, &str)> = vec![
            (MOpcode::This, "this"),
            (MOpcode::Phi, "phi"),
            (MOpcode::Goto(BlockId(3)), "goto"),
            (
                MOpcode::Test {
                    then_block: BlockId(1),
                    else_block: BlockId(2),
                },
                "test",
            ),
            (MOpcode::Return, "return"),
            (MOpcode::Add, "add"),
            (MOpcode::Sub, "sub"),
            (MOpcode::Mul, "mul"),
            (MOpcode::Div, "div"),
            (MOpcode::Mod, "mod"),
            (MOpcode::BitAnd, "bitand"),
            (MOpcode::BitOr, "bitor"),
            (MOpcode::BitXor, "bitxor"),
            (MOpcode::Lsh, "lsh"),
            (MOpcode::Rsh, "rsh"),
            (MOpcode::Ursh, "ursh"),
            (MOpcode::BitNot, "bitnot"),
            (MOpcode::Neg, "neg"),
            (MOpcode::Not, "not"),
            (MOpcode::ToNumber, "tonumber"),
            (MOpcode::TypeOf, "typeof"),
            (MOpcode::Call(2), "call"),
            (MOpcode::CallMethod(1), "callmethod"),
            (MOpcode::New(0), "newcall"),
            (MOpcode::NewArray(4), "newarray"),
            (MOpcode::NewArrayN, "newarrayn"),
            (MOpcode::NewObject, "newobject"),
            (MOpcode::BoundsCheck, "boundscheck"),
            (MOpcode::InitializedLength, "initializedlength"),
            (MOpcode::ArrayLength, "arraylength"),
            (MOpcode::SetArrayLength, "setarraylength"),
            (MOpcode::LoadElement, "loadelement"),
            (MOpcode::StoreElement, "storeelement"),
            (MOpcode::LoadProperty("x".into()), "loadproperty"),
            (MOpcode::StoreProperty("y".into()), "storeproperty"),
            (MOpcode::LoadGlobal(7), "loadglobal"),
            (MOpcode::StoreGlobal(7), "storeglobal"),
            (MOpcode::Print, "print"),
            (MOpcode::FromCharCode, "fromcharcode"),
            (MOpcode::Constant(ConstVal::Number(1.5)), "constant:number"),
            (
                MOpcode::Constant(ConstVal::Str("s".into())),
                "constant:string",
            ),
            (MOpcode::Constant(ConstVal::Bool(true)), "constant:bool"),
            (MOpcode::Constant(ConstVal::Undefined), "constant:undefined"),
            (MOpcode::Constant(ConstVal::Null), "constant:null"),
            (
                MOpcode::Constant(ConstVal::Func(FuncId(9))),
                "constant:function",
            ),
            (MOpcode::Compare(CmpOp::Eq), "compare:eq"),
            (MOpcode::Compare(CmpOp::Ne), "compare:ne"),
            (MOpcode::Compare(CmpOp::StrictEq), "compare:stricteq"),
            (MOpcode::Compare(CmpOp::StrictNe), "compare:strictne"),
            (MOpcode::Compare(CmpOp::Lt), "compare:lt"),
            (MOpcode::Compare(CmpOp::Le), "compare:le"),
            (MOpcode::Compare(CmpOp::Gt), "compare:gt"),
            (MOpcode::Compare(CmpOp::Ge), "compare:ge"),
            (MOpcode::TypeGuard(TypeHint::Number), "typeguard:number"),
            (MOpcode::TypeGuard(TypeHint::Int32), "typeguard:int32"),
            (MOpcode::TypeGuard(TypeHint::Bool), "typeguard:bool"),
            (MOpcode::TypeGuard(TypeHint::Str), "typeguard:string"),
            (MOpcode::TypeGuard(TypeHint::Array), "typeguard:array"),
            (MOpcode::TypeGuard(TypeHint::Object), "typeguard:object"),
            (MOpcode::Unbox(TypeHint::Number), "unbox:number"),
            (MOpcode::Unbox(TypeHint::Int32), "unbox:int32"),
            (MOpcode::Unbox(TypeHint::Bool), "unbox:bool"),
            (MOpcode::Unbox(TypeHint::Str), "unbox:string"),
            (MOpcode::Unbox(TypeHint::Array), "unbox:array"),
            (MOpcode::Unbox(TypeHint::Object), "unbox:object"),
            (MOpcode::MathFunction(MathFn::Floor), "math:floor"),
            (MOpcode::MathFunction(MathFn::Ceil), "math:ceil"),
            (MOpcode::MathFunction(MathFn::Round), "math:round"),
            (MOpcode::MathFunction(MathFn::Sqrt), "math:sqrt"),
            (MOpcode::MathFunction(MathFn::Abs), "math:abs"),
            (MOpcode::MathFunction(MathFn::Sin), "math:sin"),
            (MOpcode::MathFunction(MathFn::Cos), "math:cos"),
            (MOpcode::MathFunction(MathFn::Tan), "math:tan"),
            (MOpcode::MathFunction(MathFn::Atan), "math:atan"),
            (MOpcode::MathFunction(MathFn::Atan2), "math:atan2"),
            (MOpcode::MathFunction(MathFn::Exp), "math:exp"),
            (MOpcode::MathFunction(MathFn::Log), "math:log"),
            (MOpcode::MathFunction(MathFn::Min), "math:min"),
            (MOpcode::MathFunction(MathFn::Max), "math:max"),
            (MOpcode::MathFunction(MathFn::Pow), "math:pow"),
            (MOpcode::MathFunction(MathFn::Random), "math:random"),
            (
                MOpcode::Intrinsic(IntrinsicMethod::Push, 1),
                "intrinsic:push",
            ),
            (MOpcode::Intrinsic(IntrinsicMethod::Pop, 0), "intrinsic:pop"),
            (
                MOpcode::Intrinsic(IntrinsicMethod::CharCodeAt, 1),
                "intrinsic:charcodeat",
            ),
            (
                MOpcode::Intrinsic(IntrinsicMethod::CharAt, 1),
                "intrinsic:charat",
            ),
            (
                MOpcode::Intrinsic(IntrinsicMethod::Substring, 2),
                "intrinsic:substring",
            ),
            (
                MOpcode::Intrinsic(IntrinsicMethod::IndexOf, 1),
                "intrinsic:indexof",
            ),
        ];
        let mut out: Vec<(MOpcode, String)> = named
            .into_iter()
            .map(|(op, name)| (op, name.to_owned()))
            .collect();
        out.extend((0..=u8::MAX).map(|i| (MOpcode::Parameter(i), format!("parameter{i}"))));
        out
    }

    #[test]
    fn every_label_round_trips_with_its_string_name() {
        let cases = every_opcode();
        let mut seen = std::collections::HashSet::new();
        for (op, name) in &cases {
            let label = op.label();
            assert_eq!(label.name(), name, "{op:?}");
            assert_eq!(op.to_string(), *name, "{op:?}");
            assert_eq!(Label::from_name(name), Some(label), "{name}");
            assert!(seen.insert(label), "{name} shares a label");
        }
        // Every table entry but `?` is some opcode's label.
        assert_eq!(seen.len() + 1, usize::from(COUNT));
        assert_eq!(Label::UNKNOWN.name(), "?");
        assert_eq!(Label::from_name("?"), Some(Label::UNKNOWN));
        assert!(!seen.contains(&Label::UNKNOWN));
    }

    #[test]
    fn label_order_is_name_order() {
        // Every label, in slot order rather than label order.
        let mut labels: Vec<Label> = every_opcode().iter().map(|(op, _)| op.label()).collect();
        labels.push(Label::UNKNOWN);
        labels.sort();
        let names: Vec<&str> = labels.iter().map(|l| l.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn names_outside_the_table_have_no_label() {
        for name in ["", "guardshape", "parameter256", "compare:", "Add", "add "] {
            assert_eq!(Label::from_name(name), None, "{name:?}");
        }
    }
}
