//! The LIR executor: the optimizing tier's only executor, a register
//! machine over [`Value`] cells at 1 cycle per instruction. Every operand
//! is a frame-slot index (slot assignment renumbered them), so one
//! activation is one frame of values plus one guard flag per slot, taken
//! from the runtime's free list. Operands are read in place; number
//! operands take inline fast paths and everything else the interpreter's
//! helpers, so both tiers share one semantics.
//!
//! ## Guarded vs raw memory accesses
//!
//! This is where the vulnerability models become *exploitable* rather than
//! cosmetic. A `loadelement`/`storeelement` consults the guards lowering
//! captured for it ([`GuardRefs`](crate::lir::GuardRefs)):
//!
//! * if the index flows through a live `boundscheck`, the access takes the
//!   **raw** fast path when the check passed and the **safe** (interpreter
//!   semantics) path when it failed — exactly as compiled fast paths and
//!   bailouts behave;
//! * if the bounds check was removed (legitimately by a sound pass, or
//!   incorrectly by a modeled CVE), the access is raw and *unchecked*: an
//!   out-of-range index reads or writes neighbouring heap cells;
//! * if the base's `unbox:array` guard was removed and a number flows in,
//!   the number is dereferenced as a heap address (type confusion).

use jitbull_frontend::ast::{BinOp, UnOp};
use jitbull_mir::{CmpOp, ConstVal, MOpcode, TypeHint};
use jitbull_vm::bytecode::Module;
use jitbull_vm::interp::{eval_binop, eval_intrinsic, eval_math, eval_unop, invoke_value};
use jitbull_vm::runtime::{Runtime, ION_COST};
use jitbull_vm::value::{is_integral, to_int32, ArrId};
use jitbull_vm::{Dispatcher, Frame, Value, VmError};

use crate::lir::{LBlockId, LFunction, LInstr, LOp, VReg};

/// Arguments and other operand lists up to this length are gathered into
/// a stack buffer; longer ones into a `Vec`.
const INLINE_ARGS: usize = 6;

/// Whether a guard vouching for `i`'s base or index operand failed.
fn guard_failed(m: &Frame, i: &LInstr) -> bool {
    (i.guards.unbox && !m.flags[i.args[0].0 as usize])
        || (i.guards.bounds && !m.flags[i.args[1].0 as usize])
}

/// Executes one invocation of LIR, lowered or slot-assigned. The frame
/// comes from the runtime's free list and goes back to it on return.
///
/// # Errors
///
/// Propagates [`VmError`]s, including crashes from wild raw accesses.
pub fn run(
    code: &LFunction,
    rt: &mut Runtime,
    module: &Module,
    this: Value,
    args: &[Value],
    dispatcher: &mut dyn Dispatcher,
) -> Result<Value, VmError> {
    rt.enter_call()?;
    let mut frame = rt.take_frame(code.frame_size as usize);
    let result = run_inner(code, rt, module, &mut frame, &this, args, dispatcher);
    rt.recycle_frame(frame);
    rt.exit_call();
    result
}

fn cmp_binop(c: CmpOp) -> BinOp {
    match c {
        CmpOp::Eq => BinOp::Eq,
        CmpOp::Ne => BinOp::Ne,
        CmpOp::StrictEq => BinOp::StrictEq,
        CmpOp::StrictNe => BinOp::StrictNe,
        CmpOp::Lt => BinOp::Lt,
        CmpOp::Le => BinOp::Le,
        CmpOp::Gt => BinOp::Gt,
        CmpOp::Ge => BinOp::Ge,
    }
}

fn const_value(c: &ConstVal) -> Value {
    match c {
        ConstVal::Number(n) => Value::Number(*n),
        // Compiled code is shared across threads; runtime strings are not.
        ConstVal::Str(s) => Value::str(&**s),
        ConstVal::Bool(b) => Value::Bool(*b),
        ConstVal::Undefined => Value::Undefined,
        ConstVal::Null => Value::Null,
        ConstVal::Func(f) => Value::Function(*f),
    }
}

/// `v`'s numeric value, without a call when it already is a number.
#[inline(always)]
fn num(v: &Value) -> f64 {
    match v {
        Value::Number(n) => *n,
        other => other.to_number(),
    }
}

/// The shift count of `x << y`: the low five bits of `y`'s int32.
#[inline(always)]
fn shift_count(y: f64) -> u32 {
    to_int32(y) as u32 & 31
}

/// Whether `idx` is an array index the raw element path may address.
#[inline(always)]
fn is_index(idx: f64) -> bool {
    idx >= 0.0 && is_integral(idx)
}

fn wild(rt: &mut Runtime, msg: String) -> VmError {
    rt.note_crash(&msg);
    VmError::Crash(msg)
}

fn crash_noted(rt: &mut Runtime, e: VmError) -> VmError {
    if let VmError::Crash(msg) = &e {
        rt.note_crash(msg);
    }
    e
}

/// Stores `v` in `i`'s destination slot.
#[inline(always)]
fn put(m: &mut Frame, i: &LInstr, v: Value) {
    if let Some(d) = i.dst {
        m.values[d.0 as usize] = v;
    }
}

/// Stores the number `x` in `i`'s destination slot. Over a number it
/// replaces only the payload, so no `Value` is built on the stack and
/// copied (a wide load of a value just written field by field stalls).
#[inline(always)]
fn put_num(m: &mut Frame, i: &LInstr, x: f64) {
    if let Some(d) = i.dst {
        match &mut m.values[d.0 as usize] {
            Value::Number(n) => *n = x,
            slot => *slot = Value::Number(x),
        }
    }
}

/// [`put_num`] for a boolean.
#[inline(always)]
fn put_bool(m: &mut Frame, i: &LInstr, x: bool) {
    if let Some(d) = i.dst {
        match &mut m.values[d.0 as usize] {
            Value::Bool(b) => *b = x,
            slot => *slot = Value::Bool(x),
        }
    }
}

/// Gathers the values in `slots` into one argument slice for `f`: a
/// stack buffer up to [`INLINE_ARGS`] values, a `Vec` past that.
fn with_values<R>(m: &Frame, slots: &[VReg], f: impl FnOnce(&mut [Value]) -> R) -> R {
    if slots.len() <= INLINE_ARGS {
        let mut buf: [Value; INLINE_ARGS] = Default::default();
        for (b, s) in buf.iter_mut().zip(slots) {
            // A number is rebuilt from its payload, not cloned as a
            // whole `Value` (see `put_num`).
            *b = match &m.values[s.0 as usize] {
                Value::Number(x) => Value::Number(*x),
                v => v.clone(),
            };
        }
        f(&mut buf[..slots.len()])
    } else {
        let mut values: Vec<Value> = slots
            .iter()
            .map(|s| m.values[s.0 as usize].clone())
            .collect();
        f(&mut values)
    }
}

fn run_inner(
    code: &LFunction,
    rt: &mut Runtime,
    module: &Module,
    m: &mut Frame,
    this: &Value,
    args: &[Value],
    dispatcher: &mut dyn Dispatcher,
) -> Result<Value, VmError> {
    let mut cur = LBlockId(0);
    'blocks: loop {
        let block = &code.blocks[cur.0 as usize];
        for i in &block.instrs {
            rt.consume_op(ION_COST)?;
            match &i.op {
                LOp::Move => match &m.values[i.args[0].0 as usize] {
                    Value::Number(x) => put_num(m, i, *x),
                    v => put(m, i, v.clone()),
                },
                LOp::Jump(t) => {
                    cur = *t;
                    continue 'blocks;
                }
                LOp::Branch {
                    then_block,
                    else_block,
                } => {
                    cur = if m.values[i.args[0].0 as usize].truthy() {
                        *then_block
                    } else {
                        *else_block
                    };
                    continue 'blocks;
                }
                LOp::Return => {
                    return Ok(match &mut m.values[i.args[0].0 as usize] {
                        Value::Number(x) => Value::Number(*x),
                        v => std::mem::take(v),
                    })
                }
                LOp::Op(op) => eval_op(rt, module, m, i, op, this, args, dispatcher)?,
            }
        }
        return Err(VmError::Type("lir block fell through".into()));
    }
}

/// Evaluates one non-terminator op into its destination slot. Operands are
/// read in place. The hot arms handle numbers inline and store their
/// result straight into the frame (a result merged with the other arms'
/// first goes through stack temporaries); every other operand type falls
/// back to the interpreter's helpers.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn eval_op(
    rt: &mut Runtime,
    module: &Module,
    m: &mut Frame,
    i: &LInstr,
    op: &MOpcode,
    this: &Value,
    args: &[Value],
    dispatcher: &mut dyn Dispatcher,
) -> Result<(), VmError> {
    // Operand `k`, borrowed from the frame.
    macro_rules! a {
        ($k:expr) => {
            &m.values[i.args[$k].0 as usize]
        };
    }
    // Stores a number or boolean result and finishes the op.
    macro_rules! ret_num {
        ($x:expr) => {{
            let x = $x;
            put_num(m, i, x);
            return Ok(());
        }};
    }
    macro_rules! ret_bool {
        ($x:expr) => {{
            let x = $x;
            put_bool(m, i, x);
            return Ok(());
        }};
    }
    // A binary op: `$fast` (via `$ret`) on two numbers, `eval_binop($bin)`
    // otherwise.
    macro_rules! binop {
        ($bin:expr, $ret:ident, |$x:ident, $y:ident| $fast:expr) => {
            match (a!(0), a!(1)) {
                (Value::Number($x), Value::Number($y)) => {
                    let ($x, $y) = (*$x, *$y);
                    $ret!($fast)
                }
                (x, y) => eval_binop($bin, x, y),
            }
        };
    }
    let result = match op {
        MOpcode::Parameter(k) => match args.get(*k as usize) {
            Some(Value::Number(x)) => ret_num!(*x),
            Some(v) => v.clone(),
            None => Value::Undefined,
        },
        MOpcode::This => this.clone(),
        MOpcode::Constant(ConstVal::Number(n)) => ret_num!(*n),
        MOpcode::Constant(c) => const_value(c),
        MOpcode::Add => binop!(BinOp::Add, ret_num, |x, y| x + y),
        MOpcode::Sub => binop!(BinOp::Sub, ret_num, |x, y| x - y),
        MOpcode::Mul => binop!(BinOp::Mul, ret_num, |x, y| x * y),
        MOpcode::Div => binop!(BinOp::Div, ret_num, |x, y| x / y),
        MOpcode::Mod => binop!(BinOp::Mod, ret_num, |x, y| x % y),
        MOpcode::Compare(c) => binop!(cmp_binop(*c), ret_bool, |x, y| match c {
            CmpOp::Eq | CmpOp::StrictEq => x == y,
            CmpOp::Ne | CmpOp::StrictNe => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        }),
        MOpcode::BitAnd => binop!(BinOp::BitAnd, ret_num, |x, y| f64::from(
            to_int32(x) & to_int32(y)
        )),
        MOpcode::BitOr => binop!(BinOp::BitOr, ret_num, |x, y| f64::from(
            to_int32(x) | to_int32(y)
        )),
        MOpcode::BitXor => binop!(BinOp::BitXor, ret_num, |x, y| f64::from(
            to_int32(x) ^ to_int32(y)
        )),
        MOpcode::Lsh => binop!(BinOp::Shl, ret_num, |x, y| f64::from(
            to_int32(x) << shift_count(y)
        )),
        MOpcode::Rsh => binop!(BinOp::Shr, ret_num, |x, y| f64::from(
            to_int32(x) >> shift_count(y)
        )),
        MOpcode::Ursh => binop!(BinOp::Ushr, ret_num, |x, y| f64::from(
            to_int32(x) as u32 >> shift_count(y)
        )),
        MOpcode::BitNot => eval_unop(UnOp::BitNot, a!(0)),
        MOpcode::Neg => eval_unop(UnOp::Neg, a!(0)),
        MOpcode::Not => eval_unop(UnOp::Not, a!(0)),
        MOpcode::ToNumber => eval_unop(UnOp::Plus, a!(0)),
        MOpcode::TypeOf => eval_unop(UnOp::Typeof, a!(0)),
        MOpcode::Call(_) => {
            let callee = a!(0).clone();
            with_values(m, &i.args[1..], |call_args| {
                invoke_value(rt, module, callee, Value::Undefined, call_args, dispatcher)
            })?
        }
        MOpcode::CallMethod(_) => {
            let (base, callee) = (a!(0).clone(), a!(1).clone());
            with_values(m, &i.args[2..], |call_args| {
                invoke_value(rt, module, callee, base, call_args, dispatcher)
            })?
        }
        MOpcode::New(_) => {
            let callee = a!(0).clone();
            let obj = Value::Object(rt.alloc_object());
            with_values(m, &i.args[1..], |call_args| {
                invoke_value(rt, module, callee, obj.clone(), call_args, dispatcher)
            })?;
            obj
        }
        MOpcode::NewArray(_) => {
            let items: Vec<Value> = i
                .args
                .iter()
                .map(|s| m.values[s.0 as usize].clone())
                .collect();
            Value::Array(rt.heap.alloc_array_from(items))
        }
        MOpcode::NewArrayN => {
            let n = num(a!(0));
            let n = if n.is_finite() && n >= 0.0 {
                n as usize
            } else {
                0
            };
            Value::Array(rt.heap.alloc_array(n, n, Value::Undefined))
        }
        MOpcode::NewObject => Value::Object(rt.alloc_object()),
        // Passes the index through unchanged: an object base's store or
        // load falls back to the interpreter, which keys it by the index's
        // string form (`obj["k"]`), not by its number.
        MOpcode::BoundsCheck => {
            let ok = {
                let idx = num(a!(0));
                is_index(idx) && idx < num(a!(1))
            };
            m.flags[i.dst.expect("boundscheck has dst").0 as usize] = ok;
            match a!(0) {
                Value::Number(x) => ret_num!(*x),
                v => v.clone(),
            }
        }
        MOpcode::TypeGuard(hint) | MOpcode::Unbox(hint) => {
            let v = a!(0);
            let ok = match hint {
                TypeHint::Number => matches!(v, Value::Number(_)),
                TypeHint::Int32 => matches!(v, Value::Number(n) if is_integral(*n)),
                TypeHint::Bool => matches!(v, Value::Bool(_)),
                TypeHint::Str => matches!(v, Value::Str(_)),
                TypeHint::Array => matches!(v, Value::Array(_)),
                TypeHint::Object => matches!(v, Value::Object(_)),
            };
            m.flags[i.dst.expect("guard has dst").0 as usize] = ok;
            match a!(0) {
                Value::Number(x) => ret_num!(*x),
                v => v.clone(),
            }
        }
        MOpcode::InitializedLength | MOpcode::ArrayLength => match a!(0) {
            Value::Array(arr) => ret_num!(rt.heap.length(*arr) as f64),
            Value::Str(s) => Value::Number(s.chars().count() as f64),
            Value::Object(o) => rt.object(*o).get("length"),
            Value::Number(k) if !i.guards.unbox => {
                // Type confusion: the unbox guard was removed.
                if *k >= 0.0 && k.is_finite() {
                    let v = rt
                        .heap
                        .raw_read(*k as usize)
                        .map_err(|e| crash_noted(rt, e))?;
                    Value::Number(v.to_number())
                } else {
                    return Err(wild(rt, format!("wild length read at {k}")));
                }
            }
            _ => Value::Number(0.0),
        },
        MOpcode::SetArrayLength => {
            let v = a!(1).clone();
            jitbull_vm::interp::set_length(rt, a!(0), &v)?;
            v
        }
        MOpcode::LoadElement => {
            // The raw path of `element_load` for a live array base, an
            // integral index and a number in the cell.
            if let (Value::Array(arr), Value::Number(idx)) = (a!(0), a!(1)) {
                if is_index(*idx) && !guard_failed(m, i) {
                    let addr = rt.heap.elem_addr(*arr, *idx as usize);
                    if let Some(Value::Number(x)) = rt.heap.cell(addr) {
                        ret_num!(*x)
                    }
                }
            }
            element_load(rt, m, i)?
        }
        MOpcode::StoreElement => {
            // The raw path of `element_store` for a live array base, an
            // integral index and a number over a number.
            if let (Value::Array(arr), Value::Number(idx), Value::Number(x)) = (a!(0), a!(1), a!(2))
            {
                if is_index(*idx) && !guard_failed(m, i) {
                    let addr = rt.heap.elem_addr(*arr, *idx as usize);
                    if let Some(Value::Number(cell)) = rt.heap.cell_mut(addr) {
                        *cell = *x;
                        ret_num!(*x)
                    }
                }
            }
            let v = a!(2).clone();
            element_store(rt, m, i, v.clone())?;
            v
        }
        MOpcode::LoadProperty(name) => jitbull_vm::interp::get_prop(rt, a!(0), name)?,
        MOpcode::StoreProperty(name) => {
            let v = a!(1).clone();
            jitbull_vm::interp::set_prop(rt, a!(0), name, v.clone())?;
            v
        }
        MOpcode::LoadGlobal(slot) => rt.globals[*slot as usize].clone(),
        MOpcode::StoreGlobal(slot) => {
            let v = a!(0).clone();
            rt.globals[*slot as usize] = v.clone();
            v
        }
        MOpcode::Print => {
            let line = a!(0).to_string();
            rt.printed.push(line);
            Value::Undefined
        }
        MOpcode::MathFunction(mf) => with_values(m, &i.args, |xs| eval_math(rt, *mf, xs)),
        MOpcode::Intrinsic(method, _) => {
            with_values(m, &i.args[1..], |xs| eval_intrinsic(rt, *method, a!(0), xs))?
        }
        MOpcode::FromCharCode => {
            let n = num(a!(0));
            let c = char::from_u32(n as u32).unwrap_or('\u{FFFD}');
            Value::str(c.to_string())
        }
        MOpcode::Goto(_) | MOpcode::Test { .. } | MOpcode::Return | MOpcode::Phi => {
            unreachable!("control flow lowered to LIR terminators")
        }
    };
    match result {
        Value::Number(x) => put_num(m, i, x),
        v => put(m, i, v),
    }
    Ok(())
}

fn element_load(rt: &mut Runtime, m: &Frame, i: &LInstr) -> Result<Value, VmError> {
    let base = &m.values[i.args[0].0 as usize];
    let idx = &m.values[i.args[1].0 as usize];
    match base {
        Value::Array(arr) => {
            if guard_failed(m, i) {
                return jitbull_vm::interp::get_elem(rt, base, idx);
            }
            raw_read(rt, *arr, idx.to_number())
        }
        Value::Number(k) if !i.guards.unbox => {
            let addr = *k + 2.0 + idx.to_number();
            if addr >= 0.0 && addr.is_finite() {
                rt.heap
                    .raw_read(addr as usize)
                    .map_err(|e| crash_noted(rt, e))
            } else {
                Err(wild(rt, format!("wild read through confused pointer {k}")))
            }
        }
        _ => jitbull_vm::interp::get_elem(rt, base, idx),
    }
}

fn element_store(rt: &mut Runtime, m: &Frame, i: &LInstr, value: Value) -> Result<(), VmError> {
    let base = &m.values[i.args[0].0 as usize];
    let idx = &m.values[i.args[1].0 as usize];
    match base {
        Value::Array(arr) => {
            if guard_failed(m, i) {
                return jitbull_vm::interp::set_elem(rt, base, idx, value);
            }
            raw_write(rt, *arr, idx.to_number(), value)
        }
        Value::Number(k) if !i.guards.unbox => {
            let addr = *k + 2.0 + idx.to_number();
            if addr >= 0.0 && addr.is_finite() {
                rt.heap
                    .raw_write(addr as usize, value)
                    .map_err(|e| crash_noted(rt, e))
            } else {
                Err(wild(rt, format!("wild write through confused pointer {k}")))
            }
        }
        _ => jitbull_vm::interp::set_elem(rt, base, idx, value),
    }
}

fn raw_read(rt: &mut Runtime, arr: ArrId, idx: f64) -> Result<Value, VmError> {
    if !is_index(idx) {
        return rt.heap.get_elem(arr, idx);
    }
    let addr = rt.heap.elem_addr(arr, idx as usize);
    rt.heap.raw_read(addr).map_err(|e| crash_noted(rt, e))
}

fn raw_write(rt: &mut Runtime, arr: ArrId, idx: f64, value: Value) -> Result<(), VmError> {
    if !is_index(idx) {
        return rt.heap.set_elem(arr, idx, value);
    }
    let addr = rt.heap.elem_addr(arr, idx as usize);
    rt.heap
        .raw_write(addr, value)
        .map_err(|e| crash_noted(rt, e))
}
