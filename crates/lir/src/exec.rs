//! The LIR executor: the optimizing tier's only executor, a register
//! machine over [`Value`] cells at 1 cycle per instruction. Every operand
//! is a frame-slot index (slot assignment renumbered them), so one
//! activation is one frame of values plus one guard flag per slot.
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
use jitbull_vm::value::ArrId;
use jitbull_vm::{Dispatcher, Value, VmError};

use crate::lir::{LBlockId, LFunction, LInstr, LOp, VReg};

/// One activation: a value and a guard pass/fail flag per frame slot.
struct Frame {
    values: Vec<Value>,
    flags: Vec<bool>,
}

impl Frame {
    fn new(f: &LFunction) -> Self {
        Frame {
            values: vec![Value::Undefined; f.frame_size as usize],
            flags: vec![true; f.frame_size as usize],
        }
    }

    fn get(&self, v: VReg) -> Value {
        self.values[v.0 as usize].clone()
    }

    /// Whether a guard vouching for `i`'s base or index operand failed.
    fn guard_failed(&self, i: &LInstr) -> bool {
        (i.guards.unbox && !self.flags[i.args[0].0 as usize])
            || (i.guards.bounds && !self.flags[i.args[1].0 as usize])
    }
}

/// Executes one invocation of LIR, lowered or slot-assigned.
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
    let result = run_inner(code, rt, module, this, args, dispatcher);
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

fn run_inner(
    code: &LFunction,
    rt: &mut Runtime,
    module: &Module,
    this: Value,
    args: &[Value],
    dispatcher: &mut dyn Dispatcher,
) -> Result<Value, VmError> {
    let mut m = Frame::new(code);
    let mut cur = LBlockId(0);
    'blocks: loop {
        let block = &code.blocks[cur.0 as usize];
        for i in &block.instrs {
            rt.consume_op(ION_COST)?;
            match &i.op {
                LOp::Move => {
                    let d = i.dst.expect("move has dst");
                    m.values[d.0 as usize] = m.get(i.args[0]);
                }
                LOp::Jump(t) => {
                    cur = *t;
                    continue 'blocks;
                }
                LOp::Branch {
                    then_block,
                    else_block,
                } => {
                    cur = if m.get(i.args[0]).truthy() {
                        *then_block
                    } else {
                        *else_block
                    };
                    continue 'blocks;
                }
                LOp::Return => return Ok(m.get(i.args[0])),
                LOp::Op(op) => {
                    let result = eval_op(rt, module, &mut m, i, op, &this, args, dispatcher)?;
                    if let Some(d) = i.dst {
                        m.values[d.0 as usize] = result;
                    }
                }
            }
        }
        return Err(VmError::Type("lir block fell through".into()));
    }
}

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
) -> Result<Value, VmError> {
    let a = |m: &Frame, k: usize| m.get(i.args[k]);
    Ok(match op {
        MOpcode::Parameter(k) => args.get(*k as usize).cloned().unwrap_or(Value::Undefined),
        MOpcode::This => this.clone(),
        MOpcode::Constant(c) => const_value(c),
        MOpcode::Add => eval_binop(BinOp::Add, &a(m, 0), &a(m, 1)),
        MOpcode::Sub => eval_binop(BinOp::Sub, &a(m, 0), &a(m, 1)),
        MOpcode::Mul => eval_binop(BinOp::Mul, &a(m, 0), &a(m, 1)),
        MOpcode::Div => eval_binop(BinOp::Div, &a(m, 0), &a(m, 1)),
        MOpcode::Mod => eval_binop(BinOp::Mod, &a(m, 0), &a(m, 1)),
        MOpcode::Compare(c) => eval_binop(cmp_binop(*c), &a(m, 0), &a(m, 1)),
        MOpcode::BitAnd => eval_binop(BinOp::BitAnd, &a(m, 0), &a(m, 1)),
        MOpcode::BitOr => eval_binop(BinOp::BitOr, &a(m, 0), &a(m, 1)),
        MOpcode::BitXor => eval_binop(BinOp::BitXor, &a(m, 0), &a(m, 1)),
        MOpcode::Lsh => eval_binop(BinOp::Shl, &a(m, 0), &a(m, 1)),
        MOpcode::Rsh => eval_binop(BinOp::Shr, &a(m, 0), &a(m, 1)),
        MOpcode::Ursh => eval_binop(BinOp::Ushr, &a(m, 0), &a(m, 1)),
        MOpcode::BitNot => eval_unop(UnOp::BitNot, &a(m, 0)),
        MOpcode::Neg => eval_unop(UnOp::Neg, &a(m, 0)),
        MOpcode::Not => eval_unop(UnOp::Not, &a(m, 0)),
        MOpcode::ToNumber => eval_unop(UnOp::Plus, &a(m, 0)),
        MOpcode::TypeOf => eval_unop(UnOp::Typeof, &a(m, 0)),
        MOpcode::Call(_) => {
            let callee = a(m, 0);
            let call_args: Vec<Value> = (1..i.args.len()).map(|k| a(m, k)).collect();
            invoke_value(rt, module, callee, Value::Undefined, call_args, dispatcher)?
        }
        MOpcode::CallMethod(_) => {
            let base = a(m, 0);
            let callee = a(m, 1);
            let call_args: Vec<Value> = (2..i.args.len()).map(|k| a(m, k)).collect();
            invoke_value(rt, module, callee, base, call_args, dispatcher)?
        }
        MOpcode::New(_) => {
            let callee = a(m, 0);
            let call_args: Vec<Value> = (1..i.args.len()).map(|k| a(m, k)).collect();
            let obj = Value::Object(rt.alloc_object());
            invoke_value(rt, module, callee, obj.clone(), call_args, dispatcher)?;
            obj
        }
        MOpcode::NewArray(_) => {
            let items: Vec<Value> = (0..i.args.len()).map(|k| a(m, k)).collect();
            Value::Array(rt.heap.alloc_array_from(items))
        }
        MOpcode::NewArrayN => {
            let n = a(m, 0).to_number();
            let n = if n.is_finite() && n >= 0.0 {
                n as usize
            } else {
                0
            };
            Value::Array(rt.heap.alloc_array(n, n, Value::Undefined))
        }
        MOpcode::NewObject => Value::Object(rt.alloc_object()),
        MOpcode::BoundsCheck => {
            let idx = a(m, 0).to_number();
            let len = a(m, 1).to_number();
            let ok = idx >= 0.0 && idx.fract() == 0.0 && idx < len && idx.is_finite();
            m.flags[i.dst.expect("boundscheck has dst").0 as usize] = ok;
            Value::Number(idx)
        }
        MOpcode::TypeGuard(hint) | MOpcode::Unbox(hint) => {
            let v = a(m, 0);
            let ok = match hint {
                TypeHint::Number => matches!(v, Value::Number(_)),
                TypeHint::Int32 => matches!(v, Value::Number(n) if n.fract() == 0.0),
                TypeHint::Bool => matches!(v, Value::Bool(_)),
                TypeHint::Str => matches!(v, Value::Str(_)),
                TypeHint::Array => matches!(v, Value::Array(_)),
                TypeHint::Object => matches!(v, Value::Object(_)),
            };
            m.flags[i.dst.expect("guard has dst").0 as usize] = ok;
            v
        }
        MOpcode::InitializedLength | MOpcode::ArrayLength => {
            let base = a(m, 0);
            match &base {
                Value::Array(arr) => Value::Number(rt.heap.length(*arr) as f64),
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
            }
        }
        MOpcode::SetArrayLength => {
            let base = a(m, 0);
            let v = a(m, 1);
            jitbull_vm::interp::set_length(rt, &base, &v)?;
            v
        }
        MOpcode::LoadElement => element_load(rt, m, i)?,
        MOpcode::StoreElement => {
            let v = a(m, 2);
            element_store(rt, m, i, v.clone())?;
            v
        }
        MOpcode::LoadProperty(name) => {
            let base = a(m, 0);
            jitbull_vm::interp::get_prop(rt, &base, name)?
        }
        MOpcode::StoreProperty(name) => {
            let base = a(m, 0);
            let v = a(m, 1);
            jitbull_vm::interp::set_prop(rt, &base, name, v.clone())?;
            v
        }
        MOpcode::LoadGlobal(slot) => rt.globals[*slot as usize].clone(),
        MOpcode::StoreGlobal(slot) => {
            let v = a(m, 0);
            rt.globals[*slot as usize] = v.clone();
            v
        }
        MOpcode::Print => {
            let v = a(m, 0);
            let line = v.to_string();
            rt.printed.push(line);
            Value::Undefined
        }
        MOpcode::MathFunction(mf) => {
            let call_args: Vec<Value> = (0..i.args.len()).map(|k| a(m, k)).collect();
            eval_math(rt, *mf, &call_args)
        }
        MOpcode::Intrinsic(method, _) => {
            let recv = a(m, 0);
            let call_args: Vec<Value> = (1..i.args.len()).map(|k| a(m, k)).collect();
            eval_intrinsic(rt, *method, &recv, &call_args)?
        }
        MOpcode::FromCharCode => {
            let n = a(m, 0).to_number();
            let c = char::from_u32(n as u32).unwrap_or('\u{FFFD}');
            Value::str(c.to_string())
        }
        MOpcode::Goto(_) | MOpcode::Test { .. } | MOpcode::Return | MOpcode::Phi => {
            unreachable!("control flow lowered to LIR terminators")
        }
    })
}

fn element_load(rt: &mut Runtime, m: &Frame, i: &LInstr) -> Result<Value, VmError> {
    let base = m.get(i.args[0]);
    let idx = m.get(i.args[1]);
    match &base {
        Value::Array(arr) => {
            if m.guard_failed(i) {
                return jitbull_vm::interp::get_elem(rt, &base, &idx);
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
        _ => jitbull_vm::interp::get_elem(rt, &base, &idx),
    }
}

fn element_store(rt: &mut Runtime, m: &Frame, i: &LInstr, value: Value) -> Result<(), VmError> {
    let base = m.get(i.args[0]);
    let idx = m.get(i.args[1]);
    match &base {
        Value::Array(arr) => {
            if m.guard_failed(i) {
                return jitbull_vm::interp::set_elem(rt, &base, &idx, value);
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
        _ => jitbull_vm::interp::set_elem(rt, &base, &idx, value),
    }
}

fn raw_read(rt: &mut Runtime, arr: ArrId, idx: f64) -> Result<Value, VmError> {
    if !(idx >= 0.0 && idx.fract() == 0.0 && idx.is_finite()) {
        return rt.heap.get_elem(arr, idx);
    }
    let addr = rt.heap.elem_addr(arr, idx as usize);
    rt.heap.raw_read(addr).map_err(|e| crash_noted(rt, e))
}

fn raw_write(rt: &mut Runtime, arr: ArrId, idx: f64, value: Value) -> Result<(), VmError> {
    if !(idx >= 0.0 && idx.fract() == 0.0 && idx.is_finite()) {
        return rt.heap.set_elem(arr, idx, value);
    }
    let addr = rt.heap.elem_addr(arr, idx as usize);
    rt.heap
        .raw_write(addr, value)
        .map_err(|e| crash_noted(rt, e))
}
