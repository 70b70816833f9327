//! The bytecode interpreter (also reused, at a cheaper cycle cost, as the
//! baseline tier by the JIT engine).

use jitbull_frontend::ast::{BinOp, UnOp};

use crate::bytecode::{FuncId, IntrinsicMethod, Module, Op};
use crate::dispatch::Dispatcher;
use crate::error::VmError;
use crate::runtime::{Runtime, SHELLCODE_MARKER};
use crate::value::Value;

/// Prepares the runtime for `module` and executes its top-level code.
///
/// # Errors
///
/// Propagates any [`VmError`]; crash-class errors are also recorded in the
/// runtime's exploit status.
pub fn run_module(
    rt: &mut Runtime,
    module: &Module,
    dispatcher: &mut dyn Dispatcher,
) -> Result<Value, VmError> {
    rt.prepare(module);
    let result = dispatcher.call(rt, module, module.entry, Value::Undefined, Vec::new());
    if let Err(VmError::Crash(msg)) = &result {
        rt.note_crash(msg);
    }
    result
}

/// Interprets one function invocation at `cost` cycles per operation.
///
/// # Errors
///
/// Propagates any [`VmError`] raised by the function or its callees.
pub fn run_function(
    rt: &mut Runtime,
    module: &Module,
    func: FuncId,
    this: Value,
    mut args: Vec<Value>,
    dispatcher: &mut dyn Dispatcher,
    cost: u64,
) -> Result<Value, VmError> {
    rt.enter_call()?;
    let result = run_frame(rt, module, func, this, &mut args, dispatcher, cost);
    rt.exit_call();
    result
}

fn run_frame(
    rt: &mut Runtime,
    module: &Module,
    func: FuncId,
    this: Value,
    args: &mut [Value],
    dispatcher: &mut dyn Dispatcher,
    cost: u64,
) -> Result<Value, VmError> {
    let f = module.function(func);
    let mut locals = vec![Value::Undefined; f.n_locals as usize];
    for i in 0..(f.arity as usize).min(args.len()) {
        locals[i] = std::mem::take(&mut args[i]);
    }
    let mut stack: Vec<Value> = Vec::with_capacity(16);
    let mut pc = 0usize;

    macro_rules! pop {
        () => {
            stack.pop().expect("compiler produced balanced stacks")
        };
    }

    loop {
        let op = &f.code[pc];
        rt.consume_op(cost)?;
        pc += 1;
        match op {
            Op::ConstNum(n) => stack.push(Value::Number(*n)),
            Op::ConstStr(s) => stack.push(Value::Str(s.clone())),
            Op::ConstBool(b) => stack.push(Value::Bool(*b)),
            Op::ConstUndefined => stack.push(Value::Undefined),
            Op::ConstNull => stack.push(Value::Null),
            Op::LoadFunc(id) => stack.push(Value::Function(*id)),
            Op::Pop => {
                pop!();
            }
            Op::Dup => {
                let v = stack.last().expect("dup on empty stack").clone();
                stack.push(v);
            }
            Op::LoadLocal(slot) => stack.push(locals[*slot as usize].clone()),
            Op::StoreLocal(slot) => locals[*slot as usize] = pop!(),
            Op::LoadGlobal(slot) => stack.push(rt.globals[*slot as usize].clone()),
            Op::StoreGlobal(slot) => rt.globals[*slot as usize] = pop!(),
            Op::LoadThis => stack.push(this.clone()),
            Op::Bin(op) => {
                let b = pop!();
                let a = pop!();
                stack.push(eval_binop(*op, &a, &b));
            }
            Op::Un(op) => {
                let a = pop!();
                stack.push(eval_unop(*op, &a));
            }
            Op::Jump(target) => pc = *target as usize,
            Op::JumpIfFalse(target) => {
                if !pop!().truthy() {
                    pc = *target as usize;
                }
            }
            Op::JumpIfTrue(target) => {
                if pop!().truthy() {
                    pc = *target as usize;
                }
            }
            Op::Return => return Ok(pop!()),
            Op::Call(argc) => {
                let call_args = split_args(&mut stack, *argc);
                let callee = pop!();
                let result =
                    invoke_value(rt, module, callee, Value::Undefined, call_args, dispatcher)?;
                stack.push(result);
            }
            Op::CallMethod(argc) => {
                let call_args = split_args(&mut stack, *argc);
                let callee = pop!();
                let base = pop!();
                let result = invoke_value(rt, module, callee, base, call_args, dispatcher)?;
                stack.push(result);
            }
            Op::New(argc) => {
                let call_args = split_args(&mut stack, *argc);
                let callee = pop!();
                let obj = Value::Object(rt.alloc_object());
                invoke_value(rt, module, callee, obj.clone(), call_args, dispatcher)?;
                stack.push(obj);
            }
            Op::NewArray(n) => {
                let items = split_args(&mut stack, *n as u8);
                stack.push(Value::Array(rt.heap.alloc_array_from(items)));
            }
            Op::NewArrayN => {
                let len = pop!().to_number();
                let len = if len.is_finite() && len >= 0.0 {
                    len as usize
                } else {
                    0
                };
                stack.push(Value::Array(rt.heap.alloc_array(
                    len,
                    len,
                    Value::Undefined,
                )));
            }
            Op::NewObject => stack.push(Value::Object(rt.alloc_object())),
            Op::GetElem => {
                let idx = pop!();
                let base = pop!();
                stack.push(get_elem(rt, &base, &idx)?);
            }
            Op::SetElem => {
                let value = pop!();
                let idx = pop!();
                let base = pop!();
                set_elem(rt, &base, &idx, value.clone())?;
                stack.push(value);
            }
            Op::GetProp(name) => {
                let base = pop!();
                stack.push(get_prop(rt, &base, name)?);
            }
            Op::SetProp(name) => {
                let value = pop!();
                let base = pop!();
                set_prop(rt, &base, name, value.clone())?;
                stack.push(value);
            }
            Op::GetMethod(name) => {
                let base = stack.last().expect("method base").clone();
                let method = get_prop(rt, &base, name)?;
                stack.push(method);
            }
            Op::GetLength => {
                let base = pop!();
                stack.push(get_length(rt, &base)?);
            }
            Op::SetLength => {
                let value = pop!();
                let base = pop!();
                set_length(rt, &base, &value)?;
                stack.push(value);
            }
            Op::Print => {
                let v = pop!();
                let line = v.to_string();
                rt.printed.push(line);
            }
            Op::FromCharCode => {
                let n = pop!().to_number();
                let c = char::from_u32(n as u32).unwrap_or('\u{FFFD}');
                stack.push(Value::str(c.to_string()));
            }
            Op::Math(mf) => {
                let argc = mf.arity();
                let call_args = split_args(&mut stack, argc);
                stack.push(eval_math(rt, *mf, &call_args));
            }
            Op::Intrinsic(method, argc) => {
                let call_args = split_args(&mut stack, *argc);
                let recv = pop!();
                stack.push(eval_intrinsic(rt, *method, &recv, &call_args)?);
            }
        }
    }
}

fn split_args(stack: &mut Vec<Value>, argc: u8) -> Vec<Value> {
    let at = stack.len() - argc as usize;
    stack.split_off(at)
}

/// Invokes an arbitrary callee value. This is where control-flow hijacking
/// is detected: a callee cell corrupted to [`SHELLCODE_MARKER`] counts as
/// attacker shellcode executing; any other non-function callee that came
/// from corrupted memory crashes the runtime.
///
/// # Errors
///
/// [`VmError::Crash`] for hijacked calls, [`VmError::Type`] for ordinary
/// not-a-function errors.
pub fn invoke_value(
    rt: &mut Runtime,
    module: &Module,
    callee: Value,
    this: Value,
    args: Vec<Value>,
    dispatcher: &mut dyn Dispatcher,
) -> Result<Value, VmError> {
    match callee {
        Value::Function(fid) => dispatcher.call(rt, module, fid, this, args),
        Value::Number(n) if n == SHELLCODE_MARKER => {
            rt.status = crate::runtime::ExploitStatus::ShellcodeExecuted;
            Ok(Value::Undefined)
        }
        Value::Number(n) => {
            let msg = format!("control flow hijacked to {n}");
            rt.note_crash(&msg);
            Err(VmError::Crash(msg))
        }
        other => Err(VmError::Type(format!(
            "{} is not a function",
            other.kind_name()
        ))),
    }
}

/// Evaluates a binary operator with JavaScript coercion semantics.
pub fn eval_binop(op: BinOp, a: &Value, b: &Value) -> Value {
    match op {
        BinOp::Add => match (a, b) {
            (Value::Str(_), _) | (_, Value::Str(_)) => Value::str(format!("{a}{b}")),
            _ => Value::Number(a.to_number() + b.to_number()),
        },
        BinOp::Sub => Value::Number(a.to_number() - b.to_number()),
        BinOp::Mul => Value::Number(a.to_number() * b.to_number()),
        BinOp::Div => Value::Number(a.to_number() / b.to_number()),
        BinOp::Mod => Value::Number(a.to_number() % b.to_number()),
        BinOp::Eq => Value::Bool(a.loose_eq(b)),
        BinOp::Ne => Value::Bool(!a.loose_eq(b)),
        BinOp::StrictEq => Value::Bool(a.strict_eq(b)),
        BinOp::StrictNe => Value::Bool(!a.strict_eq(b)),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            if let (Value::Str(x), Value::Str(y)) = (a, b) {
                Value::Bool(match op {
                    BinOp::Lt => x < y,
                    BinOp::Le => x <= y,
                    BinOp::Gt => x > y,
                    _ => x >= y,
                })
            } else {
                let (x, y) = (a.to_number(), b.to_number());
                Value::Bool(match op {
                    BinOp::Lt => x < y,
                    BinOp::Le => x <= y,
                    BinOp::Gt => x > y,
                    _ => x >= y,
                })
            }
        }
        BinOp::BitAnd => Value::Number((a.to_i32() & b.to_i32()) as f64),
        BinOp::BitOr => Value::Number((a.to_i32() | b.to_i32()) as f64),
        BinOp::BitXor => Value::Number((a.to_i32() ^ b.to_i32()) as f64),
        BinOp::Shl => Value::Number((a.to_i32() << (b.to_u32() & 31)) as f64),
        BinOp::Shr => Value::Number((a.to_i32() >> (b.to_u32() & 31)) as f64),
        BinOp::Ushr => Value::Number((a.to_u32() >> (b.to_u32() & 31)) as f64),
    }
}

/// Evaluates a unary operator.
pub fn eval_unop(op: UnOp, a: &Value) -> Value {
    match op {
        UnOp::Neg => Value::Number(-a.to_number()),
        UnOp::Not => Value::Bool(!a.truthy()),
        UnOp::BitNot => Value::Number(!a.to_i32() as f64),
        UnOp::Plus => Value::Number(a.to_number()),
        UnOp::Typeof => Value::str(a.type_of()),
    }
}

/// Evaluates a `Math.*` intrinsic (shared by interpreter and JIT tiers).
pub fn eval_math(rt: &mut Runtime, mf: crate::bytecode::MathFn, args: &[Value]) -> Value {
    use crate::bytecode::MathFn as M;
    let a = args.first().map_or(f64::NAN, Value::to_number);
    let b = args.get(1).map_or(f64::NAN, Value::to_number);
    Value::Number(match mf {
        M::Floor => a.floor(),
        M::Ceil => a.ceil(),
        M::Round => (a + 0.5).floor(),
        M::Sqrt => a.sqrt(),
        M::Abs => a.abs(),
        M::Sin => a.sin(),
        M::Cos => a.cos(),
        M::Tan => a.tan(),
        M::Atan => a.atan(),
        M::Atan2 => a.atan2(b),
        M::Exp => a.exp(),
        M::Log => a.ln(),
        M::Min => a.min(b),
        M::Max => a.max(b),
        M::Pow => a.powf(b),
        M::Random => rt.next_random(),
    })
}

/// Evaluates a reserved string/array method (shared by all tiers).
///
/// # Errors
///
/// [`VmError::Type`] when the receiver does not support the method.
pub fn eval_intrinsic(
    rt: &mut Runtime,
    method: IntrinsicMethod,
    recv: &Value,
    args: &[Value],
) -> Result<Value, VmError> {
    match (method, recv) {
        (IntrinsicMethod::Push, Value::Array(arr)) => {
            let len = rt.heap.length(*arr);
            let v = args.first().cloned().unwrap_or(Value::Undefined);
            rt.heap.set_elem(*arr, len as f64, v)?;
            Ok(Value::Number(rt.heap.length(*arr) as f64))
        }
        (IntrinsicMethod::Pop, Value::Array(arr)) => {
            let len = rt.heap.length(*arr);
            if len == 0 {
                return Ok(Value::Undefined);
            }
            let v = rt.heap.get_elem(*arr, (len - 1) as f64)?;
            rt.heap.set_length(*arr, len - 1);
            Ok(v)
        }
        (IntrinsicMethod::CharCodeAt, Value::Str(s)) => {
            let i = args.first().map_or(0.0, Value::to_number);
            if i >= 0.0 && i.fract() == 0.0 {
                match s.chars().nth(i as usize) {
                    Some(c) => Ok(Value::Number(c as u32 as f64)),
                    None => Ok(Value::Number(f64::NAN)),
                }
            } else {
                Ok(Value::Number(f64::NAN))
            }
        }
        (IntrinsicMethod::CharAt, Value::Str(s)) => {
            let i = args.first().map_or(0.0, Value::to_number);
            if i >= 0.0 && i.fract() == 0.0 {
                match s.chars().nth(i as usize) {
                    Some(c) => Ok(Value::str(c.to_string())),
                    None => Ok(Value::str("")),
                }
            } else {
                Ok(Value::str(""))
            }
        }
        (IntrinsicMethod::Substring, Value::Str(s)) => {
            let chars: Vec<char> = s.chars().collect();
            let a = args.first().map_or(0.0, Value::to_number).max(0.0) as usize;
            let b = args
                .get(1)
                .map_or(chars.len() as f64, Value::to_number)
                .max(0.0) as usize;
            let (lo, hi) = (a.min(b).min(chars.len()), a.max(b).min(chars.len()));
            Ok(Value::str(chars[lo..hi].iter().collect::<String>()))
        }
        (IntrinsicMethod::IndexOf, Value::Str(s)) => {
            let needle = args.first().map_or(String::new(), |v| v.to_string());
            match s.find(&needle) {
                Some(byte_idx) => {
                    let char_idx = s[..byte_idx].chars().count();
                    Ok(Value::Number(char_idx as f64))
                }
                None => Ok(Value::Number(-1.0)),
            }
        }
        (IntrinsicMethod::IndexOf, Value::Array(arr)) => {
            let needle = args.first().cloned().unwrap_or(Value::Undefined);
            let len = rt.heap.length(*arr);
            for i in 0..len {
                if rt.heap.get_elem(*arr, i as f64)?.strict_eq(&needle) {
                    return Ok(Value::Number(i as f64));
                }
            }
            Ok(Value::Number(-1.0))
        }
        (m, other) => Err(VmError::Type(format!(
            "{m:?} is not supported on {}",
            other.kind_name()
        ))),
    }
}

/// Element read with full checks (interpreter semantics).
pub fn get_elem(rt: &mut Runtime, base: &Value, idx: &Value) -> Result<Value, VmError> {
    match base {
        Value::Array(arr) => rt.heap.get_elem(*arr, idx.to_number()),
        Value::Object(obj) => {
            let key = idx.to_string();
            Ok(rt.object(*obj).get(&key))
        }
        Value::Str(s) => {
            let i = idx.to_number();
            if i >= 0.0 && i.fract() == 0.0 {
                match s.chars().nth(i as usize) {
                    Some(c) => Ok(Value::str(c.to_string())),
                    None => Ok(Value::Undefined),
                }
            } else {
                Ok(Value::Undefined)
            }
        }
        other => Err(VmError::Type(format!(
            "cannot index a {}",
            other.kind_name()
        ))),
    }
}

/// Element write with full checks (interpreter semantics).
pub fn set_elem(rt: &mut Runtime, base: &Value, idx: &Value, value: Value) -> Result<(), VmError> {
    match base {
        Value::Array(arr) => rt.heap.set_elem(*arr, idx.to_number(), value),
        Value::Object(obj) => {
            rt.object_mut(*obj).set(&idx.to_string(), value);
            Ok(())
        }
        other => Err(VmError::Type(format!(
            "cannot index-assign a {}",
            other.kind_name()
        ))),
    }
}

/// Property read (`.length` routed separately via [`get_length`]).
pub fn get_prop(rt: &mut Runtime, base: &Value, name: &str) -> Result<Value, VmError> {
    match base {
        Value::Object(obj) => Ok(rt.object(*obj).get(name)),
        Value::Array(_) | Value::Str(_) if name == "length" => get_length(rt, base),
        Value::Array(_) | Value::Str(_) => Ok(Value::Undefined),
        other => Err(VmError::Type(format!(
            "cannot read property `{name}` of {}",
            other.kind_name()
        ))),
    }
}

/// Property write.
pub fn set_prop(rt: &mut Runtime, base: &Value, name: &str, value: Value) -> Result<(), VmError> {
    match base {
        Value::Object(obj) => {
            rt.object_mut(*obj).set(name, value);
            Ok(())
        }
        Value::Array(arr) if name == "length" => {
            let n = value.to_number();
            if n.is_finite() && n >= 0.0 {
                rt.heap.set_length(*arr, n as usize);
            }
            Ok(())
        }
        other => Err(VmError::Type(format!(
            "cannot write property `{name}` of {}",
            other.kind_name()
        ))),
    }
}

/// `.length` read for arrays, strings, and objects with a `length`
/// property.
pub fn get_length(rt: &mut Runtime, base: &Value) -> Result<Value, VmError> {
    match base {
        Value::Array(arr) => Ok(Value::Number(rt.heap.length(*arr) as f64)),
        Value::Str(s) => Ok(Value::Number(s.chars().count() as f64)),
        Value::Object(obj) => Ok(rt.object(*obj).get("length")),
        other => Err(VmError::Type(format!(
            "cannot read length of {}",
            other.kind_name()
        ))),
    }
}

/// `.length` write.
pub fn set_length(rt: &mut Runtime, base: &Value, value: &Value) -> Result<(), VmError> {
    match base {
        Value::Array(arr) => {
            let n = value.to_number();
            if n.is_finite() && n >= 0.0 {
                rt.heap.set_length(*arr, n as usize);
            }
            Ok(())
        }
        Value::Object(obj) => {
            rt.object_mut(*obj).set("length", value.clone());
            Ok(())
        }
        other => Err(VmError::Type(format!(
            "cannot write length of {}",
            other.kind_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_string_concat_and_compare() {
        let a = Value::str("ab");
        let b = Value::str("cd");
        assert_eq!(eval_binop(BinOp::Add, &a, &b).to_string(), "abcd");
        assert!(eval_binop(BinOp::Lt, &a, &b).truthy());
        let n = Value::Number(1.0);
        assert_eq!(eval_binop(BinOp::Add, &a, &n).to_string(), "ab1");
    }

    #[test]
    fn binop_bitwise() {
        let a = Value::Number(-1.0);
        let b = Value::Number(1.0);
        assert_eq!(eval_binop(BinOp::Ushr, &a, &b).to_number(), 2147483647.0);
        assert_eq!(eval_binop(BinOp::Shr, &a, &b).to_number(), -1.0);
        assert_eq!(
            eval_binop(BinOp::Shl, &b, &Value::Number(33.0)).to_number(),
            2.0
        );
    }

    #[test]
    fn unop_semantics() {
        assert_eq!(
            eval_unop(UnOp::BitNot, &Value::Number(0.0)).to_number(),
            -1.0
        );
        assert!(eval_unop(UnOp::Not, &Value::Number(0.0)).truthy());
        assert_eq!(
            eval_unop(UnOp::Typeof, &Value::Undefined).to_string(),
            "undefined"
        );
    }
}
