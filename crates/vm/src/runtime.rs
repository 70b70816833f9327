//! Execution state shared by all tiers: heap, globals, objects, exploit
//! status, and the deterministic cycle cost model.

use std::collections::HashMap;
use std::rc::Rc;

use crate::bytecode::Module;
use crate::error::VmError;
use crate::heap::Heap;
use crate::value::{ObjId, Value};

/// The "sprayed shellcode" sentinel. A call whose callee cell has been
/// corrupted to this number models a successful control-flow hijack to
/// attacker-sprayed code (the payload outcome of CVE-2019-11707 /
/// CVE-2019-17026 style exploits).
pub const SHELLCODE_MARKER: f64 = 3_735_928_559.0; // 0xDEADBEEF

/// Per-op cycle cost of the interpreter tier.
pub const INTERP_COST: u64 = 25;
/// Per-op cycle cost of the baseline (unoptimized machine code) tier.
pub const BASELINE_COST: u64 = 5;
/// Per-MIR-instruction cycle cost of the optimizing (Ion-like) tier.
pub const ION_COST: u64 = 1;

/// What the simulated process experienced by the end of the run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ExploitStatus {
    /// Nothing security-relevant happened.
    #[default]
    Clean,
    /// A wild memory access crashed the runtime (message says where).
    Crashed(String),
    /// Control flow reached attacker-sprayed "shellcode".
    ShellcodeExecuted,
}

impl ExploitStatus {
    /// Whether the run ended in an attacker-visible success (crash or
    /// payload execution).
    pub fn is_compromised(&self) -> bool {
        !matches!(self, ExploitStatus::Clean)
    }
}

/// A plain object's storage.
#[derive(Debug, Default, Clone)]
pub struct ObjectData {
    props: HashMap<Rc<str>, Value>,
}

impl ObjectData {
    /// Reads a property (`undefined` when absent).
    pub fn get(&self, name: &str) -> Value {
        self.props.get(name).cloned().unwrap_or(Value::Undefined)
    }

    /// Writes a property. Only a store that adds a new key allocates.
    pub fn set(&mut self, name: &str, value: Value) {
        match self.props.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                self.props.insert(Rc::from(name), value);
            }
        }
    }
}

/// The result of a completed (or aborted) run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Lines produced by `print`.
    pub printed: Vec<String>,
    /// Total simulated cycles consumed (execution + compilation charges).
    pub cycles: u64,
    /// Executed operations (bytecode / MIR / LIR), across all tiers.
    pub ops: u64,
    /// Exploit status at end of run.
    pub status: ExploitStatus,
}

/// Value and guard-flag storage for one optimizing-tier activation: one
/// value and one guard pass/fail flag per frame slot. Activations borrow
/// it from [`Runtime::take_frame`] and hand it back with
/// [`Runtime::recycle_frame`], so a call reuses storage instead of
/// allocating.
#[derive(Debug, Default)]
pub struct Frame {
    /// The value in each frame slot.
    pub values: Vec<Value>,
    /// Whether the guard that defined each slot passed.
    pub flags: Vec<bool>,
}

/// Mutable execution state shared by the interpreter, baseline, and
/// optimizing tiers.
#[derive(Debug)]
pub struct Runtime {
    /// The flat element heap.
    pub heap: Heap,
    /// Global variable slots (sized by [`Runtime::prepare`]).
    pub globals: Vec<Value>,
    objects: Vec<ObjectData>,
    /// Output of `print`.
    pub printed: Vec<String>,
    cycles: u64,
    ops: u64,
    fuel: u64,
    /// Exploit status; set by the VM when wild accesses or hijacked calls
    /// occur.
    pub status: ExploitStatus,
    depth: u32,
    rng: u64,
    /// Released activation storage, reused by the next [`Runtime::take_frame`].
    free_frames: Vec<Frame>,
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new()
    }
}

impl Runtime {
    /// Maximum call depth before the run is aborted.
    pub const MAX_DEPTH: u32 = 600;

    /// Creates a runtime with the default fuel budget (500M operations).
    pub fn new() -> Self {
        Runtime::with_fuel(500_000_000)
    }

    /// Creates a runtime with an explicit fuel budget (in executed
    /// bytecode/MIR operations).
    pub fn with_fuel(fuel: u64) -> Self {
        Runtime {
            heap: Heap::new(),
            globals: Vec::new(),
            objects: Vec::new(),
            printed: Vec::new(),
            cycles: 0,
            ops: 0,
            fuel,
            status: ExploitStatus::Clean,
            depth: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            free_frames: Vec::new(),
        }
    }

    /// Sizes the global table for `module` and binds every function to its
    /// global slot. Must be called (directly or via
    /// [`crate::interp::run_module`]) before executing code.
    pub fn prepare(&mut self, module: &Module) {
        self.globals = vec![Value::Undefined; module.global_count()];
        for (i, name) in module.global_names.iter().enumerate() {
            if let Some(fid) = module.function_id(name) {
                self.globals[i] = Value::Function(fid);
            }
        }
    }

    /// Charges one executed operation at `cost` cycles.
    ///
    /// # Errors
    ///
    /// [`VmError::OutOfFuel`] when the fuel budget is exhausted.
    #[inline]
    pub fn consume_op(&mut self, cost: u64) -> Result<(), VmError> {
        if self.fuel == 0 {
            return Err(VmError::OutOfFuel);
        }
        self.fuel -= 1;
        self.ops += 1;
        self.cycles += cost;
        Ok(())
    }

    /// Adds a lump-sum cycle charge (used for compilation and JITBULL
    /// analysis costs).
    pub fn add_cycles(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Total simulated cycles so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Operations executed so far (across all tiers).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Remaining fuel.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// Enters a call frame.
    ///
    /// # Errors
    ///
    /// [`VmError::Type`] when the depth limit is exceeded.
    pub fn enter_call(&mut self) -> Result<(), VmError> {
        if self.depth >= Self::MAX_DEPTH {
            return Err(VmError::Type("call stack depth exceeded".into()));
        }
        self.depth += 1;
        Ok(())
    }

    /// Leaves a call frame.
    pub fn exit_call(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// A frame of `slots` slots, each `undefined` with its flag set,
    /// taken from the free list when one is there.
    #[inline]
    pub fn take_frame(&mut self, slots: usize) -> Frame {
        let mut frame = self.free_frames.pop().unwrap_or_default();
        // Recycled frames are empty: fill, don't clone a filler value.
        frame.values.extend((0..slots).map(|_| Value::Undefined));
        frame.flags.resize(slots, true);
        frame
    }

    /// Returns a frame's storage to the free list, dropping its values.
    #[inline]
    pub fn recycle_frame(&mut self, mut frame: Frame) {
        frame.values.clear();
        frame.flags.clear();
        self.free_frames.push(frame);
    }

    /// Allocates a fresh empty object.
    pub fn alloc_object(&mut self) -> ObjId {
        let id = ObjId(self.objects.len() as u32);
        self.objects.push(ObjectData::default());
        id
    }

    /// Immutable access to an object.
    pub fn object(&self, id: ObjId) -> &ObjectData {
        &self.objects[id.0 as usize]
    }

    /// Mutable access to an object.
    pub fn object_mut(&mut self, id: ObjId) -> &mut ObjectData {
        &mut self.objects[id.0 as usize]
    }

    /// Deterministic `Math.random()` (xorshift64*; seeded constant so runs
    /// reproduce exactly).
    pub fn next_random(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
        bits as f64 / (1u64 << 53) as f64
    }

    /// Records a crash into the exploit status (first crash wins).
    pub fn note_crash(&mut self, message: &str) {
        if matches!(self.status, ExploitStatus::Clean) {
            self.status = ExploitStatus::Crashed(message.to_owned());
        }
    }

    /// Finishes the run, extracting the [`Outcome`].
    pub fn into_outcome(self) -> Outcome {
        Outcome {
            printed: self.printed,
            cycles: self.cycles,
            ops: self.ops,
            status: self.status,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuel_exhaustion() {
        let mut rt = Runtime::with_fuel(2);
        assert!(rt.consume_op(1).is_ok());
        assert!(rt.consume_op(1).is_ok());
        assert_eq!(rt.consume_op(1), Err(VmError::OutOfFuel));
        assert_eq!(rt.cycles(), 2);
        assert_eq!(rt.ops(), 2, "the failed op must not be counted");
    }

    #[test]
    fn depth_limit() {
        let mut rt = Runtime::new();
        for _ in 0..Runtime::MAX_DEPTH {
            rt.enter_call().unwrap();
        }
        assert!(rt.enter_call().is_err());
        rt.exit_call();
        assert!(rt.enter_call().is_ok());
    }

    #[test]
    fn recycled_frames_come_back_reset() {
        let mut rt = Runtime::new();
        let mut f = rt.take_frame(3);
        f.values[1] = Value::Number(7.0);
        f.flags[2] = false;
        let storage = f.values.as_ptr();
        rt.recycle_frame(f);
        let g = rt.take_frame(2);
        assert_eq!(g.values.as_ptr(), storage, "storage is reused");
        assert!(g.values.iter().all(|v| matches!(v, Value::Undefined)));
        assert_eq!(g.flags, vec![true, true]);
        let h = rt.take_frame(4);
        assert_eq!(
            (h.values.len(), h.flags.len()),
            (4, 4),
            "an empty free list allocates"
        );
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let mut a = Runtime::new();
        let mut b = Runtime::new();
        for _ in 0..100 {
            let x = a.next_random();
            assert_eq!(x, b.next_random());
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn object_properties() {
        let mut rt = Runtime::new();
        let id = rt.alloc_object();
        assert!(matches!(rt.object(id).get("missing"), Value::Undefined));
        rt.object_mut(id).set("x", Value::Number(4.0));
        assert!(matches!(rt.object(id).get("x"), Value::Number(n) if n == 4.0));
    }

    #[test]
    fn first_crash_wins() {
        let mut rt = Runtime::new();
        rt.note_crash("first");
        rt.note_crash("second");
        assert_eq!(rt.status, ExploitStatus::Crashed("first".into()));
    }

    #[test]
    fn status_compromised() {
        assert!(!ExploitStatus::Clean.is_compromised());
        assert!(ExploitStatus::ShellcodeExecuted.is_compromised());
        assert!(ExploitStatus::Crashed("x".into()).is_compromised());
    }
}
