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
//! The pipeline length is no input either: it is the constant [`N_SLOTS`],
//! so the skipped slots fit one [`SlotSet`].

use std::mem::Discriminant;
use std::sync::Arc;

use jitbull_vm::bytecode::{Function, Op};

/// The pipeline length: `n` in the paper's JIT DNA `Δ^f = (Δ_1 … Δ_n)`.
/// IonMonkey runs 32 passes, and `jitbull_jit::PIPELINE` is typed by it.
pub const N_SLOTS: usize = 32;

/// A set of pipeline slots, one bit per slot: the paper's `DisPass`, the
/// slots a compilation skips and the slots an engine disables. It
/// iterates in slot order, and `Debug` prints a list (`[2, 6]`).
/// Inserting a slot `>= N_SLOTS` panics like an out-of-range index.
///
/// ```
/// use jitbull_mir::SlotSet;
///
/// let dangerous: SlotSet = [6, 2, 6].into_iter().collect();
/// assert_eq!(format!("{dangerous:?}"), "[2, 6]");
/// assert!(SlotSet::from_iter([2]).is_subset(dangerous));
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SlotSet(u32);

const _: () = assert!(N_SLOTS == u32::BITS as usize);

impl SlotSet {
    /// The empty set.
    pub const fn new() -> Self {
        SlotSet(0)
    }

    /// Adds `slot`, panicking when `slot >= N_SLOTS`.
    pub const fn insert(&mut self, slot: usize) {
        assert!(slot < N_SLOTS, "slot out of range");
        self.0 |= 1 << slot;
    }

    /// Whether `slot` is a member (never for a slot `>= N_SLOTS`).
    pub const fn contains(self, slot: usize) -> bool {
        slot < N_SLOTS && self.0 & 1 << slot != 0
    }

    /// The slots in either set.
    pub const fn union(self, other: SlotSet) -> Self {
        SlotSet(self.0 | other.0)
    }

    /// The slots in both sets.
    pub const fn intersection(self, other: SlotSet) -> Self {
        SlotSet(self.0 & other.0)
    }

    /// The slots in this set and not in `other`.
    pub const fn difference(self, other: SlotSet) -> Self {
        SlotSet(self.0 & !other.0)
    }

    /// Whether every member is also in `other`.
    pub const fn is_subset(self, other: SlotSet) -> bool {
        self.difference(other).is_empty()
    }

    /// Whether the set has no member.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The number of members.
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The members in slot order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..N_SLOTS).filter(move |&slot| self.contains(slot))
    }
}

impl FromIterator<usize> for SlotSet {
    fn from_iter<I: IntoIterator<Item = usize>>(slots: I) -> Self {
        let mut set = SlotSet::new();
        slots.into_iter().for_each(|slot| set.insert(slot));
        set
    }
}

impl std::fmt::Debug for SlotSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The inputs of one optimizing compilation.
///
/// The function's name is left out: no pass or vulnerability model reads
/// it, so functions that differ only in name share a key.
///
/// # Examples
///
/// ```
/// use jitbull_frontend::parse_program;
/// use jitbull_mir::{CompileKey, SlotSet};
/// use jitbull_vm::compile_program;
///
/// let module = compile_program(&parse_program(
///     "function f(a) { return a + 1; } function g(b) { return b + 1; } function h(a) { return a + 2; }",
/// )?)?;
/// let key = |name: &str| {
///     let f = module.function(module.function_id(name).unwrap());
///     CompileKey::new(f, SlotSet::new(), 0)
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
    /// Disableable slots the pipeline skips.
    disabled: SlotSet,
    /// Enabled vulnerabilities, one bit each.
    vulns: u64,
}

impl CompileKey {
    /// The key for compiling `function` with the disableable slots in
    /// `disabled` skipped, in an engine whose enabled vulnerabilities form
    /// the bitmask `vulns`. Callers pass only slots the pipeline honours;
    /// mandatory slots run whatever the disabled set says.
    #[must_use]
    pub fn new(function: &Function, disabled: SlotSet, vulns: u64) -> Self {
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

    fn key_of(src: &str, disabled: &[usize], vulns: u64) -> CompileKey {
        let module = compile_program(&parse_program(src).unwrap()).unwrap();
        CompileKey::new(
            module.function(module.function_id("f").unwrap()),
            disabled.iter().copied().collect(),
            vulns,
        )
    }

    #[test]
    fn key_covers_every_payload_labels_drop() {
        let base = key_of("function f(a) { return a.x + 1; }", &[], 0);
        assert_eq!(base, key_of("function f(b) { return b.x + 1; }", &[], 0));
        for other in [
            "function f(a) { return a.y + 1; }",
            "function f(a) { return a.x + 2; }",
            "function f(a) { return a.x - 1; }",
            "function f(a, b) { return a.x + 1; }",
        ] {
            assert_ne!(base, key_of(other, &[], 0), "{other}");
        }
    }

    #[test]
    fn key_covers_schedule_and_vulnerabilities() {
        let src = "function f(a) { return a[0]; }";
        let base = key_of(src, &[6, 3], 0);
        assert_eq!(base, key_of(src, &[3, 6, 6], 0), "a set, not a list");
        assert_ne!(base, key_of(src, &[3], 0));
        assert_ne!(base, key_of(src, &[6, 3], 1));
    }

    /// Random operations on a [`SlotSet`] agree with a `BTreeSet` model.
    #[test]
    fn slot_set_agrees_with_a_btree_set() {
        use jitbull_prng::Rng;
        use std::collections::BTreeSet;
        let mut rng = Rng::seed_from_u64(16);
        let random = |rng: &mut Rng| -> Vec<usize> {
            let n = rng.gen_range(0..N_SLOTS + 8);
            (0..n).map(|_| rng.gen_range(0..N_SLOTS)).collect()
        };
        for _ in 0..2000 {
            let (xs, ys) = (random(&mut rng), random(&mut rng));
            let (a, b): (SlotSet, SlotSet) =
                (xs.iter().copied().collect(), ys.iter().copied().collect());
            let (ma, mb): (BTreeSet<usize>, BTreeSet<usize>) =
                (xs.into_iter().collect(), ys.into_iter().collect());
            let model = |set: SlotSet| set.iter().collect::<BTreeSet<usize>>();
            assert_eq!(model(a), ma);
            assert_eq!(a.len(), ma.len());
            assert_eq!(a.is_empty(), ma.is_empty());
            assert_eq!(
                a.iter().collect::<Vec<_>>(),
                ma.iter().copied().collect::<Vec<_>>()
            );
            assert_eq!(
                format!("{a:?}"),
                format!("{:?}", ma.iter().collect::<Vec<_>>())
            );
            for slot in 0..N_SLOTS + 2 {
                assert_eq!(a.contains(slot), ma.contains(&slot), "slot {slot}");
            }
            assert_eq!(model(a.union(b)), &ma | &mb);
            assert_eq!(model(a.intersection(b)), &ma & &mb);
            assert_eq!(model(a.difference(b)), &ma - &mb);
            assert_eq!(a.is_subset(b), ma.is_subset(&mb));
            assert!(a.intersection(b).is_subset(a));
            let mut grown = a;
            let slot = rng.gen_range(0..N_SLOTS);
            grown.insert(slot);
            let mut grown_model = ma.clone();
            grown_model.insert(slot);
            assert_eq!(model(grown), grown_model);
        }
    }

    #[test]
    #[should_panic(expected = "slot out of range")]
    fn slot_set_rejects_a_slot_past_the_pipeline() {
        SlotSet::new().insert(N_SLOTS);
    }

    #[test]
    fn keys_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompileKey>();
    }
}
