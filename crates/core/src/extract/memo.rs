//! The shared DNA memo: whole-function extraction results keyed by what
//! determines them, so recompiling a hot function skips Algorithm 1
//! entirely.
//!
//! The optimization pipeline is a pure function of three inputs: the
//! pre-pipeline MIR, the sequence of slots that actually run (the pass
//! schedule — disabled slots change it), and the engine's vulnerability
//! context (injected incorrect transforms change what passes do). A
//! [`MemoKey`] captures exactly those three, so two traces with equal
//! keys are byte-identical and share one DNA. The pre-pipeline MIR is
//! its snapshot *plus* the trace's [`PassTrace::literals`]: snapshot
//! labels drop constant values, names and branch targets, and passes fold
//! on them — `if (1)` and `if (0)` snapshot alike but compile apart.
//!
//! Safety properties, mirroring the comparator's query cache:
//!
//! * **Collision-proof**: entries are found by full key equality — a
//!   hash collision costs a comparison, never a wrong DNA.
//! * **Invalidation by construction**: a pass-schedule or vulnerability
//!   change produces a *different key*, so stale entries are simply
//!   never looked up again (and are bounded by the wholesale clear).
//! * **Poison recovery**: [`DnaMemo::poison`] models a torn write over
//!   the shared state (the chaos layer fires it at
//!   `FaultSite::ExtractQuery`). Every entry is garbled *and* the memo
//!   is flagged; the next access purges everything before serving, so a
//!   poisoned memo costs one full re-extraction per function, never a
//!   wrong DNA.
//!
//! The handle is `Arc`-shared ([`DnaMemo::clone`] aliases the same
//! store), which is how the serving pool gives every worker the same
//! memo: a function compiled on worker 0 is a memo hit on worker 3, and
//! the memo survives database hot-swaps because it keys on compilation
//! inputs, not database content.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use jitbull_mir::{Literal, MirSnapshot, PassTrace};

use crate::dna::{chain, Dna};

/// Cycles charged per pre-pipeline MIR instruction for hashing a memo
/// key.
pub const MEMO_KEY_COST_PER_INSTR: u64 = 1;
/// Flat cycles charged for serving a whole-function DNA from the memo.
pub const MEMO_HIT_COST: u64 = 40;

/// Default bound on memoised functions before a wholesale clear.
pub const DEFAULT_MEMO_ENTRIES: usize = 1024;

/// Everything that determines a traced compilation's DNA.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// The MIR entering the pipeline (the first record's `before`).
    pre_mir: MirSnapshot,
    /// What `pre_mir`'s labels drop (the trace's literals).
    literals: Vec<Literal>,
    /// The slots that ran, in order, with their pass names.
    schedule: Vec<(usize, &'static str)>,
    /// Pipeline length the DNA was sized to.
    n_slots: usize,
    /// Engine context (vulnerability-config fingerprint): the same MIR
    /// under a different set of injected bugs compiles differently.
    context: u64,
}

impl MemoKey {
    /// Builds the key for a trace, or `None` for an untraced (empty)
    /// compilation — there is nothing to memoise there.
    #[must_use]
    pub fn from_trace(trace: &PassTrace, n_slots: usize, context: u64) -> Option<MemoKey> {
        let first = trace.records.first()?;
        Some(MemoKey {
            pre_mir: first.before.clone(),
            literals: trace.literals.clone(),
            schedule: trace.records.iter().map(|r| (r.slot, r.name)).collect(),
            n_slots,
            context,
        })
    }

    /// Pre-pipeline MIR size (cost accounting).
    #[must_use]
    pub fn pre_mir_len(&self) -> usize {
        self.pre_mir.len()
    }
}

/// Cumulative counters across a memo's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups served from the memo.
    pub hits: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Wholesale clears forced by the entry bound.
    pub evictions: u64,
    /// Poisoned states detected and discarded before serving.
    pub poison_purges: u64,
}

#[derive(Debug)]
struct MemoInner {
    entries: HashMap<MemoKey, Dna>,
    max_entries: usize,
    poisoned: bool,
    stats: MemoStats,
}

impl MemoInner {
    fn purge_if_poisoned(&mut self) {
        if self.poisoned {
            self.entries.clear();
            self.poisoned = false;
            self.stats.poison_purges += 1;
        }
    }
}

/// A clone-shared, mutex-protected DNA memo (see the module docs).
///
/// # Examples
///
/// ```
/// use jitbull::extract::memo::DnaMemo;
/// let memo = DnaMemo::new();
/// let alias = memo.clone();
/// assert_eq!(memo.len(), alias.len());
/// ```
#[derive(Debug, Clone)]
pub struct DnaMemo {
    inner: Arc<Mutex<MemoInner>>,
}

impl Default for DnaMemo {
    fn default() -> Self {
        DnaMemo::with_capacity(DEFAULT_MEMO_ENTRIES)
    }
}

impl DnaMemo {
    /// A memo with the default entry bound.
    #[must_use]
    pub fn new() -> Self {
        DnaMemo::default()
    }

    /// A memo bounded to `max_entries` functions (`0` disables
    /// memoisation entirely — every lookup misses, nothing is stored).
    #[must_use]
    pub fn with_capacity(max_entries: usize) -> Self {
        DnaMemo {
            inner: Arc::new(Mutex::new(MemoInner {
                entries: HashMap::new(),
                max_entries,
                poisoned: false,
                stats: MemoStats::default(),
            })),
        }
    }

    /// The memoised DNA for `key`, if present and the memo is healthy.
    #[must_use]
    pub fn lookup(&self, key: &MemoKey) -> Option<Dna> {
        let mut inner = self.inner.lock().expect("memo lock");
        inner.purge_if_poisoned();
        inner.stats.lookups += 1;
        if inner.max_entries == 0 {
            return None;
        }
        let found = inner.entries.get(key).cloned();
        if found.is_some() {
            inner.stats.hits += 1;
        }
        found
    }

    /// Stores one extraction result.
    pub fn insert(&self, key: MemoKey, dna: Dna) {
        let mut inner = self.inner.lock().expect("memo lock");
        inner.purge_if_poisoned();
        if inner.max_entries == 0 {
            return;
        }
        if inner.entries.len() >= inner.max_entries {
            inner.entries.clear();
            inner.stats.evictions += 1;
        }
        if let Entry::Vacant(slot) = inner.entries.entry(key) {
            slot.insert(dna);
            inner.stats.insertions += 1;
        }
    }

    /// Corrupts the memo in place (a torn write over the shared state):
    /// every stored DNA is overwritten with garbage and the memo is
    /// flagged poisoned. The next access — lookup or insert — discards
    /// everything before touching it, so the garbage can never be
    /// served.
    pub fn poison(&self) {
        let mut inner = self.inner.lock().expect("memo lock");
        let mut garbage = Dna::with_slots(1);
        garbage.deltas[0].removed.insert(chain(&["<poisoned>"]));
        for dna in inner.entries.values_mut() {
            *dna = garbage.clone();
        }
        inner.poisoned = true;
    }

    /// Discards every entry (e.g. on an explicit operator flush).
    pub fn purge(&self) {
        let mut inner = self.inner.lock().expect("memo lock");
        inner.entries.clear();
        inner.poisoned = false;
    }

    /// Memoised functions currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("memo lock").entries.len()
    }

    /// Whether nothing is memoised.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        self.inner.lock().expect("memo lock").stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull_mir::{PassRecord, SnapInstr};
    use std::sync::Arc as StdArc;

    fn snap(labels: &[&str]) -> MirSnapshot {
        MirSnapshot {
            instrs: labels
                .iter()
                .enumerate()
                .map(|(i, l)| SnapInstr {
                    id: i as u32,
                    label: StdArc::from(*l),
                    operands: if i == 0 { vec![] } else { vec![i as u32 - 1] },
                })
                .collect(),
        }
    }

    fn trace(labels: &[&str], slot: usize, name: &'static str) -> PassTrace {
        PassTrace {
            function: "f".into(),
            literals: Vec::new(),
            records: vec![PassRecord {
                slot,
                name,
                before: snap(labels),
                after: snap(&labels[..labels.len() - 1]),
            }],
        }
    }

    fn some_dna() -> Dna {
        let mut dna = Dna::with_slots(4);
        dna.deltas[1].removed.insert(chain(&["a", "b"]));
        dna
    }

    #[test]
    fn hit_requires_equal_key() {
        let memo = DnaMemo::new();
        let t = trace(&["return", "add", "parameter0"], 2, "GVN");
        let key = MemoKey::from_trace(&t, 8, 7).unwrap();
        assert!(memo.lookup(&key).is_none());
        memo.insert(key.clone(), some_dna());
        assert_eq!(memo.lookup(&key), Some(some_dna()));
        assert_eq!(memo.len(), 1);
        // Different schedule → different key → miss.
        let other =
            MemoKey::from_trace(&trace(&["return", "add", "parameter0"], 3, "DCE"), 8, 7).unwrap();
        assert!(memo.lookup(&other).is_none());
        // Different context → miss.
        let ctx = MemoKey::from_trace(&t, 8, 8).unwrap();
        assert!(memo.lookup(&ctx).is_none());
        // Different pre-MIR → miss.
        let mir =
            MemoKey::from_trace(&trace(&["return", "mul", "parameter0"], 2, "GVN"), 8, 7).unwrap();
        assert!(memo.lookup(&mir).is_none());
        // Same labels, different literal → miss.
        let mut literal = t.clone();
        literal.literals.push(Literal::Number(6f64.to_bits()));
        let literal = MemoKey::from_trace(&literal, 8, 7).unwrap();
        assert!(memo.lookup(&literal).is_none());
        let stats = memo.stats();
        assert_eq!(stats.lookups, 6);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn clones_share_the_store() {
        let memo = DnaMemo::new();
        let alias = memo.clone();
        let key = MemoKey::from_trace(&trace(&["return", "add"], 1, "GVN"), 8, 0).unwrap();
        memo.insert(key.clone(), some_dna());
        assert_eq!(alias.lookup(&key), Some(some_dna()));
    }

    #[test]
    fn empty_trace_has_no_key() {
        let t = PassTrace {
            function: "f".into(),
            literals: Vec::new(),
            records: vec![],
        };
        assert!(MemoKey::from_trace(&t, 8, 0).is_none());
    }

    #[test]
    fn zero_capacity_disables_memoisation() {
        let memo = DnaMemo::with_capacity(0);
        let key = MemoKey::from_trace(&trace(&["return", "add"], 1, "GVN"), 8, 0).unwrap();
        memo.insert(key.clone(), some_dna());
        assert!(memo.lookup(&key).is_none());
        assert!(memo.is_empty());
    }

    #[test]
    fn bound_forces_wholesale_clear() {
        let memo = DnaMemo::with_capacity(2);
        for i in 0..3usize {
            let labels: Vec<String> = (0..=i).map(|k| format!("op{k}")).collect();
            let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
            let key = MemoKey::from_trace(&trace(&refs, 1, "GVN"), 8, 0).unwrap();
            memo.insert(key, some_dna());
        }
        assert_eq!(memo.stats().evictions, 1);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn poisoned_memo_is_purged_not_served() {
        let memo = DnaMemo::new();
        let key = MemoKey::from_trace(&trace(&["return", "add"], 1, "GVN"), 8, 0).unwrap();
        memo.insert(key.clone(), some_dna());
        memo.poison();
        // The garbled entry must never come back.
        assert!(memo.lookup(&key).is_none());
        assert_eq!(memo.stats().poison_purges, 1);
        // The memo is healthy again and usable.
        memo.insert(key.clone(), some_dna());
        assert_eq!(memo.lookup(&key), Some(some_dna()));
        assert_eq!(memo.stats().poison_purges, 1);
    }

    #[test]
    fn purge_empties_without_counting_poison() {
        let memo = DnaMemo::new();
        let key = MemoKey::from_trace(&trace(&["return", "add"], 1, "GVN"), 8, 0).unwrap();
        memo.insert(key.clone(), some_dna());
        memo.purge();
        assert!(memo.is_empty());
        assert_eq!(memo.stats().poison_purges, 0);
    }
}
