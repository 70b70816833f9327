//! The compile cache: one entry per optimizing compilation, holding its
//! DNA, the last verdict given on it and the pipeline's output, so
//! recompiling a hot function skips the compilation itself — MIR
//! building, the 32 slots, lowering and register allocation — as well as
//! tracing, Algorithm 1 and, while the database is unchanged, Algorithm 2.
//!
//! Entries are keyed on a [`CompileKey`]: the function's bytecode, the
//! disabled pipeline slots, the pipeline length and the engine's enabled
//! vulnerabilities. The key is built *before* the pipeline runs from the
//! pipeline's whole input, so equal keys mean equal DNA and equal output,
//! and the engine runs the pipeline only when the cache holds no output
//! for the key, and traces it only when the cache holds no DNA. A
//! verdict additionally depends on the database and the comparator
//! thresholds; it is stored with the [`VerdictStamp`] it was given under
//! and served only to a lookup with an equal stamp. Database generations
//! are unique process-wide per content change, so an equal stamp means
//! equal database content, whichever guard asks.
//!
//! The output ([`PipelineOutput`]) is stored by rounds whose pipeline ran
//! clean: not broken, and with no fault injector armed. Its code is
//! lowered only when a round under the key promotes, and set once.
//!
//! Safety properties:
//!
//! * **Collision-proof**: entries are found by full key equality — a
//!   hash collision costs a comparison, never a wrong DNA.
//! * **Invalidation by construction**: a pass-schedule or vulnerability
//!   change produces a *different key*, and a database or threshold
//!   change a different stamp, so stale results are simply never served
//!   (and are bounded by the wholesale clear).
//! * **Poison recovery**: [`DnaMemo::poison`] models a torn write over
//!   the shared state (the chaos layer fires it at
//!   `FaultSite::ExtractQuery`). Every DNA, verdict and output is
//!   garbled *and* the memo is flagged; the next access purges everything — stored
//!   code included — before serving, so a poisoned memo costs one full
//!   compilation and re-analysis per function, never a wrong verdict.
//!
//! The handle is `Arc`-shared ([`DnaMemo::clone`] aliases the same
//! store), which is how the serving pool gives every worker the same
//! cache: a function compiled on worker 0 is a hit on worker 3, and the
//! DNAs and code survive database hot-swaps because neither extraction
//! nor compilation reads the database. Entries are plain shared data, so
//! a hit clones a few reference counts, never a DNA.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use jitbull_lir::LFunction;
use jitbull_mir::{CompileKey, Label, SlotRun, N_SLOTS};

use crate::compare::CompareConfig;
use crate::dna::Dna;
use crate::index::EntryMatches;

/// Cycles charged per pre-pipeline MIR instruction for hashing a memo
/// key.
pub const MEMO_KEY_COST_PER_INSTR: u64 = 1;
/// Flat cycles charged for serving a whole-function DNA from the memo.
pub const MEMO_HIT_COST: u64 = 40;

/// Bound on memoised compilations before a wholesale clear.
pub const DEFAULT_MEMO_ENTRIES: usize = 1024;

/// What a verdict was given against: database content and comparator
/// thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerdictStamp {
    /// [`crate::DnaDatabase::generation`] of the database compared with.
    pub generation: u64,
    /// The comparator thresholds.
    pub config: CompareConfig,
}

/// What a clean pipeline run produced besides its trace: everything a
/// later compilation under the same key needs in place of running it.
#[derive(Debug, Default, PartialEq)]
pub struct PipelineOutput {
    /// Pipeline work units (the compile-cost model charges per unit).
    pub work: u64,
    /// The executed slots, in pipeline order.
    pub slot_runs: Vec<SlotRun>,
    /// Vulnerabilities, by CVE name, whose incorrect transform fired.
    pub vulns_fired: Vec<&'static str>,
    /// The lowered, register-allocated code. Set once, by the first
    /// round under the key that promotes.
    pub code: OnceLock<Arc<LFunction>>,
}

/// One compilation's cached analysis and output.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoEntry {
    /// The compilation's DNA.
    pub dna: Arc<Dna>,
    /// Instructions in the MIR entering the pipeline (the key-hashing
    /// charge of later hits).
    pub pre_mir_len: usize,
    /// The last indexed verdict: per-entry dangerous slots, in the
    /// stamped database's entry order.
    pub verdict: Option<(VerdictStamp, EntryMatches)>,
    /// The pipeline's output, once a clean round stored it.
    pub output: Option<Arc<PipelineOutput>>,
}

/// What one [`DnaMemo::lookup`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoLookup {
    /// The cached entry; its verdict is kept only under an equal stamp.
    pub entry: Option<MemoEntry>,
    /// The memo's purge count, when this lookup purged a poisoned store.
    pub purged: Option<u64>,
}

/// Cumulative counters across a memo's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups served a DNA.
    pub hits: u64,
    /// Lookups also served a verdict (stamp matched).
    pub verdict_hits: u64,
    /// Lookups also served compiled code.
    pub code_hits: u64,
    /// Entries stored under a new key.
    pub insertions: u64,
    /// Wholesale clears forced by the entry bound.
    pub evictions: u64,
    /// Poisoned states detected and discarded before serving.
    pub poison_purges: u64,
}

#[derive(Debug)]
struct MemoInner {
    entries: HashMap<CompileKey, MemoEntry>,
    poisoned: bool,
    stats: MemoStats,
}

impl MemoInner {
    /// Discards a poisoned store; the purge count when it did.
    fn purge_if_poisoned(&mut self) -> Option<u64> {
        if !self.poisoned {
            return None;
        }
        self.entries.clear();
        self.poisoned = false;
        self.stats.poison_purges += 1;
        Some(self.stats.poison_purges)
    }
}

/// A clone-shared, mutex-protected compile cache (see the module docs).
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
        DnaMemo {
            inner: Arc::new(Mutex::new(MemoInner {
                entries: HashMap::new(),
                poisoned: false,
                stats: MemoStats::default(),
            })),
        }
    }
}

impl DnaMemo {
    /// An empty memo, bounded to [`DEFAULT_MEMO_ENTRIES`] compilations.
    #[must_use]
    pub fn new() -> Self {
        DnaMemo::default()
    }

    /// The cached analysis for `key`, if present once a poisoned store
    /// is purged, and whether that purge happened — all under one lock.
    /// The returned entry keeps its verdict only when `stamp` is given
    /// and equals the verdict's stamp.
    #[must_use]
    pub fn lookup(&self, key: &CompileKey, stamp: Option<&VerdictStamp>) -> MemoLookup {
        let mut inner = self.inner.lock().expect("memo lock");
        let purged = inner.purge_if_poisoned();
        inner.stats.lookups += 1;
        let entry = inner.entries.get(key).cloned().map(|mut found| {
            found.verdict = found.verdict.filter(|(s, _)| Some(s) == stamp);
            found
        });
        if let Some(found) = &entry {
            let has_code = found
                .output
                .as_ref()
                .is_some_and(|o| o.code.get().is_some());
            inner.stats.hits += 1;
            inner.stats.verdict_hits += u64::from(found.verdict.is_some());
            inner.stats.code_hits += u64::from(has_code);
        }
        MemoLookup { entry, purged }
    }

    /// Stores one compilation's analysis, replacing any entry under
    /// `key` (a refreshed verdict overwrites the stale one).
    pub fn insert(&self, key: CompileKey, entry: MemoEntry) {
        let mut inner = self.inner.lock().expect("memo lock");
        inner.purge_if_poisoned();
        let fresh = !inner.entries.contains_key(&key);
        if fresh && inner.entries.len() >= DEFAULT_MEMO_ENTRIES {
            inner.entries.clear();
            inner.stats.evictions += 1;
        }
        inner.entries.insert(key, entry);
        if fresh {
            inner.stats.insertions += 1;
        }
    }

    /// Corrupts the memo in place (a torn write over the shared state):
    /// every stored DNA, verdict and pipeline output is overwritten with
    /// garbage and the memo is flagged poisoned. The next access — lookup
    /// or insert — discards everything before touching it, so the garbage
    /// can never be served.
    pub fn poison(&self) {
        let mut inner = self.inner.lock().expect("memo lock");
        let mut garbage = Dna::default();
        garbage.deltas[0].removed.insert(vec![Label::UNKNOWN]);
        let garbage = Arc::new(garbage);
        let output = Arc::new(PipelineOutput {
            work: u64::MAX,
            vulns_fired: vec!["<poisoned>"],
            ..PipelineOutput::default()
        });
        for entry in inner.entries.values_mut() {
            entry.dna = Arc::clone(&garbage);
            if let Some((_, matches)) = &mut entry.verdict {
                *matches = vec![(usize::MAX, (0..N_SLOTS).collect())];
            }
            entry.output = Some(Arc::clone(&output));
        }
        inner.poisoned = true;
    }

    /// Memoised compilations currently stored.
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
    use crate::dna::chain;
    use jitbull_mir::SlotSet;
    use jitbull_vm::bytecode::{BinOp, Function, Op};

    /// The key of `function f(a) { return a + k; }`, no slot disabled.
    fn key(k: f64) -> CompileKey {
        let f = Function {
            name: "f".into(),
            arity: 1,
            n_locals: 1,
            code: vec![
                Op::LoadLocal(0),
                Op::ConstNum(k),
                Op::Bin(BinOp::Add),
                Op::Return,
            ],
        };
        CompileKey::new(&f, SlotSet::new(), 0)
    }

    fn add() -> CompileKey {
        key(1.0)
    }

    fn entry(verdict: Option<(VerdictStamp, EntryMatches)>) -> MemoEntry {
        let mut dna = Dna::default();
        dna.deltas[1].removed.insert(chain(&["add", "bitor"]));
        MemoEntry {
            dna: Arc::new(dna),
            pre_mir_len: 5,
            verdict,
            output: None,
        }
    }

    /// What `memo` serves for `key` under `stamp`.
    fn served(memo: &DnaMemo, key: &CompileKey, stamp: Option<&VerdictStamp>) -> Option<MemoEntry> {
        memo.lookup(key, stamp).entry
    }

    fn stamp(generation: u64) -> VerdictStamp {
        VerdictStamp {
            generation,
            config: CompareConfig::default(),
        }
    }

    #[test]
    fn hit_requires_equal_key() {
        let memo = DnaMemo::new();
        assert!(served(&memo, &add(), None).is_none());
        memo.insert(add(), entry(None));
        assert_eq!(served(&memo, &add(), None), Some(entry(None)));
        assert_eq!(memo.len(), 1);
        // Same labels, different literal → different key → miss.
        assert!(served(&memo, &key(2.0), None).is_none());
        let stats = memo.stats();
        assert_eq!(stats.lookups, 3);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn verdict_is_served_only_under_its_stamp() {
        let memo = DnaMemo::new();
        let matches: EntryMatches = vec![(0, SlotSet::from_iter([6]))];
        memo.insert(add(), entry(Some((stamp(7), matches.clone()))));
        let hit = served(&memo, &add(), Some(&stamp(7))).unwrap();
        assert_eq!(hit.verdict, Some((stamp(7), matches)));
        // A new generation, new thresholds, or a reference comparator
        // (no stamp) get the DNA without the verdict.
        assert_eq!(served(&memo, &add(), Some(&stamp(8))), Some(entry(None)));
        let strict = VerdictStamp {
            config: CompareConfig { thr: 1, ratio: 0.5 },
            ..stamp(7)
        };
        assert_eq!(served(&memo, &add(), Some(&strict)), Some(entry(None)));
        assert_eq!(served(&memo, &add(), None), Some(entry(None)));
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.verdict_hits), (4, 1));
        // A refreshed verdict overwrites without a new insertion.
        memo.insert(add(), entry(Some((stamp(8), Vec::new()))));
        assert!(served(&memo, &add(), Some(&stamp(8)))
            .unwrap()
            .verdict
            .is_some());
        assert_eq!(memo.stats().insertions, 1);
    }

    #[test]
    fn clones_share_the_store() {
        let memo = DnaMemo::new();
        let alias = memo.clone();
        memo.insert(add(), entry(None));
        assert_eq!(served(&alias, &add(), None), Some(entry(None)));
    }

    #[test]
    fn bound_forces_wholesale_clear() {
        let memo = DnaMemo::new();
        for k in 0..=DEFAULT_MEMO_ENTRIES {
            memo.insert(key(k as f64), entry(None));
        }
        assert_eq!(memo.stats().evictions, 1);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn hits_share_the_stored_dna_and_output() {
        let memo = DnaMemo::new();
        let output = Arc::new(PipelineOutput {
            work: 9,
            ..PipelineOutput::default()
        });
        memo.insert(
            add(),
            MemoEntry {
                output: Some(Arc::clone(&output)),
                ..entry(None)
            },
        );
        let first = served(&memo, &add(), None).unwrap();
        let second = served(&memo, &add(), None).unwrap();
        assert!(Arc::ptr_eq(&first.dna, &second.dna), "a hit clones the DNA");
        // Code set through one hit is seen by every later one.
        let code = Arc::new(jitbull_lir::LFunction {
            blocks: Vec::new(),
            frame_size: 0,
        });
        first.output.unwrap().code.set(code).unwrap();
        assert!(second.output.unwrap().code.get().is_some());
        assert!(output.code.get().is_some());
    }

    #[test]
    fn entries_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemoEntry>();
        assert_send_sync::<DnaMemo>();
    }

    #[test]
    fn poisoned_memo_is_purged_not_served() {
        let memo = DnaMemo::new();
        memo.insert(
            add(),
            MemoEntry {
                output: Some(Arc::new(PipelineOutput::default())),
                ..entry(Some((stamp(7), Vec::new())))
            },
        );
        memo.poison();
        // The garbled entry, output included, must never come back, and
        // the lookup that purged it says so.
        let found = memo.lookup(&add(), Some(&stamp(7)));
        assert_eq!(found.entry, None);
        assert_eq!(found.purged, Some(1));
        assert_eq!(memo.lookup(&add(), None).purged, None);
        assert_eq!(memo.stats().poison_purges, 1);
        // The memo is healthy again and usable.
        memo.insert(add(), entry(None));
        assert_eq!(served(&memo, &add(), None), Some(entry(None)));
        assert_eq!(memo.stats().poison_purges, 1);
    }
}
