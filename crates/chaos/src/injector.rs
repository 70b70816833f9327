//! The seeded fault injector.
//!
//! Determinism contract: whether occurrence `n` of a [`FaultSite`] faults
//! is a pure function of `(plan seed, site, n)`. Each site keeps its own
//! atomic occurrence counter, so concurrent workers may *experience* the
//! faults in different orders, but the set of faulted occurrences — and
//! therefore every tally — is identical run to run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jitbull_prng::Rng;

/// Where in the engine a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// One pipeline slot about to run during an Ion compilation.
    PassRun,
    /// One VDC database parse/load attempt.
    DbLoad,
    /// One indexed comparator query.
    ComparatorQuery,
    /// One pool worker about to serve a dequeued request.
    WorkerServe,
    /// One compile-cache lookup (incremental extractor only).
    ExtractQuery,
}

impl FaultSite {
    /// Every site, in index order.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::PassRun,
        FaultSite::DbLoad,
        FaultSite::ComparatorQuery,
        FaultSite::WorkerServe,
        FaultSite::ExtractQuery,
    ];

    fn index(self) -> usize {
        match self {
            FaultSite::PassRun => 0,
            FaultSite::DbLoad => 1,
            FaultSite::ComparatorQuery => 2,
            FaultSite::WorkerServe => 3,
            FaultSite::ExtractQuery => 4,
        }
    }

    /// Stable lower-case name (metric keys, demo output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::PassRun => "pass_run",
            FaultSite::DbLoad => "db_load",
            FaultSite::ComparatorQuery => "comparator_query",
            FaultSite::WorkerServe => "worker_serve",
            FaultSite::ExtractQuery => "extract_query",
        }
    }
}

/// What goes wrong when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The pipeline slot panics mid-compilation.
    PassPanic,
    /// The pipeline slot burns `extra_work` additional work units
    /// (a stalled/pathological pass; the watchdog's prey).
    PassStall {
        /// Extra work units charged to the compilation.
        extra_work: u64,
    },
    /// The slot leaves the IR graph incoherent (caught by the pipeline's
    /// coherency check, abandoning the compilation).
    IrCorrupt,
    /// The DB load fails with a synthetic I/O error.
    DbIo,
    /// The DB load fails with a synthetic parse error.
    DbParse,
    /// The DB text is truncated mid-entry before parsing (a torn read;
    /// strict parsing must refuse the partial file).
    DbTruncate,
    /// Cached state is corrupted in place (a torn write): at
    /// [`FaultSite::ExtractQuery`] the compile cache's DNAs and verdicts,
    /// at [`FaultSite::ComparatorQuery`] the comparator index's
    /// generation stamp.
    CachePoison,
    /// The request is treated as having blown its deadline.
    DeadlineBlowout,
    /// The worker thread panics before serving the request.
    WorkerPanic,
}

impl FaultKind {
    /// Stable lower-case name (tallies, metric keys, demo output).
    #[must_use]
    pub fn name(self) -> &'static str {
        FaultKind::NAMES[self.tally_index()]
    }

    fn tally_index(self) -> usize {
        match self {
            FaultKind::PassPanic => 0,
            FaultKind::PassStall { .. } => 1,
            FaultKind::IrCorrupt => 2,
            FaultKind::DbIo => 3,
            FaultKind::DbParse => 4,
            FaultKind::DbTruncate => 5,
            FaultKind::CachePoison => 6,
            FaultKind::DeadlineBlowout => 7,
            FaultKind::WorkerPanic => 8,
        }
    }

    const N_KINDS: usize = 9;

    const NAMES: [&'static str; FaultKind::N_KINDS] = [
        "pass_panic",
        "pass_stall",
        "ir_corrupt",
        "db_io",
        "db_parse",
        "db_truncate",
        "cache_poison",
        "deadline_blowout",
        "worker_panic",
    ];
}

/// When a rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on occurrences `skip .. skip + count` of the site.
    Nth {
        /// Occurrences to let pass unharmed first.
        skip: u64,
        /// Consecutive occurrences to fault after that.
        count: u64,
    },
    /// Fire on each occurrence independently with this probability,
    /// decided by hashing `(seed, site, occurrence)` — not by a shared
    /// stream, so concurrency cannot perturb the outcome set.
    Rate(f64),
}

/// One fault rule: at `site`, under `trigger`, inject `kind`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Where the fault applies.
    pub site: FaultSite,
    /// What goes wrong.
    pub kind: FaultKind,
    /// When it fires.
    pub trigger: Trigger,
}

/// A seeded set of fault rules. First matching rule wins per occurrence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for rate-based triggers (and backoff jitter derived from it).
    pub seed: u64,
    /// The rules, consulted in insertion order.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a scripted rule: fault occurrences `skip .. skip + count`.
    #[must_use]
    pub fn script(mut self, site: FaultSite, kind: FaultKind, skip: u64, count: u64) -> Self {
        self.rules.push(FaultRule {
            site,
            kind,
            trigger: Trigger::Nth { skip, count },
        });
        self
    }

    /// Adds a rate-based rule: each occurrence faults with probability
    /// `rate`, decided deterministically per occurrence.
    #[must_use]
    pub fn random(mut self, site: FaultSite, kind: FaultKind, rate: f64) -> Self {
        self.rules.push(FaultRule {
            site,
            kind,
            trigger: Trigger::Rate(rate),
        });
        self
    }
}

#[derive(Debug)]
struct Inner {
    plan: FaultPlan,
    occurrences: [AtomicU64; FaultSite::ALL.len()],
    injected: [AtomicU64; FaultKind::N_KINDS],
}

/// Per-kind injected-fault counts, ordered by kind name.
///
/// Comparable across runs: two ladders with the same seed must produce
/// equal tallies (the `repro -- chaos` determinism check relies on this).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosTally {
    /// `(kind name, times injected)`, only kinds with nonzero counts.
    pub counts: Vec<(&'static str, u64)>,
}

impl ChaosTally {
    /// Total faults injected across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|(_, n)| n).sum()
    }

    /// Count for one kind name (0 if absent).
    #[must_use]
    pub fn get(&self, kind: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n)
    }

    /// Merges another tally into this one (per-kind sums).
    pub fn merge(&mut self, other: &ChaosTally) {
        for (kind, n) in &other.counts {
            match self.counts.iter_mut().find(|(k, _)| k == kind) {
                Some((_, mine)) => *mine += n,
                None => self.counts.push((kind, *n)),
            }
        }
        self.counts.sort_by_key(|(k, _)| *k);
    }
}

/// The injector handed to every subsystem. Cloning shares state — all
/// clones draw from the same per-site occurrence counters, which is what
/// threads a single deterministic plan through pool workers.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<Inner>>,
}

impl FaultInjector {
    /// The no-op injector: [`FaultInjector::fire`] is a single pointer
    /// test. This is the default everywhere.
    #[must_use]
    pub fn disabled() -> Self {
        FaultInjector { inner: None }
    }

    /// An armed injector executing `plan`.
    #[must_use]
    pub fn from_plan(plan: FaultPlan) -> Self {
        FaultInjector {
            inner: Some(Arc::new(Inner {
                plan,
                occurrences: Default::default(),
                injected: Default::default(),
            })),
        }
    }

    /// Whether a plan is armed (false for the zero-overhead path).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Consumes one occurrence of `site` and returns the fault to inject,
    /// if any. Call sites must be prepared to act on every [`FaultKind`]
    /// their site can be scripted with and ignore the rest.
    #[inline]
    pub fn fire(&self, site: FaultSite) -> Option<FaultKind> {
        let inner = self.inner.as_ref()?;
        let n = inner.occurrences[site.index()].fetch_add(1, Ordering::Relaxed);
        for rule in &inner.plan.rules {
            if rule.site != site {
                continue;
            }
            let hit = match rule.trigger {
                Trigger::Nth { skip, count } => n >= skip && n - skip < count,
                Trigger::Rate(rate) => {
                    // One throwaway generator per (seed, site, occurrence):
                    // the decision must not depend on draw order elsewhere.
                    let salt = (site.index() as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407);
                    let mut rng = Rng::seed_from_u64(
                        inner.plan.seed ^ salt ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    rng.next_f64() < rate
                }
            };
            if hit {
                inner.injected[rule.kind.tally_index()].fetch_add(1, Ordering::Relaxed);
                return Some(rule.kind);
            }
        }
        None
    }

    /// Occurrences consumed so far at `site` (faulted or not).
    #[must_use]
    pub fn occurrences(&self, site: FaultSite) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.occurrences[site.index()].load(Ordering::Relaxed))
    }

    /// Per-kind injected counts so far.
    #[must_use]
    pub fn tally(&self) -> ChaosTally {
        let mut counts = Vec::new();
        if let Some(inner) = &self.inner {
            for (ix, name) in FaultKind::NAMES.iter().enumerate() {
                let n = inner.injected[ix].load(Ordering::Relaxed);
                if n > 0 {
                    counts.push((*name, n));
                }
            }
        }
        ChaosTally { counts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires_and_counts_nothing() {
        let inj = FaultInjector::disabled();
        for site in FaultSite::ALL {
            for _ in 0..100 {
                assert_eq!(inj.fire(site), None);
            }
            assert_eq!(inj.occurrences(site), 0);
        }
        assert_eq!(inj.tally().total(), 0);
    }

    #[test]
    fn scripted_rule_fires_exactly_the_window() {
        let inj = FaultInjector::from_plan(FaultPlan::new(1).script(
            FaultSite::DbLoad,
            FaultKind::DbIo,
            2,
            3,
        ));
        let fired: Vec<bool> = (0..8)
            .map(|_| inj.fire(FaultSite::DbLoad).is_some())
            .collect();
        assert_eq!(fired, [false, false, true, true, true, false, false, false]);
        assert_eq!(inj.tally().get("db_io"), 3);
        // Other sites are untouched.
        assert_eq!(inj.fire(FaultSite::PassRun), None);
    }

    #[test]
    fn rate_rule_is_deterministic_per_occurrence() {
        let draw = |seed| {
            let inj = FaultInjector::from_plan(FaultPlan::new(seed).random(
                FaultSite::PassRun,
                FaultKind::IrCorrupt,
                0.3,
            ));
            (0..200)
                .map(|_| inj.fire(FaultSite::PassRun).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let hits = draw(7).iter().filter(|h| **h).count();
        assert!((30..90).contains(&hits), "rate 0.3 over 200 gave {hits}");
    }

    #[test]
    fn clones_share_occurrence_counters() {
        let a = FaultInjector::from_plan(FaultPlan::new(3).script(
            FaultSite::WorkerServe,
            FaultKind::WorkerPanic,
            1,
            1,
        ));
        let b = a.clone();
        assert_eq!(a.fire(FaultSite::WorkerServe), None);
        assert_eq!(b.fire(FaultSite::WorkerServe), Some(FaultKind::WorkerPanic));
        assert_eq!(a.tally(), b.tally());
        assert_eq!(a.occurrences(FaultSite::WorkerServe), 2);
    }

    #[test]
    fn first_matching_rule_wins() {
        let inj = FaultInjector::from_plan(
            FaultPlan::new(0)
                .script(FaultSite::PassRun, FaultKind::PassPanic, 0, 1)
                .script(FaultSite::PassRun, FaultKind::IrCorrupt, 0, 5),
        );
        assert_eq!(inj.fire(FaultSite::PassRun), Some(FaultKind::PassPanic));
        assert_eq!(inj.fire(FaultSite::PassRun), Some(FaultKind::IrCorrupt));
    }

    #[test]
    fn tallies_merge_and_compare() {
        let mut a = ChaosTally {
            counts: vec![("db_io", 2)],
        };
        let b = ChaosTally {
            counts: vec![("db_io", 1), ("pass_panic", 4)],
        };
        a.merge(&b);
        assert_eq!(a.get("db_io"), 3);
        assert_eq!(a.get("pass_panic"), 4);
        assert_eq!(a.total(), 7);
    }
}
