//! Hot-swap publication of the shared database snapshot.
//!
//! The serving pool's hot-swap primitive: publishers change the one
//! published [`DnaDatabase`] copy-on-write under the cell's lock, and
//! every publication draws a fresh [`DnaDatabase::generation`]. Readers
//! cheaply detect staleness by comparing generations and only take the
//! lock to reload when the generation actually moved.
//!
//! # The no-stale-verdict argument
//!
//! * The generation is the database's own: the mirror the cell reads
//!   lock-free is stored *while holding the slot lock*, right after the
//!   publication touched it, so any `load()` returns a snapshot whose
//!   generation was published with exactly its content.
//! * Published generations only increase: each publication draws a fresh
//!   one from the process-wide counter under the lock. A request stamped
//!   with `min_generation = generation()` at submit time is served by a
//!   worker whose guard holds a snapshot with
//!   `generation == generation()` *at or after dequeue*, and dequeue
//!   happens-after submit — therefore the serving generation is
//!   `>= min_generation` and the response can never reflect a database
//!   older than the one visible when the request entered the pool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use jitbull::DnaDatabase;

/// A hot-swappable `Arc<DnaDatabase>` snapshot.
#[derive(Debug)]
pub struct SnapshotCell {
    /// The slot's generation, stored under its lock on every publish;
    /// read lock-free.
    generation: AtomicU64,
    slot: Mutex<Arc<DnaDatabase>>,
}

impl SnapshotCell {
    /// Creates a cell publishing `db`.
    #[must_use]
    pub fn new(db: DnaDatabase) -> Self {
        SnapshotCell {
            generation: AtomicU64::new(db.generation()),
            slot: Mutex::new(Arc::new(db)),
        }
    }

    /// The published generation (lock-free fast path for staleness
    /// checks).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Publishes what `edit` makes of the snapshot, under a fresh
    /// generation. `edit` runs under the slot lock and changes the
    /// database copy-on-write ([`Arc::make_mut`]) or replaces it, so
    /// workers keep serving the snapshot they hold. Returns `edit`'s
    /// result and the published snapshot.
    pub fn publish<R>(
        &self,
        edit: impl FnOnce(&mut Arc<DnaDatabase>) -> R,
    ) -> (R, Arc<DnaDatabase>) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        let result = edit(&mut slot);
        Arc::make_mut(&mut slot).touch();
        self.generation.store(slot.generation(), Ordering::Release);
        (result, Arc::clone(&slot))
    }

    /// The published snapshot.
    #[must_use]
    pub fn load(&self) -> Arc<DnaDatabase> {
        Arc::clone(&self.slot.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull::dna::chain;
    use jitbull::Dna;

    fn db_with(cve: &str) -> DnaDatabase {
        let mut dna = Dna::default();
        dna.deltas[1].removed.insert(chain(&["add", "bitor"]));
        let mut db = DnaDatabase::new();
        db.install(cve, "f", dna);
        db
    }

    #[test]
    fn publish_moves_generation_and_swaps_content() {
        let cell = SnapshotCell::new(db_with("CVE-1"));
        let g1 = cell.generation();
        let snap = cell.load();
        assert_eq!(snap.generation(), g1);
        assert_eq!(snap.cves(), vec!["CVE-1"]);
        let ((), published) = cell.publish(|db| *db = Arc::new(db_with("CVE-2")));
        let g2 = published.generation();
        assert!(g2 > g1);
        assert_eq!(cell.generation(), g2);
        let next = cell.load();
        assert_eq!((next.generation(), next.cves()), (g2, vec!["CVE-2"]));
        // The snapshot a reader holds is left as it was.
        assert_eq!((snap.generation(), snap.cves()), (g1, vec!["CVE-1"]));
    }

    #[test]
    fn a_database_built_before_a_later_publish_still_publishes_newer() {
        let cell = SnapshotCell::new(DnaDatabase::new());
        let early = db_with("CVE-1");
        let (removed, miss) = cell.publish(|db| Arc::make_mut(db).remove_cve("CVE-none"));
        assert_eq!(removed, 0);
        assert!(early.generation() < miss.generation());
        let ((), swapped) = cell.publish(|db| *db = Arc::new(early));
        assert!(
            swapped.generation() > miss.generation(),
            "published generations must increase"
        );
    }

    #[test]
    fn loads_never_see_torn_pairs_under_concurrent_publishes() {
        let cell = Arc::new(SnapshotCell::new(db_with("CVE-0")));
        let initial = (cell.generation(), 1);
        // Each publication installs one more CVE: the publisher records
        // which entry count it published under which generation.
        let publisher = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                (1..=200)
                    .map(|i| {
                        let mut dna = Dna::default();
                        dna.deltas[1].removed.insert(chain(&["add", "bitor"]));
                        let ((), db) = cell
                            .publish(|db| Arc::make_mut(db).install(format!("CVE-{i}"), "f", dna));
                        (db.generation(), db.len())
                    })
                    .collect::<Vec<_>>()
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    for _ in 0..500 {
                        let mirror = cell.generation();
                        let snap = cell.load();
                        // The snapshot is at least as new as the mirror
                        // read before it.
                        assert!(snap.generation() >= mirror);
                        seen.push((snap.generation(), snap.len()));
                    }
                    seen
                })
            })
            .collect();
        let published: Vec<_> = publisher.join().unwrap();
        assert!(published.windows(2).all(|w| w[0].0 < w[1].0));
        let by_generation: std::collections::HashMap<u64, usize> =
            std::iter::once(initial).chain(published).collect();
        for r in readers {
            let seen = r.join().unwrap();
            assert!(seen.windows(2).all(|w| w[0].0 <= w[1].0), "went backwards");
            for (g, len) in seen {
                // The pair is consistent: content matches generation.
                assert_eq!(by_generation.get(&g), Some(&len));
            }
        }
    }
}
