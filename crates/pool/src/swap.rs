//! Atomic-epoch publication of immutable database snapshots.
//!
//! The serving pool's hot-swap primitive: a publisher replaces the
//! current [`DnaDatabase`] snapshot and bumps a monotonically increasing
//! *epoch*; readers cheaply detect staleness by comparing epochs and only
//! take the lock to reload when the epoch actually moved.
//!
//! # The no-stale-verdict argument
//!
//! * The epoch is bumped *while holding the slot lock*, immediately after
//!   the new snapshot is stored — so any `load()` observes a consistent
//!   `(epoch, snapshot)` pair: the epoch it returns was published with
//!   exactly that snapshot.
//! * Epochs only increase. A request stamped with `min_epoch = epoch()`
//!   at submit time is served by a worker whose cached pair satisfies
//!   `cached_epoch == epoch()` *at or after dequeue*, and dequeue
//!   happens-after submit — therefore the serving epoch is `>= min_epoch`
//!   and the response can never reflect a database older than the one
//!   visible when the request entered the pool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use jitbull::DnaDatabase;

/// A hot-swappable `(epoch, Arc<DnaDatabase>)` cell.
#[derive(Debug)]
pub struct EpochCell {
    /// Bumped under `slot`'s lock on every publish; read lock-free.
    epoch: AtomicU64,
    slot: Mutex<Arc<DnaDatabase>>,
}

impl EpochCell {
    /// Creates a cell publishing `db` at epoch 1.
    #[must_use]
    pub fn new(db: Arc<DnaDatabase>) -> Self {
        EpochCell {
            epoch: AtomicU64::new(1),
            slot: Mutex::new(db),
        }
    }

    /// The current epoch (lock-free fast path for staleness checks).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publishes a new snapshot, returning the epoch it was published
    /// under. The store and the epoch bump happen under the slot lock, so
    /// concurrent [`EpochCell::load`] calls always see matching pairs.
    pub fn publish(&self, db: Arc<DnaDatabase>) -> u64 {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = db;
        self.epoch.fetch_add(1, Ordering::Release) + 1
    }

    /// The current `(epoch, snapshot)` pair, read atomically.
    #[must_use]
    pub fn load(&self) -> (u64, Arc<DnaDatabase>) {
        let slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        (self.epoch.load(Ordering::Acquire), Arc::clone(&slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull::dna::chain;
    use jitbull::Dna;

    fn db_with(cve: &str) -> DnaDatabase {
        let mut dna = Dna::with_slots(4);
        dna.deltas[1].removed.insert(chain(&["add", "bitor"]));
        let mut db = DnaDatabase::new();
        db.install(cve, "f", dna);
        db
    }

    #[test]
    fn publish_bumps_epoch_and_swaps_content() {
        let cell = EpochCell::new(db_with("CVE-1").snapshot());
        assert_eq!(cell.epoch(), 1);
        let (e, snap) = cell.load();
        assert_eq!(e, 1);
        assert_eq!(snap.cves(), vec!["CVE-1"]);
        let e2 = cell.publish(db_with("CVE-2").snapshot());
        assert_eq!(e2, 2);
        let (e, snap) = cell.load();
        assert_eq!(e, 2);
        assert_eq!(snap.cves(), vec!["CVE-2"]);
    }

    #[test]
    fn loads_never_see_torn_pairs_under_concurrent_publishes() {
        let cell = Arc::new(EpochCell::new(db_with("CVE-1").snapshot()));
        // The cell starts at epoch 1 and the publisher installs
        // CVE-<epoch>, so content encodes the epoch.
        let publisher = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for i in 1..=200u64 {
                    let e = cell.publish(db_with(&format!("CVE-{}", i + 1)).snapshot());
                    assert_eq!(e, i + 1);
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..500 {
                        let (e, snap) = cell.load();
                        assert!(e >= last, "epoch went backwards");
                        last = e;
                        // The pair is consistent: content matches epoch.
                        assert_eq!(snap.cves(), vec![format!("CVE-{e}")]);
                    }
                })
            })
            .collect();
        publisher.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    }
}
