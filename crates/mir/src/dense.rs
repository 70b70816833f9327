//! Dense tables keyed by id: [`IdMap`] and [`IdSet`].
//!
//! The optimizing compile path keeps side tables per instruction, per
//! block and per virtual register. Those ids are small integers — MIR
//! ids are allocated densely below [`crate::MirFunction::id_bound`],
//! block ids index [`crate::MirFunction::blocks`] — so a table indexed by
//! id answers a lookup with one bounds check, where a hash map hashes the
//! key first. Both types are sized up front from an id bound and grow
//! when an id past it is inserted (a pass may mint ids after sizing a
//! table), and both iterate in id order, so nothing that walks them
//! depends on a hasher's seed.
//!
//! A table takes memory in proportion to the largest id it holds, not to
//! its number of entries: it is meant for ids a compilation allocated
//! itself, never for ids read from outside the program.
//!
//! ```
//! use jitbull_mir::dense::{IdMap, IdSet};
//! use jitbull_mir::InstrId;
//!
//! let mut dead: IdSet<InstrId> = IdSet::with_bound(4);
//! dead.insert(InstrId(9)); // past the bound: the set grows
//! dead.insert(InstrId(2));
//! assert_eq!(dead.iter().collect::<Vec<_>>(), [InstrId(2), InstrId(9)]);
//!
//! let mut uses: IdMap<InstrId, u32> = IdMap::with_bound(4);
//! *uses.get_or_insert_with(InstrId(1), || 0) += 2;
//! assert_eq!(uses.get(InstrId(1)), Some(&2));
//! assert_eq!(uses.get(InstrId(100)), None);
//! ```

use std::fmt;
use std::marker::PhantomData;

use crate::graph::BlockId;
use crate::instr::InstrId;

/// An id that indexes a dense table.
pub trait Id: Copy {
    /// The id's table index.
    fn index(self) -> usize;
    /// The id at table index `index`.
    fn from_index(index: usize) -> Self;
}

impl Id for InstrId {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }

    #[inline]
    fn from_index(index: usize) -> Self {
        InstrId(index as u32)
    }
}

impl Id for BlockId {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }

    #[inline]
    fn from_index(index: usize) -> Self {
        BlockId(index as u32)
    }
}

/// A map from ids to values, one slot per id below the largest key.
#[derive(Clone)]
pub struct IdMap<K, V> {
    slots: Vec<Option<V>>,
    len: usize,
    _key: PhantomData<fn(K) -> K>,
}

impl<K: Id, V> IdMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        IdMap {
            slots: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }

    /// An empty map with room for every id below `bound`.
    pub fn with_bound(bound: usize) -> Self {
        let mut slots = Vec::with_capacity(bound);
        slots.resize_with(bound, || None);
        IdMap {
            slots,
            len: 0,
            _key: PhantomData,
        }
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value at `id`, if any.
    #[inline]
    pub fn get(&self, id: K) -> Option<&V> {
        self.slots.get(id.index())?.as_ref()
    }

    /// Whether `id` has an entry.
    #[inline]
    pub fn contains_key(&self, id: K) -> bool {
        self.get(id).is_some()
    }

    /// The slot for `id`, growing the table to reach it.
    fn slot(&mut self, id: K) -> &mut Option<V> {
        let k = id.index();
        if k >= self.slots.len() {
            self.slots.resize_with(k + 1, || None);
        }
        &mut self.slots[k]
    }

    /// Sets `id`'s value, returning the one it replaces.
    pub fn insert(&mut self, id: K, value: V) -> Option<V> {
        let old = self.slot(id).replace(value);
        self.len += usize::from(old.is_none());
        old
    }

    /// `id`'s value, inserting `make()` first if it has none.
    pub fn get_or_insert_with(&mut self, id: K, make: impl FnOnce() -> V) -> &mut V {
        if !self.contains_key(id) {
            self.len += 1;
        }
        self.slot(id).get_or_insert_with(make)
    }

    /// Removes every entry, keeping the table's size.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|slot| *slot = None);
        self.len = 0;
    }

    /// Keeps only the entries for which `keep` returns `true`.
    pub fn retain(&mut self, mut keep: impl FnMut(K, &mut V) -> bool) {
        for (k, slot) in self.slots.iter_mut().enumerate() {
            if let Some(value) = slot {
                if !keep(K::from_index(k), value) {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
    }

    /// The entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(k, slot)| Some((K::from_index(k), slot.as_ref()?)))
    }

    /// The keys in id order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }
}

impl<K: Id, V> Default for IdMap<K, V> {
    fn default() -> Self {
        IdMap::new()
    }
}

impl<K: Id, V> std::ops::Index<K> for IdMap<K, V> {
    type Output = V;

    /// `id`'s value; panics when `id` has none, as a map index does.
    fn index(&self, id: K) -> &V {
        self.get(id).expect("no entry for id")
    }
}

impl<K: Id, V> FromIterator<(K, V)> for IdMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        let mut map = IdMap::new();
        map.extend(entries);
        map
    }
}

impl<K: Id, V> Extend<(K, V)> for IdMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, entries: I) {
        for (k, v) in entries {
            self.insert(k, v);
        }
    }
}

impl<K: Id + fmt::Debug, V: fmt::Debug> fmt::Debug for IdMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A set of ids, one bit per id below the largest member.
pub struct IdSet<K> {
    words: Vec<u64>,
    len: usize,
    _key: PhantomData<fn(K) -> K>,
}

impl<K: Id> IdSet<K> {
    /// An empty set.
    pub fn new() -> Self {
        IdSet {
            words: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }

    /// An empty set with room for every id below `bound`.
    pub fn with_bound(bound: usize) -> Self {
        IdSet {
            words: vec![0; bound.div_ceil(64)],
            len: 0,
            _key: PhantomData,
        }
    }

    /// The number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no member.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` is a member.
    #[inline]
    pub fn contains(&self, id: K) -> bool {
        let k = id.index();
        self.words
            .get(k / 64)
            .is_some_and(|w| w >> (k % 64) & 1 != 0)
    }

    /// Adds `id`, growing the set to reach it; `false` if it was a member.
    #[inline]
    pub fn insert(&mut self, id: K) -> bool {
        let k = id.index();
        if k / 64 >= self.words.len() {
            self.words.resize(k / 64 + 1, 0);
        }
        let word = &mut self.words[k / 64];
        let bit = 1 << (k % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `id`; `false` if it was not a member.
    pub fn remove(&mut self, id: K) -> bool {
        let k = id.index();
        let Some(word) = self.words.get_mut(k / 64) else {
            return false;
        };
        let bit = 1 << (k % 64);
        let present = *word & bit != 0;
        *word &= !bit;
        self.len -= usize::from(present);
        present
    }

    /// Removes every member, keeping the set's size.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }

    /// Adds every member of `other`; `true` if that added any.
    pub fn union_with(&mut self, other: &IdSet<K>) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut len = 0;
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
            len += w.count_ones() as usize;
        }
        len += self.words[other.words.len()..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>();
        let grew = len != self.len;
        self.len = len;
        grew
    }

    /// The members in id order.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(K::from_index(i * 64 + bit))
            })
        })
    }
}

impl<K> Clone for IdSet<K> {
    fn clone(&self) -> Self {
        IdSet {
            words: self.words.clone(),
            len: self.len,
            _key: PhantomData,
        }
    }

    /// Reuses `self`'s storage.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

impl<K: Id> Default for IdSet<K> {
    fn default() -> Self {
        IdSet::new()
    }
}

impl<K: Id> PartialEq for IdSet<K> {
    /// Equal members, whatever size each set grew to.
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        self.len == other.len
            && long[..short.len()] == short[..]
            && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl<K: Id> Eq for IdSet<K> {}

impl<K: Id> FromIterator<K> for IdSet<K> {
    fn from_iter<I: IntoIterator<Item = K>>(ids: I) -> Self {
        let mut set = IdSet::new();
        set.extend(ids);
        set
    }
}

impl<K: Id> Extend<K> for IdSet<K> {
    fn extend<I: IntoIterator<Item = K>>(&mut self, ids: I) {
        for id in ids {
            self.insert(id);
        }
    }
}

impl<K: Id + fmt::Debug> fmt::Debug for IdSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MirFunction;
    use jitbull_prng::Rng;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn tables_grow_for_ids_minted_after_sizing() {
        let mut f = MirFunction::new("t");
        let first = f.fresh_id();
        let bound = f.id_bound() as usize;
        let mut set: IdSet<InstrId> = IdSet::with_bound(bound);
        let mut map: IdMap<InstrId, u32> = IdMap::with_bound(bound);
        // Lookups past the end find nothing and grow nothing.
        assert!(!set.contains(InstrId(500)) && !set.remove(InstrId(500)));
        assert_eq!(map.get(InstrId(500)), None);
        assert!(set.insert(first));
        assert_eq!(map.insert(first, 0), None);
        // A pass mints ids after the tables were sized.
        let minted: Vec<InstrId> = (0..300).map(|_| f.fresh_id()).collect();
        for &id in &minted {
            assert!(set.insert(id));
            assert!(!set.insert(id));
            assert_eq!(map.insert(id, id.0), None);
        }
        assert_eq!(map.insert(minted[7], 1), Some(minted[7].0));
        assert!(minted.iter().all(|&id| set.contains(id)));
        assert_eq!((map[minted[7]], map[minted[299]]), (1, minted[299].0));
        assert_eq!((set.len(), map.len()), (301, 301));
    }

    #[test]
    fn tables_iterate_in_id_order() {
        let ids = [70u32, 3, 129, 0, 64, 63, 3];
        let set: IdSet<BlockId> = ids.iter().map(|&i| BlockId(i)).collect();
        let order: Vec<u32> = set.iter().map(|b| b.0).collect();
        assert_eq!(order, [0, 3, 63, 64, 70, 129]);
        let map: IdMap<BlockId, u32> = ids.iter().map(|&i| (BlockId(i), i * 2)).collect();
        let entries: Vec<(u32, u32)> = map.iter().map(|(b, &v)| (b.0, v)).collect();
        assert_eq!(
            entries,
            [(0, 0), (3, 6), (63, 126), (64, 128), (70, 140), (129, 258)]
        );
    }

    #[test]
    fn sets_compare_by_members_not_by_size() {
        let mut big: IdSet<InstrId> = IdSet::with_bound(1000);
        let mut small: IdSet<InstrId> = IdSet::new();
        assert_eq!(big, small);
        big.insert(InstrId(5));
        small.insert(InstrId(5));
        assert_eq!(big, small);
        big.insert(InstrId(900));
        assert_ne!(big, small);
        assert!(small.union_with(&big));
        assert!(!small.union_with(&big));
        assert_eq!(big, small);
    }

    /// Seeded random operations on an [`IdSet`] and an [`IdMap`] agree
    /// with `HashSet` and `HashMap` models, read back in id order.
    #[test]
    fn seeded_operations_agree_with_hash_models() {
        for seed in 0..200 {
            let mut rng = Rng::seed_from_u64(seed);
            let bound = rng.gen_range(0..200usize);
            let mut set: IdSet<InstrId> = IdSet::with_bound(bound);
            let mut map: IdMap<InstrId, u64> = IdMap::with_bound(bound);
            let mut set_model: HashSet<InstrId> = HashSet::new();
            let mut map_model: HashMap<InstrId, u64> = HashMap::new();
            for _ in 0..300 {
                let id = InstrId(rng.gen_range(0..400u32));
                let value = rng.next_u64();
                match rng.gen_range(0..8u32) {
                    0 | 1 => assert_eq!(set.insert(id), set_model.insert(id)),
                    2 => assert_eq!(set.remove(id), set_model.remove(&id)),
                    3 | 4 => assert_eq!(map.insert(id, value), map_model.insert(id, value)),
                    5 => {
                        let every = rng.gen_range(2..5u32);
                        map.retain(|k, _| k.0 % every != 0);
                        map_model.retain(|k, _| k.0 % every != 0);
                    }
                    6 => {
                        let model = map_model.entry(id).or_insert(value);
                        *model += 1;
                        let dense = map.get_or_insert_with(id, || value);
                        *dense += 1;
                        assert_eq!(dense, model);
                    }
                    _ => {
                        let other: IdSet<InstrId> = (0..rng.gen_range(0..6u32))
                            .map(|_| InstrId(rng.gen_range(0..500u32)))
                            .collect();
                        let grew = other.iter().any(|o| !set_model.contains(&o));
                        set_model.extend(other.iter());
                        assert_eq!(set.union_with(&other), grew);
                    }
                }
                assert_eq!(set.contains(id), set_model.contains(&id));
                assert_eq!(map.get(id), map_model.get(&id));
            }
            let mut members: Vec<InstrId> = set_model.into_iter().collect();
            members.sort();
            assert_eq!(set.iter().collect::<Vec<_>>(), members, "seed {seed}");
            assert_eq!(set.len(), members.len());
            let mut entries: Vec<(InstrId, u64)> = map_model.into_iter().collect();
            entries.sort();
            let dense: Vec<(InstrId, u64)> = map.iter().map(|(k, &v)| (k, v)).collect();
            assert_eq!(dense, entries, "seed {seed}");
            assert_eq!(map.len(), entries.len());
        }
    }
}
