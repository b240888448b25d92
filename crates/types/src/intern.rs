//! Fast deterministic hashing and arena-backed interning.
//!
//! The streaming index used to intern every packet's source keys through
//! `BTreeSet` inserts — two ordered-tree walks per packet, each chasing
//! cache-cold nodes — and the sessionizer hashed its keys with the standard
//! library's SipHash. This module replaces both costs:
//!
//! * [`FxHasher`] is the rustc-compiler hash (a multiply-and-rotate mixer):
//!   3–4 arithmetic ops per 8-byte word, no per-process random state, so a
//!   hash value is a *deterministic* pure function of the key bytes — safe
//!   to use anywhere the byte-identical-output contract (DESIGN.md §6)
//!   applies.
//! * [`InternTable`] is a bump-arena of keys plus an open-addressing id
//!   table. Inserting assigns dense `u32` ids in first-encounter order;
//!   [`InternTable::sorted_remap`] converts them to ascending-key order at
//!   the end, so consumers that previously iterated a `BTreeSet` observe
//!   exactly the same id assignment (DESIGN.md §11).
//!
//! Determinism note: iteration over the *slot* table is never exposed —
//! only arena order (insertion order) and sorted order are, both of which
//! are pure functions of the key sequence.

use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit Fx multiplier (golden-ratio derived, as in rustc's FxHash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Deterministic multiply-rotate hasher (FxHash).
///
/// Not DoS-resistant — use only on keys an attacker cannot choose freely,
/// or where a flooded bucket costs time, not correctness. All sixscope
/// inputs are measurement data; worst case is a slow run, never a wrong
/// one.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add_to_hash(v as u64);
        self.add_to_hash((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`] — drop-in replacement for
/// `RandomState` in `HashMap`/`HashSet` type parameters.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Hashes one 128-bit word (an IPv6 address or prefix bits) directly —
/// the one-shot form of [`FxHasher`] used by the ingest hot path.
#[inline]
pub fn hash_u128(v: u128) -> u64 {
    let mut h = FxHasher::default();
    h.write_u128(v);
    h.finish()
}

/// An interned key: dense first-encounter id plus whether the insert
/// created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interned {
    /// Dense id in first-encounter order (also the arena index).
    pub id: u32,
    /// True when this insert was the key's first appearance.
    pub fresh: bool,
}

/// Arena-backed interning table: open-addressing id lookup over a bump
/// arena of keys.
///
/// Keys live contiguously in [`InternTable::keys`] (the arena), ids are
/// arena indices assigned in first-encounter order, and the slot table is
/// a power-of-two open-addressing array probed linearly from the key's
/// [`FxHasher`] hash. Compared to the `BTreeMap`/`BTreeSet` interning it
/// replaces, an insert is one hash plus (amortized) one cache line instead
/// of an ordered-tree walk.
///
/// For consumers that need *sorted* ids (the corpus index assigns source
/// ids in ascending key order), [`InternTable::sorted_remap`] produces the
/// ascending key vector plus a first-encounter-id → sorted-id remap.
#[derive(Debug, Clone)]
pub struct InternTable<K> {
    keys: Vec<K>,
    /// Slot array: `u32::MAX` = empty, else arena index. Length is a power
    /// of two, kept at least 2× the key count.
    slots: Vec<u32>,
    mask: usize,
}

const EMPTY: u32 = u32::MAX;

impl<K: Copy + Eq + Ord + std::hash::Hash> InternTable<K> {
    /// An empty table.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty table pre-sized for about `cap` distinct keys.
    pub fn with_capacity(cap: usize) -> Self {
        let slots = (cap.max(4) * 2).next_power_of_two();
        InternTable {
            keys: Vec::with_capacity(cap),
            slots: vec![EMPTY; slots],
            mask: slots - 1,
        }
    }

    /// Number of distinct keys interned.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True before the first insert.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The arena: interned keys in first-encounter order (id = index).
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Consumes the table into its arena (keys in first-encounter order).
    pub fn into_keys(self) -> Vec<K> {
        self.keys
    }

    /// Rebuilds a table by interning `keys` in iteration order — the
    /// import dual of [`InternTable::keys`].
    /// Ids land in iteration order, so feeding back an exported arena
    /// reproduces the original id assignment exactly.
    pub fn from_keys<I: IntoIterator<Item = K>>(keys: I) -> Self {
        let iter = keys.into_iter();
        let mut table = Self::with_capacity(iter.size_hint().0);
        for key in iter {
            table.insert(key);
        }
        table
    }

    #[inline]
    fn hash_of(key: &K) -> u64 {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    /// Interns `key`, returning its dense first-encounter id.
    #[inline]
    pub fn insert(&mut self, key: K) -> Interned {
        if (self.keys.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mut slot = Self::hash_of(&key) as usize & self.mask;
        loop {
            let entry = self.slots[slot];
            if entry == EMPTY {
                let id = self.keys.len() as u32;
                self.keys.push(key);
                self.slots[slot] = id;
                return Interned { id, fresh: true };
            }
            if self.keys[entry as usize] == key {
                return Interned {
                    id: entry,
                    fresh: false,
                };
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Looks a key up without inserting.
    #[inline]
    pub fn get(&self, key: &K) -> Option<u32> {
        let mut slot = Self::hash_of(key) as usize & self.mask;
        loop {
            let entry = self.slots[slot];
            if entry == EMPTY {
                return None;
            }
            if self.keys[entry as usize] == *key {
                return Some(entry);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(8);
        self.slots = vec![EMPTY; new_len];
        self.mask = new_len - 1;
        for (id, key) in self.keys.iter().enumerate() {
            let mut slot = Self::hash_of(key) as usize & self.mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & self.mask;
            }
            self.slots[slot] = id as u32;
        }
    }

    /// Folds another table's keys into this one (set union).
    pub fn absorb(&mut self, other: &InternTable<K>) {
        for &key in &other.keys {
            self.insert(key);
        }
    }

    /// Consumes the table into `(sorted_keys, remap)`: keys ascending, and
    /// `remap[first_encounter_id] = sorted_id`. Iterating `sorted_keys` is
    /// exactly iterating the equivalent `BTreeSet` — the deterministic
    /// final id assignment of DESIGN.md §11.
    pub fn sorted_remap(self) -> (Vec<K>, Vec<u32>) {
        let mut order: Vec<u32> = (0..self.keys.len() as u32).collect();
        order.sort_unstable_by_key(|&i| self.keys[i as usize]);
        let mut remap = vec![0u32; self.keys.len()];
        let mut sorted = Vec::with_capacity(self.keys.len());
        for (sorted_id, &arena_id) in order.iter().enumerate() {
            remap[arena_id as usize] = sorted_id as u32;
            sorted.push(self.keys[arena_id as usize]);
        }
        (sorted, remap)
    }
}

impl<K: Copy + Eq + Ord + std::hash::Hash> Default for InternTable<K> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn fxhash_is_deterministic_across_instances() {
        assert_eq!(hash_u128(0x1234_5678), hash_u128(0x1234_5678));
        let mut a = FxHasher::default();
        a.write(b"sixscope");
        let mut b = FxHasher::default();
        b.write(b"sixscope");
        assert_eq!(a.finish(), b.finish());
        assert_ne!(hash_u128(1), hash_u128(2));
    }

    #[test]
    fn insert_assigns_first_encounter_ids() {
        let mut t = InternTable::new();
        assert_eq!(t.insert(30u64), Interned { id: 0, fresh: true });
        assert_eq!(t.insert(10u64), Interned { id: 1, fresh: true });
        assert_eq!(
            t.insert(30u64),
            Interned {
                id: 0,
                fresh: false
            }
        );
        assert_eq!(t.insert(20u64), Interned { id: 2, fresh: true });
        assert_eq!(t.keys(), &[30, 10, 20]);
        assert_eq!(t.get(&10), Some(1));
        assert_eq!(t.get(&99), None);
    }

    #[test]
    fn growth_preserves_ids_and_lookup() {
        let mut t = InternTable::with_capacity(0);
        let ids: Vec<u32> = (0..10_000u64).map(|k| t.insert(k * 7919).id).collect();
        assert_eq!(ids, (0..10_000u32).collect::<Vec<u32>>());
        for k in 0..10_000u64 {
            assert_eq!(t.get(&(k * 7919)), Some(k as u32));
        }
    }

    #[test]
    fn sorted_remap_matches_btreeset_order() {
        let keys = [44u64, 2, 99, 2, 17, 44, 0, 1_000_000];
        let mut t = InternTable::new();
        let first_ids: Vec<u32> = keys.iter().map(|&k| t.insert(k).id).collect();
        let reference: Vec<u64> = keys
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let (sorted, remap) = t.sorted_remap();
        assert_eq!(sorted, reference);
        // remap sends each first-encounter id to its rank in sorted order.
        for (&k, &fid) in keys.iter().zip(&first_ids) {
            let sid = remap[fid as usize] as usize;
            assert_eq!(sorted[sid], k);
        }
    }

    #[test]
    fn from_keys_round_trips_the_arena() {
        let mut t = InternTable::new();
        for k in [42u64, 5, 17] {
            t.insert(k);
        }
        let rebuilt = InternTable::from_keys(t.keys().iter().copied());
        assert_eq!(rebuilt.keys(), t.keys());
        for (id, k) in t.keys().iter().enumerate() {
            assert_eq!(rebuilt.get(k), Some(id as u32));
        }
    }

    #[test]
    fn absorb_unions_key_sets() {
        let mut a = InternTable::new();
        a.insert(1u64);
        a.insert(2);
        let mut b = InternTable::new();
        b.insert(2u64);
        b.insert(3);
        a.absorb(&b);
        let (sorted, _) = a.sorted_remap();
        assert_eq!(sorted, vec![1, 2, 3]);
    }
}
