//! Bounded memoization storage: the memo key, its hasher, and a CLOCK
//! (second-chance) cache shared by the resolved engine's process-wide
//! [`crate::resolve::MemoCache`] and the bytecode VM's per-worker memo
//! shards.
//!
//! **A probe allocates nothing.** [`MemoKey`] is a `Copy` value held
//! inline — function id, one tag word, [`MEMO_KEY_WORDS`] argument words —
//! built on the caller's stack straight from the bound arguments; a
//! signature wider than the key is not admitted to the cache at all
//! (arity is a property of the input, and there is no second key
//! representation). The index maps hash it with [`MemoHasher`], one
//! multiply–xor per word: the cache is bounded and the keys are the
//! program's own, so SipHash's flooding resistance bought nothing here.
//! A hit still compares the whole key (`Eq` over every word) — never the
//! hash alone; soundness of a hit beats its speed.
//!
//! The previous memo maps were grow-only-until-cap: once full they
//! silently stopped inserting, so a long-running process (the `purec
//! serve` north star) would pin whatever keys happened to arrive first
//! and memoize nothing ever after. CLOCK keeps the cache *useful* at a
//! bounded footprint: every slot carries a reference bit set on hit; the
//! eviction hand sweeps slots, clearing reference bits, and replaces the
//! first slot found unreferenced. Hot entries (recursion base cases,
//! which dominate e.g. `fib`) are re-referenced faster than the hand
//! revisits them and stay resident; one-shot keys are recycled after a
//! single sweep. Evictions are counted and surfaced as
//! `memo_evictions` in [`crate::value::CounterSnapshot`].
//!
//! The structure is deliberately not thread-safe: the resolved engine
//! wraps one instance in a mutex, the VM keeps one per worker shard.

use crate::value::Scalar;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Argument words a [`MemoKey`] holds; a function with more parameters is
/// never memoized.
pub(crate) const MEMO_KEY_WORDS: usize = 4;

/// Key of one memoized call: function id, the tags of the (coerced)
/// scalar arguments — two bits each: int, float, uninit — and their bit
/// patterns. Unused words are zero, so derived equality is exact key
/// equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoKey {
    fid: u32,
    tags: u32,
    words: [u64; MEMO_KEY_WORDS],
}

impl MemoKey {
    /// Key for a call to `fid` whose bound parameter slots hold `args`,
    /// in slot order. `None` — the call is not memoized — when there are
    /// more than [`MEMO_KEY_WORDS`] of them or one is not a number
    /// (pointers never appear for const functions, whose parameters are
    /// scalars; stay conservative).
    #[inline]
    pub(crate) fn new(fid: u32, args: impl ExactSizeIterator<Item = Scalar>) -> Option<MemoKey> {
        if args.len() > MEMO_KEY_WORDS {
            return None;
        }
        let mut key = MemoKey {
            fid,
            tags: 0,
            words: [0; MEMO_KEY_WORDS],
        };
        for (i, v) in args.enumerate() {
            let (tag, word) = match v {
                Scalar::I(x) => (1, x as u64),
                Scalar::F(x) => (2, x.to_bits()),
                Scalar::Uninit => (3, 0),
                Scalar::P(_) | Scalar::Null => return None,
            };
            key.tags |= tag << (2 * i);
            key.words[i] = word;
        }
        Some(key)
    }
}

impl Hash for MemoKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from(self.fid) | u64::from(self.tags) << 32);
        for w in self.words {
            state.write_u64(w);
        }
    }
}

/// Multiply–xor hasher of the memo index maps: each word is xored in and
/// the state multiplied by an odd constant; `finish` folds the high half
/// (where a multiply puts its entropy) onto the low half the table's
/// bucket index is taken from.
#[derive(Default)]
pub(crate) struct MemoHasher(u64);

impl Hasher for MemoHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` keyed through [`MemoHasher`].
pub(crate) type MemoMap<K, V> = HashMap<K, V, BuildHasherDefault<MemoHasher>>;

struct Slot<K, V> {
    key: K,
    val: V,
    /// CLOCK reference bit: set on every hit, cleared as the eviction
    /// hand sweeps past. A slot is only evicted with the bit clear.
    referenced: bool,
}

/// A fixed-capacity key→value cache with CLOCK (second-chance) eviction.
pub(crate) struct ClockCache<K, V> {
    cap: usize,
    index: MemoMap<K, u32>,
    slots: Vec<Slot<K, V>>,
    hand: usize,
    evictions: u64,
}

impl<K: Copy + Eq + Hash, V: Copy> ClockCache<K, V> {
    pub(crate) fn new(cap: usize) -> Self {
        ClockCache {
            cap: cap.max(1),
            index: MemoMap::default(),
            slots: Vec::new(),
            hand: 0,
            evictions: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Total entries evicted to make room since creation.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        let &slot = self.index.get(key)?;
        let s = &mut self.slots[slot as usize];
        s.referenced = true;
        Some(s.val)
    }

    /// Insert (or refresh) `key → val`, evicting one unreferenced entry
    /// when at capacity. Returns `true` when an eviction happened.
    pub(crate) fn insert(&mut self, key: K, val: V) -> bool {
        if let Some(&slot) = self.index.get(&key) {
            let s = &mut self.slots[slot as usize];
            s.val = val;
            s.referenced = true;
            return false;
        }
        if self.slots.len() < self.cap {
            self.index.insert(key, self.slots.len() as u32);
            self.slots.push(Slot {
                key,
                val,
                referenced: true,
            });
            return false;
        }
        // CLOCK sweep: clear reference bits until an unreferenced slot
        // comes up (bounded: after one full revolution every bit is
        // clear, so the sweep terminates within 2·cap steps).
        loop {
            let h = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let s = &mut self.slots[h];
            if s.referenced {
                s.referenced = false;
                continue;
            }
            self.index.remove(&s.key);
            self.index.insert(key, h as u32);
            *s = Slot {
                key,
                val,
                referenced: true,
            };
            self.evictions += 1;
            return true;
        }
    }

    /// Iterate the resident entries (region-join shard absorption).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots.iter().map(|s| (&s.key, &s.val))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact key equality under the multiply–xor hasher: calls that differ
    /// only in one argument's *tag* (the words of `I(0)`, `F(0.0)` and
    /// `Uninit` are all zero), only in the function, or only in where an
    /// equal word sits never share an entry.
    #[test]
    fn keys_that_differ_in_a_tag_or_the_function_never_share_an_entry() {
        let key = |fid, args: &[Scalar]| MemoKey::new(fid, args.iter().copied()).expect("a key");
        let zeros = [Scalar::I(0), Scalar::F(0.0), Scalar::Uninit];
        let mut keys = Vec::new();
        for fid in [0u32, 1, 7] {
            for a in zeros {
                keys.push(key(fid, &[a]));
                for b in zeros {
                    keys.push(key(fid, &[a, b]));
                }
            }
            keys.push(key(fid, &[]));
            keys.push(key(fid, &[Scalar::I(5), Scalar::I(0)]));
            keys.push(key(fid, &[Scalar::I(0), Scalar::I(5)]));
            keys.push(key(fid, &[Scalar::F(-0.0)]));
        }
        let mut c: ClockCache<MemoKey, u64> = ClockCache::new(keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert!(c.get(k).is_none(), "key {i} aliases an earlier one: {k:?}");
            c.insert(*k, i as u64);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(c.get(k), Some(i as u64), "{k:?}");
        }
        assert_eq!((c.len(), c.evictions()), (keys.len(), 0));
        // The same call is the same key.
        assert_eq!(key(7, &[Scalar::F(1.5)]), key(7, &[Scalar::F(1.5)]));
    }

    /// What does not fit the inline key is not memoized: a fifth
    /// argument, a pointer.
    #[test]
    fn a_signature_wider_than_the_key_is_not_admitted() {
        let ints = |n: usize| MemoKey::new(3, (0..n).map(|i| Scalar::I(i as i64)));
        assert!(ints(MEMO_KEY_WORDS).is_some());
        assert!(ints(MEMO_KEY_WORDS + 1).is_none());
        assert!(MemoKey::new(3, [Scalar::Null].into_iter()).is_none());
        assert!(std::mem::size_of::<MemoKey>() <= 8 + 8 * MEMO_KEY_WORDS);
    }

    #[test]
    fn inserts_and_hits_below_capacity() {
        let mut c: ClockCache<u64, u64> = ClockCache::new(8);
        for i in 0..8 {
            assert!(!c.insert(i, i * 10));
        }
        for i in 0..8 {
            assert_eq!(c.get(&i), Some(i * 10));
        }
        assert_eq!(c.len(), 8);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn evicts_cold_entries_at_capacity() {
        let mut c: ClockCache<u64, u64> = ClockCache::new(4);
        for i in 0..4 {
            c.insert(i, i);
        }
        // First insert at capacity completes one clearing revolution
        // (every bit was set at insertion) and recycles slot 0.
        assert!(c.insert(100, 100));
        assert_eq!(c.get(&0), None);
        // Now bits are clear: re-reference 1 and 2, leave 3 cold — the
        // next eviction must skip the hot entries and take 3.
        c.get(&1);
        c.get(&2);
        assert!(c.insert(101, 101));
        assert_eq!(c.evictions(), 2);
        assert_eq!(c.get(&1), Some(1), "hot entry survived the sweep");
        assert_eq!(c.get(&2), Some(2), "hot entry survived the sweep");
        assert_eq!(c.get(&3), None, "cold entry was evicted");
        assert_eq!(c.get(&100), Some(100));
        assert_eq!(c.get(&101), Some(101));
        assert_eq!(c.len(), 4, "capacity is a hard bound");
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c: ClockCache<u64, u64> = ClockCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert!(!c.insert(1, 11), "refresh of a resident key never evicts");
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn sweep_terminates_when_everything_is_referenced() {
        let mut c: ClockCache<u64, u64> = ClockCache::new(3);
        for i in 0..3 {
            c.insert(i, i);
        }
        for i in 0..3 {
            c.get(&i);
        }
        // All bits set: the hand must complete a clearing revolution and
        // then evict — not spin.
        assert!(c.insert(99, 99));
        assert_eq!(c.len(), 3);
    }
}
