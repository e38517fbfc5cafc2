//! Bounded memoization storage: the memo key, its hasher, and a CLOCK
//! (second-chance) cache — the one memo table type. The resolved
//! engine's process-wide [`crate::resolve::MemoCache`] is one, and so
//! are each bytecode-VM worker's write shard and the frozen snapshot its
//! region or future children read.
//!
//! **A probe allocates nothing.** [`MemoKey`] is a `Copy` value held
//! inline — function id, one tag word, [`MEMO_KEY_WORDS`] argument words —
//! built on the caller's stack straight from the bound arguments; a
//! signature wider than the key is not admitted to the cache at all
//! (arity is a property of the input, and there is no second key
//! representation). The index hashes it with [`MemoHasher`], one
//! multiply–xor per word: the cache is bounded and the keys are the
//! program's own, so SipHash's flooding resistance bought nothing here.
//! A hit still compares the whole key (`Eq` over every word) — never the
//! hash alone; soundness of a hit beats its speed.
//!
//! **Each entry is stored once.** A [`ClockCache`] is two flat vectors:
//! - `slots`, in CLOCK order: key, value, the key's 32 hash bits and the
//!   reference bit (72 bytes for a `MemoKey → Scalar` entry);
//! - `index`, an open-addressing table of 8-byte buckets, each the slot
//!   number and the 32 hash bits whose low bits pick its home bucket.
//!   Lookup probes linearly from the home bucket, comparing the hash bits
//!   before it reads the slot's key. The table holds at most one entry
//!   per two buckets and grows by doubling, so it never exceeds
//!   2 × capacity rounded up to a power of two; growing moves buckets by
//!   their stored hash, never re-hashing a key. Eviction removes the
//!   victim's bucket by backward-shift deletion: the run of buckets after
//!   it moves back over the hole, so no tombstone is ever left and a
//!   probe stops at the first empty bucket.
//!
//! The index only answers "which slot": hits, misses, victims and the
//! slot order [`ClockCache::iter`] walks are decided by the slots and the
//! hand alone.
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
//! wraps one instance in a mutex, the VM keeps one per worker shard and
//! shares frozen ones read-only ([`ClockCache::peek`]) behind an `Arc`.

use crate::value::Scalar;
use std::hash::{Hash, Hasher};

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

/// Multiply–xor hasher of the memo index: each word is xored in and
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

#[derive(Clone)]
struct Slot<K, V> {
    key: K,
    val: V,
    /// The key's [`hash32`], so an eviction finds the victim's bucket
    /// without hashing the key again.
    hash: u32,
    /// CLOCK reference bit: set on every hit, cleared as the eviction
    /// hand sweeps past. A slot is only evicted with the bit clear.
    referenced: bool,
}

/// One index bucket: a slot number ([`EMPTY`] when free) and the hash
/// bits of that slot's key.
#[derive(Clone, Copy)]
struct Bucket {
    slot: u32,
    hash: u32,
}

const EMPTY: Bucket = Bucket {
    slot: u32::MAX,
    hash: 0,
};

/// The 32 hash bits the index stores and takes home buckets from.
#[inline]
fn hash32<K: Hash>(key: &K) -> u32 {
    let mut h = MemoHasher::default();
    key.hash(&mut h);
    h.finish() as u32
}

/// A fixed-capacity key→value cache with CLOCK (second-chance) eviction.
#[derive(Clone)]
pub(crate) struct ClockCache<K, V> {
    cap: usize,
    slots: Vec<Slot<K, V>>,
    /// Empty or a power of two long, at least twice `slots.len()`.
    index: Vec<Bucket>,
    hand: usize,
    evictions: u64,
}

impl<K: Copy + Eq + Hash, V: Copy> ClockCache<K, V> {
    pub(crate) fn new(cap: usize) -> Self {
        ClockCache {
            cap: cap.max(1),
            slots: Vec::new(),
            index: Vec::new(),
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

    /// The bucket holding `key`, whose hash bits are `hash`. The probe
    /// ends at an empty bucket, and there is one: the index is at most
    /// half full.
    #[inline]
    fn find(&self, key: &K, hash: u32) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut pos = hash as usize & mask;
        loop {
            let b = self.index[pos];
            if b.slot == EMPTY.slot {
                return None;
            }
            if b.hash == hash && self.slots[b.slot as usize].key == *key {
                return Some(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    #[inline]
    fn slot_of(&self, key: &K) -> Option<usize> {
        let pos = self.find(key, hash32(key))?;
        Some(self.index[pos].slot as usize)
    }

    /// The value cached for `key`, marking it referenced.
    #[inline]
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        let slot = self.slot_of(key)?;
        let s = &mut self.slots[slot];
        s.referenced = true;
        Some(s.val)
    }

    /// The value cached for `key`, leaving its reference bit alone: the
    /// read of a frozen snapshot that many children share.
    #[inline]
    pub(crate) fn peek(&self, key: &K) -> Option<V> {
        self.slot_of(key).map(|slot| self.slots[slot].val)
    }

    /// Insert (or refresh) `key → val`, evicting one unreferenced entry
    /// when at capacity. Returns `true` when an eviction happened.
    pub(crate) fn insert(&mut self, key: K, val: V) -> bool {
        let hash = hash32(&key);
        if let Some(pos) = self.find(&key, hash) {
            let s = &mut self.slots[self.index[pos].slot as usize];
            s.val = val;
            s.referenced = true;
            return false;
        }
        let slot = Slot {
            key,
            val,
            hash,
            referenced: true,
        };
        if self.slots.len() < self.cap {
            if 2 * (self.slots.len() + 1) > self.index.len() {
                self.grow(2 * (self.slots.len() + 1));
            }
            self.place(self.slots.len(), hash);
            self.slots.push(slot);
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
            self.unlink(h);
            self.place(h, hash);
            self.slots[h] = slot;
            self.evictions += 1;
            return true;
        }
    }

    /// Point the first free bucket of `hash`'s probe run at `slot`.
    fn place(&mut self, slot: usize, hash: u32) {
        let mask = self.index.len() - 1;
        let mut pos = hash as usize & mask;
        while self.index[pos].slot != EMPTY.slot {
            pos = (pos + 1) & mask;
        }
        self.index[pos] = Bucket {
            slot: slot as u32,
            hash,
        };
    }

    /// Remove the bucket pointing at `slot` by backward-shift deletion:
    /// each later bucket of the run whose home is not between the hole
    /// and itself moves back into the hole, until an empty bucket.
    fn unlink(&mut self, slot: usize) {
        let mask = self.index.len() - 1;
        let mut hole = self.slots[slot].hash as usize & mask;
        while self.index[hole].slot as usize != slot {
            hole = (hole + 1) & mask;
        }
        let mut pos = (hole + 1) & mask;
        loop {
            let b = self.index[pos];
            if b.slot == EMPTY.slot {
                break;
            }
            let home = b.hash as usize & mask;
            if pos.wrapping_sub(home) & mask >= pos.wrapping_sub(hole) & mask {
                self.index[hole] = b;
                hole = pos;
            }
            pos = (pos + 1) & mask;
        }
        self.index[hole] = EMPTY;
    }

    /// Rebuild the index at the power of two ≥ `buckets`, moving each
    /// bucket by its stored hash.
    fn grow(&mut self, buckets: usize) {
        let old = std::mem::replace(&mut self.index, vec![EMPTY; buckets.next_power_of_two()]);
        for b in old.into_iter().filter(|b| b.slot != EMPTY.slot) {
            self.place(b.slot as usize, b.hash);
        }
    }

    /// What an empty table of this capacity becomes when this one's
    /// entries are inserted into it in slot order: the same slots and
    /// index, every reference bit set, the hand at slot 0 and no eviction
    /// counted. A join adopts a worker's table this way instead of
    /// copying it.
    pub(crate) fn refilled(mut self) -> Self {
        for s in &mut self.slots {
            s.referenced = true;
        }
        self.hand = 0;
        self.evictions = 0;
        self
    }

    /// Iterate the resident entries in slot order (region-join shard
    /// absorption, a snapshot's promotion).
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

    /// The layout the footprint rests on: a memo entry is one slot and
    /// one bucket, nothing else.
    #[test]
    fn an_entry_is_a_72_byte_slot_and_an_8_byte_bucket() {
        assert_eq!(std::mem::size_of::<Slot<MemoKey, Scalar>>(), 72);
        assert_eq!(std::mem::size_of::<Bucket>(), 8);
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

    /// The reference the table is checked against: a `Vec` of slots
    /// searched linearly, with the same CLOCK hand.
    struct Model {
        cap: usize,
        slots: Vec<(u64, u64, bool)>,
        hand: usize,
        evictions: u64,
    }

    impl Model {
        fn pos(&self, key: u64) -> Option<usize> {
            self.slots.iter().position(|s| s.0 == key)
        }

        fn get(&mut self, key: u64) -> Option<u64> {
            let i = self.pos(key)?;
            self.slots[i].2 = true;
            Some(self.slots[i].1)
        }

        fn insert(&mut self, key: u64, val: u64) -> bool {
            if let Some(i) = self.pos(key) {
                self.slots[i] = (key, val, true);
                return false;
            }
            if self.slots.len() < self.cap {
                self.slots.push((key, val, true));
                return false;
            }
            loop {
                let h = self.hand;
                self.hand = (h + 1) % self.slots.len();
                if std::mem::take(&mut self.slots[h].2) {
                    continue;
                }
                self.slots[h] = (key, val, true);
                self.evictions += 1;
                return true;
            }
        }
    }

    /// Every bucket points at a slot whose key probes back to it, and
    /// every slot has exactly one bucket.
    fn assert_index_consistent(c: &ClockCache<u64, u64>) {
        let live: Vec<Bucket> = c
            .index
            .iter()
            .copied()
            .filter(|b| b.slot != EMPTY.slot)
            .collect();
        assert_eq!(live.len(), c.slots.len());
        assert!(c.slots.is_empty() || 2 * c.slots.len() <= c.index.len());
        assert!(c.index.len() <= (2 * c.cap).next_power_of_two());
        for (i, s) in c.slots.iter().enumerate() {
            assert_eq!(s.hash, hash32(&s.key));
            let pos = c.find(&s.key, s.hash).expect("a resident key is found");
            assert_eq!(c.index[pos].slot as usize, i);
        }
    }

    /// Random `get`/`peek`/`insert`/`iter` sequences on capacities 1–9,
    /// over keys most of which share one home bucket at every table size
    /// (found by a search over `MemoHasher`), against the linear-search
    /// model: the same answers, the same evictions, the same slot order.
    /// Long shared probe runs are what backward-shift deletion must keep
    /// intact when it closes a victim's hole.
    #[test]
    fn the_table_matches_a_linear_search_clock_model() {
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        // Keys whose hash shares its low five bits with key 0's: one home
        // bucket in every table up to 32 buckets (2 × 9 rounds up to 32).
        let home = hash32(&0u64) & 31;
        let colliding: Vec<u64> = (0u64..)
            .filter(|k| hash32(k) & 31 == home)
            .take(16)
            .collect();
        let keys: Vec<u64> = colliding.iter().copied().chain(1000..1008).collect();
        for cap in 1..=9 {
            for _ in 0..40 {
                let mut c: ClockCache<u64, u64> = ClockCache::new(cap);
                let mut m = Model {
                    cap,
                    slots: Vec::new(),
                    hand: 0,
                    evictions: 0,
                };
                for step in 0..200 {
                    let key = keys[next() as usize % keys.len()];
                    match next() % 8 {
                        0..=2 => assert_eq!(c.get(&key), m.get(key), "get {key} at {step}"),
                        3 => assert_eq!(c.peek(&key), m.pos(key).map(|i| m.slots[i].1)),
                        4 => {
                            let got: Vec<(u64, u64)> = c.iter().map(|(k, v)| (*k, *v)).collect();
                            let want: Vec<(u64, u64)> =
                                m.slots.iter().map(|s| (s.0, s.1)).collect();
                            assert_eq!(got, want, "slot order");
                        }
                        _ => {
                            let val = next();
                            assert_eq!(c.insert(key, val), m.insert(key, val), "insert {key}");
                        }
                    }
                    assert_eq!((c.len(), c.evictions()), (m.slots.len(), m.evictions));
                    assert_index_consistent(&c);
                }
            }
        }
    }

    /// Adopting a table is inserting its entries into an empty one: the
    /// same slot order, and the same victims from then on.
    #[test]
    fn a_refilled_table_is_a_fresh_table_filled_in_slot_order() {
        let mut worn: ClockCache<u64, u64> = ClockCache::new(5);
        for k in 0..12 {
            worn.insert(k, k * 10);
            worn.get(&(k / 2));
        }
        let mut fresh: ClockCache<u64, u64> = ClockCache::new(5);
        for (k, v) in worn.iter() {
            assert!(!fresh.insert(*k, *v));
        }
        let mut adopted = worn.refilled();
        for k in 100..120 {
            assert_eq!(adopted.get(&(k % 7)), fresh.get(&(k % 7)));
            assert_eq!(adopted.insert(k, k), fresh.insert(k, k));
            let order = |c: &ClockCache<u64, u64>| c.iter().map(|(k, _)| *k).collect::<Vec<_>>();
            assert_eq!(order(&adopted), order(&fresh));
            assert_eq!(adopted.evictions(), fresh.evictions());
        }
    }

    /// A peek is a read: the reference bit it leaves clear lets the next
    /// eviction take the entry a `get` would have kept.
    #[test]
    fn peek_leaves_the_reference_bit_alone() {
        let mut c: ClockCache<u64, u64> = ClockCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert!(c.insert(3, 30), "a clearing revolution, then slot 0 goes");
        assert_eq!(c.peek(&2), Some(20));
        assert!(c.insert(4, 40));
        assert_eq!(c.peek(&2), None, "the peeked entry was not kept");
        assert_eq!(c.peek(&3), Some(30));
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
