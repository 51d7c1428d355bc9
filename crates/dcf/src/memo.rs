//! The one memoization primitive behind every cache in the workspace.
//!
//! The game and its extensions are mostly repeated solves of the same
//! fixed point, so several layers memoize: class solutions
//! ([`crate::SolveCache`]), symmetric bisection roots
//! ([`crate::SymmetricMemo`]), evaluator stage outcomes, EDCA stage rates
//! and served query results. They all store through [`Memo`]:
//!
//! * **Sharded.** Up to 16 independently locked `BTreeMap` shards,
//!   picked by FNV-1a over the key's [`ShardKey`] bytes. The
//!   hash is the same on every run and platform (unlike `std`'s seeded
//!   hasher), so per-shard eviction is reproducible.
//! * **Bounded or unbounded.** [`Memo::bounded`] evicts per shard in FIFO
//!   insertion order. `bounded(0)` is the documented no-op cache: nothing
//!   is stored, every insert counts a miss, and nothing is evicted.
//! * **First insert wins.** Callers compute values outside the lock, so
//!   racing misses on one key may duplicate work but never block each
//!   other. The first insert is kept and every racer gets it back. Only
//!   the insert that lands counts a miss; one that loses the race counts
//!   a hit. So `misses` is the number of values stored and
//!   `hits + misses` the number of lookups, whatever the thread count.
//! * **Counted.** Hit, miss and eviction totals are kept per memo and
//!   reported under the owner's telemetry names ([`MemoNames`]), if any.

use std::collections::{BTreeMap, VecDeque};
use std::sync::RwLock;

use macgame_telemetry::Counter;

use crate::classes::ClassProfile;
use crate::edca::EdcaProfile;

/// Maximum number of independently locked shards in a [`Memo`]. Bounded
/// memos with fewer than `MAX_SHARDS` entries use one single-entry shard
/// per entry so the configured capacity is exact.
const MAX_SHARDS: usize = 16;

/// FNV-1a over `bytes`: the shard hash of every [`Memo`]. [`ShardKey`]
/// impls outside this module feed it their key's fixed byte encoding.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A key with a stable byte encoding, hashed to pick a [`Memo`] shard.
pub trait ShardKey {
    /// FNV-1a over a platform-independent encoding of the key.
    fn shard_hash(&self) -> u64;
}

impl ShardKey for String {
    fn shard_hash(&self) -> u64 {
        fnv1a(self.bytes())
    }
}

impl ShardKey for Vec<u32> {
    fn shard_hash(&self) -> u64 {
        fnv1a(self.iter().flat_map(|w| w.to_le_bytes()))
    }
}

impl ShardKey for (usize, u32) {
    fn shard_hash(&self) -> u64 {
        fnv1a((self.0 as u64).to_le_bytes().into_iter().chain(self.1.to_le_bytes()))
    }
}

impl ShardKey for ClassProfile {
    fn shard_hash(&self) -> u64 {
        let windows = self.windows().iter().flat_map(|w| w.to_le_bytes());
        fnv1a(windows.chain(self.counts().iter().flat_map(|&c| (c as u64).to_le_bytes())))
    }
}

impl ShardKey for EdcaProfile {
    fn shard_hash(&self) -> u64 {
        let tuples = self.tuples().iter().flat_map(|t| {
            [t.cw_min, t.stage_cap, t.aifs, t.txop].into_iter().flat_map(u32::to_le_bytes)
        });
        fnv1a(tuples.chain(self.counts().iter().flat_map(|&c| (c as u64).to_le_bytes())))
    }
}

/// The telemetry counters a [`Memo`] reports under. `None` keeps that
/// count local to the memo's own accessors.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoNames {
    /// Counter bumped on every hit.
    pub hits: Option<&'static str>,
    /// Counter bumped on every miss.
    pub misses: Option<&'static str>,
    /// Counter bumped on every eviction.
    pub evictions: Option<&'static str>,
}

/// One lock's worth of a memo: the map plus the FIFO insertion queue
/// that drives eviction (empty and unmaintained when unbounded).
#[derive(Debug)]
struct Shard<K, V> {
    map: BTreeMap<K, V>,
    order: VecDeque<K>,
}

/// A sharded, optionally bounded, first-insert-wins key → value memo.
/// Share by reference or [`std::sync::Arc`]; all methods take `&self`.
/// `V` is cloned out on every lookup, so large values go in an `Arc`.
#[derive(Debug)]
pub struct Memo<K, V> {
    shards: Vec<RwLock<Shard<K, V>>>,
    /// `None`: unbounded. `Some(k)`: at most `k` entries per shard, with
    /// `Some(0)` the no-op cache.
    per_shard: Option<usize>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl<K: Ord + Clone + ShardKey, V: Clone> Memo<K, V> {
    /// An unbounded memo: entries are never evicted.
    #[must_use]
    pub fn unbounded(names: MemoNames) -> Self {
        Self::build(MAX_SHARDS, None, names)
    }

    /// A memo holding at most `capacity` entries. The bound is split
    /// evenly over the shards (rounding down), so a hot shard may evict
    /// while colder ones still have room: the resident count can sit
    /// below `capacity` but never above it. `bounded(0)` is the no-op
    /// cache.
    #[must_use]
    pub fn bounded(capacity: usize, names: MemoNames) -> Self {
        match capacity {
            0 => Self::build(1, Some(0), names),
            c if c < MAX_SHARDS => Self::build(c, Some(1), names),
            c => Self::build(MAX_SHARDS, Some(c / MAX_SHARDS), names),
        }
    }

    fn build(shard_count: usize, per_shard: Option<usize>, names: MemoNames) -> Self {
        let shards = (0..shard_count)
            .map(|_| RwLock::new(Shard { map: BTreeMap::new(), order: VecDeque::new() }))
            .collect();
        Memo {
            shards,
            per_shard,
            hits: Counter::new(names.hits),
            misses: Counter::new(names.misses),
            evictions: Counter::new(names.evictions),
        }
    }

    fn shard_index(&self, key: &K) -> usize {
        (key.shard_hash() % self.shards.len() as u64) as usize
    }

    /// The stored value for `key`, counting a hit when there is one. A
    /// miss is not counted here but by the [`Memo::insert`] that follows.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        let shard = &self.shards[self.shard_index(key)];
        let found = shard.read().expect("memo lock poisoned").map.get(key).cloned(); // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
        if found.is_some() {
            self.hits.incr();
        }
        found
    }

    /// Stores `value` under `key` unless a value is already there, and
    /// returns whichever value the memo now holds for `key`: a miss when
    /// this insert lands, a hit when an earlier insert won. Bounded
    /// shards then evict their oldest entries down to the bound.
    pub fn insert(&self, key: K, value: V) -> V {
        if self.per_shard == Some(0) {
            self.misses.incr();
            return value;
        }
        let mut shard = self.shards[self.shard_index(&key)].write().expect("memo lock poisoned"); // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
        if let Some(existing) = shard.map.get(&key) {
            self.hits.incr();
            return existing.clone();
        }
        self.misses.incr();
        if self.per_shard.is_some() {
            shard.order.push_back(key.clone());
        }
        shard.map.insert(key, value.clone());
        while shard.map.len() > self.per_shard.unwrap_or(usize::MAX) {
            // The queue only holds live keys: hits never re-push, and
            // eviction removes from both sides in lockstep.
            let Some(victim) = shard.order.pop_front() else { break };
            shard.map.remove(&victim);
            self.evictions.incr();
        }
        value
    }

    /// The stored value for `key`, or `make()`'s value inserted under it.
    /// `make` runs outside every lock; its error is returned as is and
    /// counts neither a hit nor a miss.
    ///
    /// # Errors
    ///
    /// Propagates `make`'s error.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: &K,
        make: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        match self.get(key) {
            Some(hit) => Ok(hit),
            None => Ok(self.insert(key.clone(), make()?)),
        }
    }

    /// Lookups answered from the memo.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Inserts that landed, i.e. fresh values stored (for the no-op cache,
    /// every insert).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries dropped to stay under the bound. Always zero for unbounded
    /// and zero-capacity memos.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Number of entries currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().expect("memo lock poisoned").map.len()).sum() // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
    }

    /// Whether no entry is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Barrier};

    use super::*;

    fn memo(capacity: usize) -> Memo<String, Arc<u32>> {
        Memo::bounded(capacity, MemoNames::default())
    }

    fn insert(m: &Memo<String, Arc<u32>>, key: &str, value: u32) -> Arc<u32> {
        m.insert(key.to_owned(), Arc::new(value))
    }

    #[test]
    fn get_after_insert_hits_and_shares_the_value() {
        let m = memo(64);
        assert!(m.get(&"k1".to_owned()).is_none());
        let stored = insert(&m, "k1", 8);
        let got = m.get(&"k1".to_owned()).unwrap();
        assert!(Arc::ptr_eq(&got, &stored));
        assert_eq!((m.hits(), m.misses()), (1, 1));
    }

    #[test]
    fn first_insert_wins_and_a_lost_insert_is_a_hit() {
        let m = memo(8);
        let first = insert(&m, "k", 1);
        let second = insert(&m, "k", 2);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((m.hits(), m.misses(), m.len()), (1, 1, 1));
    }

    #[test]
    fn unbounded_memo_never_evicts() {
        let m: Memo<String, Arc<u32>> = Memo::unbounded(MemoNames::default());
        for i in 0..40 {
            insert(&m, &format!("k{i}"), i);
        }
        assert_eq!((m.len(), m.evictions()), (40, 0));
    }

    #[test]
    fn bounded_memo_evicts_per_shard_fifo() {
        let m = memo(4);
        for i in 0..12 {
            insert(&m, &format!("k{i}"), i);
        }
        assert!(m.len() <= 4 && !m.is_empty(), "resident {}", m.len());
        assert_eq!(m.misses(), 12);
        assert_eq!(m.evictions(), 12 - m.len() as u64);
    }

    #[test]
    fn evicted_key_is_a_miss_again() {
        // Capacity 1: one single-entry shard, so a strict global FIFO.
        let m = memo(1);
        insert(&m, "a", 1);
        insert(&m, "b", 2); // evicts "a"
        assert_eq!((m.evictions(), m.len()), (1, 1));
        assert!(m.get(&"a".to_owned()).is_none());
        insert(&m, "a", 1);
        assert_eq!((m.misses(), m.evictions()), (3, 2));
    }

    #[test]
    fn large_capacity_splits_across_shards_without_exceeding_bound() {
        let m = memo(64);
        for i in 0..200 {
            insert(&m, &format!("k{i}"), i);
        }
        assert!(m.len() <= 64);
        assert_eq!(m.misses() - m.evictions(), m.len() as u64);
    }

    #[test]
    fn zero_capacity_is_a_noop_cache() {
        let m = memo(0);
        insert(&m, "k", 1);
        assert!(m.get(&"k".to_owned()).is_none());
        let made = m.get_or_try_insert_with(&"k".to_owned(), || Ok::<_, ()>(Arc::new(2)));
        assert_eq!(*made.unwrap(), 2);
        assert!(m.is_empty());
        assert_eq!((m.hits(), m.misses(), m.evictions()), (0, 2, 0));
    }

    #[test]
    fn failed_make_counts_nothing() {
        let m = memo(8);
        assert_eq!(m.get_or_try_insert_with(&"k".to_owned(), || Err("no")), Err("no"));
        assert_eq!((m.hits(), m.misses(), m.len()), (0, 0, 0));
    }

    #[test]
    fn shard_choice_is_pinned() {
        // Which keys share a shard decides eviction victims and counts, so
        // these indices must never move.
        let profiles = [
            ClassProfile::new(vec![16, 64], vec![2, 3]).unwrap(),
            ClassProfile::new(vec![32, 128], vec![1, 4]).unwrap(),
            ClassProfile::new(vec![76], vec![5]).unwrap(),
            ClassProfile::new(vec![8, 16, 256], vec![1, 1, 1]).unwrap(),
        ];
        let strings: Vec<String> =
            ["k0", "k1", "", r#"{"WcStar":{"players":5,"mode":"Basic","w_max":1024}}"#]
                .iter()
                .map(|s| s.to_string())
                .collect();
        for (capacity, want_profiles, want_strings) in
            [(4096, [4, 0, 12, 3], [14, 1, 5, 14]), (5, [1, 1, 3, 3], [2, 3, 2, 0])]
        {
            let m: Memo<ClassProfile, ()> = Memo::bounded(capacity, MemoNames::default());
            let got: Vec<usize> = profiles.iter().map(|k| m.shard_index(k)).collect();
            assert_eq!(got, want_profiles);
            let m: Memo<String, ()> = Memo::bounded(capacity, MemoNames::default());
            let got: Vec<usize> = strings.iter().map(|k| m.shard_index(k)).collect();
            assert_eq!(got, want_strings);
        }
    }

    #[test]
    fn racing_misses_store_one_value_and_count_one_miss() {
        const THREADS: usize = 8;
        let m: Memo<String, Arc<usize>> = Memo::unbounded(MemoNames::default());
        let key = "racy".to_owned();
        // Every thread is inside `make` (so has already missed) before any
        // of them inserts.
        let all_missed = Barrier::new(THREADS);
        let returned: Vec<Arc<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|i| {
                    let (m, key, all_missed) = (&m, &key, &all_missed);
                    scope.spawn(move || {
                        m.get_or_try_insert_with(key, || {
                            all_missed.wait();
                            Ok::<_, ()>(Arc::new(i))
                        })
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!((m.misses(), m.hits()), (1, THREADS as u64 - 1));
        let stored = m.get(&key).unwrap();
        assert!(returned.iter().all(|v| Arc::ptr_eq(v, &stored)));
    }
}
