//! The capacity-bounded memo map behind the one sublink cache the executor
//! accounts: the summaries a compiled statement keeps in its own
//! [`StatementMemo`]. (The reference interpreter memoizes sublink results
//! in a plain map that lives for one execution; see `crate::interpreter`.)
//!
//! [`MemoMap`] behaves like a plain `HashMap<Vec<u8>, V>` by default. Built
//! with a capacity ([`MemoMap::new`]) it is an LRU cache: every hit
//! refreshes the entry's recency and an insert that pushes the map over its
//! capacity evicts the least-recently-used entries.
//!
//! The LRU bookkeeping (a recency stamp per entry plus a lazily-invalidated
//! queue of `(stamp, key)` pairs) is only maintained when a capacity is set,
//! so the default unbounded configuration — which preserves the memo
//! behaviour the ROADMAP's Fig. 7 measurements were taken under — pays no
//! overhead for the bound. Queue entries left stale by a later touch of the
//! same key are skipped at eviction time and compacted away when the queue
//! outgrows the map by a constant factor.

use crate::quant::SublinkSummary;
use crate::resilience::MemoCost;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Fixed per-entry bookkeeping estimate (hash-map slot, recency stamp,
/// queue representative) added to each entry's key + value bytes.
const ENTRY_OVERHEAD: u64 = 48;

/// One stored entry: the cached value plus the recency stamp of its last
/// touch (0 while unbounded — stamps only mean something under a capacity).
struct Entry<V> {
    stamp: u64,
    value: V,
}

/// A byte-keyed memo map with an optional LRU capacity bound.
pub(crate) struct MemoMap<V> {
    map: HashMap<Vec<u8>, Entry<V>>,
    /// Recency queue, oldest first; entries whose stamp no longer matches
    /// the map's are stale and skipped. Only maintained under a capacity.
    queue: VecDeque<(u64, Vec<u8>)>,
    /// Monotonic recency clock.
    stamp: u64,
    capacity: Option<usize>,
    /// Approximate live bytes (keys + values + per-entry overhead), kept
    /// exact across insert/evict/clear so the resilience governor can
    /// account memo memory without walking the map.
    bytes: u64,
}

impl<V: Clone + MemoCost> MemoMap<V> {
    /// An empty map bounded to at most `capacity` entries with LRU
    /// eviction, or unbounded with `None`.
    pub(crate) fn new(capacity: Option<usize>) -> MemoMap<V> {
        MemoMap {
            map: HashMap::new(),
            queue: VecDeque::new(),
            stamp: 0,
            capacity,
            bytes: 0,
        }
    }

    /// Approximate bytes held by the live entries.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    fn entry_cost(key_len: usize, value: &V) -> u64 {
        key_len as u64 + value.cost_bytes() + ENTRY_OVERHEAD
    }

    /// Looks up a key, refreshing its recency when a capacity is set.
    pub(crate) fn get(&mut self, key: &[u8]) -> Option<V> {
        if self.capacity.is_none() {
            return self.map.get(key).map(|e| e.value.clone());
        }
        let stamp = self.next_stamp();
        let value = {
            let entry = self.map.get_mut(key)?;
            entry.stamp = stamp;
            entry.value.clone()
        };
        self.queue.push_back((stamp, key.to_vec()));
        self.maybe_compact();
        Some(value)
    }

    /// Inserts a key, evicting least-recently-used entries if the configured
    /// capacity is exceeded.
    pub(crate) fn insert(&mut self, key: Vec<u8>, value: V) {
        let key_len = key.len();
        self.bytes += Self::entry_cost(key_len, &value);
        if self.capacity.is_none() {
            if let Some(old) = self.map.insert(key, Entry { stamp: 0, value }) {
                self.bytes -= Self::entry_cost(key_len, &old.value);
            }
            return;
        }
        let stamp = self.next_stamp();
        self.queue.push_back((stamp, key.clone()));
        if let Some(old) = self.map.insert(key, Entry { stamp, value }) {
            self.bytes -= Self::entry_cost(key_len, &old.value);
        }
        self.evict_over_capacity();
        self.maybe_compact();
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.queue.clear();
        self.bytes = 0;
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    #[cfg(test)]
    pub(crate) fn contains(&self, key: &[u8]) -> bool {
        self.map.contains_key(key)
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    fn evict_over_capacity(&mut self) {
        let Some(capacity) = self.capacity else {
            return;
        };
        while self.map.len() > capacity {
            // Under a capacity every live entry has a queue representative,
            // so the queue cannot run dry while the map is over its bound.
            let Some((stamp, key)) = self.queue.pop_front() else {
                break;
            };
            // Stale queue entry: the key was touched again later (or already
            // evicted); the fresher queue entry represents it.
            if self.map.get(&key).map(|e| e.stamp) == Some(stamp) {
                if let Some(old) = self.map.remove(&key) {
                    self.bytes -= Self::entry_cost(key.len(), &old.value);
                }
            }
        }
    }

    /// Drops stale queue entries once they dominate the queue, keeping the
    /// queue length proportional to the live entry count.
    fn maybe_compact(&mut self) {
        if self.queue.len() > self.map.len() * 4 + 16 {
            let map = &self.map;
            self.queue
                .retain(|(stamp, key)| map.get(key).map(|e| e.stamp) == Some(*stamp));
        }
    }
}

/// The sublink memo of one compiled statement: a mutex-guarded map of
/// compiled-path sublink *summaries* (whether an `EXISTS` found a row, a
/// scalar's value, an `ANY`/`ALL` [`crate::QuantProbe`]), shared as `Arc`s
/// so hits never copy — across threads too.
///
/// `Executor::prepare` gives each [`crate::CompiledPlan`] one memo, and
/// every sublink of the plan holds a handle to it, so an entry lives exactly
/// as long as its statement: whoever shares the statement (sessions through
/// the engine's plan cache, the workers of a serving pool, holders of one
/// `Arc<Prepared>`) shares its entries, and dropping the statement frees
/// them. A key is `sublink id ‖ database version ‖ typed parameter and
/// binding values`, so an entry computed over one state of the data is
/// never served for another.
///
/// Two threads that race to compute the same key both execute the sublink
/// and both insert; the results are identical (a sublink result is a pure
/// function of the database, the binding and the parameter values), so the
/// last write is indistinguishable from the first. Errors are never cached.
pub(crate) struct StatementMemo {
    entries: Mutex<MemoMap<Arc<SublinkSummary>>>,
}

/// Locks the memo's map, recovering from poisoning
/// (`PoisonError::into_inner`): a panic while the lock is held cannot leave
/// the map internally inconsistent, because every critical section is a
/// single complete `MemoMap` operation — there is no multi-step write a
/// panic could interrupt halfway. Propagating the poison instead would turn
/// one panicked worker into a permanent failure for every later query.
fn lock<V>(map: &Mutex<MemoMap<V>>) -> MutexGuard<'_, MemoMap<V>> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

impl StatementMemo {
    /// A memo bounded to at most `capacity` entries with LRU eviction, or
    /// unbounded with `None`.
    pub(crate) fn new(capacity: Option<usize>) -> Arc<StatementMemo> {
        Arc::new(StatementMemo {
            entries: Mutex::new(MemoMap::new(capacity)),
        })
    }

    /// Drops every cached summary.
    pub(crate) fn clear(&self) {
        lock(&self.entries).clear();
    }

    /// Drops every cached summary and returns the bytes that freed.
    pub(crate) fn reclaim(&self) -> u64 {
        let mut entries = lock(&self.entries);
        let freed = entries.bytes();
        entries.clear();
        freed
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// Approximate bytes held — the memo is byte-aware, not just
    /// entry-aware, so a memory budget can account and reclaim it.
    pub(crate) fn bytes(&self) -> u64 {
        lock(&self.entries).bytes()
    }

    pub(crate) fn get(&self, key: &[u8]) -> Option<Arc<SublinkSummary>> {
        lock(&self.entries).get(key)
    }

    pub(crate) fn insert(&self, key: Vec<u8>, value: Arc<SublinkSummary>) {
        lock(&self.entries).insert(key, value);
    }
}

impl std::fmt::Debug for StatementMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatementMemo")
            .field("entries", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::{CompareOp, SublinkKind};
    use perm_storage::{Relation, Schema, Truth, Value};

    impl MemoCost for u32 {
        fn cost_bytes(&self) -> u64 {
            std::mem::size_of::<u32>() as u64
        }
    }

    #[test]
    fn unbounded_map_keeps_everything() {
        let mut m: MemoMap<u32> = MemoMap::new(None);
        for i in 0..100u32 {
            m.insert(vec![i as u8], i);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&[7]), Some(7));
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut m: MemoMap<u32> = MemoMap::new(Some(2));
        m.insert(vec![1], 1);
        m.insert(vec![2], 2);
        // Touch key 1 so key 2 becomes the LRU victim.
        assert_eq!(m.get(&[1]), Some(1));
        m.insert(vec![3], 3);
        assert_eq!(m.len(), 2);
        assert!(m.contains(&[1]));
        assert!(!m.contains(&[2]));
        assert!(m.contains(&[3]));
    }

    #[test]
    fn reinserting_a_key_does_not_grow_the_map() {
        let mut m: MemoMap<u32> = MemoMap::new(Some(2));
        for _ in 0..10 {
            m.insert(vec![1], 1);
            m.insert(vec![2], 2);
        }
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&[1]), Some(1));
        assert_eq!(m.get(&[2]), Some(2));
    }

    /// The `ANY` summary of the one-row result `{v}`.
    fn probe_of(v: i64) -> Arc<SublinkSummary> {
        let result = Relation::from_rows(Schema::from_names(&["c"]), vec![vec![Value::Int(v)]]);
        Arc::new(SublinkSummary::build(SublinkKind::Any, &result.into()).unwrap())
    }

    /// `v = ANY (summarised result)`.
    fn any_eq(summary: &SublinkSummary, v: i64) -> Truth {
        summary
            .probe()
            .verdict(SublinkKind::Any, CompareOp::Eq, &Value::Int(v))
    }

    fn found() -> Arc<SublinkSummary> {
        Arc::new(SublinkSummary::Exists(true))
    }

    #[test]
    fn sharded_memo_round_trips_across_threads() {
        let memo = StatementMemo::new(None);
        let flag = found();
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let memo = &memo;
                let flag = &flag;
                s.spawn(move || {
                    for i in 0..50u8 {
                        memo.insert(vec![t, i], Arc::clone(flag));
                        memo.insert(vec![t, 100 + i], probe_of(i.into()));
                    }
                });
            }
        });
        assert_eq!(memo.len(), 2 * 4 * 50);
        let hit = memo.get(&[2, 7]).expect("entry written by thread 2");
        assert!(Arc::ptr_eq(&hit, &flag), "hits share the allocation");
        let probe = memo.get(&[3, 149]).expect("probe written by thread 3");
        assert_eq!(any_eq(&probe, 49), Truth::True);
        assert!(memo.get(&[9, 9]).is_none());
        memo.clear();
        assert_eq!(memo.len(), 0);
    }

    #[test]
    fn shared_memo_capacity_is_an_exact_lru_bound() {
        let memo = StatementMemo::new(Some(8));
        for i in 0..100u8 {
            memo.insert(vec![i], found());
            // Keep key 0 hot: a `get` refreshes its recency.
            assert!(memo.get(&[0]).is_some());
        }
        // Exactly the 8 most recently used keys remain: the refreshed key 0
        // and the last 7 inserted.
        let entries = lock(&memo.entries);
        assert_eq!(entries.len(), 8);
        for key in [0u8, 93, 94, 95, 96, 97, 98, 99] {
            assert!(entries.contains(&[key]), "key {key} must survive");
        }
    }

    #[test]
    fn byte_accounting_tracks_insert_replace_evict_and_clear() {
        let mut m: MemoMap<u32> = MemoMap::new(None);
        assert_eq!(m.bytes(), 0);
        m.insert(vec![1, 2, 3], 7);
        let one = m.bytes();
        assert_eq!(one, 3 + 4 + ENTRY_OVERHEAD);
        // Replacing a key must not double-count.
        m.insert(vec![1, 2, 3], 8);
        assert_eq!(m.bytes(), one);
        m.insert(vec![4], 9);
        assert!(m.bytes() > one);
        m.clear();
        assert_eq!(m.bytes(), 0);

        // The same under a capacity, where LRU eviction returns the evicted
        // entry's bytes.
        let mut bounded: MemoMap<u32> = MemoMap::new(Some(2));
        bounded.insert(vec![1, 2, 3], 7);
        bounded.insert(vec![1, 2, 3], 8);
        assert_eq!(bounded.bytes(), one);
        bounded.insert(vec![4], 9);
        bounded.insert(vec![5], 10);
        assert_eq!(bounded.len(), 2);
        assert_eq!(bounded.bytes(), 2 * (1 + 4 + ENTRY_OVERHEAD));
        bounded.clear();
        assert_eq!(bounded.bytes(), 0);

        let statement = StatementMemo::new(None);
        assert_eq!(statement.bytes(), 0);
        statement.insert(vec![1], probe_of(1));
        statement.insert(vec![2], found());
        assert!(statement.bytes() > 0);
        statement.clear();
        assert_eq!(statement.bytes(), 0);
    }

    #[test]
    fn poisoned_lock_recovers_for_the_next_query() {
        let memo = StatementMemo::new(None);
        memo.insert(vec![1], probe_of(1));
        // A worker panics while holding the map's lock, poisoning the
        // mutex.
        let worker = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = memo.entries.lock().unwrap();
                panic!("worker dies inside the critical section");
            })
            .join()
        });
        assert!(worker.is_err(), "the worker must actually panic");
        // Every operation on that map still succeeds: the entries are
        // internally consistent (each write is one complete insert), so the
        // poison is recovered rather than propagated.
        assert_eq!(any_eq(&memo.get(&[1]).unwrap(), 1), Truth::True);
        memo.insert(vec![1, 1], probe_of(2));
        assert_eq!(any_eq(&memo.get(&[1, 1]).unwrap(), 1), Truth::False);
        assert!(memo.bytes() > 0);
        memo.clear();
        assert_eq!(memo.len(), 0);
    }

    #[test]
    fn heavy_hit_traffic_stays_bounded() {
        let mut m: MemoMap<u32> = MemoMap::new(Some(4));
        for i in 0..4u8 {
            m.insert(vec![i], i as u32);
        }
        // Many hits must not let internal bookkeeping grow without bound.
        for _ in 0..10_000 {
            assert_eq!(m.get(&[2]), Some(2));
        }
        assert!(m.queue.len() <= m.map.len() * 4 + 17);
        m.insert(vec![9], 9);
        assert_eq!(m.len(), 4);
        assert!(m.contains(&[2]), "hot key must survive eviction");
    }
}
