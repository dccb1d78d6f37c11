//! Serve-side LRU caches: simulated runs and rendered reports.
//!
//! Both are keyed on content fingerprints (see
//! [`driver::sim_fingerprint`] and [`driver::report_fingerprint`]): the
//! run cache maps a simulation fingerprint to its [`perflow::RunHandle`] so an
//! identical submission skips the simulator, and the report cache maps
//! a report fingerprint to the rendered text + digest so it skips the
//! analysis too. These are the daemon's only two cache layers.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// A small thread-safe LRU map with `u64` (fingerprint) keys.
pub struct LruMap<V> {
    inner: Mutex<LruState<V>>,
    capacity: usize,
}

struct LruState<V> {
    entries: HashMap<u64, (V, u64)>,
    /// tick → key, oldest first.
    order: BTreeMap<u64, u64>,
    next_tick: u64,
}

impl<V: Clone> LruMap<V> {
    /// An empty map evicting past `capacity` entries (capacity 0 stores
    /// nothing).
    pub fn new(capacity: usize) -> Self {
        LruMap {
            inner: Mutex::new(LruState {
                entries: HashMap::new(),
                order: BTreeMap::new(),
                next_tick: 0,
            }),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LruState<V>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Clone out the value under `key`, refreshing its recency.
    pub fn get(&self, key: u64) -> Option<V> {
        let mut st = self.lock();
        let tick = st.next_tick;
        if let Some((v, old_tick)) = st.entries.get_mut(&key) {
            let value = v.clone();
            let old = *old_tick;
            *old_tick = tick;
            st.next_tick += 1;
            st.order.remove(&old);
            st.order.insert(tick, key);
            Some(value)
        } else {
            None
        }
    }

    /// Insert (or refresh) `key`, evicting the least-recently-used
    /// entries past capacity. Returns how many entries were evicted so
    /// the caller can feed an eviction counter.
    pub fn insert(&self, key: u64, value: V) -> usize {
        let mut st = self.lock();
        let tick = st.next_tick;
        st.next_tick += 1;
        if let Some((_, old_tick)) = st.entries.insert(key, (value, tick)) {
            st.order.remove(&old_tick);
        }
        st.order.insert(tick, key);
        let mut evicted = 0;
        while st.entries.len() > self.capacity {
            let (&oldest_tick, &oldest_key) = st.order.iter().next().expect("order tracks entries");
            st.order.remove(&oldest_tick);
            st.entries.remove(&oldest_key);
            evicted += 1;
        }
        evicted
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let m = LruMap::new(2);
        assert_eq!(m.insert(1, "a"), 0);
        assert_eq!(m.insert(2, "b"), 0);
        assert_eq!(m.get(1), Some("a")); // touch 1 → 2 is LRU
        assert_eq!(m.insert(3, "c"), 1);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(2), None);
        assert_eq!(m.get(1), Some("a"));
        assert_eq!(m.get(3), Some("c"));
    }

    #[test]
    fn reinsert_refreshes_not_duplicates() {
        let m = LruMap::new(2);
        m.insert(1, "a");
        m.insert(1, "a2");
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(1), Some("a2"));
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let m = LruMap::new(0);
        assert_eq!(m.insert(1, "a"), 1);
        assert!(m.is_empty());
        assert_eq!(m.get(1), None);
    }
}
