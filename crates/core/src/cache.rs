//! Content-hash pass-result cache.
//!
//! A [`PassCache`] memoizes `(pass, inputs) → outputs` across
//! [`crate::dataflow::PerFlowGraph::execute_with`] calls. The key
//! combines the pass's identity — its content
//! [`fingerprint`](crate::pass::Pass::fingerprint) when it has one, the
//! node's pass-object address otherwise — with the content fingerprints
//! of every input [`Value`]. Re-executing an unchanged PerFlowGraph
//! against the same cache therefore hits on every node; editing a pass's
//! configuration or feeding different data invalidates exactly the
//! downstream slice whose inputs changed.
//!
//! Three properties matter for long-lived processes (`perflow-serve`):
//!
//! * **Bounded.** [`PassCache::with_capacity`] caps the number of
//!   entries; inserting past the cap evicts the least-recently-used
//!   entry (and drops its pinned pass `Arc`), counted in
//!   [`CacheStats::evictions`]. [`PassCache::new`] stays unbounded,
//!   preserving one-shot CLI behavior.
//! * **Cheap hits.** Entries store their payload behind an `Arc`, so a
//!   hit clones a pointer while holding the lock — never a deep
//!   `Vec<Value>` — and concurrent workers don't serialize on large
//!   cached PAG values.
//! * **Single-flight fills.** A lookup is a `PassCache::probe`: the
//!   first prober of an absent key gets a `FillGuard` (counted as the
//!   one miss); concurrent probes of the same key block until the fill
//!   lands and are counted as hits (and [`CacheStats::coalesced`]), so a
//!   thundering herd neither double-counts misses nor runs the pass
//!   twice. If the filler fails (guard dropped without filling), exactly
//!   one waiter is promoted to the next filler.
//!
//! Identity-keyed entries keep a strong reference to their pass object,
//! so an address is never recycled while the cache can still return
//! results for it; eviction drops both the payload and that pin
//! together, after which the key can no longer hit. The cache is
//! internally synchronized: scheduler workers probe and fill it
//! concurrently.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::pass::Pass;
use crate::value::Value;
use obs::Fnv;

/// Hit/miss/eviction counters of a [`PassCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (including coalesced waiters).
    pub hits: u64,
    /// Lookups that had to run the pass (one per actual fill attempt).
    pub misses: u64,
    /// Entries dropped by LRU eviction after the capacity was reached.
    pub evictions: u64,
    /// Hits that waited for a concurrent fill of the same key instead of
    /// re-running the pass (a subset of `hits`).
    pub coalesced: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0.0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A memoized pass result. Shared behind an `Arc` so cache hits are
/// pointer clones; consumers deep-clone outside the cache lock if they
/// need owned values.
#[derive(Debug)]
pub struct CachedResult {
    /// The pass's output ports.
    pub outputs: Vec<Value>,
    /// The pass's trail lines.
    pub trail: Vec<String>,
}

struct Entry {
    payload: Arc<CachedResult>,
    /// Recency stamp; also the entry's key in the LRU index.
    tick: u64,
    /// Keeps identity-keyed pass objects alive (see module docs).
    _pass: Arc<dyn Pass>,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<u64, Entry>,
    /// Recency index: tick → cache key, oldest first.
    lru: BTreeMap<u64, u64>,
    next_tick: u64,
    /// Keys currently being computed by a [`FillGuard`] holder.
    in_flight: HashSet<u64>,
    stats: CacheStats,
}

impl Inner {
    fn touch(&mut self, key: u64) {
        if let Some(e) = self.entries.get_mut(&key) {
            self.lru.remove(&e.tick);
            e.tick = self.next_tick;
            self.lru.insert(e.tick, key);
            self.next_tick += 1;
        }
    }
}

/// A shareable, thread-safe, optionally bounded pass-result cache.
#[derive(Default)]
pub struct PassCache {
    inner: Mutex<Inner>,
    /// Signaled when an in-flight fill lands or is abandoned.
    filled: Condvar,
    /// Maximum number of entries; `None` = unbounded.
    capacity: Option<usize>,
}

/// What a [`PassCache::probe`] found.
pub(crate) enum Probe<'a> {
    /// The key is cached; the payload is a pointer clone.
    Hit(Arc<CachedResult>),
    /// The key is absent and this prober owns the fill: run the pass,
    /// then [`FillGuard::fill`] (or drop the guard to abandon).
    Miss(FillGuard<'a>),
}

/// Exclusive right to fill one cache key (see [`Probe::Miss`]).
/// Dropping the guard without filling releases the key and promotes one
/// waiting prober to the next filler.
pub(crate) struct FillGuard<'a> {
    cache: &'a PassCache,
    key: u64,
    armed: bool,
}

impl PassCache {
    /// Empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty cache holding at most `capacity` entries, evicting the
    /// least-recently-used entry past that. A capacity of 0 disables
    /// storage (every probe is a miss) but keeps single-flight
    /// coalescing.
    pub fn with_capacity(capacity: usize) -> Self {
        PassCache {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    /// The configured entry cap (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Current hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all cached results and reset the counters. In-flight fills
    /// are unaffected and may land afterwards.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.entries.clear();
        inner.lru.clear();
        inner.stats = CacheStats::default();
    }

    /// The cache key of running `pass` on `inputs`.
    pub(crate) fn key(pass: &Arc<dyn Pass>, inputs: &[Value]) -> u64 {
        let mut h = Fnv::new();
        match pass.fingerprint() {
            Some(fp) => {
                h.u64(1);
                h.u64(fp);
            }
            None => {
                h.u64(2);
                h.u64(Arc::as_ptr(pass) as *const () as usize as u64);
            }
        }
        h.u64(inputs.len() as u64);
        for v in inputs {
            h.u64(v.fingerprint());
        }
        h.finish()
    }

    /// Look up `key`, counting exactly one hit or miss per probe.
    ///
    /// Blocks while another thread holds the key's [`FillGuard`]; when
    /// that fill lands the probe returns [`Probe::Hit`] (counted as a
    /// coalesced hit), and when it is abandoned one waiter becomes the
    /// new [`Probe::Miss`] filler.
    pub(crate) fn probe(&self, key: u64) -> Probe<'_> {
        let mut inner = self.lock();
        let mut waited = false;
        loop {
            if inner.entries.contains_key(&key) {
                inner.touch(key);
                inner.stats.hits += 1;
                if waited {
                    inner.stats.coalesced += 1;
                }
                let payload = Arc::clone(&inner.entries[&key].payload);
                return Probe::Hit(payload);
            }
            if inner.in_flight.insert(key) {
                inner.stats.misses += 1;
                return Probe::Miss(FillGuard {
                    cache: self,
                    key,
                    armed: true,
                });
            }
            waited = true;
            inner = self.filled.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
    }
}

impl FillGuard<'_> {
    /// Publish the computed result under the guarded key, waking any
    /// coalesced probes, and return the shared payload.
    pub(crate) fn fill(
        mut self,
        outputs: Vec<Value>,
        trail: Vec<String>,
        pass: Arc<dyn Pass>,
    ) -> Arc<CachedResult> {
        self.armed = false;
        let payload = Arc::new(CachedResult { outputs, trail });
        let mut inner = self.cache.lock();
        inner.in_flight.remove(&self.key);
        let tick = inner.next_tick;
        inner.next_tick += 1;
        if let Some(old) = inner.entries.insert(
            self.key,
            Entry {
                payload: Arc::clone(&payload),
                tick,
                _pass: pass,
            },
        ) {
            inner.lru.remove(&old.tick);
        }
        inner.lru.insert(tick, self.key);
        if let Some(cap) = self.cache.capacity {
            while inner.entries.len() > cap {
                let (&oldest_tick, &oldest_key) =
                    inner.lru.iter().next().expect("lru tracks every entry");
                inner.lru.remove(&oldest_tick);
                // Drops the payload and the pinned pass Arc together.
                inner.entries.remove(&oldest_key);
                inner.stats.evictions += 1;
            }
        }
        drop(inner);
        self.cache.filled.notify_all();
        payload
    }
}

impl Drop for FillGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.lock().in_flight.remove(&self.key);
            self.cache.filled.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::SourcePass;

    fn probe_hit(cache: &Arc<PassCache>, key: u64) -> Option<Arc<CachedResult>> {
        match cache.probe(key) {
            Probe::Hit(p) => Some(p),
            Probe::Miss(_guard) => None, // guard dropped: fill abandoned
        }
    }

    fn fill(cache: &Arc<PassCache>, key: u64, v: f64, pass: &Arc<dyn Pass>) {
        match cache.probe(key) {
            Probe::Miss(g) => {
                g.fill(vec![Value::Num(v)], vec![], Arc::clone(pass));
            }
            Probe::Hit(_) => panic!("expected a miss for key {key}"),
        }
    }

    #[test]
    fn keys_separate_passes_and_inputs() {
        let a: Arc<dyn Pass> = Arc::new(SourcePass::new(1.0));
        let b: Arc<dyn Pass> = Arc::new(SourcePass::new(2.0));
        let x = [Value::Num(1.0)];
        let y = [Value::Num(2.0)];
        assert_ne!(PassCache::key(&a, &x), PassCache::key(&b, &x));
        assert_ne!(PassCache::key(&a, &x), PassCache::key(&a, &y));
        assert_eq!(PassCache::key(&a, &x), PassCache::key(&a, &x));
        // Content fingerprints alias equal configurations across objects.
        let a2: Arc<dyn Pass> = Arc::new(SourcePass::new(1.0));
        assert_eq!(PassCache::key(&a, &x), PassCache::key(&a2, &x));
    }

    #[test]
    fn counters_and_clear() {
        let c = Arc::new(PassCache::new());
        let p: Arc<dyn Pass> = Arc::new(SourcePass::new(1.0));
        let key = PassCache::key(&p, &[]);
        assert!(probe_hit(&c, key).is_none());
        fill(&c, key, 1.0, &p);
        assert!(probe_hit(&c, key).is_some());
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 2, // the abandoned probe + the filling probe
                ..CacheStats::default()
            }
        );
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn hits_are_pointer_clones() {
        let c = Arc::new(PassCache::new());
        let p: Arc<dyn Pass> = Arc::new(SourcePass::new(1.0));
        let key = PassCache::key(&p, &[]);
        fill(&c, key, 7.0, &p);
        let a = probe_hit(&c, key).unwrap();
        let b = probe_hit(&c, key).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hits share one payload allocation");
        assert!(matches!(a.outputs[..], [Value::Num(v)] if v == 7.0));
    }

    #[test]
    fn lru_eviction_is_bounded_and_counted() {
        let c = Arc::new(PassCache::with_capacity(2));
        assert_eq!(c.capacity(), Some(2));
        let passes: Vec<Arc<dyn Pass>> = (0..3)
            .map(|i| Arc::new(SourcePass::new(i as f64)) as Arc<dyn Pass>)
            .collect();
        let keys: Vec<u64> = passes.iter().map(|p| PassCache::key(p, &[])).collect();
        fill(&c, keys[0], 0.0, &passes[0]);
        fill(&c, keys[1], 1.0, &passes[1]);
        // Touch key 0 so key 1 is the LRU victim.
        assert!(probe_hit(&c, keys[0]).is_some());
        fill(&c, keys[2], 2.0, &passes[2]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(probe_hit(&c, keys[0]).is_some(), "recently used survives");
        assert!(probe_hit(&c, keys[1]).is_none(), "LRU victim evicted");
        assert!(probe_hit(&c, keys[2]).is_some());
    }

    #[test]
    fn eviction_releases_the_pass_pin() {
        let c = Arc::new(PassCache::with_capacity(1));
        let p: Arc<dyn Pass> = Arc::new(SourcePass::new(1.0));
        let q: Arc<dyn Pass> = Arc::new(SourcePass::new(2.0));
        let kp = PassCache::key(&p, &[]);
        let kq = PassCache::key(&q, &[]);
        fill(&c, kp, 1.0, &p);
        assert_eq!(Arc::strong_count(&p), 2, "cached entry pins the pass");
        fill(&c, kq, 2.0, &q);
        assert_eq!(Arc::strong_count(&p), 1, "eviction drops the pin");
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let c = Arc::new(PassCache::with_capacity(0));
        let p: Arc<dyn Pass> = Arc::new(SourcePass::new(1.0));
        let key = PassCache::key(&p, &[]);
        fill(&c, key, 1.0, &p);
        assert!(c.is_empty());
        assert_eq!(c.stats().evictions, 1);
        assert!(probe_hit(&c, key).is_none());
    }

    #[test]
    fn concurrent_probes_of_one_key_coalesce() {
        let c = Arc::new(PassCache::new());
        let p: Arc<dyn Pass> = Arc::new(SourcePass::new(1.0));
        let key = PassCache::key(&p, &[]);
        let guard = match c.probe(key) {
            Probe::Miss(g) => g,
            Probe::Hit(_) => unreachable!(),
        };
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || match c.probe(key) {
                    Probe::Hit(r) => match r.outputs[..] {
                        [Value::Num(v)] => v,
                        _ => panic!("unexpected payload shape"),
                    },
                    Probe::Miss(_) => panic!("waiter must not become a filler"),
                })
            })
            .collect();
        // Give the waiters time to block on the in-flight key.
        std::thread::sleep(std::time::Duration::from_millis(30));
        guard.fill(vec![Value::Num(9.0)], vec![], Arc::clone(&p));
        for w in waiters {
            assert_eq!(w.join().unwrap(), 9.0);
        }
        let s = c.stats();
        assert_eq!(s.misses, 1, "single-flight: one miss for five probes");
        assert_eq!(s.hits, 4);
        assert_eq!(s.coalesced, 4);
    }

    #[test]
    fn abandoned_fill_promotes_a_waiter() {
        let c = Arc::new(PassCache::new());
        let p: Arc<dyn Pass> = Arc::new(SourcePass::new(1.0));
        let key = PassCache::key(&p, &[]);
        let guard = match c.probe(key) {
            Probe::Miss(g) => g,
            Probe::Hit(_) => unreachable!(),
        };
        let waiter = {
            let c = Arc::clone(&c);
            let p = Arc::clone(&p);
            std::thread::spawn(move || match c.probe(key) {
                Probe::Miss(g) => {
                    g.fill(vec![Value::Num(3.0)], vec![], p);
                    true
                }
                Probe::Hit(_) => false,
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        drop(guard); // abandon without filling
        assert!(waiter.join().unwrap(), "waiter promoted to filler");
        assert_eq!(c.stats().misses, 2);
        assert!(probe_hit(&c, key).is_some());
    }
}
