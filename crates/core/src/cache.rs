//! Content-hash pass-result cache.
//!
//! A [`PassCache`] memoizes `(pass, inputs) → outputs` across
//! [`crate::dataflow::PerFlowGraph::execute_with`] calls. Results are
//! stored under one content key (`cache::key`), the same one checkpoint
//! snapshots use: the pass's content
//! [`fingerprint`](crate::pass::Pass::fingerprint) combined with the
//! content [`Value::fingerprint`] of every input. Re-executing an
//! unchanged PerFlowGraph — or an equal one built on a re-created run —
//! against the same cache therefore hits on every node; editing a pass's
//! configuration or feeding different data invalidates exactly the
//! downstream slice whose inputs changed. A node without a key (a pass
//! with no fingerprint, or an input on a detached graph) is never looked
//! up: it runs on every execution and counts as neither hit nor miss.
//!
//! The cache is unbounded and belongs to its caller: it lives as long as
//! the caller keeps it, and with it every run its cached sets reference.
//! Entries store their payload behind an `Arc`, so a hit clones a
//! pointer while holding the lock and the deep clone of the outputs
//! happens off it. The map is internally synchronized, so executions on
//! several threads may share one cache; two of them missing the same key
//! at once both run the pass, and the second insert replaces the first
//! equal result.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::pass::Pass;
use crate::value::Value;
use obs::Fnv;

/// The content key of running `pass` on `inputs`: the pass's
/// [`fingerprint`](Pass::fingerprint) and every input's
/// [`Value::fingerprint`]. `None` when the pass or any input has no
/// fingerprint — such a node is neither cached nor checkpointed. The key
/// is stable across processes, so checkpoint snapshots store results
/// under it too.
pub(crate) fn key(pass: &dyn Pass, inputs: &[Value]) -> Option<u64> {
    let fp = pass.fingerprint()?;
    let mut h = Fnv::new();
    h.u64(0x5AB1E);
    h.u64(fp);
    h.u64(inputs.len() as u64);
    for v in inputs {
        h.u64(v.fingerprint()?);
    }
    Some(h.finish())
}

/// Hit/miss counters of a [`PassCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the pass.
    pub misses: u64,
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

#[derive(Default)]
struct Inner {
    entries: HashMap<u64, Arc<CachedResult>>,
    stats: CacheStats,
}

/// A shareable, thread-safe, unbounded pass-result cache.
#[derive(Default)]
pub struct PassCache {
    inner: Mutex<Inner>,
}

impl PassCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Current hit/miss counters.
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

    /// The result cached under `key`, counting one hit or one miss.
    pub(crate) fn get(&self, key: u64) -> Option<Arc<CachedResult>> {
        let mut inner = self.lock();
        let hit = inner.entries.get(&key).cloned();
        if hit.is_some() {
            inner.stats.hits += 1;
        } else {
            inner.stats.misses += 1;
        }
        hit
    }

    /// Store a pass's result under `key`.
    pub(crate) fn insert(&self, key: u64, outputs: Vec<Value>, trail: Vec<String>) {
        let payload = Arc::new(CachedResult { outputs, trail });
        self.lock().entries.insert(key, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::SourcePass;

    /// The key of a source emitting `v`.
    fn source_key(v: f64) -> u64 {
        key(&SourcePass::new(v), &[]).expect("sources of numbers are keyed")
    }

    #[test]
    fn keys_separate_passes_and_inputs() {
        let a = SourcePass::new(1.0);
        let b = SourcePass::new(2.0);
        let x = [Value::Num(1.0)];
        let y = [Value::Num(2.0)];
        assert_ne!(key(&a, &x), key(&b, &x));
        assert_ne!(key(&a, &x), key(&a, &y));
        assert_eq!(key(&a, &x), key(&a, &x));
        // Content fingerprints alias equal configurations across objects.
        let a2 = SourcePass::new(1.0);
        assert_eq!(key(&a, &x), key(&a2, &x));
    }

    #[test]
    fn counters_and_clear() {
        let c = PassCache::new();
        assert!(c.is_empty());
        assert_eq!(c.stats(), CacheStats::default());
        let key = source_key(1.0);
        assert!(c.get(key).is_none());
        c.insert(key, vec![Value::Num(1.0)], vec![]);
        assert!(c.get(key).is_some());
        assert!(c.get(source_key(2.0)).is_none());
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 2 });
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn hits_are_pointer_clones() {
        let c = PassCache::new();
        let key = source_key(1.0);
        assert!(c.get(key).is_none());
        c.insert(key, vec![Value::Num(7.0)], vec![]);
        let a = c.get(key).unwrap();
        let b = c.get(key).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hits share one payload allocation");
        assert!(matches!(a.outputs[..], [Value::Num(v)] if v == 7.0));
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1 });
        assert_eq!(c.len(), 1);
    }
}
