//! Scoped-thread sharding for collect's one data-parallel phase, the
//! per-rank accumulation in `embed`.
//!
//! The workspace's determinism contract is `N workers == 1 worker`: shards
//! are claimed from an atomic counter by plain scoped threads, but results
//! are reassembled **in shard order**, so the merged output is
//! bit-identical for any worker count. The same holds for failure: when
//! shards panic, the caller sees the payload of the lowest-index one.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count the public entry points use: the host's parallelism.
pub(crate) fn host_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over shard indices `0..n` on up to `workers` threads (the
/// caller counts as one, so `workers <= 1` spawns nothing) and return the
/// results **in shard order** regardless of which thread computed what.
/// Shards are claimed dynamically, so imbalanced shard costs still spread.
///
/// A panicking shard does not stop the others; once all have finished,
/// the lowest-index panic is resumed on the caller with its original
/// payload.
pub(crate) fn map_shards<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let claim_loop = || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return mine;
            }
            mine.push((i, catch_unwind(AssertUnwindSafe(|| f(i)))));
        }
    };
    let mut claimed = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers.min(n)).map(|_| s.spawn(claim_loop)).collect();
        let mut claimed = claim_loop();
        for h in helpers {
            claimed.extend(h.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        claimed
    });
    claimed.sort_unstable_by_key(|&(i, _)| i);
    claimed
        .into_iter()
        .map(|(_, r)| r.unwrap_or_else(|p| resume_unwind(p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_shard_order_for_any_worker_count() {
        let serial = map_shards(37, 1, |i| i * i);
        for workers in [0, 2, 3, 8, 64] {
            assert_eq!(map_shards(37, workers, |i| i * i), serial);
        }
    }

    #[test]
    fn zero_shards_is_empty() {
        assert!(map_shards(0, 4, |i| i).is_empty());
    }

    #[test]
    fn more_workers_than_shards_is_fine() {
        assert_eq!(map_shards(2, 16, |i| i + 1), vec![1, 2]);
    }

    #[test]
    fn lowest_index_panic_payload_reaches_the_caller() {
        for workers in [1, 2, 8] {
            let finished = AtomicUsize::new(0);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                map_shards(10, workers, |i| {
                    if i == 3 || i == 7 {
                        panic!("shard {i} failed");
                    }
                    finished.fetch_add(1, Ordering::Relaxed);
                })
            }))
            .expect_err("panic must propagate");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("shard 3 failed"),
                "workers={workers}"
            );
            assert_eq!(finished.load(Ordering::Relaxed), 8, "workers={workers}");
        }
    }
}
