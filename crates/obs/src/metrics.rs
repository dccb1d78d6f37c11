//! The metrics model: log-bucketed histograms and gauges.
//!
//! Counters (monotonic `u64`) live directly on [`crate::Obs`]; this
//! module adds the two richer instrument kinds:
//!
//! * [`Histogram`] — a fixed-shape power-of-two-bucketed distribution of
//!   non-negative measurements (durations in µs, sizes, counts). The
//!   bucket layout is *static* (no rebalancing), so two histograms are
//!   always mergeable and [`Histogram::merge`] is associative,
//!   commutative and deterministic: the sum is accumulated in 1/1024
//!   fixed-point units, making it exact integer arithmetic rather than
//!   order-sensitive floating-point addition.
//! * Gauges are plain last-write-wins `f64` values stored on the handle
//!   (pool occupancy, queue depth); they need no type of their own.
//!
//! Determinism is load-bearing: `RunMetrics` embeds histograms and its
//! rendering must be byte-identical across runs of the same schedule, and
//! merged per-worker histograms must not depend on merge order.

use crate::json::{obj, Json};

/// Number of histogram buckets: bucket 0 holds values `< 1`, bucket `i`
/// (`1 ≤ i < 63`) holds values in `[2^(i-1), 2^i)`, and the last bucket
/// holds everything at or above `2^62`.
pub const HIST_BUCKETS: usize = 64;

/// Fixed-point scale for the exact sum: values are accumulated as
/// `round(v * 1024)` so merging is integer addition (associative and
/// commutative, unlike `f64` addition).
const SUM_SCALE: f64 = 1024.0;

/// A log-bucketed histogram of non-negative `f64` measurements.
///
/// Negative and non-finite values are clamped into bucket 0 and excluded
/// from the sum (they still count toward `count`), so hostile inputs
/// cannot poison the statistics with NaN.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    /// Exact sum in 1/1024 units (see `SUM_SCALE`).
    sum_fp: u128,
    /// Minimum recorded value (`+inf` when empty — never exposed raw).
    min: f64,
    /// Maximum recorded value (`0.0` when empty).
    max: f64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum_fp: 0,
            min: f64::INFINITY,
            max: 0.0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

/// Bucket index for a value: 0 for `< 1` (and anything non-finite or
/// negative), otherwise `1 + floor(log2(v))`, clamped to the last bucket.
fn bucket_of(v: f64) -> usize {
    if !v.is_finite() || v < 1.0 {
        return 0;
    }
    // `as u64` saturates for out-of-range floats, so huge values land in
    // the last bucket rather than wrapping.
    let idx = 1 + (v as u64).ilog2() as usize;
    idx.min(HIST_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`+inf` for the last bucket).
pub fn bucket_bound(i: usize) -> f64 {
    if i + 1 >= HIST_BUCKETS {
        f64::INFINITY
    } else {
        (1u64 << i) as f64
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one measurement.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.buckets[bucket_of(v)] += 1;
        if v.is_finite() && v >= 0.0 {
            self.sum_fp += (v * SUM_SCALE).round() as u128;
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
    }

    /// Merge another histogram into this one. Associative, commutative
    /// and deterministic: counts and the fixed-point sum add exactly;
    /// min/max take the extreme.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum_fp += other.sum_fp;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Number of recorded measurements.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded values (exact to 1/1024 per sample).
    pub fn sum(&self) -> f64 {
        self.sum_fp as f64 / SUM_SCALE
    }

    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }

    /// Smallest recorded value (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Approximate quantile (`0.0 ≤ q ≤ 1.0`) from the bucket bounds:
    /// the upper bound of the bucket containing the `q`-th sample, with
    /// the true min/max substituted at the extremes. 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let bound = bucket_bound(i);
                return bound.min(self.max()).max(self.min());
            }
        }
        self.max()
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs, in
    /// ascending bound order (deterministic).
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_bound(i), n))
            .collect()
    }

    /// Cumulative bucket counts as `(upper bound, cumulative count)` for
    /// every bucket up to and including the last non-empty one, plus the
    /// `+inf` bucket — the Prometheus `le` series shape.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let last = self
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .unwrap_or(0)
            .min(HIST_BUCKETS - 2);
        let mut out = Vec::with_capacity(last + 2);
        let mut cum = 0u64;
        for i in 0..=last {
            cum += self.buckets[i];
            out.push((bucket_bound(i), cum));
        }
        out.push((f64::INFINITY, self.count));
        out
    }

    /// One-line human-readable summary.
    pub fn render(&self) -> String {
        if self.count == 0 {
            return "n=0".to_string();
        }
        format!(
            "n={} sum={:.1} min={:.1} p50={:.0} p99={:.0} max={:.1}",
            self.count,
            self.sum(),
            self.min(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max()
        )
    }

    /// Machine-readable JSON object with stable, sorted key order:
    /// `{"buckets":[[le,n],…],"count":…,"max":…,"mean":…,"min":…,"sum":…}`,
    /// where the unbounded last bucket's `le` is the string `"+Inf"`.
    pub fn to_json(&self) -> Json {
        let buckets = self
            .nonzero_buckets()
            .into_iter()
            .map(|(le, n)| {
                let le = if le.is_finite() {
                    Json::Num(le)
                } else {
                    Json::Str("+Inf".into())
                };
                Json::Arr(vec![le, Json::Num(n as f64)])
            })
            .collect();
        obj(vec![
            ("buckets", Json::Arr(buckets)),
            ("count", Json::Num(self.count as f64)),
            ("max", Json::Num(self.max())),
            ("mean", Json::Num(self.mean())),
            ("min", Json::Num(self.min())),
            ("sum", Json::Num(self.sum())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(0.99), 0);
        assert_eq!(bucket_of(1.0), 1);
        assert_eq!(bucket_of(1.9), 1);
        assert_eq!(bucket_of(2.0), 2);
        assert_eq!(bucket_of(1024.0), 11);
        assert_eq!(bucket_of(f64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_of(-5.0), 0);
        assert_eq!(bucket_of(f64::NAN), 0);
        assert_eq!(bucket_bound(0), 1.0);
        assert_eq!(bucket_bound(11), 2048.0);
        assert!(bucket_bound(HIST_BUCKETS - 1).is_infinite());
    }

    #[test]
    fn record_and_stats() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 106.0).abs() < 1e-9);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 100.0);
        assert!((h.mean() - 26.5).abs() < 1e-9);
        assert!(h.quantile(0.5) <= 4.0);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.render(), "n=0");
        assert_eq!(
            h.to_json().render(),
            "{\"buckets\":[],\"count\":0,\"max\":0,\"mean\":0,\"min\":0,\"sum\":0}"
        );
    }

    #[test]
    fn hostile_values_cannot_poison() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-3.0);
        h.record(5.0);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 5.0);
        assert_eq!(h.min(), 5.0);
        assert_eq!(h.max(), 5.0);
        assert!(!h.to_json().render().contains("NaN"));
    }

    #[test]
    fn merge_is_order_invariant() {
        let mk = |vals: &[f64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (mk(&[1.0, 7.5]), mk(&[0.25, 900.0]), mk(&[64.0]));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut c_ba = c.clone();
        c_ba.merge(&b);
        c_ba.merge(&a);
        assert_eq!(ab_c, c_ba);
        assert_eq!(ab_c.to_json().render(), c_ba.to_json().render());
        assert_eq!(ab_c.count(), 5);
    }

    #[test]
    fn cumulative_buckets_end_at_inf() {
        let mut h = Histogram::new();
        h.record(3.0);
        h.record(5.0);
        let cum = h.cumulative_buckets();
        assert_eq!(cum.last().unwrap().1, 2);
        assert!(cum.last().unwrap().0.is_infinite());
        // Monotone non-decreasing.
        for w in cum.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn json_rendering_is_pinned() {
        let mut h = Histogram::new();
        for v in [0.5, 3.0, 3.25, 1e19, f64::NAN] {
            h.record(v);
        }
        assert_eq!(h.to_json().render(), "{\"buckets\":[[1,2],[4,2],[\"+Inf\",1]],\"count\":5,\"max\":10000000000000000000,\"mean\":2000000000000000000,\"min\":0.5,\"sum\":10000000000000000000}");
    }
}
