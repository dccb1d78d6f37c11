//! Collection strategies (`prop::collection::vec`).

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Inclusive length bounds for a generated collection.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        // An empty range (end <= start) degenerates to exactly `start`.
        let hi = if r.end > r.start { r.end - 1 } else { r.start };
        SizeRange { lo: r.start, hi }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: (*r.end()).max(*r.start()),
        }
    }
}

/// Strategy for vectors whose elements come from `element` and whose
/// length is drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi - self.size.lo) as u64 + 1;
        let len = self.size.lo + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_respect_bounds() {
        let mut r = TestRng::new(1);
        let s = vec(0u32..5, 2..7);
        for _ in 0..300 {
            let v = s.generate(&mut r);
            assert!((2..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn exact_size_and_empty_range() {
        let mut r = TestRng::new(2);
        assert_eq!(vec(0u8..3, 4usize).generate(&mut r).len(), 4);
        assert!(vec(0u8..3, 0..0).generate(&mut r).is_empty());
    }
}
