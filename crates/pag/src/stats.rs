//! Per-vertex cross-process statistics.
//!
//! Imbalance-style passes reason about the distribution of a metric across
//! processes (the `time-per-proc` vector embedded on top-down vertices).
//! [`VertexStats`] condenses such a vector into the statistics those passes
//! use: mean, extrema, standard deviation and the classic *imbalance factor*
//! `max/mean - 1` (0 for perfectly balanced work).

/// Summary statistics of a per-process metric vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VertexStats {
    /// Number of processes contributing a value.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Index of the process holding the maximum.
    pub argmax: usize,
    /// Index of the process holding the minimum.
    pub argmin: usize,
}

impl VertexStats {
    /// Compute statistics over a per-process vector. Returns `None` for an
    /// empty slice.
    pub fn from_slice(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let n = values.len();
        let mut sum = 0.0;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut argmin, mut argmax) = (0usize, 0usize);
        for (i, &v) in values.iter().enumerate() {
            sum += v;
            if v < min {
                min = v;
                argmin = i;
            }
            if v > max {
                max = v;
                argmax = i;
            }
        }
        let mean = sum / n as f64;
        let var = values.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        Some(VertexStats {
            n,
            mean,
            min,
            max,
            stddev: var.sqrt(),
            argmax,
            argmin,
        })
    }

    /// Imbalance factor `max/mean - 1`; 0 for perfectly balanced values,
    /// 0 as well when the mean is 0 (no work anywhere).
    pub fn imbalance(&self) -> f64 {
        if self.mean <= f64::EPSILON {
            0.0
        } else {
            self.max / self.mean - 1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert!(VertexStats::from_slice(&[]).is_none());
    }

    #[test]
    fn balanced_vector() {
        let s = VertexStats::from_slice(&[2.0, 2.0, 2.0, 2.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.imbalance(), 0.0);
    }

    #[test]
    fn imbalanced_vector() {
        let s = VertexStats::from_slice(&[1.0, 1.0, 1.0, 5.0]).unwrap();
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.argmax, 3);
        assert_eq!(s.argmin, 0);
        assert!((s.imbalance() - 1.5).abs() < 1e-12);
        assert!(s.stddev > 0.0);
    }

    #[test]
    fn zero_mean_does_not_divide() {
        let s = VertexStats::from_slice(&[0.0, 0.0]).unwrap();
        assert_eq!(s.imbalance(), 0.0);
    }

    #[test]
    fn single_value() {
        let s = VertexStats::from_slice(&[3.5]).unwrap();
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.imbalance(), 0.0);
    }
}
