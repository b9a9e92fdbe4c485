//! Speedup series over thread counts — the data behind Figures 2 and 3.

/// A named series of (threads, value) points, e.g. "fine-grain" speedup vs thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Name of the series (e.g. the scheduler it was measured with).
    pub name: String,
    /// Thread counts, strictly increasing.
    pub threads: Vec<usize>,
    /// The value at each thread count (speedup, ratio, time, ...).
    pub values: Vec<f64>,
}

impl Series {
    /// Creates a series from parallel vectors.  Panics if the lengths differ.
    pub fn new(name: impl Into<String>, threads: Vec<usize>, values: Vec<f64>) -> Self {
        assert_eq!(
            threads.len(),
            values.len(),
            "threads/values length mismatch"
        );
        Series {
            name: name.into(),
            threads,
            values,
        }
    }

    /// Creates an empty series that points can be pushed into.
    pub fn empty(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            threads: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Appends one point.
    pub fn push(&mut self, threads: usize, value: f64) {
        self.threads.push(threads);
        self.values.push(value);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// Returns `true` if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// The value at a given thread count, if present.
    pub fn at(&self, threads: usize) -> Option<f64> {
        self.threads
            .iter()
            .position(|&t| t == threads)
            .map(|i| self.values[i])
    }

    /// The maximum value of the series (`None` if empty).
    pub fn peak(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.max(v),
            })
        })
    }

    /// Point-wise ratio `self / other` over the thread counts both series share.
    /// This is how the right panel of Figure 2 (fine-grain speedup *over* OpenMP) is
    /// derived from the left panel's two series.
    pub fn ratio_over(&self, other: &Series, name: impl Into<String>) -> Series {
        let mut out = Series::empty(name);
        for (i, &t) in self.threads.iter().enumerate() {
            if let Some(o) = other.at(t) {
                if o != 0.0 {
                    out.push(t, self.values[i] / o);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let s = Series::new("fine-grain", vec![1, 2, 4], vec![1.0, 1.9, 3.5]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.at(2), Some(1.9));
        assert_eq!(s.at(3), None);
        assert_eq!(s.peak(), Some(3.5));
    }

    #[test]
    fn empty_series() {
        let s = Series::empty("x");
        assert!(s.is_empty());
        assert_eq!(s.peak(), None);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = Series::new("bad", vec![1, 2], vec![1.0]);
    }

    #[test]
    fn ratio_over_shared_points() {
        let fine = Series::new("fine", vec![1, 2, 4, 8], vec![1.0, 2.0, 3.6, 6.0]);
        let omp = Series::new("omp", vec![1, 2, 4], vec![1.0, 1.8, 3.0]);
        let r = fine.ratio_over(&omp, "fine/omp");
        assert_eq!(r.threads, vec![1, 2, 4]);
        assert!((r.at(4).unwrap() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn push_accumulates() {
        let mut s = Series::empty("s");
        s.push(1, 1.0);
        s.push(2, 2.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.at(2), Some(2.0));
    }
}
