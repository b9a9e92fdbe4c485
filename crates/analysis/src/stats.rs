//! Ordinary least squares.

/// Ordinary least squares fit `y ≈ a + b·x`; returns `(a, b)`, or `None` when fewer
/// than two distinct x values are present.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<(f64, f64)> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    // Equal x values need not cancel exactly in `n·Σx² − (Σx)²` below, so a single
    // distinct x is caught here rather than by the near-zero guard.
    if xs.iter().all(|&x| x == xs[0]) {
        return None;
    }
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-300 {
        return None;
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    Some((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let (a, b) = linear_fit(&xs, &ys).unwrap();
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[1.0, 1.0], &[2.0, 3.0]).is_none());
        // Nine copies of this x leave `n·Σx² − (Σx)²` at about 2e-13, not 0.
        assert!(linear_fit(&[2.5506903318873144; 9], &ys[..9]).is_none());
    }
}
