//! Order statistics over samples.

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile (`p` in 0..=100) of a sorted sample.
pub fn pct_sorted(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn pct(xs: &[f64], p: f64) -> f64 {
    pct_sorted(&sorted(xs), p)
}

pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(pct(&xs, 50.0), 50.0);
        assert_eq!(pct(&xs, 90.0), 90.0);
        assert_eq!(pct(&xs, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
