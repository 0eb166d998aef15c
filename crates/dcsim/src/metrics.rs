//! Balance metrics for experiment output.
//!
//! The paper's balancing claims (links, switches, pods) are reported as
//! Jain's fairness index of a set of loads.

/// Jain's fairness index over a set of loads: `(Σx)² / (n·Σx²)`.
///
/// 1.0 means perfectly balanced; `1/n` means all load on one element.
pub fn jains_fairness(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let sum: f64 = loads.iter().sum();
    let sumsq: f64 = loads.iter().map(|x| x * x).sum();
    if sumsq == 0.0 {
        return 1.0; // all zero: trivially balanced
    }
    (sum * sum) / (loads.len() as f64 * sumsq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fairness_extremes() {
        assert!((jains_fairness(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skew = jains_fairness(&[4.0, 0.0, 0.0, 0.0]);
        assert!((skew - 0.25).abs() < 1e-12);
        assert_eq!(jains_fairness(&[]), 1.0);
        assert_eq!(jains_fairness(&[0.0, 0.0]), 1.0);
    }

    proptest! {
        #[test]
        fn prop_fairness_bounds(loads in proptest::collection::vec(0.0f64..1e6, 1..50)) {
            let f = jains_fairness(&loads);
            let n = loads.len() as f64;
            prop_assert!(f >= 1.0 / n - 1e-9);
            prop_assert!(f <= 1.0 + 1e-9);
        }
    }
}
