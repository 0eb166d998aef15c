//! Property tests for the forecasting invariants the autoscaler relies
//! on: predictions are always finite and non-negative, Holt converges on
//! constant series and tracks linear ramps.

use elastic::forecast::{MapeAccumulator, Predictor};
use proptest::prelude::*;

proptest! {
    #[test]
    fn predictions_finite_and_non_negative(
        series in proptest::collection::vec(0.0f64..1e12, 0..64),
        horizon in 0u32..32,
    ) {
        let mut p = Predictor::default();
        for &d in &series {
            p.observe(d);
            let f = p.predict(horizon);
            prop_assert!(f.is_finite(), "non-finite forecast");
            prop_assert!(f >= 0.0, "negative forecast {f}");
        }
    }

    #[test]
    fn holt_converges_on_constant_series(
        level in 0.001f64..1e9,
        n in 2usize..200,
    ) {
        let mut p = Predictor::default();
        for _ in 0..n {
            p.observe(level);
        }
        // A constant series is its own fixed point: zero trend from the
        // second observation on.
        prop_assert!((p.predict(1) - level).abs() <= level * 1e-9,
            "Holt did not converge: {} vs {level}", p.predict(1));
    }

    #[test]
    fn holt_tracks_linear_ramp(
        intercept in 0.0f64..1e6,
        slope in 0.01f64..1e4,
        horizon in 1u32..8,
    ) {
        let mut p = Predictor::default();
        let n = 120u32;
        for i in 0..n {
            p.observe(intercept + slope * i as f64);
        }
        let expect = intercept + slope * (n - 1 + horizon) as f64;
        let got = p.predict(horizon);
        // Holt's fixed point on a line is the line itself; allow 2%
        // (plus an absolute floor for tiny intercepts).
        let tol = expect * 0.02 + 1.0;
        prop_assert!((got - expect).abs() <= tol,
            "Holt off the ramp: got {got}, expected {expect}");
    }

    #[test]
    fn observation_order_is_all_that_matters(
        series in proptest::collection::vec(0.0f64..1e9, 1..48),
    ) {
        // Determinism: two predictors fed the same series agree exactly.
        let mut a = Predictor::default();
        let mut b = Predictor::default();
        for &d in &series {
            a.observe(d);
            b.observe(d);
        }
        prop_assert_eq!(a.predict(3), b.predict(3));
    }

    #[test]
    fn mape_is_non_negative_and_zero_for_perfect_forecasts(
        actuals in proptest::collection::vec(0.001f64..1e9, 1..64),
    ) {
        let mut perfect = MapeAccumulator::default();
        let mut off = MapeAccumulator::default();
        for &a in &actuals {
            perfect.record(a, a);
            off.record(a * 1.5, a);
        }
        prop_assert!(perfect.mape().unwrap() < 1e-12);
        prop_assert!((off.mape().unwrap() - 0.5).abs() < 1e-9);
    }
}
