//! Min–max feature scaling.
//!
//! WGAN generators emit `tanh`-bounded values, so snapshots are scaled to
//! `[-1, 1]` using statistics fitted **on benign training data only** (the
//! defender never sees attack data at fit time).

use std::sync::Arc;

/// A per-column min–max scaler mapping fitted ranges to `[-1, 1]`.
///
/// The fitted statistics are immutable and shared: a clone (one per
/// tracked vehicle's window buffer) bumps two reference counts instead
/// of copying the columns.
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxScaler {
    min: Arc<[f64]>,
    max: Arc<[f64]>,
}

impl MinMaxScaler {
    /// Fits the scaler on rows of equal width.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit a scaler on zero rows");
        let width = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == width), "ragged rows");
        Self::fit_flat(width, rows.iter().flatten().copied())
    }

    /// Fits the scaler on flat row-major data (`values.len()` must be a
    /// nonzero multiple of `width`). Produces the same statistics as
    /// [`MinMaxScaler::fit`] over the equivalent nested rows, without
    /// requiring the caller to materialise per-row `Vec`s.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or its length is not a multiple of
    /// `width`.
    pub fn fit_flat(width: usize, values: impl IntoIterator<Item = f64>) -> Self {
        assert!(width > 0, "scaler width must be nonzero");
        let mut min = vec![f64::INFINITY; width];
        let mut max = vec![f64::NEG_INFINITY; width];
        let mut count = 0usize;
        let mut j = 0usize;
        for v in values {
            min[j] = min[j].min(v);
            max[j] = max[j].max(v);
            j += 1;
            if j == width {
                j = 0;
            }
            count += 1;
        }
        assert!(count > 0, "cannot fit a scaler on zero rows");
        assert_eq!(
            count % width,
            0,
            "flat data length {count} is not a multiple of width {width}"
        );
        // Guard constant columns.
        for j in 0..width {
            if (max[j] - min[j]).abs() < 1e-12 {
                max[j] = min[j] + 1.0;
            }
        }
        MinMaxScaler {
            min: min.into(),
            max: max.into(),
        }
    }

    /// Number of feature columns.
    pub fn width(&self) -> usize {
        self.min.len()
    }

    /// Scales one value of column `j` into `[-1, 1]` (clamped: test-time
    /// values outside the fitted range — e.g. attack extremes — saturate,
    /// like any bounded sensor encoding would).
    pub fn transform_value(&self, j: usize, v: f64) -> f64 {
        let t = 2.0 * (v - self.min[j]) / (self.max[j] - self.min[j]) - 1.0;
        t.clamp(-1.0, 1.0)
    }

    /// [`MinMaxScaler::transform_value`] narrowed to `f32` — the cast every
    /// window tensor applies. Kept here so all window-build paths share one
    /// rounding policy (scale in `f64`, then round once to `f32`).
    pub(crate) fn transform_value_f32(&self, j: usize, v: f64) -> f32 {
        self.transform_value(j, v) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MinMaxScaler {
        /// Inverse of [`MinMaxScaler::transform_value`] (for un-clamped inputs).
        fn inverse_value(&self, j: usize, t: f64) -> f64 {
            (t + 1.0) / 2.0 * (self.max[j] - self.min[j]) + self.min[j]
        }
    }

    #[test]
    fn maps_fitted_range_to_unit_interval() {
        let rows = vec![vec![0.0, -10.0], vec![10.0, 10.0], vec![5.0, 0.0]];
        let s = MinMaxScaler::fit(&rows);
        assert_eq!(s.transform_value(0, 0.0), -1.0);
        assert_eq!(s.transform_value(0, 10.0), 1.0);
        assert_eq!(s.transform_value(0, 5.0), 0.0);
        assert_eq!(s.transform_value(1, 0.0), 0.0);
    }

    #[test]
    fn out_of_range_saturates() {
        let s = MinMaxScaler::fit(&[vec![0.0], vec![1.0]]);
        assert_eq!(s.transform_value(0, 100.0), 1.0);
        assert_eq!(s.transform_value(0, -100.0), -1.0);
    }

    #[test]
    fn constant_column_does_not_blow_up() {
        let s = MinMaxScaler::fit(&[vec![3.0], vec![3.0]]);
        let t = s.transform_value(0, 3.0);
        assert!(t.is_finite());
        assert_eq!(t, -1.0);
    }

    #[test]
    fn inverse_roundtrips_in_range() {
        let s = MinMaxScaler::fit(&[vec![-5.0, 2.0], vec![5.0, 8.0]]);
        for v in [-5.0, -1.0, 0.0, 3.3, 5.0] {
            let t = s.transform_value(0, v);
            assert!((s.inverse_value(0, t) - v).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn empty_fit_panics() {
        let _ = MinMaxScaler::fit(&[]);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn empty_fit_flat_panics() {
        let _ = MinMaxScaler::fit_flat(3, std::iter::empty());
    }

    #[test]
    fn fit_flat_matches_fit() {
        let rows = vec![
            vec![0.0, -10.0, 7.0],
            vec![10.0, 10.0, 7.0],
            vec![5.0, 0.0, -2.0],
        ];
        let nested = MinMaxScaler::fit(&rows);
        let flat = MinMaxScaler::fit_flat(3, rows.iter().flatten().copied());
        assert_eq!(nested, flat);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn finite_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
            // 1–8 columns, 1–20 rows, bounded finite values.
            (1usize..=8).prop_flat_map(|width| {
                proptest::collection::vec(
                    proptest::collection::vec(-1e6f64..1e6, width..=width),
                    1..20,
                )
            })
        }

        proptest! {
            /// Any value — inside or outside the fitted range — transforms
            /// into [-1, 1], and the f32 narrowing agrees with the f64 path.
            #[test]
            fn transform_stays_in_bounds(rows in finite_rows(), probe in -1e9f64..1e9) {
                let s = MinMaxScaler::fit(&rows);
                for j in 0..s.width() {
                    let t = s.transform_value(j, probe);
                    prop_assert!((-1.0..=1.0).contains(&t));
                    prop_assert_eq!(s.transform_value_f32(j, probe), t as f32);
                }
            }

            /// In-range values round-trip through transform → inverse.
            #[test]
            fn in_range_values_round_trip(rows in finite_rows(), frac in 0.0f64..=1.0) {
                let s = MinMaxScaler::fit(&rows);
                for j in 0..s.width() {
                    // Pick a value inside the fitted range of column j.
                    let lo = rows.iter().map(|r| r[j]).fold(f64::INFINITY, f64::min);
                    let hi = rows.iter().map(|r| r[j]).fold(f64::NEG_INFINITY, f64::max);
                    let v = lo + frac * (hi - lo);
                    let back = s.inverse_value(j, s.transform_value(j, v));
                    let scale = 1.0f64.max(v.abs());
                    prop_assert!((back - v).abs() <= 1e-9 * scale, "v={v} back={back}");
                }
            }
        }
    }
}
