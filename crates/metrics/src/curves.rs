//! The ROC curve with tie-aware area computation.

/// Computes the ROC curve as `(fpr, tpr)` points from `(0,0)` to `(1,1)`.
///
/// Scores are swept from +∞ downward; tied scores are grouped so the curve
/// is invariant to input order.
///
/// # Panics
///
/// Panics if lengths differ or either class is absent.
pub(crate) fn roc_curve(scores: &[f32], labels: &[bool]) -> Vec<(f64, f64)> {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    let pos = labels.iter().filter(|&&l| l).count();
    let neg = labels.len() - pos;
    assert!(pos > 0, "ROC needs at least one positive sample");
    assert!(neg > 0, "ROC needs at least one negative sample");

    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("finite scores"));

    let mut curve = vec![(0.0, 0.0)];
    let (mut tp, mut fp) = (0usize, 0usize);
    let mut i = 0;
    while i < order.len() {
        // Group ties: advance through equal scores before emitting a point.
        let s = scores[order[i]];
        while i < order.len() && scores[order[i]] == s {
            if labels[order[i]] {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        curve.push((fp as f64 / neg as f64, tp as f64 / pos as f64));
    }
    curve
}

/// Area under the ROC curve by trapezoidal integration.
///
/// 0.5 = chance, 1.0 = perfect ranking of misbehavior above benign.
///
/// # Panics
///
/// Panics if lengths differ or either class is absent.
pub fn auroc(scores: &[f32], labels: &[bool]) -> f64 {
    trapezoid(&roc_curve(scores, labels))
}

fn trapezoid(curve: &[(f64, f64)]) -> f64 {
    let mut area = 0.0;
    for w in curve.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        area += (x1 - x0) * (y0 + y1) / 2.0;
    }
    area
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranking_is_one() {
        assert_eq!(
            auroc(&[0.9, 0.8, 0.2, 0.1], &[true, true, false, false]),
            1.0
        );
    }

    #[test]
    fn inverted_ranking_is_zero() {
        assert_eq!(
            auroc(&[0.1, 0.2, 0.8, 0.9], &[true, true, false, false]),
            0.0
        );
    }

    #[test]
    fn all_tied_is_half() {
        assert_eq!(
            auroc(&[0.5, 0.5, 0.5, 0.5], &[true, true, false, false]),
            0.5
        );
    }

    #[test]
    fn auroc_is_order_invariant() {
        let a = auroc(&[0.9, 0.1, 0.7, 0.3], &[true, false, true, false]);
        let b = auroc(&[0.1, 0.3, 0.7, 0.9], &[false, false, true, true]);
        assert_eq!(a, b);
    }

    #[test]
    fn auroc_equals_pairwise_probability() {
        // AUROC = P(score_pos > score_neg) + 0.5·P(tie), checked by brute
        // force on a small sample.
        let scores = [0.1f32, 0.4, 0.4, 0.8, 0.6, 0.2];
        let labels = [false, true, false, true, false, true];
        let mut wins = 0.0;
        let mut pairs = 0.0;
        for i in 0..scores.len() {
            for j in 0..scores.len() {
                if labels[i] && !labels[j] {
                    pairs += 1.0;
                    if scores[i] > scores[j] {
                        wins += 1.0;
                    } else if scores[i] == scores[j] {
                        wins += 0.5;
                    }
                }
            }
        }
        let expected = wins / pairs;
        assert!((auroc(&scores, &labels) - expected).abs() < 1e-12);
    }

    #[test]
    fn roc_curve_endpoints() {
        let curve = roc_curve(&[0.9, 0.1], &[true, false]);
        assert_eq!(curve.first(), Some(&(0.0, 0.0)));
        assert_eq!(curve.last(), Some(&(1.0, 1.0)));
    }

    #[test]
    fn roc_curve_is_monotone() {
        let scores: Vec<f32> = (0..50).map(|i| ((i * 37) % 50) as f32 / 50.0).collect();
        let labels: Vec<bool> = (0..50).map(|i| i % 3 == 0).collect();
        let curve = roc_curve(&scores, &labels);
        for w in curve.windows(2) {
            assert!(w[1].0 >= w[0].0 && w[1].1 >= w[0].1);
        }
    }

    #[test]
    #[should_panic(expected = "positive sample")]
    fn auroc_requires_positives() {
        let _ = auroc(&[0.1, 0.2], &[false, false]);
    }

    #[test]
    #[should_panic(expected = "negative sample")]
    fn auroc_requires_negatives() {
        let _ = auroc(&[0.1, 0.2], &[true, true]);
    }
}
