//! Confusion counts and derived rates.

/// Confusion-matrix counts at a fixed threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Confusion {
    /// Misbehavior correctly flagged.
    pub tp: usize,
    /// Benign incorrectly flagged.
    pub fp: usize,
    /// Benign correctly passed.
    pub tn: usize,
    /// Misbehavior missed.
    pub fn_: usize,
}

impl Confusion {
    /// Builds confusion counts by thresholding anomaly scores
    /// (`score > threshold` ⇒ predicted misbehavior).
    ///
    /// # Panics
    ///
    /// Panics if `scores` and `labels` have different lengths.
    pub fn at_threshold(scores: &[f32], labels: &[bool], threshold: f32) -> Self {
        assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
        let mut c = Confusion::default();
        for (&s, &l) in scores.iter().zip(labels) {
            let predicted = s > threshold;
            match (predicted, l) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, false) => c.tn += 1,
                (false, true) => c.fn_ += 1,
            }
        }
        c
    }

    /// True positive rate (recall): `TP / (TP + FN)`; 0 with no positives.
    pub fn tpr(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// False positive rate: `FP / (FP + TN)`; 0 with no negatives.
    pub fn fpr(&self) -> f64 {
        ratio(self.fp, self.fp + self.tn)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier() {
        let c = Confusion::at_threshold(&[0.9, 0.8, 0.1, 0.2], &[true, true, false, false], 0.5);
        assert_eq!((c.tp, c.fp, c.tn, c.fn_), (2, 0, 2, 0));
        assert_eq!(c.tpr(), 1.0);
        assert_eq!(c.fpr(), 0.0);
    }

    #[test]
    fn inverted_classifier() {
        let c = Confusion::at_threshold(&[0.1, 0.2, 0.9, 0.8], &[true, true, false, false], 0.5);
        assert_eq!((c.tp, c.fp, c.tn, c.fn_), (0, 2, 0, 2));
        assert_eq!(c.tpr(), 0.0);
        assert_eq!(c.fpr(), 1.0);
    }

    #[test]
    fn boundary_is_exclusive() {
        // score == threshold must NOT be flagged (strict `>`).
        let c = Confusion::at_threshold(&[0.5], &[true], 0.5);
        assert_eq!(c.fn_, 1);
        assert_eq!(c.tp, 0);
    }

    #[test]
    fn degenerate_inputs_do_not_divide_by_zero() {
        let all_neg = Confusion::at_threshold(&[0.1, 0.9], &[false, false], 0.5);
        assert_eq!(all_neg.tpr(), 0.0);
        assert_eq!(all_neg.fpr(), 0.5);
    }
}
