//! Order statistics, AUROC and hashing — the benchmark's own copies, so
//! a change to the program's metric helpers cannot move the yardstick.

use vehigan_serve::Decision;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN — both are bugs in the caller.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timing samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Why [`percentile`] refused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PercentileError {
    /// `p` outside `[50, 100)`.
    BadPercentile(f64),
    /// Fewer than [`MIN_TAIL_SAMPLES`] samples would lie beyond `p`.
    Unsupported {
        /// The requested percentile.
        p: f64,
        /// Samples given.
        samples: usize,
        /// Samples that would lie beyond it.
        beyond: usize,
    },
}

impl std::fmt::Display for PercentileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PercentileError::BadPercentile(p) => write!(f, "percentile {p} outside [50, 100)"),
            PercentileError::Unsupported { p, samples, beyond } => write!(
                f,
                "p{p} of {samples} samples leaves only {beyond} beyond it (need {MIN_TAIL_SAMPLES})"
            ),
        }
    }
}

/// A percentile is reported only when at least this many samples lie
/// beyond it (choosing-metrics §1).
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p ∈ [50, 100)` of `values`, refused when the
/// sample cannot support it: fewer than [`MIN_TAIL_SAMPLES`] values
/// would lie beyond the reported one.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, PercentileError> {
    if !(50.0..100.0).contains(&p) {
        return Err(PercentileError::BadPercentile(p));
    }
    let n = values.len();
    // Nearest rank: the smallest value with at least p% of samples ≤ it.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_TAIL_SAMPLES {
        return Err(PercentileError::Unsupported {
            p,
            samples: n,
            beyond,
        });
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timing samples"));
    Ok(v[rank.max(1) - 1])
}

/// Area under the ROC curve of `scores` against `positive` labels, ties
/// counted half (the Mann–Whitney U statistic over midranks). `None`
/// when either class is empty.
pub fn auroc(scores: &[f32], positive: &[bool]) -> Option<f64> {
    assert_eq!(scores.len(), positive.len(), "one label per score");
    let n_pos = positive.iter().filter(|&&p| p).count();
    let n_neg = positive.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return None;
    }
    let mut order: Vec<u32> = (0..scores.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| scores[a as usize].total_cmp(&scores[b as usize]));
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0usize;
    while i < order.len() {
        let mut j = i + 1;
        while j < order.len() && scores[order[j] as usize] == scores[order[i] as usize] {
            j += 1;
        }
        // Ranks are 1-based; a tie group i..j shares its mean rank.
        let midrank = (i + 1 + j) as f64 / 2.0;
        let pos_in_group = order[i..j]
            .iter()
            .filter(|&&k| positive[k as usize])
            .count();
        rank_sum_pos += midrank * pos_in_group as f64;
        i = j;
    }
    let u = rank_sum_pos - (n_pos as f64) * (n_pos as f64 + 1.0) / 2.0;
    Some(u / (n_pos as f64 * n_neg as f64))
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a hash.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds every bit of one decision into an FNV-1a hash: two replays
/// agree on the hash iff they emitted the same decisions in the same
/// order.
pub fn fnv_decision(h: u64, d: &Decision) -> u64 {
    let h = fnv(h, &d.vehicle.0.to_le_bytes());
    let h = fnv(h, &d.timestamp.to_bits().to_le_bytes());
    let h = fnv(h, &d.score.to_bits().to_le_bytes());
    let h = fnv(h, &d.threshold.to_bits().to_le_bytes());
    fnv(h, &[d.escalated as u8, d.flagged as u8, d.suppressed as u8])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn auroc_handles_ties_and_extremes() {
        assert_eq!(
            auroc(&[0.1, 0.2, 0.8, 0.9], &[false, false, true, true]),
            Some(1.0)
        );
        assert_eq!(
            auroc(&[0.9, 0.8, 0.2, 0.1], &[false, false, true, true]),
            Some(0.0)
        );
        assert_eq!(auroc(&[0.5, 0.5], &[false, true]), Some(0.5));
        assert_eq!(auroc(&[0.5, 0.5], &[true, true]), None);
    }
}
