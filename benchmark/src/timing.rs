//! Timing of one stream replayed several times.
//!
//! Every measured replay does exactly the same work at tick `i` (the
//! replays are checked to be bit-identical), so the replays give several
//! samples of each tick's service time. On a shared host the noise is
//! one-sided — a neighbour can only make a tick slower — and comes in
//! bursts lasting seconds, which contaminates whole replays at a time. A
//! tick's service time is therefore taken as the **fastest** of its
//! samples; medians and percentiles are then taken over ticks. The raw
//! per-replay values are kept in the record.

use crate::stats::{median, percentile};

/// Service times of the same driver ticks over the measured replays.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Whether tick `i` is a scoring tick (it emits decisions; on the
    /// flood every chunk is one). Latency percentiles are over these.
    scoring: Vec<bool>,
    /// `replays[r][i]`: service time of tick `i` in replay `r`, seconds.
    replays: Vec<Vec<f64>>,
}

impl Timing {
    /// Timing for a stream whose tick `i` scores iff `scoring[i]`.
    pub fn new(scoring: Vec<bool>) -> Timing {
        Timing {
            scoring,
            replays: Vec::new(),
        }
    }

    /// Adds one measured replay's per-tick service times.
    ///
    /// # Errors
    ///
    /// A replay with a different number of ticks did different work and
    /// cannot be combined tick by tick.
    pub fn push(&mut self, service_s: Vec<f64>) -> Result<(), String> {
        if service_s.len() != self.scoring.len() {
            return Err(format!(
                "replay ran {} ticks, the observed one {}",
                service_s.len(),
                self.scoring.len()
            ));
        }
        self.replays.push(service_s);
        Ok(())
    }

    /// Measured replays so far.
    pub fn replays(&self) -> usize {
        self.replays.len()
    }

    /// Scoring ticks per replay: the percentile sample count.
    pub fn scoring_ticks(&self) -> usize {
        self.scoring.iter().filter(|&&s| s).count()
    }

    /// Per-tick service time: the fastest of the tick's samples, seconds.
    pub fn best_s(&self) -> Vec<f64> {
        (0..self.scoring.len())
            .map(|i| {
                self.replays
                    .iter()
                    .map(|r| r[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Σ per-tick service time, seconds.
    pub fn busy_s(&self) -> f64 {
        self.best_s().iter().sum()
    }

    /// `items` ÷ Σ per-tick service time.
    pub fn items_per_s(&self, items: u64) -> f64 {
        items as f64 / self.busy_s()
    }

    /// `items` ÷ Σ service time of each replay on its own (raw values,
    /// for the record).
    pub fn raw_items_per_s(&self, items: u64) -> Vec<f64> {
        self.replays
            .iter()
            .map(|r| items as f64 / r.iter().sum::<f64>())
            .collect()
    }

    /// Median scoring-tick service time of each replay on its own, ms.
    pub fn raw_tick_p50_ms(&self) -> Vec<f64> {
        self.replays
            .iter()
            .map(|r| median(&self.scoring_ms(r)))
            .collect()
    }

    fn scoring_ms(&self, service_s: &[f64]) -> Vec<f64> {
        service_s
            .iter()
            .zip(&self.scoring)
            .filter(|(_, &s)| s)
            .map(|(t, _)| t * 1e3)
            .collect()
    }

    /// `(p50, p90)` of the scoring ticks' service times, ms. A p90 the
    /// sample cannot support is reported as a violation and as NaN.
    pub fn tick_percentiles_ms(&self, violations: &mut Vec<String>) -> (f64, f64) {
        let ms = self.scoring_ms(&self.best_s());
        let p90 = percentile(&ms, 90.0).unwrap_or_else(|e| {
            violations.push(format!("tick p90 unsupported: {e}"));
            f64::NAN
        });
        (median(&ms), p90)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_replay_does_not_move_the_numbers() {
        let mut t = Timing::new(vec![false, true, true]);
        t.push(vec![0.001, 0.010, 0.020]).unwrap();
        // A neighbour woke up during this one.
        t.push(vec![0.002, 0.015, 0.030]).unwrap();
        t.push(vec![0.001, 0.011, 0.019]).unwrap();
        assert_eq!(t.best_s(), vec![0.001, 0.010, 0.019]);
        assert!((t.items_per_s(300) - 10_000.0).abs() < 1e-6);
        assert_eq!(t.scoring_ticks(), 2);
        assert!(t.push(vec![0.001]).is_err());
    }
}
