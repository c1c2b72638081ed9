//! The percentile helper refuses a percentile the sample cannot support:
//! fewer than ten samples beyond it.

use vehigan_benchmark::stats::{percentile, PercentileError, MIN_TAIL_SAMPLES};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn p90_needs_a_hundred_samples() {
    assert_eq!(percentile(&ramp(100), 90.0), Ok(90.0));
    assert_eq!(percentile(&ramp(120), 90.0), Ok(108.0));
    assert_eq!(
        percentile(&ramp(99), 90.0),
        Err(PercentileError::Unsupported {
            p: 90.0,
            samples: 99,
            beyond: 9
        })
    );
}

#[test]
fn a_higher_percentile_than_the_sample_supports_is_refused() {
    assert!(matches!(
        percentile(&ramp(120), 99.0),
        Err(PercentileError::Unsupported { beyond: 1, .. })
    ));
    assert_eq!(percentile(&ramp(1000), 99.0), Ok(990.0));
    assert_eq!(MIN_TAIL_SAMPLES, 10);
}

#[test]
fn percentiles_outside_the_upper_half_are_refused() {
    assert_eq!(
        percentile(&ramp(1000), 100.0),
        Err(PercentileError::BadPercentile(100.0))
    );
    assert_eq!(
        percentile(&ramp(1000), 10.0),
        Err(PercentileError::BadPercentile(10.0))
    );
    assert_eq!(percentile(&ramp(1000), 50.0), Ok(500.0));
}
