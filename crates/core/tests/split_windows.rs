//! A window scored in two pieces scores what it does in one: the serve
//! plane reads each window where it lies, a ring buffer's older rows and
//! then its newer ones, so both scoring entries must give every window
//! cut `[&w[..r·f], &w[r·f..]]`, for any row `r` in `0..=W`, the bits its
//! contiguous copy gets — scores, threshold and dropped members alike.
//!
//! The windows mix ordinary ones with windows that widen the int8 range
//! guard (×40), overflow one member (values up to 1.2e38: it scores
//! non-finite and is dropped, the others score on) and carry a NaN
//! (every f32 member fails on it; the int8 quantizer maps it to 0). A
//! batch of one window runs on the caller alone; from four windows up a
//! call forks onto a second worker on a host with a second core
//! (`taskset -c 0` runs them all on one).

use proptest::prelude::*;
use std::sync::OnceLock;
use vehigan_core::{CriticMember, EnsembleError, ScoreSummary, VehiGan, Wgan, WganConfig};
use vehigan_tensor::{Flat, Pieces, Tensor, Windows};

const W: usize = 10;
const F: usize = 12;

/// Three untrained critics of depths 3, 4 and 3, calibrated on a smooth
/// signal and compiled to int8 on it.
fn ensemble() -> &'static VehiGan {
    static ENSEMBLE: OnceLock<VehiGan> = OnceLock::new();
    ENSEMBLE.get_or_init(|| {
        let benign: Vec<f32> = (0..64 * W * F)
            .map(|i| 0.3 * (i as f32 * 0.61).sin())
            .collect();
        let benign = Tensor::from_vec(benign, &[64, W, F, 1]);
        let members = [3usize, 4, 3]
            .iter()
            .zip(0u64..)
            .map(|(&layers, seed)| {
                let config = WganConfig {
                    layers,
                    seed,
                    ..WganConfig::default()
                };
                CriticMember::calibrate(Wgan::new(config), 0.9, &benign).unwrap()
            })
            .collect();
        let mut vehigan = VehiGan::new(members, 3).unwrap();
        vehigan.compile_int8(&benign).unwrap();
        vehigan
    })
}

/// One window of kind `kind` (0 ordinary, 1 guard-widening, 2
/// overflowing, 3 NaN-bearing), varied by `seed`.
fn window(kind: u8, seed: usize) -> Vec<f32> {
    let scale = [1.0f32, 40.0, 3e38, 1.0][kind as usize];
    let mut w: Vec<f32> = (0..W * F)
        .map(|i| scale * 0.4 * ((i * 7 + seed * 13) as f32 * 0.37).sin())
        .collect();
    if kind == 3 {
        w[(seed * 5) % (W * F)] = f32::NAN;
    }
    w
}

/// Scores, threshold and dropped members of one call, as bits.
type Outcome = Result<(Vec<u32>, u32, Vec<usize>), EnsembleError>;

fn outcome(summary: Result<ScoreSummary, EnsembleError>, out: &[f32]) -> Outcome {
    summary.map(|s| {
        let bits = out.iter().map(|x| x.to_bits()).collect();
        (bits, s.threshold.to_bits(), s.dropped)
    })
}

/// Both backends on `windows` through the `[2, 0, 1]` subset.
fn score(v: &VehiGan, windows: &(impl Windows + ?Sized)) -> [Outcome; 2] {
    let subset = [2usize, 0, 1];
    let mut out = vec![0.0f32; windows.count()];
    let int8 = v.score_with_members_int8_into(&subset, windows, &mut out);
    let int8 = outcome(int8, &out);
    let f32 = v.score_with_members_into(&subset, windows, &mut out);
    [int8, outcome(f32, &out)]
}

/// Checks the windows `(kind, seed, cut row)` in two pieces against
/// their contiguous copy, and returns the contiguous outcomes.
fn check(cases: &[(u8, usize, usize)]) -> [Outcome; 2] {
    let v = ensemble();
    let windows: Vec<Vec<f32>> = cases
        .iter()
        .map(|&(kind, seed, _)| window(kind, seed))
        .collect();
    let contiguous = windows.concat();
    let pieces: Vec<Pieces<'_>> = windows
        .iter()
        .zip(cases)
        .map(|(w, &(_, _, r))| {
            let (older, newer) = w.split_at(r * F);
            [older, newer]
        })
        .collect();
    let whole = score(v, &Flat::new(&contiguous, W * F));
    let split = score(v, &pieces[..]);
    for (name, (a, b)) in ["int8", "f32"].iter().zip(whole.iter().zip(&split)) {
        assert_eq!(a, b, "{name}: {cases:?}");
    }
    whole
}

#[test]
fn one_window_on_the_caller_alone() {
    for kind in 0..4 {
        for r in 0..=W {
            let _ = check(&[(kind, r, r)]);
        }
    }
}

#[test]
fn overflowing_windows_drop_a_member_alike_in_pieces() {
    // The coverage the proptest relies on: an overflowing window drops
    // some member and not all, on both backends, and a NaN fails every
    // f32 member but no int8 one.
    let cases: Vec<(u8, usize, usize)> = (0..8).map(|i| (i as u8 % 4, i, i % (W + 1))).collect();
    let [int8, f32] = check(&cases);
    let overflow: Vec<_> = cases
        .iter()
        .map(|&(k, s, r)| (if k == 3 { 0 } else { k }, s, r))
        .collect();
    for (name, got) in ["int8", "f32"].iter().zip(check(&overflow)) {
        let (_, _, dropped) = got.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            !dropped.is_empty() && dropped.len() < 3,
            "{name}: dropped {dropped:?}"
        );
    }
    assert!(int8.is_ok());
    assert!(matches!(f32, Err(EnsembleError::AllMembersFailed { .. })));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_window_in_two_pieces_scores_its_contiguous_bits(
        cases in proptest::collection::vec((0u8..4, 0usize..1000, 0usize..=W), 1..40),
    ) {
        let _ = check(&cases);
    }
}
