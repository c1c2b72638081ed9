//! Tier-0 streaming physics monitors: O(1) per-BSM EWMA + two-sided
//! CUSUM change detectors over kinematic residuals (DESIGN.md §12).
//!
//! The serving cost of the two-tier pipeline (§10) is dominated by the
//! int8 tier-1 ensemble running over *every* completed window, even
//! though the overwhelming majority of city traffic is kinematically
//! unremarkable. A [`Tier0Monitor`] tracks four physics residuals that
//! benign traffic keeps near zero and most misbehavior classes break:
//!
//! 1. **speed vs. position delta** — `| |Δp| − v̄·Δt |`, the distance
//!    implied by the reported speeds against the actual displacement;
//! 2. **heading vs. velocity vector** — the angle between the movement
//!    direction `atan2(Δy, Δx)` (a cheap polynomial approximation, see
//!    [`fast_atan2`]) and the reported heading (skipped while nearly
//!    stationary, where heading carries no information);
//! 3. **acceleration bound** — `| Δv − a·Δt |`, the speed change
//!    implied by the reported acceleration against the actual one;
//! 4. **inter-BSM plausible range** — `|Δp| / Δt`, the ground speed a
//!    vehicle would need to cover the reported displacement;
//! 5. **yaw-rate consistency** — `| Δθ − ω·Δt |`, the heading change
//!    implied by the reported yaw rate against the actual one. Without
//!    it the monitors are blind to yaw-rate falsification (the only
//!    BSM field the other four residuals never read), and windows of
//!    yaw attacks the int8 gate escalates would pin the suppression
//!    scale near zero via [`Tier0Calibration::constrain`];
//! 6. **horizon displacement** — `| |p − p_anchor| − Σ v̄·Δt |`, the
//!    chord from an anchor position refreshed every `horizon` rows
//!    against the distance integrated from the reported speeds. The
//!    per-row residual (1) is blind to speed offsets smaller than the
//!    GNSS noise floor: at 10 Hz with ~0.5 m per-axis position noise a
//!    ~1 m/row mismatch — a 10 m/s falsified offset — sits *inside*
//!    the benign per-row residual distribution. Over `H` rows the
//!    position noise telescopes (only the two endpoint fixes matter)
//!    while the offset signal grows as `H·off·Δt`, so the same attack
//!    stands ~10σ above benign. Anchoring costs two f64 adds per row
//!    and one `sqrt`, keeping the O(1) push budget.
//!
//! Each residual feeds an EWMA and a two-sided CUSUM, updated in O(1)
//! per [`Tier0State::push`] with no allocation and a fixed f32
//! operation order, so two replays of the same BSM sequence are bitwise
//! identical. The state holds no parameters and no previous message: a
//! [`Tier0Monitor`] wraps it with both for a standalone caller, while a
//! serve shard keeps one [`Suppression`] — the state plus the carried
//! tier-1 score rule — per vehicle, feeding it the one previous message
//! its window ring also reads. A
//! [`Tier0Calibration`] fits per-statistic decision
//! intervals from benign traces at a configurable benign-quantile and
//! turns a monitor's state into a [`GateDecision`]: `Suppress` (all
//! statistics inside their intervals — the serve tick may skip tier-1
//! and pin the monitor-implied benign score) or `Screen` (anything
//! tripped, cold, or rebuilt — fall through to the proven int8 tier-1 →
//! f32 tier-2 path). The gate is conservative by construction: it can
//! only *add* escalations relative to the §10 pipeline, never remove
//! one, and any irregular input (out-of-order or duplicate timestamps,
//! non-finite fields, eviction rebuilds) resets the monitor cold, which
//! means `Screen` until it re-warms.

use vehigan_sim::{Bsm, VehicleTrace};

/// Number of residuals computable from one consecutive BSM pair alone
/// (the width [`residuals`] returns).
pub(crate) const NUM_PAIR_RESIDUALS: usize = 5;

/// Number of kinematic residuals tracked per vehicle: the pair
/// residuals plus the anchored horizon-displacement residual.
pub(crate) const NUM_RESIDUALS: usize = NUM_PAIR_RESIDUALS + 1;

/// Number of monitor statistics: a two-sided CUSUM (folded to its max
/// side) and an EWMA deviation per residual.
pub(crate) const NUM_STATISTICS: usize = 2 * NUM_RESIDUALS;

/// EWMA smoothing factor λ: heavy enough that a single-message glitch
/// decays within a window, light enough that a sustained shift (the
/// attack signature) accumulates.
pub(crate) const EWMA_LAMBDA: f32 = 0.25;

/// Residuals and accumulated statistics are clamped to this bound so a
/// pathological-but-guard-accepted input (e.g. a microsecond Δt blowing
/// up the range residual) saturates to a huge *finite* value — which
/// trips every decision interval — instead of propagating `inf`/NaN
/// into the monitor state. `f64::min` returns the other operand for a
/// NaN input, so the clamp also launders NaN into the saturated value.
const RESIDUAL_CLAMP: f64 = 1e12;

/// Below this displacement (meters) between consecutive BSMs the
/// movement direction is numerical noise, so the heading residual is
/// held at zero rather than tripping on a parked vehicle.
const HEADING_MIN_DISP_M: f64 = 0.25;

/// Safety margin applied when the escalation-consistency pass tightens
/// the suppression scale below an observed ratio.
const TIGHTEN_SHRINK: f32 = 1.0 - 1e-3;

/// Default [`Tier0Calibration::refresh`]: up to three consecutive
/// suppressions, i.e. tier-1 runs on at least every fourth window per
/// vehicle (once per ~2 s at a 10 Hz / stride-5 stream).
pub(crate) const DEFAULT_REFRESH: u32 = 3;

/// What tier 0 does with a completed window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateDecision {
    /// Every monitor statistic is inside its decision interval: the
    /// window is kinematically benign at the calibrated confidence, so
    /// the serve tick may skip tier-1 and pin the monitor-implied
    /// benign score.
    Suppress,
    /// A monitor tripped, or the monitor is cold (fresh, evicted, or
    /// reset by an out-of-order/duplicate/non-finite message): fall
    /// through to the full tier-1 → tier-2 path.
    Screen,
}

/// Per-residual CUSUM/EWMA update parameters, fit from benign traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tier0Params {
    /// EWMA smoothing factor λ.
    pub lambda: f32,
    /// CUSUM reference value per residual (benign mean).
    pub mu: [f32; NUM_RESIDUALS],
    /// CUSUM slack `k` per residual (half the benign standard
    /// deviation — the classical "half the shift worth detecting").
    pub slack: [f32; NUM_RESIDUALS],
    /// Rows between anchor refreshes of the horizon-displacement
    /// residual (the detector window length `w` when fitted).
    pub horizon: u32,
}

/// Fitted tier-0 decision intervals plus the carry-forward policy for
/// suppressed windows. `Copy`, so a deployment stores it next to the
/// fitted scaler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tier0Calibration {
    /// Monitor update parameters.
    pub params: Tier0Params,
    /// Per-statistic decision intervals at the fitted benign quantile:
    /// `h[0..NUM_RESIDUALS]` bound the folded CUSUMs,
    /// `h[NUM_RESIDUALS..]` the EWMA deviations `|z − μ|`.
    pub h: [f32; NUM_STATISTICS],
    /// Global conservatism factor: a window suppresses only when its
    /// worst statistic-to-interval ratio is `<= scale`. Starts at 1.0
    /// and only shrinks — [`Tier0Calibration::constrain`] lowers it
    /// below the ratio of any window that must never be suppressed
    /// (e.g. every campaign window whose tier-1 score escalates).
    pub scale: f32,
    /// Residual rows a monitor must accumulate since its last reset
    /// before it may suppress (the window length `w`): a cold or
    /// rebuilt buffer always screens.
    pub warmup: u32,
    /// The benign quantile the intervals were fit at (bookkeeping).
    pub quantile: f64,
    /// Lower edge of the advisory benign-score band (set with
    /// [`Tier0Calibration::set_score_band`]). [`Tier0Calibration::evaluate`]
    /// maps the monitor ratio into this band as a monitor-implied score;
    /// the serve plane does **not** emit it (it carries the vehicle's
    /// last real tier-1 score instead), but standalone consumers without
    /// a score to carry can use it as a physics-ranked placeholder.
    pub score_floor: f32,
    /// Width of the advisory band: the monitor-implied score is
    /// `score_floor + score_span · ratio/scale`, ranking windows by how
    /// close their physics came to tripping.
    pub score_span: f32,
    /// Detection threshold τ reported on suppressed decisions, and the
    /// freshness bar for carry-forward: only a prior tier-1 score
    /// strictly below τ may be carried, so a suppressed window can
    /// never flag.
    pub tau: f32,
    /// Maximum consecutive windows a vehicle may skip tier-1 on physics
    /// alone. A suppressed window reuses the vehicle's last *real*
    /// tier-1 score (physics certifies nothing changed); re-running the
    /// gate at least every `refresh + 1` windows bounds that score's
    /// staleness, so attacks invisible to differential kinematics — a
    /// constant position offset preserves every delta and chord — still
    /// meet the learned detector at a fixed cadence instead of hiding
    /// indefinitely behind a stale verdict. `0` disables suppression
    /// outright.
    pub refresh: u32,
}

/// Kinematic residuals for one consecutive BSM pair, clamped finite.
/// Returns `None` when the pair is unusable (`Δt` not strictly positive
/// and finite — out-of-order, duplicate, or non-finite timestamps),
/// which callers must treat as a monitor reset.
///
/// Runs on every accepted BSM in the serve hot path, so the two libm
/// calls a naive implementation would make are replaced with cheap
/// deterministic equivalents: `√(Δx² + Δy²)` instead of `hypot` (city
/// coordinates cannot overflow the square), and `fast_atan2` instead
/// of `atan2` for the movement direction (≤ 2 mrad error, far below
/// the sensor's heading noise and self-consistent because calibration
/// fits the decision intervals from the same approximation).
pub fn residuals(prev: &Bsm, curr: &Bsm) -> Option<[f32; NUM_PAIR_RESIDUALS]> {
    let dt = curr.timestamp - prev.timestamp;
    // NaN Δt must land in the reset branch too: `!dt.is_finite()` traps
    // it before the sign test can (vacuously) pass.
    if !dt.is_finite() || dt <= 0.0 {
        return None;
    }
    let dx = curr.pos_x - prev.pos_x;
    let dy = curr.pos_y - prev.pos_y;
    let disp = (dx * dx + dy * dy).sqrt();
    let mean_speed = 0.5 * (prev.speed + curr.speed);
    let r0 = (disp - mean_speed * dt).abs();
    let r1 = if disp < HEADING_MIN_DISP_M {
        0.0
    } else {
        Bsm::normalize_angle(fast_atan2(dy, dx) - prev.heading).abs()
    };
    let r2 = ((curr.speed - prev.speed) - prev.acceleration * dt).abs();
    let r3 = disp / dt;
    let r4 = (Bsm::normalize_angle(curr.heading - prev.heading) - prev.yaw_rate * dt).abs();
    Some([
        clamp_stat(r0),
        clamp_stat(r1),
        clamp_stat(r2),
        clamp_stat(r3),
        clamp_stat(r4),
    ])
}

/// Anchored horizon-displacement tracker: the O(1) state behind
/// residual 6. The anchor position is refreshed every `horizon` rows;
/// between refreshes the tracker integrates the reported speeds and
/// compares the implied distance against the straight-line chord from
/// the anchor. Pure f64 arithmetic in a fixed order.
#[derive(Debug, Clone, Copy)]
struct Horizon {
    anchor_x: f64,
    anchor_y: f64,
    pred: f64,
    rows: u32,
    live: bool,
}

impl Horizon {
    fn cold() -> Self {
        Horizon {
            anchor_x: 0.0,
            anchor_y: 0.0,
            pred: 0.0,
            rows: 0,
            live: false,
        }
    }

    /// Advances one residual row `(prev, curr)` with `Δt` already
    /// validated, returning the horizon residual
    /// `| |p_curr − p_anchor| − Σ v̄·Δt |`. The chord under-measures a
    /// curved path by at most `1 − sin(θ/2)/(θ/2)` of its length —
    /// second-order for the ~1 s horizons the detector uses — which the
    /// fitted CUSUM reference absorbs as benign bias.
    fn advance(&mut self, prev: &Bsm, curr: &Bsm, dt: f64) -> f64 {
        if !self.live {
            self.anchor_x = prev.pos_x;
            self.anchor_y = prev.pos_y;
            self.pred = 0.0;
            self.rows = 0;
            self.live = true;
        }
        self.pred += 0.5 * (prev.speed + curr.speed) * dt;
        self.rows += 1;
        let dx = curr.pos_x - self.anchor_x;
        let dy = curr.pos_y - self.anchor_y;
        ((dx * dx + dy * dy).sqrt() - self.pred).abs()
    }

    /// Whether the anchor is due for a refresh after `horizon` rows.
    fn due(&self, horizon: u32) -> bool {
        self.rows >= horizon.max(1)
    }

    /// Re-anchors at the given position.
    fn reanchor(&mut self, bsm: &Bsm) {
        self.anchor_x = bsm.pos_x;
        self.anchor_y = bsm.pos_y;
        self.pred = 0.0;
        self.rows = 0;
    }
}

/// The full residual row for one accepted pair: the pair residuals
/// plus the horizon residual, advancing (and re-anchoring) `hz`.
/// `None` means the pair is unusable; `hz` is reset cold alongside the
/// caller's statistics.
fn full_residuals(
    prev: &Bsm,
    curr: &Bsm,
    hz: &mut Horizon,
    horizon: u32,
) -> Option<[f32; NUM_RESIDUALS]> {
    let pair = match residuals(prev, curr) {
        Some(p) => p,
        None => {
            *hz = Horizon::cold();
            return None;
        }
    };
    let dt = curr.timestamp - prev.timestamp;
    let r5 = hz.advance(prev, curr, dt);
    if hz.due(horizon) {
        hz.reanchor(curr);
    }
    let mut r = [0f32; NUM_RESIDUALS];
    r[..NUM_PAIR_RESIDUALS].copy_from_slice(&pair);
    r[NUM_PAIR_RESIDUALS] = clamp_stat(r5);
    Some(r)
}

/// Branch-light polynomial `atan2` (maximum error ≈ 1.6 mrad): the
/// classic degree-7 odd minimax fit of `atan` on `[0, 1]`, extended to
/// the full plane by octant folding. Pure f64 arithmetic in a fixed
/// order — bitwise deterministic across platforms, unlike libm's
/// `atan2`, and several times cheaper.
pub(crate) fn fast_atan2(y: f64, x: f64) -> f64 {
    use std::f64::consts::{FRAC_PI_2, PI};
    let ax = x.abs();
    let ay = y.abs();
    let mx = ax.max(ay);
    if mx == 0.0 {
        return 0.0;
    }
    let a = ax.min(ay) / mx;
    let s = a * a;
    let mut r = (((-0.046_496_474_9 * s + 0.159_314_22) * s - 0.327_622_764) * s) * a + a;
    if ay > ax {
        r = FRAC_PI_2 - r;
    }
    if x < 0.0 {
        r = PI - r;
    }
    if y < 0.0 {
        r = -r;
    }
    r
}

/// Saturates a residual into `[0, RESIDUAL_CLAMP]` as f32; NaN
/// saturates high (see `RESIDUAL_CLAMP`). Not `f64::clamp`, which
/// propagates NaN instead of saturating it: `min` discards the NaN
/// operand, so the chain lands on `RESIDUAL_CLAMP`.
#[allow(clippy::manual_clamp)]
fn clamp_stat(r: f64) -> f32 {
    r.min(RESIDUAL_CLAMP).max(0.0) as f32
}

/// Upper `q`-quantile of a sample (nearest-rank, rounded up): the
/// deterministic, interpolation-free cut the decision intervals use.
fn upper_quantile(xs: &mut [f32], q: f64) -> f32 {
    xs.sort_by(f32::total_cmp);
    let idx = ((xs.len() - 1) as f64 * q).ceil() as usize;
    xs[idx.min(xs.len() - 1)]
}

impl Tier0Calibration {
    /// Fits monitor parameters and decision intervals from benign
    /// traces.
    ///
    /// Pass 1 estimates each residual's benign mean (the CUSUM
    /// reference μ) and standard deviation (slack `k = σ/2`). Pass 2
    /// streams every trace through a provisional monitor and collects
    /// each statistic at every warm row — exactly the states a
    /// stride-1 serving stream would be judged at — then sets the
    /// decision interval per statistic to the `quantile` benign
    /// quantile. `window` is the detector's window length `w` (also the
    /// warmup row count); `quantile` is in `[0, 1]`, e.g. 0.995.
    ///
    /// Returns `None` when the traces yield no usable residual rows or
    /// no warm monitor states (all traces shorter than `window + 1`).
    pub fn fit(traces: &[VehicleTrace], window: usize, quantile: f64) -> Option<Tier0Calibration> {
        assert!(
            (0.0..=1.0).contains(&quantile),
            "benign quantile must be in [0, 1]"
        );
        let window = window.max(2);
        let horizon = window as u32;
        let mut n = 0u64;
        let mut sum = [0f64; NUM_RESIDUALS];
        let mut sumsq = [0f64; NUM_RESIDUALS];
        for t in traces {
            let mut hz = Horizon::cold();
            for pair in t.bsms.windows(2) {
                if let Some(r) = full_residuals(&pair[0], &pair[1], &mut hz, horizon) {
                    for i in 0..NUM_RESIDUALS {
                        let v = r[i] as f64;
                        sum[i] += v;
                        sumsq[i] += v * v;
                    }
                    n += 1;
                }
            }
        }
        if n == 0 {
            return None;
        }
        let mut mu = [0f32; NUM_RESIDUALS];
        let mut slack = [0f32; NUM_RESIDUALS];
        for i in 0..NUM_RESIDUALS {
            let mean = sum[i] / n as f64;
            let var = (sumsq[i] / n as f64 - mean * mean).max(0.0);
            mu[i] = mean as f32;
            slack[i] = (0.5 * var.sqrt()) as f32;
        }
        let params = Tier0Params {
            lambda: EWMA_LAMBDA,
            mu,
            slack,
            horizon,
        };

        let mut samples: [Vec<f32>; NUM_STATISTICS] = Default::default();
        for t in traces {
            let mut m = Tier0Monitor::new(params);
            for bsm in &t.bsms {
                m.push(bsm);
                if m.rows() >= window as u32 {
                    let s = m.statistics();
                    for i in 0..NUM_STATISTICS {
                        samples[i].push(s[i]);
                    }
                }
            }
        }
        if samples[0].is_empty() {
            return None;
        }
        let mut h = [0f32; NUM_STATISTICS];
        for i in 0..NUM_STATISTICS {
            h[i] = upper_quantile(&mut samples[i], quantile);
        }
        Some(Tier0Calibration {
            params,
            h,
            scale: 1.0,
            warmup: window as u32,
            quantile,
            score_floor: 0.0,
            score_span: 0.0,
            tau: f32::INFINITY,
            refresh: DEFAULT_REFRESH,
        })
    }

    /// Sets the advisory benign-score band and the detection threshold
    /// `tau`: `[floor, ceil]` should sit inside the benign bulk of the
    /// tier-1 gate score distribution (e.g. its p10 and p50), strictly
    /// below both the escalation cutoff τ_esc and `tau`. The serve
    /// plane carries the vehicle's last real tier-1 score instead of
    /// the band value, and `tau` doubles as its carry-forward freshness
    /// bar (only scores `< tau` may be carried).
    pub fn set_score_band(&mut self, floor: f32, ceil: f32, tau: f32) {
        self.score_floor = floor;
        self.score_span = (ceil - floor).max(0.0);
        self.tau = tau;
    }

    /// Worst statistic-to-interval ratio of a monitor state: the scalar
    /// "how close to tripping" value the gate compares against
    /// [`Tier0Calibration::scale`]. Non-finite statistics and
    /// statistics above a non-positive interval map to `+inf` (always
    /// screens).
    pub fn ratio(&self, stats: &[f32; NUM_STATISTICS]) -> f32 {
        let mut ratio = 0.0f32;
        for (&s, &h) in stats.iter().zip(&self.h) {
            if !s.is_finite() {
                return f32::INFINITY;
            }
            let r = if s <= 0.0 {
                0.0
            } else if h > 0.0 {
                s / h
            } else {
                f32::INFINITY
            };
            if r > ratio {
                ratio = r;
            }
        }
        ratio
    }

    /// Evaluates a monitor against this calibration: the gate decision
    /// and, for `Suppress`, the monitor-implied benign score from the
    /// advisory band. A cold monitor (fewer than `warmup` rows since its
    /// last reset) always screens. `Suppress` asserts only "physics saw
    /// nothing change": a [`Suppression`] also needs a fresh carried score.
    pub fn evaluate(&self, monitor: &Tier0Monitor) -> (GateDecision, f32) {
        self.judge(&monitor.state, &monitor.params)
    }

    fn judge(&self, state: &Tier0State, params: &Tier0Params) -> (GateDecision, f32) {
        if state.rows < self.warmup {
            return (GateDecision::Screen, 0.0);
        }
        let ratio = self.ratio(&state.statistics(params));
        if self.scale > 0.0 && ratio <= self.scale {
            (
                GateDecision::Suppress,
                self.score_floor + self.score_span * (ratio / self.scale),
            )
        } else {
            (GateDecision::Screen, 0.0)
        }
    }

    /// Escalation-consistency pass: given the statistics of a warm
    /// window that must **never** be suppressed (its always-tier-1
    /// score escalates past τ_esc), shrinks the suppression scale just
    /// below that window's ratio so it — and anything at least as
    /// anomalous — screens. Returns whether the scale changed.
    ///
    /// Applying this to every escalating window of the evaluation
    /// campaign yields zero suppressed would-be escalations on that set
    /// *by construction*, while cutting suppression by the least amount
    /// any single-threshold rule could.
    pub fn constrain(&mut self, stats: &[f32; NUM_STATISTICS]) -> bool {
        let ratio = self.ratio(stats);
        let bound = if ratio.is_finite() {
            ratio * TIGHTEN_SHRINK
        } else {
            return false;
        };
        if bound < self.scale {
            self.scale = bound;
            true
        } else {
            false
        }
    }
}

/// The per-vehicle half of a [`Tier0Monitor`]: the horizon anchor, the
/// EWMA and CUSUM accumulators and the row count, updated in O(1) per
/// residual row with no allocation and a fixed f32 operation order. It
/// holds no [`Tier0Params`] and no previous message: [`Tier0State::push`]
/// takes both from its caller, so a caller tracking many vehicles (the
/// serve shards, through [`Suppression`]) keeps the parameters once and
/// shares each vehicle's previous message with its [`WindowRing`].
///
/// [`WindowRing`]: crate::WindowRing
#[derive(Debug, Clone, Copy)]
pub struct Tier0State {
    hz: Horizon,
    ewma: [f32; NUM_RESIDUALS],
    cusum_pos: [f32; NUM_RESIDUALS],
    cusum_neg: [f32; NUM_RESIDUALS],
    rows: u32,
}

impl Tier0State {
    /// A cold state for the given parameters. EWMAs start at the
    /// reference μ so a fresh monitor is not instantly deviant.
    pub fn new(params: &Tier0Params) -> Self {
        Tier0State {
            hz: Horizon::cold(),
            ewma: params.mu,
            cusum_pos: [0.0; NUM_RESIDUALS],
            cusum_neg: [0.0; NUM_RESIDUALS],
            rows: 0,
        }
    }

    /// Advances one residual row: the consecutive accepted pair
    /// `(prev, curr)`. A pair whose timestamp does not strictly advance
    /// (out-of-order, duplicate, or non-finite) resets the statistics
    /// cold — the conservative fallthrough: the monitor screens until it
    /// re-warms on `warmup` consecutive clean rows, measured from `curr`.
    /// `params` must be the ones every push to this state uses.
    pub fn push(&mut self, params: &Tier0Params, prev: &Bsm, curr: &Bsm) {
        match full_residuals(prev, curr, &mut self.hz, params.horizon) {
            Some(r) => {
                let lambda = params.lambda;
                for (i, &c) in r.iter().enumerate() {
                    let mu = params.mu[i];
                    let k = params.slack[i];
                    self.cusum_pos[i] =
                        clamp_stat(((self.cusum_pos[i] + (c - mu - k)).max(0.0)) as f64);
                    self.cusum_neg[i] =
                        clamp_stat(((self.cusum_neg[i] + (mu - k - c)).max(0.0)) as f64);
                    self.ewma[i] = clamp_stat(((1.0 - lambda) * self.ewma[i] + lambda * c) as f64);
                }
                self.rows = self.rows.saturating_add(1);
            }
            None => *self = Tier0State::new(params),
        }
    }

    /// The current statistics vector under `params`: the folded
    /// two-sided CUSUM `max(s⁺, s⁻)` per residual, then the EWMA
    /// deviation `|z − μ|` per residual. Always finite (see
    /// `RESIDUAL_CLAMP`).
    pub fn statistics(&self, params: &Tier0Params) -> [f32; NUM_STATISTICS] {
        let mut s = [0f32; NUM_STATISTICS];
        for i in 0..NUM_RESIDUALS {
            s[i] = self.cusum_pos[i].max(self.cusum_neg[i]);
            s[NUM_RESIDUALS + i] = (self.ewma[i] - params.mu[i]).abs();
        }
        s
    }
}

/// One vehicle's tier-0 suppression rule: its [`Tier0State`], the last
/// real tier-1 gate score it may carry and how many windows in a row have
/// carried it. A window skips tier 1 only when the monitors are warm and
/// in-interval, the score is below [`Tier0Calibration::tau`] and fewer
/// than [`Tier0Calibration::refresh`] windows in a row carried it. Every
/// call takes the calibration the state was built with.
#[derive(Debug, Clone, Copy)]
pub struct Suppression {
    state: Tier0State,
    carried: Option<f32>,
    streak: u32,
}

impl Suppression {
    /// A cold monitor with no score to carry.
    pub fn new(cal: &Tier0Calibration) -> Self {
        Suppression {
            state: Tier0State::new(&cal.params),
            carried: None,
            streak: 0,
        }
    }

    /// Advances the monitors by the accepted pair `(prev, curr)` (see
    /// [`Tier0State::push`]).
    pub fn push(&mut self, cal: &Tier0Calibration, prev: &Bsm, curr: &Bsm) {
        self.state.push(&cal.params, prev, curr);
    }

    /// The verdict on the window the last push completed: the carried
    /// score it reports instead of a tier-1 score, counted toward the
    /// streak, or `None` when it must screen.
    pub fn complete(&mut self, cal: &Tier0Calibration) -> Option<f32> {
        let carried = self
            .carried
            .filter(|&g| g < cal.tau && self.streak < cal.refresh)
            .filter(|_| cal.judge(&self.state, &cal.params).0 == GateDecision::Suppress)?;
        self.streak += 1;
        Some(carried)
    }

    /// Records a screened window's real tier-1 gate score: the score
    /// later windows may carry, with the streak reset.
    pub fn record(&mut self, score: f32) {
        (self.carried, self.streak) = (Some(score), 0);
    }
}

/// Per-vehicle incremental kinematic monitor for a standalone caller: a
/// [`Tier0State`] with its own [`Tier0Params`] and the vehicle's previous
/// message, fed one BSM at a time.
///
/// Fed the same accepted-BSM sequence as a [`WindowBuffer`], the two stay
/// in lockstep (a window completes exactly when the monitor has
/// `>= warmup` rows on an uninterrupted stream). The serve shards hold
/// the state alone and feed it the previous message their ring uses.
///
/// [`WindowBuffer`]: crate::WindowBuffer
#[derive(Debug, Clone, Copy)]
pub struct Tier0Monitor {
    params: Tier0Params,
    prev: Option<Bsm>,
    state: Tier0State,
}

impl Tier0Monitor {
    /// A cold monitor with the given update parameters.
    pub fn new(params: Tier0Params) -> Self {
        Tier0Monitor {
            params,
            prev: None,
            state: Tier0State::new(&params),
        }
    }

    /// Feeds one BSM (see [`Tier0State::push`]; the first message is only
    /// the reference point for the second).
    pub fn push(&mut self, bsm: &Bsm) {
        if let Some(prev) = self.prev.replace(*bsm) {
            self.state.push(&self.params, &prev, bsm);
        }
    }

    /// Consecutive residual rows accumulated since the last reset.
    pub fn rows(&self) -> u32 {
        self.state.rows
    }

    /// The current statistics vector (see [`Tier0State::statistics`]).
    pub(crate) fn statistics(&self) -> [f32; NUM_STATISTICS] {
        self.state.statistics(&self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vehigan_sim::{SimConfig, TrafficSimulator, VehicleId};
    use vehigan_vasp::{DatasetBuilder, DatasetConfig};

    fn sim_traces() -> Vec<VehicleTrace> {
        TrafficSimulator::new(SimConfig {
            n_vehicles: 4,
            duration_s: 20.0,
            seed: 5,
            ..SimConfig::default()
        })
        .run()
    }

    fn fitted() -> Tier0Calibration {
        Tier0Calibration::fit(&sim_traces(), 10, 0.995).expect("calibration fits")
    }

    #[test]
    fn fast_atan2_tracks_libm_within_two_mrad() {
        let mut worst = 0.0f64;
        for i in 0..=720 {
            let theta = (i as f64 - 360.0) * std::f64::consts::PI / 360.0;
            for r in [1e-3, 0.7, 42.0, 1e6] {
                let (y, x) = (r * theta.sin(), r * theta.cos());
                let err = Bsm::normalize_angle(fast_atan2(y, x) - y.atan2(x)).abs();
                worst = worst.max(err);
            }
        }
        assert!(worst < 2e-3, "fast_atan2 worst error {worst} rad");
        assert_eq!(fast_atan2(0.0, 0.0), 0.0);
    }

    #[test]
    fn benign_traffic_mostly_suppresses_after_warmup() {
        let cal = fitted();
        let traces = sim_traces();
        let mut warm = 0usize;
        let mut suppressed = 0usize;
        for t in &traces {
            let mut m = Tier0Monitor::new(cal.params);
            for bsm in &t.bsms {
                m.push(bsm);
                if m.rows() >= cal.warmup {
                    warm += 1;
                    if cal.evaluate(&m).0 == GateDecision::Suppress {
                        suppressed += 1;
                    }
                }
            }
        }
        assert!(warm > 100, "simulation produced too few warm rows");
        // In-distribution benign traffic at the 0.995 quantile: the
        // joint pass rate must stay high for the gate to be worth it.
        assert!(
            suppressed as f64 >= 0.9 * warm as f64,
            "only {suppressed}/{warm} benign rows suppressed"
        );
    }

    #[test]
    fn cold_and_short_monitors_screen() {
        let cal = fitted();
        let traces = sim_traces();
        let mut m = Tier0Monitor::new(cal.params);
        assert_eq!(cal.evaluate(&m).0, GateDecision::Screen);
        for bsm in traces[0].bsms.iter().take(cal.warmup as usize) {
            m.push(bsm);
            assert_eq!(
                cal.evaluate(&m).0,
                GateDecision::Screen,
                "monitor suppressed before warmup at row {}",
                m.rows()
            );
        }
    }

    #[test]
    fn out_of_order_and_duplicate_messages_reset_cold() {
        let cal = fitted();
        let trace = &sim_traces()[0];
        let mut m = Tier0Monitor::new(cal.params);
        for bsm in trace.bsms.iter().take(cal.warmup as usize + 2) {
            m.push(bsm);
        }
        assert!(m.rows() >= cal.warmup);
        // A duplicate timestamp resets to cold...
        let dup = trace.bsms[cal.warmup as usize + 1];
        m.push(&dup);
        assert_eq!(m.rows(), 0);
        assert_eq!(cal.evaluate(&m).0, GateDecision::Screen);
        // ...and so does a message from the past.
        let mut m2 = Tier0Monitor::new(cal.params);
        for bsm in trace.bsms.iter().take(cal.warmup as usize + 2) {
            m2.push(bsm);
        }
        let mut old = trace.bsms[1];
        old.timestamp -= 100.0;
        m2.push(&old);
        assert_eq!(m2.rows(), 0);
        // After a duplicate-triggered reset, continuing with the real
        // trace screens for `warmup` rows and then re-warms into
        // suppression (the stream is benign).
        let mut m3 = Tier0Monitor::new(cal.params);
        let k = cal.warmup as usize + 2;
        for bsm in trace.bsms.iter().take(k) {
            m3.push(bsm);
        }
        m3.push(&trace.bsms[k - 1]); // duplicate → reset, prev stays live
        assert_eq!(m3.rows(), 0);
        let mut suppressed = false;
        for (i, bsm) in trace.bsms[k..].iter().enumerate() {
            m3.push(bsm);
            if (i as u32) + 1 < cal.warmup {
                assert_eq!(cal.evaluate(&m3).0, GateDecision::Screen);
            }
            suppressed |= cal.evaluate(&m3).0 == GateDecision::Suppress;
        }
        assert!(suppressed, "monitor never re-warmed into suppression");
    }

    #[test]
    fn teleport_trips_the_range_monitor() {
        let cal = fitted();
        let trace = &sim_traces()[0];
        let mut m = Tier0Monitor::new(cal.params);
        for bsm in trace.bsms.iter().take(cal.warmup as usize + 4) {
            m.push(bsm);
        }
        assert_eq!(cal.evaluate(&m).0, GateDecision::Suppress);
        let mut tele = *m.prev.as_ref().unwrap();
        tele.timestamp += 0.1;
        tele.pos_x += 5000.0;
        m.push(&tele);
        assert_eq!(cal.evaluate(&m).0, GateDecision::Screen);
    }

    #[test]
    fn attack_windows_screen_far_more_than_benign() {
        let traces = sim_traces();
        let cal = fitted();
        let builder = DatasetBuilder::new(&traces, DatasetConfig::default());
        let attack = vehigan_vasp::Attack::by_name("RandomPosition").unwrap();
        let mut benign_suppress = (0usize, 0usize);
        let mut attack_suppress = (0usize, 0usize);
        let attacker: Vec<(usize, _)> = builder.attacker_traces(attack);
        for (_, trace) in &attacker {
            let mut m = Tier0Monitor::new(cal.params);
            for bsm in &trace.bsms {
                m.push(bsm);
                if m.rows() >= cal.warmup {
                    attack_suppress.1 += 1;
                    attack_suppress.0 += (cal.evaluate(&m).0 == GateDecision::Suppress) as usize;
                }
            }
        }
        for t in &traces {
            let mut m = Tier0Monitor::new(cal.params);
            for bsm in &t.bsms {
                m.push(bsm);
                if m.rows() >= cal.warmup {
                    benign_suppress.1 += 1;
                    benign_suppress.0 += (cal.evaluate(&m).0 == GateDecision::Suppress) as usize;
                }
            }
        }
        let benign_rate = benign_suppress.0 as f64 / benign_suppress.1.max(1) as f64;
        let attack_rate = attack_suppress.0 as f64 / attack_suppress.1.max(1) as f64;
        assert!(
            attack_rate < 0.5 * benign_rate,
            "RandomPosition suppression rate {attack_rate:.3} not well below benign {benign_rate:.3}"
        );
    }

    #[test]
    fn constrain_shrinks_scale_and_excludes_the_window() {
        let mut cal = fitted();
        // A window sitting at 40% of its intervals.
        let stats = cal.h.map(|h| 0.4 * h.max(1e-6));
        assert!(cal.ratio(&stats) <= 0.41);
        assert!(cal.constrain(&stats));
        let mut m_stats = stats;
        m_stats[0] = stats[0]; // unchanged: ratio == old ratio > new scale
        assert!(cal.ratio(&m_stats) > cal.scale);
        // Constraining again with the same window is a no-op.
        assert!(!cal.constrain(&stats));
    }

    #[test]
    fn calibration_copies_and_compares_exactly() {
        // The deployment contract: a Tier0Calibration is stored next to
        // the fitted scaler; it must be Copy + PartialEq so a stored copy
        // is bit-comparable.
        let cal = fitted();
        let copy = cal;
        assert_eq!(cal, copy);
    }

    /// Steps a fresh [`Suppression`] over `bsms`, recording `score` for
    /// every window that screens, as the serve tick does; returns each
    /// pair's verdict.
    fn suppression_verdicts(cal: &Tier0Calibration, bsms: &[Bsm], score: f32) -> Vec<Option<f32>> {
        let mut s = Suppression::new(cal);
        s.record(score);
        bsms.windows(2)
            .map(|pair| {
                s.push(cal, &pair[0], &pair[1]);
                let verdict = s.complete(cal);
                if verdict.is_none() {
                    s.record(score);
                }
                verdict
            })
            .collect()
    }

    #[test]
    fn suppression_carries_a_fresh_score_at_most_refresh_times_in_a_row() {
        let cal = fitted();
        let verdicts = suppression_verdicts(&cal, &sim_traces()[0].bsms, 0.25);
        assert!(verdicts.iter().flatten().all(|&g| g == 0.25));
        let mut runs = vec![0u32];
        for v in &verdicts {
            match v {
                Some(_) => *runs.last_mut().unwrap() += 1,
                None => runs.push(0),
            }
        }
        assert_eq!(runs.iter().max(), Some(&cal.refresh), "runs {runs:?}");
    }

    #[test]
    fn suppression_never_fires_with_refresh_zero_or_a_score_at_tau() {
        let bsms = &sim_traces()[0].bsms;
        let mut cal = fitted();
        cal.tau = 0.5;
        assert!(suppression_verdicts(&cal, bsms, 0.4)
            .iter()
            .any(Option::is_some));
        assert!(suppression_verdicts(&cal, bsms, 0.5)
            .iter()
            .all(Option::is_none));
        cal.refresh = 0;
        assert!(suppression_verdicts(&cal, bsms, 0.4)
            .iter()
            .all(Option::is_none));
    }

    #[test]
    fn suppression_screens_after_an_out_of_order_pair_until_warm() {
        let cal = fitted();
        let bsms = &sim_traces()[0].bsms;
        let k = 3 * cal.warmup as usize;
        // The duplicate of the newest message resets the monitors; the
        // stream then goes on from it.
        let mut stream = bsms[..k].to_vec();
        stream.push(bsms[k - 1]);
        stream.extend_from_slice(&bsms[k..]);
        let verdicts = suppression_verdicts(&cal, &stream, 0.25);
        assert!(verdicts[..k - 1].iter().any(Option::is_some));
        let after = &verdicts[k - 1..];
        let warm = cal.warmup as usize;
        assert!(after[..warm].iter().all(Option::is_none), "{after:?}");
        assert!(after[warm..].iter().any(Option::is_some), "never re-warmed");
    }

    proptest! {
        /// (a) Bitwise determinism: pushing the same sequence twice —
        /// regardless of how the caller chunks its batches, which never
        /// reaches the monitor — yields identical statistics, and the
        /// decision is a pure function of the state.
        #[test]
        fn replays_are_bitwise_identical(seed in 0u64..32, n in 2usize..60) {
            let traces = TrafficSimulator::new(SimConfig {
                n_vehicles: 1,
                duration_s: 10.0,
                seed,
                ..SimConfig::default()
            })
            .run();
            let cal = fitted();
            let bsms = &traces[0].bsms;
            let n = n.min(bsms.len());
            let mut a = Tier0Monitor::new(cal.params);
            let mut b = Tier0Monitor::new(cal.params);
            for bsm in &bsms[..n] {
                a.push(bsm);
            }
            for bsm in &bsms[..n] {
                b.push(bsm);
            }
            let (sa, sb) = (a.statistics(), b.statistics());
            for i in 0..NUM_STATISTICS {
                prop_assert_eq!(sa[i].to_bits(), sb[i].to_bits());
            }
            prop_assert_eq!(a.rows(), b.rows());
            prop_assert_eq!(cal.evaluate(&a), cal.evaluate(&b));
        }

        /// (c) Guard-accepted BSMs never produce non-finite statistics,
        /// no matter how adversarial the (in-range) field values are.
        #[test]
        fn guard_accepted_inputs_keep_statistics_finite(
            steps in proptest::collection::vec(
                (1e-6f64..5.0, -1e5f64..1e5, -1e5f64..1e5, 0f64..100.0,
                 -20f64..20.0, -std::f64::consts::PI..std::f64::consts::PI, -2f64..2.0),
                1..40,
            )
        ) {
            let guard = crate::IngestGuard::rsu();
            let cal = fitted();
            let mut m = Tier0Monitor::new(cal.params);
            let mut t = 0.0f64;
            let mut last_seen: Option<f64> = None;
            for (dt, px, py, sp, acc, hd, yr) in steps {
                t += dt;
                let bsm = Bsm {
                    vehicle_id: VehicleId(1),
                    timestamp: t,
                    pos_x: px,
                    pos_y: py,
                    speed: sp,
                    acceleration: acc,
                    heading: hd,
                    yaw_rate: yr,
                };
                prop_assert!(guard.validate(&bsm, last_seen).is_ok());
                last_seen = Some(t);
                m.push(&bsm);
                let s = m.statistics();
                for v in s {
                    prop_assert!(v.is_finite(), "non-finite statistic {v} in {s:?}");
                }
                let (_, score) = cal.evaluate(&m);
                prop_assert!(score.is_finite());
            }
        }
    }
}
