//! The traced run: spans recorded by the benchmark around each public
//! call of the drive loop, and isolated replays that push the same stream
//! through each layer's own public function so that time spent *inside*
//! `tick` and `ingest_batch` can be attributed from outside.
//!
//! Nothing here is used for an end-to-end number. Spans live in memory
//! and are written out when the run ends; a span's self time is its
//! duration minus its children's.

use crate::alloc;
use crate::detector::Detector;
use crate::drive::{Probe, Stage};
use crate::gen::Stream;
use crate::json::Json;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;
use vehigan_features::{IngestGuard, Tier0Monitor, WindowBuffer};
use vehigan_lite::Int8Ensemble;
use vehigan_serve::{Shard, SCORE_TILE};
use vehigan_tensor::gemm::{gemm, gemm_i8, PackedI8};
use vehigan_tensor::serialize::ModelSnapshot;
use vehigan_tensor::Tensor;

/// Slices skipped before allocation counts are sampled, so warm-up
/// growth (first windows, first tile buffers) is excluded.
pub const ALLOC_WARMUP_SLICES: u32 = 20;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `replay`, `slice`, or a [`Stage::name`].
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for a replay).
    pub parent: Option<usize>,
    /// Replay number, shared by every span of one replay.
    pub replay: u32,
    /// Driver tick (slice) id, shared by the spans of one timed tick.
    pub slice: Option<u32>,
    /// Items the call processed (BSMs, decisions, reports, ops…).
    pub items: u64,
    /// Allocation calls made while the span was open.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub alloc_bytes: u64,
}

/// The probe of the traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last, with the allocator snapshot taken
    /// when each was opened.
    open: Vec<(usize, (u64, u64))>,
    replay: u32,
    slice: Option<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 12),
            open: Vec::with_capacity(4),
            replay: 0,
            slice: None,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str) {
        let parent = self.open.last().map(|&(i, _)| i);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            replay: self.replay,
            slice: self.slice,
            items: 0,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.open.push((self.spans.len() - 1, alloc::snapshot()));
    }

    fn pop(&mut self, items: u64) {
        let end_ns = self.now();
        let (i, (calls0, bytes0)) = self.open.pop().expect("a span is open");
        let (calls, bytes) = alloc::snapshot();
        let s = &mut self.spans[i];
        s.end_ns = end_ns;
        s.items = items;
        s.allocs = calls - calls0;
        s.alloc_bytes = bytes - bytes0;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Σ self time of the spans of replay `replay` ÷ that replay's wall
    /// clock as measured independently by the driver. 1.0 when the span
    /// tree accounts for the whole replay.
    pub fn cover(&self, replay: u32, wall_s: f64) -> f64 {
        let own = self.self_times_ns();
        let total: u64 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.replay == replay)
            .map(|(_, &o)| o)
            .sum();
        total as f64 * 1e-9 / wall_s
    }

    /// Totals of one stage. Every traced replay does the same work at
    /// slice `k`, so a slice's time in the stage is the fastest any replay
    /// spent there (the rule `Timing` applies to whole ticks) and `busy_s`
    /// is the sum of those. Items and allocations are read off
    /// replay `replay` alone; they are the same in every replay.
    pub fn stage(&self, replay: u32, stage: Stage) -> StageTotal {
        let mut t = StageTotal::default();
        let mut best_ns: Vec<u64> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == stage.name()) {
            let Some(k) = s.slice else { continue };
            let k = k as usize;
            if best_ns.len() <= k {
                best_ns.resize(k + 1, u64::MAX);
            }
            best_ns[k] = best_ns[k].min(s.end_ns - s.start_ns);
            if s.replay != replay {
                continue;
            }
            t.items += s.items;
            if k as u32 >= ALLOC_WARMUP_SLICES {
                t.steady_calls += 1;
                t.steady_allocs += s.allocs;
                t.steady_alloc_bytes += s.alloc_bytes;
            }
        }
        t.busy_s = best_ns.iter().filter(|&&ns| ns != u64::MAX).sum::<u64>() as f64 * 1e-9;
        t
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self.self_times_ns();
        for (i, (s, own_ns)) in self.spans.iter().zip(&own).enumerate() {
            let line = Json::obj()
                .with("id", i)
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with("self_ns", *own_ns)
                .with("parent", s.parent.map_or(Json::Null, Json::from))
                .with("replay", u64::from(s.replay))
                .with(
                    "slice",
                    s.slice.map_or(Json::Null, |k| Json::from(u64::from(k))),
                )
                .with("items", s.items)
                .with("allocs", s.allocs)
                .with("alloc_bytes", s.alloc_bytes);
            writeln!(w, "{}", line.render())?;
        }
        w.flush()
    }
}

impl Probe for Tracer {
    fn begin_replay(&mut self) {
        self.replay += 1;
        self.slice = None;
        self.push("replay");
    }
    fn begin_tick(&mut self, tick: u32) {
        self.slice = Some(tick);
        self.push("slice");
    }
    fn enter(&mut self, stage: Stage) {
        self.push(stage.name());
    }
    fn exit(&mut self, items: u64) {
        self.pop(items);
    }
    fn end_tick(&mut self) {
        self.pop(0);
        self.slice = None;
    }
    fn end_replay(&mut self) {
        self.pop(0);
    }
}

/// Totals of one stage over the traced replays.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTotal {
    /// Σ over slices of the fastest span any replay recorded there.
    pub busy_s: f64,
    /// Σ items.
    pub items: u64,
    /// Calls after the allocation warm-up.
    pub steady_calls: u64,
    /// Allocation calls inside those.
    pub steady_allocs: u64,
    /// Bytes requested inside those.
    pub steady_alloc_bytes: u64,
}

/// Per-item cost of each layer's own public function, measured in
/// isolation on the workload's own stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Isolated {
    /// `IngestGuard::validate`, ns per BSM.
    pub guard_ns_per_bsm: f64,
    /// `WindowBuffer::push`, ns per accepted BSM.
    pub window_ns_per_bsm: f64,
    /// `Tier0Monitor::push`, ns per accepted BSM.
    pub monitor_ns_per_bsm: f64,
    /// `Tier0Calibration::evaluate`, ns per call.
    pub monitor_evaluate_ns: f64,
    /// `Shard::ingest`, ns per BSM (guard, window and monitor included).
    pub shard_ingest_ns_per_bsm: f64,
    /// `Shard::take_pending`, ns per window taken.
    pub shard_take_ns_per_window: f64,
    /// `VehiGan::score_with_members_int8` on 128-row tiles, ns per window.
    pub int8_backend_ns_per_window: f64,
    /// `Int8Ensemble::score_subset_into` on the same tiles, ns per window.
    pub int8_ensemble_ns_per_window: f64,
    /// `VehiGan::score_with_members` on the same tiles, ns per window.
    pub f32_ns_per_window: f64,
    /// `gemm_i8` over the deployed critics' layer shapes, 10⁹ int ops/s.
    pub gemm_i8_gops: f64,
    /// Mean bytes one such `gemm_i8` call touches, computed from shapes.
    pub gemm_i8_bytes_per_call: f64,
    /// `gemm` over the same shapes, GFLOP/s.
    pub gemm_f32_gflops: f64,
    /// Mean bytes one such `gemm` call touches, computed from shapes.
    pub gemm_f32_bytes_per_call: f64,
}

fn ns_per(elapsed_s: f64, items: u64) -> f64 {
    if items == 0 {
        0.0
    } else {
        elapsed_s * 1e9 / items as f64
    }
}

/// Real windows kept from the shard replay to score in isolation
/// (cycled when a tick needs more).
const SCORING_SAMPLE_WINDOWS: usize = 16 * SCORE_TILE;

/// Passes each isolated scoring replay makes over its tiles. A tile
/// costs the fastest of its passes — the rule `Timing` applies to ticks,
/// so an attributed time and the span it is a share of are both read off
/// the host at its quietest — and the three scorers take turns pass by
/// pass, so a slow stretch of the host does not land on one of them.
const SCORING_PASSES: usize = 3;

/// One pass of `score` over `tiles`, keeping each tile's fastest time.
fn pass(tiles: &[Tensor], best_s: &mut [f64], mut score: impl FnMut(&Tensor)) {
    for (tile, best) in tiles.iter().zip(best_s) {
        let t = Instant::now();
        score(tile);
        *best = best.min(t.elapsed().as_secs_f64());
    }
}

/// Replays `stream` through each layer's own public function. The
/// per-vehicle layers (guard, window buffer, monitor) run over the whole
/// stream in arrival order with one state per pseudonym, exactly the
/// state the server keeps. The scoring layers run on real windows the
/// shard replay produced, in calls of exactly the shapes the server
/// issued: `tick_shapes[i]` is the `(screened, escalated)` window count of
/// driver tick `i`, and tick `i` is replayed as `screened` windows
/// through the int8 paths in [`SCORE_TILE`]-row tiles and `escalated`
/// windows through the f32 ensemble likewise — so a per-window cost
/// times the server's own window count cannot over-attribute by assuming
/// fuller tiles than the server had.
pub fn isolate(detector: &Detector, stream: &Stream, tick_shapes: &[(usize, usize)]) -> Isolated {
    let pipeline = &detector.pipeline;
    let window = pipeline.config.window.window;
    let scaler = &pipeline.scaler;
    let n_pseudonyms = stream.owner.len();
    let guard = IngestGuard::rsu();
    let mut out = Isolated::default();

    // IngestGuard::validate — and which BSMs pass it.
    let mut last_seen: Vec<Option<f64>> = vec![None; n_pseudonyms];
    let mut accepted = vec![false; stream.bsms.len()];
    let t = Instant::now();
    for (i, b) in stream.bsms.iter().enumerate() {
        let slot = &mut last_seen[b.vehicle_id.0 as usize];
        if guard.validate(b, *slot).is_ok() {
            *slot = Some(b.timestamp);
            accepted[i] = true;
        }
    }
    out.guard_ns_per_bsm = ns_per(t.elapsed().as_secs_f64(), stream.bsms.len() as u64);
    let n_accepted = accepted.iter().filter(|&&a| a).count() as u64;

    // WindowBuffer::push, one buffer per pseudonym, created on first
    // contact as a shard does.
    let mut buffers: Vec<Option<WindowBuffer>> = (0..n_pseudonyms).map(|_| None).collect();
    let mut completed = 0u64;
    let t = Instant::now();
    for (b, _) in stream.bsms.iter().zip(&accepted).filter(|(_, &a)| a) {
        let buf = buffers[b.vehicle_id.0 as usize]
            .get_or_insert_with(|| WindowBuffer::new(window, scaler.clone()));
        completed += buf.push(b).is_some() as u64;
    }
    out.window_ns_per_bsm = ns_per(t.elapsed().as_secs_f64(), n_accepted);
    black_box(completed);
    drop(buffers);

    // Tier0Monitor::push per accepted BSM.
    let cal = detector.tier0;
    let mut monitors: Vec<Option<Tier0Monitor>> = (0..n_pseudonyms).map(|_| None).collect();
    let t = Instant::now();
    for (b, _) in stream.bsms.iter().zip(&accepted).filter(|(_, &a)| a) {
        monitors[b.vehicle_id.0 as usize]
            .get_or_insert_with(|| Tier0Monitor::new(cal.params))
            .push(b);
    }
    out.monitor_ns_per_bsm = ns_per(t.elapsed().as_secs_f64(), n_accepted);
    // Tier0Calibration::evaluate on the monitors' final states.
    let live: Vec<&Tier0Monitor> = monitors.iter().flatten().collect();
    let rounds = (200_000 / live.len().max(1)).max(1);
    let t = Instant::now();
    let mut suppress = 0u64;
    for _ in 0..rounds {
        for m in &live {
            suppress += (cal.evaluate(m).0 == vehigan_features::GateDecision::Suppress) as u64;
        }
    }
    out.monitor_evaluate_ns = ns_per(t.elapsed().as_secs_f64(), (rounds * live.len()) as u64);
    black_box(suppress);
    drop(monitors);

    // Shard::ingest / take_pending: one unbounded shard, slice by slice.
    let mut shard = Shard::with_guard(
        window,
        scaler.clone(),
        vehigan_features::EvictionConfig::unbounded(),
        guard,
        None,
    )
    .with_tier0(Some(cal));
    let wl = shard.window_len();
    let sample_windows = SCORING_SAMPLE_WINDOWS;
    let mut sample: Vec<f32> = Vec::with_capacity(sample_windows * wl);
    let (mut ingest_s, mut take_s, mut taken) = (0.0f64, 0.0f64, 0u64);
    for r in &stream.slices {
        let t = Instant::now();
        for b in &stream.bsms[r.clone()] {
            shard.ingest(b);
        }
        ingest_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (floats, meta) = shard.take_pending(usize::MAX);
        take_s += t.elapsed().as_secs_f64();
        taken += meta.len() as u64;
        // Sample from the second half of the stream: steady state, and
        // attackers well into their falsified traces.
        if sample.len() < sample_windows * wl && r.start >= stream.bsms.len() / 2 {
            let room = sample_windows * wl - sample.len();
            sample.extend_from_slice(&floats[..floats.len().min(room)]);
        }
    }
    out.shard_ingest_ns_per_bsm = ns_per(ingest_s, stream.bsms.len() as u64);
    out.shard_take_ns_per_window = ns_per(take_s, taken);
    drop(shard);

    // Scoring layers, in the server's own call shapes.
    let n_sample = sample.len() / wl;
    if n_sample > 0 {
        let features = scaler.width();
        let members = &detector.members;
        // `n` consecutive sample windows starting at `*cursor`, cycled.
        let tile_of = |cursor: &mut usize, n: usize| -> Tensor {
            let mut data = Vec::with_capacity(n * wl);
            for _ in 0..n {
                let k = *cursor % n_sample;
                data.extend_from_slice(&sample[k * wl..(k + 1) * wl]);
                *cursor += 1;
            }
            Tensor::from_vec(data, &[n, window, features, 1])
        };
        // Every tile of every tick, built before any clock starts: the
        // copy into a `Tensor` is the caller's cost, not the scorer's.
        let tiles_for = |pick: fn(&(usize, usize)) -> usize| -> Vec<Tensor> {
            let mut cursor = 0usize;
            let mut tiles = Vec::new();
            for shape in tick_shapes {
                let mut left = pick(shape);
                while left > 0 {
                    let n = left.min(SCORE_TILE);
                    tiles.push(tile_of(&mut cursor, n));
                    left -= n;
                }
            }
            tiles
        };
        let screened_tiles = tiles_for(|s| s.0);
        let escalated_tiles = tiles_for(|s| s.1);
        let count = |tiles: &[Tensor]| tiles.iter().map(|t| t.shape()[0] as u64).sum::<u64>();

        // The same members straight through vehigan-lite, grouped by
        // critic topology the way the core backend groups them; the gap
        // to the backend number is the Tensor/wrapper cost.
        let snaps: Vec<ModelSnapshot> = members
            .iter()
            .map(|&i| pipeline.vehigan.members()[i].wgan.critic().save())
            .collect();
        let mut groups: Vec<(usize, Vec<&ModelSnapshot>)> = Vec::new();
        for s in &snaps {
            match groups
                .iter_mut()
                .find(|(depth, _)| *depth == s.layers.len())
            {
                Some((_, g)) => g.push(s),
                None => groups.push((s.layers.len(), vec![s])),
            }
        }
        let calibration =
            &pipeline.train_windows.x.as_slice()[..pipeline.train_windows.len().min(256) * wl];
        let mut fused: Vec<(Int8Ensemble, Vec<usize>, Vec<f32>)> = groups
            .iter()
            .map(|(_, g)| {
                let e = Int8Ensemble::compile(g, (window, features, 1), calibration)
                    .expect("lite ensemble compiles");
                let subset: Vec<usize> = (0..g.len()).collect();
                let scratch = vec![0.0f32; g.len() * SCORE_TILE];
                (e, subset, scratch)
            })
            .collect();

        let mut int8_s = vec![f64::INFINITY; screened_tiles.len()];
        let mut f32_s = vec![f64::INFINITY; escalated_tiles.len()];
        let mut lite_s = vec![f64::INFINITY; screened_tiles.len()];
        for _ in 0..SCORING_PASSES {
            pass(&screened_tiles, &mut int8_s, |tile| {
                black_box(
                    pipeline
                        .vehigan
                        .score_with_members_int8(members, tile)
                        .expect("int8 scoring"),
                );
            });
            pass(&escalated_tiles, &mut f32_s, |tile| {
                black_box(
                    pipeline
                        .vehigan
                        .score_with_members(members, tile)
                        .expect("f32 scoring"),
                );
            });
            pass(&screened_tiles, &mut lite_s, |tile| {
                let n = tile.shape()[0];
                for (e, subset, scratch) in &mut fused {
                    let scores = &mut scratch[..subset.len() * n];
                    e.score_subset_into(subset, tile.as_slice(), n, scores);
                    black_box(&scores);
                }
            });
        }
        let screened = count(&screened_tiles);
        out.int8_backend_ns_per_window = ns_per(int8_s.iter().sum(), screened);
        out.f32_ns_per_window = ns_per(f32_s.iter().sum(), count(&escalated_tiles));
        out.int8_ensemble_ns_per_window = ns_per(lite_s.iter().sum(), screened);

        gemm_layers(&snaps, window * features, &mut out);
    }
    out
}

/// `(m, k, n)` of the GEMM each weight layer of a critic issues on one
/// 128-row tile: a `Same`-padded convolution is an im2col GEMM with one
/// row per output position, a dense layer one row per window.
fn layer_shapes(snap: &ModelSnapshot, positions: usize) -> Vec<(usize, usize, usize)> {
    let attr = |l: &vehigan_tensor::serialize::LayerSnapshot, name: &str| {
        l.usize_attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .expect("layer attribute")
    };
    snap.layers
        .iter()
        .filter_map(|l| match l.kind.as_str() {
            "Conv2D" => Some((
                SCORE_TILE * positions,
                attr(l, "kh") * attr(l, "kw") * attr(l, "cin"),
                attr(l, "cout"),
            )),
            "Dense" => Some((SCORE_TILE, attr(l, "in_dim"), attr(l, "out_dim"))),
            _ => None,
        })
        .collect()
}

/// Times `gemm` and `gemm_i8` over every weight-layer shape of the
/// deployed critics. Operation counts (`2·m·k·n`) and bytes
/// (`A + B + C` at the element sizes) are computed from the shapes, not
/// measured.
fn gemm_layers(snaps: &[ModelSnapshot], positions: usize, out: &mut Isolated) {
    let shapes: Vec<(usize, usize, usize)> = snaps
        .iter()
        .flat_map(|s| layer_shapes(s, positions))
        .collect();
    let ops: f64 = shapes
        .iter()
        .map(|&(m, k, n)| 2.0 * (m * k * n) as f64)
        .sum();
    let calls = shapes.len().max(1) as f64;
    let (mut f32_s, mut i8_s) = (0.0f64, 0.0f64);
    let (mut f32_bytes, mut i8_bytes) = (0.0f64, 0.0f64);
    const REPS: usize = 3;
    for &(m, k, n) in &shapes {
        let a = vec![0.5f32; m * k];
        let b = vec![0.25f32; k * n];
        let mut c = vec![0.0f32; m * n];
        let t = Instant::now();
        for _ in 0..REPS {
            gemm(m, k, n, black_box(&a), black_box(&b), &mut c);
            black_box(&c);
        }
        f32_s += t.elapsed().as_secs_f64() / REPS as f64;
        f32_bytes += 4.0 * (m * k + k * n + m * n) as f64;

        let a8 = vec![3i8; m * k];
        let packed = PackedI8::pack(k, n, &vec![2i8; k * n]);
        let mut c32 = vec![0i32; m * n];
        let t = Instant::now();
        for _ in 0..REPS {
            gemm_i8(m, black_box(&a8), black_box(&packed), &mut c32);
            black_box(&c32);
        }
        i8_s += t.elapsed().as_secs_f64() / REPS as f64;
        i8_bytes += (m * k + k * n + 4 * m * n) as f64;
    }
    if f32_s > 0.0 && i8_s > 0.0 {
        out.gemm_f32_gflops = ops / f32_s * 1e-9;
        out.gemm_i8_gops = ops / i8_s * 1e-9;
    }
    out.gemm_f32_bytes_per_call = f32_bytes / calls;
    out.gemm_i8_bytes_per_call = i8_bytes / calls;
}
