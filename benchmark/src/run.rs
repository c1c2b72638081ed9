//! One benchmark run: set up, measure (or trace), judge, and assemble
//! the record. `main` only parses arguments and prints what this returns.

use crate::detector::{self, Detector};
use crate::drive::{replay, NoProbe, Replay, ServePlan, Stage};
use crate::flood::{self, FloodGen, FloodReplay, FloodSpec};
use crate::gen::{build_stream, Stream};
use crate::host;
use crate::json::Json;
use crate::metrics::{end_to_end_registry, per_layer_registry, Values, PER_LAYER};
use crate::serve;
use crate::stats::median;
use crate::timing::Timing;
use crate::trace::{isolate, Isolated, Tracer};
use crate::workloads::{serve_plan, Workload};
use crate::{alloc, check};
use std::path::PathBuf;
use std::time::Instant;
use vehigan_mbr::MisbehaviorAuthority;
use vehigan_sim::BSM_INTERVAL_S;

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: same seed, same inputs.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Shrunken sizes to check the harness; numbers are not comparable.
    pub smoke: bool,
}

/// What a run produced.
pub struct Outcome {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations the program got wrong.
    pub failed: u64,
    /// The contract's metrics: end-to-end, or per-layer when traced.
    pub metrics: Json,
    /// The full record: host block, every replay's values, exact
    /// metrics, counts, violations.
    pub record: Json,
    /// `(name, value, unit)` rows for the human table.
    pub table: Vec<(String, f64, String)>,
    /// Correctness violations.
    pub violations: Vec<String>,
}

/// Full set-ups an end-to-end run makes at the least; `setup_s` is the
/// median of their wall times.
const MIN_SETUPS: usize = 3;
/// A set-up that takes milliseconds (the flood's) is repeated until the
/// set-ups add up to this long, so its median is not timer noise.
const MIN_SETUP_TOTAL_S: f64 = 1.0;
/// …but never more often than this.
const MAX_SETUPS: usize = 101;

/// Where the span files go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs `build` several times — once when `once` (traced and smoke
/// runs, which do not report `setup_s`) — returning the last product and
/// the median wall time of one set-up.
fn set_up<T>(once: bool, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(MAX_SETUPS);
    let mut last = None;
    loop {
        // Drop the previous product first so peak memory is one set-up's.
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= MIN_SETUPS && times.iter().sum::<f64>() >= MIN_SETUP_TOTAL_S;
        if once || enough || times.len() >= MAX_SETUPS {
            break;
        }
    }
    (last.expect("at least one set-up"), median(&times))
}

fn table_of(
    values: &Values,
    registry: &[(&'static str, &'static str)],
) -> Vec<(String, f64, String)> {
    registry
        .iter()
        .map(|(n, u)| {
            (
                n.to_string(),
                values.get(n).unwrap_or(f64::NAN),
                u.to_string(),
            )
        })
        .collect()
}

fn record_head(args: &Args, replays: usize) -> Json {
    Json::obj()
        .with("benchmark", "vehigan BSM->revocation ledger")
        .with("workload", args.workload.name())
        .with("smoke", args.smoke)
        .with("trace", args.trace)
        .with("seconds", args.seconds)
        .with("host", host::block(args.seed, replays))
        .with("peak_rss_mib_incl_setup", host::peak_rss_mib())
}

/// Runs one workload.
pub fn run(args: &Args) -> Outcome {
    match (args.workload, args.trace) {
        (Workload::AuthorityFlood, false) => flood_end_to_end(args),
        (Workload::AuthorityFlood, true) => flood_traced(args),
        (_, false) => serve_end_to_end(args),
        (_, true) => serve_traced(args),
    }
}

fn serve_set_up(args: &Args) -> ((Detector, Stream), f64) {
    let spec = args
        .workload
        .stream_spec(args.smoke)
        .expect("serve workload has a stream");
    set_up(args.smoke || args.trace, || {
        let detector = detector::build();
        let window = detector.pipeline.config.window.window;
        let stream = build_stream(&spec, window, args.seed);
        (detector, stream)
    })
}

fn serve_end_to_end(args: &Args) -> Outcome {
    let ((detector, stream), setup_s) = serve_set_up(args);
    let plan = serve_plan(args.workload, &detector, &stream);
    let run = serve::run(&plan, &stream, args.seconds);

    let measured = Measured {
        setup_s,
        timing: &run.timing,
        items: stream.bsms.len() as u64,
        offered_per_s: stream.live_vehicles as f64 / BSM_INTERVAL_S,
        peak_heap_bytes: run.peak_heap_bytes,
        tally: &run.tally,
        auroc: run.quality.auroc,
        revocation_accuracy: run.quality.revocation_accuracy,
        honest_revoked_frac: run.quality.honest_revoked_frac,
        exact: serve_exact(&run.observed, &run.quality, &run.tally),
        counts: serve_counts(&stream, &run.observed),
    };
    finish_end_to_end(args, measured, run.violations)
}

/// What an end-to-end run measured, whichever workload it ran.
struct Measured<'a> {
    setup_s: f64,
    timing: &'a Timing,
    /// Items (BSMs, or reports on the flood) one replay offers…
    items: u64,
    /// …and the rate they arrive at in stream time.
    offered_per_s: f64,
    peak_heap_bytes: usize,
    tally: &'a check::Tally,
    auroc: f64,
    revocation_accuracy: f64,
    honest_revoked_frac: f64,
    /// The record's `exact` and `counts` blocks.
    exact: Json,
    counts: Json,
}

/// Turns what was measured into the ten end-to-end metrics and the record.
fn finish_end_to_end(args: &Args, m: Measured<'_>, mut violations: Vec<String>) -> Outcome {
    let items_per_s = m.timing.items_per_s(m.items);
    let (p50, p90) = m.timing.tick_percentiles_ms(&mut violations);
    let mut values = Values::new();
    values.put("setup_s", m.setup_s);
    values.put("items_per_s", items_per_s);
    values.put("rtf", items_per_s / m.offered_per_s);
    values.put("tick_p50_ms", p50);
    values.put("tick_p90_ms", p90);
    values.put("peak_heap_mb", m.peak_heap_bytes as f64 / (1024.0 * 1024.0));
    values.put("ok_frac", m.tally.ok_frac());
    values.put("auroc", m.auroc);
    values.put("revocation_accuracy", m.revocation_accuracy);
    values.put("honest_kept_frac", 1.0 - m.honest_revoked_frac);

    let registry = end_to_end_registry();
    let metrics = values.render(&registry);
    let record = record_head(args, m.timing.replays())
        .with("end_to_end", metrics.clone())
        .with("replays", raw_replays(m.timing, m.items))
        .with("exact", m.exact)
        .with("counts", m.counts)
        .with("violations", violations.clone());
    Outcome {
        correct: violations.is_empty(),
        attempted: m.tally.attempted(),
        failed: m.tally.failed(),
        metrics,
        record,
        table: table_of(&values, &registry),
        violations,
    }
}

/// Each measured replay's own numbers, before the per-tick minimum is
/// taken across them.
fn raw_replays(timing: &Timing, items: u64) -> Json {
    Json::obj()
        .with("items_per_s", timing.raw_items_per_s(items))
        .with("tick_p50_ms", timing.raw_tick_p50_ms())
        .with("scoring_ticks_per_replay", timing.scoring_ticks())
}

/// The metrics that are pure functions of seed and code: two runs of
/// one commit must agree on every one of them exactly.
fn serve_exact(observed: &Replay, quality: &serve::Quality, tally: &check::Tally) -> Json {
    Json::obj()
        .with("decision_fnv", format!("{:016x}", observed.fnv))
        .with("failed_frac", 1.0 - tally.ok_frac())
        .with("auroc", quality.auroc)
        .with("auroc_drift", quality.auroc_drift())
        .with("attacker_revoked_frac", quality.attacker_revoked_frac)
        .with("honest_revoked_frac", quality.honest_revoked_frac)
        .with("revocation_accuracy", quality.revocation_accuracy)
}

fn serve_counts(stream: &Stream, observed: &Replay) -> Json {
    let s = &observed.stats;
    Json::obj()
        .with("bsms", stream.bsms.len())
        .with("live_vehicles", stream.live_vehicles)
        .with("pseudonyms", stream.owner.len())
        .with("attackers", stream.attacker.iter().filter(|&&a| a).count())
        .with("slices", stream.slices.len())
        .with("driver_ticks", observed.service_s.len())
        .with("windows_completed", stream.completes.iter().sum::<u64>())
        .with("windows_scored", s.windows_scored)
        .with("tier0_suppressed", s.tier0_suppressed)
        .with("tier1_screened", s.tier1_screened)
        .with("tier2_escalated", s.tier2_escalated)
        .with("shed", s.shed)
        .with("evicted", s.evicted)
        .with("rejected_non_finite", s.rejected.non_finite)
        .with("rejected_out_of_range", s.rejected.out_of_range)
        .with("rejected_stale", s.rejected.stale)
        .with("degraded_ticks", s.degraded_ticks)
        .with("mode_switches", s.mode_switches)
        .with("reports_emitted", s.reports_emitted)
        .with("authority_accepted", observed.authority.accepted)
        .with(
            "authority_already_revoked",
            observed.authority.already_revoked,
        )
        .with("convictions", observed.authority.convictions)
        .with("crl_entries", observed.crl.len())
}

/// The isolated per-item costs as metric values.
fn put_isolated(values: &mut Values, iso: &Isolated) {
    values.put("features.ingest_guard.ns_per_bsm", iso.guard_ns_per_bsm);
    values.put("features.window.ns_per_bsm", iso.window_ns_per_bsm);
    values.put("features.monitor.ns_per_bsm", iso.monitor_ns_per_bsm);
    values.put("features.monitor.evaluate_ns", iso.monitor_evaluate_ns);
    values.put("serve.shard.ingest_ns_per_bsm", iso.shard_ingest_ns_per_bsm);
    values.put(
        "serve.shard.take_ns_per_window",
        iso.shard_take_ns_per_window,
    );
    values.put(
        "core.int8_backend.ns_per_window",
        iso.int8_backend_ns_per_window,
    );
    values.put(
        "lite.int8_ensemble.ns_per_window",
        iso.int8_ensemble_ns_per_window,
    );
    values.put("core.ensemble_f32.ns_per_window", iso.f32_ns_per_window);
    values.put("tensor.gemm_i8.gops", iso.gemm_i8_gops);
    values.put("tensor.gemm_i8.bytes_per_call", iso.gemm_i8_bytes_per_call);
    values.put("tensor.gemm_f32.gflops", iso.gemm_f32_gflops);
    values.put(
        "tensor.gemm_f32.bytes_per_call",
        iso.gemm_f32_bytes_per_call,
    );
}

/// Records 0 for every per-layer metric not yet recorded: the layers a
/// workload does not run.
fn zero_the_rest(values: &mut Values) {
    for m in &PER_LAYER {
        if values.get(m.name).is_none() {
            values.put(m.name, 0.0);
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Alternates untraced and traced replays (`one(None)` / `one(Some)`,
/// each returning its per-tick service times) for about `seconds`
/// seconds, at least two of each. Alternating makes both sides sample the
/// same stretches of a host whose speed drifts. Allocation counting is on
/// only inside the traced replays.
fn alternate(
    seconds: f64,
    tracer: &mut Tracer,
    violations: &mut Vec<String>,
    mut one: impl FnMut(Option<&mut Tracer>) -> Vec<f64>,
) -> (Timing, Timing) {
    let started = Instant::now();
    let mut sides: Option<(Timing, Timing)> = None;
    let mut pair_s = 0.0;
    loop {
        let pair = Instant::now();
        let plain_s = one(None);
        alloc::enable(true);
        let traced_s = one(Some(tracer));
        alloc::enable(false);
        let (plain, traced) = sides.get_or_insert_with(|| {
            let every_tick = vec![true; plain_s.len()];
            (Timing::new(every_tick.clone()), Timing::new(every_tick))
        });
        for (side, service_s) in [(&mut *plain, plain_s), (&mut *traced, traced_s)] {
            if let Err(e) = side.push(service_s) {
                violations.push(e);
            }
        }
        if plain.replays() == 1 {
            pair_s = pair.elapsed().as_secs_f64();
        } else if started.elapsed().as_secs_f64() + pair_s > seconds {
            break;
        }
    }
    sides.expect("at least two pairs of replays")
}

fn serve_traced(args: &Args) -> Outcome {
    let ((detector, stream), _) = serve_set_up(args);
    let plan: ServePlan<'_> = serve_plan(args.workload, &detector, &stream);

    // Counts, gauges and quality come from an observed replay; spans
    // from traced ones; neither feeds an end-to-end number.
    let observed = replay(&plan, &stream, true, &mut NoProbe);
    let (quality, tally, mut violations) = serve::judge(&plan, &stream, &observed);

    let mut tracer = Tracer::new();
    let mut last_traced: Option<Replay> = None;
    let (plain, traced) = alternate(args.seconds, &mut tracer, &mut violations, |t| match t {
        None => replay(&plan, &stream, false, &mut NoProbe).service_s,
        Some(t) => {
            let r = replay(&plan, &stream, false, t);
            let service_s = r.service_s.clone();
            last_traced = Some(r);
            service_s
        }
    });
    let last = last_traced.expect("at least one traced replay");
    let last_id = traced.replays() as u32;
    if last.fnv != observed.fnv {
        violations.push("traced replay diverged from the observed one".to_string());
    }

    // The (screened, escalated) window counts of every observed tick:
    // the call shapes the isolated scoring replay reproduces.
    let mut prev = (0u64, 0u64);
    let tick_shapes: Vec<(usize, usize)> = observed
        .ticks
        .iter()
        .map(|t| {
            let scored_not_suppressed = t.stats.windows_scored - t.stats.tier0_suppressed;
            let shape = (
                (scored_not_suppressed - prev.0) as usize,
                (t.stats.tier2_escalated - prev.1) as usize,
            );
            prev = (scored_not_suppressed, t.stats.tier2_escalated);
            shape
        })
        .collect();
    let iso = isolate(&detector, &stream, &tick_shapes);

    let stage = |s: Stage| tracer.stage(last_id, s);
    let ingest = stage(Stage::IngestBatch);
    let tick = stage(Stage::Tick);
    let take = stage(Stage::TakeReports);
    let evict = stage(Stage::EvictStale);
    let authority = stage(Stage::AuthorityIngest);
    let crl_delta = stage(Stage::CrlDelta);
    let crl_apply = stage(Stage::CrlApply);
    let busy_total = traced.busy_s();
    let serve_busy = ingest.busy_s + tick.busy_s;

    let s = &observed.stats;
    let scored = s.windows_scored as f64;
    let accepted = (s.ingested - s.rejected.total()) as f64;
    let completed = stream.completes.iter().sum::<u64>() as f64;
    // `ingest_batch` fans the shards out over threads; the isolated
    // replays are single-threaded, so their time is divided by the best
    // speed-up the fan-out can reach. That can only under-attribute.
    let fan_out = plan.server.n_shards.min(host::nproc()).max(1) as f64;
    let attr_guard = iso.guard_ns_per_bsm * 1e-9 * s.ingested as f64 / fan_out;
    let attr_window = iso.window_ns_per_bsm * 1e-9 * accepted / fan_out;
    let attr_tier0 =
        (iso.monitor_ns_per_bsm * accepted + iso.monitor_evaluate_ns * completed) * 1e-9 / fan_out;
    let attr_tier1 =
        iso.int8_backend_ns_per_window * 1e-9 * (s.windows_scored - s.tier0_suppressed) as f64;
    let attr_tier2 = iso.f32_ns_per_window * 1e-9 * s.tier2_escalated as f64;
    let attributed = attr_guard + attr_window + attr_tier0 + attr_tier1 + attr_tier2;

    let mut values = Values::new();
    values.put("serve.ingest_batch.busy_s", ingest.busy_s);
    values.put(
        "serve.ingest_batch.ns_per_bsm",
        ratio(ingest.busy_s * 1e9, ingest.items as f64),
    );
    values.put("serve.ingest_batch.share", ratio(ingest.busy_s, busy_total));
    values.put(
        "serve.ingest_batch.allocs_per_call",
        ratio(ingest.steady_allocs as f64, ingest.steady_calls as f64),
    );
    values.put("serve.tick.busy_s", tick.busy_s);
    values.put(
        "serve.tick.ns_per_window",
        ratio(tick.busy_s * 1e9, tick.items as f64),
    );
    values.put("serve.tick.share", ratio(tick.busy_s, busy_total));
    values.put(
        "serve.tick.allocs_per_tick",
        ratio(tick.steady_allocs as f64, tick.steady_calls as f64),
    );
    values.put(
        "serve.tick.alloc_kb_per_tick",
        ratio(
            tick.steady_alloc_bytes as f64 / 1024.0,
            tick.steady_calls as f64,
        ),
    );
    values.put("serve.take_reports.busy_s", take.busy_s);
    values.put("serve.take_reports.reports", take.items as f64);
    values.put("serve.evict_stale.busy_s", evict.busy_s);
    values.put("serve.evict_stale.evicted", evict.items as f64);
    values.put(
        "serve.tier0_suppressed_frac",
        ratio(s.tier0_suppressed as f64, scored),
    );
    values.put(
        "serve.tier1_screened_frac",
        ratio(s.tier1_screened as f64, scored),
    );
    values.put(
        "serve.tier2_escalated_frac",
        ratio(s.tier2_escalated as f64, scored),
    );
    values.put("serve.shed_windows", s.shed as f64);
    values.put("serve.rejected_non_finite", s.rejected.non_finite as f64);
    values.put(
        "serve.rejected_out_of_range",
        s.rejected.out_of_range as f64,
    );
    values.put("serve.rejected_stale", s.rejected.stale as f64);
    values.put(
        "serve.pending_max",
        observed
            .ticks
            .iter()
            .map(|t| t.decisions + t.pending_after)
            .max()
            .unwrap_or(0) as f64,
    );
    values.put(
        "serve.vehicles_tracked_max",
        observed
            .ticks
            .iter()
            .map(|t| t.vehicles_tracked)
            .max()
            .unwrap_or(0) as f64,
    );
    values.put("serve.degraded_ticks", s.degraded_ticks as f64);
    values.put("serve.mode_switches", s.mode_switches as f64);
    values.put("serve.auroc_drift", quality.auroc_drift());
    put_isolated(&mut values, &iso);
    values.put("mbr.authority.busy_s", authority.busy_s);
    values.put(
        "mbr.authority.ns_per_report",
        ratio(authority.busy_s * 1e9, authority.items as f64),
    );
    values.put("mbr.authority.share", ratio(authority.busy_s, busy_total));
    values.put(
        "mbr.authority.convictions",
        observed.authority.convictions as f64,
    );
    values.put(
        "mbr.authority.pending_suspects",
        observed.pending_suspects as f64,
    );
    values.put(
        "mbr.crl.delta_ns_per_op",
        ratio(crl_delta.busy_s * 1e9, crl_delta.items as f64),
    );
    values.put(
        "mbr.crl.apply_ns_per_op",
        ratio(crl_apply.busy_s * 1e9, crl_apply.items as f64),
    );
    values.put("mbr.crl.entries", observed.crl.len() as f64);
    values.put("core.train_s", detector.timings.train_s);
    values.put("core.compile_int8_s", detector.timings.compile_int8_s);
    values.put("features.tier0_fit_s", detector.timings.tier0_fit_s);
    values.put(
        "sim.ns_per_bsm",
        ratio(stream.sim_s * 1e9, stream.bsms.len() as f64),
    );
    values.put(
        "vasp.inject_ns_per_bsm",
        ratio(stream.inject_s * 1e9, stream.inject_bsms as f64),
    );
    values.put("attr.guard.share", ratio(attr_guard, serve_busy));
    values.put("attr.window.share", ratio(attr_window, serve_busy));
    values.put("attr.tier0.share", ratio(attr_tier0, serve_busy));
    values.put("attr.tier1.share", ratio(attr_tier1, serve_busy));
    values.put("attr.tier2.share", ratio(attr_tier2, serve_busy));
    values.put(
        "attr.mbr.share",
        ratio(
            authority.busy_s + crl_delta.busy_s + crl_apply.busy_s,
            busy_total,
        ),
    );
    // Reported, not gated: the spans and the isolated replays are timed
    // seconds apart, and when the host's speed changes in between the
    // remainder reads a tenth too high or too low (even below 0).
    values.put("serve.glue.share", 1.0 - ratio(attributed, serve_busy));
    put_tracer(
        &mut values,
        &tracer,
        &plain,
        &traced,
        last_id,
        last.wall_s,
        &mut violations,
    );
    zero_the_rest(&mut values);
    finish_traced(
        args,
        values,
        tracer,
        &tally,
        violations,
        serve_exact(&observed, &quality, &tally),
    )
}

/// Records the tracer's own metrics and checks its accounting: span
/// self times must sum to the replay's independently measured wall
/// clock within 3 %. The overhead compares the timed sections of the
/// traced and untraced replays the way every timing is combined (per-tick
/// minimum over replays), so one slow replay does not read as overhead.
fn put_tracer(
    values: &mut Values,
    tracer: &Tracer,
    plain: &Timing,
    traced: &Timing,
    last_id: u32,
    last_wall_s: f64,
    violations: &mut Vec<String>,
) {
    let cover = tracer.cover(last_id, last_wall_s);
    values.put(
        "trace.overhead_frac",
        (traced.busy_s() - plain.busy_s()) / plain.busy_s(),
    );
    values.put("trace.self_time_cover", cover);
    values.put("trace.spans", tracer.spans().len() as f64);
    values.put("trace.replays", traced.replays() as f64);
    if (cover - 1.0).abs() > 0.03 {
        violations.push(format!(
            "span self times cover {cover} of the replay's wall clock (want 1 ± 0.03)"
        ));
    }
}

fn finish_traced(
    args: &Args,
    values: Values,
    tracer: Tracer,
    tally: &check::Tally,
    mut violations: Vec<String>,
    exact: Json,
) -> Outcome {
    let path = out_dir().join(format!("trace-{}.jsonl", args.workload.name()));
    if let Err(e) = tracer.write_jsonl(&path) {
        violations.push(format!("cannot write {}: {e}", path.display()));
    }
    let registry = per_layer_registry();
    let metrics = values.render(&registry);
    let record = record_head(
        args,
        tracer.spans().iter().filter(|s| s.name == "replay").count(),
    )
    .with("per_layer", metrics.clone())
    .with("exact", exact)
    .with("span_file", path.display().to_string())
    .with("violations", violations.clone());
    Outcome {
        correct: violations.is_empty(),
        attempted: tally.attempted(),
        failed: tally.failed(),
        metrics,
        record,
        table: table_of(&values, &registry),
        violations,
    }
}

// ---- authority_flood ----

fn flood_set_up(args: &Args) -> (FloodGen, f64) {
    // The evidence length the server really emits: window × features of
    // the paper's 10 × 12 snapshot.
    let spec = FloodSpec::new(args.smoke, 120);
    set_up(args.smoke || args.trace, || FloodGen::new(spec, args.seed))
}

/// Checks a flood replay and tallies it.
fn flood_judge(first: &FloodReplay, violations: &mut Vec<String>) -> check::Tally {
    if first.stats.rejected > 0 {
        violations.push(format!(
            "authority rejected {} well-formed reports",
            first.stats.rejected
        ));
    }
    if first.unbalanced_chunks > 0 {
        violations.push(format!(
            "{} chunks whose BatchReport does not add up",
            first.unbalanced_chunks
        ));
    }
    if first.mirror != first.crl {
        violations.push("mirror CRL differs from the authority's CRL".to_string());
    }
    check::Tally {
        reports_rejected: first.stats.rejected,
        reports: first.reports,
        ..check::Tally::default()
    }
}

fn flood_same(a: &FloodReplay, b: &FloodReplay) -> bool {
    a.fnv == b.fnv && a.stats == b.stats && a.crl == b.crl
}

fn flood_exact(first: &FloodReplay, q: &flood::FloodQuality, tally: &check::Tally) -> Json {
    Json::obj()
        .with("decision_fnv", format!("{:016x}", first.fnv))
        .with("failed_frac", 1.0 - tally.ok_frac())
        .with("auroc", q.auroc())
        .with("attacker_revoked_frac", q.attacker_revoked_frac)
        .with("honest_revoked_frac", q.honest_revoked_frac)
        .with("revocation_accuracy", q.revocation_accuracy)
}

fn flood_end_to_end(args: &Args) -> Outcome {
    let (mut gen, setup_s) = flood_set_up(args);
    let spec = *gen.spec();
    // The first replay warms up and is the one judged.
    let first = flood::replay(&mut gen, &mut NoProbe);
    let started = Instant::now();
    let mut violations = Vec::new();
    let tally = flood_judge(&first, &mut violations);
    let mut timing = Timing::new(vec![true; first.service_s.len()]);
    let mut peak_heap_bytes = 0usize;
    while timing.replays() < serve::MIN_MEASURED_REPLAYS
        || started.elapsed().as_secs_f64() + first.wall_s <= args.seconds
    {
        let r = flood::replay(&mut gen, &mut NoProbe);
        if !flood_same(&r, &first) {
            violations.push(format!(
                "replay diverged: conviction fnv {:016x} vs {:016x}",
                r.fnv, first.fnv
            ));
        }
        peak_heap_bytes = peak_heap_bytes.max(r.peak_heap_bytes);
        if let Err(e) = timing.push(r.service_s) {
            violations.push(e);
        }
    }
    let q = flood::quality(&spec, &first.crl);
    let measured = Measured {
        setup_s,
        timing: &timing,
        items: first.reports,
        offered_per_s: first.reports as f64 / f64::from(spec.horizon_s),
        peak_heap_bytes,
        tally: &tally,
        auroc: q.auroc(),
        revocation_accuracy: q.revocation_accuracy,
        honest_revoked_frac: q.honest_revoked_frac,
        exact: flood_exact(&first, &q, &tally),
        counts: Json::obj()
            .with("reports", first.reports)
            .with("chunks", spec.chunks() as usize)
            .with("accepted", first.stats.accepted)
            .with("convictions", first.stats.convictions)
            .with("extensions", first.stats.extensions)
            .with("pending_suspects", first.pending_suspects)
            .with("crl_entries", first.crl.len())
            .with("crl_delta_ops", first.delta_ops)
            .with("crl_snapshot_deltas", first.snapshot_deltas),
    };
    finish_end_to_end(args, measured, violations)
}

/// Chunks the serial-vs-sharded comparison ingests each way.
const SERIAL_VS_SHARDED_CHUNKS: u32 = 25;

fn flood_traced(args: &Args) -> Outcome {
    let (mut gen, _) = flood_set_up(args);
    let spec = *gen.spec();
    let first = flood::replay(&mut gen, &mut NoProbe);
    let mut violations = Vec::new();
    let tally = flood_judge(&first, &mut violations);

    let mut tracer = Tracer::new();
    let mut last_traced: Option<FloodReplay> = None;
    let (plain, traced) = alternate(args.seconds, &mut tracer, &mut violations, |t| match t {
        None => flood::replay(&mut gen, &mut NoProbe).service_s,
        Some(t) => {
            let r = flood::replay(&mut gen, t);
            let service_s = r.service_s.clone();
            last_traced = Some(r);
            service_s
        }
    });
    let last = last_traced.expect("at least one traced replay");
    let last_id = traced.replays() as u32;
    if !flood_same(&last, &first) {
        violations.push("traced replay diverged from the first one".to_string());
    }

    // Serial `ingest_ref` against sharded `ingest_batch`, the same
    // chunks through a fresh authority each way.
    let chunks = SERIAL_VS_SHARDED_CHUNKS.min(spec.chunks());
    let (mut serial_s, mut sharded_s, mut n_reports) = (0.0f64, 0.0f64, 0u64);
    let mut serial = MisbehaviorAuthority::new(spec.policy());
    let mut sharded = MisbehaviorAuthority::new(spec.policy());
    for c in 0..chunks {
        let reports = gen.chunk(c);
        n_reports += reports.len() as u64;
        let t = Instant::now();
        for r in reports {
            std::hint::black_box(serial.ingest_ref(r));
        }
        serial_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(sharded.ingest_batch(reports));
        sharded_s += t.elapsed().as_secs_f64();
    }
    if serial.crl() != sharded.crl() || serial.stats() != sharded.stats() {
        violations.push("serial and sharded ingest decided differently".to_string());
    }

    let stage = |s: Stage| tracer.stage(last_id, s);
    let authority = stage(Stage::AuthorityIngest);
    let crl_delta = stage(Stage::CrlDelta);
    let crl_apply = stage(Stage::CrlApply);
    let busy_total = traced.busy_s();
    let mut values = Values::new();
    values.put("mbr.authority.busy_s", authority.busy_s);
    values.put(
        "mbr.authority.ns_per_report",
        ratio(authority.busy_s * 1e9, authority.items as f64),
    );
    values.put("mbr.authority.share", ratio(authority.busy_s, busy_total));
    values.put("mbr.authority.convictions", first.stats.convictions as f64);
    values.put(
        "mbr.authority.pending_suspects",
        first.pending_suspects as f64,
    );
    values.put(
        "mbr.authority.serial_ns_per_report",
        ratio(serial_s * 1e9, n_reports as f64),
    );
    values.put(
        "mbr.authority.sharded_ns_per_report",
        ratio(sharded_s * 1e9, n_reports as f64),
    );
    values.put(
        "mbr.crl.delta_ns_per_op",
        ratio(crl_delta.busy_s * 1e9, crl_delta.items as f64),
    );
    values.put(
        "mbr.crl.apply_ns_per_op",
        ratio(crl_apply.busy_s * 1e9, crl_apply.items as f64),
    );
    values.put("mbr.crl.entries", first.crl.len() as f64);
    values.put(
        "attr.mbr.share",
        ratio(
            authority.busy_s + crl_delta.busy_s + crl_apply.busy_s,
            busy_total,
        ),
    );
    put_tracer(
        &mut values,
        &tracer,
        &plain,
        &traced,
        last_id,
        last.wall_s,
        &mut violations,
    );
    zero_the_rest(&mut values);

    let q = flood::quality(&spec, &first.crl);
    finish_traced(
        args,
        values,
        tracer,
        &tally,
        violations,
        flood_exact(&first, &q, &tally),
    )
}
