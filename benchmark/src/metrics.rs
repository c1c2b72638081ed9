//! The metric and workload registry: every name, unit, direction and
//! regression bound, in one place. `BENCHMARK.json` is rendered from
//! this table (`--emit-benchmark-json`) and a test keeps the committed
//! file equal to it, so the program and its contract cannot drift apart.

use crate::json::Json;
use crate::workloads::Workload;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Stable name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is a regression.
    pub bound: f64,
}

/// A per-layer metric: no bound, reported by the traced run only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    /// Stable name: crate, module or function, then the quantity.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

use Better::{Higher, Lower};

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 15;

/// The end-to-end metrics, reported on every workload. An *item* is a BSM
/// on the serve workloads and a misbehavior report on `authority_flood`;
/// a *tick* is one 100 ms slice, or one report chunk.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "items_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "rtf",
        unit: "ratio",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "tick_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tick_p90_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "ok_frac",
        unit: "ratio",
        better: Higher,
        bound: 0.005,
    },
    EndToEnd {
        name: "auroc",
        unit: "ratio",
        better: Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "revocation_accuracy",
        unit: "ratio",
        better: Higher,
        bound: 0.05,
    },
    EndToEnd {
        name: "honest_kept_frac",
        unit: "ratio",
        better: Higher,
        bound: 0.02,
    },
];

/// The per-layer metrics. A metric that does not apply to a workload
/// (the serve layers on `authority_flood`, say) reads 0 there.
pub const PER_LAYER: [PerLayer; 64] = [
    // Spans around the public calls of the drive loop.
    PerLayer {
        name: "serve.ingest_batch.busy_s",
        unit: "s",
        better: Lower,
    },
    PerLayer {
        name: "serve.ingest_batch.ns_per_bsm",
        unit: "ns",
        better: Lower,
    },
    PerLayer {
        name: "serve.ingest_batch.share",
        unit: "ratio",
        better: Lower,
    },
    PerLayer {
        name: "serve.ingest_batch.allocs_per_call",
        unit: "count",
        better: Lower,
    },
    PerLayer {
        name: "serve.tick.busy_s",
        unit: "s",
        better: Lower,
    },
    PerLayer {
        name: "serve.tick.ns_per_window",
        unit: "ns",
        better: Lower,
    },
    PerLayer {
        name: "serve.tick.share",
        unit: "ratio",
        better: Lower,
    },
    PerLayer {
        name: "serve.tick.allocs_per_tick",
        unit: "count",
        better: Lower,
    },
    PerLayer {
        name: "serve.tick.alloc_kb_per_tick",
        unit: "KiB",
        better: Lower,
    },
    PerLayer {
        name: "serve.take_reports.busy_s",
        unit: "s",
        better: Lower,
    },
    PerLayer {
        name: "serve.take_reports.reports",
        unit: "count",
        better: Higher,
    },
    PerLayer {
        name: "serve.evict_stale.busy_s",
        unit: "s",
        better: Lower,
    },
    PerLayer {
        name: "serve.evict_stale.evicted",
        unit: "count",
        better: Higher,
    },
    // Counts and gauges read off the server between ticks.
    PerLayer {
        name: "serve.tier0_suppressed_frac",
        unit: "ratio",
        better: Higher,
    },
    PerLayer {
        name: "serve.tier1_screened_frac",
        unit: "ratio",
        better: Lower,
    },
    PerLayer {
        name: "serve.tier2_escalated_frac",
        unit: "ratio",
        better: Lower,
    },
    PerLayer {
        name: "serve.shed_windows",
        unit: "count",
        better: Lower,
    },
    PerLayer {
        name: "serve.rejected_non_finite",
        unit: "count",
        better: Higher,
    },
    PerLayer {
        name: "serve.rejected_out_of_range",
        unit: "count",
        better: Higher,
    },
    PerLayer {
        name: "serve.rejected_stale",
        unit: "count",
        better: Higher,
    },
    PerLayer {
        name: "serve.pending_max",
        unit: "count",
        better: Lower,
    },
    PerLayer {
        name: "serve.vehicles_tracked_max",
        unit: "count",
        better: Lower,
    },
    PerLayer {
        name: "serve.degraded_ticks",
        unit: "count",
        better: Lower,
    },
    PerLayer {
        name: "serve.mode_switches",
        unit: "count",
        better: Lower,
    },
    PerLayer {
        name: "serve.auroc_drift",
        unit: "ratio",
        better: Lower,
    },
    // Isolated replays of each layer's own public function.
    PerLayer {
        name: "features.ingest_guard.ns_per_bsm",
        unit: "ns",
        better: Lower,
    },
    PerLayer {
        name: "features.window.ns_per_bsm",
        unit: "ns",
        better: Lower,
    },
    PerLayer {
        name: "features.monitor.ns_per_bsm",
        unit: "ns",
        better: Lower,
    },
    PerLayer {
        name: "features.monitor.evaluate_ns",
        unit: "ns",
        better: Lower,
    },
    PerLayer {
        name: "serve.shard.ingest_ns_per_bsm",
        unit: "ns",
        better: Lower,
    },
    PerLayer {
        name: "serve.shard.take_ns_per_window",
        unit: "ns",
        better: Lower,
    },
    PerLayer {
        name: "core.int8_backend.ns_per_window",
        unit: "ns",
        better: Lower,
    },
    PerLayer {
        name: "lite.int8_ensemble.ns_per_window",
        unit: "ns",
        better: Lower,
    },
    PerLayer {
        name: "core.ensemble_f32.ns_per_window",
        unit: "ns",
        better: Lower,
    },
    PerLayer {
        name: "tensor.gemm_i8.gops",
        unit: "Gop/s",
        better: Higher,
    },
    PerLayer {
        name: "tensor.gemm_i8.bytes_per_call",
        unit: "B",
        better: Lower,
    },
    PerLayer {
        name: "tensor.gemm_f32.gflops",
        unit: "GFLOP/s",
        better: Higher,
    },
    PerLayer {
        name: "tensor.gemm_f32.bytes_per_call",
        unit: "B",
        better: Lower,
    },
    // The authority and the CRL.
    PerLayer {
        name: "mbr.authority.busy_s",
        unit: "s",
        better: Lower,
    },
    PerLayer {
        name: "mbr.authority.ns_per_report",
        unit: "ns",
        better: Lower,
    },
    PerLayer {
        name: "mbr.authority.share",
        unit: "ratio",
        better: Lower,
    },
    PerLayer {
        name: "mbr.authority.convictions",
        unit: "count",
        better: Higher,
    },
    PerLayer {
        name: "mbr.authority.pending_suspects",
        unit: "count",
        better: Lower,
    },
    PerLayer {
        name: "mbr.authority.serial_ns_per_report",
        unit: "ns",
        better: Lower,
    },
    PerLayer {
        name: "mbr.authority.sharded_ns_per_report",
        unit: "ns",
        better: Lower,
    },
    PerLayer {
        name: "mbr.crl.delta_ns_per_op",
        unit: "ns",
        better: Lower,
    },
    PerLayer {
        name: "mbr.crl.apply_ns_per_op",
        unit: "ns",
        better: Lower,
    },
    PerLayer {
        name: "mbr.crl.entries",
        unit: "count",
        better: Higher,
    },
    // Set-up.
    PerLayer {
        name: "core.train_s",
        unit: "s",
        better: Lower,
    },
    PerLayer {
        name: "core.compile_int8_s",
        unit: "s",
        better: Lower,
    },
    PerLayer {
        name: "features.tier0_fit_s",
        unit: "s",
        better: Lower,
    },
    PerLayer {
        name: "sim.ns_per_bsm",
        unit: "ns",
        better: Lower,
    },
    PerLayer {
        name: "vasp.inject_ns_per_bsm",
        unit: "ns",
        better: Lower,
    },
    // Derived: isolated ns/item × the item counts the server reported,
    // as shares of ingest_batch + tick busy time.
    PerLayer {
        name: "attr.guard.share",
        unit: "ratio",
        better: Lower,
    },
    PerLayer {
        name: "attr.window.share",
        unit: "ratio",
        better: Lower,
    },
    PerLayer {
        name: "attr.tier0.share",
        unit: "ratio",
        better: Lower,
    },
    PerLayer {
        name: "attr.tier1.share",
        unit: "ratio",
        better: Lower,
    },
    PerLayer {
        name: "attr.tier2.share",
        unit: "ratio",
        better: Lower,
    },
    PerLayer {
        name: "attr.mbr.share",
        unit: "ratio",
        better: Lower,
    },
    PerLayer {
        name: "serve.glue.share",
        unit: "ratio",
        better: Lower,
    },
    // The tracer itself.
    PerLayer {
        name: "trace.overhead_frac",
        unit: "ratio",
        better: Lower,
    },
    PerLayer {
        name: "trace.self_time_cover",
        unit: "ratio",
        better: Higher,
    },
    PerLayer {
        name: "trace.spans",
        unit: "count",
        better: Lower,
    },
    PerLayer {
        name: "trace.replays",
        unit: "count",
        better: Higher,
    },
];

/// One line per workload: why it exists.
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::CityBenign => {
            "2 % attackers: tier 0 suppresses ~70 % of windows and tier 2 sees ~1 %, so the int8 gate on the rest, per-BSM work and window copies are all there is"
        }
        Workload::CityAttack => {
            "25 % persistent attackers: monitors trip, 8 % of windows escalate to the f32 ensemble (a quarter of tick time), flagged ones become reports and convictions land on the CRL"
        }
        Workload::ChurnHostile => {
            "2 s pseudonym re-keying, TTL/LRU eviction, 5 % corrupted BSMs, bounded admission and a 4x burst: state churn, refusal, shedding, degradation"
        }
        Workload::AuthorityFlood => {
            "the misbehavior authority and CRL alone under 1.2 M reports with real 120-float evidence; crates/serve, lite and core do nothing here"
        }
    }
}

/// The contents of `/BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let workloads: Vec<Json> = Workload::ALL
        .into_iter()
        .map(|w| Json::obj().with("name", w.name()).with("why", why(w)))
        .collect();
    let end_to_end: Vec<Json> = END_TO_END
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
                .with("bound", m.bound)
        })
        .collect();
    let per_layer: Vec<Json> = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
        })
        .collect();
    Json::obj()
        .with("command", vec!["bash", "benchmark/run.sh"])
        .with("paths", vec!["benchmark"])
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

/// The text of `/BENCHMARK.json`: [`benchmark_json`] with the top two
/// levels one entry per line, so the committed file diffs by metric.
pub fn benchmark_json_text() -> String {
    let mut text = pretty(&benchmark_json(), 0);
    text.push('\n');
    text
}

/// Renders the top two levels of `j` one entry per line; deeper values
/// stay on one line.
fn pretty(j: &Json, depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    let close = "  ".repeat(depth);
    match j {
        Json::Obj(fields) if depth < 1 => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{pad}{}: {}",
                        Json::from(k.as_str()).render(),
                        pretty(v, depth + 1)
                    )
                })
                .collect();
            format!("{{\n{}\n{close}}}", body.join(",\n"))
        }
        Json::Arr(items) if depth < 2 && items.iter().any(|i| matches!(i, Json::Obj(_))) => {
            let body: Vec<String> = items
                .iter()
                .map(|i| format!("{pad}{}", i.render()))
                .collect();
            format!("[\n{}\n{close}]", body.join(",\n"))
        }
        other => other.render(),
    }
}

/// A set of measured values, checked against a registry when rendered.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// An empty set.
    pub fn new() -> Values {
        Values::default()
    }

    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` was already recorded — a bug in the caller.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.0.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Renders `{"name": {"value": v, "unit": u}, …}` in registry order.
    ///
    /// # Panics
    ///
    /// Panics unless exactly the registry's names were recorded: a
    /// missing or stray metric is a bug in the benchmark, not a result.
    pub fn render(&self, registry: &[(&'static str, &'static str)]) -> Json {
        assert_eq!(
            self.0.len(),
            registry.len(),
            "recorded metrics do not match the registry"
        );
        let mut out = Json::obj();
        for (name, unit) in registry {
            let value = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was never recorded"));
            out.set(name, Json::obj().with("value", value).with("unit", *unit));
        }
        out
    }
}

/// `(name, unit)` of every end-to-end metric.
pub fn end_to_end_registry() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

/// `(name, unit)` of every per-layer metric.
pub fn per_layer_registry() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}
