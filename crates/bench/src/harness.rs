//! Shared experiment harness: scale presets, trained-system setup, the
//! per-model score cache, and CSV output helpers.

use std::fs;
use std::path::{Path, PathBuf};
use vehigan_core::{score_matrix, GridConfig, Pipeline, PipelineConfig, Wgan};
use vehigan_features::{WindowConfig, WindowDataset};
use vehigan_sim::SimConfig;
use vehigan_tensor::Tensor;
use vehigan_vasp::Attack;

/// Experiment scale preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CPU-minutes scale: 12-model zoo, small fleet. Preserves every
    /// experimental shape; default.
    Quick,
    /// Paper-parameter scale: 60-model zoo (5 noise dims × 3 layer counts
    /// × 4 epoch budgets), larger fleet. Hours of CPU.
    Paper,
}

impl Scale {
    /// Parses `"quick"` / `"paper"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The pipeline configuration for this scale.
    pub(crate) fn pipeline_config(self) -> PipelineConfig {
        match self {
            Scale::Quick => PipelineConfig {
                sim: SimConfig {
                    n_vehicles: 32,
                    duration_s: 120.0,
                    seed: 42,
                    ..SimConfig::default()
                },
                window: WindowConfig {
                    stride: 4,
                    ..WindowConfig::default()
                },
                grid: GridConfig::quick(),
                top_m: 10,
                deploy_k: 5,
                zoo_threads: num_threads(),
                ..PipelineConfig::quick()
            },
            Scale::Paper => PipelineConfig {
                sim: SimConfig {
                    n_vehicles: 150,
                    duration_s: 600.0,
                    seed: 42,
                    ..SimConfig::default()
                },
                window: WindowConfig {
                    stride: 2,
                    ..WindowConfig::default()
                },
                grid: GridConfig::paper(),
                top_m: 10,
                deploy_k: 5,
                zoo_threads: num_threads(),
                ..PipelineConfig::quick()
            },
        }
    }
}

fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// A trained system plus cached per-member scores on every Table III
/// attack — computed once, reused by Figs 3/4/7 and Table III.
pub struct Harness {
    /// The trained pipeline (zoo + selected ensemble).
    pub pipeline: Pipeline,
    /// The 35-attack catalog in Table III order.
    pub attacks: Vec<Attack>,
    /// Labelled test windows per attack (aligned with `attacks`).
    pub attack_windows: Vec<WindowDataset>,
    /// Benign test windows.
    pub benign_windows: WindowDataset,
    /// `member_scores[member][attack]` — each selected member's anomaly
    /// scores on each attack dataset.
    pub member_scores: Vec<Vec<Vec<f32>>>,
    /// `member_benign[member]` — each member's scores on benign test data.
    pub member_benign: Vec<Vec<f32>>,
}

impl Harness {
    /// Trains the system at `scale` and populates the score cache. With a
    /// checkpoint directory, zoo training persists every finished member
    /// there (including epoch-granular partials of the in-flight group),
    /// and a rerun of the same scale resumes from the directory's manifest
    /// — mid-member when a partial exists — instead of retraining from
    /// scratch (the `--resume <dir>` CLI flag).
    pub fn build(scale: Scale, resume_dir: Option<PathBuf>) -> Harness {
        eprintln!("[harness] training pipeline at {scale:?} scale…");
        let mut config = scale.pipeline_config();
        if let Some(dir) = resume_dir {
            eprintln!("[harness] checkpointing zoo training in {}", dir.display());
            config.checkpoint_dir = Some(dir);
        }
        let pipeline = Pipeline::run(config);
        if !pipeline.quarantined.is_empty() {
            eprintln!(
                "[harness] WARNING: {} grid configurations quarantined:",
                pipeline.quarantined.len()
            );
            for q in &pipeline.quarantined {
                eprintln!("[harness]   {}: {}", q.id(), q.reason);
            }
        }
        eprintln!(
            "[harness] zoo={} models, selected top-{}; building attack campaign…",
            pipeline.zoo.len(),
            pipeline.vehigan.m()
        );
        // The campaign plane engineers each benign test trace once and
        // shares its windows across all 36 datasets; assembly runs in
        // parallel across attacks, bitwise identical to the serial
        // per-attack `test_attack_windows` path.
        let attacks = Attack::catalog();
        let (attack_windows, benign_windows) = {
            let plane = pipeline.campaign_plane();
            (plane.campaign(&attacks), plane.benign_windows())
        };

        eprintln!(
            "[harness] caching per-member scores on {} attacks…",
            attacks.len()
        );
        let (member_scores, member_benign) = {
            let members: Vec<&Wgan> = pipeline.vehigan.members().iter().map(|m| &m.wgan).collect();
            // Benign rides along as the final dataset of the score matrix so
            // one parallel-across-members pass fills both caches.
            let mut datasets: Vec<&WindowDataset> = attack_windows.iter().collect();
            datasets.push(&benign_windows);
            let matrix = score_matrix(&members, &datasets);
            let mut member_scores = Vec::with_capacity(matrix.len());
            let mut member_benign = Vec::with_capacity(matrix.len());
            for mut per_dataset in matrix {
                member_benign.push(per_dataset.pop().expect("benign scores"));
                member_scores.push(per_dataset);
            }
            (member_scores, member_benign)
        };
        Harness {
            pipeline,
            attacks,
            attack_windows,
            benign_windows,
            member_scores,
            member_benign,
        }
    }

    /// Ensemble scores on attack dataset `attack_idx` using member subset
    /// `members` (mean of cached member scores).
    pub(crate) fn ensemble_attack_scores(&self, members: &[usize], attack_idx: usize) -> Vec<f32> {
        mean_rows(members.iter().map(|&i| &self.member_scores[i][attack_idx]))
    }

    /// Int8 gate scores of the windows `x` under a member subset (after
    /// `compile_int8`). One call: the int8 walk is batch-row independent,
    /// so serve-sized tiles would score every window the same.
    pub(crate) fn gate_scores(&self, members: &[usize], x: &Tensor) -> Vec<f32> {
        self.pipeline
            .vehigan
            .score_with_members_int8(members, x)
            .expect("int8 gate scores")
            .scores
    }
}

fn mean_rows<'a>(rows: impl Iterator<Item = &'a Vec<f32>>) -> Vec<f32> {
    let mut acc: Vec<f32> = Vec::new();
    let mut count = 0usize;
    for row in rows {
        if acc.is_empty() {
            acc = vec![0.0; row.len()];
        }
        for (a, &v) in acc.iter_mut().zip(row) {
            *a += v;
        }
        count += 1;
    }
    assert!(count > 0, "mean of zero rows");
    for a in &mut acc {
        *a /= count as f32;
    }
    acc
}

/// The results directory (`results/` at the workspace root).
pub(crate) fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes CSV rows (first row = header) to `results/<name>`.
pub(crate) fn write_csv(name: &str, header: &str, rows: &[String]) {
    let mut out = String::with_capacity(rows.len() * 32 + header.len() + 1);
    out.push_str(header);
    out.push('\n');
    for row in rows {
        out.push_str(row);
        out.push('\n');
    }
    let path = results_dir().join(name);
    fs::write(&path, out).expect("write results csv");
    eprintln!("[harness] wrote {}", path.display());
}

/// A value of a `results/BENCH_*.json` record: the one JSON writer the
/// experiments share. Objects keep insertion order; numbers are written as
/// the experiment formatted them.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// A number or a boolean, written verbatim.
    Lit(String),
    /// A string, escaped when written.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// A number or boolean in its `Display` form.
    pub(crate) fn lit(value: impl std::fmt::Display) -> Json {
        Json::Lit(value.to_string())
    }

    /// A float with `digits` decimals; `null` when not finite.
    pub(crate) fn fixed(value: f64, digits: usize) -> Json {
        if value.is_finite() {
            Json::Lit(format!("{value:.digits$}"))
        } else {
            Json::Lit("null".to_string())
        }
    }

    /// A string.
    pub(crate) fn str(value: impl Into<String>) -> Json {
        Json::Str(value.into())
    }

    /// Renders a record: the top-level object puts one key on a line, an
    /// array under it one element on a line, and everything deeper stays
    /// on its line.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        self.write(0, &mut out);
        out.push('\n');
        out
    }

    fn write(&self, depth: usize, out: &mut String) {
        let (open, sep, close) = match (self, depth) {
            (Json::Obj(fields), 0) if !fields.is_empty() => ("{\n  ", ",\n  ", "\n}"),
            (Json::Arr(items), 1) if !items.is_empty() => ("[\n    ", ",\n    ", "\n  ]"),
            (Json::Obj(_), _) => ("{", ", ", "}"),
            _ => ("[", ", ", "]"),
        };
        match self {
            Json::Lit(text) => out.push_str(text),
            Json::Str(text) => {
                out.push('"');
                for c in text.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if u32::from(c) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", u32::from(c)));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push_str(open);
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(sep);
                    }
                    item.write(depth + 1, out);
                }
                out.push_str(close);
            }
            Json::Obj(fields) => {
                out.push_str(open);
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(sep);
                    }
                    Json::str(*key).write(depth + 1, out);
                    out.push_str(": ");
                    value.write(depth + 1, out);
                }
                out.push_str(close);
            }
        }
    }
}

/// Writes a record to `results/<name>`.
pub(crate) fn write_json(name: &str, record: &Json) {
    let path = results_dir().join(name);
    fs::write(&path, record.render()).expect("write results json");
    eprintln!("[harness] wrote {}", path.display());
}

/// Fraction of scores above a threshold (the FPR when scores are benign).
pub(crate) fn rate_above(scores: &[f32], threshold: f32) -> f64 {
    if scores.is_empty() {
        return 0.0;
    }
    scores.iter().filter(|&&s| s > threshold).count() as f64 / scores.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn rate_above_counts() {
        assert_eq!(rate_above(&[0.1, 0.6, 0.9], 0.5), 2.0 / 3.0);
        assert_eq!(rate_above(&[], 0.5), 0.0);
    }

    #[test]
    fn json_escapes_strings_and_breaks_only_the_outer_levels() {
        let record = Json::Obj(vec![
            ("name", Json::str("say \"hi\" \\ to\u{1}\n")),
            ("n", Json::lit(3)),
            ("x", Json::fixed(0.5, 2)),
            ("inf", Json::fixed(f64::INFINITY, 2)),
            (
                "cases",
                Json::Arr(vec![
                    Json::Obj(vec![("ok", Json::lit(true)), ("v", Json::Arr(vec![]))]),
                    Json::Obj(vec![("nested", Json::Obj(vec![("a", Json::lit(1))]))]),
                ]),
            ),
            ("none", Json::Arr(vec![])),
        ]);
        let want = concat!(
            "{\n",
            "  \"name\": \"say \\\"hi\\\" \\\\ to\\u0001\\u000a\",\n",
            "  \"n\": 3,\n",
            "  \"x\": 0.50,\n",
            "  \"inf\": null,\n",
            "  \"cases\": [\n",
            "    {\"ok\": true, \"v\": []},\n",
            "    {\"nested\": {\"a\": 1}}\n",
            "  ],\n",
            "  \"none\": []\n",
            "}\n",
        );
        assert_eq!(record.render(), want);
    }

    #[test]
    fn mean_rows_averages() {
        let a = vec![1.0f32, 3.0];
        let b = vec![3.0f32, 5.0];
        let m = mean_rows([&a, &b].into_iter());
        assert_eq!(m, vec![2.0, 4.0]);
    }
}
