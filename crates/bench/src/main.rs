//! Experiment runner CLI.
//!
//! ```text
//! vehigan-bench <experiment> [--scale quick|paper] [--resume <dir>]
//!                            [--retry-quarantined] [--stop-after-groups N]
//!                            [--vehicles N] [--duration S]
//! ```
//!
//! The experiments are the names in [`EXPERIMENTS`]; running without
//! arguments (or with an unknown name) prints them and exits 2, before
//! any training starts.
//!
//! `--resume <dir>` makes zoo training crash-safe: every finished model is
//! checkpointed in `<dir>` (and the in-flight training group at every
//! epoch boundary), and rerunning the same command after an interruption
//! resumes from the directory's manifest — mid-member when a partial
//! checkpoint exists.
//! `--retry-quarantined` additionally retrains configurations the previous
//! run quarantined, using a fresh derived seed, instead of skipping them.
//! `--stop-after-groups N` halts zoo training cleanly after `N` groups to
//! simulate a kill; the `resume` experiment uses the same machinery to
//! prove kill/resume bitwise equivalence end to end.
//! `--vehicles N` / `--duration S` size the simulated traffic of the
//! `authority` experiment's live loop (defaults: 10000 vehicles, 2.0 s;
//! CI smokes a few hundred vehicles). Serve-plane throughput and latency
//! are measured by the perf ledger (`benchmark/`), not here.

use std::path::PathBuf;
use vehigan_bench::experiments::{
    ablation, authority, catalog, fig3, fig4, fig5, fig6, fig7, fig8, gemmbench, probe, quant,
    resume, table3, tier0,
};
use vehigan_bench::harness::{Harness, Scale};

/// How an experiment runs.
enum Run {
    /// Needs no trained system.
    Untrained(fn(Scale)),
    /// Runs on the trained harness; `authority` alone reads the
    /// `--vehicles` / `--duration` values.
    Trained(fn(&mut Harness, usize, f64)),
}

/// Every experiment the CLI accepts: the usage text, the check that
/// rejects an unknown name before training, and the dispatch all read
/// this one table.
const EXPERIMENTS: &[(&str, Run)] = &[
    ("catalog", Run::Untrained(|_| catalog::run())),
    ("ablation", Run::Untrained(|_| ablation::run())),
    ("probe", Run::Untrained(|_| probe::run())),
    ("fig8", Run::Untrained(|_| fig8::run())),
    ("gemm", Run::Untrained(|_| gemmbench::run())),
    ("resume", Run::Untrained(|_| resume::run())),
    ("fig3", Run::Trained(|h, _, _| fig3::run(h))),
    ("fig4", Run::Trained(|h, _, _| fig4::run(h))),
    ("fig5a", Run::Trained(|h, _, _| fig5::run_5a(h))),
    ("fig5b", Run::Trained(|h, _, _| fig5::run_5b(h))),
    ("fig5c", Run::Trained(|h, _, _| fig5::run_5c(h))),
    ("fig6", Run::Trained(|h, _, _| fig6::run(h))),
    (
        "fig7a",
        Run::Trained(|h, _, _| {
            fig7::run_7a(h);
        }),
    ),
    (
        "fig7b",
        Run::Trained(|h, _, _| {
            fig7::run_7b(h);
        }),
    ),
    ("table3", Run::Trained(|h, _, _| table3::run(h))),
    ("quant", Run::Trained(|h, _, _| quant::run(h))),
    ("tier0", Run::Trained(|h, _, _| tier0::run(h))),
    ("authority", Run::Trained(authority::run)),
    ("adv", Run::Trained(|h, _, _| run_adv(h))),
    ("all", Run::Trained(run_all)),
];

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: vehigan-bench <experiment> [--scale quick|paper] [--resume <dir>] [--retry-quarantined] [--stop-after-groups N] [--vehicles N] [--duration S]\n\
         experiments: {}",
        names.join(" ")
    );
    std::process::exit(2);
}

/// Composite: all adversarial experiments on one trained harness.
fn run_adv(harness: &mut Harness) {
    fig5::run_5a(harness);
    fig5::run_5b(harness);
    fig5::run_5c(harness);
    fig6::run(harness);
    fig7::run_7a(harness);
    fig7::run_7b(harness);
}

/// Composite: every table and figure, then the system experiments.
fn run_all(harness: &mut Harness, vehicles: usize, duration_s: f64) {
    let section = |title: &str| println!("\n=== {title} ===");
    section("Table I (catalog)");
    catalog::run();
    section("Fig 3");
    fig3::run(harness);
    section("Fig 4");
    fig4::run(harness);
    section("Fig 5a");
    fig5::run_5a(harness);
    section("Fig 5b");
    fig5::run_5b(harness);
    section("Fig 5c");
    fig5::run_5c(harness);
    section("Fig 6");
    fig6::run(harness);
    section("Fig 7a");
    fig7::run_7a(harness);
    section("Fig 7b");
    fig7::run_7b(harness);
    section("Table III");
    table3::run(harness);
    section("Fig 8");
    fig8::run();
    section("Int8 backend");
    quant::run(harness);
    section("Tier-0 physics gate");
    tier0::run(harness);
    section("Misbehavior authority");
    authority::run(harness, vehicles, duration_s);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let experiment = args[0].as_str();
    let mut scale = Scale::Quick;
    let mut resume_dir: Option<PathBuf> = None;
    let mut retry_quarantined = false;
    let mut stop_after_groups: Option<usize> = None;
    let mut vehicles = 10_000usize;
    let mut duration_s = 2.0f64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let Some(v) = args.get(i + 1) else { usage() };
                let Some(s) = Scale::parse(v) else { usage() };
                scale = s;
                i += 2;
            }
            "--resume" => {
                let Some(v) = args.get(i + 1) else { usage() };
                resume_dir = Some(PathBuf::from(v));
                i += 2;
            }
            "--retry-quarantined" => {
                retry_quarantined = true;
                i += 1;
            }
            "--stop-after-groups" => {
                let Some(v) = args.get(i + 1) else { usage() };
                let Ok(n) = v.parse::<usize>() else { usage() };
                stop_after_groups = Some(n);
                i += 2;
            }
            "--vehicles" => {
                let Some(v) = args.get(i + 1) else { usage() };
                let Ok(n) = v.parse::<usize>() else { usage() };
                vehicles = n.max(1);
                i += 2;
            }
            "--duration" => {
                let Some(v) = args.get(i + 1) else { usage() };
                let Ok(s) = v.parse::<f64>() else { usage() };
                // A 10-message window at 10 Hz needs ≥ 1.2 s of traffic
                // before any decision can flow.
                duration_s = s.max(1.2);
                i += 2;
            }
            _ => usage(),
        }
    }

    // An unknown name is rejected here, *before* spending minutes
    // training a harness it would never use.
    let Some((_, run)) = EXPERIMENTS.iter().find(|(name, _)| *name == experiment) else {
        usage()
    };
    match run {
        Run::Untrained(f) => f(scale),
        Run::Trained(f) => {
            let mut harness =
                Harness::build_with(scale, resume_dir, retry_quarantined, stop_after_groups);
            f(&mut harness, vehicles, duration_s);
        }
    }
}
