//! Experiment runner CLI.
//!
//! ```text
//! vehigan-bench <experiment> [flags]
//! ```
//!
//! The experiments are the names in [`EXPERIMENTS`] and the flags those in
//! [`FLAGS`], each with the experiments that read it; running without
//! arguments, with an unknown name, or with a flag the experiment does not
//! read prints the usage and exits 2, before any training starts.
//!
//! `--resume <dir>` makes zoo training crash-safe: every finished model is
//! checkpointed in `<dir>` (and the in-flight training group at every
//! epoch boundary), and rerunning the same command after an interruption
//! resumes from the directory's manifest — mid-member when a partial
//! checkpoint exists.
//! `--retry-quarantined` additionally retrains configurations the previous
//! run quarantined, using a fresh derived seed, instead of skipping them.
//! `--vehicles N` / `--duration S` size the simulated traffic of the
//! `authority` experiment's live loop (defaults: 10000 vehicles, 2.0 s;
//! CI smokes a few hundred vehicles). Serve-plane throughput and latency
//! are measured by the perf ledger (`benchmark/`), not here.

use std::path::PathBuf;
use vehigan_bench::experiments::{
    ablation, authority, catalog, fig3, fig4, fig5, fig6, fig7, fig8, gemmbench, quant, table3,
    tier0,
};
use vehigan_bench::harness::{Harness, Scale};

/// What the flags set.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    scale: Scale,
    resume: Option<PathBuf>,
    retry_quarantined: bool,
    vehicles: usize,
    duration_s: f64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: Scale::Quick,
            resume: None,
            retry_quarantined: false,
            vehicles: 10_000,
            duration_s: 2.0,
        }
    }
}

/// How an experiment runs.
enum Run {
    /// Needs no trained system and reads no flag.
    Untrained(fn()),
    /// Runs on the trained harness.
    Trained(fn(&mut Harness, &Args)),
}

/// Every experiment the CLI accepts: the usage text, the check that
/// rejects an unknown name before training, and the dispatch all read
/// this one table.
const EXPERIMENTS: &[(&str, Run)] = &[
    ("catalog", Run::Untrained(catalog::run)),
    ("ablation", Run::Untrained(ablation::run)),
    ("fig8", Run::Untrained(fig8::run)),
    ("gemm", Run::Untrained(gemmbench::run)),
    ("fig3", Run::Trained(|h, _| fig3::run(h))),
    ("fig4", Run::Trained(|h, _| fig4::run(h))),
    ("fig5a", Run::Trained(|h, _| fig5::run_5a(h))),
    ("fig5b", Run::Trained(|h, _| fig5::run_5b(h))),
    ("fig5c", Run::Trained(|h, _| fig5::run_5c(h))),
    ("fig6", Run::Trained(|h, _| fig6::run(h))),
    ("fig7a", Run::Trained(|h, _| fig7::run_7a(h))),
    ("fig7b", Run::Trained(|h, _| fig7::run_7b(h))),
    ("table3", Run::Trained(|h, _| table3::run(h))),
    ("quant", Run::Trained(|h, _| quant::run(h))),
    ("tier0", Run::Trained(|h, _| tier0::run(h))),
    (
        "authority",
        Run::Trained(|h, a| authority::run(h, a.vehicles, a.duration_s)),
    ),
    ("adv", Run::Trained(|h, _| run_adv(h))),
    ("all", Run::Trained(run_all)),
];

/// The experiments that read a flag.
enum Readers {
    /// Every [`Run::Trained`] experiment (the flag configures the harness).
    Trained,
    /// Only these.
    Named(&'static [&'static str]),
}

/// One command-line flag: its name, the value it takes (`None` for a
/// switch), the experiments that read it, and how it sets [`Args`]
/// (`None` when the value does not parse).
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    readers: Readers,
    set: fn(&mut Args, &str) -> Option<()>,
}

/// Every flag the CLI accepts: the usage text and the parser read this
/// one table.
const FLAGS: &[Flag] = &[
    Flag {
        name: "--scale",
        value: Some("quick|paper"),
        readers: Readers::Trained,
        set: |a, v| {
            a.scale = Scale::parse(v)?;
            Some(())
        },
    },
    Flag {
        name: "--resume",
        value: Some("<dir>"),
        readers: Readers::Trained,
        set: |a, v| {
            a.resume = Some(PathBuf::from(v));
            Some(())
        },
    },
    Flag {
        name: "--retry-quarantined",
        value: None,
        readers: Readers::Trained,
        set: |a, _| {
            a.retry_quarantined = true;
            Some(())
        },
    },
    Flag {
        name: "--vehicles",
        value: Some("N"),
        readers: Readers::Named(&["authority", "all"]),
        set: |a, v| {
            a.vehicles = v.parse::<usize>().ok()?.max(1);
            Some(())
        },
    },
    Flag {
        name: "--duration",
        value: Some("S"),
        readers: Readers::Named(&["authority", "all"]),
        set: |a, v| {
            let s = v.parse::<f64>().ok().filter(|s| s.is_finite())?;
            // A 10-message window at 10 Hz needs ≥ 1.2 s of traffic
            // before any decision can flow.
            a.duration_s = s.max(1.2);
            Some(())
        },
    },
];

impl Readers {
    fn read_by(&self, name: &str, run: &Run) -> bool {
        match self {
            Readers::Trained => matches!(run, Run::Trained(_)),
            Readers::Named(names) => names.contains(&name),
        }
    }
}

/// Parses `<experiment> [flags]` into the experiment's table entry and
/// the flags' values; the error says what is wrong.
fn parse(args: &[String]) -> Result<(&'static (&'static str, Run), Args), String> {
    let (name, flags) = args.split_first().ok_or("no experiment named")?;
    let experiment = EXPERIMENTS
        .iter()
        .find(|(n, _)| n == name)
        .ok_or_else(|| format!("unknown experiment `{name}`"))?;
    let mut parsed = Args::default();
    let mut rest = flags.iter();
    while let Some(arg) = rest.next() {
        let flag = FLAGS
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown flag `{arg}`"))?;
        if !flag.readers.read_by(name, &experiment.1) {
            return Err(format!("`{name}` does not read {arg}"));
        }
        let value = match flag.value {
            Some(meta) => rest
                .next()
                .ok_or_else(|| format!("{arg} needs a value ({meta})"))?,
            None => "",
        };
        (flag.set)(&mut parsed, value).ok_or_else(|| format!("bad value for {arg}: `{value}`"))?;
    }
    Ok((experiment, parsed))
}

fn usage(error: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!("error: {error}\nusage: vehigan-bench <experiment> [flags]");
    eprintln!("experiments: {}", names.join(" "));
    eprintln!("flags:");
    for flag in FLAGS {
        let readers = match flag.readers {
            Readers::Trained => "every experiment that trains".to_string(),
            Readers::Named(names) => names.join(" "),
        };
        let spelled = format!("{} {}", flag.name, flag.value.unwrap_or(""));
        eprintln!("  {spelled:<24} read by: {readers}");
    }
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
fn run_all(harness: &mut Harness, args: &Args) {
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
    authority::run(harness, args.vehicles, args.duration_s);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Everything is checked here, *before* spending minutes training a
    // harness the run would never use.
    let ((_, run), args) = parse(&args).unwrap_or_else(|e| usage(&e));
    match run {
        Run::Untrained(f) => f(),
        Run::Trained(f) => {
            let mut harness =
                Harness::build_with(args.scale, args.resume.clone(), args.retry_quarantined);
            f(&mut harness, &args);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_parser_accepts_what_the_table_declares_and_nothing_else() {
        let paper = Args {
            scale: Scale::Paper,
            resume: Some(PathBuf::from("d")),
            retry_quarantined: true,
            ..Args::default()
        };
        let sized = Args {
            vehicles: 1,
            duration_s: 1.2,
            ..Args::default()
        };
        let cases: &[(&str, Result<Args, &str>)] = &[
            ("gemm", Ok(Args::default())),
            (
                "fig5a --scale paper --resume d --retry-quarantined",
                Ok(paper),
            ),
            ("authority --vehicles 0 --duration 0.5", Ok(sized)),
            (
                "all --duration 4",
                Ok(Args {
                    duration_s: 4.0,
                    ..Args::default()
                }),
            ),
            // Misplaced: a flag the experiment does not read.
            ("fig4 --vehicles 10", Err("`fig4` does not read --vehicles")),
            (
                "catalog --resume d",
                Err("`catalog` does not read --resume"),
            ),
            ("gemm --scale quick", Err("`gemm` does not read --scale")),
            // Missing or bad values.
            ("authority --vehicles", Err("--vehicles needs a value (N)")),
            ("table3 --scale", Err("--scale needs a value (quick|paper)")),
            ("table3 --scale huge", Err("bad value for --scale: `huge`")),
            (
                "authority --vehicles -3",
                Err("bad value for --vehicles: `-3`"),
            ),
            // Non-finite durations used to pass the 1.2 s clamp.
            (
                "authority --duration inf",
                Err("bad value for --duration: `inf`"),
            ),
            (
                "authority --duration NaN",
                Err("bad value for --duration: `NaN`"),
            ),
            // Gone: the kill simulation and the folded-in probe.
            ("resume", Err("unknown experiment `resume`")),
            ("probe", Err("unknown experiment `probe`")),
            ("table3 --bogus 1", Err("unknown flag `--bogus`")),
            ("stream", Err("unknown experiment `stream`")),
            ("", Err("no experiment named")),
        ];
        for (line, want) in cases {
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            let got = parse(&argv).map(|(_, args)| args);
            assert_eq!(got, want.clone().map_err(String::from), "`{line}`");
        }
    }
}
