//! `vehigan-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//!
//! Runs one workload in this process and prints, on stdout, the full
//! record (one JSON object: host block, every replay's values, exact
//! metrics, counts) and then, as the last line, the result object the
//! benchmark contract asks for. A human-readable table goes to stderr.
//! Exits non-zero when any correctness check fails.
//!
//! `--emit-benchmark-json` prints the contents of `/BENCHMARK.json`.

use vehigan_benchmark::json::Json;
use vehigan_benchmark::metrics::{benchmark_json_text, RUN_SECONDS};
use vehigan_benchmark::run::{run, Args};
use vehigan_benchmark::workloads::Workload;

#[global_allocator]
static ALLOC: vehigan_benchmark::alloc::Counting = vehigan_benchmark::alloc::Counting;

/// The seed a developer gets without asking for one.
const DEFAULT_SEED: u64 = 1;

fn usage() -> ! {
    eprintln!(
        "usage: vehigan-benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]\n       vehigan-benchmark --emit-benchmark-json",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut args = Args {
        workload: Workload::CityBenign,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = || {
            argv.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--emit-benchmark-json" => {
                print!("{}", benchmark_json_text());
                std::process::exit(0);
            }
            "--smoke" => {
                args.smoke = true;
                i += 1;
                continue;
            }
            "--workload" => workload = Some(Workload::parse(value()).unwrap_or_else(|| usage())),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage());
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    usage();
                }
            }
            "--trace" => {
                args.trace = match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 2;
    }
    args.workload = workload.unwrap_or_else(|| usage());
    args
}

fn main() {
    let args = parse();
    let outcome = run(&args);

    eprintln!(
        "\n{} (seed {}, {}{})",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "end to end" },
        if args.smoke {
            ", SMOKE — not comparable"
        } else {
            ""
        }
    );
    for (name, value, unit) in &outcome.table {
        eprintln!("  {name:<40} {value:>16.6} {unit}");
    }
    for v in &outcome.violations {
        eprintln!("  VIOLATION: {v}");
    }

    println!("{}", outcome.record.render());
    println!(
        "{}",
        Json::obj()
            .with("correct", outcome.correct)
            .with("attempted", outcome.attempted.max(1))
            .with("failed", outcome.failed)
            .with("metrics", outcome.metrics)
            .render()
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
