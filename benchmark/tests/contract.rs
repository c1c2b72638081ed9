//! `/BENCHMARK.json` is rendered from the metric registry; the committed
//! file must equal it, and the registry must stay inside the contract's
//! limits.

use vehigan_benchmark::metrics::{benchmark_json_text, why, END_TO_END, PER_LAYER, RUN_SECONDS};
use vehigan_benchmark::workloads::Workload;

#[test]
fn committed_benchmark_json_matches_the_registry() {
    let committed = include_str!("../../BENCHMARK.json");
    assert_eq!(
        committed,
        benchmark_json_text(),
        "regenerate with: vehigan-benchmark --emit-benchmark-json > BENCHMARK.json"
    );
    assert!(committed.len() < 64 * 1024);
}

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn registry_stays_inside_the_contract_limits() {
    assert!((1..=60).contains(&RUN_SECONDS));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut names: Vec<&str> = Vec::new();
    for m in &END_TO_END {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        names.push(m.name);
    }
    for m in &PER_LAYER {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        names.push(m.name);
    }
    for w in Workload::ALL {
        assert!(name_ok(w.name()));
        let why = why(w);
        assert!(why.len() <= 200 && !why.contains('\n'), "{}", w.name());
        names.push(w.name());
    }
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n, "every name is used once");
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!(setup.unit, "s");
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}
