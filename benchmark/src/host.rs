//! The host block stamped on every record: a number without its host,
//! ISA leg and commit is not comparable to anything.

use crate::json::Json;
use std::process::Command;

/// First line of a command's stdout, or `"unknown"` when the command is
/// missing or fails (the driver's checkout is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The kernel leg the program's GEMMs dispatch to on this host, as far
/// as its public API and the CPU flags tell: `avx512` when
/// `vehigan_tensor::gemm::avx512_available()` (which already honours
/// `VEHIGAN_FORCE_PORTABLE`), else `avx2` when the CPU has it and the
/// portable pin is off, else `portable`.
pub fn isa_leg() -> &'static str {
    if vehigan_tensor::gemm::avx512_available() {
        return "avx512";
    }
    #[cfg(target_arch = "x86_64")]
    if !forced_portable() && std::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

fn forced_portable() -> bool {
    // Same test the program applies: set at all, whatever the value.
    std::env::var_os("VEHIGAN_FORCE_PORTABLE").is_some()
}

/// The host block.
pub fn block(seed: u64, replays: usize) -> Json {
    Json::obj()
        .with("nproc", nproc())
        .with("cpu_model", cpu_model())
        .with("isa_leg", isa_leg())
        .with("force_portable", forced_portable())
        .with("git_rev", first_line("git", &["rev-parse", "HEAD"]))
        .with("rustc", first_line("rustc", &["-V"]))
        .with("seed", seed)
        .with("replays", replays)
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
