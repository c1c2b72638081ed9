//! What the fork-join pool costs a server that is not scoring: nothing.
//! The helpers belong to the process, not to a `StreamServer` — building,
//! ticking and dropping servers starts no thread and leaves none behind —
//! and a helper without work parks instead of spinning on.
//!
//! One test in a binary of its own: both readings are of the whole
//! process, so nothing else may run beside it.
#![cfg(target_os = "linux")]

use std::time::Duration;
use vehigan_core::{CriticMember, VehiGan, Wgan, WganConfig};
use vehigan_features::MinMaxScaler;
use vehigan_serve::{EscalationPolicy, ServerConfig, StreamServer};
use vehigan_sim::{Bsm, VehicleId};
use vehigan_tensor::Tensor;

/// CPU time of every thread of this process so far, in milliseconds:
/// `utime + stime` of `/proc/self/stat`, which count in clock ticks of
/// 10 ms (`USER_HZ` is 100 on every Linux port).
fn cpu_ms() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // The command name may hold spaces; the fields after it do not.
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 2..];
    let ticks = |field: usize| -> u64 {
        let value = after_comm.split(' ').nth(field - 3).expect("stat field");
        value.parse().expect("a tick count")
    };
    (ticks(14) + ticks(15)) * 10
}

fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.expect("Threads: line")
        .trim()
        .parse()
        .expect("a count")
}

#[test]
fn servers_own_no_threads_and_an_idle_helper_parks() {
    // Untrained critics cost what trained ones do.
    let benign: Vec<f32> = (0..32 * 120).map(|i| (i as f32 * 0.37).sin()).collect();
    let benign = Tensor::from_vec(benign, &[32, 10, 12, 1]);
    let members = (0..2)
        .map(|seed| {
            let config = WganConfig {
                layers: 3,
                seed,
                ..WganConfig::default()
            };
            CriticMember::calibrate(Wgan::new(config), 0.9, &benign).unwrap()
        })
        .collect();
    let mut vehigan = VehiGan::new(members, 2).unwrap();
    vehigan.compile_int8(&benign).unwrap();

    // Eleven messages from each of sixty vehicles complete sixty windows:
    // an `ingest_batch`, a gate call and a tier-2 call big enough to fork
    // wherever there is a second core.
    let bsms: Vec<Bsm> = (0..11)
        .flat_map(|t| {
            (0..60).map(move |v| Bsm {
                vehicle_id: VehicleId(v),
                timestamp: t as f64 * 0.1,
                pos_x: t as f64 * (1.0 + v as f64),
                pos_y: v as f64,
                speed: 10.0 + v as f64,
                acceleration: 0.1,
                heading: 0.3,
                yaw_rate: 0.0,
            })
        })
        .collect();
    let serve_once = || {
        let scaler = MinMaxScaler::fit_flat(12, (0..24).map(f64::from));
        let config = ServerConfig {
            n_shards: 2,
            // Every window crosses the gate and is confirmed by tier 2.
            policy: EscalationPolicy::Threshold(f32::NEG_INFINITY),
            ..ServerConfig::default()
        };
        let mut server = StreamServer::new(&vehigan, scaler, config).unwrap();
        server.ingest_batch(&bsms);
        assert_eq!(server.tick().unwrap().len(), 60);
    };

    // The first forks start the pool, if this host has use for one.
    serve_once();
    let threads = thread_count();

    // A spinning helper would run up 300 ms here; a parked one, and this
    // sleeping thread, nothing — two clock ticks allow for rounding.
    let before = cpu_ms();
    std::thread::sleep(Duration::from_millis(300));
    let spent = cpu_ms() - before;
    assert!(
        spent < 20,
        "an idle process used {spent} ms of CPU in 300 ms"
    );

    for _ in 0..50 {
        serve_once();
    }
    assert_eq!(thread_count(), threads, "serving changed the thread count");
}
