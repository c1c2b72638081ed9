//! The campaign data plane's contract: every dataset it assembles — all
//! 35 Table III attacks and the benign set, in either representation — is
//! bitwise the windows a naive per-vehicle reference cuts, and its
//! parallel score cache is bitwise the serial nest.

use vehigan_core::{score_matrix, CampaignPlane, Wgan, WganConfig};
use vehigan_features::{
    engineer_trace, fit_scaler, MinMaxScaler, Representation, WindowConfig, WindowDataset,
};
use vehigan_sim::{SimConfig, TrafficSimulator, VehicleTrace};
use vehigan_vasp::{Attack, DatasetBuilder, DatasetConfig};

fn fleet() -> Vec<VehicleTrace> {
    TrafficSimulator::new(SimConfig {
        n_vehicles: 8,
        duration_s: 45.0,
        seed: 3,
        ..SimConfig::default()
    })
    .run()
}

fn assert_identical(got: &WindowDataset, want: &WindowDataset, ctx: &str) {
    assert_eq!(got.x.shape(), want.x.shape(), "{ctx}: shape");
    assert_eq!(got.x.as_slice(), want.x.as_slice(), "{ctx}: window bytes");
    assert_eq!(got.labels, want.labels, "{ctx}: labels");
    assert_eq!(got.vehicles, want.vehicles, "{ctx}: vehicle ids");
}

/// The dataset written out one window at a time: per vehicle, in fleet
/// order, its attacked trace if `attack` names it (else its benign one);
/// every feature row scaled by `transform_value` and rounded once to
/// f32; each `w`-row span at `stride`; each window labelled by whether
/// `attacker_traces` named its vehicle.
fn reference(
    fleet: &[VehicleTrace],
    attack: Option<Attack>,
    config: WindowConfig,
    scaler: &MinMaxScaler,
) -> WindowDataset {
    let attackers = attack.map_or_else(Vec::new, |a| {
        DatasetBuilder::new(fleet, DatasetConfig::default()).attacker_traces(a)
    });
    let (w, f) = (config.window, scaler.width());
    let (mut data, mut labels, mut vehicles) = (Vec::new(), Vec::new(), Vec::new());
    for (i, benign) in fleet.iter().enumerate() {
        let attacked = attackers.iter().find(|(j, _)| *j == i).map(|(_, t)| t);
        let trace = attacked.unwrap_or(benign);
        let Some(rows) = engineer_trace(trace, false, config.representation) else {
            continue;
        };
        let scaled: Vec<Vec<f32>> = rows
            .values
            .chunks(f)
            .map(|row| {
                let scale = |(j, &v): (usize, &f64)| scaler.transform_value(j, v) as f32;
                row.iter().enumerate().map(scale).collect()
            })
            .collect();
        let mut start = 0;
        while start + w <= scaled.len() {
            for row in &scaled[start..start + w] {
                data.extend_from_slice(row);
            }
            labels.push(attacked.is_some());
            vehicles.push(trace.id);
            start += config.stride;
        }
    }
    let n = labels.len();
    WindowDataset {
        x: vehigan_tensor::Tensor::from_vec(data, &[n, w, f, 1]),
        labels,
        vehicles,
    }
}

/// The full catalog and the benign set, assembled by the plane, against
/// [`reference`].
fn plane_matches_the_reference(representation: Representation, stride: usize) {
    let fleet = fleet();
    let window = WindowConfig {
        stride,
        representation,
        ..WindowConfig::default()
    };
    let scaler = fit_scaler(&fleet, representation);
    let attacks = Attack::catalog();

    let plane = CampaignPlane::new(&fleet, DatasetConfig::default(), window, &scaler);
    let parallel = plane.campaign(&attacks);
    assert_eq!(parallel.len(), attacks.len());

    for (got, &attack) in parallel.iter().zip(&attacks) {
        let want = reference(&fleet, Some(attack), window, &scaler);
        assert!(want.labels.contains(&true), "{attack}: no attacker window");
        assert_identical(got, &want, &attack.name());
    }
    let benign = reference(&fleet, None, window, &scaler);
    assert_identical(&plane.benign_windows(), &benign, "benign");
}

#[test]
fn full_catalog_campaign_matches_the_naive_reference() {
    plane_matches_the_reference(Representation::Engineered, 3);
}

#[test]
fn raw_campaign_matches_the_naive_reference() {
    plane_matches_the_reference(Representation::Raw, 3);
}

#[test]
fn stride_1_campaign_matches_the_naive_reference() {
    plane_matches_the_reference(Representation::Engineered, 1);
}

#[test]
fn parallel_score_cache_is_bitwise_identical_to_serial() {
    let fleet = fleet();
    let window = WindowConfig {
        stride: 3,
        ..WindowConfig::default()
    };
    let scaler = fit_scaler(&fleet, window.representation);
    let plane = CampaignPlane::new(&fleet, DatasetConfig::default(), window, &scaler);

    // A few catalog attacks plus benign — the exact dataset list the bench
    // harness feeds score_matrix.
    let attacks: Vec<Attack> = Attack::catalog().into_iter().take(4).collect();
    let mut datasets = plane.campaign(&attacks);
    datasets.push(plane.benign_windows());
    let refs: Vec<&WindowDataset> = datasets.iter().collect();

    let train = plane.benign_windows();
    let wgans: Vec<Wgan> = (0..3)
        .map(|seed| {
            let mut w = Wgan::new(WganConfig {
                noise_dim: 8,
                layers: 3,
                epochs: 1,
                batch_size: 16,
                n_critic: 1,
                seed,
                ..WganConfig::default()
            });
            w.train(&train.x);
            w
        })
        .collect();
    let members: Vec<&Wgan> = wgans.iter().collect();

    let parallel = score_matrix(&members, &refs);
    for (mi, member) in members.iter().enumerate() {
        for (di, ds) in refs.iter().enumerate() {
            assert_eq!(
                parallel[mi][di],
                member.score_batch(&ds.x),
                "member {mi}, dataset {di}: scores must be bitwise identical"
            );
        }
    }
}
