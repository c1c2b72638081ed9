//! Misbehavior reporting end-to-end: multiple observer RSUs detect a
//! misbehaving sender, file MBRs, and the misbehavior authority
//! corroborates the evidence and revokes the attacker's credentials
//! (the §I/§II security loop around the detector).
//!
//! Each observer is a `StreamServer` that scores every window with the
//! f32 ensemble and files an MBR, under its own pseudonym, for each one
//! it flags; the authority ingests what `take_reports` hands back.
//!
//! ```text
//! cargo run --release --example reporting_authority
//! ```

use vehigan::core::{Pipeline, PipelineConfig};
use vehigan::mbr::{
    AuthorityPolicy, IngestOutcome, LongTermId, MisbehaviorAuthority, PseudonymManager,
};
use vehigan::serve::{EscalationPolicy, ServerConfig, StreamServer};
use vehigan::sim::VehicleId;
use vehigan::tensor::init::seeded_rng;
use vehigan::vasp::{inject, Attack, AttackParams, AttackPolicy};

fn main() {
    println!("=== VehiGAN reporting & revocation demo ===\n");
    println!("[setup] training the detector…");
    let pipeline = Pipeline::run(PipelineConfig::demo());

    // SCMS: enroll the fleet; the attacker rotates pseudonyms mid-run.
    let mut scms = PseudonymManager::new();
    let attacker_lt = LongTermId(1000);
    let attacker_p1 = scms.issue(attacker_lt);
    let attacker_p2 = scms.issue(attacker_lt);

    // Three observers (e.g. RSUs) with their own reporter pseudonyms,
    // each serving the first k members and reporting every flagged window.
    let observers: Vec<VehicleId> = (0..3).map(|i| scms.issue(LongTermId(i))).collect();
    let members: Vec<usize> = (0..pipeline.vehigan.k()).collect();
    let mut servers: Vec<StreamServer> = observers
        .iter()
        .map(|&observer| {
            let config = ServerConfig {
                n_shards: 1,
                policy: EscalationPolicy::Always,
                members: Some(members.clone()),
                reporter: Some(observer),
                ..ServerConfig::default()
            };
            StreamServer::new(&pipeline.vehigan, pipeline.scaler.clone(), config)
                .expect("server builds")
        })
        .collect();

    // The attacker's radio trace: a test-fleet vehicle falsifying heading
    // and yaw rate coherently, split across its two pseudonyms.
    let attack = Attack::by_name("RandomHeadingYawRate").expect("catalog");
    let mut rng = seeded_rng(3);
    let base = pipeline.test_fleet()[0].clone();
    let attacked = inject(
        &base,
        attack,
        AttackPolicy::Persistent,
        &AttackParams::default(),
        &mut rng,
    );
    let half = attacked.trace.len() / 2;

    let policy = AuthorityPolicy {
        min_reporters: 2,
        min_reports: 4,
        window_s: 120.0,
        evidence_len: 120,
        revocation_validity_s: None,
    };
    // Handing the SCMS linkage to the MA means a conviction revokes
    // *every* pseudonym of the resolved long-term identity.
    let mut ma = MisbehaviorAuthority::new(policy).with_linkage(scms);
    println!(
        "[setup] MA policy: ≥{} reporters, ≥{} reports within {}s\n",
        policy.min_reporters, policy.min_reports, policy.window_s
    );

    let mut revoked_at: Option<(VehicleId, f64)> = None;
    'outer: for (pseudonym, msgs) in [
        (attacker_p1, &attacked.trace.bsms[..half]),
        (attacker_p2, &attacked.trace.bsms[half..]),
    ] {
        println!("attacker now transmitting as {pseudonym}");
        // Every observer in range hears each message.
        for bsm in msgs {
            let mut tagged = *bsm;
            tagged.vehicle_id = pseudonym;
            for server in &mut servers {
                server.ingest_batch(&[tagged]);
                server.tick().expect("tick scores");
                for mbr in server.take_reports() {
                    let (observer, t) = (mbr.reporter, mbr.timestamp);
                    match ma.ingest(mbr) {
                        IngestOutcome::Revoked(rec) => {
                            println!(
                                "  REVOKED {pseudonym} at t={t:.1}s ({} reporters, {} reports, mean margin {:.3})",
                                rec.reporter_count, rec.report_count, rec.mean_margin
                            );
                            revoked_at = Some((pseudonym, t));
                            break 'outer;
                        }
                        IngestOutcome::Pending { reporters, reports } => {
                            println!(
                                "  MBR from {observer}: pending ({reporters} reporters, {reports} reports)"
                            );
                        }
                        IngestOutcome::AlreadyRevoked
                        | IngestOutcome::Extended(_)
                        | IngestOutcome::StaleDiscarded => {}
                        IngestOutcome::Rejected(e) => println!("  MBR rejected: {e}"),
                    }
                }
            }
        }
    }

    let stats = ma.stats();
    println!(
        "\nMA processed {} valid reports ({} rejected)",
        stats.accepted, stats.rejected
    );
    match revoked_at {
        Some((pseudonym, t)) => {
            // Linkage: the MA revoked ALL of the attacker's pseudonyms.
            let lt = ma.scms().unwrap().resolve(pseudonym).expect("linked");
            println!(
                "linkage: {pseudonym} → long-term {lt:?}; all pseudonyms: {:?}",
                ma.scms().unwrap().pseudonyms_of(lt)
            );
            assert!(ma.crl().is_revoked(pseudonym, t));
            assert!(ma.crl().is_revoked(attacker_p1, t));
            assert!(ma.crl().is_revoked(attacker_p2, t));
            // Rotating to a fresh pseudonym doesn't help either: the MA
            // revokes new issues for convicted vehicles at the source.
            let p3 = ma.issue_pseudonym(attacker_lt, t);
            assert!(ma.crl().is_revoked(p3, t));
            println!("rotation {p3} auto-revoked; attacker isolated from the V2X network.");
        }
        None => println!("no conviction at this scale — rerun with a larger training budget."),
    }
}
