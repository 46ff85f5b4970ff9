//! The measured system as one box: the shipped `StreamServer`, the
//! misbehavior authority its reports feed, and the RSU CRL mirrors that
//! sync from the authority and check every received BSM's sender.
//! Optionally a synthetic report campaign rides along on the same
//! authority plane.

use crate::campaign::{Campaign, RIDE_STEPS_PER_TICK};
use crate::host::cpu_time;
use crate::setup::{reporter, Deployment, N_RSUS};
use std::collections::HashMap;
use std::time::Instant;
use vehigan_mbr::{CertificateRevocationList, MisbehaviorAuthority};
use vehigan_serve::{Decision, ServerStats, StreamServer};
use vehigan_sim::{Bsm, VehicleId};

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one decision into an FNV-1a digest over its full bit pattern,
/// exactly as `serve_driver` hashes decisions.
pub fn fnv_decision(mut h: u64, d: &Decision) -> u64 {
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    mix(&d.vehicle.0.to_le_bytes());
    mix(&d.timestamp.to_bits().to_le_bytes());
    mix(&d.score.to_bits().to_le_bytes());
    mix(&[
        u8::from(d.escalated),
        u8::from(d.flagged),
        u8::from(d.suppressed),
    ]);
    h
}

/// Syncs a mirror from the authority CRL by delta and answers `is_revoked`
/// for the senders of `bsms`; returns how many were revoked.
pub fn sync_and_check(
    mirror: &mut CertificateRevocationList,
    crl: &CertificateRevocationList,
    bsms: &[Bsm],
) -> u64 {
    let delta = crl.delta_since(mirror.seq());
    mirror.apply_delta(&delta);
    bsms.iter()
        .filter(|b| mirror.is_revoked(b.vehicle_id, b.timestamp))
        .count() as u64
}

pub struct Rsu<'d> {
    pub server: StreamServer<'d>,
    pub authority: MisbehaviorAuthority,
    pub mirrors: Vec<CertificateRevocationList>,
    /// The campaign riding along, [`RIDE_STEPS_PER_TICK`] steps per tick.
    pub ride: Option<Campaign<'d>>,
    pub tick: u64,
    pub digest: u64,
    pub decided: u64,
    pub reports: u64,
    pub report_ingest_s: f64,
    /// Step in which each convicted vehicle's revocation reached the
    /// covering RSU's mirror.
    pub revoked_step: HashMap<VehicleId, u64>,
}

impl<'d> Rsu<'d> {
    pub fn new(dep: &'d Deployment, n_shards: usize, ride: Option<Campaign<'d>>) -> Rsu<'d> {
        Rsu {
            server: dep.server(n_shards),
            authority: dep.authority(),
            mirrors: (0..N_RSUS)
                .map(|_| CertificateRevocationList::new(dep.live_policy().revocation_validity_s))
                .collect(),
            ride,
            tick: 0,
            digest: FNV_OFFSET,
            decided: 0,
            reports: 0,
            report_ingest_s: 0.0,
            revoked_step: HashMap::new(),
        }
    }

    /// One 100 ms step of the box: ingest the slice and tick the server
    /// under the covering RSU's identity, forward its reports to the
    /// authority, sync the covering RSU's mirror and check the slice's
    /// senders. Returns the decisions and the instant `tick` returned.
    pub fn step(&mut self, bsms: &[Bsm]) -> (Vec<Decision>, Instant) {
        self.server.set_reporter(Some(reporter(self.tick)));
        let report = self.server.ingest_batch(bsms);
        assert!(report.panicked_shards.is_empty(), "shard ingest panicked");
        let decisions = self.server.tick().expect("tick scores");
        let decided_at = Instant::now();
        for d in &decisions {
            self.digest = fnv_decision(self.digest, d);
        }
        self.decided += decisions.len() as u64;
        let reports = self.server.take_reports();
        if !reports.is_empty() {
            // Process CPU time, as the campaign times its steps.
            let t = cpu_time();
            let br = self.authority.ingest_batch(&reports);
            self.report_ingest_s += cpu_time() - t;
            for c in &br.convictions {
                self.revoked_step.entry(c.suspect).or_insert(self.tick);
            }
            self.reports += reports.len() as u64;
        }
        let mirror = &mut self.mirrors[(self.tick % u64::from(N_RSUS)) as usize];
        std::hint::black_box(sync_and_check(mirror, self.authority.crl(), bsms));
        if let Some(c) = self.ride.as_mut() {
            for _ in 0..RIDE_STEPS_PER_TICK {
                c.step();
            }
        }
        self.tick += 1;
        (decisions, decided_at)
    }

    pub fn pending(&self) -> usize {
        self.server.pending_windows()
    }

    pub fn stats(&self) -> ServerStats {
        self.server.stats()
    }
}
