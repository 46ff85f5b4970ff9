//! The `revocation-campaign` plane: the `authority` experiment's 1M-report
//! campaign ingested in 100 ms steps of campaign time (writes), after each
//! of which the RSU mirrors sync by CRL delta and answer `is_revoked` for
//! a BSM-rate stream of pseudonyms (reads).

use crate::host::cpu_time;
use crate::load::{
    campaign_honest, ATTACKER_BASE, CAMPAIGN_REPORTS, EV_LEN, HORIZON_S, N_ATTACKERS,
};
use std::hint::black_box;
use vehigan_mbr::{AuthorityPolicy, CertificateRevocationList, Mbr, MisbehaviorAuthority};
use vehigan_sim::VehicleId;

/// RSU mirrors syncing from the authority every step.
pub const MIRRORS: usize = 4;
/// Sender checks per 100 ms step across all mirrors: 1000 vehicles at
/// 10 Hz.
pub const LOOKUPS_PER_STEP: usize = 1000;
/// Campaign steps the box runs per serving tick when the campaign rides
/// along a served stream (campaign time runs 10× stream time).
pub const RIDE_STEPS_PER_TICK: usize = 10;

/// The `authority` experiment's campaign policy: 3 distinct reporters and
/// decayed weight 5 inside 90 s; revocations expire after 120 s unless
/// extended.
pub fn policy() -> AuthorityPolicy {
    AuthorityPolicy {
        min_reporters: 3,
        min_reports: 5,
        window_s: 90.0,
        evidence_len: EV_LEN,
        revocation_validity_s: Some(120.0),
    }
}

pub struct Campaign<'c> {
    steps: &'c [Vec<Mbr>],
    lookups: &'c [VehicleId],
    pub authority: MisbehaviorAuthority,
    pub mirrors: Vec<CertificateRevocationList>,
    next: usize,
    pub reports: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub lookups_done: u64,
    pub ingest_s: f64,
    pub sync_s: f64,
    pub lookup_s: f64,
    pub step_ms: Vec<f64>,
    /// CPU ms of each step's `ingest_batch`.
    pub ingest_ms: Vec<f64>,
}

impl<'c> Campaign<'c> {
    pub fn new(steps: &'c [Vec<Mbr>], lookups: &'c [VehicleId]) -> Campaign<'c> {
        let p = policy();
        Campaign {
            steps,
            lookups,
            authority: MisbehaviorAuthority::new(p),
            mirrors: (0..MIRRORS)
                .map(|_| CertificateRevocationList::new(p.revocation_validity_s))
                .collect(),
            next: 0,
            reports: 0,
            accepted: 0,
            rejected: 0,
            lookups_done: 0,
            ingest_s: 0.0,
            sync_s: 0.0,
            lookup_s: 0.0,
            step_ms: Vec::new(),
            ingest_ms: Vec::new(),
        }
    }

    /// Runs the next 100 ms step; `false` once the horizon is reached.
    ///
    /// A step is timed in process CPU time: it runs on one thread (its
    /// batches are far below the authority's parallel threshold) and takes
    /// under a millisecond, so a wall clock would time the host's
    /// scheduling quanta given to other guests instead of the step.
    pub fn step(&mut self) -> bool {
        let Some(reports) = self.steps.get(self.next) else {
            return false;
        };
        let now = (self.next + 1) as f64 / 10.0;
        let t0 = cpu_time();
        let br = self.authority.ingest_batch(reports);
        let t1 = cpu_time();
        for m in &mut self.mirrors {
            let delta = self.authority.crl().delta_since(m.seq());
            m.apply_delta(&delta);
        }
        let t2 = cpu_time();
        let base = self.next * LOOKUPS_PER_STEP;
        let mut hits = 0u32;
        for j in 0..LOOKUPS_PER_STEP {
            let id = self.lookups[(base + j) % self.lookups.len()];
            hits += u32::from(self.mirrors[j % MIRRORS].is_revoked(id, now));
        }
        black_box(hits);
        let t3 = cpu_time();
        self.ingest_s += t1 - t0;
        self.sync_s += t2 - t1;
        self.lookup_s += t3 - t2;
        self.step_ms.push((t3 - t0) * 1e3);
        self.ingest_ms.push((t1 - t0) * 1e3);
        self.reports += br.received as u64;
        self.accepted += br.accepted as u64;
        self.rejected += br.rejected as u64;
        self.lookups_done += LOOKUPS_PER_STEP as u64;
        self.next += 1;
        true
    }

    /// Runs every remaining step.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Reports ingested per second of the ingest calls.
    pub fn reports_per_s(&self) -> f64 {
        self.reports as f64 / self.ingest_s
    }

    /// The `authority` experiment's campaign invariants at the horizon:
    /// zero honest revocations, every attacker still revoked, and every
    /// mirror equal to the authority CRL. Returns the failures.
    pub fn check(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.reports != CAMPAIGN_REPORTS as u64 {
            failures.push(format!("campaign ingested {} reports", self.reports));
        }
        let crl = self.authority.crl();
        let honest = crl.iter().filter(|(v, _)| campaign_honest(**v)).count();
        if honest > 0 {
            failures.push(format!("campaign revoked {honest} honest vehicles"));
        }
        let active = (0..N_ATTACKERS)
            .filter(|j| crl.is_revoked(VehicleId(ATTACKER_BASE + j), HORIZON_S as f64))
            .count();
        if active != N_ATTACKERS as usize {
            failures.push(format!(
                "{active}/{N_ATTACKERS} campaign attackers revoked at the horizon"
            ));
        }
        if self.mirrors.iter().any(|m| m != crl) {
            failures.push("an RSU mirror diverged from the authority CRL".to_string());
        }
        if self.rejected > 0 {
            failures.push(format!(
                "{} campaign reports failed validation",
                self.rejected
            ));
        }
        failures
    }
}
