//! The traced pass: the server's tick rebuilt from public calls, each
//! timed as its own stage, so the stage ledger explains where a closed-loop
//! step's wall time went. Its decision digest must equal the untraced
//! closed-loop pass, which proves the ledger timed the same work.
//!
//! Also the `features` replay passes, each timed as one whole pass over
//! the workload stream rather than per call.

use crate::campaign::Campaign;
use crate::load::City;
use crate::rsu::{fnv_decision, sync_and_check, FNV_OFFSET};
use crate::setup::{reporter, Deployment, N_RSUS};
use std::time::{Duration, Instant};
use vehigan_features::{EvictionConfig, IngestGuard, Tier0Monitor, WindowBuffer};
use vehigan_mbr::{CertificateRevocationList, Mbr};
use vehigan_serve::{shard_for, Decision, PendingWindow, Shard, SCORE_TILE};
use vehigan_sim::Bsm;
use vehigan_tensor::Tensor;

/// Stages of one traced step, in execution order.
pub const STAGES: [&str; 10] = [
    "serve.ingest",
    "serve.take_pending",
    "serve.tier0_split",
    "lite.tier1_int8",
    "serve.record_gate",
    "core.tier2_f32",
    "serve.merge_mbr",
    "mbr.authority_ingest",
    "mbr.crl_mirror",
    "mbr.campaign",
];
pub const INGEST: usize = 0;
pub const TAKE: usize = 1;
pub const SPLIT: usize = 2;
pub const TIER1: usize = 3;
pub const RECORD: usize = 4;
pub const TIER2: usize = 5;
pub const MERGE: usize = 6;
pub const AUTHORITY: usize = 7;
pub const CRL: usize = 8;
pub const CAMPAIGN: usize = 9;

/// Busy time per stage against the wall time it ran in.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub stages: [Duration; STAGES.len()],
    pub wall: Duration,
}

impl Ledger {
    pub fn add(&mut self, stage: usize, d: Duration) {
        self.stages[stage] += d;
    }

    pub fn attributed(&self) -> Duration {
        self.stages.iter().sum()
    }

    /// Share of the wall time no stage accounts for.
    pub fn unattributed_share(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        (wall - self.attributed().as_secs_f64()) / wall
    }
}

/// A stopwatch that charges each lap to a stage.
struct Laps<'l> {
    ledger: &'l mut Ledger,
    last: Instant,
}

impl Laps<'_> {
    fn lap(&mut self, stage: usize) {
        let now = Instant::now();
        self.ledger.add(stage, now - self.last);
        self.last = now;
    }

    /// Restarts the stopwatch without charging the time to any stage.
    fn skip(&mut self) {
        self.last = Instant::now();
    }
}

/// Work counts of the traced pass.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub bsms: u64,
    pub rejected: u64,
    pub windows: u64,
    pub suppressed: u64,
    pub screened: u64,
    pub escalated: u64,
    pub confirmed: u64,
    pub reports: u64,
    pub accepted: u64,
    pub lookups: u64,
    pub syncs: u64,
    pub tick_windows: Vec<usize>,
}

pub struct Traced {
    pub ledger: Ledger,
    pub counts: Counts,
    pub digest: u64,
}

/// Runs the traced closed-loop pass over `city` with the same shard
/// count, threading and per-step box work as [`crate::rsu::Rsu::step`].
pub fn traced_pass(
    dep: &Deployment,
    city: &City,
    n_shards: usize,
    mut ride: Option<Campaign<'_>>,
) -> Traced {
    let guard = IngestGuard::rsu();
    let mut shards: Vec<Shard> = (0..n_shards)
        .map(|_| {
            Shard::with_guard(
                dep.window,
                dep.scaler.clone(),
                EvictionConfig::unbounded(),
                guard,
                None,
            )
            .with_tier0(Some(dep.tier0))
        })
        .collect();
    let mut authority = dep.authority();
    let validity = dep.live_policy().revocation_validity_s;
    let mut mirrors: Vec<CertificateRevocationList> = (0..N_RSUS)
        .map(|_| CertificateRevocationList::new(validity))
        .collect();
    let wl = dep.window * dep.scaler.width();
    let shape = [dep.window, dep.scaler.width(), 1];
    let cal = dep.tier0;
    let mut ledger = Ledger::default();
    let mut counts = Counts::default();
    let mut digest = FNV_OFFSET;

    let slices = city.slices();
    let mut tick = 0u64;
    let start = Instant::now();
    let mut laps = Laps {
        ledger: &mut ledger,
        last: start,
    };
    loop {
        let bsms: &[Bsm] = match slices.get(tick as usize) {
            Some(r) => &city.bsms[r.clone()],
            None if shards.iter().any(|s| s.pending_windows() > 0) => &[],
            None => break,
        };
        let me = reporter(tick);
        laps.skip();

        // 1. Sharded ingest, threaded like `StreamServer::ingest_batch`.
        let mut buckets: Vec<Vec<&Bsm>> = vec![Vec::new(); n_shards];
        for b in bsms {
            buckets[shard_for(b.vehicle_id, n_shards)].push(b);
        }
        if n_shards == 1 || bsms.len() < 64 {
            for (shard, bucket) in shards.iter_mut().zip(&buckets) {
                for b in bucket {
                    shard.ingest(b);
                }
            }
        } else {
            std::thread::scope(|s| {
                for (shard, bucket) in shards.iter_mut().zip(&buckets) {
                    if !bucket.is_empty() {
                        s.spawn(move || {
                            for b in bucket {
                                shard.ingest(b);
                            }
                        });
                    }
                }
            });
        }
        laps.lap(INGEST);

        // 2. Admission: every shard's whole queue, in shard order.
        let mut batch: Vec<f32> = Vec::new();
        let mut meta: Vec<PendingWindow> = Vec::new();
        for shard in &mut shards {
            let n = shard.pending_windows();
            if n > 0 {
                let (floats, windows) = shard.take_pending(n);
                batch.extend_from_slice(&floats);
                meta.extend_from_slice(&windows);
            }
        }
        laps.lap(TAKE);

        let mut decisions: Vec<Decision> = Vec::with_capacity(meta.len());
        let mut reports: Vec<Mbr> = Vec::new();
        if !meta.is_empty() {
            // 3. Tier-0 split: suppressed windows skip the ensemble.
            let screened: Vec<usize> = (0..meta.len()).filter(|&i| !meta[i].suppressed).collect();
            let mut screened_batch = Vec::with_capacity(screened.len() * wl);
            for &i in &screened {
                screened_batch.extend_from_slice(&batch[i * wl..(i + 1) * wl]);
            }
            laps.lap(SPLIT);

            // 4. Tier-1 int8 gate in serve tiles.
            let (gate, gate_tau) = score_tiles(dep, &screened_batch, wl, &shape, true);
            laps.lap(TIER1);

            // 5. Carried scores back to the owning shards.
            for (&i, &g) in screened.iter().zip(&gate) {
                let v = meta[i].vehicle;
                shards[shard_for(v, n_shards)].record_gate(v, g);
            }
            laps.lap(RECORD);

            // 6. Tier-2 f32 on the rows the gate escalates.
            let escalate: Vec<usize> = (0..gate.len()).filter(|&j| gate[j] > dep.tau_esc).collect();
            let mut sub = Vec::with_capacity(escalate.len() * wl);
            for &j in &escalate {
                sub.extend_from_slice(&screened_batch[j * wl..(j + 1) * wl]);
            }
            let (tier2, tier2_tau) = score_tiles(dep, &sub, wl, &shape, false);
            laps.lap(TIER2);

            // 7. Merge in admitted order and build the reports.
            let mut final_score: Vec<Option<f32>> = vec![None; gate.len()];
            for (&j, &s) in escalate.iter().zip(&tier2) {
                final_score[j] = Some(s);
            }
            let mut next = 0usize;
            for (i, w) in meta.iter().enumerate() {
                let d = if w.suppressed {
                    Decision {
                        vehicle: w.vehicle,
                        timestamp: w.timestamp,
                        score: w.pinned,
                        threshold: cal.tau,
                        escalated: false,
                        flagged: w.pinned > cal.tau,
                        suppressed: true,
                    }
                } else {
                    let j = next;
                    next += 1;
                    match final_score[j] {
                        Some(s) => Decision {
                            vehicle: w.vehicle,
                            timestamp: w.timestamp,
                            score: s,
                            threshold: tier2_tau,
                            escalated: true,
                            flagged: s > tier2_tau,
                            suppressed: false,
                        },
                        None => Decision {
                            vehicle: w.vehicle,
                            timestamp: w.timestamp,
                            score: gate[j],
                            threshold: gate_tau,
                            escalated: false,
                            flagged: false,
                            suppressed: false,
                        },
                    }
                };
                if d.flagged && d.escalated && d.vehicle != me {
                    reports.push(Mbr {
                        reporter: me,
                        suspect: d.vehicle,
                        timestamp: d.timestamp,
                        score: d.score,
                        threshold: d.threshold,
                        evidence: batch[i * wl..(i + 1) * wl].to_vec(),
                    });
                }
                decisions.push(d);
            }
            laps.lap(MERGE);
            counts.suppressed += (meta.len() - screened.len()) as u64;
            counts.screened += screened.len() as u64;
            counts.escalated += escalate.len() as u64;
            counts.confirmed += decisions
                .iter()
                .filter(|d| d.escalated && d.flagged)
                .count() as u64;
        }

        // 8. Authority ingest of this step's reports.
        if !reports.is_empty() {
            laps.skip();
            let br = authority.ingest_batch(&reports);
            laps.lap(AUTHORITY);
            counts.reports += br.received as u64;
            counts.accepted += br.accepted as u64;
        }

        // 9. The covering RSU's mirror syncs and checks the senders.
        laps.skip();
        let mirror = &mut mirrors[(tick % u64::from(N_RSUS)) as usize];
        std::hint::black_box(sync_and_check(mirror, authority.crl(), bsms));
        laps.lap(CRL);
        counts.syncs += 1;
        counts.lookups += bsms.len() as u64;

        if let Some(c) = ride.as_mut() {
            for _ in 0..crate::campaign::RIDE_STEPS_PER_TICK {
                c.step();
            }
            laps.lap(CAMPAIGN);
        }

        for d in &decisions {
            digest = fnv_decision(digest, d);
        }
        counts.bsms += bsms.len() as u64;
        counts.windows += decisions.len() as u64;
        counts.tick_windows.push(decisions.len());
        tick += 1;
    }
    ledger.wall = start.elapsed();
    counts.rejected = shards.iter().map(|s| s.rejects().total()).sum();
    Traced {
        ledger,
        counts,
        digest,
    }
}

/// Scores flat windows through the int8 gate or the f32 ensemble in
/// [`SCORE_TILE`] tiles; returns the scores and the ensemble threshold.
fn score_tiles(
    dep: &Deployment,
    data: &[f32],
    wl: usize,
    shape: &[usize; 3],
    int8: bool,
) -> (Vec<f32>, f32) {
    let n = data.len() / wl;
    let mut scores = Vec::with_capacity(n);
    let mut tau = 0.0f32;
    for start in (0..n).step_by(SCORE_TILE) {
        let end = (start + SCORE_TILE).min(n);
        let tile = Tensor::from_vec(
            data[start * wl..end * wl].to_vec(),
            &[end - start, shape[0], shape[1], shape[2]],
        );
        let r = if int8 {
            dep.vehigan.score_with_members_int8(&dep.members, &tile)
        } else {
            dep.vehigan.score_with_members(&dep.members, &tile)
        }
        .expect("ensemble scores");
        assert!(
            r.dropped.is_empty(),
            "a member dropped out of a traced tile"
        );
        tau = r.threshold;
        scores.extend_from_slice(&r.scores);
    }
    (scores, tau)
}

/// The `features` layer replayed over a stream: guard, window push and
/// tier-0 monitors, each as one timed pass.
pub struct Replay {
    pub guard_s: f64,
    pub window_s: f64,
    pub tier0_s: f64,
    pub bsms: u64,
    pub accepted: u64,
    pub windows: u64,
}

pub fn replay_features(dep: &Deployment, city: &City) -> Replay {
    let guard = IngestGuard::rsu();
    let n = city.vehicles;
    let id = |b: &Bsm| b.vehicle_id.0 as usize;

    let mut last = vec![f64::NEG_INFINITY; n];
    let mut accepted = vec![false; city.bsms.len()];
    let t = Instant::now();
    for (i, b) in city.bsms.iter().enumerate() {
        let seen = Some(last[id(b)]).filter(|t| t.is_finite());
        if guard.validate(b, seen).is_ok() {
            last[id(b)] = b.timestamp;
            accepted[i] = true;
        }
    }
    let guard_s = t.elapsed().as_secs_f64();

    let mut buffers: Vec<WindowBuffer> = (0..n)
        .map(|_| WindowBuffer::new(dep.window, dep.scaler.clone()))
        .collect();
    let mut completes = vec![false; city.bsms.len()];
    let t = Instant::now();
    for (i, b) in city.bsms.iter().enumerate() {
        if accepted[i] {
            completes[i] = buffers[id(b)].push(b).is_some();
        }
    }
    let window_s = t.elapsed().as_secs_f64();

    let mut monitors = vec![Tier0Monitor::new(dep.tier0.params); n];
    let mut suppressible = 0u64;
    let t = Instant::now();
    for (i, b) in city.bsms.iter().enumerate() {
        if accepted[i] {
            let m = &mut monitors[id(b)];
            m.push(b);
            if completes[i] {
                suppressible +=
                    u64::from(dep.tier0.evaluate(m).0 == vehigan_features::GateDecision::Suppress);
            }
        }
    }
    std::hint::black_box(suppressible);
    let tier0_s = t.elapsed().as_secs_f64();

    Replay {
        guard_s,
        window_s,
        tier0_s,
        bsms: city.bsms.len() as u64,
        accepted: accepted.iter().filter(|&&a| a).count() as u64,
        windows: completes.iter().filter(|&&c| c).count() as u64,
    }
}

/// Multiply-accumulates one window costs in each member's critic,
/// computed from the layer shapes (stride-1 convolutions).
pub fn macs_per_window(dep: &Deployment) -> u64 {
    dep.members
        .iter()
        .map(|&m| {
            let snap = dep.vehigan.members()[m].wgan.critic().save();
            let (mut h, mut w) = (dep.window, dep.scaler.width());
            let mut macs = 0u64;
            for layer in &snap.layers {
                let Ok(weights) = layer.tensor("w") else {
                    continue;
                };
                let numel = weights.len() as u64;
                if layer.kind == "Conv2D" {
                    if layer.usize_attr("padding").unwrap_or(0) != 0 {
                        h = h + 1 - layer.usize_attr("kh").unwrap_or(1);
                        w = w + 1 - layer.usize_attr("kw").unwrap_or(1);
                    }
                    macs += numel * (h * w) as u64;
                } else {
                    macs += numel;
                }
            }
            macs
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_sums_equal_wall_time_on_a_scripted_trace() {
        // A scripted step: 3 ms ingest, 1 ms admit, 5 ms int8, 2 ms f32,
        // inside a 12 ms wall — 1 ms the ledger cannot attribute.
        let ms = Duration::from_millis;
        let mut ledger = Ledger::default();
        for (stage, d) in [(INGEST, 3), (TAKE, 1), (TIER1, 5), (TIER2, 2)] {
            ledger.add(stage, ms(d));
        }
        ledger.wall = ms(12);
        assert_eq!(ledger.attributed(), ms(11));
        assert!((ledger.unattributed_share() - 1.0 / 12.0).abs() < 1e-12);
        assert_eq!(ledger.attributed() + ms(1), ledger.wall);

        // Laps charge contiguous intervals, so they sum to the span they
        // cover exactly.
        let mut ledger = Ledger::default();
        let start = Instant::now();
        let mut laps = Laps {
            ledger: &mut ledger,
            last: start,
        };
        for stage in [INGEST, TIER1, MERGE, CRL] {
            std::thread::sleep(ms(2));
            laps.lap(stage);
        }
        let end = laps.last;
        ledger.wall = end - start;
        assert_eq!(ledger.attributed(), ledger.wall);
        assert_eq!(ledger.unattributed_share(), 0.0);
    }
}
