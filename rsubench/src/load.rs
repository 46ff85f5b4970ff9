//! Load generation (never timed): seeded city fleets with persistent
//! attackers, and the `authority` experiment's synthetic report campaign.

use std::collections::HashMap;
use std::ops::Range;
use vehigan_mbr::Mbr;
use vehigan_sim::{Bsm, SimConfig, TrafficSimulator, VehicleId, BSM_INTERVAL_S};
use vehigan_tensor::init::seeded_rng;
use vehigan_vasp::{inject, Attack, AttackParams, AttackPolicy};

/// Who attacks in a city mix, and with what.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Every `every`-th vehicle (fleet index 0, every, 2·every, …) attacks.
    pub every: usize,
    /// Attacks assigned round-robin over the attackers.
    pub attacks: Vec<Attack>,
}

impl Mix {
    /// `serve_driver::mixed_stream`'s city mix: 10% persistent attackers
    /// over RandomPosition / RandomSpeed / HighHeadingYawRate.
    pub fn steady() -> Mix {
        Mix {
            every: 10,
            attacks: ["RandomPosition", "RandomSpeed", "HighHeadingYawRate"]
                .iter()
                .map(|n| Attack::by_name(n).expect("catalog attack"))
                .collect(),
        }
    }

    /// The paper's threat model: 25% persistent attackers cycling all 35
    /// in-scope attacks.
    pub fn surge() -> Mix {
        Mix {
            every: 4,
            attacks: Attack::catalog(),
        }
    }
}

/// Vehicles enter RSU range at seeded times spread over this many seconds
/// before the steady part of the stream, so their window completions and
/// tier-0 refresh cycles are not synchronised.
pub const ENTRY_SPREAD_S: f64 = 0.5;

/// A timestamp-sorted BSM stream: vehicles enter during the first
/// [`ENTRY_SPREAD_S`] seconds, after which the whole fleet is on the road
/// for the rest of the stream.
pub struct City {
    pub bsms: Vec<Bsm>,
    /// Stream time of the first 100 ms slice.
    pub start: f64,
    /// Stream time from which every vehicle is on the road.
    pub steady: f64,
    pub vehicles: usize,
    /// `is_attacker[id]` for fleet ids `0..vehicles`.
    pub is_attacker: Vec<bool>,
}

impl City {
    /// Simulates `vehicles` for `duration_s` seconds of steady stream.
    pub fn generate(seed: u64, vehicles: usize, duration_s: f64, mix: &Mix) -> City {
        // The simulator spawns vehicles in the first fifth of its span;
        // entry into range starts after that.
        let steady = 0.25 * duration_s + 1.25 * ENTRY_SPREAD_S + 0.5;
        let fleet = TrafficSimulator::new(SimConfig {
            n_vehicles: vehicles,
            duration_s: steady + duration_s,
            seed,
            ..SimConfig::default()
        })
        .run();
        let mut rng = seeded_rng(seed ^ 0xA77A_C4E5);
        let mut entry = seed ^ 0xE47E;
        let mut bsms: Vec<Bsm> = Vec::new();
        let mut is_attacker = vec![false; vehicles];
        let mut attackers = 0usize;
        for (i, trace) in fleet.iter().enumerate() {
            entry = splitmix(entry);
            let enters = steady - ENTRY_SPREAD_S * (entry >> 11) as f64 / (1u64 << 53) as f64;
            let attacked;
            let trace = if i % mix.every == 0 {
                attacked = inject(
                    trace,
                    mix.attacks[attackers % mix.attacks.len()],
                    AttackPolicy::Persistent,
                    &AttackParams::default(),
                    &mut rng,
                );
                is_attacker[i] = true;
                attackers += 1;
                &attacked.trace
            } else {
                trace
            };
            bsms.extend(trace.bsms.iter().filter(|b| b.timestamp >= enters));
        }
        bsms.sort_by(|a, b| {
            a.timestamp
                .total_cmp(&b.timestamp)
                .then(a.vehicle_id.cmp(&b.vehicle_id))
        });
        City {
            bsms,
            start: steady - ENTRY_SPREAD_S,
            steady,
            vehicles,
            is_attacker,
        }
    }

    /// The first `n` vehicles of this fleet, with the same stream timing.
    /// Attack injection draws from one RNG in fleet order, so a prefix is
    /// exactly the fleet a smaller generation would have produced.
    pub fn prefix(&self, n: usize) -> City {
        City {
            bsms: self
                .bsms
                .iter()
                .filter(|b| (b.vehicle_id.0 as usize) < n)
                .copied()
                .collect(),
            start: self.start,
            steady: self.steady,
            vehicles: n,
            is_attacker: self.is_attacker[..n].to_vec(),
        }
    }

    /// This stream cut at stream time `end`.
    pub fn until(&self, end: f64) -> City {
        let n = self.bsms.partition_point(|b| b.timestamp < end);
        City {
            bsms: self.bsms[..n].to_vec(),
            start: self.start,
            steady: self.steady,
            vehicles: self.vehicles,
            is_attacker: self.is_attacker.clone(),
        }
    }

    pub fn is_attacker(&self, v: VehicleId) -> bool {
        self.is_attacker.get(v.0 as usize).copied().unwrap_or(false)
    }

    /// First BSM time of every vehicle in the stream.
    pub fn first_seen(&self) -> HashMap<VehicleId, f64> {
        let mut first = HashMap::new();
        for b in &self.bsms {
            first.entry(b.vehicle_id).or_insert(b.timestamp);
        }
        first
    }

    /// Index ranges of consecutive 100 ms slices from `start`.
    pub fn slices(&self) -> Vec<Range<usize>> {
        slices_from(&self.bsms, self.start)
    }
}

/// Groups a sorted stream into [`BSM_INTERVAL_S`] slices from `start`
/// (empty slices included, so a loop over them ticks at stream cadence).
pub fn slices_from(bsms: &[Bsm], start: f64) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    let mut begin = 0usize;
    let mut k = 1u32;
    while begin < bsms.len() {
        let end_t = start + f64::from(k) * BSM_INTERVAL_S;
        let end = begin + bsms[begin..].partition_point(|b| b.timestamp < end_t);
        ranges.push(begin..end);
        begin = end;
        k += 1;
    }
    ranges
}

// --- The `authority` experiment's synthetic campaign: 1 000 000 reports
// over 600 s (400 attackers accused by 4 rotating reporters at 1 Hz, 200
// honest vehicles smeared by one stalker at 4 Hz, 28 000 honest vehicles
// with 10 sparse reports from two reporters). ---

pub const HORIZON_S: usize = 600;
pub const N_ATTACKERS: u32 = 400;
const N_STALKED: u32 = 200;
const STALKED_HZ: usize = 4;
const N_NOISE: u32 = 28_000;
const NOISE_REPORTS: usize = 10;
const NOISE_SPACING_S: f64 = 45.0;
pub const EV_LEN: usize = 8;
pub const CAMPAIGN_REPORTS: usize = HORIZON_S
    * (N_ATTACKERS as usize + N_STALKED as usize * STALKED_HZ)
    + N_NOISE as usize * NOISE_REPORTS;

const STALKED_BASE: u32 = 500_000;
const NOISE_BASE: u32 = 600_000;
pub const ATTACKER_BASE: u32 = 1_000_000;
const ATTACKER_RSU_BASE: u32 = 2_000_000;
const STALKER_BASE: u32 = 3_000_000;
const NOISE_RSU_BASE: u32 = 4_000_000;

fn report(reporter: u32, suspect: u32, t: f64) -> Mbr {
    Mbr {
        reporter: VehicleId(reporter),
        suspect: VehicleId(suspect),
        timestamp: t,
        score: 1.0,
        threshold: 0.25,
        evidence: vec![0.0; EV_LEN],
    }
}

/// Every campaign report, cut into 100 ms steps of campaign time.
pub fn campaign_steps() -> Vec<Vec<Mbr>> {
    let n_steps = HORIZON_S * 10;
    let mut steps: Vec<Vec<Mbr>> = vec![Vec::new(); n_steps];
    let step_of = |t: f64| ((t * 10.0) as usize).min(n_steps - 1);
    for sec in 0..HORIZON_S {
        let t = sec as f64;
        for j in 0..N_ATTACKERS {
            let tj = t + f64::from(j) * 0.002;
            steps[step_of(tj)].push(report(
                ATTACKER_RSU_BASE + j * 4 + (sec as u32 % 4),
                ATTACKER_BASE + j,
                tj,
            ));
        }
        for v in 0..N_STALKED {
            for q in 0..STALKED_HZ {
                let tq = t + q as f64 * 0.25 + f64::from(v) * 1e-4;
                steps[step_of(tq)].push(report(STALKER_BASE + v, STALKED_BASE + v, tq));
            }
        }
    }
    for v in 0..N_NOISE {
        let start = f64::from(v % 150);
        for k in 0..NOISE_REPORTS {
            let tk = start + k as f64 * NOISE_SPACING_S + f64::from(v) * 1e-6;
            if tk < HORIZON_S as f64 {
                steps[step_of(tk)].push(report(
                    NOISE_RSU_BASE + v * 2 + k as u32 % 2,
                    NOISE_BASE + v,
                    tk,
                ));
            }
        }
    }
    for s in &mut steps {
        s.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    }
    steps
}

/// Whether a campaign pseudonym is one of the honest (stalked or noise)
/// vehicles.
pub fn campaign_honest(v: VehicleId) -> bool {
    (STALKED_BASE..STALKED_BASE + N_STALKED).contains(&v.0)
        || (NOISE_BASE..NOISE_BASE + N_NOISE).contains(&v.0)
}

/// A seeded BSM-rate stream of sender pseudonyms an RSU mirror checks:
/// campaign attackers, honest campaign suspects and unknown vehicles.
pub fn lookup_ids(seed: u64, n: usize) -> Vec<VehicleId> {
    let mut x = seed ^ 0x5EED_F00C;
    (0..n)
        .map(|_| {
            x = splitmix(x);
            let r = (x >> 32) as u32;
            match r % 4 {
                0 => VehicleId(ATTACKER_BASE + r / 4 % N_ATTACKERS),
                1 => VehicleId(STALKED_BASE + r / 4 % N_STALKED),
                2 => VehicleId(NOISE_BASE + r / 4 % N_NOISE),
                _ => VehicleId(r / 4 % 100_000),
            }
        })
        .collect()
}

pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_has_exactly_one_million_reports() {
        let steps = campaign_steps();
        assert_eq!(steps.len(), HORIZON_S * 10);
        assert_eq!(steps.iter().map(Vec::len).sum::<usize>(), CAMPAIGN_REPORTS);
        assert_eq!(CAMPAIGN_REPORTS, 1_000_000);
        for (i, s) in steps.iter().enumerate() {
            for r in s {
                assert_eq!(((r.timestamp * 10.0) as usize).min(5999), i);
            }
        }
    }

    #[test]
    fn slices_cover_the_stream_in_order() {
        let bsm = |t: f64| Bsm {
            vehicle_id: VehicleId(0),
            timestamp: t,
            pos_x: 0.0,
            pos_y: 0.0,
            speed: 0.0,
            acceleration: 0.0,
            heading: 0.0,
            yaw_rate: 0.0,
        };
        let s: Vec<Bsm> = [1.0, 1.05, 1.25, 1.31].iter().map(|&t| bsm(t)).collect();
        assert_eq!(slices_from(&s, 1.0), vec![0..2, 2..2, 2..3, 3..4]);
    }
}
