//! Deployment set-up: the one serving configuration every workload
//! measures, calibrated the way the `tier0` and `authority` experiments
//! calibrate it.
//!
//! Once per checkout (untimed) the benchmark trains the quick zoo through
//! the pipeline's checkpoint resume path, selects and calibrates the
//! deployed ensemble, and runs the tier-0 `constrain` proof over the 36
//! campaign datasets. It keeps the result in a small bundle next to the
//! checkpoint: the deployed members' ids and thresholds, and the
//! constrained suppression scale.
//!
//! `setup_s` times what a deployment pays before its first BSM given those
//! artifacts: the feature scaler, loading the members from the checkpoint,
//! `compile_int8`, the tier-0 fit and score band, τ_esc, the constrained
//! scale, and the server and authority builds.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use vehigan_core::{
    CheckpointStore, CriticMember, GridConfig, Pipeline, PipelineConfig, VehiGan, WganConfig,
};
use vehigan_features::{
    build_windows_from_rows, engineer_rows, fit_scaler_from_rows, IngestGuard, MinMaxScaler,
    Tier0Calibration, Tier0Monitor, WindowConfig,
};
use vehigan_mbr::{AuthorityPolicy, MisbehaviorAuthority};
use vehigan_metrics::percentile;
use vehigan_serve::{
    escalation_threshold, AdmissionConfig, EscalationPolicy, ServerConfig, StreamServer, SCORE_TILE,
};
use vehigan_sim::{Bsm, SimConfig, TrafficSimulator, VehicleId, VehicleTrace};
use vehigan_tensor::Tensor;
use vehigan_vasp::{Attack, DatasetBuilder};

/// Benign quantile of the tier-0 decision intervals (as `tier0`).
const BENIGN_QUANTILE: f64 = 0.995;
/// τ_esc sits at the benign gate maximum (as `tier0`).
const ESCALATION_PERCENTILE: f64 = 100.0;
/// Windows `compile_int8` calibrates activation ranges on (as
/// `Pipeline::compile_int8`).
const INT8_CALIBRATION_WINDOWS: usize = 256;
/// Rotating RSU reporter identities (as `authority`).
pub const N_RSUS: u32 = 4;
const RSU_BASE: u32 = 1 << 30;

/// The quick-scale pipeline, pinned here so the benchmark's model does not
/// move when an experiment preset does.
fn pipeline_config(checkpoint_dir: &Path) -> PipelineConfig {
    PipelineConfig {
        sim: SimConfig {
            n_vehicles: 32,
            duration_s: 120.0,
            seed: 42,
            ..SimConfig::default()
        },
        window: WindowConfig {
            stride: 4,
            ..WindowConfig::default()
        },
        grid: GridConfig::quick(),
        top_m: 10,
        deploy_k: 5,
        zoo_threads: crate::host::nproc(),
        checkpoint_dir: Some(checkpoint_dir.to_path_buf()),
        ..PipelineConfig::quick()
    }
}

/// This checkout's model cache (ignored by git, never shared).
pub fn cache_dir() -> PathBuf {
    PathBuf::from(".rsubench-cache")
}

/// What the untimed once-per-checkout step leaves behind.
struct Bundle {
    /// `(config id, τ bits, ADS bits)` of the deployed members, in order.
    members: Vec<(String, u32, u64)>,
    /// Tier-0 suppression scale after `constrain` over the campaign.
    scale: f32,
}

impl Bundle {
    fn path(cache: &Path) -> PathBuf {
        cache.join("deployment.tsv")
    }

    fn read(cache: &Path) -> Option<Bundle> {
        let text = std::fs::read_to_string(Self::path(cache)).ok()?;
        let mut members = Vec::new();
        let mut scale = None;
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["member", id, tau, ads] => {
                    members.push((id.to_string(), tau.parse().ok()?, ads.parse().ok()?))
                }
                ["scale", bits] => scale = Some(f32::from_bits(bits.parse().ok()?)),
                _ => return None,
            }
        }
        Some(Bundle {
            members,
            scale: scale?,
        })
    }

    fn write(&self, cache: &Path) {
        let mut text = String::new();
        for (id, tau, ads) in &self.members {
            text.push_str(&format!("member\t{id}\t{tau}\t{ads}\n"));
        }
        text.push_str(&format!("scale\t{}\n", self.scale.to_bits()));
        let tmp = cache.join("deployment.tsv.tmp");
        std::fs::write(&tmp, text).expect("write deployment bundle");
        std::fs::rename(&tmp, Self::path(cache)).expect("publish deployment bundle");
    }
}

/// A deployed detector plus the calibration every workload serves with.
pub struct Deployment {
    pub vehigan: VehiGan,
    pub scaler: MinMaxScaler,
    pub tier0: Tier0Calibration,
    pub tau_esc: f32,
    /// Gate members = tier-2 members = `0..k`.
    pub members: Vec<usize>,
    pub window: usize,
}

/// Fleet split and features exactly as `Pipeline::try_run` builds them.
struct Data {
    config: PipelineConfig,
    train_fleet: Vec<VehicleTrace>,
    test_fleet: Vec<VehicleTrace>,
    scaler: MinMaxScaler,
    train_x: Tensor,
}

impl Data {
    fn build(config: PipelineConfig) -> Data {
        let fleet = TrafficSimulator::new(config.sim.clone()).run();
        let n = fleet.len();
        let n_train = ((n as f64 * config.train_fraction) as usize).max(1);
        let n_valid = ((n as f64 * config.valid_fraction) as usize).max(1);
        let train_fleet = fleet[..n_train].to_vec();
        let test_fleet = fleet[n_train + n_valid..].to_vec();
        let benign = DatasetBuilder::new(&train_fleet, config.dataset.clone()).benign_dataset();
        let rows = engineer_rows(&benign, config.window.representation);
        let scaler = fit_scaler_from_rows(&rows);
        let train_x = build_windows_from_rows(&rows, config.window, &scaler).x;
        Data {
            config,
            train_fleet,
            test_fleet,
            scaler,
            train_x,
        }
    }

    fn benign_windows(&self) -> Tensor {
        vehigan_core::CampaignPlane::new(
            &self.test_fleet,
            self.config.dataset.clone(),
            self.config.window,
            &self.scaler,
        )
        .benign_windows()
        .x
    }
}

impl Deployment {
    /// The untimed once-per-checkout step: trains (or resumes) the zoo,
    /// runs the `constrain` proof and writes the bundle. Checks that the
    /// bundle rebuilds the pipeline's own deployment bit for bit.
    pub fn prepare(cache: &Path) {
        if Bundle::read(cache).is_some() {
            return;
        }
        let zoo = cache.join("zoo");
        std::fs::create_dir_all(&zoo).expect("create zoo checkpoint directory");
        eprintln!("[setup] training the quick zoo into {}", zoo.display());
        let mut pipeline = Pipeline::run(pipeline_config(&zoo));
        pipeline.compile_int8().expect("int8 backend compiles");
        let k = pipeline.vehigan.k();
        let members = pipeline.vehigan.members()[..k]
            .iter()
            .map(|m| (m.id.clone(), m.threshold.to_bits(), m.ads.to_bits()))
            .collect();
        let mut bundle = Bundle {
            members,
            scale: f32::NAN,
        };
        let dep = Deployment::calibrate(&pipeline_data(&zoo), &bundle, &zoo);
        bundle.scale = constrained_scale(&pipeline, &dep);
        let probe = pipeline.campaign_plane().benign_windows().x;
        assert_eq!(
            gate_scores(&pipeline.vehigan, &dep.members, &probe),
            gate_scores(&dep.vehigan, &dep.members, &probe),
            "bundle does not rebuild the pipeline's deployed ensemble"
        );
        bundle.write(cache);
    }

    /// The timed deployment set-up.
    pub fn build(cache: &Path) -> Deployment {
        let bundle = Bundle::read(cache).expect("deployment bundle present");
        let zoo = cache.join("zoo");
        let mut dep = Deployment::calibrate(&pipeline_data(&zoo), &bundle, &zoo);
        dep.tier0.scale = bundle.scale;
        // The server and authority builds are part of set-up.
        drop(dep.server(crate::host::nproc()));
        drop(dep.authority());
        dep
    }

    fn calibrate(data: &Data, bundle: &Bundle, zoo: &Path) -> Deployment {
        let store = CheckpointStore::open(zoo).expect("open zoo checkpoint");
        let configs = data.config.grid.expand();
        let members: Vec<CriticMember> = bundle
            .members
            .iter()
            .map(|(id, tau, ads)| {
                let config = member_config(&configs, id);
                CriticMember {
                    id: id.clone(),
                    wgan: store.load_member(config).expect("member checkpoint loads"),
                    threshold: f32::from_bits(*tau),
                    ads: f64::from_bits(*ads),
                    quarantined: false,
                }
            })
            .collect();
        let k = members.len();
        let mut vehigan = VehiGan::new(members, k, data.config.seed).expect("ensemble builds");
        let shape = data.train_x.shape();
        let take = shape[0].min(INT8_CALIBRATION_WINDOWS);
        let len = shape[1] * shape[2] * shape[3];
        let calibration = Tensor::from_vec(
            data.train_x.as_slice()[..take * len].to_vec(),
            &[take, shape[1], shape[2], shape[3]],
        );
        vehigan
            .compile_int8(&calibration)
            .expect("int8 backend compiles");
        let members: Vec<usize> = (0..k).collect();
        let window = data.config.window.window;

        let mut cal = Tier0Calibration::fit(&data.train_fleet, window, BENIGN_QUANTILE)
            .expect("tier-0 calibration fits");
        let benign_gate = gate_scores(&vehigan, &members, &data.benign_windows());
        let tau_esc = escalation_threshold(&benign_gate, ESCALATION_PERCENTILE);
        let tau_detect = percentile(&benign_gate, 99.0);
        let (floor, ceil) = (
            percentile(&benign_gate, 10.0),
            percentile(&benign_gate, 50.0),
        );
        assert!(ceil < tau_esc, "benign gate scores degenerate");
        cal.set_score_band(floor, ceil, tau_detect);
        Deployment {
            vehigan,
            scaler: data.scaler.clone(),
            tier0: cal,
            tau_esc,
            members,
            window,
        }
    }

    /// The one serving configuration: tier-0 on, τ_esc threshold gate,
    /// RSU guard, unbounded admission.
    pub fn server_config(&self, n_shards: usize) -> ServerConfig {
        ServerConfig {
            n_shards,
            window: self.window,
            policy: EscalationPolicy::Threshold(self.tau_esc),
            members: Some(self.members.clone()),
            gate_members: Some(self.members.clone()),
            guard: IngestGuard::rsu(),
            admission: AdmissionConfig::unbounded(),
            tier0: Some(self.tier0),
            reporter: Some(reporter(0)),
            ..ServerConfig::default()
        }
    }

    pub fn server(&self, n_shards: usize) -> StreamServer<'_> {
        StreamServer::new(
            &self.vehigan,
            self.scaler.clone(),
            self.server_config(n_shards),
        )
        .expect("server builds")
    }

    /// The `authority` experiment's live-loop policy.
    pub fn live_policy(&self) -> AuthorityPolicy {
        AuthorityPolicy {
            min_reporters: 2,
            min_reports: 3,
            window_s: 60.0,
            evidence_len: self.window * self.scaler.width(),
            revocation_validity_s: None,
        }
    }

    pub fn authority(&self) -> MisbehaviorAuthority {
        MisbehaviorAuthority::new(self.live_policy())
    }
}

/// The zoo trains each grid configuration under its group's derived seed,
/// which the member id carries (`z{noise}-l{layers}-e{epochs}-s{seed}`).
fn member_config(grid: &[WganConfig], id: &str) -> WganConfig {
    let seed = id
        .rsplit_once("-s")
        .and_then(|(_, s)| s.parse().ok())
        .expect("member id carries its seed");
    grid.iter()
        .map(|c| WganConfig { seed, ..*c })
        .find(|c| c.id() == id)
        .expect("deployed member is in the grid")
}

fn pipeline_data(zoo: &Path) -> Data {
    Data::build(pipeline_config(zoo))
}

/// The RSU identity covering tick `tick` (hand-off every tick).
pub fn reporter(tick: u64) -> VehicleId {
    VehicleId(RSU_BASE + (tick % u64::from(N_RSUS)) as u32)
}

/// Scores flat windows through the int8 gate in serve-sized tiles.
fn gate_scores(vehigan: &VehiGan, members: &[usize], x: &Tensor) -> Vec<f32> {
    let shape = x.shape();
    let (n, len) = (shape[0], shape[1] * shape[2] * shape[3]);
    let mut scores = Vec::with_capacity(n);
    for start in (0..n).step_by(SCORE_TILE) {
        let end = (start + SCORE_TILE).min(n);
        let tile = Tensor::from_vec(
            x.as_slice()[start * len..end * len].to_vec(),
            &[end - start, shape[1], shape[2], shape[3]],
        );
        let r = vehigan
            .score_with_members_int8(members, &tile)
            .expect("int8 gate scores");
        scores.extend_from_slice(&r.scores);
    }
    scores
}

/// The `tier0` experiment's escalation-consistency pass: tightens the
/// suppression scale below every window of the 35 attack datasets and
/// the benign one whose always-tier-1 score escalates past τ_esc.
fn constrained_scale(pipeline: &Pipeline, dep: &Deployment) -> f32 {
    let mut cal = dep.tier0;
    let window = pipeline.config.window.window;
    let stride = pipeline.config.window.stride;
    let attacks = Attack::catalog();
    let plane = pipeline.campaign_plane();
    let test_fleet = pipeline.test_fleet();
    let builder = DatasetBuilder::new(test_fleet, pipeline.config.dataset.clone());
    let mut datasets: Vec<(HashMap<usize, Vec<Bsm>>, Tensor)> = attacks
        .iter()
        .zip(plane.campaign(&attacks))
        .map(|(&a, ds)| {
            let spliced = builder
                .attacker_traces(a)
                .into_iter()
                .map(|(i, lt)| (i, lt.trace.bsms))
                .collect();
            (spliced, ds.x)
        })
        .collect();
    datasets.push((HashMap::new(), plane.benign_windows().x));
    for (spliced, x) in &datasets {
        let gate = gate_scores(&dep.vehigan, &dep.members, x);
        let mut snaps = Vec::new();
        for (i, t) in test_fleet.iter().enumerate() {
            let bsms = spliced.get(&i).map_or(&t.bsms[..], |b| &b[..]);
            snaps.extend(trace_snapshots(bsms, &cal, window, stride));
        }
        assert_eq!(snaps.len(), gate.len(), "monitor snapshots misaligned");
        for (snap, &g) in snaps.iter().zip(&gate) {
            if g > dep.tau_esc {
                cal.constrain(&snap.statistics());
            }
        }
    }
    cal.scale
}

/// Monitor state at every dataset window boundary of one trace: window
/// `k` covers feature rows `[k·s, k·s + w)`, so it is judged against the
/// monitor right after message `k·s + w`.
fn trace_snapshots(
    bsms: &[Bsm],
    cal: &Tier0Calibration,
    window: usize,
    stride: usize,
) -> Vec<Tier0Monitor> {
    let rows = bsms.len().saturating_sub(1);
    if rows < window {
        return Vec::new();
    }
    let count = (rows - window) / stride + 1;
    let mut snaps = Vec::with_capacity(count);
    let mut monitor = Tier0Monitor::new(cal.params);
    for (i, bsm) in bsms.iter().enumerate() {
        monitor.push(bsm);
        if snaps.len() < count && i == snaps.len() * stride + window {
            snaps.push(monitor);
        }
    }
    snaps
}
