//! The repository benchmark: real-time serving capacity, BSM→revocation
//! latency and a per-layer stage ledger for the shipped three-tier server
//! and its misbehavior authority. See `rsubench/README.md`.
//!
//! Usage: `rsubench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! from the repository root. The last line of standard output is the
//! result as one JSON object; a failed correctness check exits non-zero.

mod campaign;
mod host;
mod ledger;
mod load;
mod rsu;
mod serve;
mod setup;
mod stats;

use campaign::Campaign;
use load::{City, Mix};
use rsu::Rsu;
use setup::Deployment;
use stats::{median, percentile};
use std::collections::HashMap;
use std::time::Instant;

/// The workloads, each with the fleet its fixed-size passes serve.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    SteadyCity,
    RevocationCampaign,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::SteadyCity, Workload::RevocationCampaign];

    fn name(self) -> &'static str {
        match self {
            Workload::SteadyCity => "steady-city",
            Workload::RevocationCampaign => "revocation-campaign",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The served traffic: the city mix, or the paper's threat model while
    /// the campaign runs.
    fn mix(self) -> Mix {
        match self {
            Workload::SteadyCity => Mix::steady(),
            Workload::RevocationCampaign => Mix::surge(),
        }
    }

    /// Fleet of the closed-loop and fixed open-loop passes: about half
    /// the capacity of a 2-core host.
    fn fleet(self) -> usize {
        match self {
            Workload::SteadyCity => 450,
            Workload::RevocationCampaign => 400,
        }
    }

    /// Fleet of the closed-loop pass the revocation outcome is read from:
    /// large enough that the attacker shares rest on a hundred or more
    /// attackers.
    fn revocation_fleet(self) -> usize {
        match self {
            Workload::SteadyCity => 1000,
            Workload::RevocationCampaign => 1200,
        }
    }
}

/// Vehicles in the generated fleet every stream is a prefix of: the top of
/// the capacity search.
const MAX_FLEET: usize = 2400;
/// The capacity search bracket, as multiples of the fleet whose BSM rate
/// equals the closed-loop throughput: the open loop cannot serve more than
/// the closed loop sustains, and on the reference host the knee lies at
/// about 0.85 of it.
const BRACKET: (f64, f64) = (0.6, 1.1);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("missing value for {k}"))?;
        map.insert(k, v);
    }
    let get = |k: &str| map.get(k).ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

/// Metrics and checks of one run.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, String)>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits (a non-finite value, which fails
/// the run, prints as `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rsubench: {e}");
            eprintln!(
                "usage: rsubench --workload <steady-city|revocation-campaign> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if !std::path::Path::new("rsubench/Cargo.toml").exists() {
        eprintln!("rsubench: run from the repository root");
        std::process::exit(2);
    }
    let n_shards = host::nproc();
    println!(
        "host: nproc {} | isa {} | shards {} | commit {} | source {}",
        host::nproc(),
        host::isa_leg(),
        n_shards,
        host::commit(),
        host::source_digest()
    );

    let cache = setup::cache_dir();
    Deployment::prepare(&cache);
    let inputs = Inputs::generate(&args, &Lengths::of(args.seconds));
    // Memory is measured from here: training and load generation are not
    // the system under test.
    host::reset_peak_rss();
    let mut setups = Vec::new();
    let mut dep = None;
    for _ in 0..SETUP_REPEATS {
        let mut clock = host::Clock::start();
        dep = Some(Deployment::build(&cache));
        setups.push(clock.now());
    }
    let dep = dep.expect("at least one set-up");

    let mut report = Report::default();
    run(&args, &dep, n_shards, &inputs, &mut report);
    if !args.trace {
        report.metric(
            "completed_share",
            1.0 - report.failed as f64 / report.attempted.max(1) as f64,
            "ratio",
        );
        report.metric("setup_s", median(&setups), "s");
    }
    let unmeasurable: Vec<String> = report
        .metrics
        .iter()
        .filter(|(_, v, _)| !v.is_finite())
        .map(|(name, v, _)| format!("{name} is not measurable: {v}"))
        .collect();
    report.failures.extend(unmeasurable);
    for f in &report.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    println!("{}", report.json());
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

const SETUP_REPEATS: usize = 3;
/// Closed-loop warm-up after the fleet is complete, before any timed
/// step (stream seconds): fills every window buffer and tier-0 monitor and
/// records a carried score.
const WARM_S: f64 = 1.1;
/// Independent capacity searches, spread over the run.
const CAPACITY_SEARCHES: usize = 2;
/// Bisection steps of one capacity search.
const CAPACITY_STEPS: u32 = 4;

/// Stream lengths (steady seconds after warm-up) of each pass kind,
/// proportional to the run length.
struct Lengths {
    closed: f64,
    fixed: f64,
    probe: f64,
}

impl Lengths {
    fn of(seconds: f64) -> Lengths {
        Lengths {
            closed: 0.15 * seconds,
            fixed: 0.15 * seconds,
            probe: 0.1 * seconds,
        }
    }
}

/// Everything a run measures a workload on.
struct Inputs {
    /// The capacity fleet; every other stream is a prefix of it.
    big: City,
    /// The fixed fleet for the closed-loop passes.
    city: City,
    /// The authority campaign, in 100 ms steps.
    steps: Vec<Vec<vehigan_mbr::Mbr>>,
    lookups: Vec<vehigan_sim::VehicleId>,
    /// Whether the campaign also rides along the served stream.
    ride_along: bool,
}

impl Inputs {
    fn generate(args: &Args, len: &Lengths) -> Inputs {
        let w = args.workload;
        let steady = WARM_S + len.closed.max(len.fixed).max(len.probe);
        let big = City::generate(args.seed, MAX_FLEET, steady, &w.mix());
        let city = big
            .prefix(w.fleet())
            .until(big.steady + WARM_S + len.closed);
        Inputs {
            city,
            steps: load::campaign_steps(),
            ride_along: w == Workload::RevocationCampaign,
            lookups: load::lookup_ids(args.seed, 50_000),
            big,
        }
    }

    /// The campaign riding along the served stream, on the workload that
    /// has one.
    fn ride(&self) -> Option<Campaign<'_>> {
        self.ride_along
            .then(|| Campaign::new(&self.steps, &self.lookups))
    }
}

fn run(args: &Args, dep: &Deployment, n_shards: usize, inputs: &Inputs, report: &mut Report) {
    let w = args.workload;
    let len = Lengths::of(args.seconds);
    let city = &inputs.city;
    let clock = Instant::now();
    let phase = |name: &str| eprintln!("[phase] {name} at {:.2} s", clock.elapsed().as_secs_f64());
    println!(
        "workload {}: fixed fleet {} ({} attackers), {} BSMs",
        w.name(),
        city.vehicles,
        city.is_attacker.iter().filter(|&&a| a).count(),
        city.bsms.len(),
    );

    // A closed-loop pass over a larger fleet warms the process up and gives
    // the (deterministic) revocation outcome.
    let measured_from = city.steady + WARM_S;
    let rev_city = inputs
        .big
        .prefix(w.revocation_fleet())
        .until(inputs.big.steady + WARM_S + len.closed);
    let rev_replay = ledger::replay_features(dep, &rev_city);
    let (_, rev) = closed_pass(dep, n_shards, inputs, &rev_city, &rev_replay, None, report);
    revocation_outcome(&rev_city, &rev, report, args.trace);
    drop(rev);

    // Timed closed-loop passes over the fixed fleet, spread over the run so
    // that a slow spell of a shared host lands in one of them, not all.
    // The first is the reference every later pass must reproduce.
    let replay = ledger::replay_features(dep, city);
    let reference = closed_pass(dep, n_shards, inputs, city, &replay, None, report);
    let mut others = Vec::new();
    let again = |report: &mut Report| {
        closed_pass(
            dep,
            n_shards,
            inputs,
            city,
            &replay,
            Some(&reference.1),
            report,
        )
    };
    others.push(again(report));
    phase("closed loop");
    if args.trace {
        per_layer(
            args, dep, n_shards, inputs, &reference, &others, &replay, report,
        );
        return;
    }

    // Open loop at the fixed fleet.
    let fixed_city = inputs
        .big
        .prefix(w.fleet())
        .until(inputs.big.steady + WARM_S + len.fixed);
    let mut rsu = Rsu::new(dep, n_shards, inputs.ride());
    let open = serve::warm_open_loop(&mut rsu, &fixed_city, measured_from);
    drop(rsu);
    report.attempted += (open.latency_ms.len() + open.undecided) as u64;
    report.failed += open.undecided as u64;
    println!(
        "open loop at {} vehicles: {} decisions, whole-pass tail {:?}, generator late p99 {:.1} ms",
        w.fleet(),
        open.latency_ms.len(),
        stats::tail(&open.latency_ms),
        percentile(&open.late_ms, 99.0)
    );
    match (open.typical(50.0), open.typical(99.0)) {
        (Some(p50), Some(p99)) => {
            report.metric("decision_p50_ms", p50, "ms");
            report.metric("decision_p99_ms", p99, "ms");
        }
        _ => report
            .failures
            .push("open loop too short for a p99".to_string()),
    }
    report.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
    phase("fixed open loop");

    // Capacity: bisect over prefixes of the generated fleet, in a bracket
    // around the fleet the closed loop sustains. The probes, the later
    // closed-loop passes and the campaign passes take turns, so that a
    // slow spell of the shared host lands in one of each, not in all.
    let passes: Vec<&serve::Closed> = std::iter::once(&reference)
        .chain(&others)
        .map(|(c, _)| c)
        .collect();
    let sustained_fleet = serve::steady_rate(&passes, measured_from) * vehigan_sim::BSM_INTERVAL_S;
    let hi = ((BRACKET.1 * sustained_fleet) as usize).min(MAX_FLEET);
    let lo = (BRACKET.0 * sustained_fleet) as usize;
    println!("capacity bracket {lo}..{hi} vehicles");
    let probe_city = inputs.big.until(inputs.big.steady + WARM_S + len.probe);
    let probe = |search: &mut Search| {
        let Some(n) = search.bisection.next() else {
            return;
        };
        let mut rsu = Rsu::new(dep, n_shards, inputs.ride());
        let open = serve::warm_open_loop(&mut rsu, &probe_city.prefix(n), measured_from);
        let ok = open.meets_limit();
        let p99 = open.quiet(serve::LIMIT_PERCENTILE).unwrap_or(f64::INFINITY);
        println!(
            "  probe {n:>5} vehicles: quiet p99 {p99:.1} ms, lateness grows {} -> {}",
            open.lateness_grows(),
            if ok { "pass" } else { "fail" }
        );
        search.quiet_p99.insert(n, p99);
        search.bisection.record(n, ok);
    };
    let mut plane = AuthorityPlane::default();
    let mut caps = Vec::new();
    for _ in 0..CAPACITY_SEARCHES {
        let mut search = Search {
            bisection: stats::Bisection::new(lo, hi, CAPACITY_STEPS),
            quiet_p99: HashMap::new(),
        };
        probe(&mut search);
        probe(&mut search);
        plane.pass(inputs, report);
        while search.bisection.next().is_some() {
            probe(&mut search);
        }
        caps.push(search.capacity());
        others.push(again(report));
    }
    plane.pass(inputs, report);
    // The better search: a slow spell of the host rarely covers both.
    let cap = caps.iter().copied().fold(f64::NAN, f64::max);
    report.metric("capacity_veh", cap, "vehicles");
    phase("capacity and authority plane");

    let timed: Vec<&(serve::Closed, Rsu<'_>)> =
        std::iter::once(&reference).chain(&others).collect();
    let passes: Vec<&serve::Closed> = timed.iter().map(|(c, _)| c).collect();
    report.metric(
        "sustained_bsm_s",
        serve::steady_rate(&passes, measured_from),
        "BSMs/s",
    );
    // The campaign is the report load where it runs; on `steady-city` the
    // rate is the live loop's own reports.
    let live: Vec<f64> = timed
        .iter()
        .map(|(_, r)| r.reports as f64 / r.report_ingest_s)
        .collect();
    let rate = if inputs.ride_along {
        plane.reports_per_s()
    } else {
        median(&live)
    };
    report.metric("reports_per_s", rate, "reports/s");
    report.metric("step_p99_ms", percentile(&plane.step_ms, 99.0), "ms");
}

/// One capacity search: the bisection and each probe's quiet p99.
struct Search {
    bisection: stats::Bisection,
    quiet_p99: HashMap<usize, f64>,
}

impl Search {
    /// The fleet where the quiet p99 crosses the limit inside the final
    /// bracket.
    fn capacity(&self) -> f64 {
        let (pass, fail) = self.bisection.bracket();
        let at = |n: usize| self.quiet_p99.get(&n).copied().unwrap_or(f64::INFINITY);
        stats::crossing((pass, at(pass)), (fail, at(fail)), serve::LATENCY_LIMIT_MS)
    }
}

/// The authority plane measured on its own: full campaign passes give the
/// step tail on every workload (6000 steps support a p99), and the ingest
/// rate where the campaign is the report load.
///
/// The campaign is the same in every pass, so each step keeps its cheapest
/// pass: the cost of its own work, without the interference a shared host
/// adds in spells of seconds. The passes are spread over the run.
#[derive(Default)]
struct AuthorityPlane {
    reports: u64,
    /// Per campaign step, its cheapest pass so far: whole step and
    /// `ingest_batch`, CPU ms.
    step_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
}

impl AuthorityPlane {
    fn pass(&mut self, inputs: &Inputs, report: &mut Report) {
        let mut c = Campaign::new(&inputs.steps, &inputs.lookups);
        c.run();
        report.failures.extend(c.check());
        report.attempted += c.reports;
        report.failed += c.rejected;
        println!(
            "  campaign pass: {:.0} reports/s, step p99 {:.3} ms",
            c.reports_per_s(),
            percentile(&c.step_ms, 99.0)
        );
        self.reports = c.reports;
        for (min, pass) in [
            (&mut self.step_ms, c.step_ms),
            (&mut self.ingest_ms, c.ingest_ms),
        ] {
            if min.is_empty() {
                *min = pass;
            } else {
                min.iter_mut().zip(pass).for_each(|(a, b)| *a = a.min(b));
            }
        }
    }

    /// Reports per CPU second of the cheapest ingest of every step.
    fn reports_per_s(&self) -> f64 {
        self.reports as f64 / (self.ingest_ms.iter().sum::<f64>() / 1e3)
    }
}

/// One closed-loop pass over the fixed fleet, checked against the
/// reference pass: identical decisions and counters, conservation of the
/// windows the stream completes, a drained queue and no shard panic.
fn closed_pass<'d>(
    dep: &'d Deployment,
    n_shards: usize,
    inputs: &'d Inputs,
    city: &City,
    replay: &ledger::Replay,
    reference: Option<&Rsu<'_>>,
    report: &mut Report,
) -> (serve::Closed, Rsu<'d>) {
    let mut rsu = Rsu::new(dep, n_shards, inputs.ride());
    let closed = serve::closed_loop(&mut rsu, city);
    let st = rsu.stats();
    if let Some(r) = reference {
        report.check(rsu.digest == r.digest, || {
            "closed-loop decision digest differs between passes".to_string()
        });
        report.check(st == r.stats(), || {
            "closed-loop ServerStats differ between passes".to_string()
        });
    }
    report.check(closed.undrained == 0, || {
        format!("closed loop left {} windows queued", closed.undrained)
    });
    report.check(st.shard_panics == 0, || {
        format!("closed loop: {} shard panics", st.shard_panics)
    });
    report.check(rsu.decided + st.shed == replay.windows, || {
        format!(
            "closed loop: {} decided + {} shed != {} windows completed",
            rsu.decided, st.shed, replay.windows
        )
    });
    report.attempted += replay.windows;
    report.failed += st.shed + closed.undrained as u64;
    (closed, rsu)
}

/// Revocation outcome of the deterministic closed-loop stream: time from
/// an attacker's first BSM to the end of the step in which its revocation
/// reached the covering RSU's CRL mirror, and the CRL against ground
/// truth.
fn revocation_outcome(city: &City, rsu: &Rsu<'_>, report: &mut Report, trace: bool) {
    let mut to_revoke = Vec::new();
    let (mut attackers, mut honest, mut honest_kept) = (0usize, 0usize, 0usize);
    for (v, t_first) in &city.first_seen() {
        let step = rsu.revoked_step.get(v);
        if city.is_attacker(*v) {
            attackers += 1;
            if let Some(&k) = step {
                let seen = city.start + (k + 1) as f64 * vehigan_sim::BSM_INTERVAL_S;
                to_revoke.push(seen - t_first);
            }
        } else {
            honest += 1;
            honest_kept += usize::from(step.is_none());
        }
    }
    println!(
        "revocations: {} of {attackers} attackers, {} of {honest} honest vehicles",
        to_revoke.len(),
        honest - honest_kept
    );
    report.check(!to_revoke.is_empty(), || {
        "no attacker was revoked".to_string()
    });
    if trace {
        return;
    }
    if !to_revoke.is_empty() {
        report.metric("time_to_revoke_p50_s", median(&to_revoke), "s");
    }
    report.metric(
        "attackers_revoked_share",
        to_revoke.len() as f64 / attackers.max(1) as f64,
        "ratio",
    );
    report.metric(
        "honest_kept_share",
        honest_kept as f64 / honest.max(1) as f64,
        "ratio",
    );
}

/// The traced run: per-layer metrics from the stage ledger, the features
/// replay and the authority plane, plus the benchmark's health numbers.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    dep: &Deployment,
    n_shards: usize,
    inputs: &Inputs,
    reference: &(serve::Closed, Rsu<'_>),
    others: &[(serve::Closed, Rsu<'_>)],
    replay: &ledger::Replay,
    report: &mut Report,
) {
    let city = &inputs.city;
    let traced = ledger::traced_pass(dep, city, n_shards, inputs.ride());
    report.check(traced.digest == reference.1.digest, || {
        "traced decision digest differs from the untraced pass".to_string()
    });
    let walls: Vec<f64> = std::iter::once(reference)
        .chain(others)
        .map(|(c, _)| c.wall_s)
        .collect();
    let untraced_wall = median(&walls);
    let l = &traced.ledger;
    let c = &traced.counts;
    let wall = l.wall.as_secs_f64();
    println!("ledger: {} steps, wall {:.3} s", c.tick_windows.len(), wall);
    for (name, d) in ledger::STAGES.iter().zip(&l.stages) {
        let d = d.as_secs_f64();
        println!(
            "  {name:<22} {:>9.3} ms {:>6.2}%",
            d * 1e3,
            100.0 * d / wall
        );
    }
    let per = |stage: usize, n: u64| l.stages[stage].as_secs_f64() * 1e9 / n.max(1) as f64;
    let macs = ledger::macs_per_window(dep) as f64;
    let busy: Vec<f64> = c
        .tick_windows
        .iter()
        .filter(|&&n| n > 0)
        .map(|&n| n as f64)
        .collect();
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    report.metric("serve.ingest_ns_per_bsm", per(ledger::INGEST, c.bsms), "ns");
    let per_bsm = |s: f64, n: u64| s * 1e9 / n.max(1) as f64;
    report.metric(
        "features.guard_ns_per_bsm",
        per_bsm(replay.guard_s, replay.bsms),
        "ns",
    );
    report.metric(
        "features.window_ns_per_bsm",
        per_bsm(replay.window_s, replay.accepted),
        "ns",
    );
    report.metric(
        "features.tier0_ns_per_bsm",
        per_bsm(replay.tier0_s, replay.accepted),
        "ns",
    );
    report.metric(
        "features.tier0_suppressed_share",
        ratio(c.suppressed, c.windows),
        "ratio",
    );
    report.metric(
        "serve.admit_ns_per_window",
        per(ledger::TAKE, c.windows) + per(ledger::SPLIT, c.windows),
        "ns",
    );
    report.metric(
        "serve.merge_ns_per_window",
        per(ledger::MERGE, c.windows),
        "ns",
    );
    report.metric("serve.tick_windows_p50", median(&busy), "windows");
    report.metric(
        "lite.tier1_ns_per_window",
        per(ledger::TIER1, c.screened),
        "ns",
    );
    report.metric(
        "tensor.tier1_gops",
        2.0 * macs / per(ledger::TIER1, c.screened),
        "Gop/s",
    );
    report.metric(
        "core.tier2_ns_per_window",
        per(ledger::TIER2, c.escalated),
        "ns",
    );
    report.metric(
        "tensor.tier2_gflops",
        2.0 * macs / per(ledger::TIER2, c.escalated),
        "GFLOP/s",
    );
    report.metric(
        "core.tier2_escalated_share",
        ratio(c.escalated, c.screened),
        "ratio",
    );
    report.metric(
        "core.tier2_confirm_share",
        ratio(c.confirmed, c.escalated),
        "ratio",
    );
    report.metric(
        "serve.guard_reject_share",
        ratio(c.rejected, c.bsms),
        "ratio",
    );
    if !inputs.ride_along {
        report.metric(
            "mbr.authority_ns_per_report",
            per(ledger::AUTHORITY, c.reports),
            "ns",
        );
        report.metric("mbr.accept_share", ratio(c.accepted, c.reports), "ratio");
        report.metric("mbr.crl_sync_ns", per(ledger::CRL, c.syncs), "ns");
        report.metric("mbr.crl_lookup_ns", per(ledger::CRL, c.lookups), "ns");
    } else {
        let mut camp = Campaign::new(&inputs.steps, &inputs.lookups);
        camp.run();
        report.failures.extend(camp.check());
        let n = camp.step_ms.len() as u64;
        report.metric(
            "mbr.authority_ns_per_report",
            per_bsm(camp.ingest_s, camp.reports),
            "ns",
        );
        report.metric(
            "mbr.accept_share",
            ratio(camp.accepted, camp.reports),
            "ratio",
        );
        report.metric("mbr.crl_sync_ns", per_bsm(camp.sync_s, n), "ns");
        report.metric(
            "mbr.crl_lookup_ns",
            per_bsm(camp.lookup_s, camp.lookups_done),
            "ns",
        );
    }
    let fixed_city = city.until(city.steady + WARM_S + Lengths::of(args.seconds).fixed);
    let mut rsu = Rsu::new(dep, n_shards, inputs.ride());
    let open = serve::warm_open_loop(&mut rsu, &fixed_city, city.steady + WARM_S);
    report.metric("gen.late_p99_ms", percentile(&open.late_ms, 99.0), "ms");
    report.metric("ledger.unattributed_share", l.unattributed_share(), "ratio");
    report.metric(
        "trace.overhead_share",
        (wall - untraced_wall) / untraced_wall,
        "ratio",
    );
}
