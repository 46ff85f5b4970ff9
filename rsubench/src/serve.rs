//! Serving passes over a BSM stream.
//!
//! - Closed loop: one 100 ms slice per step, back to back, then drain.
//!   Gives throughput and the deterministic decision stream.
//! - Open loop: a single generator thread marks each BSM due at run start
//!   plus its stream offset and steps the box at 10 Hz deadlines; a late
//!   step ingests every overdue BSM. Decision latency runs from the due
//!   time of the window-completing BSM to the return of the `tick` that
//!   decided it, so a stall is charged to every window it delays.
//!
//! Both run on the steal-free [`Clock`]: time a shared host gave to other
//! guests is not charged to the program.

use crate::host::Clock;
use crate::load::{slices_from, City};
use crate::rsu::Rsu;
use std::time::Instant;
use vehigan_sim::{Bsm, BSM_INTERVAL_S};

/// Decision latency limit: one tick of batching wait plus one tick of
/// processing.
pub const LATENCY_LIMIT_MS: f64 = 200.0;
/// The latency limit applies at this percentile.
pub const LIMIT_PERCENTILE: f64 = 99.0;
/// Drain steps allowed after the stream ends before a pass counts its
/// remaining windows as undecided.
const MAX_DRAIN_STEPS: usize = 4096;
/// An open-loop pass whose generator falls this far behind is overloaded
/// beyond doubt; it stops and counts every window not yet decided.
const ABANDON_LATE_MS: f64 = 1000.0;

/// Anything the open-loop generator can drive: one step ingests the BSMs
/// that came due, decides what is ready, and reports the stream
/// timestamps of the windows it decided and when they were decided.
pub trait Consumer {
    fn step(&mut self, due: &[Bsm], decided: &mut Vec<f64>) -> Instant;
    fn pending(&self) -> usize;
}

impl Consumer for Rsu<'_> {
    fn step(&mut self, due: &[Bsm], decided: &mut Vec<f64>) -> Instant {
        let (decisions, at) = Rsu::step(self, due);
        decided.extend(decisions.iter().map(|d| d.timestamp));
        at
    }

    fn pending(&self) -> usize {
        Rsu::pending(self)
    }
}

/// What one closed-loop pass measured.
pub struct Closed {
    /// Wall seconds of the whole pass, steal included.
    pub wall_s: f64,
    /// Per step: BSMs ingested, steal-free ms, stream time the slice ends.
    pub steps: Vec<(usize, f64, f64)>,
    /// Windows still queued after the drain limit.
    pub undrained: usize,
}

/// Throughput (BSMs per steal-free second) over the steps whose slice
/// starts at or after stream time `from`, of passes over the same stream.
/// Each step counts at its cheapest pass: a shared host slows whole spells
/// of seconds, and a step's work is the same in every pass. One step is
/// too short for steal accounting; the sum over steps is not.
pub fn steady_rate(passes: &[&Closed], from: f64) -> f64 {
    let mut bsms = 0usize;
    let mut best: Vec<f64> = Vec::new();
    for (i, c) in passes.iter().enumerate() {
        let steady = c
            .steps
            .iter()
            .filter(|s| s.2 - BSM_INTERVAL_S >= from - 1e-9);
        if i == 0 {
            for s in steady {
                bsms += s.0;
                best.push(s.1);
            }
        } else {
            best.iter_mut()
                .zip(steady)
                .for_each(|(b, s)| *b = b.min(s.1));
        }
    }
    bsms as f64 / (best.iter().sum::<f64>() / 1e3)
}

pub fn closed_loop(rsu: &mut Rsu<'_>, city: &City) -> Closed {
    let mut out = Closed {
        wall_s: 0.0,
        steps: Vec::new(),
        undrained: 0,
    };
    let start = Instant::now();
    let mut clock = Clock::start();
    let mut end_t = city.start;
    let mut last = 0.0;
    let mut step = |rsu: &mut Rsu<'_>, bsms: &[Bsm], out: &mut Closed| {
        end_t += BSM_INTERVAL_S;
        rsu.step(bsms);
        let now = clock.now();
        out.steps.push((bsms.len(), (now - last) * 1e3, end_t));
        last = now;
    };
    for r in city.slices() {
        step(rsu, &city.bsms[r], &mut out);
    }
    let mut drain = 0;
    while rsu.pending() > 0 && drain < MAX_DRAIN_STEPS {
        step(rsu, &[], &mut out);
        drain += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.undrained = rsu.pending();
    out
}

/// Length of the stream segments latency tails are taken over.
pub const SEGMENT_S: f64 = 0.5;

/// What one open-loop pass measured.
#[derive(Debug, Default)]
pub struct Open {
    /// Decision latency of every window decided, ms.
    pub latency_ms: Vec<f64>,
    /// Due time of each decided window's completing BSM, seconds after
    /// run start (aligned with `latency_ms`).
    pub due_s: Vec<f64>,
    /// How late each step started against its 10 Hz deadline, ms.
    pub late_ms: Vec<f64>,
    /// Steps taken while the stream was still arriving.
    pub stream_steps: usize,
    /// Windows still queued after the drain limit, or BSMs and windows
    /// left when an overloaded pass was abandoned.
    pub undecided: usize,
}

impl Open {
    /// Percentile `p` of decision latency in each [`SEGMENT_S`] segment of
    /// due time that has at least ten samples beyond it.
    fn segment_tails(&self, p: f64) -> Vec<f64> {
        let mut segments: Vec<Vec<f64>> = Vec::new();
        for (&due, &lat) in self.due_s.iter().zip(&self.latency_ms) {
            let k = (due / SEGMENT_S).max(0.0) as usize;
            if segments.len() <= k {
                segments.resize(k + 1, Vec::new());
            }
            segments[k].push(lat);
        }
        segments
            .iter()
            .filter(|s| crate::stats::supports(s, p))
            .map(|s| crate::stats::percentile(s, p))
            .collect()
    }

    /// The median over segments of their percentile-`p` latency: the tail
    /// of a typical half second. A short stall of a shared host moves one
    /// segment, not the result.
    pub fn typical(&self, p: f64) -> Option<f64> {
        let tails = self.segment_tails(p);
        (!tails.is_empty()).then(|| crate::stats::median(&tails))
    }

    /// The first quartile over segments of their percentile-`p` latency:
    /// the tail of a quiet half second. Steal from other tenants of a
    /// shared host arrives in bursts that can cover most of a pass; the
    /// capacity search judges the system by the segments it left alone.
    pub fn quiet(&self, p: f64) -> Option<f64> {
        let tails = self.segment_tails(p);
        (!tails.is_empty()).then(|| crate::stats::percentile(&tails, 25.0))
    }

    /// Whether generator lateness grew from the first to the second half
    /// of the stream: their medians differ by more than a fifth of a tick.
    pub fn lateness_grows(&self) -> bool {
        let n = self.stream_steps.min(self.late_ms.len());
        if n < 4 {
            return false;
        }
        let (a, b) = self.late_ms[..n].split_at(n / 2);
        crate::stats::median(b) - crate::stats::median(a) > 0.2 * BSM_INTERVAL_S * 1e3
    }

    /// The capacity criterion: a quiet half second's p99 within the limit,
    /// no undecided window, no growing lateness.
    pub fn meets_limit(&self) -> bool {
        self.undecided == 0
            && self
                .quiet(LIMIT_PERCENTILE)
                .is_some_and(|p99| p99 <= LATENCY_LIMIT_MS)
            && !self.lateness_grows()
    }
}

/// Drives `c` in open loop over `bsms` (sorted by timestamp), treating
/// stream time `t0` as the run start.
pub fn open_loop<C: Consumer>(c: &mut C, bsms: &[Bsm], t0: f64) -> Open {
    let mut out = Open::default();
    let mut decided = Vec::new();
    let mut clock = Clock::start();
    let mut cursor = 0usize;
    let mut drain = 0usize;
    for k in 1u32.. {
        let deadline = f64::from(k) * BSM_INTERVAL_S;
        let now = clock.sleep_until(deadline);
        out.late_ms.push((now - deadline) * 1e3);
        if now - deadline > ABANDON_LATE_MS / 1e3 {
            out.undecided = c.pending() + bsms.len() - cursor;
            return out;
        }
        let end = cursor + bsms[cursor..].partition_point(|b| b.timestamp - t0 <= now);
        if cursor < bsms.len() {
            out.stream_steps += 1;
        } else if c.pending() == 0 || drain == MAX_DRAIN_STEPS {
            out.late_ms.pop();
            break;
        } else {
            drain += 1;
        }
        let at = c.step(&bsms[cursor..end], &mut decided);
        let at = clock.now() - clock.since(at);
        for ts in decided.drain(..) {
            out.due_s.push(ts - t0);
            out.latency_ms.push((at - (ts - t0)) * 1e3);
        }
        cursor = end;
    }
    out.undecided = c.pending();
    out
}

/// Warms `rsu` in closed loop until `warm_until` (stream time), then
/// serves the rest of the stream in open loop.
pub fn warm_open_loop(rsu: &mut Rsu<'_>, city: &City, warm_until: f64) -> Open {
    let split = city.bsms.partition_point(|b| b.timestamp < warm_until);
    for r in slices_from(&city.bsms[..split], city.start) {
        rsu.step(&city.bsms[r]);
    }
    open_loop(rsu, &city.bsms[split..], warm_until)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use vehigan_sim::VehicleId;

    /// Decides every BSM as one window, sleeping `cost` per step plus
    /// `per_bsm` per BSM it ingests.
    struct Slow {
        cost: Duration,
        per_bsm: Duration,
        queue: Vec<f64>,
    }

    impl Consumer for Slow {
        fn step(&mut self, due: &[Bsm], decided: &mut Vec<f64>) -> Instant {
            self.queue.extend(due.iter().map(|b| b.timestamp));
            std::thread::sleep(self.cost + self.per_bsm * due.len() as u32);
            decided.append(&mut self.queue);
            Instant::now()
        }

        fn pending(&self) -> usize {
            self.queue.len()
        }
    }

    /// `per_tick` BSMs in every 100 ms of `seconds` of stream from t = 5 s.
    fn stream(seconds: f64, per_tick: u32) -> Vec<Bsm> {
        let ticks = (seconds / BSM_INTERVAL_S).round() as u32;
        (0..ticks * per_tick)
            .map(|i| Bsm {
                vehicle_id: VehicleId(i % per_tick),
                timestamp: 5.0
                    + (f64::from(i / per_tick) + f64::from(i % per_tick) / f64::from(per_tick))
                        * BSM_INTERVAL_S,
                pos_x: 0.0,
                pos_y: 0.0,
                speed: 0.0,
                acceleration: 0.0,
                heading: 0.0,
                yaw_rate: 0.0,
            })
            .collect()
    }

    #[test]
    fn slower_than_real_time_shows_growing_lateness_and_latency() {
        // 250 BSMs per tick at 0.48 ms each: 120 ms of work per 100 ms.
        let bsms = stream(1.6, 250);
        let mut slow = Slow {
            cost: Duration::ZERO,
            per_bsm: Duration::from_micros(480),
            queue: Vec::new(),
        };
        let out = open_loop(&mut slow, &bsms, 5.0);
        assert_eq!(out.latency_ms.len() + out.undecided, bsms.len());
        assert!(out.lateness_grows(), "lateness {:?}", out.late_ms);
        // Latency counts from the due time, so it grows with the backlog
        // even though each step costs the same.
        let first = out.latency_ms[0];
        let last = *out.latency_ms.last().unwrap();
        assert!(last > first + 150.0, "latency {first} -> {last}");
        assert!(out.typical(99.0).unwrap() > LATENCY_LIMIT_MS);
        assert!(!out.meets_limit());
    }

    #[test]
    fn faster_than_real_time_keeps_up() {
        let bsms = stream(1.6, 250);
        let mut fast = Slow {
            cost: Duration::from_millis(5),
            per_bsm: Duration::ZERO,
            queue: Vec::new(),
        };
        let out = open_loop(&mut fast, &bsms, 5.0);
        assert_eq!(out.latency_ms.len(), bsms.len());
        assert!(!out.lateness_grows(), "lateness {:?}", out.late_ms);
        // Each BSM waits at most one tick for its step, plus the step.
        assert!(out.latency_ms.iter().all(|&l| (0.0..150.0).contains(&l)));
        assert!(out.typical(99.0).unwrap() < 150.0);
        assert_eq!(out.undecided, 0);
        assert!(out.meets_limit());
    }

    #[test]
    fn an_overloaded_pass_is_abandoned_with_its_backlog_undecided() {
        let bsms = stream(3.0, 10);
        let mut stuck = Slow {
            cost: Duration::from_millis(700),
            per_bsm: Duration::ZERO,
            queue: Vec::new(),
        };
        let out = open_loop(&mut stuck, &bsms, 5.0);
        assert!(out.undecided > 0);
        assert_eq!(out.latency_ms.len() + out.undecided, bsms.len());
        assert!(!out.meets_limit());
    }
}
