//! Host fingerprint printed with every result, so numbers from different
//! machines, dispatch legs or source trees are never compared blind.

use std::path::Path;
use std::time::{Duration, Instant};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The kernel leg the tensor crate dispatches to, by the same rules it
/// uses (including the `VEHIGAN_FORCE_PORTABLE` pin).
pub fn isa_leg() -> &'static str {
    if std::env::var_os("VEHIGAN_FORCE_PORTABLE").is_some() {
        return "portable (forced)";
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vnni") {
            return "avx512-vnni";
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return "avx2";
        }
    }
    "portable"
}

/// The commit when the checkout is a git repository, otherwise `none`.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or(head.clone(), |c| c.trim().to_string()),
        None => head,
    }
}

/// FNV-1a over every source file of the measured crates, in path order:
/// identifies the program under test even where there is no commit.
pub fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak resident set to the current one, so `peak_rss_mb`
/// describes the workload and not the once-per-checkout training.
pub fn reset_peak_rss() {
    // Best effort: kernels without the reset keep the lifetime peak.
    let _ = std::fs::write("/proc/self/clear_refs", b"5");
}

/// CPU time the kernel accounted on all CPUs since boot, in clock ticks:
/// `(busy, stolen)`. Busy is user + nice + system + irq + softirq time;
/// stolen is time a virtual CPU wanted to run while the hypervisor ran
/// another guest. Zeros where `/proc/stat` is unreadable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let at = |i: usize| f.get(i).copied().unwrap_or(0);
    (at(0) + at(1) + at(2) + at(5) + at(6), at(7))
}

/// The share of the CPU time this machine wanted between two
/// [`cpu_ticks`] readings that the hypervisor stole (0 when it wanted
/// none).
pub fn stolen_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    let busy = to.0.saturating_sub(from.0);
    let stolen = to.1.saturating_sub(from.1);
    if busy + stolen == 0 {
        0.0
    } else {
        stolen as f64 / (busy + stolen) as f64
    }
}

/// A clock that leaves out hypervisor steal.
///
/// On a shared host a virtual CPU loses a varying share of its time to
/// other guests; the kernel accounts that share as steal. Between two
/// readings the clock advances by the wall time spent asleep plus the
/// busy wall time less its stolen share, so what it times is the program
/// on the CPU time the host actually gave it. The kernel accounts steal in
/// 10 ms clock ticks, so a reading is exact only over many ticks: time
/// passes and long spans with it, not single short calls.
pub struct Clock {
    start: Instant,
    wall: f64,
    ticks: (u64, u64),
    stolen: f64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            ticks: cpu_ticks(),
            start: Instant::now(),
            wall: 0.0,
            stolen: 0.0,
        }
    }

    /// Steal-free seconds since the clock started; `asleep_s` of the wall
    /// time since the last reading were spent asleep.
    fn read(&mut self, asleep_s: f64) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        let ticks = cpu_ticks();
        let busy = (wall - self.wall - asleep_s).max(0.0);
        self.stolen += busy * stolen_share(self.ticks, ticks);
        self.wall = wall;
        self.ticks = ticks;
        wall - self.stolen
    }

    pub fn now(&mut self) -> f64 {
        self.read(0.0)
    }

    /// Sleeps until the clock reads `t` (at once if it already does);
    /// returns the reading on waking.
    pub fn sleep_until(&mut self, t: f64) -> f64 {
        let now = self.now();
        if now >= t {
            return now;
        }
        std::thread::sleep(Duration::from_secs_f64(t - now));
        self.read(t - now)
    }

    /// The share of wall time since the start that was stolen.
    pub fn stolen_share(&self) -> f64 {
        if self.wall > 0.0 {
            self.stolen / self.wall
        } else {
            0.0
        }
    }

    /// Wall seconds since an earlier instant, as steal-free seconds at the
    /// clock's running stolen share.
    pub fn since(&self, at: Instant) -> f64 {
        at.elapsed().as_secs_f64() * (1.0 - self.stolen_share())
    }
}

/// CPU seconds this process has run on all its threads. The kernel keeps
/// hypervisor steal out of it, to the nanosecond.
pub fn cpu_time() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on
    // 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stolen_share_of_the_time_this_machine_wanted() {
        assert_eq!(stolen_share((100, 10), (170, 40)), 0.3);
        // Idle between the readings: nothing wanted, nothing stolen.
        assert_eq!(stolen_share((100, 10), (100, 10)), 0.0);
        assert_eq!(stolen_share((100, 10), (150, 10)), 0.0);
    }

    #[test]
    fn clock_never_runs_ahead_of_wall_time() {
        let mut c = Clock::start();
        let wall = Instant::now();
        let t = c.sleep_until(0.02);
        assert!(t >= 0.02 - 1e-3 && t <= wall.elapsed().as_secs_f64() + 1e-9);
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let u = c.now();
        assert!(u >= t && u <= wall.elapsed().as_secs_f64() + 1e-9);
        assert!((0.0..=1.0).contains(&c.stolen_share()));
    }

    #[test]
    fn cpu_time_advances_with_work_not_with_sleep() {
        let t0 = cpu_time();
        std::thread::sleep(Duration::from_millis(30));
        let t1 = cpu_time();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let t2 = cpu_time();
        assert!(t1 - t0 < 0.015, "slept {:.4} CPU s", t1 - t0);
        assert!(t2 > t1);
    }
}
