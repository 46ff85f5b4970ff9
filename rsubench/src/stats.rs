//! Order statistics and the capacity search.

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps binary rounding of `p / 100` from adding a rank.
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of an unsorted sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles a tail is reported at, highest first.
const TAILS: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest of [`TAILS`] that still has at least ten samples beyond it,
/// with its value. `None` when even the median lacks ten samples above it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    TAILS
        .iter()
        .find(|&&p| !xs.is_empty() && xs.len() - rank(xs.len(), p) >= 10)
        .map(|&p| (p, percentile(xs, p)))
}

/// Whether percentile `p` of `xs` is supported by at least ten samples
/// beyond it.
pub fn supports(xs: &[f64], p: f64) -> bool {
    tail(xs).is_some_and(|(best, _)| best >= p)
}

/// Geometric bisection for the highest `n` in `[lo, hi)` that passes, one
/// probe at a time, so that the probes can be spread over a run. It takes
/// `steps` bisection probes, assuming a monotone verdict (passes below a
/// knee, fails above it). `lo` is assumed to pass and is probed only when
/// no bisection probe passed; if it fails, `lo` is halved (up to four
/// times) to find a passing fleet.
pub struct Bisection {
    lo: usize,
    hi: usize,
    steps: u32,
    confirmed: bool,
    halvings: u32,
}

impl Bisection {
    pub fn new(lo: usize, hi: usize, steps: u32) -> Bisection {
        let lo = lo.max(1);
        Bisection {
            lo,
            hi: hi.max(lo + 2),
            steps,
            confirmed: false,
            halvings: 0,
        }
    }

    fn bisecting(&self) -> bool {
        self.steps > 0 && self.hi > self.lo + 1
    }

    /// The next fleet to probe, or `None` when the search is over.
    pub fn next(&self) -> Option<usize> {
        if self.bisecting() {
            let mid = (self.lo as f64 * self.hi as f64).sqrt().round() as usize;
            Some(mid.clamp(self.lo + 1, self.hi - 1))
        } else if self.confirmed || self.lo == 1 || self.halvings == 4 {
            None
        } else {
            Some(self.lo)
        }
    }

    /// Records the verdict on the fleet [`Bisection::next`] proposed.
    pub fn record(&mut self, n: usize, pass: bool) {
        if self.bisecting() {
            self.steps -= 1;
        } else if !pass {
            self.halvings += 1;
            self.hi = self.lo;
            self.lo = (self.lo / 2).max(1);
            return;
        }
        self.confirmed |= pass;
        if pass {
            self.lo = n;
        } else {
            self.hi = n;
        }
    }

    /// The highest passing probe and the lowest failing one (the top of
    /// the bracket if none failed).
    pub fn bracket(&self) -> (usize, usize) {
        (self.lo, self.hi)
    }
}

/// Where a latency curve crosses `limit` between a passing probe `(n_a,
/// l_a)` and a failing one `(n_b, l_b)`, interpolated linearly and kept
/// inside `[n_a, n_b)`. Smooths the bisection's step size out of the
/// reported capacity.
pub fn crossing(a: (usize, f64), b: (usize, f64), limit: f64) -> f64 {
    let (na, la) = (a.0 as f64, a.1);
    let (nb, lb) = (b.0 as f64, b.1);
    if !(lb > la && la <= limit && limit <= lb) || nb <= na {
        return na;
    }
    (na + (limit - la) / (lb - la) * (nb - na)).clamp(na, nb - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a whole [`Bisection`] with `pass` as the verdict; returns its
    /// final bracket.
    fn capacity(
        lo: usize,
        hi: usize,
        steps: u32,
        mut pass: impl FnMut(usize) -> bool,
    ) -> (usize, usize) {
        let mut search = Bisection::new(lo, hi, steps);
        while let Some(n) = search.next() {
            let ok = pass(n);
            search.record(n, ok);
        }
        search.bracket()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(90.0));
        let xs: Vec<f64> = (1..=99_999).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.9, 99_900.0)));
        let xs: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.99, 99_990.0)));
        assert_eq!(tail(&[1.0; 19]), None);
        assert!(supports(&vec![0.0; 1000], 99.0));
        assert!(!supports(&vec![0.0; 999], 99.0));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 100.0), 5.0);
    }

    #[test]
    fn capacity_is_monotone_on_a_synthetic_latency_curve() {
        // p99 latency rises steeply past a knee; the limit is 200 ms.
        let latency = |knee: f64, n: usize| {
            let rho = n as f64 / knee;
            if rho < 1.0 {
                100.0 + 60.0 * rho / (1.0 - rho).max(1e-9)
            } else {
                f64::INFINITY
            }
        };
        let mut last = 0;
        for knee in [300.0, 500.0, 800.0, 1200.0, 2000.0, 3500.0] {
            let mut probes = 0;
            let (cap, above) = capacity(200, 4000, 8, |n| {
                probes += 1;
                latency(knee, n) <= 200.0
            });
            assert!(above > cap && latency(knee, above) > 200.0);
            assert!(cap >= last, "capacity not monotone in the knee");
            assert!(latency(knee, cap) <= 200.0, "reported a failing probe");
            assert!(probes <= 12);
            last = cap;
        }
        // Exact answer within the search resolution.
        assert_eq!(capacity(100, 10_000, 20, |n| n <= 777), (777, 778));
        // Below the bracket: halves lo until a probe passes.
        assert_eq!(capacity(400, 800, 6, |n| n <= 150).0, 100);
        // Above the bracket: just under the bracket top.
        assert_eq!(capacity(400, 800, 20, |_| true), (799, 800));
        // The bracket bottom is probed only when nothing above it passed.
        let mut probed = Vec::new();
        capacity(400, 800, 3, |n| {
            probed.push(n);
            true
        });
        assert!(!probed.contains(&400));
    }

    #[test]
    fn crossing_interpolates_inside_the_bracket() {
        assert_eq!(crossing((100, 150.0), (200, 250.0), 200.0), 150.0);
        // A failing probe past the knee still bounds the answer.
        let c = crossing((100, 190.0), (110, 900.0), 200.0);
        assert!((100.0..110.0).contains(&c));
        // Noise that inverts the curve falls back to the passing probe.
        assert_eq!(crossing((100, 210.0), (110, 190.0), 200.0), 100.0);
    }
}
