//! The ledger's arithmetic: the percentile rule, the subtraction behind
//! self time and residual, and the error rate. Pure functions,
//! so the tests below pin every rule the printed numbers depend on.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Consecutive samples per block: the fewest a p99 needs under the
/// percentile rule.
pub const BLOCK: usize = 1000;

/// Samples of one kind in the order they were taken, in nanoseconds
/// (signed: a difference of two timings can be negative).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<i64>,
}

impl Samples {
    pub fn push(&mut self, ns: i64) {
        self.ns.push(ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// The reported `q`-quantile (`0 < q < 1`). With at least three
    /// full blocks of [`BLOCK`] consecutive samples it is the median of
    /// the blocks' own nearest-rank quantiles, so a burst of
    /// interference that spoils fewer than half of the blocks does not
    /// move it; with fewer, the quantile of all samples. `None` when
    /// fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<i64> {
        let sorted = |s: &[i64]| {
            let mut s = s.to_vec();
            s.sort_unstable();
            s
        };
        if self.ns.len() < 3 * BLOCK {
            return percentile_sorted(&sorted(&self.ns), q);
        }
        let per_block: Option<Vec<i64>> = self
            .ns
            .chunks_exact(BLOCK)
            .map(|b| percentile_sorted(&sorted(b), q))
            .collect();
        Some(median(&per_block?))
    }

    /// The plain median of all samples; for the handful of set-up
    /// timings.
    pub fn median(&self) -> i64 {
        median(&self.ns)
    }

    pub fn values(&self) -> &[i64] {
        &self.ns
    }
}

/// Rounds per throughput window.
pub const WINDOW: usize = 100;

/// Queries per second from `(queries, nanoseconds)` per round: with at
/// least three full windows of [`WINDOW`] consecutive rounds, the median
/// of the windows' rates (robust to a burst of interference, as
/// [`Samples::percentile`] is); with fewer, the overall rate.
pub fn throughput(rounds: &[(u64, i64)]) -> f64 {
    let rate = |w: &[(u64, i64)]| {
        let (q, ns) = w
            .iter()
            .fold((0u64, 0i64), |(q, ns), r| (q + r.0, ns + r.1));
        q as f64 * 1e9 / ns as f64
    };
    if rounds.len() < 3 * WINDOW {
        return rate(rounds);
    }
    let mut rates: Vec<f64> = rounds.chunks_exact(WINDOW).map(rate).collect();
    rates.sort_unstable_by(f64::total_cmp);
    let n = rates.len();
    if n % 2 == 1 {
        rates[n / 2]
    } else {
        (rates[n / 2 - 1] + rates[n / 2]) / 2.0
    }
}

/// The middle value, or the mean of the middle two for an even count.
fn median(values: &[i64]) -> i64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2
    }
}

/// Nearest-rank quantile of an ascending slice: the value at rank
/// `ceil(q·n)`. Reported only when at least [`MIN_BEYOND`] samples lie
/// beyond that rank, so a p99 needs 1000 samples and a p50 needs 20.
pub fn percentile_sorted<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (n >= rank && n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// `total` minus the sum of `parts`: a span's self time (its duration
/// minus its child spans) and a request's residual (its end-to-end time
/// minus every layer time attributed to it) are both this subtraction.
/// Negative when the parts, timed by replay, took longer than the whole.
pub fn remainder(total_ns: i64, parts_ns: &[i64]) -> i64 {
    total_ns - parts_ns.iter().sum::<i64>()
}

/// Failed operations over attempted ones; `0` when nothing was tried.
pub fn error_rate(attempted: u64, failed: u64) -> f64 {
    assert!(failed <= attempted, "{failed} failures out of {attempted}");
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Sent, succeeded and failed counts of one operation kind in one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCount {
    pub sent: u64,
    pub failed: u64,
}

impl OpCount {
    /// Count one operation; `ok` is false for an `Err` reply or an
    /// answer that failed validation or an oracle check.
    pub fn note(&mut self, ok: bool) {
        self.sent += 1;
        self.failed += u64::from(!ok);
    }

    pub fn succeeded(&self) -> u64 {
        self.sent - self.failed
    }

    pub fn add(&mut self, other: OpCount) {
        self.sent += other.sent;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<i64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&hundred, 0.5), Some(50));
        assert_eq!(
            percentile_sorted(&hundred, 0.9),
            Some(90),
            "ten lie beyond 90"
        );
        assert_eq!(
            percentile_sorted(&hundred, 0.95),
            None,
            "five lie beyond 95"
        );
        assert_eq!(percentile_sorted(&hundred, 0.99), None);
        let thousand: Vec<i64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&thousand, 0.99), Some(990));
        let short: Vec<i64> = (1..=999).collect();
        assert_eq!(
            percentile_sorted(&short, 0.99),
            None,
            "p99 of 999 has 9 beyond"
        );
        assert_eq!(
            percentile_sorted(&(1..=20).collect::<Vec<_>>(), 0.5),
            Some(10)
        );
        assert_eq!(percentile_sorted(&(1..=19).collect::<Vec<_>>(), 0.5), None);
        assert_eq!(percentile_sorted::<i64>(&[], 0.5), None);
    }

    #[test]
    fn short_samples_use_the_quantile_of_all_samples() {
        let mut s = Samples::default();
        for v in (1..=40).rev() {
            s.push(v);
        }
        assert_eq!(s.percentile(0.5), Some(20));
        assert_eq!(s.percentile(0.99), None, "p99 of 40 samples");
        s.push(0);
        assert_eq!(s.len(), 41);
        assert_eq!(s.percentile(0.5), Some(20));
        assert_eq!(s.median(), 20);
        let mut even = Samples::default();
        for v in [4, 1, 3, 2] {
            even.push(v);
        }
        assert_eq!(even.median(), 2, "mean of 2 and 3, in whole nanoseconds");
    }

    #[test]
    fn long_samples_take_the_median_over_blocks() {
        // Five blocks of 1..=1000; two of them carry a burst that makes
        // their slowest 30% a hundred times slower.
        let mut s = Samples::default();
        for block in 0..5 {
            for v in 1..=1000i64 {
                s.push(if block % 2 == 1 && v > 700 {
                    100 * v
                } else {
                    v
                });
            }
        }
        assert_eq!(s.percentile(0.9), Some(900), "the bursts do not move it");
        assert_eq!(s.percentile(0.99), Some(990));
        assert_eq!(s.percentile(0.5), Some(500));
        // Over all samples the bursts would have set the p90.
        let mut all = s.values().to_vec();
        all.sort_unstable();
        assert_eq!(percentile_sorted(&all, 0.9), Some(75_000));
        // An even number of blocks: the mean of the middle two.
        let mut four = Samples::default();
        for block in 0..4i64 {
            for v in 1..=1000 {
                four.push(v + 10 * block);
            }
        }
        assert_eq!(four.percentile(0.5), Some(515));
        // A partial last block is left out.
        four.push(i64::MAX);
        assert_eq!(four.percentile(0.5), Some(515));
    }

    #[test]
    fn throughput_is_the_median_window_rate() {
        // Two rounds of 10 queries in 1 ms each: 10 000 per second.
        assert_eq!(throughput(&[(10, 1_000_000), (10, 1_000_000)]), 10_000.0);
        // Five windows, two of them stalled to half speed.
        let mut rounds = Vec::new();
        for w in 0..5 {
            let ns = if w % 2 == 1 { 2_000_000 } else { 1_000_000 };
            rounds.extend(std::iter::repeat_n((10u64, ns), WINDOW));
        }
        assert_eq!(throughput(&rounds), 10_000.0);
        // Four windows: the mean of the middle two rates.
        rounds.truncate(4 * WINDOW);
        assert_eq!(throughput(&rounds), 7_500.0);
    }

    #[test]
    fn remainder_subtracts_every_part() {
        assert_eq!(remainder(100, &[30, 50]), 20);
        assert_eq!(remainder(100, &[]), 100);
        assert_eq!(remainder(100, &[60, 60]), -20, "replays can overshoot");
        assert_eq!(remainder(100, &[120, -30]), 10, "a negative part adds back");
    }

    #[test]
    fn error_rate_counts_failures_against_attempts() {
        assert_eq!(error_rate(0, 0), 0.0);
        assert_eq!(error_rate(200, 0), 0.0);
        let mut ops = OpCount::default();
        for i in 0..200 {
            // A forced mismatch: one answer in fifty fails its check.
            ops.note(i % 50 != 0);
        }
        assert_eq!((ops.sent, ops.succeeded(), ops.failed), (200, 196, 4));
        assert_eq!(error_rate(ops.sent, ops.failed), 0.02);
        let mut total = OpCount::default();
        total.add(ops);
        total.add(OpCount {
            sent: 50,
            failed: 0,
        });
        assert_eq!(error_rate(total.sent, total.failed), 4.0 / 250.0);
    }

    #[test]
    #[should_panic(expected = "failures out of")]
    fn more_failures_than_attempts_is_a_bug() {
        error_rate(1, 2);
    }
}
