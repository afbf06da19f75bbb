//! The benchmark's own arithmetic: percentiles under the ten-beyond rule,
//! per-request rung subtraction, open-loop lag accounting and the
//! failure classification behind `fail_ratio`.

use std::time::{Duration, Instant};

/// Percentiles a tail may fall back to, highest first.
const TAIL_LADDER: [f64; 8] = [0.99, 0.98, 0.95, 0.9, 0.8, 0.75, 0.6, 0.5];

/// The least number of samples that must lie beyond a reported tail
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile of [`TAIL_LADDER`] that `n` samples support
/// with at least [`MIN_BEYOND`] samples beyond it; the median when none
/// does.
pub fn tail_quantile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
        .unwrap_or(0.5)
}

/// One timed operation: when it completed (seconds since its phase
/// began) and how long it took (ms).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub at: f64,
    pub ms: f64,
}

impl Sample {
    /// An operation begun at `began` and completed now.
    pub fn since(phase: Instant, began: Instant) -> Sample {
        Sample {
            at: phase.elapsed().as_secs_f64(),
            ms: began.elapsed().as_secs_f64() * 1e3,
        }
    }
}

/// Seconds at the start of a phase whose operations are not timed: the
/// fleet's caches fill and lazy set-up finishes before measuring starts.
pub const WARMUP_S: f64 = 1.0;

/// The samples of a phase that completed after its warm-up, and their
/// rate per second over the rest of the `window` seconds.
pub fn after_warmup(samples: &[Sample], window: f64) -> (Vec<Sample>, f64) {
    let kept: Vec<Sample> = samples
        .iter()
        .copied()
        .filter(|s| s.at >= WARMUP_S)
        .collect();
    let rate = kept.len() as f64 / (window - WARMUP_S).max(1e-9);
    (kept, rate)
}

/// Samples per block of the blocked tail: enough for ten beyond p99.
pub const TAIL_BLOCK: usize = 1000;

/// The tail of a timeline, robust to one stall: the samples in completion
/// order are cut into blocks of at least [`TAIL_BLOCK`], and the result
/// is the median of the blocks' p99s. Fewer samples than one block fall
/// back to the ten-beyond rule over all of them. Returns the value and
/// the percentile it is.
pub fn blocked_tail(samples: &[Sample]) -> (f64, f64) {
    let blocks = samples.len() / TAIL_BLOCK;
    if blocks < 1 {
        return Samples::new(samples.iter().map(|s| s.ms).collect()).tail();
    }
    let mut ordered = samples.to_vec();
    ordered.sort_by(|a, b| a.at.total_cmp(&b.at));
    let per = ordered.len() / blocks;
    let tails: Vec<f64> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                ordered.len()
            } else {
                (b + 1) * per
            };
            Samples::new(ordered[b * per..end].iter().map(|s| s.ms).collect()).quantile(0.99)
        })
        .collect();
    (median(&tails), 0.99)
}

/// A sorted sample set in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new(mut v: Vec<f64>) -> Samples {
        v.sort_by(f64::total_cmp);
        Samples(v)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile; `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0[rank(self.0.len(), q) - 1]
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The tail under the ten-beyond rule, with the percentile it is.
    pub fn tail(&self) -> (f64, f64) {
        let q = tail_quantile(self.0.len());
        (self.quantile(q), q)
    }
}

/// Median of unsorted values; `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).p50()
}

/// Per-request time a rung adds over the rung beneath it: `upper[i] -
/// lower[i]` for every request id timed on both, in id order. A rung that
/// is faster than the one beneath it (a cache answering what the engine
/// had to compute) adds a negative time.
pub fn rung_added(lower: &[(u64, f64)], upper: &[(u64, f64)]) -> Vec<f64> {
    let mut lower: Vec<(u64, f64)> = lower.to_vec();
    lower.sort_by_key(|&(id, _)| id);
    let mut out: Vec<(u64, f64)> = upper
        .iter()
        .filter_map(|&(id, t)| {
            lower
                .binary_search_by_key(&id, |&(l, _)| l)
                .ok()
                .map(|i| (id, t - lower[i].1))
        })
        .collect();
    out.sort_by_key(|&(id, _)| id);
    out.into_iter().map(|(_, d)| d).collect()
}

/// `|Σ added_p50 − top_p50| / top_p50`: how far the per-layer medians are
/// from summing to the top rung's median.
pub fn ladder_gap(added_p50: &[f64], top_p50: f64) -> f64 {
    if top_p50 <= 0.0 {
        return 0.0;
    }
    (added_p50.iter().sum::<f64>() - top_p50).abs() / top_p50
}

/// One open-loop request, timed against its schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    /// How late the request was sent after it was due.
    pub lag: Duration,
    /// Due time to completion: the wait a stall imposes on later requests
    /// is part of their latency.
    pub latency: Duration,
}

/// Times a request that was `due`, `sent` and `done` at offsets from the
/// start of the run. A request sent early counts as sent on time.
pub fn open_loop_timing(due: Duration, sent: Duration, done: Duration) -> Timed {
    Timed {
        lag: sent.saturating_sub(due),
        latency: done.saturating_sub(due),
    }
}

/// What became of one attempted operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// 2xx with the right answer.
    Ok,
    /// A non-2xx status on a valid request.
    Status(u16),
    /// The connection failed or the response could not be read.
    Transport,
    /// A 2xx whose answer differs from the oracle.
    Mismatch,
    /// A subscription that had to be resynced.
    Resync,
}

impl Outcome {
    /// The outcome of a request answered with `status`.
    pub fn of_status(status: u16) -> Outcome {
        if (200..300).contains(&status) {
            Outcome::Ok
        } else {
            Outcome::Status(status)
        }
    }

    pub fn failed(&self) -> bool {
        *self != Outcome::Ok
    }
}

/// Attempted and failed operation counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Failures reported on stderr before the rest are only counted.
const REPORTED_FAILURES: usize = 20;

/// Names a failed operation on stderr, for the first few.
pub fn report_failure(what: std::fmt::Arguments) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static REPORTED: AtomicUsize = AtomicUsize::new(0);
    if REPORTED.fetch_add(1, Ordering::Relaxed) < REPORTED_FAILURES {
        eprintln!("servebench: failed: {what}");
    }
}

impl Tally {
    pub fn add(&mut self, outcome: &Outcome) {
        self.attempted += 1;
        if outcome.failed() {
            self.failed += 1;
            report_failure(format_args!("{outcome:?}"));
        }
    }

    /// Marks an already-attempted operation failed (an answer found wrong
    /// after the fact); each operation fails at most once.
    pub fn fail_attempted(&mut self) {
        self.failed = (self.failed + 1).min(self.attempted);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, so exactly 10 lie beyond p99.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_quantile(1000), 0.99);
        // 999 samples leave only 9 beyond p99: fall back to p98.
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail_quantile(999), 0.98);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(100), 0.9);
        // Too few for any tail: the median.
        assert_eq!(tail_quantile(12), 0.5);
        assert_eq!(tail_quantile(0), 0.5);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let s = Samples::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(s.p50(), 500.0);
        assert_eq!(s.quantile(0.99), 990.0);
        assert_eq!(s.tail(), (990.0, 0.99));
        let small = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(small.p50(), 2.0);
        assert_eq!(small.tail(), (2.0, 0.5));
        assert_eq!(Samples::default().p50(), 0.0);
        assert_eq!(median(&[5.0, 1.0, 9.0, 7.0]), 5.0);
    }

    #[test]
    fn blocked_tail_takes_the_median_block_p99() {
        let at = |i: usize| i as f64;
        // Three blocks of 1000; the middle one holds a stall.
        let samples: Vec<Sample> = (0..3000)
            .map(|i| Sample {
                at: at(i),
                ms: if (1000..1100).contains(&i) {
                    100.0
                } else {
                    (i % 1000) as f64 / 100.0
                },
            })
            .collect();
        assert_eq!(blocked_tail(&samples), (9.89, 0.99));
        // Out of completion order in, the same blocks out.
        let mut shuffled = samples.clone();
        shuffled.reverse();
        assert_eq!(blocked_tail(&shuffled), (9.89, 0.99));
        // Under one block: the ten-beyond rule over everything.
        let few: Vec<Sample> = (0..200)
            .map(|i| Sample {
                at: at(i),
                ms: i as f64,
            })
            .collect();
        assert_eq!(blocked_tail(&few), (189.0, 0.95));
    }

    #[test]
    fn warm_up_is_neither_timed_nor_counted() {
        let samples: Vec<Sample> = (0..40)
            .map(|i| Sample {
                at: i as f64 * 0.1,
                ms: if i < 10 { 50.0 } else { 1.0 },
            })
            .collect();
        let (kept, rate) = after_warmup(&samples, 4.0);
        // Completions at 1.0 s and later stay: 30 of them over 3 s.
        assert_eq!(kept.len(), 30);
        assert!(kept.iter().all(|s| s.ms == 1.0));
        assert_eq!(rate, 10.0);
        assert_eq!(after_warmup(&[], 0.5), (Vec::new(), 0.0));
    }

    #[test]
    fn rungs_subtract_per_request_id() {
        let lower = [(2, 1.0), (0, 0.5), (1, 2.0)];
        let upper = [(0, 1.5), (1, 1.0), (2, 4.0), (3, 9.0)];
        // Id 3 has no lower rung time and is left out; id 1 got faster.
        assert_eq!(rung_added(&lower, &upper), vec![1.0, -1.0, 3.0]);
        assert_eq!(ladder_gap(&[1.0, 0.5, 0.5], 2.0), 0.0);
        assert_eq!(ladder_gap(&[1.0, 0.5], 2.0), 0.25);
        assert_eq!(ladder_gap(&[1.0], 0.0), 0.0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // On time: latency is service time.
        assert_eq!(
            open_loop_timing(ms(10), ms(10), ms(13)),
            Timed {
                lag: ms(0),
                latency: ms(3)
            }
        );
        // A stalled generator sends 5 ms late: the lag is part of the
        // latency.
        assert_eq!(
            open_loop_timing(ms(10), ms(15), ms(18)),
            Timed {
                lag: ms(5),
                latency: ms(8)
            }
        );
        // Sent early (the load generator never does; the rule is total): no
        // negative lag.
        assert_eq!(open_loop_timing(ms(10), ms(9), ms(12)).lag, ms(0));
    }

    #[test]
    fn failures_are_classified_against_attempts() {
        let mut t = Tally::default();
        for o in [
            Outcome::of_status(200),
            Outcome::of_status(204),
            Outcome::of_status(404),
            Outcome::of_status(503),
            Outcome::Transport,
            Outcome::Mismatch,
            Outcome::Resync,
        ] {
            t.add(&o);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 7,
                failed: 5
            }
        );
        assert!(!Outcome::of_status(299).failed());
        assert!(Outcome::of_status(300).failed());
        // A wrong answer found later fails its operation once, never more
        // operations than were attempted.
        let mut one = Tally::default();
        one.add(&Outcome::Ok);
        one.fail_attempted();
        one.fail_attempted();
        assert_eq!(one.ratio(), 1.0);
        assert_eq!(Tally::default().ratio(), 0.0);
    }
}
