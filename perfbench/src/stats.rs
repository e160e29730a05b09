//! The benchmark's own arithmetic: percentiles with an honest tail, open-loop
//! lateness, and small helpers shared by the workloads.

use std::time::{Duration, Instant};

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// The highest whole percentile (at most 99) that still has at least
/// [`TAIL_SAMPLES`] samples beyond it, or `None` when even the median has
/// fewer.  With 1000 samples that is p99, with 200 it is p95.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99u32)
        .rev()
        .find(|&p| n * (100 - p as usize) >= TAIL_SAMPLES * 100)
}

/// Latency samples in milliseconds.  A lost result (a dropped delta, a
/// failed operation) is recorded as `f64::INFINITY`, so it misses every
/// latency limit and pushes the tail up instead of vanishing.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ms: Vec<f64>,
}

impl Latencies {
    pub fn push(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    /// Records `count` lost results.
    pub fn push_lost(&mut self, count: usize) {
        self.ms.extend(std::iter::repeat_n(f64::INFINITY, count));
    }

    /// All samples of several sets together.
    pub fn pooled<'a>(sets: impl IntoIterator<Item = &'a Latencies>) -> Latencies {
        Latencies {
            ms: sets
                .into_iter()
                .flat_map(|s| s.ms.iter().copied())
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// The samples in the order they were recorded.
    pub fn values(&self) -> &[f64] {
        &self.ms
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 100), `NaN` when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.ms, p)
    }

    /// The median and the tail at [`tail_percentile`], with the percentile
    /// used (0 when there are too few samples for any tail).
    pub fn summary(&self) -> Summary {
        let tail_p = tail_percentile(self.len()).unwrap_or(0);
        Summary {
            n: self.len(),
            p50: self.percentile(50.0),
            tail_p,
            tail: if tail_p == 0 {
                f64::NAN
            } else {
                self.percentile(tail_p as f64)
            },
        }
    }
}

/// A latency distribution as reported: median, tail and sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_p: u32,
    pub tail: f64,
}

/// `n=… p50=… p99=…` for each phase, for the log.
pub fn describe(phases: &[Summary]) -> String {
    phases
        .iter()
        .map(|s| format!("[n={} p50={:.3} p{}={:.3}]", s.n, s.p50, s.tail_p, s.tail))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Nearest-rank percentile of unsorted values; infinities sort last.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Folds one replay of a fixed schedule into `best`, each operation's best
/// (smallest) time so far: `replay[i]` is operation `i`'s time, `NaN` where
/// this replay has none.  An operation stays lost (infinite) only while
/// every replay that has it lost it, and `NaN` while none has it.
///
/// Best-of-replays is what makes a time steady on a shared host: its speed
/// moves between fast and slow spells lasting seconds (a fixed CPU loop's
/// median over 15 s ranged 2.8–4.6 ms, its minimum 2.2–2.7 ms), so the
/// best replay of the same operation is the one that ran in a fast spell.
pub fn keep_best(best: &mut Vec<f64>, replay: &[f64]) {
    if best.len() < replay.len() {
        best.resize(replay.len(), f64::NAN);
    }
    for (b, &v) in best.iter_mut().zip(replay) {
        // `f64::min` ignores a `NaN` operand.
        *b = b.min(v);
    }
}

/// Elements per second over closed-loop replays of the same operations,
/// each segment timed at its best replay: every replay is a list of
/// (elements, time) per segment, cut at the same operations.
pub fn best_rate(replays: &[Vec<(usize, Duration)>]) -> f64 {
    let Some(first) = replays.first() else {
        return f64::NAN;
    };
    let elements: usize = first.iter().map(|s| s.0).sum();
    let seconds: f64 = (0..first.len())
        .map(|i| {
            replays
                .iter()
                .filter_map(|r| r.get(i))
                .map(|s| s.1.as_secs_f64())
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    elements as f64 / seconds
}

/// How late an open-loop operation started: the time from when it was due
/// to when it was issued, zero if it was issued on time.
pub fn lateness(due: Instant, started: Instant) -> Duration {
    started.saturating_duration_since(due)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident memory of this process (`VmHWM`) in MiB.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(5000), Some(99));
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_reports_the_tail_it_can_support() {
        let mut l = Latencies::default();
        for i in 1..=200 {
            l.push(i as f64);
        }
        let s = l.summary();
        assert_eq!((s.n, s.tail_p), (200, 95));
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.tail, 190.0);
    }

    #[test]
    fn a_lost_result_counts_as_infinitely_late() {
        let mut l = Latencies::default();
        for _ in 0..989 {
            l.push(1.0);
        }
        l.push_lost(11);
        let s = l.summary();
        assert_eq!(s.tail_p, 99);
        assert_eq!(s.p50, 1.0);
        assert!(s.tail.is_infinite(), "11 lost of 1000 must reach p99");
        let mut few = l.clone();
        few.ms.truncate(995);
        assert_eq!(few.percentile(99.0), 1.0);
    }

    #[test]
    fn lateness_is_measured_from_the_due_time() {
        let due = Instant::now();
        let late = due + Duration::from_millis(3);
        assert_eq!(lateness(due, late), Duration::from_millis(3));
        // Issued before it was due: on time, never negative.
        assert_eq!(lateness(late, due), Duration::ZERO);
    }

    #[test]
    fn best_of_replays_keeps_each_operations_fastest_time() {
        let mut best = Vec::new();
        keep_best(&mut best, &[3.0, f64::INFINITY, f64::NAN, f64::INFINITY]);
        keep_best(&mut best, &[2.0, 5.0, f64::NAN, f64::INFINITY, 7.0]);
        keep_best(&mut best, &[4.0, 1.0, f64::NAN]);
        assert_eq!(best[..2], [2.0, 1.0]);
        assert!(best[2].is_nan(), "no replay had operation 2");
        assert!(best[3].is_infinite(), "lost in every replay that had it");
        assert_eq!(best[4], 7.0);
    }

    #[test]
    fn best_rate_times_each_segment_at_its_best_replay() {
        let d = Duration::from_millis;
        let replays = [
            vec![(10, d(100)), (30, d(400))],
            vec![(10, d(300)), (30, d(200))],
        ];
        // 40 elements in 100 ms + 200 ms.
        assert!((best_rate(&replays) - 40.0 / 0.3).abs() < 1e-9);
        assert!(best_rate(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
