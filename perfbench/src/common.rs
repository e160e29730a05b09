//! What every workload shares: the run context, the report, bucketing of a
//! generated stream, ad-hoc queries and their per-layer numbers, the
//! open-loop pacer, and repeated set-ups.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ksir_core::{Algorithm, KsirQuery, QueryResult};
use ksir_datagen::{GeneratedStream, QueryWorkloadGenerator};
use ksir_types::{SocialElement, Timestamp, TopicVector};

use crate::stats::{ms, percentile, ratio};

pub type Bucket = (Vec<(SocialElement, TopicVector)>, Timestamp);
pub type Error = Box<dyn std::error::Error>;

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back: the correctness tally, every metric it
/// measured, and human-readable lines printed before the JSON result.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    pub notes: Vec<String>,
    pub tracer_json: Option<String>,
}

impl Report {
    /// Counts one attempted operation or check, and a failure if `ok` is
    /// false (the first few failures are kept for the log).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Cuts a timestamp-ordered stream into buckets of `bucket_len` ticks,
/// keeping empty buckets so that slide `i` always ends at `(i + 1) · L`.
pub fn buckets(stream: &GeneratedStream, bucket_len: u64, count: usize) -> Vec<Bucket> {
    let mut out: Vec<Bucket> = (1..=count as u64)
        .map(|i| (Vec::new(), Timestamp(i * bucket_len)))
        .collect();
    for (element, tv) in stream.iter_pairs() {
        let index = (element.ts.raw().max(1) - 1) / bucket_len;
        if let Some(bucket) = out.get_mut(index as usize) {
            bucket.0.push((element, tv));
        }
    }
    out
}

/// `count` ad-hoc k-SIR queries (k = 10, ε = 0.1) from the paper's query
/// generator, alternating MTTS and MTTD.
pub fn adhoc_queries(
    stream: &GeneratedStream,
    seed: u64,
    count: usize,
) -> Result<Vec<(KsirQuery, Algorithm)>, Error> {
    let generated = QueryWorkloadGenerator::new(&stream.planted, seed ^ 0x9E37_79B9)
        .generate(count, stream.end_time().max(Timestamp(1)))?;
    generated
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let query = KsirQuery::new(10, q.vector)?.with_epsilon(0.1)?;
            let algorithm = if i % 2 == 0 {
                Algorithm::Mtts
            } else {
                Algorithm::Mttd
            };
            Ok((query, algorithm))
        })
        .collect()
}

/// Waits until `due`: sleeps while far from it, then yields, so the wake-up
/// lands close to the due time without spinning a core for long.
pub fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(400) {
            std::thread::sleep(left - Duration::from_micros(300));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Two results agree when they hold the same elements with the same score.
pub fn same_result(a: &QueryResult, b: &QueryResult) -> bool {
    a.sorted_elements() == b.sorted_elements() && (a.score - b.score).abs() <= 1e-9
}

/// One timed ad-hoc query.
pub struct QueryRec {
    pub algorithm: Algorithm,
    pub call: Duration,
    pub result: Option<QueryResult>,
    pub active: usize,
}

/// `core.query_*` per algorithm: call time (not waiting), the share of the
/// active window evaluated (paper Fig. 10), and scoring passes per query.
pub fn core_query_metrics(queries: &[QueryRec], report: &mut Report) {
    for (algorithm, suffix) in [(Algorithm::Mtts, "mtts"), (Algorithm::Mttd, "mttd")] {
        let mine: Vec<&QueryRec> = queries
            .iter()
            .filter(|q| q.algorithm == algorithm)
            .collect();
        let call_ms: Vec<f64> = mine.iter().map(|q| ms(q.call)).collect();
        let n = mine.len() as f64;
        let answered = || mine.iter().filter_map(|q| Some((q, q.result.as_ref()?)));
        let evaluated: f64 = answered()
            .map(|(q, r)| ratio(r.evaluated_elements as f64, q.active as f64))
            .sum();
        let gains: f64 = answered().map(|(_, r)| r.gain_evaluations as f64).sum();
        report.set(
            format!("core.query_p50_ms.{suffix}"),
            percentile(&call_ms, 50.0),
        );
        report.set(
            format!("core.query_p99_ms.{suffix}"),
            percentile(&call_ms, 99.0),
        );
        report.set(
            format!("core.evaluated_ratio.{suffix}"),
            ratio(evaluated, n),
        );
        report.set(
            format!("core.gain_evals_per_query.{suffix}"),
            ratio(gains, n),
        );
    }
}

/// Set-ups timed per run: at least this many...
const MIN_SETUPS: usize = 3;
/// ...and more, up to this many, while their total stays under half a
/// second: a cheap set-up is timed many times so its median is steady.
const MAX_SETUPS: usize = 101;

/// Adds timed set-ups whose products are discarded until there are enough
/// for a steady median (see [`MIN_SETUPS`]).  `setup` returns seconds.
pub fn more_setups(
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<f64, Error>,
) -> Result<(), Error> {
    while times.len() < MIN_SETUPS || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < 0.5)
    {
        times.push(setup()?);
    }
    Ok(())
}
