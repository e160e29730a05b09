//! `adhoc_window`: the paper's ad-hoc k-SIR query over a sliding window.
//!
//! A Twitter-shaped stream dense enough to keep about 10k elements active in
//! the paper's default window (T = 24 h, L = 15 min).  One thread follows a
//! fixed wall-clock schedule of bucket ingests and MTTS/MTTD queries, so
//! reads and writes share the engine and a query due during an ingest waits
//! for it.  `core` does all of the work; `continuous` does none.

use std::time::{Duration, Instant};

use ksir_continuous::{DeliveryConfig, ShardConfig, SubscriptionManager};
use ksir_core::{Algorithm, EngineConfig, KsirEngine, KsirQuery, QueryResult, ScoringConfig};
use ksir_datagen::{DatasetProfile, StreamGenerator};
use ksir_stream::WindowConfig;
use ksir_types::DenseTopicWordTable;

use crate::common::{
    adhoc_queries, buckets, core_query_metrics, more_setups, same_result, wait_until, Bucket, Ctx,
    Error, QueryRec, Report,
};
use crate::stats::{
    best_rate, describe, keep_best, lateness, median, ms, percentile, ratio, Latencies, Summary,
};
use crate::trace::{blocking_paths, Tracer};

const WINDOW_TICKS: u64 = 24 * 60;
const BUCKET_TICKS: u64 = 15;
/// One full window of buckets, ingested during set-up.
const WARMUP_BUCKETS: usize = (WINDOW_TICKS / BUCKET_TICKS) as usize;
/// Per open-loop phase.  Few enough that the one thread stays mostly idle
/// (about a quarter busy at 50 s), so queries rarely queue behind each
/// other; the twelve phases pool to 2880 queries for the p99.
const MEASURED_BUCKETS: usize = 240;
const QUERIES: usize = 240;
/// Arrivals per tick: 7 × 1440 ≈ 10k elements in the window.
const ELEMENTS_PER_TICK: f64 = 7.0;
const REFERENCE_HORIZON_TICKS: u64 = 60;
/// Every n-th query of the closed loop is also answered by CELF, untimed.
const CELF_EVERY: usize = 24;
/// Share of `--seconds` given to the open-loop phases.
const OPEN_LOOP_SHARE: f64 = 0.7;
/// Open-loop phases, each followed by a closed loop, each on a fresh engine
/// replaying the same inputs.
const PHASES: usize = 12;
/// The traced run's continuous-layer probe: this many of the ad-hoc queries
/// become standing queries over this many buckets.
const PROBE_SUBSCRIPTIONS: usize = 16;
const PROBE_BUCKETS: usize = 40;

/// One operation of a fixed open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Bucket(usize),
    Query(usize),
}

/// The merged schedule of `buckets` slides and `queries` queries spread
/// evenly over `span`, as (offset from the start, operation), in due order.
/// Bucket `i` is due at `i/buckets` of the span and query `j` at
/// `(j + ½)/queries`, so the two interleave; the order is exact integer
/// arithmetic and so the same for every span.
fn schedule(buckets: usize, queries: usize, span: Duration) -> Vec<(Duration, Op)> {
    let (b, q) = (buckets.max(1) as u128, queries.max(1) as u128);
    let mut keyed: Vec<(u128, Op)> = (0..buckets)
        .map(|i| (2 * i as u128 * q, Op::Bucket(i)))
        .chain((0..queries).map(|j| ((2 * j as u128 + 1) * b, Op::Query(j))))
        .collect();
    keyed.sort_by_key(|&(key, op)| (key, matches!(op, Op::Query(_))));
    let unit = span.as_nanos() / (2 * b * q);
    let rest = span.as_nanos() % (2 * b * q);
    keyed
        .into_iter()
        .map(|(key, op)| {
            let offset = key * unit + key * rest / (2 * b * q);
            (Duration::from_nanos(offset as u64), op)
        })
        .collect()
}

/// The approximation guarantees checked against CELF on sampled queries:
/// MTTD ≥ (1 − 1/e − ε)·OPT and MTTS ≥ (1/2 − ε)·OPT, and OPT ≥ CELF.
fn meets_guarantee(result: &QueryResult, celf: &QueryResult, epsilon: f64) -> bool {
    let factor = match result.algorithm {
        Algorithm::Mttd => 1.0 - (-1.0f64).exp() - epsilon,
        Algorithm::Mtts => 0.5 - epsilon,
        _ => 0.0,
    };
    result.score + 1e-9 >= factor * celf.score
}

struct Input {
    phi: DenseTopicWordTable,
    config: EngineConfig,
    warmup: Vec<Bucket>,
    measured: Vec<Bucket>,
    queries: Vec<(KsirQuery, Algorithm)>,
}

fn input(seed: u64) -> Result<Input, Error> {
    let total = WARMUP_BUCKETS + MEASURED_BUCKETS;
    let mut profile = DatasetProfile::twitter();
    profile.time_span = total as u64 * BUCKET_TICKS;
    profile.num_elements = (ELEMENTS_PER_TICK * profile.time_span as f64) as usize;
    // Retweets of the last hour: the generator scans every candidate in the
    // horizon, and at this density a longer one makes inputs slow to build.
    profile.reference_horizon = REFERENCE_HORIZON_TICKS;
    let stream = StreamGenerator::new(profile, seed)?.generate()?;
    let mut all = buckets(&stream, BUCKET_TICKS, total);
    let measured = all.split_off(WARMUP_BUCKETS);
    let config = EngineConfig::new(
        WindowConfig::new(WINDOW_TICKS, BUCKET_TICKS)?,
        // λ = 0.5 and η = 2, the experiments' defaults at this scale.
        ScoringConfig::new(0.5, 2.0)?,
    );
    Ok(Input {
        phi: stream.planted.phi().clone(),
        config,
        warmup: all,
        measured,
        queries: adhoc_queries(&stream, seed, QUERIES)?,
    })
}

/// Set-up as timed: engine construction plus one window of warm-up ingest.
fn setup(input: &Input) -> Result<(KsirEngine<DenseTopicWordTable>, Duration), Error> {
    let warmup = input.warmup.clone();
    let started = Instant::now();
    let mut engine = KsirEngine::new(input.phi.clone(), input.config)?;
    for (bucket, end) in warmup {
        engine.ingest_bucket(bucket, end)?;
    }
    Ok((engine, started.elapsed()))
}

#[derive(Default)]
struct IngestRec {
    call: Duration,
    inserted: usize,
    touches: usize,
    refreshed: usize,
    expired: usize,
    active: usize,
}

#[derive(Default)]
struct OpenLoop {
    queries: Vec<QueryRec>,
    ingests: Vec<IngestRec>,
    query_latency: Latencies,
    late_ms: Vec<f64>,
}

fn open_loop(
    engine: &mut KsirEngine<DenseTopicWordTable>,
    input: &Input,
    span: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) -> OpenLoop {
    let ops = schedule(MEASURED_BUCKETS, QUERIES, span);
    let mut buckets = input.measured.clone();
    let mut out = OpenLoop::default();
    let start = Instant::now();
    for (offset, op) in ops {
        let due = start + offset;
        wait_until(due);
        let began = Instant::now();
        out.late_ms.push(ms(lateness(due, began)));
        match op {
            Op::Bucket(i) => {
                let (bucket, end) = std::mem::take(&mut buckets[i]);
                let outcome = engine.ingest_bucket(bucket, end);
                let done = Instant::now();
                let root = tracer.record("slide", i as u64 + 1, None, due, done);
                tracer.record("loadgen.wait", i as u64 + 1, root, due, began);
                tracer.record("core.ingest_bucket", i as u64 + 1, root, began, done);
                report.check(outcome.is_ok(), || format!("ingest of bucket {i} failed"));
                if let Ok(r) = outcome {
                    out.ingests.push(IngestRec {
                        call: done - began,
                        inserted: r.inserted,
                        touches: r.delta.touches().len(),
                        refreshed: r.refreshed,
                        expired: r.expired,
                        active: engine.active_count(),
                    });
                }
            }
            Op::Query(j) => {
                let (query, algorithm) = &input.queries[j];
                let result = engine.query(query, *algorithm);
                let done = Instant::now();
                let root = tracer.record("query", j as u64, None, due, done);
                tracer.record("loadgen.wait", j as u64, root, due, began);
                tracer.record("core.query", j as u64, root, began, done);
                report.check(result.is_ok(), || format!("query {j} failed"));
                match &result {
                    Ok(_) => out.query_latency.push(ms(done - due)),
                    Err(_) => out.query_latency.push_lost(1),
                }
                out.queries.push(QueryRec {
                    algorithm: *algorithm,
                    call: done - began,
                    result: result.ok(),
                    active: engine.active_count(),
                });
            }
        }
    }
    out
}

/// Replays the open loop's operations back to back.  Returns, per operation
/// in schedule order, the elements it ingested (0 for a query) and its
/// time.  Every query must return what it returned in the open loop;
/// sampled ones are also checked against CELF, untimed.
fn closed_loop(
    engine: &mut KsirEngine<DenseTopicWordTable>,
    input: &Input,
    open: &OpenLoop,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Vec<(usize, Duration)> {
    let ops = schedule(MEASURED_BUCKETS, QUERIES, Duration::from_secs(1));
    let mut buckets = input.measured.clone();
    let mut timed = Vec::with_capacity(ops.len());
    let root_start = Instant::now();
    let mut spans = Vec::new();
    let traced = tracer.enabled();
    for (_, op) in ops {
        let began = Instant::now();
        match op {
            Op::Bucket(i) => {
                let (bucket, end) = std::mem::take(&mut buckets[i]);
                let elements = bucket.len();
                let ok = engine.ingest_bucket(bucket, end).is_ok();
                let done = Instant::now();
                timed.push((elements, done - began));
                if traced {
                    spans.push(("core.ingest_bucket", i as u64 + 1, began, done));
                }
                report.check(ok, || format!("closed-loop ingest of bucket {i} failed"));
            }
            Op::Query(j) => {
                let (query, algorithm) = &input.queries[j];
                let result = engine.query(query, *algorithm);
                let done = Instant::now();
                timed.push((0, done - began));
                if traced {
                    spans.push(("core.query", j as u64, began, done));
                }
                let same = match (&result, &open.queries[j].result) {
                    (Ok(a), Some(b)) => same_result(a, b),
                    _ => false,
                };
                report.check(same, || {
                    format!("query {j} differs between the open and closed loops")
                });
                if j % CELF_EVERY == 0 {
                    if let Ok(result) = &result {
                        let checked = Instant::now();
                        let celf = engine.query(query, Algorithm::Celf);
                        if traced {
                            spans.push(("check.celf", j as u64, checked, Instant::now()));
                        }
                        let ok = celf
                            .as_ref()
                            .is_ok_and(|c| meets_guarantee(result, c, query.epsilon()));
                        report.check(ok, || {
                            format!("query {j} ({algorithm}) misses its guarantee against CELF")
                        });
                    }
                }
            }
        }
    }
    let root = tracer.record("closed_loop", 0, None, root_start, Instant::now());
    for (name, trace, began, done) in spans {
        tracer.record(name, trace, root, began, done);
    }
    timed
}

pub fn run(ctx: &Ctx) -> Result<Report, Error> {
    let began = Instant::now();
    let input = input(ctx.seed)?;
    let generated = began.elapsed();
    let mut report = Report::default();
    let origin = Instant::now();
    let mut tracer = Tracer::new(ctx.trace, origin);
    let mut setups = Vec::new();
    let span = Duration::from_secs_f64(ctx.seconds * OPEN_LOOP_SHARE / PHASES as f64);

    // Open-loop phases and closed loops alternate, each on a fresh engine
    // replaying the same inputs, so both sample the host at several times.
    // Each query's latency is its best over the phases and each closed-loop
    // operation's time its best over the closed loops (see `keep_best`; the
    // engine runs one operation at a time, so the best times add up to a
    // replay's time).  In a traced run only the first of each is traced,
    // and left out of the best-of; the first closed loop against the others
    // gives the tracing overhead.
    let mut phases: Vec<OpenLoop> = Vec::new();
    let mut best_latency = Vec::new();
    let mut archived_end = 0;
    let mut closed = Vec::new();
    let mut closed_ops = Vec::new();
    for phase in 0..PHASES {
        let traced = ctx.trace && phase == 0;
        let (mut engine, took) = setup(&input)?;
        setups.push(took.as_secs_f64());
        let mut t = Tracer::new(traced, origin);
        let open = open_loop(&mut engine, &input, span, &mut t, &mut report);
        tracer.absorb(t);
        if let Some(first) = phases.first() {
            let same = first.queries.iter().zip(&open.queries).all(
                |(a, b)| matches!((&a.result, &b.result), (Some(a), Some(b)) if same_result(a, b)),
            );
            report.check(same, || {
                format!("open-loop phase {phase} answered differently")
            });
        }
        archived_end = engine.archived_count();
        if !traced {
            keep_best(&mut best_latency, open.query_latency.values());
        }
        phases.push(open);
        drop(engine);

        let (mut engine, took) = setup(&input)?;
        setups.push(took.as_secs_f64());
        let mut t = Tracer::new(traced, origin);
        let ops = closed_loop(&mut engine, &input, &phases[0], &mut t, &mut report);
        tracer.absorb(t);
        closed.push(ops.iter().map(|s| s.1.as_secs_f64()).sum::<f64>());
        if !traced {
            closed_ops.push(ops);
        }
    }

    more_setups(&mut setups, || Ok(setup(&input)?.1.as_secs_f64()))?;
    report.note(format!(
        "inputs {:.2} s; {PHASES} open-loop phases of {:.2} s; total {:.2} s",
        generated.as_secs_f64(),
        span.as_secs_f64(),
        began.elapsed().as_secs_f64()
    ));
    let queries: Vec<Summary> = phases.iter().map(|p| p.query_latency.summary()).collect();
    let pooled = Latencies::pooled(phases.iter().map(|p| &p.query_latency)).summary();
    report.note(format!("query latency per phase: {}", describe(&queries)));
    report.note(format!(
        "query_p50_ms={:.4} query_p99_ms={:.4} (p{} of {} queries, all phases)",
        pooled.p50, pooled.tail, pooled.tail_p, pooled.n
    ));
    // The two algorithms' latencies lie apart (MTTS about three times
    // MTTD), so the median of the mix would fall in the gap between them and
    // jump with either side's edge; the headline averages their medians.
    let best_median = |algorithm: Algorithm| {
        let mine: Vec<f64> = best_latency
            .iter()
            .zip(&input.queries)
            .filter(|(_, q)| q.1 == algorithm)
            .map(|(&ms, _)| ms)
            .collect();
        median(&mine)
    };
    let (mtts, mttd) = (best_median(Algorithm::Mtts), best_median(Algorithm::Mttd));
    report.note(format!(
        "best-of-phases query latency p50: MTTS {mtts:.4} ms, MTTD {mttd:.4} ms"
    ));
    report.set("setup_s", median(&setups));
    report.set("latency_p50_ms", (mtts + mttd) / 2.0);
    report.set("latency_p99_ms", pooled.tail);
    report.set("peak_elems_per_s", best_rate(&closed_ops));

    // Per-layer numbers: query costs from every phase, the rest from the
    // first.
    let all_queries: Vec<QueryRec> = phases
        .iter_mut()
        .flat_map(|p| std::mem::take(&mut p.queries))
        .collect();
    let open = &phases[0];
    report.set("loadgen.late_p99_ms", percentile(&open.late_ms, 99.0));
    let ingest_ms: Vec<f64> = open.ingests.iter().map(|r| ms(r.call)).collect();
    let inserted: usize = open.ingests.iter().map(|r| r.inserted).sum();
    let slides = open.ingests.len() as f64;
    report.set(
        "core.ingest_us_per_elem",
        ratio(ingest_ms.iter().sum::<f64>() * 1e3, inserted as f64),
    );
    report.set("core.ingest_p99_ms", percentile(&ingest_ms, 99.0));
    let mean_of =
        |f: fn(&IngestRec) -> usize| ratio(open.ingests.iter().map(|r| f(r) as f64).sum(), slides);
    report.set("stream.touches_per_slide", mean_of(|r| r.touches));
    report.set(
        "stream.tuples_refreshed_per_slide",
        mean_of(|r| r.refreshed),
    );
    report.set("stream.expired_per_slide", mean_of(|r| r.expired));
    report.set("core.active_elements_mean", mean_of(|r| r.active));
    report.set("core.archived_elements_end", archived_end as f64);
    core_query_metrics(&all_queries, &mut report);
    if ctx.trace {
        let (paths, residual) = blocking_paths(tracer.spans(), &["query", "slide", "closed_loop"]);
        report.set("trace.residual_frac", residual);
        report.set(
            "trace.overhead_frac",
            closed[0] / median(&closed[1..]) - 1.0,
        );
        paths.into_iter().for_each(|line| report.note(line));
        continuous_probe(&input, &mut report)?;
        report.tracer_json = Some(tracer.to_json_lines());
    }
    Ok(report)
}

/// Traced runs only, outside every end-to-end measurement: what the
/// continuous layer would cost on this window, so that its per-layer
/// numbers exist on this workload too.  The first ad-hoc queries become
/// standing queries on a warmed-up engine and the first buckets are ingested
/// three ways: by the engine alone, through the pipelined manager (each
/// subscription with a delivery queue) and through a serial manager.
fn continuous_probe(input: &Input, report: &mut Report) -> Result<(), Error> {
    let buckets = &input.measured[..PROBE_BUCKETS];
    let standing = &input.queries[..PROBE_SUBSCRIPTIONS];
    let n = PROBE_BUCKETS as f64;

    let (mut engine, _) = setup(input)?;
    let mut core_ms = 0.0;
    for (bucket, end) in buckets.iter().cloned() {
        let t = Instant::now();
        let ok = engine.ingest_bucket(bucket, end).is_ok();
        core_ms += ms(t.elapsed());
        report.check(ok, || "probe engine ingest failed".to_string());
    }

    let (engine, _) = setup(input)?;
    let mut mgr = SubscriptionManager::new(engine);
    let mut subscribe_us = Vec::new();
    let mut ids = Vec::new();
    for (query, algorithm) in standing {
        let t = Instant::now();
        ids.push(mgr.subscribe(query.clone(), *algorithm)?);
        subscribe_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut attach_us = Vec::new();
    let mut receivers = Vec::new();
    for &id in &ids {
        let t = Instant::now();
        let rx = mgr.attach_delivery(id, DeliveryConfig::default());
        attach_us.push(t.elapsed().as_secs_f64() * 1e6);
        receivers.push(rx.ok_or("attach_delivery refused a live subscription")?);
    }
    let mut returns = Vec::new();
    for (bucket, end) in buckets.iter().cloned() {
        let t = Instant::now();
        let ticket = mgr.ingest_bucket_async(bucket, end);
        returns.push(ms(t.elapsed()));
        report.check(ticket.is_ok(), || {
            "probe pipelined ingest failed".to_string()
        });
    }
    mgr.sync();
    let delivered: usize = receivers.iter().map(|rx| rx.drain().len()).sum();
    let stats = mgr.stats();
    let snapshots = mgr.snapshot_stats();

    let (engine, _) = setup(input)?;
    let mut serial = SubscriptionManager::with_shard_config(engine, ShardConfig::serial());
    for (query, algorithm) in standing {
        serial.subscribe(query.clone(), *algorithm)?;
    }
    let t = Instant::now();
    for (bucket, end) in buckets.iter().cloned() {
        let ok = serial.ingest_bucket(bucket, end).is_ok();
        report.check(ok, || "probe serial ingest failed".to_string());
    }
    let serial_ms = ms(t.elapsed()) / n;

    report.set("core.serial_ingest_ms_per_slide", core_ms / n);
    report.set("continuous.serial_ms_per_slide", serial_ms);
    report.set(
        "continuous.refresh_self_ms_per_slide",
        serial_ms - core_ms / n,
    );
    report.set(
        "continuous.ingest_return_p50_ms",
        percentile(&returns, 50.0),
    );
    report.set(
        "continuous.ingest_return_p99_ms",
        percentile(&returns, 99.0),
    );
    report.set(
        "continuous.subscribe_us_p50",
        percentile(&subscribe_us, 50.0),
    );
    report.set(
        "continuous.subscribe_us_p99",
        percentile(&subscribe_us, 99.0),
    );
    report.set(
        "continuous.attach_delivery_us_p50",
        percentile(&attach_us, 50.0),
    );
    report.set(
        "continuous.attach_delivery_us_p99",
        percentile(&attach_us, 99.0),
    );
    let evaluations = (stats.refreshes + stats.skips) as f64;
    report.set(
        "continuous.skip_ratio",
        ratio(stats.skips as f64, evaluations),
    );
    report.set("continuous.refreshes_per_slide", stats.refreshes as f64 / n);
    report.set(
        "snapshot.epochs_per_slide",
        snapshots.epochs_captured as f64 / n,
    );
    report.set(
        "snapshot.shard_snapshots_per_slide",
        snapshots.shard_snapshots as f64 / n,
    );
    report.set("delivery.deltas_per_slide", delivered as f64 / n);
    report.note(format!(
        "continuous probe ({PROBE_SUBSCRIPTIONS} standing queries, {PROBE_BUCKETS} buckets): serial {serial_ms:.4} ms per slide = core.ingest_bucket {:.4} + refresh self {:.4}",
        core_ms / n,
        serial_ms - core_ms / n
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_interleaves_in_the_same_order_for_every_span() {
        let short = schedule(4, 3, Duration::from_millis(1));
        let long = schedule(4, 3, Duration::from_secs(7));
        let order = |s: &[(Duration, Op)]| s.iter().map(|&(_, op)| op).collect::<Vec<_>>();
        assert_eq!(order(&short), order(&long));
        assert_eq!(
            order(&long),
            [
                Op::Bucket(0),
                Op::Query(0),
                Op::Bucket(1),
                Op::Bucket(2),
                Op::Query(1),
                Op::Bucket(3),
                Op::Query(2),
            ]
        );
        // Due times rise and stay inside the span.
        assert!(long.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(long.iter().all(|&(due, _)| due < Duration::from_secs(7)));
        assert_eq!(long[1].0, Duration::from_secs(7) / 6);
    }
}
