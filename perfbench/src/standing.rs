//! `standing_feed`: standing queries kept fresh while the stream slides.
//!
//! 64 narrow MTTD/MTTS subscriptions (k = 10), each with a delivery queue,
//! are maintained by a `SubscriptionManager` over a 6 h window while one
//! generator thread ingests buckets through `ingest_bucket_async` on a fixed
//! wall-clock schedule and one consumer thread drains every queue.
//! Freshness is the time from a bucket's due time to the consumer receiving
//! each delta of that slide.  Pipelined ingest, snapshots, delta refresh and
//! the unbounded archive all do real work.
//!
//! A run alternates closed loops and open-loop replays of the same slides,
//! each on a freshly set-up manager.  Each delta's freshness is its best
//! over the open-loop replays, and each closed-loop segment's time its best
//! over the closed loops (see `keep_best`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ksir_continuous::{
    DeliveryConfig, DeliveryReceiver, OverflowPolicy, ShardConfig, ShardStats, SubscriptionId,
    SubscriptionManager,
};
use ksir_core::{Algorithm, EngineConfig, KsirEngine, KsirQuery, ScoringConfig};
use ksir_datagen::{DatasetProfile, StreamGenerator};
use ksir_stream::WindowConfig;
use ksir_types::rng::{derive_seed, seeded_rng};
use ksir_types::topic_model::TopicWordDistribution;
use ksir_types::{DenseTopicWordTable, QueryVector};
use rand::rngs::StdRng;
use rand::Rng;

use crate::common::{
    adhoc_queries, buckets, core_query_metrics, more_setups, same_result, wait_until, Bucket, Ctx,
    Error, QueryRec, Report,
};
use crate::stats::{
    best_rate, describe, keep_best, lateness, median, ms, percentile, ratio, Latencies,
};
use crate::trace::{blocking_paths, Tracer};

type Manager = SubscriptionManager<DenseTopicWordTable>;
type Subscription = (KsirQuery, Algorithm);

const WINDOW_TICKS: u64 = 6 * 60;
const BUCKET_TICKS: u64 = 15;
const ELEMENTS_PER_TICK: f64 = 0.6;
/// Slides in the generated stream; each replay uses as many as its share
/// of `--seconds` allows at [`SLIDE_PERIOD`].
const STREAM_SLIDES: usize = 4000;
/// Fixed open-loop slide period: about a quarter of the peak slide rate on
/// a 2-core host, so that a slower host still has headroom.
const SLIDE_PERIOD: Duration = Duration::from_millis(12);
const SUBSCRIPTIONS: usize = 64;
/// Share of `--seconds` given to the open-loop replays; the rest goes to
/// the closed loops.
const OPEN_LOOP_SHARE: f64 = 0.65;
const REPLAYS: usize = 10;
const CLOSED_LOOPS: usize = 12;
/// Closed loops are timed in this many segments of slides.  Short segments
/// give the best-of more chances: a segment's best closed loop need only
/// have been fast for its few slides.
const CLOSED_SEGMENTS: usize = 25;
/// Ad-hoc queries the traced run times after its serial replay.
const PROBE_QUERIES: usize = 200;
/// The traced run's set-up probe: a Zipf(1) population this large, drawn
/// from this many plan templates.
const PROBE_SUBSCRIPTIONS: usize = 10_000;
const PROBE_TEMPLATES: usize = 48;

struct Input {
    phi: DenseTopicWordTable,
    config: EngineConfig,
    buckets: Vec<Bucket>,
    subscriptions: Vec<Subscription>,
    /// Ad-hoc queries timed on the final state of the serial replay, so the
    /// traced run reports `core.query_*` for this window too.
    queries: Vec<(KsirQuery, Algorithm)>,
}

fn two_topic(num_topics: usize, a: usize, b: usize, wa: f64) -> Result<QueryVector, Error> {
    let mut weights = vec![0.0; num_topics];
    weights[a] = wa;
    weights[b] = 1.0 - wa;
    Ok(QueryVector::new(weights)?)
}

/// The topic pairs of `n` queries over `z` topics: one fixed design over
/// topic labels that the seed shuffles, so every seed's population spreads
/// over the topics alike.  With random pairs, which topics a seed's few
/// busiest queries landed on moved the per-slide work by a third.
fn topic_pairs(z: usize, n: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut label: Vec<usize> = (0..z).collect();
    for i in (1..z).rev() {
        label.swap(i, rng.gen_range(0..=i));
    }
    (0..n)
        .map(|i| {
            let a = (2 * i) % z;
            let b = (2 * i + 7 + 2 * i / z) % z;
            (label[a], label[if b == a { (b + 1) % z } else { b }])
        })
        .collect()
}

/// Distinct narrow (two-topic) queries at k = 10, alternating MTTD and MTTS.
fn narrow_population(z: usize, seed: u64) -> Result<Vec<Subscription>, Error> {
    let mut rng = seeded_rng(derive_seed(seed, "subscriptions"));
    topic_pairs(z, SUBSCRIPTIONS, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(i, (a, b))| {
            let query = KsirQuery::new(10, two_topic(z, a, b, 0.8)?)?;
            let algorithm = if i % 2 == 0 {
                Algorithm::Mttd
            } else {
                Algorithm::Mtts
            };
            Ok((query, algorithm))
        })
        .collect()
}

/// Subscriptions drawn with Zipf(1) popularity from plan templates, each
/// template's subscribers differing only in k.
fn zipf_population(z: usize, seed: u64) -> Result<Vec<Subscription>, Error> {
    let mut rng = seeded_rng(derive_seed(seed, "zipf-subscriptions"));
    let plans: Vec<(QueryVector, Algorithm)> = topic_pairs(z, PROBE_TEMPLATES, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(t, (a, b))| {
            let algorithm = match t % 3 {
                0 => Algorithm::Mtts,
                1 => Algorithm::Mttd,
                _ => Algorithm::TopkRepresentative,
            };
            Ok((two_topic(z, a, b, 0.7)?, algorithm))
        })
        .collect::<Result<_, Error>>()?;
    let cumulative: Vec<f64> = (1..=PROBE_TEMPLATES)
        .scan(0.0, |sum, rank| {
            *sum += 1.0 / rank as f64;
            Some(*sum)
        })
        .collect();
    let total = cumulative[PROBE_TEMPLATES - 1];
    (0..PROBE_SUBSCRIPTIONS)
        .map(|i| {
            let u = rng.gen_range(0.0..total);
            let t = cumulative
                .partition_point(|c| *c < u)
                .min(PROBE_TEMPLATES - 1);
            let query = KsirQuery::new(2 + 2 * (i % 4), plans[t].0.clone())?;
            Ok((query, plans[t].1))
        })
        .collect()
}

fn input(seed: u64) -> Result<Input, Error> {
    let mut profile = DatasetProfile::twitter();
    profile.time_span = STREAM_SLIDES as u64 * BUCKET_TICKS;
    profile.num_elements = (ELEMENTS_PER_TICK * profile.time_span as f64) as usize;
    let stream = StreamGenerator::new(profile, seed)?.generate()?;
    let phi = stream.planted.phi().clone();
    Ok(Input {
        subscriptions: narrow_population(phi.num_topics(), seed)?,
        phi,
        config: EngineConfig::new(
            WindowConfig::new(WINDOW_TICKS, BUCKET_TICKS)?,
            ScoringConfig::new(0.5, 1.0)?,
        ),
        buckets: buckets(&stream, BUCKET_TICKS, STREAM_SLIDES),
        queries: adhoc_queries(&stream, seed, PROBE_QUERIES)?,
    })
}

struct Setup {
    mgr: Manager,
    ids: Vec<SubscriptionId>,
    receivers: Vec<DeliveryReceiver>,
    took: Duration,
    subscribe_us: Vec<f64>,
    attach_us: Vec<f64>,
}

/// Set-up as timed: manager construction, every `subscribe`, then (with
/// `deliver`) every `attach_delivery`, each call also timed on its own.
fn setup(
    input: &Input,
    subscriptions: &[Subscription],
    config: ShardConfig,
    deliver: bool,
) -> Result<Setup, Error> {
    let phi = input.phi.clone();
    let started = Instant::now();
    let engine = KsirEngine::new(phi, input.config)?;
    let mut mgr = SubscriptionManager::with_shard_config(engine, config);
    let mut ids = Vec::with_capacity(subscriptions.len());
    let mut subscribe_us = Vec::with_capacity(subscriptions.len());
    for (query, algorithm) in subscriptions {
        let t = Instant::now();
        ids.push(mgr.subscribe(query.clone(), *algorithm)?);
        subscribe_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut receivers = Vec::new();
    let mut attach_us = Vec::new();
    if deliver {
        // DropNewest: every delta the program produces is either accepted
        // (`delivery.enqueued`) or shed (`delivery.dropped`), never both.
        let queue = DeliveryConfig::default().with_policy(OverflowPolicy::DropNewest);
        for &id in &ids {
            let t = Instant::now();
            let rx = mgr.attach_delivery(id, queue);
            attach_us.push(t.elapsed().as_secs_f64() * 1e6);
            receivers.push(rx.ok_or("attach_delivery refused a live subscription")?);
        }
    }
    Ok(Setup {
        mgr,
        ids,
        receivers,
        took: started.elapsed(),
        subscribe_us,
        attach_us,
    })
}

/// What the consumer thread saw.
#[derive(Default)]
struct Consumed {
    delivered: u64,
    /// (slide, queue, receive instant) of every delta, when timing.
    received: Vec<(u64, usize, Instant)>,
    /// Most deltas drained from one queue in one pass.
    depth_max: usize,
    busy: Duration,
    lifetime: Duration,
}

/// Drains every queue until `stop` is set and a full pass finds nothing.
fn consume(receivers: &[DeliveryReceiver], stop: &AtomicBool, timed: bool) -> Consumed {
    let mut out = Consumed::default();
    let born = Instant::now();
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let pass = Instant::now();
        let mut got = 0;
        for (queue, rx) in receivers.iter().enumerate() {
            let mut here = 0;
            while let Some(d) = rx.try_recv() {
                here += 1;
                if timed {
                    out.received.push((d.slide, queue, Instant::now()));
                }
            }
            out.depth_max = out.depth_max.max(here);
            got += here;
        }
        out.delivered += got as u64;
        if got > 0 {
            out.busy += pass.elapsed();
        } else if stopping {
            break;
        } else {
            // Idle: poll again after a pause that keeps empty passes over
            // many queues from taking more than a fifth of a core.
            std::thread::sleep((pass.elapsed() * 4).max(Duration::from_micros(200)));
        }
    }
    out.lifetime = born.elapsed();
    out
}

/// How [`drive`] paces the slides.
#[derive(Debug, Clone, Copy)]
enum Pace {
    /// Slide `i` is due at `i · period`; freshness counts from there.
    Open { period: Duration },
    /// Slides run back to back; throughput is timed per segment of this many
    /// slides.
    Closed { segment_slides: usize },
}

#[derive(Default)]
struct Run {
    /// Closed loop: (elements, wall time) per segment of slides.
    segments: Vec<(usize, Duration)>,
    /// Open loop: the freshness in ms of the delta of slide `i` to queue
    /// `q` at `i · queues + q`, `NaN` where there was none.
    freshness: Vec<f64>,
    late_ms: Vec<f64>,
    ingest_return_ms: Vec<f64>,
    backlog_max: u64,
    touches: usize,
    refreshed: usize,
    expired: usize,
    active_sum: usize,
    consumed: Consumed,
    dropped: u64,
}

/// Ingests the first `slides` buckets into a set-up manager with a consumer
/// draining beside it, and ends with `sync`, after which every result is
/// final.
fn drive(
    setup: &mut Setup,
    input: &Input,
    slides: usize,
    pace: Pace,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Run {
    let open = matches!(pace, Pace::Open { .. });
    let mut run = Run::default();
    let mut buckets = input.buckets[..slides].to_vec();
    let stop = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(5);
    let mut spans = Vec::with_capacity(slides);
    let receivers = std::mem::take(&mut setup.receivers);
    let mgr = &mut setup.mgr;
    let consumed = std::thread::scope(|s| {
        let consumer = s.spawn(|| consume(&receivers, &stop, open));
        wait_until(start);
        let mut segment = (0, Instant::now());
        for (i, (bucket, end)) in buckets.iter_mut().enumerate() {
            let due = match pace {
                Pace::Open { period } => {
                    let due = start + period * i as u32;
                    wait_until(due);
                    due
                }
                Pace::Closed { segment_slides } => {
                    let now = Instant::now();
                    if i > 0 && i % segment_slides == 0 {
                        run.segments.push((segment.0, now - segment.1));
                        segment = (0, now);
                    }
                    now
                }
            };
            let began = Instant::now();
            run.late_ms.push(ms(lateness(due, began)));
            segment.0 += bucket.len();
            let ticket = mgr.ingest_bucket_async(std::mem::take(bucket), *end);
            let done = Instant::now();
            report.check(ticket.is_ok(), || format!("ingest of bucket {i} failed"));
            spans.push((due, began, done));
            run.ingest_return_ms.push(ms(done - began));
            if let Ok(ticket) = ticket {
                let backlog = ticket.slide.saturating_sub(mgr.completed_epoch());
                run.backlog_max = run.backlog_max.max(backlog);
                run.touches += ticket.report.delta.touches().len();
                run.refreshed += ticket.report.refreshed;
                run.expired += ticket.report.expired;
                run.active_sum += mgr.engine().active_count();
            }
        }
        let sync_start = Instant::now();
        mgr.sync();
        let synced = Instant::now();
        run.segments.push((segment.0, synced - segment.1));
        stop.store(true, Ordering::Release);
        if !open {
            let root = tracer.record("closed_loop", 0, None, start, synced);
            for (i, &(_, began, done)) in spans.iter().enumerate() {
                let trace = i as u64 + 1;
                tracer.record("continuous.ingest_bucket_async", trace, root, began, done);
            }
            tracer.record("continuous.sync", 0, root, sync_start, synced);
        }
        consumer.join().expect("consumer thread panicked")
    });
    run.dropped = receivers.iter().map(|rx| rx.dropped()).sum();
    let queues = receivers.len();
    setup.receivers = receivers;

    if open {
        // Every received delta counts from its slide's due time.
        run.freshness = vec![f64::NAN; slides * queues];
        let mut first = vec![None::<Instant>; slides];
        let mut last = vec![None::<Instant>; slides];
        for &(slide, queue, at) in &consumed.received {
            let i = slide as usize - 1;
            let cell = &mut run.freshness[i * queues + queue];
            *cell = cell.min(ms(at.saturating_duration_since(spans[i].0)));
            first[i] = Some(first[i].map_or(at, |f: Instant| f.min(at)));
            last[i] = Some(last[i].map_or(at, |l: Instant| l.max(at)));
        }
        // One trace per slide: waiting for the generator, the ingest call,
        // refresh until the first delta arrives, and the fan-out of the
        // rest.  Together they tile the slide from due time to last delta.
        for (i, &(due, began, done)) in spans.iter().enumerate() {
            let trace = i as u64 + 1;
            let first = first[i].map_or(done, |f| f.max(done));
            let end = last[i].map_or(done, |l| l.max(done));
            let root = tracer.record("slide", trace, None, due, end);
            tracer.record("loadgen.wait", trace, root, due, began);
            tracer.record("continuous.ingest_bucket_async", trace, root, began, done);
            tracer.record(
                "continuous.refresh_to_first_delta",
                trace,
                root,
                done,
                first,
            );
            tracer.record("delivery.fanout", trace, root, first, end);
        }
    }
    run.consumed = consumed;
    run
}

/// After the final `sync`, every subscription's result equals a
/// from-scratch query.
fn check_results(mgr: &Manager, ids: &[SubscriptionId], input: &Input, report: &mut Report) {
    let engine = mgr.engine();
    for (&id, (query, algorithm)) in ids.iter().zip(&input.subscriptions) {
        let expected = engine.query(query, *algorithm).ok();
        let held = mgr.result(id);
        let ok = matches!((&held, &expected), (Some(a), Some(b)) if same_result(a, b));
        report.check(ok, || {
            format!("subscription {id} differs from a from-scratch query")
        });
    }
}

/// Every delta the program produced was either received or counted as
/// dropped, and a dropped delta is a failed delivery.
fn check_delivery(setup: &Setup, run: &Run, report: &mut Report) {
    let registry = setup.mgr.telemetry().registry();
    let produced =
        registry.counter("delivery.enqueued").get() + registry.counter("delivery.dropped").get();
    let seen = run.consumed.delivered + run.dropped;
    report.check(seen == produced, || {
        format!(
            "received {} + dropped {} != enqueued + dropped {produced}",
            run.consumed.delivered, run.dropped
        )
    });
    for _ in 0..run.dropped {
        report.check(false, || "a delivery queue dropped a delta".to_string());
    }
}

/// Single-threaded replays of the first `slides` slides, outside every
/// end-to-end measurement: the engine alone, then a `ShardConfig::serial()`
/// manager (whose results are checked too), followed by the ad-hoc query
/// probe.  Returns the per-slide engine times, the serial manager's mean ms
/// per slide, the elements ingested and the timed queries.
fn decompose(
    input: &Input,
    slides: usize,
    report: &mut Report,
) -> Result<(Vec<f64>, f64, usize, Vec<QueryRec>), Error> {
    let buckets: Vec<Bucket> = input.buckets[..slides].to_vec();
    let inserted = buckets.iter().map(|b| b.0.len()).sum();
    let mut engine = KsirEngine::new(input.phi.clone(), input.config)?;
    let mut engine_ms = Vec::with_capacity(slides);
    for (bucket, end) in buckets.clone() {
        let t = Instant::now();
        let ok = engine.ingest_bucket(bucket, end).is_ok();
        engine_ms.push(ms(t.elapsed()));
        report.check(ok, || "engine-only ingest failed".to_string());
    }
    let mut serial = setup(input, &input.subscriptions, ShardConfig::serial(), false)?;
    let t = Instant::now();
    for (bucket, end) in buckets {
        let ok = serial.mgr.ingest_bucket(bucket, end).is_ok();
        report.check(ok, || "serial-manager ingest failed".to_string());
    }
    let serial_ms = ms(t.elapsed()) / slides as f64;
    check_results(&serial.mgr, &serial.ids, input, report);
    let engine = serial.mgr.engine();
    let queries = input
        .queries
        .iter()
        .map(|(query, algorithm)| {
            let t = Instant::now();
            let result = engine.query(query, *algorithm);
            let call = t.elapsed();
            report.check(result.is_ok(), || "probe query failed".to_string());
            QueryRec {
                algorithm: *algorithm,
                call,
                result: result.ok(),
                active: engine.active_count(),
            }
        })
        .collect();
    Ok((engine_ms, serial_ms, inserted, queries))
}

/// Per-layer numbers of one open-loop replay and its manager.
fn layer_metrics(s: &Setup, open: &Run, slides: usize, report: &mut Report) {
    let mgr = &s.mgr;
    let stats = mgr.stats();
    let shards = mgr.shard_stats();
    let snapshots = mgr.snapshot_stats();
    let engine_stats = mgr.engine().stats();
    let archived_end = mgr.engine().archived_count();
    let gain_evals = mgr
        .telemetry()
        .registry()
        .counter("refresh.gain_evaluations")
        .get();
    let n = slides as f64;
    report.set("loadgen.late_p99_ms", percentile(&open.late_ms, 99.0));
    report.set("loadgen.backlog_max_epochs", open.backlog_max as f64);
    report.set("stream.touches_per_slide", open.touches as f64 / n);
    report.set(
        "stream.tuples_refreshed_per_slide",
        open.refreshed as f64 / n,
    );
    report.set("stream.expired_per_slide", open.expired as f64 / n);
    report.set("core.active_elements_mean", open.active_sum as f64 / n);
    report.set("core.archived_elements_end", archived_end as f64);
    report.set(
        "snapshot.epochs_per_slide",
        snapshots.epochs_captured as f64 / n,
    );
    report.set(
        "snapshot.shard_snapshots_per_slide",
        snapshots.shard_snapshots as f64 / n,
    );
    let cow = engine_stats.window_cow_clones
        + engine_stats.topic_vector_cow_clones
        + engine_stats.ranked_cow_clones;
    report.set("snapshot.cow_clones_per_slide", cow as f64 / n);
    report.set(
        "continuous.ingest_return_p50_ms",
        percentile(&open.ingest_return_ms, 50.0),
    );
    report.set(
        "continuous.ingest_return_p99_ms",
        percentile(&open.ingest_return_ms, 99.0),
    );
    let refreshes = stats.refreshes as f64;
    let evaluations = refreshes + stats.skips as f64;
    report.set(
        "continuous.skip_ratio",
        ratio(stats.skips as f64, evaluations),
    );
    report.set("continuous.refreshes_per_slide", refreshes / n);
    report.set("continuous.gain_evals_per_slide", gain_evals as f64 / n);
    let sum = |f: fn(&ShardStats) -> usize| shards.iter().map(f).sum::<usize>() as f64;
    report.set(
        "continuous.delta_refresh_ratio",
        ratio(sum(|s| s.delta_refreshes), refreshes),
    );
    report.set(
        "continuous.shared_refresh_ratio",
        ratio(sum(|s| s.shared_refreshes), refreshes),
    );
    report.set(
        "continuous.covering_per_slide",
        sum(|s| s.covering_evaluations) / n,
    );
    report.set(
        "delivery.deltas_per_slide",
        open.consumed.delivered as f64 / n,
    );
    report.set("delivery.dropped", open.dropped as f64);
    report.set("delivery.queue_depth_max", open.consumed.depth_max as f64);
    report.set(
        "delivery.consumer_busy_frac",
        ratio(
            open.consumed.busy.as_secs_f64(),
            open.consumed.lifetime.as_secs_f64(),
        ),
    );
}

/// Traced runs only: the set-up a large population pays, which the 64
/// subscriptions of the workload cannot show.  A Zipf(1) population of
/// [`PROBE_SUBSCRIPTIONS`] over [`PROBE_TEMPLATES`] plan templates, each
/// with a delivery queue, is set up once with every call timed.  Known
/// defect kept visible: `attach_delivery` costs O(subscriptions) per call
/// (`sync` → `publish_gauges` sums every queue's length), so set-up is
/// quadratic in the population and attaching takes most of it.
fn setup_probe(input: &Input, seed: u64, report: &mut Report) -> Result<(), Error> {
    let population = zipf_population(input.phi.num_topics(), seed)?;
    let s = setup(input, &population, ShardConfig::default(), true)?;
    let took = s.took.as_secs_f64();
    let attach_frac = ratio(s.attach_us.iter().sum::<f64>() / 1e6, took);
    for (name, calls) in [
        ("subscribe_us", &s.subscribe_us),
        ("attach_delivery_us", &s.attach_us),
    ] {
        for p in [50, 99] {
            report.set(
                format!("continuous.{name}_p{p}"),
                percentile(calls, p as f64),
            );
        }
    }
    report.set("continuous.attach_setup_frac", attach_frac);
    report.note(format!(
        "set-up probe: {} Zipf(1) subscriptions with queues in {took:.4} s, attach_delivery {:.1}% (p50 {:.1} us), subscribe p50 {:.1} us",
        population.len(),
        100.0 * attach_frac,
        percentile(&s.attach_us, 50.0),
        percentile(&s.subscribe_us, 50.0)
    ));
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Report, Error> {
    let began = Instant::now();
    let period = SLIDE_PERIOD;
    let per_replay = ctx.seconds * OPEN_LOOP_SHARE / REPLAYS as f64;
    let slides =
        ((per_replay / period.as_secs_f64()) as usize).clamp(CLOSED_SEGMENTS, STREAM_SLIDES);
    let input = input(ctx.seed)?;
    let generated = began.elapsed();
    let mut report = Report::default();
    let origin = Instant::now();
    let mut tracer = Tracer::new(ctx.trace, origin);
    let mut setups = Vec::new();
    let pace = Pace::Closed {
        segment_slides: slides / CLOSED_SEGMENTS,
    };

    // In a traced run only the first closed loop and the first replay are
    // traced, and left out of the best-of; the first closed loop against
    // the others gives the tracing overhead.  Per-layer numbers come from
    // the first replay.
    let mut closed = Vec::new();
    let mut closed_segments = Vec::new();
    let mut best_freshness = Vec::new();
    let mut replays = Vec::new();
    let mut dropped = 0;
    for replay in 0..REPLAYS {
        let traced = ctx.trace && replay == 0;

        if replay < CLOSED_LOOPS {
            let mut s = setup(&input, &input.subscriptions, ShardConfig::default(), true)?;
            setups.push(s.took.as_secs_f64());
            let mut t = Tracer::new(traced, origin);
            let run = drive(&mut s, &input, slides, pace, &mut t, &mut report);
            tracer.absorb(t);
            check_results(&s.mgr, &s.ids, &input, &mut report);
            check_delivery(&s, &run, &mut report);
            closed.push(run.segments.iter().map(|s| s.1.as_secs_f64()).sum::<f64>());
            if !traced {
                closed_segments.push(run.segments);
            }
        }

        let mut s = setup(&input, &input.subscriptions, ShardConfig::default(), true)?;
        setups.push(s.took.as_secs_f64());
        let mut t = Tracer::new(traced, origin);
        let open = drive(
            &mut s,
            &input,
            slides,
            Pace::Open { period },
            &mut t,
            &mut report,
        );
        tracer.absorb(t);
        check_results(&s.mgr, &s.ids, &input, &mut report);
        check_delivery(&s, &open, &mut report);
        if replay == 0 {
            layer_metrics(&s, &open, slides, &mut report);
        }
        if !traced {
            keep_best(&mut best_freshness, &open.freshness);
        }
        let mut received = Latencies::default();
        open.freshness
            .iter()
            .filter(|ms| !ms.is_nan())
            .for_each(|&ms| received.push(ms));
        // A shed delta counts as infinitely late.
        received.push_lost(open.dropped as usize);
        dropped += open.dropped as usize;
        replays.push(received);
    }
    more_setups(&mut setups, || {
        Ok(
            setup(&input, &input.subscriptions, ShardConfig::default(), true)?
                .took
                .as_secs_f64(),
        )
    })?;

    let mut best = Latencies::default();
    best_freshness
        .iter()
        .filter(|ms| !ms.is_nan())
        .for_each(|&ms| best.push(ms));
    best.push_lost(dropped);
    let summaries: Vec<_> = replays.iter().map(Latencies::summary).collect();
    let pooled = Latencies::pooled(&replays).summary();
    report.note(format!(
        "inputs {:.2} s; {} subscriptions; {CLOSED_LOOPS} closed loops and {REPLAYS} open-loop replays of {slides} slides (open: every {period:?}); total {:.2} s",
        generated.as_secs_f64(),
        input.subscriptions.len(),
        began.elapsed().as_secs_f64()
    ));
    report.note(format!("freshness per replay: {}", describe(&summaries)));
    report.note(format!(
        "freshness_p50_ms={:.4} freshness_p99_ms={:.4} (p{} of {} deltas, all replays); best-of-replays p50 {:.4}",
        pooled.p50,
        pooled.tail,
        pooled.tail_p,
        pooled.n,
        best.percentile(50.0)
    ));
    report.set("setup_s", median(&setups));
    report.set("latency_p50_ms", best.percentile(50.0));
    report.set("latency_p99_ms", pooled.tail);
    report.set("peak_elems_per_s", best_rate(&closed_segments));

    if ctx.trace {
        setup_probe(&input, ctx.seed, &mut report)?;
        let (engine_ms, serial_ms, inserted, queries) = decompose(&input, slides, &mut report)?;
        core_query_metrics(&queries, &mut report);
        let engine_total: f64 = engine_ms.iter().sum();
        let core_ms = engine_total / engine_ms.len() as f64;
        report.set(
            "core.ingest_us_per_elem",
            ratio(engine_total * 1e3, inserted as f64),
        );
        report.set("core.ingest_p99_ms", percentile(&engine_ms, 99.0));
        report.set("core.serial_ingest_ms_per_slide", core_ms);
        report.set("continuous.serial_ms_per_slide", serial_ms);
        report.set("continuous.refresh_self_ms_per_slide", serial_ms - core_ms);
        let (paths, residual) = blocking_paths(tracer.spans(), &["slide", "closed_loop"]);
        report.set("trace.residual_frac", residual);
        report.set(
            "trace.overhead_frac",
            closed[0] / median(&closed[1..]) - 1.0,
        );
        paths.into_iter().for_each(|line| report.note(line));
        report.note(format!(
            "single-threaded baseline per slide: {serial_ms:.4} ms = core.ingest_bucket {core_ms:.4} + refresh self {:.4}",
            serial_ms - core_ms
        ));
        report.tracer_json = Some(tracer.to_json_lines());
    }
    Ok(report)
}
