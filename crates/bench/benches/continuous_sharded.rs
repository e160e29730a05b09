//! Sharded vs serial standing-query maintenance.
//!
//! Same shared [`MaintenanceScenario`] as `continuous.rs`, comparing three
//! `SubscriptionManager` configurations:
//!
//! * `serial_unsharded` — PR-1 behaviour: one shard, one thread (baseline),
//! * `sharded_serial` — topic-keyed shards scheduled by projected touch
//!   filters, refreshed one after another (isolates the scheduling saving
//!   from the parallelism),
//! * `sharded_parallel` — the default: scheduled shards fan out across a
//!   pool of long-lived workers sized to the host.
//!
//! Every configuration ingests through the same pipelined epoch (the
//! synchronous `ingest_bucket` waits on it with two barriers).  With one
//! refresh thread the ingesting thread drains the shard lanes itself; the
//! pool drains them otherwise.
//!
//! All three make identical per-subscription refresh decisions (asserted in
//! `crates/continuous/tests/sharding.rs`), so the timing gap is pure
//! scheduling/parallelism overhead or saving.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ksir_bench::MaintenanceScenario;
use ksir_continuous::ShardConfig;

fn bench_sharded_maintenance(c: &mut Criterion) {
    let scenario = MaintenanceScenario::standard();
    let mut group = c.benchmark_group("continuous_sharded");
    group.sample_size(10);

    let configs = [
        ("serial_unsharded", ShardConfig::unsharded()),
        ("sharded_serial", ShardConfig::serial()),
        ("sharded_parallel", ShardConfig::default()),
    ];
    for (name, config) in configs {
        group.bench_function(BenchmarkId::new(name, scenario.stream.len()), |b| {
            b.iter(|| scenario.run_managed(config).stats)
        });
    }
    group.finish();
}

/// One-shot per-shard report: how the subscriptions spread over shards and
/// what each shard's skip rate is.
fn report_shard_layout(c: &mut Criterion) {
    let scenario = MaintenanceScenario::standard();
    let run = scenario.run_managed(ShardConfig::default());
    println!(
        "continuous_sharded/layout: {} shards over {} subscriptions ({:.1}% skipped overall)",
        run.shard_stats.len(),
        scenario.queries.len(),
        100.0 * run.skip_ratio(),
    );
    for shard in &run.shard_stats {
        println!(
            "  {}: {} subs, scheduled {}/{} slides, {:.1}% evals skipped",
            shard.key,
            shard.subscriptions,
            shard.scheduled_slides,
            shard.scheduled_slides + shard.skipped_slides,
            100.0 * shard.skip_rate(),
        );
    }
    let _ = c;
}

criterion_group!(benches, bench_sharded_maintenance, report_shard_layout);
criterion_main!(benches);
