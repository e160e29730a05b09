//! Micro-benchmarks of the representativeness scoring primitives: singleton
//! scores, set scores and incremental marginal gains over a realistic active
//! window.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ksir_bench::{build_engine, ProcessingConfig};
use ksir_core::{KsirQuery, QueryEvaluator};
use ksir_datagen::{DatasetProfile, QueryWorkloadGenerator, StreamGenerator};
use ksir_types::{DenseTopicWordTable, ElementId};

struct Setup {
    engine: ksir_core::KsirEngine<DenseTopicWordTable>,
    query: KsirQuery,
    ids: Vec<ElementId>,
}

fn setup(profile: DatasetProfile) -> Setup {
    let profile = profile.scaled(0.25).with_topics(50);
    let stream = StreamGenerator::new(profile, 99)
        .unwrap()
        .generate()
        .unwrap();
    let config = ProcessingConfig::for_stream(&stream);
    let mut engine = build_engine(&stream, &config).unwrap();
    engine.ingest_stream(stream.iter_pairs()).unwrap();
    let workload = QueryWorkloadGenerator::new(&stream.planted, 7)
        .generate(1, stream.end_time())
        .unwrap();
    let query = KsirQuery::new(10, workload[0].vector.clone()).unwrap();
    let ids = engine.active_ids();
    Setup { engine, query, ids }
}

fn bench_scoring(c: &mut Criterion) {
    let mut group = c.benchmark_group("scoring");
    group.sample_size(30);
    for profile in [DatasetProfile::twitter(), DatasetProfile::aminer()] {
        let name = profile.name.clone();
        let s = setup(profile);
        let scorer = s.engine.scorer();
        let vector = s.query.vector().clone();
        let tv_map = s.engine.topic_vectors();
        let sample: Vec<ElementId> = s.ids.iter().copied().take(10).collect();

        group.bench_function(BenchmarkId::new("singleton_delta", &name), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % s.ids.len();
                black_box(scorer.delta(&vector, s.ids[i]))
            })
        });

        group.bench_function(BenchmarkId::new("set_score_10", &name), |b| {
            b.iter(|| black_box(scorer.set_score(&vector, &sample)))
        });

        group.bench_function(
            BenchmarkId::new("incremental_marginal_gain_10", &name),
            |b| {
                b.iter(|| {
                    let evaluator = QueryEvaluator::new(scorer, s.engine.window(), tv_map, &vector);
                    let mut state = evaluator.new_candidate();
                    let mut total = 0.0;
                    for &id in &sample {
                        total += evaluator.marginal_gain(&state, id);
                        evaluator.insert(&mut state, id);
                    }
                    black_box(total)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_scoring);
criterion_main!(benches);
