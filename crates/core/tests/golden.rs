//! Golden results: every algorithm's answers on a small seeded stream, pinned
//! to the bit.
//!
//! The stream has expiry, resurrection from the archive, multi-element
//! buckets and references into and out of the window.  At fixed checkpoints a
//! fixed set of queries runs through MTTS, MTTD, CELF, SieveStreaming and
//! Top-k Representative, and each result's element list, `score.to_bits()`,
//! evaluated-element count and gain-evaluation count must equal the table
//! below.  A digest of every slide's ranked-list touch log pins the
//! maintenance pass (Algorithm 1) the same way.
//!
//! A change to arithmetic order or to a decision on the query and
//! maintenance paths shows up here as a different bit pattern or count, so
//! performance work on those paths must leave the table as it is.  To
//! re-record after a deliberate change of results, run the test with
//! `KSIR_GOLDEN_PRINT=1 -- --nocapture` and paste the printed values.

use ksir_core::{Algorithm, EngineConfig, IngestReport, KsirEngine, KsirQuery, ScoringConfig};
use ksir_stream::WindowConfig;
use ksir_types::{
    DenseTopicWordTable, QueryVector, SocialElement, SocialElementBuilder, Timestamp, TopicVector,
};

const NUM_TOPICS: usize = 5;
const VOCAB: u32 = 40;
const ELEMENTS: u64 = 160;
const BUCKET: u64 = 2;
const WINDOW: u64 = 14;
/// Query after every this many buckets.
const CHECK_EVERY: u64 = 10;

/// SplitMix64: a self-contained generator, so the golden stream does not
/// depend on any RNG crate's bit stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn phi(rng: &mut SplitMix) -> DenseTopicWordTable {
    let rows = (0..NUM_TOPICS)
        .map(|_| {
            let mut row: Vec<f64> = (0..VOCAB).map(|_| rng.unit() + 0.01).collect();
            let sum: f64 = row.iter().sum();
            row.iter_mut().for_each(|v| *v /= sum);
            row
        })
        .collect();
    DenseTopicWordTable::from_rows(rows).unwrap()
}

/// Elements with ids spread over the high bits too, so hashing of large ids
/// is exercised; timestamps advance 0–1 ticks per element.
fn stream(rng: &mut SplitMix) -> Vec<(SocialElement, TopicVector)> {
    let mut out: Vec<(SocialElement, TopicVector)> = Vec::new();
    let mut ts = 1u64;
    for i in 0..ELEMENTS {
        ts += rng.below(2);
        let id = (i + 1) | ((i % 4) << 40);
        let mut builder = SocialElementBuilder::new(id).at(ts);
        for _ in 0..1 + rng.below(6) {
            builder = builder.word(rng.below(u64::from(VOCAB)) as u32);
        }
        // Mostly recent parents (live references), sometimes old ones (which
        // resurrect expired elements from the archive).
        if !out.is_empty() && rng.below(10) < 6 {
            for _ in 0..1 + rng.below(2) {
                let back = if rng.below(5) == 0 {
                    rng.below(out.len() as u64)
                } else {
                    rng.below(out.len().min(12) as u64)
                };
                let parent = out[out.len() - 1 - back as usize].0.id;
                builder = builder.referencing(parent.raw());
            }
        }
        let mut values: Vec<f64> = (0..NUM_TOPICS)
            .map(|_| if rng.below(3) == 0 { 0.0 } else { rng.unit() })
            .collect();
        values[rng.below(NUM_TOPICS as u64) as usize] += 0.5;
        let sum: f64 = values.iter().sum();
        values.iter_mut().for_each(|v| *v /= sum);
        out.push((builder.build(), TopicVector::from_values(values).unwrap()));
    }
    out
}

fn queries() -> Vec<KsirQuery> {
    let q = |k: usize, w: Vec<f64>| KsirQuery::new(k, QueryVector::new(w).unwrap()).unwrap();
    vec![
        q(3, vec![1.0, 0.0, 0.0, 0.0, 0.0]),
        q(5, vec![0.5, 0.0, 0.3, 0.0, 0.2]),
        q(4, vec![0.2, 0.2, 0.2, 0.2, 0.2]),
        q(2, vec![0.0, 0.7, 0.0, 0.3, 0.0]),
    ]
}

/// One pinned result: (checkpoint bucket end, query index, algorithm,
/// elements, score bits, evaluated elements, gain evaluations).
type Row = (u64, usize, &'static str, &'static [u64], u64, usize, usize);

/// Feeds the seeded stream to a fresh engine bucket by bucket, calling
/// `after` with the engine, the bucket's report, the bucket count and the
/// bucket end after each ingest.
fn replay(mut after: impl FnMut(&KsirEngine<DenseTopicWordTable>, &IngestReport, u64, u64)) {
    let mut rng = SplitMix(0x6b73_6972_2019);
    let phi = phi(&mut rng);
    let stream = stream(&mut rng);
    let config = EngineConfig::new(
        WindowConfig::new(WINDOW, BUCKET).unwrap(),
        ScoringConfig::new(0.5, 2.0).unwrap(),
    );
    let mut engine = KsirEngine::new(phi, config).unwrap();
    let mut next = 0usize;
    let mut buckets = 0u64;
    while next < stream.len() {
        let bucket_end = (buckets + 1) * BUCKET;
        let mut bucket = Vec::new();
        while next < stream.len() && stream[next].0.ts <= Timestamp(bucket_end) {
            bucket.push(stream[next].clone());
            next += 1;
        }
        let report = engine.ingest_bucket(bucket, Timestamp(bucket_end)).unwrap();
        buckets += 1;
        after(&engine, &report, buckets, bucket_end);
    }
}

/// A [`Row`] as computed, with an owned element list.
type Computed = (u64, usize, &'static str, Vec<u64>, u64, usize, usize);

/// Every checkpoint result, in table order.
fn run() -> Vec<Computed> {
    let queries = queries();
    let mut rows = Vec::new();
    replay(|engine, _, buckets, bucket_end| {
        if buckets % CHECK_EVERY != 0 {
            return;
        }
        for (qi, query) in queries.iter().enumerate() {
            for algorithm in Algorithm::ALL {
                let r = engine.query(query, algorithm).unwrap();
                rows.push((
                    bucket_end,
                    qi,
                    algorithm.name(),
                    r.elements.iter().map(|e| e.raw()).collect(),
                    r.score.to_bits(),
                    r.evaluated_elements,
                    r.gain_evaluations,
                ));
            }
        }
    });
    rows
}

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    (20, 0, "CELF", &[2199023255555, 1099511627814, 33], 0x3fdfecd9939dae0c, 37, 43),
    (20, 0, "MTTD", &[2199023255555, 1099511627814, 33], 0x3fdfecd9939dae0c, 8, 15),
    (20, 0, "MTTS", &[2199023255555, 1099511627814, 33], 0x3fdfecd9939dae0c, 7, 76),
    (20, 0, "Top-k Representative", &[2199023255555, 1099511627814, 3298534883364], 0x3fdcdb22c9ac6ac2, 3, 3),
    (20, 0, "SieveStreaming", &[5, 2199023255555, 2199023255567], 0x3fdb105c38a08071, 37, 161),
    (20, 1, "CELF", &[1099511627814, 2199023255555, 21, 17, 3298534883336], 0x3fe05bf2e269e76e, 37, 48),
    (20, 1, "MTTD", &[1099511627814, 2199023255555, 21, 17, 3298534883336], 0x3fe05bf2e269e76e, 23, 37),
    (20, 1, "MTTS", &[2199023255555, 17, 1099511627814, 21, 3298534883336], 0x3fe05bf2e269e76f, 23, 154),
    (20, 1, "Top-k Representative", &[1099511627814, 5, 2199023255555, 2199023255567, 21], 0x3fde3f659d0d998b, 19, 19),
    (20, 1, "SieveStreaming", &[5, 17, 21, 1099511627814, 2199023255555], 0x3fdf2eaf7aa74b51, 37, 286),
    (20, 2, "CELF", &[3298534883340, 21, 17, 2199023255555], 0x3fd394129a18494e, 37, 44),
    (20, 2, "MTTD", &[3298534883340, 17, 21, 2199023255555], 0x3fd394129a18494e, 30, 38),
    (20, 2, "MTTS", &[3298534883340, 17, 21, 2199023255555], 0x3fd394129a18494e, 29, 113),
    (20, 2, "Top-k Representative", &[3298534883340, 21, 17, 1099511627814], 0x3fd2b16a57ca3b87, 29, 29),
    (20, 2, "SieveStreaming", &[17, 21, 3298534883340, 3298534883344], 0x3fd31cd8e8b1a0bc, 37, 229),
    (20, 3, "CELF", &[3298534883340, 2199023255579], 0x3fd8762d1d034c06, 37, 38),
    (20, 3, "MTTD", &[3298534883340, 2199023255579], 0x3fd8762d1d034c06, 6, 8),
    (20, 3, "MTTS", &[3298534883340, 2199023255579], 0x3fd8762d1d034c06, 2, 24),
    (20, 3, "Top-k Representative", &[3298534883340, 2199023255579], 0x3fd8762d1d034c06, 6, 6),
    (20, 3, "SieveStreaming", &[2199023255579, 3298534883340], 0x3fd8762d1d034c06, 37, 140),
    (40, 0, "CELF", &[2199023255607, 1099511627854, 53], 0x3fdee9fa3032de6c, 36, 39),
    (40, 0, "MTTD", &[2199023255607, 1099511627854, 53], 0x3fdee9fa3032de6c, 7, 12),
    (40, 0, "MTTS", &[2199023255607, 1099511627854, 53], 0x3fdee9fa3032de6c, 4, 58),
    (40, 0, "Top-k Representative", &[2199023255607, 1099511627854, 1099511627838], 0x3fdbd97cd3ad9bd1, 3, 3),
    (40, 0, "SieveStreaming", &[1099511627854, 2199023255607, 2199023255635], 0x3fded44e6ed0146f, 36, 129),
    (40, 1, "CELF", &[1099511627838, 2199023255607, 2199023255635, 5, 61], 0x3fdf55d223f04cb1, 36, 42),
    (40, 1, "MTTD", &[1099511627838, 2199023255607, 2199023255635, 5, 61], 0x3fdf55d223f04cb1, 22, 29),
    (40, 1, "MTTS", &[2199023255607, 1099511627854, 1099511627838, 2199023255635, 5], 0x3fdd59c0aacbec2e, 20, 138),
    (40, 1, "Top-k Representative", &[1099511627838, 2199023255607, 61, 2199023255635, 5], 0x3fdf55d223f04cb1, 19, 19),
    (40, 1, "SieveStreaming", &[5, 61, 1099511627838, 2199023255607, 2199023255611], 0x3fdabc85ad46b58f, 36, 283),
    (40, 2, "CELF", &[2199023255603, 1099511627858, 3298534883392, 2199023255631], 0x3fd36acd159a2032, 36, 41),
    (40, 2, "MTTD", &[2199023255603, 1099511627858, 3298534883392, 1099511627838], 0x3fd34eac5c54c748, 32, 38),
    (40, 2, "MTTS", &[3298534883392, 1099511627858, 2199023255603, 2199023255631], 0x3fd36acd159a2032, 29, 116),
    (40, 2, "Top-k Representative", &[2199023255603, 1099511627858, 3298534883392, 2199023255611], 0x3fd351ae05d561a2, 29, 29),
    (40, 2, "SieveStreaming", &[1099511627858, 2199023255603, 2199023255607, 2199023255611], 0x3fd261451cdb16f0, 36, 225),
    (40, 3, "CELF", &[3298534883392, 2199023255611], 0x3fd9dcda00484976, 36, 37),
    (40, 3, "MTTD", &[3298534883392, 2199023255611], 0x3fd9dcda00484976, 4, 7),
    (40, 3, "MTTS", &[3298534883392, 2199023255611], 0x3fd9dcda00484976, 3, 28),
    (40, 3, "Top-k Representative", &[3298534883392, 2199023255611], 0x3fd9dcda00484976, 3, 3),
    (40, 3, "SieveStreaming", &[2199023255611, 3298534883392], 0x3fd9dcda00484976, 36, 174),
    (60, 0, "CELF", &[2199023255663, 101, 113], 0x3fe3d29e2b86a230, 44, 49),
    (60, 0, "MTTD", &[2199023255663, 101, 113], 0x3fe3d29e2b86a230, 5, 12),
    (60, 0, "MTTS", &[2199023255663, 101, 113], 0x3fe3d29e2b86a230, 5, 64),
    (60, 0, "Top-k Representative", &[2199023255663, 101, 3298534883420], 0x3fe307f88e5013e4, 3, 3),
    (60, 0, "SieveStreaming", &[101, 113, 2199023255663], 0x3fe3d29e2b86a230, 44, 171),
    (60, 1, "CELF", &[2199023255663, 3298534883444, 101, 3298534883440, 1099511627870], 0x3fe23e3080bb508f, 44, 54),
    (60, 1, "MTTD", &[2199023255663, 3298534883444, 101, 3298534883440, 1099511627870], 0x3fe23e3080bb508f, 27, 39),
    (60, 1, "MTTS", &[2199023255663, 101, 3298534883440, 113, 3298534883444], 0x3fe2326bf37b36c9, 26, 149),
    (60, 1, "Top-k Representative", &[2199023255663, 3298534883440, 101, 1099511627870, 3298534883444], 0x3fe23e3080bb5090, 22, 22),
    (60, 1, "SieveStreaming", &[101, 1099511627870, 2199023255663, 3298534883440, 3298534883444], 0x3fe23e3080bb5090, 44, 354),
    (60, 2, "CELF", &[2199023255671, 1099511627870, 2199023255631, 3298534883452], 0x3fd30c22caf7d1b3, 44, 51),
    (60, 2, "MTTD", &[2199023255671, 1099511627870, 2199023255631, 3298534883452], 0x3fd30c22caf7d1b3, 34, 42),
    (60, 2, "MTTS", &[2199023255671, 2199023255663, 2199023255631, 3298534883452], 0x3fd2ef3ebeb1a715, 34, 122),
    (60, 2, "Top-k Representative", &[2199023255671, 3298534883452, 1099511627870, 2199023255655], 0x3fd207a7c3da3724, 34, 34),
    (60, 2, "SieveStreaming", &[1099511627870, 2199023255631, 2199023255671, 3298534883420], 0x3fd2eabe841065fa, 44, 246),
    (60, 3, "CELF", &[133, 2199023255667], 0x3fcf835c449c81a4, 44, 45),
    (60, 3, "MTTD", &[133, 2199023255667], 0x3fcf835c449c81a4, 7, 9),
    (60, 3, "MTTS", &[133, 2199023255667], 0x3fcf835c449c81a4, 2, 30),
    (60, 3, "Top-k Representative", &[133, 2199023255667], 0x3fcf835c449c81a4, 6, 6),
    (60, 3, "SieveStreaming", &[133, 2199023255667], 0x3fcf835c449c81a4, 44, 167),
];

#[test]
fn results_match_the_golden_table() {
    let rows = run();
    if std::env::var_os("KSIR_GOLDEN_PRINT").is_some() {
        for (t, q, a, e, s, ev, g) in &rows {
            println!("    ({t}, {q}, {a:?}, &{e:?}, {s:#018x}, {ev}, {g}),");
        }
    }
    assert_eq!(rows.len(), GOLDEN.len(), "number of pinned results");
    for (got, want) in rows.iter().zip(GOLDEN) {
        let (t, q, a, e, s, ev, g) = got;
        let (wt, wq, wa, we, ws, wev, wg) = *want;
        let label = format!("t={t} query={q} {a}");
        assert_eq!((*t, *q, *a), (wt, wq, wa), "row order");
        assert_eq!(e.as_slice(), we, "{label}: elements");
        assert_eq!(
            *s,
            ws,
            "{label}: score {} vs pinned {}",
            f64::from_bits(*s),
            f64::from_bits(ws)
        );
        assert_eq!(*ev, wev, "{label}: evaluated elements");
        assert_eq!(*g, wg, "{label}: gain evaluations");
    }
}

/// FNV-1a digest of every slide's [`ksir_stream::WindowDelta`]: the
/// element churn lists and each ranked-list touch (topic, count, high score
/// bits) in recorded order.  Pins the maintenance pass's touch log exactly.
const TOUCH_LOG_DIGEST: u64 = 0x9abc_8f2e_ee0e_83ab;

#[test]
fn touch_logs_match_the_golden_digest() {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            digest ^= u64::from(byte);
            digest = digest.wrapping_mul(0x0100_0000_01b3);
        }
    };
    replay(|_, report, _, _| {
        let d = &report.delta;
        for ids in [&d.activated, &d.expired, &d.resurrected, &d.refreshed] {
            mix(ids.len() as u64);
            ids.iter().for_each(|id| mix(id.raw()));
        }
        mix(d.touches().len() as u64);
        for touch in d.touches() {
            mix(u64::from(touch.topic.raw()));
            mix(touch.count as u64);
            mix(touch.high.to_bits());
        }
    });
    if std::env::var_os("KSIR_GOLDEN_PRINT").is_some() {
        println!("TOUCH_LOG_DIGEST = {digest:#018x}");
    }
    assert_eq!(digest, TOUCH_LOG_DIGEST, "touch log digest {digest:#018x}");
}

/// The stream really exercises expiry and resurrection, so the table pins
/// the maintenance paths those take and not only a growing window.
#[test]
fn stream_covers_expiry_and_resurrection() {
    let (mut expired, mut resurrected) = (0, 0);
    replay(|_, report, _, _| {
        expired += report.expired;
        resurrected += report.resurrected;
    });
    assert!(expired > 20, "expired {expired}");
    assert!(resurrected > 3, "resurrected {resurrected}");
}
