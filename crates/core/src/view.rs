//! Index views: the read seam between the query algorithms and whatever
//! holds the ranked lists.
//!
//! The index-based algorithms (MTTS, MTTD, Top-k Representative) consume the
//! per-topic ranked lists exclusively through ordered cursors.  [`RankedView`]
//! abstracts that access so the same algorithm code runs against
//!
//! * the **live** [`RankedLists`] inside a [`KsirEngine`](crate::KsirEngine)
//!   (the ad-hoc query path), and
//! * an **immutable snapshot** of those lists captured at an epoch boundary
//!   (`ksir-snapshot`'s `EngineSnapshot` / `ShardSnapshot`), which is what
//!   lets standing-query refreshes evaluate *behind* the writer while the
//!   next epoch's index update proceeds.
//!
//! [`run_query`] is the algorithm dispatcher over an arbitrary view plus the
//! window-side state a query additionally needs;
//! [`KsirEngine::query`](crate::KsirEngine::query) delegates to it with the
//! live view.  [`QuerySource`] packages the whole
//! thing as an object-safe "something you can run a k-SIR query against",
//! implemented by both the engine and the snapshot types, so consumers like
//! `ksir-continuous` can refresh a subscription without caring which side of
//! the epoch boundary they are reading.

use ksir_stream::{ActiveWindow, RankedListCursor, RankedLists, WindowDelta, FLOOR_SLACK};
use ksir_types::{ElementId, KsirError, Result, TopicId, TopicWordDistribution};

use crate::algorithms;
use crate::config::ScoringConfig;
use crate::engine::TopicVectors;
use crate::evaluator::{QueryEvaluator, SingletonCache};
use crate::query::{Algorithm, KsirQuery, QueryResult};
use crate::scorer::Scorer;

/// One element's stored tuple score in one topic's ranked list, as a view
/// reports it for point lookups (see [`RankedView::stored_score`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StoredScore {
    /// The view cannot answer point lookups cheaply; the caller must fall
    /// back to a scoring pass.
    Unsupported,
    /// The element has no tuple in this topic's list — its per-topic score is
    /// exactly `0.0` (the engine only materialises tuples for topics in the
    /// element's topic-vector support, and the scorer zeroes both score
    /// components outside it).
    Absent,
    /// The stored tuple score.
    Score(f64),
}

/// Ordered read access to per-topic ranked lists — implemented by the live
/// [`RankedLists`] and by epoch snapshots (`ksir-snapshot`).
///
/// # Example
///
/// ```
/// use ksir_core::RankedView;
/// use ksir_stream::RankedLists;
/// use ksir_types::{ElementId, Timestamp, TopicId};
///
/// let mut lists = RankedLists::new(1);
/// lists.upsert(TopicId(0), ElementId(1), 0.9, Timestamp(0));
/// lists.upsert(TopicId(0), ElementId(2), 0.4, Timestamp(0));
///
/// // Full traversal starts at the head ...
/// let mut cursor = RankedView::cursor(&lists, TopicId(0));
/// assert_eq!(cursor.current().map(|(id, _, _)| id), Some(ElementId(1)));
///
/// // ... while a suffix cursor skips everything scoring above the bound —
/// // the shape of a `Touch`-restricted read after a slide.
/// let mut suffix = lists.suffix_cursor(TopicId(0), 0.5);
/// assert_eq!(suffix.current().map(|(id, _, _)| id), Some(ElementId(2)));
/// ```
pub trait RankedView {
    /// Number of topics the view covers.
    fn num_topics(&self) -> usize;

    /// An ordered traversal cursor over one topic's list.  Callers only ask
    /// for topics with `topic.index() < num_topics()`.
    fn cursor(&self, topic: TopicId) -> RankedListCursor<'_>;

    /// An ordered cursor over the *suffix* of one topic's list: every tuple
    /// with score `≤ high + FLOOR_SLACK`, highest first.  With `high` taken
    /// from a slide's [`Touch`](ksir_stream::Touch) entry this is exactly
    /// the part of the list the slide may have rewritten — every tuple the
    /// maintenance pass upserted or removed lies at or below the touch score.
    ///
    /// The default implementation advances a full cursor past the prefix;
    /// views with ordered storage override it with a positioned seek.
    fn suffix_cursor(&self, topic: TopicId, high: f64) -> RankedListCursor<'_> {
        let mut cursor = self.cursor(topic);
        while let Some((_, score, _)) = cursor.current() {
            if score <= high + FLOOR_SLACK {
                break;
            }
            cursor.advance();
        }
        cursor
    }

    /// Point lookup of one element's tuple score in one topic's list, for
    /// views that can answer it without a traversal.  Returning
    /// [`StoredScore::Unsupported`] (the default) makes callers fall back to
    /// a scoring pass, so overriding is purely an optimisation.
    fn stored_score(&self, topic: TopicId, id: ElementId) -> StoredScore {
        let _ = (topic, id);
        StoredScore::Unsupported
    }
}

impl RankedView for RankedLists {
    fn num_topics(&self) -> usize {
        RankedLists::num_topics(self)
    }

    fn cursor(&self, topic: TopicId) -> RankedListCursor<'_> {
        self.list(topic).cursor()
    }

    fn suffix_cursor(&self, topic: TopicId, high: f64) -> RankedListCursor<'_> {
        self.list(topic).suffix_cursor(high)
    }

    fn stored_score(&self, topic: TopicId, id: ElementId) -> StoredScore {
        match self.list(topic).get(id) {
            Some((score, _)) => StoredScore::Score(score),
            None => StoredScore::Absent,
        }
    }
}

/// The output of a cluster's **covering run** — one evaluation of a covering
/// query (see [`KsirQuery::covering`]) made rich enough for a specialization
/// pass to derive per-member results from.
///
/// Beyond the covering query's own [`QueryResult`] (which *is* the exact
/// result of every member sharing the covering `k`), it carries the scored
/// candidate set the run left in its [`SingletonCache`]: every singleton
/// score the traversal evaluated or replayed, at exactly the value a fresh
/// evaluation would produce.  A member with a tighter `k` re-runs its own
/// admission logic with lookups answered from that set, so specialization
/// never re-scores a singleton the covering run already scored.
#[derive(Debug, Clone, PartialEq)]
pub struct CoveringOutcome {
    /// The covering query's result — bit-identical to what any member with
    /// `k` equal to the covering `k` would compute on its own.
    pub result: QueryResult,
    /// Scored candidate set `(element, δ(e, x))`, sorted by element id.
    pub scored: Vec<(ElementId, f64)>,
    /// The covering run's admission bar (see
    /// [`crate::QueryFrontier::bar`]), when its algorithm reports one.
    pub bar: Option<f64>,
}

/// Anything a k-SIR query can be processed against: the live engine or an
/// immutable epoch snapshot.  Object-safe, so pipelined consumers can hold
/// `Arc<dyn QuerySource>` without dragging the topic-model type through
/// their own signatures.
///
/// # Example
///
/// ```
/// use ksir_core::{fixtures::paper_example, Algorithm, KsirQuery, QuerySource};
/// use ksir_types::QueryVector;
///
/// // The engine itself is a `QuerySource`; epoch snapshots are too, so a
/// // refresh loop can hold either behind the same object-safe seam.
/// let engine = paper_example().build_engine();
/// let source: &dyn QuerySource = &engine;
/// let query = KsirQuery::new(2, QueryVector::uniform(source.num_topics()).unwrap()).unwrap();
/// let result = source.query(&query, Algorithm::Mtts).unwrap();
/// assert!(result.len() <= 2);
/// ```
pub trait QuerySource {
    /// Number of topics of the underlying topic model.
    fn num_topics(&self) -> usize;

    /// Processes a k-SIR query with the chosen algorithm.
    fn query(&self, query: &KsirQuery, algorithm: Algorithm) -> Result<QueryResult>;

    /// Delta-restricted refresh of a standing query: brings `cache` up to
    /// date against the slide (see [`prime_singleton_cache`]) and re-runs the
    /// query with singleton scores answered from the memo wherever possible.
    ///
    /// Decisions and scores are identical to [`QuerySource::query`] — only
    /// the number of scoring passes (`gain_evaluations`) differs.  The
    /// default implementation ignores the memo and runs the query from
    /// scratch, so sources that cannot serve tuple lookups stay correct.
    fn query_delta(
        &self,
        query: &KsirQuery,
        algorithm: Algorithm,
        delta: &WindowDelta,
        cache: &mut SingletonCache,
    ) -> Result<QueryResult> {
        let _ = (delta, cache);
        self.query(query, algorithm)
    }

    /// Runs a cluster's covering query and returns an output rich enough to
    /// specialize per-member results from: the covering [`QueryResult`], the
    /// scored candidate set the run left in `cache`, and the run's admission
    /// bar.  See [`CoveringOutcome`].
    ///
    /// Callers evaluating several plan-compatible variants against the same
    /// `cache` should wrap the calls in a
    /// [`SingletonCache::begin_scope`]/[`SingletonCache::end_scope`] pair so
    /// memo retention keeps the union of what every variant consulted.
    fn query_covering(
        &self,
        covering: &KsirQuery,
        algorithm: Algorithm,
        delta: &WindowDelta,
        cache: &mut SingletonCache,
    ) -> Result<CoveringOutcome> {
        let result = self.query_delta(covering, algorithm, delta, cache)?;
        let mut scored: Vec<(ElementId, f64)> = cache.entries().collect();
        scored.sort_unstable_by_key(|&(id, _)| id);
        let bar = result.frontier.as_ref().and_then(|f| f.bar);
        Ok(CoveringOutcome {
            result,
            scored,
            bar,
        })
    }
}

/// Brings a [`SingletonCache`] up to date after one window slide, using only
/// the slide's [`WindowDelta`] and the touched ranked-list state.
///
/// * Expired elements are dropped from the memo.
/// * Changed elements (activated, resurrected, or with refreshed tuples) get
///   their singleton score rebuilt from the stored tuples: the maintenance
///   pass recomputed *every* support-topic tuple of a changed element, so
///   `δ(e, x) = Σ_i x_i · tuple_i(e)` summed in query-support order is
///   bit-identical to a fresh scoring pass.  Every such tuple lies inside
///   the slide's touched suffixes (tuples are logged at `max(old, new)`
///   score), which is what makes this the semi-naive step: only changed
///   data is re-evaluated.
/// * Every other memoised score is still valid — an unchanged element kept
///   its tuples, its words, and its influence set, so its singleton score is
///   untouched by the slide.
///
/// When the view cannot serve point lookups ([`StoredScore::Unsupported`]),
/// the changed element is simply dropped from the memo and the next run
/// re-scores it on demand.
pub fn prime_singleton_cache<V: RankedView + ?Sized>(
    view: &V,
    query: &KsirQuery,
    delta: &WindowDelta,
    cache: &mut SingletonCache,
) {
    for &id in &delta.expired {
        cache.invalidate(id);
    }
    let support = query.vector().support();
    let changed = delta
        .activated
        .iter()
        .chain(&delta.resurrected)
        .chain(&delta.refreshed);
    for &id in changed {
        cache.invalidate(id);
        let mut total = 0.0;
        let mut resolved = true;
        for &(topic, weight) in &support {
            if topic.index() >= view.num_topics() {
                continue;
            }
            match view.stored_score(topic, id) {
                StoredScore::Unsupported => {
                    resolved = false;
                    break;
                }
                StoredScore::Absent => {}
                StoredScore::Score(score) => total += weight * score,
            }
        }
        if resolved {
            cache.prime(id, total);
        }
    }
}

/// Processes one k-SIR query against an arbitrary index view plus the
/// window-side state the evaluator needs.  This is the algorithm dispatcher
/// behind both [`KsirEngine::query`] and the snapshot-backed refresh path.
///
/// [`KsirEngine::query`]: crate::KsirEngine::query
pub fn run_query<V, D>(
    view: &V,
    window: &ActiveWindow,
    topic_vectors: &TopicVectors,
    phi: &D,
    scoring: ScoringConfig,
    query: &KsirQuery,
    algorithm: Algorithm,
) -> Result<QueryResult>
where
    V: RankedView + ?Sized,
    D: TopicWordDistribution,
{
    run_query_cached(
        view,
        window,
        topic_vectors,
        phi,
        scoring,
        query,
        algorithm,
        None,
    )
}

/// [`run_query`] with an optional singleton-score memo.
///
/// The index-based algorithms (MTTS, MTTD, Top-k Representative) answer
/// singleton-score lookups from `cache` when it is given, populating it on
/// misses; the exhaustive baselines (CELF, SieveStreaming) ignore it, as
/// their per-set marginal gains cannot be memoised across refreshes.  A
/// cached run returns the same elements, score and frontier as an uncached
/// one — only `gain_evaluations` differs.
///
/// After the run, the memo is pruned to exactly the entries the run
/// consulted (see the [`SingletonCache`] *Retention* notes): every consulted
/// element was retrieved at or above the run's final traversal floors, so a
/// slide that later changes it must disturb those floors and trigger a
/// refresh — skipped slides provably cannot stale the surviving memo.
#[allow(clippy::too_many_arguments)]
pub fn run_query_cached<V, D>(
    view: &V,
    window: &ActiveWindow,
    topic_vectors: &TopicVectors,
    phi: &D,
    scoring: ScoringConfig,
    query: &KsirQuery,
    algorithm: Algorithm,
    cache: Option<&mut SingletonCache>,
) -> Result<QueryResult>
where
    V: RankedView + ?Sized,
    D: TopicWordDistribution,
{
    if query.vector().num_topics() != phi.num_topics() {
        return Err(KsirError::DimensionMismatch {
            expected: phi.num_topics(),
            actual: query.vector().num_topics(),
        });
    }
    let scorer = Scorer::new(phi, scoring, window, topic_vectors);
    let evaluator = QueryEvaluator::new(scorer, window, topic_vectors, query.vector());
    let mut cache = cache;
    if let Some(memo) = cache.as_deref_mut() {
        memo.begin_run();
    }
    let result = match algorithm {
        Algorithm::Mtts => algorithms::mtts::run(view, &evaluator, query, cache.as_deref_mut()),
        Algorithm::Mttd => algorithms::mttd::run(view, &evaluator, query, cache.as_deref_mut()),
        Algorithm::Celf => algorithms::celf::run(window, &evaluator, query),
        Algorithm::SieveStreaming => algorithms::sieve::run(window, &evaluator, query),
        Algorithm::TopkRepresentative => {
            algorithms::topk::run(view, &evaluator, query, cache.as_deref_mut())
        }
    };
    if let Some(memo) = cache {
        memo.end_run();
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_example;
    use ksir_types::QueryVector;

    /// The generic dispatcher over the live view must agree with the
    /// engine's own query path for every algorithm.
    #[test]
    fn run_query_over_live_view_matches_engine_query() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let query = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5]).unwrap()).unwrap();
        for algorithm in Algorithm::ALL {
            let via_engine = engine.query(&query, algorithm).unwrap();
            let via_view = run_query(
                engine.ranked_lists(),
                engine.window(),
                engine.topic_vectors(),
                engine.phi(),
                engine.config().scoring,
                &query,
                algorithm,
            )
            .unwrap();
            assert_eq!(via_engine, via_view, "{algorithm} diverged");
        }
    }

    #[test]
    fn run_query_rejects_dimension_mismatch() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let query = KsirQuery::new(2, QueryVector::new(vec![1.0, 1.0, 1.0]).unwrap()).unwrap();
        assert!(matches!(
            run_query(
                engine.ranked_lists(),
                engine.window(),
                engine.topic_vectors(),
                engine.phi(),
                engine.config().scoring,
                &query,
                Algorithm::Mtts,
            ),
            Err(KsirError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn engine_implements_query_source() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let source: &dyn QuerySource = &engine;
        assert_eq!(source.num_topics(), 2);
        let query = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5]).unwrap()).unwrap();
        let via_source = source.query(&query, Algorithm::Mttd).unwrap();
        let direct = engine.query(&query, Algorithm::Mttd).unwrap();
        assert_eq!(via_source, direct);
    }
}
