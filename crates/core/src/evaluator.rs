//! Incremental marginal-gain evaluation for k-SIR query processing.
//!
//! Every algorithm (MTTS, MTTD, CELF, SieveStreaming) repeatedly asks "what
//! would adding element `e` to candidate set `S` gain?".  Recomputing
//! `f(S ∪ {e}, x) − f(S, x)` from scratch costs `O(|S|·l·d)`; instead each
//! candidate keeps a [`CandidateState`] with
//!
//! * per query topic, the best word weight `max_{e∈S} σ_i(w, e)` for every
//!   word covered by `S`, and
//! * per query topic, the survival probability
//!   `Π_{e'∈S∩e.ref}(1 − p_i(e' ⤳ e))` for every window element influenced by
//!   some member of `S`,
//!
//! so that the marginal gain of `e` is computable in `O((|V_e| + |I_t(e)|)·d)`
//! — the complexity the paper's analysis assumes.
//!
//! A gain evaluation allocates nothing: it looks the element up in the window
//! and in the topic-vector map once each, walks `I_t(e)` through the window's
//! borrowing iterator, and reads the per-topic state from [`IdMap`]s (see
//! [`ksir_types::hash`] for why those are not `std`'s SipHash maps).

use std::cell::Cell;

use ksir_stream::ActiveWindow;
use ksir_types::{
    ElementId, IdMap, IdSet, QueryVector, TopicId, TopicVector, TopicWordDistribution, WordId,
};

use crate::engine::TopicVectors;
use crate::scorer::{propagation_prob, word_weight, Scorer};

/// Incremental state of one candidate result set.
#[derive(Debug, Clone)]
pub struct CandidateState {
    members: Vec<ElementId>,
    score: f64,
    /// Parallel to the query support: per-topic coverage state.
    topics: Vec<TopicState>,
}

#[derive(Debug, Clone)]
struct TopicState {
    /// Best word weight `max_{e∈S} σ_i(w, e)` per covered word.
    word_best: IdMap<WordId, f64>,
    /// Survival probability `Π (1 − p_i(e' ⤳ c))` per influenced element `c`.
    child_survival: IdMap<ElementId, f64>,
}

impl CandidateState {
    fn new(num_query_topics: usize) -> Self {
        CandidateState {
            members: Vec::new(),
            score: 0.0,
            topics: (0..num_query_topics)
                .map(|_| TopicState {
                    word_best: IdMap::default(),
                    child_survival: IdMap::default(),
                })
                .collect(),
        }
    }

    /// Elements currently in the candidate, in insertion order.
    pub fn members(&self) -> &[ElementId] {
        &self.members
    }

    /// Number of elements in the candidate.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the candidate is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Returns `true` if `id` is already a member.
    pub fn contains(&self, id: ElementId) -> bool {
        self.members.contains(&id)
    }

    /// The candidate's current score `f(S, x)`, maintained incrementally.
    pub fn score(&self) -> f64 {
        self.score
    }
}

/// Memoised singleton scores `δ(e, x)` of one standing query, carried across
/// refreshes.
///
/// A singleton score depends only on the element's own tuples (word weights
/// and influence children), so it is unchanged as long as the engine did not
/// recompute the element's ranked-list tuples — exactly the elements a
/// [`ksir_stream::WindowDelta`] names in its `activated` / `expired` /
/// `resurrected` / `refreshed` lists.  A delta-restricted refresh therefore
/// invalidates those ids, re-primes the changed ones from the ranked-list
/// tuples (see [`crate::prime_singleton_cache`]), and re-runs the query with
/// every other retrieval answered from the cache instead of a scoring pass.
///
/// The cache never changes *what* a query returns — a hit replays the exact
/// value a fresh evaluation produced — only how much scoring work the run
/// performs, which the [`SingletonCache::hits`] / [`SingletonCache::misses`]
/// counters expose.
///
/// # Retention
///
/// [`crate::run_query_cached`] prunes the memo after every run to exactly the
/// elements that run consulted.  Every consulted element was retrieved from a
/// ranked list at or above the run's final traversal floors, so a later slide
/// that changes it must touch that list at or above the floor — i.e. it
/// *cannot* be a skipped slide.  Entries below the floors enjoy no such
/// guarantee (a provably skippable slide may still rewrite their tuples),
/// which is why they must not survive the run.
#[derive(Debug, Clone, Default)]
pub struct SingletonCache {
    scores: IdMap<ElementId, f64>,
    /// Elements consulted (hit or remembered) by the current run; the memo is
    /// pruned to this set when the run ends.
    consulted: IdSet<ElementId>,
    /// Nesting depth of open run scopes.  A cluster's covering evaluation
    /// wraps several `run_query_cached` calls in one outer scope
    /// ([`SingletonCache::begin_scope`]); only the outermost scope clears the
    /// consulted set on entry and prunes the memo on exit, so retention keeps
    /// the *union* of everything the nested runs consulted.
    run_depth: usize,
    hits: usize,
    misses: usize,
    primed: usize,
}

impl SingletonCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoised elements.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Returns `true` if nothing is memoised.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The memoised singleton score of `id`, if still valid.
    pub fn get(&self, id: ElementId) -> Option<f64> {
        self.scores.get(&id).copied()
    }

    /// Memoises a freshly evaluated singleton score.
    pub fn remember(&mut self, id: ElementId, score: f64) {
        self.scores.insert(id, score);
    }

    /// Stores a score rebuilt from the ranked-list tuples (the semi-naive
    /// priming step); counted separately from evaluator misses.
    pub fn prime(&mut self, id: ElementId, score: f64) {
        self.scores.insert(id, score);
        self.primed += 1;
    }

    /// Drops one element's memoised score (no-op if absent).
    pub fn invalidate(&mut self, id: ElementId) {
        self.scores.remove(&id);
    }

    /// Drops every memoised score, retaining the allocation.
    pub fn clear(&mut self) {
        self.scores.clear();
        self.consulted.clear();
    }

    /// The memoised `(element, singleton score)` pairs, in unspecified order.
    ///
    /// After a covering run this is the scored candidate set the
    /// specialization pass draws from: every element any nested run scored or
    /// replayed, at the exact value a fresh evaluation would produce.
    pub fn entries(&self) -> impl Iterator<Item = (ElementId, f64)> + '_ {
        self.scores.iter().map(|(&id, &score)| (id, score))
    }

    /// Opens an outer run scope spanning several query runs against the same
    /// index state (a cluster's covering evaluation).  While the scope is
    /// open, the per-run retention of [`crate::run_query_cached`] is
    /// deferred: the memo is pruned once, at [`SingletonCache::end_scope`],
    /// to the union of everything the nested runs consulted.
    ///
    /// Scopes nest; only the outermost open/close pair clears and prunes.
    pub fn begin_scope(&mut self) {
        self.begin_run();
    }

    /// Closes the scope opened by [`SingletonCache::begin_scope`], pruning
    /// the memo to the union of entries consulted since then.
    pub fn end_scope(&mut self) {
        self.end_run();
    }

    /// Starts tracking which entries the upcoming run consults.  Nested calls
    /// (a run inside an open scope) keep accumulating into the same set.
    pub(crate) fn begin_run(&mut self) {
        if self.run_depth == 0 {
            self.consulted.clear();
        }
        self.run_depth += 1;
    }

    /// Marks one entry as consulted by the current run.
    pub(crate) fn consult(&mut self, id: ElementId) {
        self.consulted.insert(id);
    }

    /// Prunes the memo to the entries the finished run consulted (see the
    /// type-level *Retention* notes).  Nested calls defer the prune to the
    /// outermost scope so retention covers every nested run's consultations.
    pub(crate) fn end_run(&mut self) {
        self.run_depth = self.run_depth.saturating_sub(1);
        if self.run_depth > 0 {
            return;
        }
        let consulted = std::mem::take(&mut self.consulted);
        self.scores.retain(|id, _| consulted.contains(id));
        self.consulted = consulted;
        self.consulted.clear();
    }

    pub(crate) fn note_hit(&mut self) {
        self.hits += 1;
    }

    pub(crate) fn note_miss(&mut self) {
        self.misses += 1;
    }

    /// Lookups answered from the memo (scoring passes avoided).
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Lookups that fell through to a full scoring pass.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Scores rebuilt from ranked-list tuples by the priming step.
    pub fn primed(&self) -> usize {
        self.primed
    }
}

/// `p_i(e)` from an element's (possibly absent) topic vector.
#[inline]
fn topic_prob(tv: Option<&TopicVector>, topic: TopicId) -> f64 {
    tv.and_then(|tv| tv.get(topic)).unwrap_or(0.0)
}

/// Evaluates singleton scores and marginal gains for one k-SIR query, counting
/// how many evaluations were performed.
#[derive(Debug)]
pub struct QueryEvaluator<'a, D> {
    scorer: Scorer<'a, D>,
    window: &'a ActiveWindow,
    topic_vectors: &'a TopicVectors,
    /// Non-zero entries of the query vector: `(topic, x_i)`.
    support: Vec<(TopicId, f64)>,
    gain_evaluations: Cell<usize>,
}

impl<'a, D: TopicWordDistribution> QueryEvaluator<'a, D> {
    /// Creates an evaluator for a query over the engine's current state.
    pub fn new(
        scorer: Scorer<'a, D>,
        window: &'a ActiveWindow,
        topic_vectors: &'a TopicVectors,
        query: &QueryVector,
    ) -> Self {
        QueryEvaluator {
            scorer,
            window,
            topic_vectors,
            support: query.support(),
            gain_evaluations: Cell::new(0),
        }
    }

    /// The query support `(topic, weight)` pairs with `x_i > 0`.
    pub fn support(&self) -> &[(TopicId, f64)] {
        &self.support
    }

    /// Number of submodular-function evaluations performed so far.
    pub fn gain_evaluations(&self) -> usize {
        self.gain_evaluations.get()
    }

    fn bump(&self) {
        self.gain_evaluations.set(self.gain_evaluations.get() + 1);
    }

    fn element_topic_prob(&self, id: ElementId, topic: TopicId) -> f64 {
        topic_prob(self.topic_vectors.get(&id), topic)
    }

    /// The singleton score `δ(e, x)` of one element.
    pub fn delta(&self, id: ElementId) -> f64 {
        self.bump();
        self.support
            .iter()
            .map(|&(topic, weight)| weight * self.scorer.topicwise_element(topic, id))
            .sum()
    }

    /// Creates an empty candidate set.
    pub fn new_candidate(&self) -> CandidateState {
        CandidateState::new(self.support.len())
    }

    /// The marginal gain `Δ(e | S)` of adding `id` to the candidate.
    ///
    /// Elements that are already members, or that are no longer active, have
    /// zero gain.
    pub fn marginal_gain(&self, state: &CandidateState, id: ElementId) -> f64 {
        self.bump();
        if state.contains(id) {
            return 0.0;
        }
        let Some(element) = self.window.get(id) else {
            return 0.0;
        };
        let tv = self.topic_vectors.get(&id);
        let config = self.scorer.config();
        let mut gain = 0.0;
        for (slot, &(topic, x_i)) in self.support.iter().enumerate() {
            let p_elem = topic_prob(tv, topic);
            let topic_state = &state.topics[slot];

            // Semantic gain: words whose best weight improves.
            let mut semantic = 0.0;
            if p_elem > 0.0 {
                for (w, freq) in element.doc.iter() {
                    let weight = word_weight(freq, self.phi_word_prob(topic, w), p_elem);
                    let current = topic_state.word_best.get(&w).copied().unwrap_or(0.0);
                    if weight > current {
                        semantic += weight - current;
                    }
                }
            }

            // Influence gain: extra coverage probability on influenced elements.
            let mut influence = 0.0;
            if p_elem > 0.0 {
                for child in self.window.influenced_by(id) {
                    let p = propagation_prob(p_elem, self.element_topic_prob(child, topic));
                    if p <= 0.0 {
                        continue;
                    }
                    let survival = topic_state
                        .child_survival
                        .get(&child)
                        .copied()
                        .unwrap_or(1.0);
                    influence += survival * p;
                }
            }

            gain += x_i * config.combine(semantic, influence);
        }
        gain
    }

    fn phi_word_prob(&self, topic: TopicId, word: WordId) -> f64 {
        self.scorer.phi().word_prob(topic, word)
    }

    /// Inserts `id` into the candidate, updating coverage state and score.
    ///
    /// Returns the realised gain (equal to [`QueryEvaluator::marginal_gain`]
    /// at the moment of insertion).
    pub fn insert(&self, state: &mut CandidateState, id: ElementId) -> f64 {
        if state.contains(id) {
            return 0.0;
        }
        let Some(element) = self.window.get(id) else {
            return 0.0;
        };
        let tv = self.topic_vectors.get(&id);
        let config = self.scorer.config();
        let mut gain = 0.0;
        for (slot, &(topic, x_i)) in self.support.iter().enumerate() {
            let p_elem = topic_prob(tv, topic);
            let topic_state = &mut state.topics[slot];

            let mut semantic = 0.0;
            if p_elem > 0.0 {
                for (w, freq) in element.doc.iter() {
                    let weight = word_weight(freq, self.phi_word_prob(topic, w), p_elem);
                    let entry = topic_state.word_best.entry(w).or_insert(0.0);
                    if weight > *entry {
                        semantic += weight - *entry;
                        *entry = weight;
                    }
                }
            }

            let mut influence = 0.0;
            if p_elem > 0.0 {
                for child in self.window.influenced_by(id) {
                    let p = propagation_prob(p_elem, self.element_topic_prob(child, topic));
                    if p <= 0.0 {
                        continue;
                    }
                    let survival = topic_state.child_survival.entry(child).or_insert(1.0);
                    influence += *survival * p;
                    *survival *= 1.0 - p;
                }
            }

            gain += x_i * config.combine(semantic, influence);
        }
        state.members.push(id);
        state.score += gain;
        gain
    }

    /// Recomputes `f(S, x)` of an arbitrary element set from scratch (used to
    /// score final results and in consistency checks).
    pub fn score_of(&self, ids: &[ElementId]) -> f64 {
        let mut state = self.new_candidate();
        for &id in ids {
            self.insert(&mut state, id);
        }
        state.score()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScoringConfig;
    use ksir_stream::WindowConfig;
    use ksir_types::{DenseTopicWordTable, SocialElementBuilder, Timestamp};

    /// Tiny two-topic fixture: three elements, one reference.
    fn fixture() -> (DenseTopicWordTable, ActiveWindow, TopicVectors) {
        let phi = DenseTopicWordTable::from_rows(vec![
            vec![0.4, 0.3, 0.2, 0.1, 0.0, 0.0],
            vec![0.0, 0.0, 0.1, 0.2, 0.3, 0.4],
        ])
        .unwrap();
        let mut window = ActiveWindow::new(WindowConfig::new(10, 1).unwrap());
        let elements = vec![
            SocialElementBuilder::new(1).at(1).words([0, 1, 2]).build(),
            SocialElementBuilder::new(2).at(2).words([3, 4, 5]).build(),
            SocialElementBuilder::new(3)
                .at(3)
                .words([2, 3])
                .referencing(1)
                .referencing(2)
                .build(),
        ];
        let mut tvs = TopicVectors::default();
        tvs.insert(
            ElementId(1),
            TopicVector::from_values(vec![0.9, 0.1]).unwrap(),
        );
        tvs.insert(
            ElementId(2),
            TopicVector::from_values(vec![0.1, 0.9]).unwrap(),
        );
        tvs.insert(
            ElementId(3),
            TopicVector::from_values(vec![0.5, 0.5]).unwrap(),
        );
        for e in elements {
            window.insert(e).unwrap();
        }
        window.advance_to(Timestamp(3)).unwrap();
        (phi, window, tvs)
    }

    #[test]
    fn incremental_gain_matches_scratch_scores() {
        let (phi, window, tvs) = fixture();
        let config = ScoringConfig::new(0.5, 2.0).unwrap();
        let scorer = Scorer::new(&phi, config, &window, &tvs);
        let query = QueryVector::new(vec![0.5, 0.5]).unwrap();
        let evaluator = QueryEvaluator::new(scorer, &window, &tvs, &query);

        let ids = [ElementId(1), ElementId(2), ElementId(3)];
        let mut state = evaluator.new_candidate();
        let mut running: Vec<ElementId> = Vec::new();
        for &id in &ids {
            let scratch = scorer.marginal_gain(&query, &running, id);
            let incremental = evaluator.marginal_gain(&state, id);
            assert!(
                (scratch - incremental).abs() < 1e-9,
                "gain mismatch for {id}: scratch={scratch}, incremental={incremental}"
            );
            let realised = evaluator.insert(&mut state, id);
            assert!((realised - scratch).abs() < 1e-9);
            running.push(id);
            let full = scorer.set_score(&query, &running);
            assert!(
                (full - state.score()).abs() < 1e-9,
                "running score mismatch: {} vs {}",
                full,
                state.score()
            );
        }
    }

    #[test]
    fn delta_matches_singleton_set_score() {
        let (phi, window, tvs) = fixture();
        let config = ScoringConfig::default();
        let scorer = Scorer::new(&phi, config, &window, &tvs);
        let query = QueryVector::new(vec![0.2, 0.8]).unwrap();
        let evaluator = QueryEvaluator::new(scorer, &window, &tvs, &query);
        for id in [ElementId(1), ElementId(2), ElementId(3)] {
            let d = evaluator.delta(id);
            let s = scorer.set_score(&query, &[id]);
            assert!((d - s).abs() < 1e-12);
        }
    }

    #[test]
    fn duplicate_and_unknown_elements_have_zero_gain() {
        let (phi, window, tvs) = fixture();
        let config = ScoringConfig::default();
        let scorer = Scorer::new(&phi, config, &window, &tvs);
        let query = QueryVector::new(vec![0.5, 0.5]).unwrap();
        let evaluator = QueryEvaluator::new(scorer, &window, &tvs, &query);
        let mut state = evaluator.new_candidate();
        evaluator.insert(&mut state, ElementId(1));
        assert_eq!(evaluator.marginal_gain(&state, ElementId(1)), 0.0);
        assert_eq!(evaluator.insert(&mut state, ElementId(1)), 0.0);
        assert_eq!(state.len(), 1);
        assert_eq!(evaluator.marginal_gain(&state, ElementId(99)), 0.0);
    }

    #[test]
    fn evaluation_counter_increments() {
        let (phi, window, tvs) = fixture();
        let config = ScoringConfig::default();
        let scorer = Scorer::new(&phi, config, &window, &tvs);
        let query = QueryVector::new(vec![0.5, 0.5]).unwrap();
        let evaluator = QueryEvaluator::new(scorer, &window, &tvs, &query);
        assert_eq!(evaluator.gain_evaluations(), 0);
        let state = evaluator.new_candidate();
        evaluator.delta(ElementId(1));
        evaluator.marginal_gain(&state, ElementId(2));
        assert_eq!(evaluator.gain_evaluations(), 2);
    }

    #[test]
    fn scope_retention_keeps_the_union_of_nested_runs() {
        let mut cache = SingletonCache::new();
        cache.remember(ElementId(1), 0.1);
        cache.remember(ElementId(2), 0.2);
        cache.remember(ElementId(3), 0.3);
        // Two nested runs, each consulting a different entry: the prune at
        // scope exit must keep both, dropping only the never-consulted one.
        cache.begin_scope();
        cache.begin_run();
        cache.consult(ElementId(1));
        cache.end_run();
        assert_eq!(cache.len(), 3, "inner end_run must not prune");
        cache.begin_run();
        cache.consult(ElementId(2));
        cache.end_run();
        cache.end_scope();
        assert_eq!(cache.len(), 2);
        assert!(cache.get(ElementId(1)).is_some());
        assert!(cache.get(ElementId(2)).is_some());
        assert!(cache.get(ElementId(3)).is_none());
        // Without a scope, a lone run prunes to its own consultations.
        cache.begin_run();
        cache.consult(ElementId(2));
        cache.end_run();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.entries().collect::<Vec<_>>(), [(ElementId(2), 0.2)]);
    }

    #[test]
    fn submodularity_of_incremental_gains() {
        let (phi, window, tvs) = fixture();
        let config = ScoringConfig::new(0.5, 2.0).unwrap();
        let scorer = Scorer::new(&phi, config, &window, &tvs);
        let query = QueryVector::new(vec![0.5, 0.5]).unwrap();
        let evaluator = QueryEvaluator::new(scorer, &window, &tvs, &query);
        // gain of e3 w.r.t. ∅ is at least its gain w.r.t. {e1} and {e1, e2}.
        let empty = evaluator.new_candidate();
        let mut one = evaluator.new_candidate();
        evaluator.insert(&mut one, ElementId(1));
        let mut two = one.clone();
        evaluator.insert(&mut two, ElementId(2));
        let g0 = evaluator.marginal_gain(&empty, ElementId(3));
        let g1 = evaluator.marginal_gain(&one, ElementId(3));
        let g2 = evaluator.marginal_gain(&two, ElementId(3));
        assert!(g0 >= g1 - 1e-12);
        assert!(g1 >= g2 - 1e-12);
        assert!(g2 >= 0.0);
    }
}
