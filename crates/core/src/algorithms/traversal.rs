//! Ordered traversal of the per-topic ranked lists for one query.
//!
//! MTTS, MTTD and Top-k Representative all consume active elements "in
//! decreasing order of their scores w.r.t. the query vector": they keep one
//! cursor per topic in the query support, repeatedly take the cursor whose
//! head contributes the largest `x_i · δ_i(e)`, and track the upper bound
//! `UB(x) = Σ_i x_i · δ_i(e^{(i)})` on the score of any not-yet-retrieved
//! element.  Once an element has been retrieved from one list, its tuples in
//! the other lists are treated as visited so it is never retrieved twice.

use ksir_stream::RankedListCursor;
use ksir_types::{ElementId, IdSet, TopicId};

use crate::query::QueryFrontier;
use crate::view::RankedView;

/// Cursors over the ranked lists of the query's support topics.
pub(crate) struct SupportCursors<'a> {
    cursors: Vec<(TopicId, f64, RankedListCursor<'a>)>,
    visited: IdSet<ElementId>,
}

impl<'a> SupportCursors<'a> {
    /// Opens a cursor on every support topic's ranked list — live or
    /// snapshot, whatever the view serves.
    pub fn new<V: RankedView + ?Sized>(view: &'a V, support: &[(TopicId, f64)]) -> Self {
        let cursors = support
            .iter()
            .filter(|(topic, _)| topic.index() < view.num_topics())
            .map(|&(topic, weight)| (topic, weight, view.cursor(topic)))
            .collect();
        SupportCursors {
            cursors,
            visited: IdSet::default(),
        }
    }

    /// The traversal frontier: per support topic, the score of the first
    /// tuple this traversal has *not* read (`None` once the list is
    /// exhausted).  Captured at termination it is exactly the
    /// [`QueryFrontier`](crate::query::QueryFrontier) invalidation floor.
    pub fn frontier(&mut self) -> QueryFrontier {
        let floors = self
            .cursors
            .iter_mut()
            .map(|(topic, _, cursor)| (*topic, cursor.current().map(|(_, score, _)| score)))
            .collect();
        QueryFrontier::new(floors)
    }

    /// The upper bound `UB(x)` on the score of any unretrieved element:
    /// the weighted sum of the current head scores (exhausted lists
    /// contribute zero).
    pub fn upper_bound(&mut self) -> f64 {
        self.cursors
            .iter_mut()
            .map(|(_, w, c)| c.current().map(|(_, s, _)| *w * s).unwrap_or(0.0))
            .sum()
    }

    /// Returns `true` once every cursor is exhausted.
    pub fn exhausted(&mut self) -> bool {
        self.cursors
            .iter_mut()
            .all(|(_, _, c)| c.current().is_none())
    }

    /// Number of distinct elements retrieved so far.
    pub fn retrieved(&self) -> usize {
        self.visited.len()
    }

    /// Retrieves the next unvisited element in decreasing order of
    /// `x_i · δ_i(e)`, advancing the cursor it came from.
    pub fn pop_next(&mut self) -> Option<ElementId> {
        loop {
            let mut best: Option<(usize, f64)> = None;
            for (idx, (_, weight, cursor)) in self.cursors.iter_mut().enumerate() {
                if let Some((_, score, _)) = cursor.current() {
                    let value = *weight * score;
                    let better = match best {
                        None => true,
                        Some((_, b)) => value > b,
                    };
                    if better {
                        best = Some((idx, value));
                    }
                }
            }
            let (idx, _) = best?;
            let (id, _, _) = self.cursors[idx]
                .2
                .current()
                .expect("cursor selected as argmax has a current element");
            self.cursors[idx].2.advance();
            if self.visited.insert(id) {
                return Some(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksir_stream::RankedLists;
    use ksir_types::Timestamp;

    fn lists() -> RankedLists {
        let mut rls = RankedLists::new(2);
        // topic 0: e3 (0.65) > e6 (0.48) > e8 (0.17)
        rls.upsert(TopicId(0), ElementId(3), 0.65, Timestamp(8));
        rls.upsert(TopicId(0), ElementId(6), 0.48, Timestamp(8));
        rls.upsert(TopicId(0), ElementId(8), 0.17, Timestamp(8));
        // topic 1: e1 (0.56) > e6 (0.30)
        rls.upsert(TopicId(1), ElementId(1), 0.56, Timestamp(5));
        rls.upsert(TopicId(1), ElementId(6), 0.30, Timestamp(8));
        rls
    }

    #[test]
    fn retrieval_order_follows_weighted_scores() {
        let rls = lists();
        let support = [(TopicId(0), 0.5), (TopicId(1), 0.5)];
        let mut cursors = SupportCursors::new(&rls, &support);
        assert!((cursors.upper_bound() - (0.5 * 0.65 + 0.5 * 0.56)).abs() < 1e-12);
        // 0.5·0.65 = 0.325 beats 0.5·0.56 = 0.28 → e3 first
        assert_eq!(cursors.pop_next(), Some(ElementId(1 + 2)));
        // then e1 (0.28) beats e6 (0.24)
        assert_eq!(cursors.pop_next(), Some(ElementId(1)));
        // e6 appears in both lists but is retrieved only once
        assert_eq!(cursors.pop_next(), Some(ElementId(6)));
        assert_eq!(cursors.pop_next(), Some(ElementId(8)));
        assert_eq!(cursors.pop_next(), None);
        assert!(cursors.exhausted());
        assert_eq!(cursors.retrieved(), 4);
        assert_eq!(cursors.upper_bound(), 0.0);
    }

    #[test]
    fn skewed_weights_change_the_order() {
        let rls = lists();
        let support = [(TopicId(0), 0.1), (TopicId(1), 0.9)];
        let mut cursors = SupportCursors::new(&rls, &support);
        // 0.9·0.56 = 0.504 beats 0.1·0.65 = 0.065 → e1 first
        assert_eq!(cursors.pop_next(), Some(ElementId(1)));
        assert_eq!(cursors.pop_next(), Some(ElementId(6)));
    }

    #[test]
    fn frontier_reports_first_unread_scores() {
        let rls = lists();
        let support = [(TopicId(0), 0.5), (TopicId(1), 0.5)];
        let mut cursors = SupportCursors::new(&rls, &support);
        // Before any pop, the frontier sits on the list heads.
        let f = cursors.frontier();
        assert_eq!(
            f.floors,
            vec![(TopicId(0), Some(0.65)), (TopicId(1), Some(0.56))]
        );
        // e3 (topic 0 head) is popped; topic 0's frontier descends to e6.
        cursors.pop_next();
        let f = cursors.frontier();
        assert_eq!(
            f.floors,
            vec![(TopicId(0), Some(0.48)), (TopicId(1), Some(0.56))]
        );
        // Exhausting everything leaves no floors.
        while cursors.pop_next().is_some() {}
        let f = cursors.frontier();
        assert_eq!(f.floors, vec![(TopicId(0), None), (TopicId(1), None)]);
    }

    #[test]
    fn empty_lists_are_immediately_exhausted() {
        let rls = RankedLists::new(3);
        let support = [(TopicId(0), 1.0)];
        let mut cursors = SupportCursors::new(&rls, &support);
        assert_eq!(cursors.upper_bound(), 0.0);
        assert!(cursors.exhausted());
        assert_eq!(cursors.pop_next(), None);
    }

    #[test]
    fn out_of_range_topics_are_ignored() {
        let rls = lists();
        let support = [(TopicId(5), 1.0)];
        let mut cursors = SupportCursors::new(&rls, &support);
        assert_eq!(cursors.pop_next(), None);
    }
}
