//! Ranking metrics: Precision@k, NDCG@k, MAP@k.
//!
//! Following § VI-A of the paper: *"Top k actual rating values sorted by
//! predicted rating values are used to calculate the above metrics"* — a
//! ranking unit is one cold entity's query set; items are ordered by the
//! predicted rating and the metrics are computed over the actual ratings in
//! that order. Precision and MAP binarize relevance at a threshold; NDCG
//! uses graded relevance. Equal predictions leave their order open, so each
//! metric is its expectation over every order of each tie group, in closed
//! form (McSherry & Najork, ECIR 2008): a constant predictor scores what a
//! random order scores on average, not its list's input order.

use std::cmp::Ordering;
use std::ops::Range;

/// A scored query pair: the model's prediction and the ground-truth rating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredPair {
    /// Predicted rating.
    pub predicted: f32,
    /// Actual (ground-truth) rating.
    pub actual: f32,
}

impl ScoredPair {
    /// Convenience constructor.
    pub fn new(predicted: f32, actual: f32) -> Self {
        ScoredPair { predicted, actual }
    }
}

/// Descending by prediction on a total order; NaN predictions rank last.
fn by_prediction_desc(a: &ScoredPair, b: &ScoredPair) -> Ordering {
    match (a.predicted.is_nan(), b.predicted.is_nan()) {
        (false, false) => b.predicted.total_cmp(&a.predicted),
        (a_nan, b_nan) => a_nan.cmp(&b_nan),
    }
}

/// Whether two predictions rank as one tie group (NaNs tie with each other).
fn tied(a: f32, b: f32) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

/// How many of `ratings` are relevant (at or above `threshold`).
fn relevant(ratings: &[f32], threshold: f32) -> usize {
    ratings.iter().filter(|&&a| a >= threshold).count()
}

/// The actual ratings in descending predicted order, and the tie groups of
/// equal predictions as position ranges. Within a group the order is
/// canonical (descending actual), so every metric below is a function of
/// the multiset of pairs, bit for bit.
fn ranked_ties(pairs: &[ScoredPair]) -> (Vec<f32>, Vec<Range<usize>>) {
    let mut ranked = pairs.to_vec();
    ranked.sort_by(|a, b| by_prediction_desc(a, b).then(b.actual.total_cmp(&a.actual)));
    let mut groups = Vec::new();
    let mut start = 0;
    for i in 1..=ranked.len() {
        if i == ranked.len() || !tied(ranked[i - 1].predicted, ranked[i].predicted) {
            groups.push(start..i);
            start = i;
        }
    }
    (ranked.iter().map(|p| p.actual).collect(), groups)
}

/// One ranking unit ranked once: the actual ratings in descending predicted
/// order with their tie groups of equal predictions, and the ideal order
/// NDCG normalizes by. Every metric at every cutoff reads this one ranking,
/// so scoring a list at several cutoffs sorts it twice in all, not twice
/// per metric and cutoff. The `*_at_k` functions are these methods on a
/// list ranked for the one call, bit for bit.
#[derive(Debug, Clone)]
pub struct RankedList {
    actual: Vec<f32>,
    groups: Vec<Range<usize>>,
    ideal: Vec<f32>,
}

impl RankedList {
    /// Ranks `pairs`.
    pub fn new(pairs: &[ScoredPair]) -> Self {
        let (actual, groups) = ranked_ties(pairs);
        let mut ideal = actual.clone();
        ideal.sort_by(|a, b| b.total_cmp(a));
        RankedList {
            actual,
            groups,
            ideal,
        }
    }

    /// See [`precision_at_k`].
    pub fn precision(&self, k: usize, threshold: f32) -> f32 {
        assert!(k > 0, "k must be positive");
        let actual = &self.actual;
        if actual.is_empty() {
            return 0.0;
        }
        let depth = k.min(actual.len());
        let hits: f64 = self
            .groups
            .iter()
            .filter(|g| g.start < depth)
            .map(|g| {
                let inside = g.end.min(depth) - g.start;
                (inside * relevant(&actual[g.clone()], threshold)) as f64 / g.len() as f64
            })
            .sum();
        hits as f32 / depth as f32
    }

    /// See [`ndcg_at_k`].
    pub fn ndcg(&self, k: usize) -> f32 {
        assert!(k > 0, "k must be positive");
        let actual = &self.actual;
        if actual.is_empty() {
            return 0.0;
        }
        let depth = k.min(actual.len());
        let dcg: f64 = self
            .groups
            .iter()
            .flat_map(|g| {
                let gain =
                    actual[g.clone()].iter().map(|&a| a as f64).sum::<f64>() / g.len() as f64;
                (g.start..g.end.min(depth)).map(move |i| gain / ((i + 2) as f64).log2())
            })
            .sum();
        let idcg: f64 = self.ideal[..depth]
            .iter()
            .enumerate()
            .map(|(i, &rel)| rel as f64 / ((i + 2) as f64).log2())
            .sum();
        if idcg <= 0.0 {
            0.0
        } else {
            (dcg / idcg) as f32
        }
    }

    /// See [`map_at_k`].
    pub fn map(&self, k: usize, threshold: f32) -> f32 {
        assert!(k > 0, "k must be positive");
        let actual = &self.actual;
        if actual.is_empty() {
            return 0.0;
        }
        let depth = k.min(actual.len());
        let total_relevant = relevant(actual, threshold);
        if total_relevant == 0 {
            return 0.0;
        }
        let mut before = 0usize;
        let mut sum_precision = 0.0f64;
        for g in self.groups.iter().filter(|g| g.start < depth) {
            let (size, hits) = (g.len(), relevant(&actual[g.clone()], threshold));
            let p_hit = hits as f64 / size as f64;
            let p_pair = if hits > 1 {
                (hits * (hits - 1)) as f64 / (size * (size - 1)) as f64
            } else {
                0.0
            };
            for i in g.start..g.end.min(depth) {
                let expected = p_hit * (before + 1) as f64 + (i - g.start) as f64 * p_pair;
                sum_precision += expected / (i + 1) as f64;
            }
            before += hits;
        }
        (sum_precision / total_relevant.min(depth) as f64) as f32
    }

    /// All three metrics at cutoff `k`.
    pub fn metrics(&self, k: usize, threshold: f32) -> RankingMetrics {
        RankingMetrics {
            precision: self.precision(k, threshold),
            ndcg: self.ndcg(k),
            map: self.map(k, threshold),
        }
    }
}

/// Precision@k with binary relevance at `threshold` (actual >= threshold).
///
/// When fewer than `k` pairs exist, the denominator is the number of pairs.
/// A tie group that straddles the cutoff counts the expected number of its
/// relevant items over every order of the group (McSherry & Najork, ECIR
/// 2008), so a constant predictor scores the list's relevant fraction.
pub fn precision_at_k(pairs: &[ScoredPair], k: usize, threshold: f32) -> f32 {
    RankedList::new(pairs).precision(k, threshold)
}

/// NDCG@k with graded relevance (the actual rating) and the standard
/// `rel / log2(pos + 2)` discount. Returns 1.0 when the predicted order is
/// ideal, and 0 when there are no pairs or all gains are zero. Each position
/// of a tie group gains the group's mean rating: the expected DCG over every
/// order of the group.
pub fn ndcg_at_k(pairs: &[ScoredPair], k: usize) -> f32 {
    RankedList::new(pairs).ndcg(k)
}

/// MAP@k (mean average precision truncated at `k`) with binary relevance at
/// `threshold`. Average precision is normalized by `min(k, #relevant)`.
/// Within a tie group of `g` items, `h` of them relevant, position `i` of the
/// group (0-based) adds its expected `rel · hits-so-far / rank` over every
/// order of the group: `(h/g · (before + 1) + i · h(h−1)/(g(g−1))) / rank`,
/// with `before` the relevant items ranked above the group.
pub fn map_at_k(pairs: &[ScoredPair], k: usize, threshold: f32) -> f32 {
    RankedList::new(pairs).map(k, threshold)
}

/// All three metrics at one cutoff.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RankingMetrics {
    /// Precision@k.
    pub precision: f32,
    /// NDCG@k.
    pub ndcg: f32,
    /// MAP@k.
    pub map: f32,
}

/// Computes Precision/NDCG/MAP at `k` from one ranking of `pairs`.
pub fn ranking_metrics(pairs: &[ScoredPair], k: usize, threshold: f32) -> RankingMetrics {
    RankedList::new(pairs).metrics(k, threshold)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(data: &[(f32, f32)]) -> Vec<ScoredPair> {
        data.iter().map(|&(p, a)| ScoredPair::new(p, a)).collect()
    }

    #[test]
    fn perfect_ranking_scores_one() {
        // predictions perfectly ordered, all top-k relevant
        let p = pairs(&[(5.0, 5.0), (4.0, 5.0), (3.0, 4.0), (2.0, 1.0), (1.0, 1.0)]);
        assert_eq!(precision_at_k(&p, 3, 4.0), 1.0);
        assert!((ndcg_at_k(&p, 3) - 1.0).abs() < 1e-6);
        assert!((map_at_k(&p, 3, 4.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn inverted_ranking_scores_low() {
        let p = pairs(&[(1.0, 5.0), (2.0, 5.0), (4.0, 1.0), (5.0, 1.0)]);
        // top-2 predicted are the 1-rated items
        assert_eq!(precision_at_k(&p, 2, 4.0), 0.0);
        assert!(ndcg_at_k(&p, 2) < 0.5);
        assert_eq!(map_at_k(&p, 2, 4.0), 0.0);
    }

    #[test]
    fn precision_counts_relevant_fraction() {
        let p = pairs(&[(5.0, 5.0), (4.0, 2.0), (3.0, 4.0), (2.0, 2.0)]);
        // predicted order: 5,2,4,2 → top3 relevant = {5,4} → 2/3
        assert!((precision_at_k(&p, 3, 4.0) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn short_lists_use_available_depth() {
        let p = pairs(&[(1.0, 5.0), (2.0, 1.0)]);
        // k = 10 but only 2 pairs; predicted order: 1, 5
        assert_eq!(precision_at_k(&p, 10, 4.0), 0.5);
        assert!(ndcg_at_k(&p, 10) > 0.0);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(precision_at_k(&[], 5, 4.0), 0.0);
        assert_eq!(ndcg_at_k(&[], 5), 0.0);
        assert_eq!(map_at_k(&[], 5, 4.0), 0.0);
    }

    #[test]
    fn map_known_value() {
        // predicted order fixed by descending predictions
        // actual relevance (threshold 4): [R, N, R, N, R]
        let p = pairs(&[(5.0, 5.0), (4.0, 1.0), (3.0, 4.0), (2.0, 1.0), (1.0, 5.0)]);
        // AP@5 = (1/1 + 2/3 + 3/5) / 3
        let expect = (1.0 + 2.0 / 3.0 + 3.0 / 5.0) / 3.0;
        assert!((map_at_k(&p, 5, 4.0) - expect).abs() < 1e-6);
    }

    #[test]
    fn ndcg_prefers_better_order() {
        let good = pairs(&[(3.0, 5.0), (2.0, 3.0), (1.0, 1.0)]);
        let bad = pairs(&[(1.0, 5.0), (2.0, 3.0), (3.0, 1.0)]);
        assert!(ndcg_at_k(&good, 3) > ndcg_at_k(&bad, 3));
    }

    #[test]
    fn all_irrelevant_map_is_zero() {
        let p = pairs(&[(5.0, 1.0), (4.0, 2.0)]);
        assert_eq!(map_at_k(&p, 2, 4.0), 0.0);
        assert_eq!(precision_at_k(&p, 2, 4.0), 0.0);
    }

    #[test]
    fn combined_struct_matches_parts() {
        let p = pairs(&[(5.0, 5.0), (4.0, 2.0), (3.0, 4.0)]);
        let m = ranking_metrics(&p, 3, 4.0);
        assert_eq!(m.precision, precision_at_k(&p, 3, 4.0));
        assert_eq!(m.ndcg, ndcg_at_k(&p, 3));
        assert_eq!(m.map, map_at_k(&p, 3, 4.0));
    }

    fn assert_unit_interval(m: RankingMetrics, label: &str) {
        for (name, v) in [("precision", m.precision), ("ndcg", m.ndcg), ("map", m.map)] {
            assert!(
                (0.0..=1.0).contains(&v),
                "{label}: {name}={v} outside [0, 1]"
            );
        }
    }

    #[test]
    fn edge_cases_stay_in_unit_interval_without_panicking() {
        // empty list
        assert_eq!(ranking_metrics(&[], 5, 4.0), RankingMetrics::default());
        // k far beyond the list length
        let short = pairs(&[(2.0, 5.0), (1.0, 1.0)]);
        assert_unit_interval(ranking_metrics(&short, 1000, 4.0), "k >> len");
        // single pair, relevant and irrelevant
        assert_unit_interval(
            ranking_metrics(&pairs(&[(3.0, 5.0)]), 5, 4.0),
            "single relevant",
        );
        assert_unit_interval(
            ranking_metrics(&pairs(&[(3.0, 1.0)]), 5, 4.0),
            "single irrelevant",
        );
        // all pairs irrelevant: binary metrics are zero; NDCG still grades
        // the (nonzero) actual ratings, so it only has to stay in [0, 1]
        let none = pairs(&[(5.0, 1.0), (4.0, 2.0), (3.0, 1.0)]);
        let m = ranking_metrics(&none, 3, 4.0);
        assert_eq!((m.precision, m.map), (0.0, 0.0));
        assert_unit_interval(m, "all irrelevant");
        // all actuals zero: NDCG's ideal gain is zero, must not divide by it
        let zeros = pairs(&[(5.0, 0.0), (4.0, 0.0)]);
        assert_eq!(ndcg_at_k(&zeros, 2), 0.0);
    }

    #[test]
    fn tied_predictions_score_their_expectation() {
        // every prediction identical: one tie group, every order equally likely
        let tied = pairs(&[(3.0, 5.0), (3.0, 1.0), (3.0, 4.0), (3.0, 2.0)]);
        assert_unit_interval(ranking_metrics(&tied, 4, 4.0), "all tied");
        // with all items counted, precision is the overall relevant fraction
        assert!((precision_at_k(&tied, 4, 4.0) - 0.5).abs() < 1e-6);
        // and at any depth: two relevant items of four, in expectation
        assert!((precision_at_k(&tied, 1, 4.0) - 0.5).abs() < 1e-6);
        // the input order of tied items is no part of the score
        let reordered = pairs(&[(3.0, 2.0), (3.0, 4.0), (3.0, 5.0), (3.0, 1.0)]);
        assert_eq!(
            ranking_metrics(&tied, 2, 4.0),
            ranking_metrics(&reordered, 2, 4.0)
        );
        let with_nan = pairs(&[(f32::NAN, 5.0), (3.0, 1.0), (f32::NAN, 4.0)]);
        assert_unit_interval(ranking_metrics(&with_nan, 3, 4.0), "NaN predictions");
    }

    #[test]
    fn a_nan_prediction_ranks_last() {
        let with_nan = pairs(&[(f32::NAN, 5.0), (3.0, 1.0), (2.0, 4.0), (1.0, 2.0)]);
        let ranked_last = pairs(&[(0.0, 5.0), (3.0, 1.0), (2.0, 4.0), (1.0, 2.0)]);
        for k in 1..=4 {
            assert_eq!(
                ranking_metrics(&with_nan, k, 4.0),
                ranking_metrics(&ranked_last, k, 4.0),
                "k = {k}"
            );
        }
    }

    #[test]
    fn nan_predictions_neither_panic_the_sort_nor_unsort_the_rest() {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..300 {
            let len = 5 + (next() % 496) as usize;
            let with_nan: Vec<ScoredPair> = (0..len)
                .map(|_| {
                    let r = next();
                    let predicted = if r % 16 == 0 {
                        f32::NAN
                    } else {
                        (r >> 40) as f32 / (1u64 << 24) as f32 * 5.0
                    };
                    ScoredPair::new(predicted, 1.0 + ((r >> 8) % 5) as f32)
                })
                .collect();
            // NaN ranks last: every NaN one tie group below the smallest prediction
            let ranked_last: Vec<ScoredPair> = with_nan
                .iter()
                .map(|p| {
                    ScoredPair::new(
                        if p.predicted.is_nan() {
                            -1.0
                        } else {
                            p.predicted
                        },
                        p.actual,
                    )
                })
                .collect();
            for k in [1, 5, 10, len] {
                let m = ranking_metrics(&with_nan, k, 4.0);
                assert_unit_interval(m, "NaN-laden list");
                assert_eq!(m, ranking_metrics(&ranked_last, k, 4.0));
            }
        }
    }
}
