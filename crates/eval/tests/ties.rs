//! Tie-aware ranking metrics held to their definition: each metric is the
//! mean, over every order of each tie group of equal predictions, of the
//! metric of that one order. The oracle is the fixed-order formula (a stable
//! sort, tied items in input order — the metrics' definition before they
//! became tie-aware), kept verbatim below: averaged over every permutation
//! of the input it is the all-orders mean, and on untied lists the
//! tie-aware metrics must still score bit for bit as it does.

use hire_eval::metrics::{map_at_k, ndcg_at_k, precision_at_k, ScoredPair};
use proptest::prelude::*;

const THRESHOLD: f32 = 4.0;

/// Actual ratings by descending prediction, ties in input order.
fn fixed_order(pairs: &[ScoredPair]) -> Vec<f32> {
    let mut ix: Vec<usize> = (0..pairs.len()).collect();
    ix.sort_by(|&a, &b| {
        pairs[b]
            .predicted
            .partial_cmp(&pairs[a].predicted)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    ix.into_iter().map(|i| pairs[i].actual).collect()
}

fn fixed_precision(pairs: &[ScoredPair], k: usize) -> f32 {
    if pairs.is_empty() {
        return 0.0;
    }
    let ordered = fixed_order(pairs);
    let depth = k.min(ordered.len());
    let relevant = ordered[..depth].iter().filter(|&&a| a >= THRESHOLD).count();
    relevant as f32 / depth as f32
}

fn fixed_ndcg(pairs: &[ScoredPair], k: usize) -> f32 {
    if pairs.is_empty() {
        return 0.0;
    }
    let ordered = fixed_order(pairs);
    let depth = k.min(ordered.len());
    let dcg: f64 = ordered[..depth]
        .iter()
        .enumerate()
        .map(|(i, &rel)| rel as f64 / ((i + 2) as f64).log2())
        .sum();
    let mut ideal = ordered.clone();
    ideal.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let idcg: f64 = ideal[..depth]
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

fn fixed_map(pairs: &[ScoredPair], k: usize) -> f32 {
    if pairs.is_empty() {
        return 0.0;
    }
    let ordered = fixed_order(pairs);
    let depth = k.min(ordered.len());
    let total_relevant = ordered.iter().filter(|&&a| a >= THRESHOLD).count();
    if total_relevant == 0 {
        return 0.0;
    }
    let mut hits = 0usize;
    let mut sum_precision = 0.0f64;
    for (i, &a) in ordered[..depth].iter().enumerate() {
        if a >= THRESHOLD {
            hits += 1;
            sum_precision += hits as f64 / (i + 1) as f64;
        }
    }
    (sum_precision / total_relevant.min(depth) as f64) as f32
}

/// The three tie-aware metrics, as bits.
fn tie_aware_bits(pairs: &[ScoredPair], k: usize) -> [u32; 3] {
    [
        precision_at_k(pairs, k, THRESHOLD).to_bits(),
        ndcg_at_k(pairs, k).to_bits(),
        map_at_k(pairs, k, THRESHOLD).to_bits(),
    ]
}

/// Every permutation of `0..n` (Heap's algorithm).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn heap(k: usize, p: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(p.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, p, out);
            p.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
        }
    }
    let mut out = Vec::new();
    heap(n, &mut (0..n).collect(), &mut out);
    out
}

/// The fixed-order metrics averaged over every permutation of the input —
/// each order of each tie group equally often.
fn all_orders_mean(pairs: &[ScoredPair], k: usize) -> [f64; 3] {
    let perms = permutations(pairs.len());
    let mut sum = [0.0f64; 3];
    for perm in &perms {
        let permuted: Vec<ScoredPair> = perm.iter().map(|&i| pairs[i]).collect();
        sum[0] += fixed_precision(&permuted, k) as f64;
        sum[1] += fixed_ndcg(&permuted, k) as f64;
        sum[2] += fixed_map(&permuted, k) as f64;
    }
    sum.map(|s| s / perms.len() as f64)
}

fn assert_all_orders_mean(pairs: &[ScoredPair], k: usize) {
    let brute = all_orders_mean(pairs, k);
    let got = [
        precision_at_k(pairs, k, THRESHOLD),
        ndcg_at_k(pairs, k),
        map_at_k(pairs, k, THRESHOLD),
    ];
    for (name, (g, b)) in ["precision", "ndcg", "map"]
        .iter()
        .zip(got.iter().zip(brute))
    {
        assert!(
            (*g as f64 - b).abs() < 1e-5,
            "{name}@{k}: tie-aware {g} vs all-orders mean {b} on {pairs:?}"
        );
    }
}

/// A seeded Fisher–Yates shuffle (SplitMix64).
fn shuffled<T: Copy>(items: &[T], seed: u64) -> Vec<T> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    out
}

/// Up to `max` pairs whose predictions come from three values, so most
/// lists hold ties; actual ratings on a 1–5 scale.
fn tied_pairs(max: usize) -> impl Strategy<Value = Vec<ScoredPair>> {
    proptest::collection::vec((0u32..3, 1u32..=5), 1..max + 1).prop_map(|v| {
        v.into_iter()
            .map(|(p, a)| ScoredPair::new(p as f32 * 0.5, a as f32))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tie_aware_metrics_are_the_mean_over_every_order_of_each_tie(
        pairs in tied_pairs(7),
        k in 1usize..9,
    ) {
        assert_all_orders_mean(&pairs, k);
    }

    #[test]
    fn a_constant_predictor_scores_the_all_orders_mean(
        actual in proptest::collection::vec(1u32..=5, 1..8),
        constant in 1.0f32..5.0,
        k in 1usize..9,
    ) {
        let pairs: Vec<ScoredPair> =
            actual.iter().map(|&a| ScoredPair::new(constant, a as f32)).collect();
        assert_all_orders_mean(&pairs, k);
        // One tie group: precision is the list's relevant fraction.
        let relevant = actual.iter().filter(|&&a| a as f32 >= THRESHOLD).count();
        let fraction = relevant as f32 / actual.len() as f32;
        prop_assert!((precision_at_k(&pairs, k, THRESHOLD) - fraction).abs() < 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn untied_lists_score_bit_for_bit_as_the_fixed_order(
        actual in proptest::collection::vec(1u32..=10, 1..40),
        seed in 0u64..u64::MAX,
        k in 1usize..45,
    ) {
        let ranks: Vec<usize> = shuffled(&(0..actual.len()).collect::<Vec<_>>(), seed);
        let pairs: Vec<ScoredPair> = actual
            .iter()
            .zip(&ranks)
            .map(|(&a, &r)| ScoredPair::new(r as f32 * 0.25 - 3.0, a as f32 * 0.5))
            .collect();
        prop_assert_eq!(
            tie_aware_bits(&pairs, k),
            [
                fixed_precision(&pairs, k).to_bits(),
                fixed_ndcg(&pairs, k).to_bits(),
                fixed_map(&pairs, k).to_bits(),
            ]
        );
    }

    #[test]
    fn reordering_tied_items_changes_no_bit(
        pairs in tied_pairs(30),
        seed in 0u64..u64::MAX,
        k in 1usize..35,
    ) {
        prop_assert_eq!(tie_aware_bits(&pairs, k), tie_aware_bits(&shuffled(&pairs, seed), k));
    }

    #[test]
    fn a_cutoff_past_the_list_is_the_whole_list(pairs in tied_pairs(30), extra in 0usize..20) {
        prop_assert_eq!(
            tie_aware_bits(&pairs, pairs.len() + extra),
            tie_aware_bits(&pairs, pairs.len())
        );
    }
}
