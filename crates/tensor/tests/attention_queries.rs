//! The attention tiles asked for some query rows of each sequence
//! (`linalg::attention_queries_into`) against the every-query call
//! (`linalg::attention_into_with_isa`) on the same Q rows, on every ISA the
//! host has: for `r` of a sequence's `tokens` queries, against all its
//! keys, each output row must be the every-query call's row for the same
//! query, bit for bit — whichever tokens the queries are and in whatever
//! order they sit, since attention has no position term. `r = tokens` in
//! token order is the every-query call itself; `r = 1` pads the lane
//! kernels' 3-row block with two copies of its one row.

use hire_tensor::simd::Isa;
use hire_tensor::{linalg, AttnGrid};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn random(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

/// Runs `grid` once over every query and once over the tokens `picked` of
/// each sequence (Q rows copied from the every-query input, laid out
/// `[outer, picked.len(), inner]`), on `isa`, and requires each picked
/// row's output to be the every-query output's row, bit for bit.
fn assert_picked_rows_match(grid: AttnGrid, picked: &[usize], isa: Isa, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (width, r) = (grid.width(), picked.len());
    let len = grid.rows() * width;
    let (q, k, v) = (
        random(len, &mut rng),
        random(len, &mut rng),
        random(len, &mut rng),
    );
    let mut scratch = vec![f32::NAN; grid.scratch_len()];
    let mut every = q.clone();
    linalg::attention_into_with_isa(&grid, &mut every, &k, &v, &mut scratch, isa);

    let [outer, tokens, inner] = [grid.outer, grid.tokens, grid.inner];
    let row = |o: usize, token: usize, j: usize, t: usize| ((o * t + token) * inner + j) * width;
    let mut some = vec![f32::NAN; grid.query_rows(r) * width];
    for o in 0..outer {
        for (s, &token) in picked.iter().enumerate() {
            for j in 0..inner {
                let (to, from) = (row(o, s, j, r), row(o, token, j, tokens));
                some[to..to + width].copy_from_slice(&q[from..from + width]);
            }
        }
    }
    scratch.fill(f32::NAN);
    linalg::attention_queries_into(&grid, r, &mut some, &k, &v, &mut scratch, isa);
    for o in 0..outer {
        for (s, &token) in picked.iter().enumerate() {
            for j in 0..inner {
                let (at, want) = (row(o, s, j, r), row(o, token, j, tokens));
                let got = &some[at..at + width];
                let want = &every[want..want + width];
                assert!(
                    got.iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{grid:?} {isa:?}: query {s} (token {token}) of sequence ({o}, {j}) of \
                     {picked:?}: {got:?} vs the every-query call's {want:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Generated grids, query counts `1..=tokens` and picks.
    #[test]
    fn some_queries_are_those_rows_of_the_every_query_call(
        (outer, tokens, inner) in (1usize..4, 1usize..21, 1usize..4),
        (heads, head_dim) in (1usize..4, 1usize..13),
        share in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let grid = AttnGrid { outer, tokens, inner, heads, head_dim };
        let mut rng = StdRng::seed_from_u64(seed);
        let r = 1 + ((share * tokens as f64) as usize).min(tokens - 1);
        let mut picked: Vec<usize> = (0..tokens).collect();
        picked.shuffle(&mut rng);
        picked.truncate(r);
        for isa in Isa::available() {
            assert_picked_rows_match(grid, &picked, isa, seed);
        }
    }
}

/// Every query in token order is the every-query call, element for
/// element, at HIM's MBU shapes and ragged ones.
#[test]
fn every_query_in_order_is_the_every_query_call() {
    for (seed, [outer, tokens, inner, heads, head_dim]) in [
        [1, 16, 16, 4, 8],
        [1, 32, 32, 8, 16],
        [2, 7, 3, 3, 5],
        [3, 9, 1, 4, 8],
    ]
    .into_iter()
    .enumerate()
    {
        let grid = AttnGrid {
            outer,
            tokens,
            inner,
            heads,
            head_dim,
        };
        let order: Vec<usize> = (0..tokens).collect();
        for isa in Isa::available() {
            assert_picked_rows_match(grid, &order, isa, seed as u64);
        }
    }
}

/// One query a sequence — a one-cell miss's last MBU, one user row
/// against every user of each item column — at `fast`'s and the paper's
/// MBU shapes, each token in turn, and on a ragged grid.
#[test]
fn one_query_pads_its_block_and_matches() {
    for (seed, [outer, tokens, inner, heads, head_dim]) in
        [[1, 16, 16, 4, 8], [1, 32, 32, 8, 16], [5, 4, 3, 2, 3]]
            .into_iter()
            .enumerate()
    {
        let grid = AttnGrid {
            outer,
            tokens,
            inner,
            heads,
            head_dim,
        };
        for token in 0..tokens {
            for isa in Isa::available() {
                assert_picked_rows_match(grid, &[token], isa, (seed * 100 + token) as u64);
            }
        }
    }
}

#[test]
#[should_panic(expected = "5 queries of")]
fn more_queries_than_tokens_are_refused() {
    let grid = AttnGrid {
        outer: 1,
        tokens: 4,
        inner: 2,
        heads: 1,
        head_dim: 2,
    };
    let (k, v) = (vec![0.0; 16], vec![0.0; 16]);
    let mut q = vec![0.0; 20];
    let mut scratch = vec![0.0; grid.scratch_len()];
    linalg::attention_queries_into(&grid, 5, &mut q, &k, &v, &mut scratch, Isa::Scalar);
}
