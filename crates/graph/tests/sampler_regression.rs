//! Pins the three samplers bit-for-bit — selection **and** the RNG stream
//! after the call — against the implementation that predates every
//! membership optimisation (`oracle/mod.rs` holds it verbatim).
//!
//! Three things changed under the samplers and all must be invisible:
//! - `BipartiteGraph` adjacency moved from `Vec<Vec<(usize, f32)>>` to a
//!   shared CSR buffer,
//! - the BFS hop dedup moved from an O(frontier²) `Vec::contains` scan to a
//!   hash set, and
//! - every set then became a per-thread array of generation stamps that is
//!   reused across calls, graphs and samplers, and a hop whose budget is
//!   already spent burns its shuffle's draws without doing the swaps.
//!
//! None may alter the vectors handed to `shuffle` or the number of draws, so
//! the RNG stream — and therefore every sampled context — must match the
//! legacy implementation exactly, seed for seed. The stamp generation's
//! wrap-around is pinned to the same oracle from the unit tests of
//! `src/sampler.rs`, which can reach the private scratch.

use hire_graph::{BipartiteGraph, ContextSampler, ContextSelection, NeighborhoodSampler, Rating};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Barrier;

mod oracle;
use oracle::{
    hub_graph, legacy_sample, random_graph, rates_hub, sampler_pairs, LegacyNeighborhood,
    HUB_ITEMS, HUB_USERS,
};

/// One query: seeds, budgets and the seed of the RNG it samples with.
#[derive(Clone)]
struct Query {
    users: Vec<usize>,
    items: Vec<usize>,
    n: usize,
    m: usize,
    rng_seed: u64,
}

/// The selection and the next draw of the RNG it was sampled with.
fn sample_with_tail(
    sampler: &dyn ContextSampler,
    graph: &BipartiteGraph,
    q: &Query,
) -> (ContextSelection, u64) {
    let mut rng = StdRng::seed_from_u64(q.rng_seed);
    let sel = sampler.sample(graph, &q.users, &q.items, q.n, q.m, &mut rng);
    (sel, rng.gen())
}

/// Asserts `new` ≡ `old` on every query: same selection, same next draw.
fn assert_matches_oracle(
    new: &dyn ContextSampler,
    old: &dyn ContextSampler,
    graph: &BipartiteGraph,
    queries: &[Query],
    what: &str,
) {
    for (k, q) in queries.iter().enumerate() {
        assert_eq!(
            sample_with_tail(new, graph, q),
            sample_with_tail(old, graph, q),
            "{what}: {} diverged from its oracle on query {k} (users {:?}, items {:?})",
            new.name(),
            q.users,
            q.items
        );
    }
}

/// Single, multiple and duplicated seeds spread over `graph`.
fn mixed_queries(graph: &BipartiteGraph, n: usize, m: usize, count: usize) -> Vec<Query> {
    let (nu, ni) = (graph.num_users(), graph.num_items());
    (0..count)
        .map(|k| {
            let (u, i) = ((k * 37 + 1) % nu, (k * 11) % ni);
            let (users, items) = match k % 4 {
                0 => (vec![u], vec![i]),
                1 => (vec![u, (u + 1) % nu, u], vec![i, i]),
                2 => (vec![u, u], vec![i, (i + 3) % ni, (i + 5) % ni]),
                _ => (vec![], vec![i]),
            };
            Query {
                users,
                items,
                n,
                m,
                rng_seed: 1_000 + k as u64,
            }
        })
        .collect()
}

#[test]
fn sampled_contexts_match_legacy_bit_for_bit() {
    for graph_seed in 0..4u64 {
        let graph = random_graph(40, 35, 0.08, graph_seed);
        for sample_seed in 0..16u64 {
            let mut rng_new = StdRng::seed_from_u64(sample_seed);
            let mut rng_old = StdRng::seed_from_u64(sample_seed);
            let seed_user = (sample_seed as usize * 7) % 40;
            let seed_item = (sample_seed as usize * 11) % 35;
            let new =
                NeighborhoodSampler.sample(&graph, &[seed_user], &[seed_item], 8, 6, &mut rng_new);
            let old = legacy_sample(&graph, &[seed_user], &[seed_item], 8, 6, &mut rng_old);
            assert_eq!(
                new, old,
                "graph seed {graph_seed}, sample seed {sample_seed}"
            );
        }
    }
}

#[test]
fn sampled_contexts_match_legacy_on_sparse_and_dense_graphs() {
    // Sparse graph: BFS dries up and the random fill-in must consume the
    // same RNG stream. Dense graph: every hop overflows its budget and the
    // shuffle order must match.
    for (density, n, m) in [(0.01, 10, 10), (0.6, 6, 5)] {
        let graph = random_graph(30, 30, density, 99);
        for sample_seed in 100..110u64 {
            let mut rng_new = StdRng::seed_from_u64(sample_seed);
            let mut rng_old = StdRng::seed_from_u64(sample_seed);
            let new = NeighborhoodSampler.sample(&graph, &[3], &[4], n, m, &mut rng_new);
            let old = legacy_sample(&graph, &[3], &[4], n, m, &mut rng_old);
            assert_eq!(new, old, "density {density}, sample seed {sample_seed}");
        }
    }
}

#[test]
fn rng_streams_stay_aligned_after_sampling() {
    // Stronger than equal outputs: the samplers must consume *exactly* the
    // same number of RNG draws, or downstream consumers sharing the rng
    // (context construction shuffles) would diverge. One RNG pair runs
    // through the whole sequence, so a drift anywhere shows at the next
    // check.
    let graph = random_graph(25, 25, 0.15, 7);
    for (new, old) in sampler_pairs(&graph) {
        let mut rng_new = StdRng::seed_from_u64(42);
        let mut rng_old = StdRng::seed_from_u64(42);
        for k in 0..8usize {
            let got = new.sample(&graph, &[k], &[k], 7, 7, &mut rng_new);
            let want = old.sample(&graph, &[k], &[k], 7, 7, &mut rng_old);
            assert_eq!(got, want, "{} sample {k}", new.name());
            assert_eq!(
                rng_new.gen::<u64>(),
                rng_old.gen::<u64>(),
                "{}: RNG streams diverged after sample {k}",
                new.name()
            );
        }
    }
}

/// Counts the draws a sampler makes.
struct CountingRng {
    inner: StdRng,
    draws: usize,
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

#[test]
fn hub_hops_with_a_spent_budget_still_draw() {
    let graph = hub_graph();
    let hub_raters = graph.item_degree(0);
    assert!(hub_raters * 10 >= HUB_USERS * 9, "{hub_raters} hub raters");

    for seed_user in [1usize, 7, 333, 1_999] {
        assert!(rates_hub(seed_user));
        // A small item's ≈ 150 raters fill the 16 users in hop 1 while the
        // hub joins the item frontier; hop 2 then finds every other hub
        // rater with no user budget left and must draw once per candidate
        // above the first.
        let small_item = 1 + (seed_user * 3) % (HUB_ITEMS - 1);
        let run = |sampler: &dyn ContextSampler| {
            let mut rng = CountingRng {
                inner: StdRng::seed_from_u64(seed_user as u64),
                draws: 0,
            };
            let sel = sampler.sample(&graph, &[seed_user], &[small_item], 16, 16, &mut rng);
            (sel, rng.draws, rng.inner.gen::<u64>())
        };
        let new = run(&NeighborhoodSampler);
        assert_eq!(new, run(&LegacyNeighborhood), "seed user {seed_user}");
        assert!(
            new.1 > hub_raters - 16 + 100,
            "seed user {seed_user}: {} draws do not cover a budget-0 walk of the hub",
            new.1
        );
    }

    // Seeded at the hub itself: a 1 900-element shuffle truncated to 15,
    // and every other seed shape, for all three samplers.
    let mut queries = mixed_queries(&graph, 16, 16, 24);
    queries.extend((0..8).map(|k| Query {
        users: vec![k * 211 % HUB_USERS],
        items: vec![0],
        n: 16,
        m: 16,
        rng_seed: k as u64,
    }));
    for (new, old) in sampler_pairs(&graph) {
        assert_matches_oracle(&*new, &*old, &graph, &queries, "hub graph");
    }
}

#[test]
fn one_thread_reuses_its_scratch_across_graphs_of_different_sizes() {
    // Large → small → large on one thread: stamps the large graph left
    // behind must read as unmarked on the small one (and the other way
    // round), whichever sampler left them.
    let large = hub_graph();
    let small = random_graph(30, 30, 0.1, 5);
    let tiny = BipartiteGraph::from_ratings(3, 2, &[Rating::new(1, 1, 4.0)]);
    for round in 0..2 {
        for (graph, n, m, count) in [(&large, 16, 16, 12), (&small, 8, 6, 12), (&tiny, 3, 2, 4)] {
            let queries = mixed_queries(graph, n, m, count);
            for (new, old) in sampler_pairs(graph) {
                assert_matches_oracle(&*new, &*old, graph, &queries, &format!("round {round}"));
            }
        }
    }
}

#[test]
fn four_threads_sampling_concurrently_match_the_serial_oracle() {
    let large = hub_graph();
    let small = random_graph(30, 30, 0.1, 5);
    let jobs: Vec<(&BipartiteGraph, Vec<Query>)> = vec![
        (&large, mixed_queries(&large, 16, 16, 16)),
        (&small, mixed_queries(&small, 8, 6, 16)),
    ];
    let expected: Vec<Vec<Vec<(ContextSelection, u64)>>> = jobs
        .iter()
        .map(|(graph, queries)| {
            sampler_pairs(graph)
                .iter()
                .map(|(_, old)| {
                    queries
                        .iter()
                        .map(|q| sample_with_tail(&**old, graph, q))
                        .collect()
                })
                .collect()
        })
        .collect();

    // Every thread runs the whole job list, each from a different offset,
    // all released together: a scratch shared between threads would show
    // as one thread's marks hiding another's candidates.
    let barrier = Barrier::new(4);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4usize)
            .map(|t| {
                let (jobs, expected, barrier) = (&jobs, &expected, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for (j, (graph, queries)) in jobs.iter().enumerate() {
                        for (s, (new, _)) in sampler_pairs(graph).iter().enumerate() {
                            for k in 0..queries.len() {
                                let k = (k + t * 5) % queries.len();
                                assert_eq!(
                                    sample_with_tail(&**new, graph, &queries[k]),
                                    expected[j][s][k],
                                    "thread {t}, graph {j}, {} query {k}",
                                    new.name()
                                );
                            }
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("sampling thread");
        }
    });
}
