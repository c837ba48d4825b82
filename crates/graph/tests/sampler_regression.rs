//! Pins the three samplers bit-for-bit — selection **and** the RNG stream
//! after the call — against a plain reference of the rule they run
//! (`oracle/mod.rs`), and pins that rule's *law* to the implementation that
//! predates every membership optimisation and the hub-bounded hop (also in
//! `oracle/mod.rs`, verbatim).
//!
//! Bitwise, against the reference: the per-thread stamp scratch, reused
//! across calls, graphs, samplers and threads (its generation wrap is
//! pinned from the unit tests of `src/sampler.rs`, which can reach it), the
//! early-exit walk that stops at one candidate more than the budget holds,
//! the rejection draws that replace the shuffle of an overflowing hop, and
//! the partial Fisher–Yates of the random fill.
//!
//! Against the legacy samplers: bit for bit wherever neither rule draws
//! (every hop fits, no fill), and in law — a two-sample χ² on which
//! entities a context includes and on its first pick — everywhere else.
//! The stream changed once, with the hub-bounded hop; the law did not.

use hire_graph::{BipartiteGraph, ContextSampler, ContextSelection, NeighborhoodSampler, Rating};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Barrier;

mod oracle;
use oracle::{
    hub_graph, hub_graph_with, random_graph, rates_hub, reference_sample, sampler_pairs,
    LegacyNeighborhood, ReferenceNeighborhood, HUB_ITEMS, HUB_USERS,
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
fn sampled_contexts_match_the_reference_bit_for_bit() {
    for graph_seed in 0..4u64 {
        let graph = random_graph(40, 35, 0.08, graph_seed);
        for sample_seed in 0..16u64 {
            let mut rng_new = StdRng::seed_from_u64(sample_seed);
            let mut rng_old = StdRng::seed_from_u64(sample_seed);
            let seed_user = (sample_seed as usize * 7) % 40;
            let seed_item = (sample_seed as usize * 11) % 35;
            let new =
                NeighborhoodSampler.sample(&graph, &[seed_user], &[seed_item], 8, 6, &mut rng_new);
            let old = reference_sample(&graph, &[seed_user], &[seed_item], 8, 6, &mut rng_old);
            assert_eq!(
                new, old,
                "graph seed {graph_seed}, sample seed {sample_seed}"
            );
            assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>());
        }
    }
}

#[test]
fn sampled_contexts_match_the_reference_on_sparse_and_dense_graphs() {
    // Sparse graph: BFS dries up and the random fill-in must consume the
    // same RNG stream. Dense graph: every hop overflows its budget and the
    // draws and their rejections must match.
    for (density, n, m) in [(0.01, 10, 10), (0.6, 6, 5)] {
        let graph = random_graph(30, 30, density, 99);
        for sample_seed in 100..110u64 {
            let mut rng_new = StdRng::seed_from_u64(sample_seed);
            let mut rng_old = StdRng::seed_from_u64(sample_seed);
            let new = NeighborhoodSampler.sample(&graph, &[3], &[4], n, m, &mut rng_new);
            let old = reference_sample(&graph, &[3], &[4], n, m, &mut rng_old);
            assert_eq!(new, old, "density {density}, sample seed {sample_seed}");
            assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>());
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

/// The selection, the draws it took and the next draw, from a
/// [`CountingRng`] seeded with `seed`.
fn counted(
    sampler: &dyn ContextSampler,
    graph: &BipartiteGraph,
    (users, items): (&[usize], &[usize]),
    (n, m): (usize, usize),
    seed: u64,
) -> (ContextSelection, usize, u64) {
    let mut rng = CountingRng {
        inner: StdRng::seed_from_u64(seed),
        draws: 0,
    };
    let sel = sampler.sample(graph, users, items, n, m, &mut rng);
    (sel, rng.draws, rng.inner.gen())
}

#[test]
fn a_spent_side_reads_no_row_and_draws_nothing() {
    let graph = hub_graph();
    let hub_raters = graph.item_degree(0);
    assert!(hub_raters * 10 >= HUB_USERS * 9, "{hub_raters} hub raters");

    for seed_user in [1usize, 7, 333, 1_999] {
        assert!(rates_hub(seed_user));
        // A small item's ≈ 150 raters overflow the 16 users in hop 1 while
        // the hub joins the item frontier; hop 2 then meets every other hub
        // rater with no user budget left, and must neither look at them
        // (the reference returns before it reads a row; the unit test of
        // the same name counts rows) nor draw. The legacy sampler burnt one
        // draw per hub rater there.
        let small_item = 1 + (seed_user * 3) % (HUB_ITEMS - 1);
        let query = (&[seed_user][..], &[small_item][..]);
        let new = counted(
            &NeighborhoodSampler,
            &graph,
            query,
            (16, 16),
            seed_user as u64,
        );
        let reference = counted(
            &ReferenceNeighborhood,
            &graph,
            query,
            (16, 16),
            seed_user as u64,
        );
        assert_eq!(new, reference, "seed user {seed_user}");
        let legacy = counted(
            &LegacyNeighborhood,
            &graph,
            query,
            (16, 16),
            seed_user as u64,
        );
        assert!(
            legacy.1 > hub_raters - 16 + 100 && new.1 <= 4 * (16 + 16),
            "seed user {seed_user}: {} draws (legacy {})",
            new.1,
            legacy.1
        );
    }

    // Seeded at the hub itself: 15 of 1 900 raters drawn, and every other
    // seed shape, for all three samplers.
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
fn contexts_where_no_hop_overflows_and_no_fill_runs_match_legacy_bit_for_bit() {
    // Where the legacy sampler draws nothing, no hop with room overflowed
    // and no fill shuffled: the early-exit walk took each hop whole in
    // first-seen order, as the legacy walk did. A fill of a one-entity pool
    // draws nothing in the legacy rule and once in the new, so the stream
    // is compared only where neither draws.
    let graphs = [
        random_graph(30, 30, 0.05, 3),
        random_graph(40, 35, 0.08, 1),
        random_graph(12, 10, 0.3, 4),
        hub_graph(),
    ];
    let mut same_stream = 0;
    for graph in &graphs {
        let (nu, ni) = (graph.num_users(), graph.num_items());
        for budget in [4, 8, 16, 40, 2_000] {
            let (n, m) = (budget.min(nu), budget.min(ni));
            for q in mixed_queries(graph, n, m, 40) {
                let query = (&q.users[..], &q.items[..]);
                let legacy = counted(&LegacyNeighborhood, graph, query, (n, m), q.rng_seed);
                if legacy.1 > 0 {
                    continue;
                }
                let new = counted(&NeighborhoodSampler, graph, query, (n, m), q.rng_seed);
                assert_eq!(new.0, legacy.0, "{n}x{m} query {:?} {:?}", q.users, q.items);
                if new.1 == 0 {
                    assert_eq!(new.2, legacy.2);
                    same_stream += 1;
                }
            }
        }
    }
    assert!(
        same_stream >= 100,
        "only {same_stream} queries without draws"
    );
}

/// Whether `stat` lies above the 0.999 quantile of χ²(`df`), by the
/// Wilson–Hilferty cube-root normal approximation (`z > 3.09`; slightly
/// conservative at one or two degrees of freedom). With no degree of
/// freedom both samples sat in one cell, and any statistic rejects.
fn chi2_rejects_at_0_001(stat: f64, df: usize) -> bool {
    if df == 0 {
        return stat > 0.0;
    }
    let k = df as f64;
    let z = ((stat / k).cbrt() - (1.0 - 2.0 / (9.0 * k))) / (2.0 / (9.0 * k)).sqrt();
    z > 3.090_2
}

/// Two-sample χ² of the count vectors `a` and `b` (equal totals): cells
/// whose pooled count is below 10 are merged into one. Returns the
/// statistic and its degrees of freedom.
fn two_sample_chi2(a: &[u64], b: &[u64]) -> (f64, usize) {
    let (total_a, total_b) = (a.iter().sum::<u64>() as f64, b.iter().sum::<u64>() as f64);
    let mut cells: Vec<(u64, u64)> = Vec::new();
    let mut rare = (0, 0);
    for (&x, &y) in a.iter().zip(b) {
        if x + y >= 10 {
            cells.push((x, y));
        } else {
            rare = (rare.0 + x, rare.1 + y);
        }
    }
    if rare.0 + rare.1 > 0 {
        cells.push(rare);
    }
    let total = total_a + total_b;
    let stat = cells
        .iter()
        .map(|&(x, y)| {
            let pooled = (x + y) as f64;
            let (ea, eb) = (pooled * total_a / total, pooled * total_b / total);
            (x as f64 - ea).powi(2) / ea + (y as f64 - eb).powi(2) / eb
        })
        .sum();
    (stat, cells.len().saturating_sub(1))
}

/// Per-entity inclusion counts (seeds excluded) and first-pick counts of
/// `samples` contexts drawn by `sampler` for one query, RNG seeds from
/// `first_seed` on: `[users…, items…]` each.
fn law(
    sampler: &dyn ContextSampler,
    graph: &BipartiteGraph,
    (user, item, n, m): (usize, usize, usize, usize),
    samples: u64,
    first_seed: u64,
) -> (Vec<u64>, Vec<u64>) {
    let nu = graph.num_users();
    let mut included = vec![0u64; nu + graph.num_items()];
    let mut first = vec![0u64; nu + graph.num_items()];
    for k in 0..samples {
        let mut rng = StdRng::seed_from_u64(first_seed + k);
        let sel = sampler.sample(graph, &[user], &[item], n, m, &mut rng);
        for (picks, offset) in [(&sel.users, 0), (&sel.items, nu)] {
            if let Some(&x) = picks.get(1) {
                first[offset + x] += 1;
            }
            for &x in &picks[1..] {
                included[offset + x] += 1;
            }
        }
    }
    (included, first)
}

#[test]
fn sampling_law_matches_legacy() {
    // 100 000 contexts a side per query, disjoint seed ranges. The hub
    // graphs are built small: on the full one the legacy sampler's
    // quadratic hop dedup costs ≈ 1 ms a sample (the full one is pinned
    // bitwise to the reference instead). In them each user rates the hub
    // and one class of three small items ({c, c + 13, c + 26}).
    // - Seeded at the hub (100 users, 95 raters) and a non-rater: hop 1
    //   draws 15 of the hub's raters from one row; hop 2 draws 12 items
    //   from their 15 rows, where the hub (selected) is in every row and
    //   each class in several, so most tries are rejected or land on a row
    //   with an earlier copy.
    // - Seeded at a small item (400 users, ≈ 30 raters) and a non-rater:
    //   hop 1 draws 15 of the item's raters; its class and the hub fit;
    //   the random fill draws the other 9 items.
    // - A denser random graph: hop 1 overflows the users (7 raters for 5
    //   places) and hop 2 the items (4 places, drawn from the picks' rows).
    // - A sparse random graph seeded at a degree-0 user: the random fill
    //   picks the users.
    const SAMPLES: u64 = 100_000;
    let (hub_100, hub_400) = (hub_graph_with(100), hub_graph_with(400));
    let dense = random_graph(60, 40, 0.15, 17);
    let sparse = random_graph(60, 40, 0.03, 17);
    let cold_user = (0..60)
        .find(|&u| sparse.user_degree(u) == 0)
        .expect("a degree-0 user");
    let cases = [
        ("hub graph, at the hub", &hub_100, (20, 0, 16, 16)),
        ("hub graph, at a small item", &hub_400, (20, 5, 16, 16)),
        ("dense random graph", &dense, (5, 7, 6, 12)),
        ("sparse random graph", &sparse, (cold_user, 7, 16, 16)),
    ];
    for (what, graph, query) in cases {
        let (new_in, new_first) = law(&NeighborhoodSampler, graph, query, SAMPLES, 0);
        let (old_in, old_first) = law(&LegacyNeighborhood, graph, query, SAMPLES, 1 << 32);
        for (which, a, b) in [
            ("inclusion", &new_in, &old_in),
            ("first pick", &new_first, &old_first),
        ] {
            let (stat, df) = two_sample_chi2(a, b);
            eprintln!("{what}, {which}: chi2 {stat:.1} on {df} df");
            assert!(
                which != "inclusion" || df >= 3,
                "{what}: {df} df is no test"
            );
            assert!(
                !chi2_rejects_at_0_001(stat, df),
                "{what}, {which}: chi2 {stat:.1} on {df} df rejects the legacy law at p < 0.001"
            );
        }
    }
}

#[test]
fn draws_per_sample_do_not_grow_with_hub_degree() {
    // The same queries on the hub graph and on one with ten times the
    // users, so every degree — the hub's 1 900 raters become 19 000 — is
    // ten times larger.
    let (small, large) = (hub_graph_with(HUB_USERS), hub_graph_with(10 * HUB_USERS));
    let mean_draws = |graph: &BipartiteGraph, sampler: &dyn ContextSampler| {
        let queries = (0..64).map(|k| Query {
            users: vec![1 + 20 * k],
            items: vec![if k % 4 == 0 {
                0
            } else {
                1 + k % (HUB_ITEMS - 1)
            }],
            n: 16,
            m: 16,
            rng_seed: k as u64,
        });
        let draws: Vec<usize> = queries
            .map(|q| counted(sampler, graph, (&q.users, &q.items), (q.n, q.m), q.rng_seed).1)
            .collect();
        let max = *draws.iter().max().expect("queries");
        (draws.iter().sum::<usize>() as f64 / draws.len() as f64, max)
    };
    let (at_1x, max_1x) = mean_draws(&small, &NeighborhoodSampler);
    let (at_10x, max_10x) = mean_draws(&large, &NeighborhoodSampler);
    assert!(
        at_10x <= 1.25 * at_1x && max_1x.max(max_10x) <= 4 * (16 + 16),
        "draws per sample {at_1x:.1} (max {max_1x}) -> {at_10x:.1} (max {max_10x}) at 10x the degree"
    );
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
