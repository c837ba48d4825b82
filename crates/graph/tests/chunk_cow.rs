//! Copy-on-write by chunk, held two ways: a graph grown by any sequence of
//! `commit_edges` batches is, row for row, the graph `from_ratings` builds
//! from the concatenated edge list (and both are what a map with
//! first-insert-wins says), with every pinned predecessor left as it was; and
//! a commit of `k` new edges replaces at most `2k` chunks.

use std::collections::BTreeMap;

use hire_graph::{BipartiteGraph, EpochSource, EpochedGraph, Rating};
use proptest::collection::vec;
use proptest::prelude::*;

/// Rows per adjacency chunk (private to `bipartite.rs`; the generator only
/// aims at its boundaries, nothing here depends on the value being right).
const CHUNK_ROWS: usize = 64;

/// Maps a raw draw to a vertex of `0..count`, a tenth of the time or more to
/// a row on a chunk boundary or the last row.
fn vertex(raw: usize, count: usize) -> usize {
    let edges = [
        0,
        CHUNK_ROWS - 1,
        CHUNK_ROWS,
        2 * CHUNK_ROWS - 1,
        2 * CHUNK_ROWS,
        count - 1,
    ];
    let k = raw % (count + count / 8 + edges.len());
    if k < count {
        k
    } else {
        edges[(k - count) % edges.len()].min(count - 1)
    }
}

/// One raw edge: user draw, item draw, rating level, and a repeat selector —
/// 0 re-rates a pair already in the history (with this edge's value).
type RawEdge = (usize, usize, u32, usize);

fn raw_edges(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RawEdge>> {
    vec((0usize..1 << 20, 0usize..1 << 20, 0u32..9, 0usize..4), len)
}

fn rating(raw: RawEdge, users: usize, items: usize, history: &[Rating]) -> Rating {
    let (u, i, level, repeat) = raw;
    let value = 1.0 + level as f32 * 0.5;
    if repeat == 0 && !history.is_empty() {
        let earlier = history[u % history.len()];
        return Rating::new(earlier.user, earlier.item, value);
    }
    Rating::new(vertex(u, users), vertex(i, items), value)
}

/// `graph` is exactly the edge list `history`, first occurrence of a pair
/// winning: every row on both sides, `edges()` and `edge(k)`, `rating()`,
/// degrees, counts.
fn assert_is(graph: &BipartiteGraph, users: usize, items: usize, history: &[Rating], what: &str) {
    let mut model: BTreeMap<(usize, usize), f32> = BTreeMap::new();
    for r in history {
        model.entry((r.user, r.item)).or_insert(r.value);
    }
    let rebuilt = BipartiteGraph::from_ratings(users, items, history);
    for g in [graph, &rebuilt] {
        assert_eq!((g.num_users(), g.num_items()), (users, items), "{what}");
        assert_eq!(g.num_ratings(), model.len(), "{what}");
        let edges: Vec<((usize, usize), f32)> =
            g.edges().map(|r| ((r.user, r.item), r.value)).collect();
        let expected: Vec<((usize, usize), f32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(edges, expected, "{what}: edges()");
        for (index, edge) in g.edges().enumerate() {
            assert_eq!(g.edge(index), Some(edge), "{what}: edge({index})");
        }
        assert_eq!(g.edge(g.num_ratings()), None, "{what}: edge past the last");
        for (&(u, i), &v) in &model {
            assert_eq!(g.rating(u, i), Some(v), "{what}: rating({u}, {i})");
        }
        assert_eq!(
            g.rating(users - 1, items - 1),
            model.get(&(users - 1, items - 1)).copied()
        );
    }
    for u in 0..users {
        let row: Vec<(u32, f32)> = model
            .range((u, 0)..(u + 1, 0))
            .map(|(&(_, i), &v)| (i as u32, v))
            .collect();
        assert_eq!(graph.user_neighbors(u), &row[..], "{what}: user row {u}");
        assert_eq!(
            rebuilt.user_neighbors(u),
            &row[..],
            "{what}: rebuilt user row {u}"
        );
        assert_eq!(graph.user_degree(u), row.len());
    }
    for i in 0..items {
        let row: Vec<(u32, f32)> = model
            .iter()
            .filter(|(&(_, item), _)| item == i)
            .map(|(&(u, _), &v)| (u as u32, v))
            .collect();
        assert_eq!(graph.item_neighbors(i), &row[..], "{what}: item row {i}");
        assert_eq!(
            rebuilt.item_neighbors(i),
            &row[..],
            "{what}: rebuilt item row {i}"
        );
        assert_eq!(graph.item_degree(i), row.len());
    }
    // Same entries summed in the same order: the same bits.
    assert_eq!(
        graph.mean_rating().map(f32::to_bits),
        rebuilt.mean_rating().map(f32::to_bits),
        "{what}: mean_rating()"
    );
    assert_eq!(graph.density().to_bits(), rebuilt.density().to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sizes straddle one, two and three chunks (and the 1-row graph), so the
    /// last chunk is partial in most cases and full in some.
    #[test]
    fn commits_equal_one_build_and_leave_pins_alone(
        users in 1usize..200,
        items in 1usize..140,
        base in raw_edges(0..260),
        batches in vec(raw_edges(0..9), 0..10),
    ) {
        let mut history: Vec<Rating> = Vec::new();
        for raw in base {
            history.push(rating(raw, users, items, &history));
        }
        let graph = EpochedGraph::new(BipartiteGraph::from_ratings(users, items, &history));
        let mut pins = vec![(graph.pin(), history.len())];
        for (k, batch) in batches.into_iter().enumerate() {
            let mut extra = Vec::new();
            for raw in batch {
                // In-batch repeats: the history a repeat draws from includes
                // this batch's earlier edges.
                history.push(rating(raw, users, items, &history));
                extra.push(*history.last().expect("just pushed"));
            }
            prop_assert_eq!(graph.commit_edges(&extra), k as u64 + 1);
            pins.push((graph.pin(), history.len()));
        }
        prop_assert_eq!(graph.epoch() + 1, pins.len() as u64);
        for (pin, seen) in &pins {
            let what = format!("{users} x {items}, epoch {}", pin.epoch());
            assert_is(pin, users, items, &history[..*seen], &what);
        }
    }
}

/// A deterministic 1 000 × 300 graph: user `u` rates `3 + u % 5` items.
fn wide_graph() -> BipartiteGraph {
    let ratings: Vec<Rating> = (0..1_000)
        .flat_map(|u| (0..3 + u % 5).map(move |k| Rating::new(u, (u * 7 + k * 31) % 300, 3.0)))
        .collect();
    BipartiteGraph::from_ratings(1_000, 300, &ratings)
}

/// The `k`-th pair of a sequence no two of whose pairs share a user or an
/// item chunk, none of them rated in [`wide_graph`].
fn far_apart(base: &BipartiteGraph, k: usize) -> Rating {
    let r = Rating::new(k * 2 * CHUNK_ROWS + 1, (k * CHUNK_ROWS + 5) % 300, 4.5);
    assert_eq!(base.rating(r.user, r.item), None);
    r
}

#[test]
fn a_commit_of_k_edges_replaces_at_most_2k_chunks() {
    let base = wide_graph();
    let whole = base.chunk_sharing(&base);
    assert_eq!(whole.shared_chunks, whole.chunks);
    assert_eq!(
        whole.shared_bytes + std::mem::size_of::<usize>() * whole.chunks,
        whole.bytes
    );
    assert_eq!(
        whole.chunks,
        1_000usize.div_ceil(CHUNK_ROWS) + 300usize.div_ceil(CHUNK_ROWS)
    );

    for k in [1, 2, 4] {
        let graph = EpochedGraph::new(base.clone());
        let before = graph.pin();
        let extra: Vec<Rating> = (0..k).map(|k| far_apart(&base, k)).collect();
        graph.commit_edges(&extra);
        let sharing = graph.pin().chunk_sharing(&before);
        assert_eq!(sharing.chunks, whole.chunks);
        // Spread over distinct chunks on both sides, the bound is met.
        assert_eq!(sharing.chunks - sharing.shared_chunks, 2 * k, "{k} edges");
        // Each new edge is one 8-byte entry on each side.
        assert_eq!(sharing.bytes, whole.bytes + 2 * 8 * k);
    }

    // Eight new edges of one user, all items of one chunk: one chunk a side.
    let graph = EpochedGraph::new(base.clone());
    let before = graph.pin();
    let extra: Vec<Rating> = (0..64)
        .filter(|&i| base.rating(999, i).is_none())
        .take(8)
        .map(|i| Rating::new(999, i, 2.0))
        .collect();
    assert_eq!(extra.len(), 8);
    graph.commit_edges(&extra);
    let after = graph.pin();
    let sharing = after.chunk_sharing(&before);
    assert_eq!(sharing.chunks - sharing.shared_chunks, 2);
    assert_eq!(after.num_ratings(), before.num_ratings() + 8);
    // The predecessor shares the same chunks back, and still has its rows.
    assert_eq!(
        before.chunk_sharing(&after).shared_chunks,
        sharing.shared_chunks
    );
    assert_eq!(before.user_degree(999), after.user_degree(999) - 8);
}

#[test]
#[cfg(target_pointer_width = "64")]
#[should_panic(expected = "do not fit the 32-bit adjacency entries")]
fn vertex_counts_above_u32_are_refused_before_allocating() {
    BipartiteGraph::empty(1, u32::MAX as usize + 1);
}
