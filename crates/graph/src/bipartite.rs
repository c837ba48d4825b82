//! The user-item bipartite rating graph.
//!
//! Both sides of the adjacency are stored as **row chunks behind `Arc`**:
//! 64 consecutive rows (a private `const`) share one chunk, which owns its row
//! offsets and one contiguous, 8-byte-per-entry `(neighbor, rating)` buffer.
//! A row is one slice (a shift, a mask and two loads away), a neighbourhood
//! scan walks contiguous memory, and a snapshot that differs from its
//! predecessor in a few rows — what
//! [`EpochedGraph::commit_edges`](crate::EpochedGraph::commit_edges)
//! installs per rating — rebuilds only the chunks owning those rows and
//! shares every other chunk by reference count
//! ([`BipartiteGraph::with_extra_edges`]).

use std::sync::Arc;

/// A rated edge in the bipartite graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rating {
    /// User index.
    pub user: usize,
    /// Item index.
    pub item: usize,
    /// Observed rating value.
    pub value: f32,
}

impl Rating {
    /// Convenience constructor.
    pub fn new(user: usize, item: usize, value: f32) -> Self {
        Rating { user, item, value }
    }
}

/// log2 of the rows per chunk. 64 rows is ≈ 940 chunks at 50 000 × 10 000
/// (the table a successor snapshot clones) and a 4–22 KB mean chunk there
/// (what an insert copies per side); the worst chunk is the one owning a hub
/// row, which no row count can make smaller than the row.
const CHUNK_SHIFT: u32 = 6;
const CHUNK_ROWS: usize = 1 << CHUNK_SHIFT;

/// `(neighbor, rating)`; vertex counts are checked to fit at construction.
type Entry = (u32, f32);

/// [`CHUNK_ROWS`] consecutive rows. Row `r`'s neighbors are
/// `entries[offsets[r]..offsets[r + 1]]`, sorted by neighbor index; rows past
/// the graph's last vertex are empty.
#[derive(Debug)]
struct Chunk {
    offsets: [u32; CHUNK_ROWS + 1],
    entries: Vec<Entry>,
}

impl Chunk {
    fn row(&self, row: usize) -> &[Entry] {
        &self.entries[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }

    fn bytes(&self) -> usize {
        std::mem::size_of::<Chunk>() + std::mem::size_of_val(self.entries.as_slice())
    }

    /// This chunk plus `extra` — `(node, entry)` of this chunk's rows, sorted
    /// by `(node, neighbor)`, none already present.
    fn with_inserted(&self, extra: &[(usize, Entry)]) -> Chunk {
        let mut offsets = [0u32; CHUNK_ROWS + 1];
        let mut entries = Vec::with_capacity(self.entries.len() + extra.len());
        let mut extra = extra.iter().peekable();
        for row in 0..CHUNK_ROWS {
            let mut old = self.row(row);
            while let Some(&(_, entry)) = extra.next_if(|&&(node, _)| node % CHUNK_ROWS == row) {
                let (before, after) = old.split_at(old.partition_point(|&(x, _)| x < entry.0));
                entries.extend_from_slice(before);
                entries.push(entry);
                old = after;
            }
            entries.extend_from_slice(old);
            offsets[row + 1] = chunk_offset(entries.len());
        }
        Chunk { offsets, entries }
    }
}

fn chunk_offset(len: usize) -> u32 {
    u32::try_from(len).expect("a chunk's entries fit its u32 offsets")
}

/// One side of the graph: every vertex's sorted neighbor row, in chunks.
#[derive(Debug, Clone)]
struct ChunkedAdjacency {
    num_nodes: usize,
    chunks: Vec<Arc<Chunk>>,
    len: usize,
}

impl ChunkedAdjacency {
    fn neighbors(&self, node: usize) -> &[Entry] {
        assert!(
            node < self.num_nodes,
            "node {node} out of range {}",
            self.num_nodes
        );
        self.chunks[node >> CHUNK_SHIFT].row(node % CHUNK_ROWS)
    }

    fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.chunks.iter().flat_map(|chunk| &chunk.entries)
    }

    /// A successor holding `extra` as well — `(node, entry)` pairs, none
    /// already present, no pair twice. Chunks owning none of the touched
    /// rows are shared with `self`.
    fn with_inserted(&self, mut extra: Vec<(usize, Entry)>) -> ChunkedAdjacency {
        extra.sort_by_key(|&(node, (neighbor, _))| (node, neighbor));
        let mut chunks = self.chunks.clone();
        for group in extra.chunk_by(|a, b| a.0 >> CHUNK_SHIFT == b.0 >> CHUNK_SHIFT) {
            let at = group[0].0 >> CHUNK_SHIFT;
            chunks[at] = Arc::new(self.chunks[at].with_inserted(group));
        }
        ChunkedAdjacency {
            num_nodes: self.num_nodes,
            chunks,
            len: self.len + extra.len(),
        }
    }
}

/// Second pass of the two-pass build: chunks sized by the first pass's
/// per-vertex edge counts, filled in stream order, then sorted and
/// deduplicated row by row.
struct ChunkFiller {
    chunks: Vec<Chunk>,
    /// Where each vertex's next entry goes in its chunk's buffer.
    cursor: Vec<u32>,
}

impl ChunkFiller {
    /// `degrees[v]` is the number of entries (duplicates included) vertex
    /// `v` will be [`push`](Self::push)ed.
    fn new(mut degrees: Vec<u32>) -> ChunkFiller {
        let chunks = degrees
            .chunks_mut(CHUNK_ROWS)
            .map(|rows| {
                let mut offsets = [0u32; CHUNK_ROWS + 1];
                let mut filled = 0u32;
                for (row, degree) in rows.iter_mut().enumerate() {
                    let start = filled;
                    filled = chunk_offset(filled as usize + *degree as usize);
                    *degree = start;
                    offsets[row + 1] = filled;
                }
                offsets[rows.len() + 1..].fill(filled);
                Chunk {
                    offsets,
                    entries: vec![(0, 0.0); filled as usize],
                }
            })
            .collect();
        ChunkFiller {
            chunks,
            cursor: degrees,
        }
    }

    fn push(&mut self, node: usize, entry: Entry) {
        let at = &mut self.cursor[node];
        self.chunks[node >> CHUNK_SHIFT].entries[*at as usize] = entry;
        *at += 1;
    }

    /// Stable-sorts each row by neighbor and compacts duplicate neighbors in
    /// place, keeping the first pushed.
    fn finish(self) -> ChunkedAdjacency {
        let num_nodes = self.cursor.len();
        let mut len = 0;
        let chunks = self
            .chunks
            .into_iter()
            .map(|mut chunk| {
                let mut write = 0;
                for row in 0..CHUNK_ROWS {
                    let start = chunk.offsets[row] as usize;
                    let end = chunk.offsets[row + 1] as usize;
                    chunk.entries[start..end].sort_by_key(|&(x, _)| x);
                    chunk.offsets[row] = write as u32;
                    let mut last = None;
                    for i in start..end {
                        let entry = chunk.entries[i];
                        if last != Some(entry.0) {
                            last = Some(entry.0);
                            chunk.entries[write] = entry;
                            write += 1;
                        }
                    }
                }
                chunk.offsets[CHUNK_ROWS] = write as u32;
                chunk.entries.truncate(write);
                chunk.entries.shrink_to_fit();
                len += write;
                Arc::new(chunk)
            })
            .collect();
        ChunkedAdjacency {
            num_nodes,
            chunks,
            len,
        }
    }
}

/// What [`BipartiteGraph::chunk_sharing`] counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkSharing {
    /// Adjacency chunks of this snapshot, both sides.
    pub chunks: usize,
    /// Of those, the ones the other snapshot holds too (same allocation).
    pub shared_chunks: usize,
    /// Bytes of adjacency storage: the chunks and the two chunk tables.
    pub bytes: usize,
    /// Bytes of the shared chunks (a table is never shared).
    pub shared_bytes: usize,
    /// Bytes of this snapshot's largest chunk.
    pub largest_chunk_bytes: usize,
}

/// User-item bipartite graph with ratings on the edges: sorted neighbor rows
/// on both sides (see the module docs for the layout), O(log d) rating
/// lookup, O(1) neighbor-slice access. `Clone` shares every chunk.
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    /// Per user: sorted `(item, rating)` pairs.
    user_adj: ChunkedAdjacency,
    /// Per item: sorted `(user, rating)` pairs.
    item_adj: ChunkedAdjacency,
}

impl BipartiteGraph {
    /// Builds a graph from an edge list. Duplicate `(user, item)` pairs keep
    /// the first occurrence's rating. Panics on out-of-range indices.
    pub fn from_ratings(num_users: usize, num_items: usize, ratings: &[Rating]) -> Self {
        Self::from_edge_stream(num_users, num_items, |emit| {
            for &r in ratings {
                emit(r);
            }
        })
    }

    /// Empty graph with the given vertex counts.
    pub fn empty(num_users: usize, num_items: usize) -> Self {
        Self::from_ratings(num_users, num_items, &[])
    }

    /// Number of user vertices.
    pub fn num_users(&self) -> usize {
        self.user_adj.num_nodes
    }

    /// Number of item vertices.
    pub fn num_items(&self) -> usize {
        self.item_adj.num_nodes
    }

    /// Number of rated edges.
    pub fn num_ratings(&self) -> usize {
        self.user_adj.len
    }

    /// Items rated by `user`, with ratings, sorted by item index.
    pub fn user_neighbors(&self, user: usize) -> &[(u32, f32)] {
        self.user_adj.neighbors(user)
    }

    /// Users who rated `item`, with ratings, sorted by user index.
    pub fn item_neighbors(&self, item: usize) -> &[(u32, f32)] {
        self.item_adj.neighbors(item)
    }

    /// The rating of `user` on `item`, if observed.
    pub fn rating(&self, user: usize, item: usize) -> Option<f32> {
        let adj = self.user_adj.neighbors(user);
        adj.binary_search_by_key(&item, |&(i, _)| i as usize)
            .ok()
            .map(|ix| adj[ix].1)
    }

    /// Degree of a user (number of rated items).
    pub fn user_degree(&self, user: usize) -> usize {
        self.user_adj.neighbors(user).len()
    }

    /// Degree of an item (number of raters).
    pub fn item_degree(&self, item: usize) -> usize {
        self.item_adj.neighbors(item).len()
    }

    /// Mean rating over all edges; `None` for an empty graph.
    pub fn mean_rating(&self) -> Option<f32> {
        if self.num_ratings() == 0 {
            return None;
        }
        let sum: f64 = self.user_adj.entries().map(|&(_, r)| r as f64).sum();
        Some((sum / self.num_ratings() as f64) as f32)
    }

    /// Density: observed edges / possible edges.
    pub fn density(&self) -> f32 {
        let possible = self.num_users() * self.num_items();
        if possible == 0 {
            0.0
        } else {
            self.num_ratings() as f32 / possible as f32
        }
    }

    /// Iterates over all rated edges.
    pub fn edges(&self) -> impl Iterator<Item = Rating> + '_ {
        (0..self.num_users()).flat_map(move |u| {
            self.user_adj
                .neighbors(u)
                .iter()
                .map(move |&(i, r)| Rating::new(u, i as usize, r))
        })
    }

    /// Returns a new graph containing this graph's edges plus `extra`.
    ///
    /// Duplicate pairs keep the first occurrence — an existing edge's rating
    /// wins over an extra for the same `(user, item)`, and among extras the
    /// earliest wins (identical to rebuilding via [`Self::from_ratings`]).
    /// Copy-on-write by chunk: only the chunks owning a touched user or item
    /// row are rebuilt (one merge pass each), every other chunk is shared
    /// with `self`, so the cost follows the batch and the touched rows'
    /// chunks, not the graph — the path behind
    /// [`crate::EpochedGraph::commit_edges`]. A batch of nothing but
    /// duplicates shares every chunk.
    pub fn with_extra_edges(&self, extra: &[Rating]) -> BipartiteGraph {
        let mut add: Vec<Rating> = Vec::with_capacity(extra.len());
        for r in extra {
            assert!(
                r.user < self.num_users(),
                "user {} out of range {}",
                r.user,
                self.num_users()
            );
            assert!(
                r.item < self.num_items(),
                "item {} out of range {}",
                r.item,
                self.num_items()
            );
            if self.rating(r.user, r.item).is_none()
                && !add.iter().any(|a| a.user == r.user && a.item == r.item)
            {
                add.push(*r);
            }
        }
        let by_user = add
            .iter()
            .map(|r| (r.user, (r.item as u32, r.value)))
            .collect();
        let by_item = add
            .iter()
            .map(|r| (r.item, (r.user as u32, r.value)))
            .collect();
        BipartiteGraph {
            user_adj: self.user_adj.with_inserted(by_user),
            item_adj: self.item_adj.with_inserted(by_item),
        }
    }

    /// Chunk-level accounting of this snapshot's adjacency storage against
    /// `other`'s: how many chunks and bytes the two hold in common (the same
    /// allocation, not equal contents). Against its predecessor, a snapshot's
    /// unshared remainder is what the commit that built it copied.
    pub fn chunk_sharing(&self, other: &BipartiteGraph) -> ChunkSharing {
        let mut sharing = ChunkSharing::default();
        for (mine, theirs) in [
            (&self.user_adj, &other.user_adj),
            (&self.item_adj, &other.item_adj),
        ] {
            sharing.bytes += std::mem::size_of_val(mine.chunks.as_slice());
            for (at, chunk) in mine.chunks.iter().enumerate() {
                let bytes = chunk.bytes();
                sharing.chunks += 1;
                sharing.bytes += bytes;
                sharing.largest_chunk_bytes = sharing.largest_chunk_bytes.max(bytes);
                if theirs.chunks.get(at).is_some_and(|c| Arc::ptr_eq(c, chunk)) {
                    sharing.shared_chunks += 1;
                    sharing.shared_bytes += bytes;
                }
            }
        }
        sharing
    }

    /// Two-pass, allocation-conscious build. `stream` is invoked exactly
    /// twice with an emit callback and must produce the identical edge
    /// sequence both times (e.g. by re-seeding a generator) — pass one counts
    /// degrees, pass two fills the preallocated chunk buffers directly, so no
    /// per-node `Vec` or intermediate `Vec<Rating>` is ever materialized.
    /// Duplicate `(user, item)` pairs keep the first occurrence. Panics on
    /// out-of-range indices and on vertex counts above `u32::MAX`.
    pub fn from_edge_stream(
        num_users: usize,
        num_items: usize,
        mut stream: impl FnMut(&mut dyn FnMut(Rating)),
    ) -> Self {
        assert!(
            num_users <= u32::MAX as usize && num_items <= u32::MAX as usize,
            "{num_users} x {num_items} vertices do not fit the 32-bit adjacency entries"
        );
        let mut udeg = vec![0u32; num_users];
        let mut ideg = vec![0u32; num_items];
        let mut count = 0usize;
        stream(&mut |r: Rating| {
            assert!(
                r.user < num_users,
                "user {} out of range {num_users}",
                r.user
            );
            assert!(
                r.item < num_items,
                "item {} out of range {num_items}",
                r.item
            );
            udeg[r.user] += 1;
            ideg[r.item] += 1;
            count += 1;
        });
        let mut users = ChunkFiller::new(udeg);
        let mut items = ChunkFiller::new(ideg);
        let mut seen = 0usize;
        stream(&mut |r: Rating| {
            assert!(seen < count, "edge stream grew between passes");
            users.push(r.user, (r.item as u32, r.value));
            items.push(r.item, (r.user as u32, r.value));
            seen += 1;
        });
        assert_eq!(seen, count, "edge stream must replay identically");
        let graph = BipartiteGraph {
            user_adj: users.finish(),
            item_adj: items.finish(),
        };
        debug_assert_eq!(graph.user_adj.len, graph.item_adj.len);
        graph
    }
}

/// Undirected user-user social graph (used by the GraphRec baseline on the
/// Douban-style dataset).
#[derive(Debug, Clone)]
pub struct SocialGraph {
    adj: Vec<Vec<usize>>,
}

impl SocialGraph {
    /// Builds from undirected friendship pairs; self-loops are ignored and
    /// duplicates removed.
    pub fn from_edges(num_users: usize, edges: &[(usize, usize)]) -> Self {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); num_users];
        for &(a, b) in edges {
            assert!(a < num_users && b < num_users, "social edge out of range");
            if a == b {
                continue;
            }
            adj[a].push(b);
            adj[b].push(a);
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        SocialGraph { adj }
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.adj.len()
    }

    /// Friends of `user`, sorted.
    pub fn friends(&self, user: usize) -> &[usize] {
        &self.adj[user]
    }

    /// Total undirected edge count.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> BipartiteGraph {
        BipartiteGraph::from_ratings(
            3,
            4,
            &[
                Rating::new(0, 0, 5.0),
                Rating::new(0, 1, 3.0),
                Rating::new(1, 1, 4.0),
                Rating::new(2, 3, 1.0),
            ],
        )
    }

    #[test]
    fn adjacency_both_sides() {
        let g = toy();
        assert_eq!(g.user_neighbors(0), &[(0, 5.0), (1, 3.0)]);
        assert_eq!(g.item_neighbors(1), &[(0, 3.0), (1, 4.0)]);
        assert_eq!(g.user_degree(2), 1);
        assert_eq!(g.item_degree(2), 0);
        assert_eq!(g.num_ratings(), 4);
    }

    #[test]
    fn rating_lookup() {
        let g = toy();
        assert_eq!(g.rating(0, 1), Some(3.0));
        assert_eq!(g.rating(1, 0), None);
        assert_eq!(g.rating(2, 3), Some(1.0));
    }

    #[test]
    fn duplicate_edges_deduped() {
        let g =
            BipartiteGraph::from_ratings(1, 1, &[Rating::new(0, 0, 1.0), Rating::new(0, 0, 5.0)]);
        assert_eq!(g.num_ratings(), 1);
    }

    #[test]
    fn stats() {
        let g = toy();
        assert!((g.mean_rating().unwrap() - 3.25).abs() < 1e-6);
        assert!((g.density() - 4.0 / 12.0).abs() < 1e-6);
        assert!(BipartiteGraph::empty(2, 2).mean_rating().is_none());
    }

    #[test]
    fn edges_roundtrip() {
        let g = toy();
        let edges: Vec<Rating> = g.edges().collect();
        let g2 = BipartiteGraph::from_ratings(3, 4, &edges);
        assert_eq!(g2.num_ratings(), g.num_ratings());
        assert_eq!(g2.rating(0, 0), Some(5.0));
    }

    #[test]
    fn with_extra_edges_adds() {
        let g = toy().with_extra_edges(&[Rating::new(2, 0, 2.0)]);
        assert_eq!(g.rating(2, 0), Some(2.0));
        assert_eq!(g.num_ratings(), 5);
    }

    #[test]
    fn with_extra_edges_matches_full_rebuild() {
        let g = toy();
        let extra = [
            Rating::new(2, 0, 2.0),
            Rating::new(0, 0, 9.0), // duplicate of existing edge: old value wins
            Rating::new(1, 2, 4.5),
            Rating::new(1, 2, 1.0), // duplicate within extras: first wins
        ];
        let merged = g.with_extra_edges(&extra);
        let mut all: Vec<Rating> = g.edges().collect();
        all.extend_from_slice(&extra);
        let rebuilt = BipartiteGraph::from_ratings(3, 4, &all);
        assert_eq!(merged.num_ratings(), rebuilt.num_ratings());
        for u in 0..3 {
            assert_eq!(merged.user_neighbors(u), rebuilt.user_neighbors(u));
        }
        for i in 0..4 {
            assert_eq!(merged.item_neighbors(i), rebuilt.item_neighbors(i));
        }
        assert_eq!(merged.rating(0, 0), Some(5.0));
        assert_eq!(merged.rating(1, 2), Some(4.5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn with_extra_edges_checks_ranges() {
        toy().with_extra_edges(&[Rating::new(7, 0, 1.0)]);
    }

    #[test]
    fn edge_stream_matches_from_ratings() {
        let ratings = [
            Rating::new(0, 1, 3.0),
            Rating::new(2, 3, 1.0),
            Rating::new(0, 0, 5.0),
            Rating::new(0, 1, 4.0), // duplicate pair: first occurrence kept
            Rating::new(1, 1, 4.0),
        ];
        let streamed = BipartiteGraph::from_edge_stream(3, 4, |emit| {
            for &r in &ratings {
                emit(r);
            }
        });
        let direct = BipartiteGraph::from_ratings(3, 4, &ratings);
        assert_eq!(streamed.num_ratings(), direct.num_ratings());
        for u in 0..3 {
            assert_eq!(streamed.user_neighbors(u), direct.user_neighbors(u));
        }
        for i in 0..4 {
            assert_eq!(streamed.item_neighbors(i), direct.item_neighbors(i));
        }
        assert_eq!(streamed.rating(0, 1), Some(3.0));
    }

    #[test]
    fn social_graph_basic() {
        let s = SocialGraph::from_edges(4, &[(0, 1), (1, 0), (2, 2), (1, 3)]);
        assert_eq!(s.friends(1), &[0, 3]);
        assert_eq!(s.friends(2), &[] as &[usize]);
        assert_eq!(s.num_edges(), 2);
    }
}
