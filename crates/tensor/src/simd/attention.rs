//! The attention-tile primitive: `softmax(Q Kᵀ / √dk) V` for every
//! independent (batch, head) tile, read straight out of row-major
//! `[rows, heads * head_dim]` projection buffers and written back over Q in
//! the same merged-head layout — no head-split permute, no `Kᵀ` tensor, no
//! `[batch * heads, t, t]` score tensor.
//!
//! # Per-element chains (DESIGN.md §16)
//!
//! Every tile computes exactly what the unfused composition
//! `bmm(Q, Kᵀ) · scale → softmax_last → bmm(P, V)` computes on the same
//! ISA, element for element:
//!
//! * `s[i][j]`: one accumulator from `0.0`, `c` ascending over `head_dim`,
//!   mul-then-add (scalar) or one FMA per step (avx2/avx512) — the
//!   `matmul_small` chain; then one multiply by `1/√dk`.
//! * softmax row `i`: `max` → `exp(s - max)` → f64 sum → `(1/sum) as f32` →
//!   scale — [`super::softmax_rows`]' chain for a row of width `t`,
//!   including, on avx2/avx512, the order in which its eight f64 lane
//!   accumulators fold.
//! * `o[i][c]`: one accumulator from `0.0`, `j` ascending over the tokens,
//!   the same mul-add/FMA step.
//!
//! One kernel per ISA family implements that:
//!
//! * scalar — `scalar::attention_tiles`, one tile at a time through
//!   `matmul_reference` and `scalar::softmax_rows` on gathered tiles: the
//!   unfused chain by construction.
//! * avx2/avx512 — `attention_lanes_kernel!`: 8 or 16 tiles ride in the
//!   lanes of one vector, each lane running the *scalar* chain of its own
//!   tile. HIM's tiles are tiny (MBA: `t` = the handful of attributes of one
//!   cell; MBU/MBI: `t` = 16-odd context users/items; `dk` = 8), so a tile
//!   on its own is mostly loop overhead and ragged vector tails; across
//!   tiles every instruction is full width. FMA, `exp_ps` (the per-lane
//!   mirror of `exp_scalar`, which the row kernel uses on tails; the
//!   16-lane `exp` is the same polynomial op for op) and the f64 adds are
//!   exact per lane, so lane position cannot change a value; the one
//!   order-sensitive step, the softmax sum, reproduces the row kernel's
//!   fold explicitly (see the macro). Tiles enter and leave the lanes
//!   without a gather or scatter: a tile row is `dk` contiguous floats, so
//!   eight lanes' rows are eight plain loads turned lane-major by an
//!   in-register 8×8 transpose (masked for `dk % 8`), and the output goes
//!   back the same way. Three or four query rows run at once
//!   (`block_rows`), and their score chains take two keys a step, their
//!   `P·V` chains two columns: six or eight independent chains in flight.
//!
//! Either kernel can also hand out each tile's softmax rows `P` — the values
//! it is about to multiply into `V`, stored on the way, so no chain changes.
//!
//! # One pass: a whole layer in the lanes
//!
//! `mhsa_lanes` (behind `linalg::mhsa_one_pass_into`) runs a whole MHSA
//! layer — projections, attention, `W_O` — where [`AttnGrid::one_pass`]
//! says so: each head alone is at least as wide as the layer's rows
//! (`model_dim <= head_dim`; MBA's 8-float attribute rows against 4 × 8
//! heads at `fast`, 16 against 8 × 16 at the paper's config), on avx2 /
//! avx512. There the composition writes and re-reads four `[rows, heads ·
//! head_dim]` buffers (Q, K, V, then `O` over Q), each `heads` times the
//! layer's input or more, and moves every tile into and out of the lanes by
//! transposes. Instead 8 or 16 *sequences* ride in the lanes: their `t × d`
//! input rows enter `[token][column][lane]` panels once (`load_runs`); for
//! each head, in column order, its K and V panels and Q rows are projected
//! from them with broadcast weights, attended by `attend` — the tiles' own code — and the
//! output rows folded through that head's rows of `W_O` into one `Y` panel,
//! which leaves the lanes once (`store_runs`). Per element these are the
//! composition's chains, so the output is its bits:
//!
//! * a projection `q[i][c] = Σ_k x[i][k] · w_q[k][c]`: one accumulator from
//!   `+0.0`, one FMA per `k` ascending — `matmul_small`'s chain, which the
//!   blocked kernel shares;
//! * scores, softmax rows and `o[i][c]`: `attend`, the chains above;
//! * `y[i][e] = Σ_κ o[i][κ] · w_o[κ][e]` over `κ = h · dk + c`, heads in
//!   column order and `c` ascending: one accumulator from `+0.0`, continued
//!   from head to head through the `Y` panel (an f32 store and load give
//!   back the value stored) — the `W_O` matmul's chain.
//!
//! Scalar keeps the composition, the reference chain by construction; so
//! does every wider layer (MBU / MBI, whose rows are `h` attribute rows
//! wide), forward and backward, on the tape too. The line is where forcing
//! both paths on every layer shape put it, on both lane ISAs (DESIGN.md
//! §9): the one pass won on every shape with `model_dim <= head_dim`, and
//! at the paper's config lost on avx2 from MBU / MBI's `model_dim = 2 ·
//! head_dim` on.
//!
//! # One pass, backward
//!
//! The tape's node of a one-pass layer keeps only its input, and
//! `mhsa_backward_lanes` (behind `linalg::mhsa_one_pass_backward`) turns it
//! and `dY` into every gradient, a lane group of sequences at a time. The
//! group's `x` and `dY` rows enter the lanes once; for each head it
//! recomputes K, V and Q (`kv_panels`, `project`) and the softmax rows and
//! `O` (`attend`) by the forward's chains, forms `dO = dY·W_Oᵀ` (one FMA
//! per `e` ascending from `+0.0`, the `nt` product's chain), and runs the
//! tile backward's arithmetic (`backward_panels`, below) on its panels. Its
//! `[dQ | dK | dV]` and `O` then leave the lanes as rows (`store_runs`): the
//! weight gradients' chains run over *rows*, `dW[k][c] = Σ_row x[row][k] ·
//! G[row][c]` in ascending row order, which no lane layout of sequences can
//! carry, so once a chunk of whole `[tokens, inner]` row blocks — one
//! group's, when a block fits the lanes — has them all, `matmul_tn`'s
//! chains continue over the chunk from what earlier chunks left (the
//! composition's `Xᵀ·G` and `Oᵀ·dY`, bit for bit, since a stored f32 gives
//! back its value). `dX[i][e] = Σ_c G[i][c] · W[e][c]` is a chain over the
//! columns, every head's dQ, then dK, then dV, and stays in the lanes: a
//! projection from the group's `[dQ | dK | dV]` panel, continued across
//! heads. Nothing the size of the layer is written: at `fast`'s MBA the
//! largest buffer is the lane scratch's 107 KB.
//!
//! # Backward
//!
//! `attention_backward_tiles` (behind `linalg::attention_backward_into`)
//! turns `Q`, `K`, `V`, the saved `P` and `dO` into `dQ | dK | dV`, side by
//! side in one `[rows, 3·width]` buffer. It had no earlier composition's
//! bits to honour, so it takes the strongest contract there is: **the same
//! bits on every ISA**. Tiles ride in the lanes of `[token][column][lane]`
//! panels, like the lane kernel above, and every sum is a single
//! accumulator per lane over an ascending index, multiply then add — never
//! an FMA. `dS` is computed for every query row first, into a `t × t`
//! panel; then `dQ`, `dK` and `dV` are register blocks of `block_rows`
//! rows by two columns, each sum held in a register from `0.0` to its
//! store. Two forms run that one arithmetic:
//!
//! * scalar — `Panels::backward`, safe Rust over `[f32; 16]` rows that rustc
//!   vectorises with the build's baseline (SSE2 on x86-64), panels filled
//!   and read back element by element.
//! * avx2/avx512 — `attention_backward_kernel!`'s `backward_panels`, 8 or
//!   16 lanes under the ISA's `#[target_feature]`: the same ops in the same
//!   loop nest in vector registers, panels filled and emptied by the
//!   forward's in-register transposes (`load_runs` / `store_runs`), no
//!   gather and no per-element write — or, in the one-pass backward,
//!   filled by the recompute in the lanes.
//!
//! Each op is exact per lane, so a tile's gradient bits depend neither on
//! the ISA nor on its lane or group.

/// Geometry of one multi-head attention call over `[rows, heads *
/// head_dim]` buffers whose rows are laid out `[outer, tokens, inner]`
/// row-major. Attention runs along `tokens`; every `(outer, inner)` pair is
/// an independent sequence. HIM's three attentions over one `[B, n, m]`
/// grid of cells are three such views of the same rows: MBU
/// `[B, n, m]` (tokens = users), MBI `[B·n, m, 1]` (tokens = items) and MBA
/// `[B·n·m, h, 1]` over the `h` attribute rows of each cell.
///
/// Distinct `(outer, token, inner, head)` coordinates address distinct
/// elements by construction, which is what lets a tile's output overwrite
/// its own Q without disturbing another tile's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttnGrid {
    /// Leading batch axis (rows between consecutive entries: `tokens * inner`).
    pub outer: usize,
    /// Sequence length `t`.
    pub tokens: usize,
    /// Trailing batch axis (rows between consecutive tokens).
    pub inner: usize,
    /// Attention heads `l`.
    pub heads: usize,
    /// Columns per head `dk`.
    pub head_dim: usize,
}

/// Widest lane group of any ISA's `attention_lanes_kernel!`; sizes the
/// scratch so its length does not depend on the dispatched ISA. Also the
/// scalar backward's lane group, and the one-pass backward's chunk.
pub(crate) const MAX_LANES: usize = 16;

/// The most rows [`block_rows`] picks; sizes the forward's scratch.
pub(super) const MAX_ROWS: usize = 4;

/// Rows of a `t`-token tile the lane kernels (and the scalar backward)
/// carry at once: 3 or 4, whichever pads the last block less — 4 on a tie.
/// Their chains interleave, so one row's latency hides behind the others'
/// instead of serialising the group; a padded row re-reads the block's last
/// real row and is never stored. Read off the tile shape, not a knob:
/// MBA's 9 attributes run 3 rows a block, MBU/MBI's 16 context users or
/// items 4.
pub(super) const fn block_rows(t: usize) -> usize {
    if t.next_multiple_of(3) - t < t.next_multiple_of(4) - t {
        3
    } else {
        4
    }
}

/// Rows `first..first + R` of a `t`-row block, a short one re-reading its
/// last real row, and how many are real.
pub(super) fn rows<const R: usize>(t: usize, first: usize) -> ([usize; R], usize) {
    let live = (t - first).min(R);
    (std::array::from_fn(|r| first + r.min(live - 1)), live)
}

/// `N` columns from `c` of a row of `n`, the last repeated past its end
/// (computed, never stored).
pub(super) fn span<const N: usize>(c: usize, n: usize) -> [usize; N] {
    std::array::from_fn(|u| (c + u).min(n - 1))
}

impl AttnGrid {
    /// Row width `heads * head_dim` of the Q/K/V buffers.
    pub fn width(&self) -> usize {
        self.heads * self.head_dim
    }

    /// Rows `outer * tokens * inner` of the Q/K/V buffers.
    pub fn rows(&self) -> usize {
        self.outer * self.tokens * self.inner
    }

    /// Number of independent (batch, head) tiles.
    pub fn tiles(&self) -> usize {
        self.outer * self.inner * self.heads
    }

    /// Floats of one call's softmax rows: a `[tokens, tokens]` matrix per
    /// tile, tiles in `(outer, inner, head)` order — as a 4-D array,
    /// `[outer * inner, heads, tokens, tokens]`.
    pub fn probs_len(&self) -> usize {
        self.tiles() * self.tokens * self.tokens
    }

    /// Elements between consecutive tokens of one tile.
    pub(crate) fn token_stride(&self) -> usize {
        self.inner * self.width()
    }

    /// Offset of tile `tile`'s `(token 0, column 0)` element. Tiles are
    /// numbered `(outer, inner, head)` row-major, so consecutive tiles are
    /// the heads of one sequence, then the next `inner` neighbour.
    pub(crate) fn tile_base(&self, tile: usize) -> usize {
        self.tile_base_in(tile, self.width())
    }

    /// Rows `outer * queries * inner` of a Q (then output) buffer holding
    /// `queries` of each sequence's tokens.
    pub fn query_rows(&self, queries: usize) -> usize {
        self.outer * queries * self.inner
    }

    /// [`Self::tile_base`] in a Q (then output) buffer holding `queries` of
    /// each sequence's tokens, laid out `[outer, queries, inner]`.
    pub(crate) fn query_base(&self, tile: usize, queries: usize) -> usize {
        AttnGrid {
            tokens: queries,
            ..*self
        }
        .tile_base(tile)
    }

    /// [`Self::tile_base`] in a buffer of the same rows, `row_width` floats
    /// each (`3·width` for the backward's `[dQ | dK | dV]`).
    pub(crate) fn tile_base_in(&self, tile: usize, row_width: usize) -> usize {
        let (batch, head) = (tile / self.heads, tile % self.heads);
        let (o, j) = (batch / self.inner, batch % self.inner);
        (o * self.tokens * self.inner + j) * row_width + head * self.head_dim
    }

    /// Scratch floats a call needs, whichever ISA's kernel runs it:
    /// gathered Q/Kᵀ/V tiles plus a score and a probability tile for the
    /// tile-at-a-time kernel; K and V panels and, for the query rows in
    /// flight, their Q (then output) rows and score rows per lane for the
    /// lane-parallel one.
    pub fn scratch_len(&self) -> usize {
        let (t, dk) = (self.tokens, self.head_dim);
        (3 * t * dk + 2 * t * t).max((2 * t * dk + MAX_ROWS * (dk + t)) * MAX_LANES)
    }

    /// Whether a layer of model dim `model_dim` over this grid runs in one
    /// pass on `isa` (`linalg::mhsa_one_pass_into`): when each head is at
    /// least as wide as the layer's rows (`model_dim <= head_dim`), on an
    /// ISA with lane kernels. Scalar, and every wider layer, runs the
    /// composition — the projections, [`Self`]'s attention tiles over their
    /// buffers, `W_O`. The line is measured (see the module docs).
    pub fn one_pass(&self, model_dim: usize, isa: super::Isa) -> bool {
        model_dim <= self.head_dim && isa != super::Isa::Scalar
    }

    /// Scratch floats the one-pass kernel needs for a layer of model dim
    /// `model_dim`, whichever ISA runs it: a lane group's input and output
    /// panels, its K and V panels, and the Q (then output) and score rows
    /// of the query rows in flight.
    pub fn one_pass_scratch_len(&self, model_dim: usize) -> usize {
        let (t, dk) = (self.tokens, self.head_dim);
        (2 * t * model_dim + 2 * t * dk + MAX_ROWS * (dk + t)) * MAX_LANES
    }
}

/// Generates the lane-parallel forward kernels, and the one-pass layer's
/// backward, over `$ops`, a module of the ISA's vector primitives: `LANES`,
/// `V`, `splat`, `load`, `store`, `load_runs`, `store_runs`, `fmadd`,
/// `mul`, `sub`, `max`, `exp`, `sum_zero`, `sum_add`, `sum_join`,
/// `sum_recip` (and, from the module it is expanded in, the matmul tile's
/// `matmul` and `attention_backward_kernel!`'s `backward_panels`).
///
/// * `attention_lanes` — the attention tiles over Q/K/V projection
///   buffers. Lane `λ` of every vector belongs to tile `group_start + λ`.
///   Each tile row is `dk` contiguous floats in Q, K and V (and `t` in
///   `P`), so the group's K and V are read into `[token][column][lane]`
///   panels, and Q `R` rows at a time ([`block_rows`]), a whole tile row per
///   lane at once and turned lane-major in registers (`load_runs`). Output
///   rows are written back over their Q by the inverse transpose
///   (`store_runs`), softmax rows likewise into `P`.
/// * `mhsa_lanes` — a whole layer in one pass ([`AttnGrid::one_pass`]).
///   Lane `λ` belongs to sequence `group_start + λ`: its `t` input rows
///   enter the lanes once, each head's K and V panels and Q rows are
///   projected from them with broadcast weights, attended, and folded
///   through `W_O` into one `Y` panel, which leaves the lanes once.
/// * `mhsa_backward_lanes` — that layer's backward (module docs, "One
///   pass, backward").
///
/// All attend through `attend`, and the one-pass pair projects through
/// `kv_panels` / `project`, so they run the same chains on the same panels.
/// Dead lanes of a ragged last group alias the last live tile or sequence
/// (valid reads) and are never written.
macro_rules! attention_lanes_kernel {
    ($(#[$attr:meta])* $ops:ident) => {
        /// Attention of `R` query rows of one lane group's head (see
        /// [`crate::simd::attention`] for why each lane's chain is the
        /// unfused one): from their Q in `qp` (`R` panel rows of `dk`
        /// columns) and the head's `t`-token K and V panels `kp` and `vp`,
        /// the softmax rows into `s` (`R` rows of `t`) and the output rows
        /// over their Q in `qp`. Only the first `rows` rows of `s` are
        /// softmax rows, each handed to `emit(r, row)` as soon as it is
        /// final, so a caller's store of it overlaps the next row's
        /// arithmetic; the rest are the padding of a short last block,
        /// which repeats its last row and is never stored. Not inlined:
        /// each caller's instance has one call site, and inlined there it
        /// measured 5–8 % slower in the one-pass kernel (a call per block
        /// of query rows costs nothing measurable).
        $(#[$attr])*
        #[inline(never)]
        #[allow(clippy::too_many_arguments)]
        fn attend<const R: usize>(
            t: usize,
            dk: usize,
            kp: &[f32],
            vp: &[f32],
            qp: &mut [f32],
            s: &mut [f32],
            rows: usize,
            mut emit: impl FnMut(usize, *const f32),
        ) {
            use $ops::LANES;
            assert!(
                kp.len() >= t * dk * LANES
                    && vp.len() >= t * dk * LANES
                    && qp.len() >= R * dk * LANES
                    && s.len() >= R * t * LANES
                    && (1..=R).contains(&rows)
            );
            let scale = $ops::splat(1.0 / (dk as f32).sqrt());
            // Panel rows of the `R` query rows' Q (then output) and scores.
            let q_rows: [usize; R] = std::array::from_fn(|r| r * dk);
            let s_rows: [usize; R] = std::array::from_fn(|r| r * t);
            let q_at = |r: usize, c: usize| (q_rows[r] + c) * LANES;
            let s_at = |r: usize, j: usize| (s_rows[r] + j) * LANES;
            // Columns of a softmax row the avx2 row kernel runs through its
            // eight-wide vector body; the rest is its scalar tail.
            let body = t - t % 8;
            // SAFETY: panel rows `token * dk + col` (`token < t`, `col < dk`)
            // of `kp` / `vp`, `q_rows[r] + col` of `qp` and `s_rows[r] + j`
            // of `s` (`r < R`, `j < t`) — the only ones read or written —
            // lie inside the lengths asserted above; a second key `j + 1`
            // or column `c + 1` is touched only when it is below `t` / `dk`.
            unsafe {
                // One `R × 2` register block of a panel product: for
                // `x < 2` (`x = 0` alone unless `two`) and `r < R`,
                // `Σ_κ a[a_rows[r] + κ·a_step] · b[b_cols[x] + κ·b_step]`
                // over `κ < n` — panel rows, `LANES` floats each — one
                // accumulator from `0.0` a sum, `κ` ascending, one FMA a
                // step: the `matmul_small` chain of every element, `2R`
                // chains in flight.
                let block = |a: *const f32,
                             a_rows: [usize; R],
                             a_step: usize,
                             b: *const f32,
                             b_cols: [usize; 2],
                             b_step: usize,
                             n: usize,
                             two: bool| {
                    let mut acc = [[$ops::splat(0.0); R]; 2];
                    for kappa in 0..n {
                        let b0 = $ops::load(b.add((b_cols[0] + kappa * b_step) * LANES));
                        if two {
                            let b1 = $ops::load(b.add((b_cols[1] + kappa * b_step) * LANES));
                            for (r, &row) in a_rows.iter().enumerate() {
                                let a = $ops::load(a.add((row + kappa * a_step) * LANES));
                                acc[0][r] = $ops::fmadd(a, b0, acc[0][r]);
                                acc[1][r] = $ops::fmadd(a, b1, acc[1][r]);
                            }
                        } else {
                            for (r, &row) in a_rows.iter().enumerate() {
                                let a = $ops::load(a.add((row + kappa * a_step) * LANES));
                                acc[0][r] = $ops::fmadd(a, b0, acc[0][r]);
                            }
                        }
                    }
                    acc
                };
                // s[j] = (q_i · k_j) * scale, two keys a step (an odd `t`'s
                // last alone), and the row maxima in token order.
                let mut max = [$ops::splat(f32::NEG_INFINITY); R];
                for j in (0..t).step_by(2) {
                    let two = j + 1 < t;
                    let acc = block(qp.as_ptr(), q_rows, 1, kp.as_ptr(), [j * dk, (j + 1) * dk], 1, dk, two);
                    for (x, acc) in acc.into_iter().enumerate() {
                        if x == 0 || two {
                            for (r, (acc, max)) in acc.into_iter().zip(&mut max).enumerate() {
                                let sj = $ops::mul(acc, scale);
                                $ops::store(s.as_mut_ptr().add(s_at(r, j + x)), sj);
                                *max = $ops::max(sj, *max);
                            }
                        }
                    }
                }
                for (r, &max) in max.iter().enumerate().take(rows) {
                    for j in 0..t {
                        let e = $ops::exp($ops::sub($ops::load(s.as_ptr().add(s_at(r, j))), max));
                        $ops::store(s.as_mut_ptr().add(s_at(r, j)), e);
                    }
                    // The row kernel's f64 sum: body columns accumulate by
                    // `j % 8` into two four-lane registers (`lo`: residues
                    // 0–3, `hi`: 4–7), folded as `((l0 + l1) + l2) + l3`
                    // with `l_m = lo_m + hi_m`; tail columns then add one
                    // by one.
                    let mut sum = $ops::sum_zero();
                    for m in 0..4 {
                        let (mut lo, mut hi) = ($ops::sum_zero(), $ops::sum_zero());
                        let mut j = m;
                        while j < body {
                            lo = $ops::sum_add(lo, $ops::load(s.as_ptr().add(s_at(r, j))));
                            hi = $ops::sum_add(hi, $ops::load(s.as_ptr().add(s_at(r, j + 4))));
                            j += 8;
                        }
                        let l = $ops::sum_join(lo, hi);
                        sum = if m == 0 { l } else { $ops::sum_join(sum, l) };
                    }
                    for j in body..t {
                        sum = $ops::sum_add(sum, $ops::load(s.as_ptr().add(s_at(r, j))));
                    }
                    let inv = $ops::sum_recip(sum);
                    for j in 0..t {
                        let p = $ops::mul($ops::load(s.as_ptr().add(s_at(r, j))), inv);
                        $ops::store(s.as_mut_ptr().add(s_at(r, j)), p);
                    }
                    emit(r, s.as_ptr().add(s_at(r, 0)));
                }
                // o[c] = Σ_j p_j · v_jc, two columns a step (an odd `dk`'s
                // last alone), over the block's Q.
                for c in (0..dk).step_by(2) {
                    let two = c + 1 < dk;
                    let acc = block(s.as_ptr(), s_rows, 1, vp.as_ptr(), [c, c + 1], dk, t, two);
                    for (x, acc) in acc.into_iter().enumerate() {
                        if x == 0 || two {
                            for (r, acc) in acc.into_iter().enumerate() {
                                $ops::store(qp.as_mut_ptr().add(q_at(r, c + x)), acc);
                            }
                        }
                    }
                }
            }
        }

        /// One `R × C` register block of a panel-by-weight product: for
        /// `u < C` and `r < R`, `acc[u][r] + Σ_κ a[a_rows[r] + κ] ·
        /// w[u][κ·w_step]` over `κ < n` — panel rows times broadcast
        /// weights, `κ` ascending, one FMA a step: from `acc = 0.0`,
        /// `matmul_small`'s chain of every element, `C·R` chains in flight.
        ///
        /// # Safety
        ///
        /// Panel rows `a_rows[r] + κ` of `a` and floats `κ·w_step` of every
        /// `w[u]` (`κ < n`) must be valid for reads.
        $(#[$attr])*
        #[inline]
        unsafe fn project<const R: usize, const C: usize>(
            a: *const f32,
            a_rows: [usize; R],
            n: usize,
            w: [*const f32; C],
            w_step: usize,
            mut acc: [[$ops::V; R]; C],
        ) -> [[$ops::V; R]; C] {
            use $ops::{fmadd, load, splat, LANES};
            for kappa in 0..n {
                let wv = w.map(|w| splat(*w.add(kappa * w_step)));
                for (r, &row) in a_rows.iter().enumerate() {
                    let a = load(a.add((row + kappa) * LANES));
                    for (acc, &w) in acc.iter_mut().zip(&wv) {
                        acc[r] = fmadd(a, w, acc[r]);
                    }
                }
            }
            acc
        }

        /// Stores rows `r < count` of `acc`'s first `cols` columns at
        /// `panel` rows `at[r] + col[u]`.
        ///
        /// # Safety
        ///
        /// Those panel rows must be valid for writes.
        $(#[$attr])*
        #[inline]
        unsafe fn put<const R: usize>(
            panel: *mut f32,
            at: [usize; R],
            count: usize,
            acc: &[[$ops::V; R]],
            col: &[usize],
            cols: usize,
        ) {
            for (acc, &col) in acc.iter().zip(col).take(cols) {
                for (&at, &acc) in at.iter().zip(acc).take(count) {
                    $ops::store(panel.add((at + col) * $ops::LANES), acc);
                }
            }
        }

        /// Head `h`'s K and V panels (`kp`, `vp`: `t` rows of `dk`) from a
        /// lane group's input panel `xp` (`t` rows of `d`) and `[d, width]`
        /// projections `w_k`, `w_v`: `R` rows by `C / 2` columns of each a
        /// block, every element [`project`]'s chain from zero.
        ///
        /// # Safety
        ///
        /// `xp` must be valid for reading `t·d` panel rows, `kp` and `vp`
        /// for writing `t·dk`, and `w_k`, `w_v` for reading `d·width`
        /// floats, `(h + 1)·dk ≤ width`.
        $(#[$attr])*
        #[inline]
        #[allow(clippy::too_many_arguments)]
        unsafe fn kv_panels<const R: usize>(
            [t, d, dk, width]: [usize; 4],
            h: usize,
            xp: *const f32,
            [w_k, w_v]: [*const f32; 2],
            kp: *mut f32,
            vp: *mut f32,
        ) {
            const C: usize = $ops::PROJECT_COLS;
            let col = h * dk;
            for i0 in (0..t).step_by(R) {
                let (is, rows) = crate::simd::attention::rows::<R>(t, i0);
                for c in (0..dk).step_by(C / 2) {
                    let cs = crate::simd::attention::span::<C>(c, dk);
                    let w = std::array::from_fn(|u| match u.checked_sub(C / 2) {
                        None => w_k.add(col + cs[u]),
                        Some(u) => w_v.add(col + cs[u]),
                    });
                    let acc = project::<R, C>(xp, is.map(|i| i * d), d, w, width, [[$ops::splat(0.0); R]; C]);
                    let (cols, at) = ((dk - c).min(C / 2), is.map(|i| i * dk));
                    put(kp, at, rows, &acc[..C / 2], &cs, cols);
                    put(vp, at, rows, &acc[C / 2..], &cs, cols);
                }
            }
        }

        /// Attention over every tile of `grid`, `LANES` tiles per vector
        /// and `R` of its `queries` query rows at a time against all its
        /// `tokens` keys, overwriting each query's Q with its output.
        /// `scratch` holds at least `grid.scratch_len()` floats; `probs`,
        /// when given, is the `[tile][query][token]` softmax rows and
        /// receives them.
        ///
        /// # Safety
        ///
        /// `qo` must point to `grid.query_rows(queries) * grid.width()`
        /// floats (`1 <= queries <= grid.tokens`), and nothing else may
        /// access them during the call. `R` is at most `MAX_ROWS` (4),
        /// which sizes `scratch`.
        $(#[$attr])*
        pub(crate) unsafe fn attention_lanes<const R: usize>(
            grid: &crate::simd::AttnGrid,
            queries: usize,
            qo: *mut f32,
            k: &[f32],
            v: &[f32],
            scratch: &mut [f32],
            mut probs: Option<&mut [f32]>,
        ) {
            use $ops::LANES;
            let (t, dk, tiles) = (grid.tokens, grid.head_dim, grid.tiles());
            debug_assert!((1..=t).contains(&queries) && (1..=crate::simd::attention::MAX_ROWS).contains(&R));
            let stride = grid.token_stride();
            let (kp, rest) = scratch.split_at_mut(t * dk * LANES);
            let (vp, rest) = rest.split_at_mut(t * dk * LANES);
            let (qp, rest) = rest.split_at_mut(R * dk * LANES);
            let s = &mut rest[..R * t * LANES];
            if let Some(probs) = &probs {
                assert!(
                    probs.len() == tiles * queries * t,
                    "softmax rows of {tiles} tiles of {queries} queries over {t} tokens cannot be {} floats",
                    probs.len()
                );
            }
            let mut group = 0;
            while group < tiles {
                let live = (tiles - group).min(LANES);
                let (mut base, mut q_base, mut p_base) = ([0usize; LANES], [0usize; LANES], [0usize; LANES]);
                for lane in 0..LANES {
                    let tile = group + lane.min(live - 1);
                    base[lane] = grid.tile_base(tile);
                    debug_assert!(base[lane] + (t - 1) * stride + dk <= k.len());
                    q_base[lane] = grid.query_base(tile, queries);
                    p_base[lane] = tile * queries * t;
                }
                // SAFETY (this block): every K / V tile row read is
                // `base[λ] + token * stride + 0..dk` with `token < t` —
                // inside the buffers by the assert above — and every Q row
                // read or written `q_base[λ] + i * stride + 0..dk` with `i <
                // queries`, inside `qo` by the caller's contract; writes
                // touch only live tiles' own Q rows, or, into `probs`, row
                // `i` of a live tile's own `queries * t` floats, inside it
                // by the length assert; panel rows `token * dk + 0..dk`
                // (`token < t`) of `kp` / `vp` and `r * dk + 0..dk`, `r * t
                // + 0..t` (`r < R`) of `qp` and `s` stay inside them.
                unsafe {
                    for j in 0..t {
                        $ops::load_runs(k.as_ptr(), &base, j * stride, dk, kp.as_mut_ptr().add(j * dk * LANES));
                        $ops::load_runs(v.as_ptr(), &base, j * stride, dk, vp.as_mut_ptr().add(j * dk * LANES));
                    }
                    for i0 in (0..queries).step_by(R) {
                        // Query rows `i0..i0 + rows`, a short last block
                        // re-reading its last row in the rest.
                        let (is, rows) = crate::simd::attention::rows::<R>(queries, i0);
                        for (r, &i) in is.iter().enumerate() {
                            $ops::load_runs(qo, &q_base, i * stride, dk, qp.as_mut_ptr().add(r * dk * LANES));
                        }
                        attend::<R>(t, dk, kp, vp, qp, s, rows, |r, row| {
                            if let Some(probs) = probs.as_deref_mut() {
                                $ops::store_runs(row, probs.as_mut_ptr(), &p_base, (i0 + r) * t, t, live);
                            }
                        });
                        for (r, &i) in is.iter().enumerate().take(rows) {
                            $ops::store_runs(qp.as_ptr().add(r * dk * LANES), qo, &q_base, i * stride, dk, live);
                        }
                    }
                }
                group += LANES;
            }
        }

        /// One MHSA layer over every sequence of `grid` in one pass,
        /// `LANES` sequences a group and `R` query rows at a time: `y =
        /// MHSA(x)` for `[rows, d]` rows `x` and `y`, every element of `y`
        /// overwritten, with `weights` the row-major `[w_q, w_k, w_v,
        /// w_o]`. Per element the chains of the composition `linear_into`
        /// → `attention_lanes` → `linear_into` (the module docs say why);
        /// `scratch` holds `grid.one_pass_scratch_len(d)` floats, and `R`
        /// is at most `MAX_ROWS`.
        $(#[$attr])*
        pub(crate) fn mhsa_lanes<const R: usize>(
            grid: &crate::simd::AttnGrid,
            x: &[f32],
            weights: [&[f32]; 4],
            y: &mut [f32],
            scratch: &mut [f32],
        ) {
            use $ops::{load, splat, LANES};
            // Weight columns a projection block carries, an even number.
            const C: usize = $ops::PROJECT_COLS;
            let (t, dk, heads, width) = (grid.tokens, grid.head_dim, grid.heads, grid.width());
            let d = weights[0].len() / width;
            let sequences = grid.outer * grid.inner;
            assert!(
                t > 0
                    && (1..=crate::simd::attention::MAX_ROWS).contains(&R)
                    && x.len() == grid.rows() * d
                    && y.len() == x.len()
                    && weights.iter().all(|w| w.len() == d * width)
                    && scratch.len() >= grid.one_pass_scratch_len(d),
                "one-pass MHSA buffers disagree with {grid:?} at model dim {d}"
            );
            let [w_q, w_k, w_v, w_o] = weights.map(<[f32]>::as_ptr);
            let x_stride = grid.inner * d;
            let (xp, rest) = scratch.split_at_mut(t * d * LANES);
            let (yp, rest) = rest.split_at_mut(t * d * LANES);
            let (kp, rest) = rest.split_at_mut(t * dk * LANES);
            let (vp, rest) = rest.split_at_mut(t * dk * LANES);
            let (qp, rest) = rest.split_at_mut(R * dk * LANES);
            let s = &mut rest[..R * t * LANES];
            let mut group = 0;
            while group < sequences {
                let live = (sequences - group).min(LANES);
                let sequence = |lane: usize| group + lane.min(live - 1);
                // Where each lane's rows of `x` and `y` start.
                let rows_at: [usize; LANES] = std::array::from_fn(|lane| grid.tile_base_in(sequence(lane) * heads, d));
                // SAFETY (this block): a lane reads and writes `d` floats at
                // `rows_at[λ] + token * x_stride` of `x` / `y` (`token <
                // t`), its own sequence's rows, inside them by the length
                // assert above, and writes only when live. Weights are read
                // at `k * width + col` (`k < d`, `col < width`) and `(col +
                // c) * d + e` (`c < dk`, `e < d`): inside `d * width`. Panel
                // rows `token * d + 0..d` of `xp` / `yp`, `token * dk +
                // 0..dk` of `kp` / `vp` and `r * dk + 0..dk` (`r < R`) of
                // `qp` stay inside them.
                unsafe {
                    let zero = [[splat(0.0); R]; C];
                    for i in 0..t {
                        $ops::load_runs(x.as_ptr(), &rows_at, i * x_stride, d, xp.as_mut_ptr().add(i * d * LANES));
                    }
                    for h in 0..heads {
                        let col = h * dk;
                        kv_panels::<R>([t, d, dk, width], h, xp.as_ptr(), [w_k, w_v], kp.as_mut_ptr(), vp.as_mut_ptr());
                        for i0 in (0..t).step_by(R) {
                            let (is, rows) = crate::simd::attention::rows::<R>(t, i0);
                            let r_at: [usize; R] = std::array::from_fn(|r| r * dk);
                            for c in (0..dk).step_by(C) {
                                let cs = crate::simd::attention::span::<C>(c, dk);
                                let acc = project::<R, C>(xp.as_ptr(), is.map(|i| i * d), d, cs.map(|c| w_q.add(col + c)), width, zero);
                                put(qp.as_mut_ptr(), r_at, R, &acc, &cs, (dk - c).min(C));
                            }
                            attend::<R>(t, dk, kp, vp, qp, s, rows, |_, _| {});
                            // y[i][e] += Σ_c o[i][c] · w_o[col + c][e]: the
                            // `W_O` chain over `col..col + dk`, continued
                            // from the heads before (zero before the first).
                            let y_at = is.map(|i| i * d);
                            for e in (0..d).step_by(C) {
                                let es = crate::simd::attention::span::<C>(e, d);
                                let mut acc = zero;
                                if h > 0 {
                                    for (acc, &e) in acc.iter_mut().zip(&es) {
                                        for (acc, &at) in acc.iter_mut().zip(&y_at) {
                                            *acc = load(yp.as_ptr().add((at + e) * LANES));
                                        }
                                    }
                                }
                                let acc = project::<R, C>(qp.as_ptr(), r_at, dk, es.map(|e| w_o.add(col * d + e)), d, acc);
                                put(yp.as_mut_ptr(), y_at, rows, &acc, &es, (d - e).min(C));
                            }
                        }
                    }
                    for i in 0..t {
                        $ops::store_runs(yp.as_ptr().add(i * d * LANES), y.as_mut_ptr(), &rows_at, i * x_stride, d, live);
                    }
                }
                group += LANES;
            }
        }

        /// The backward of one layer [`mhsa_lanes`] runs, `LANES`
        /// sequences a group and `R` query rows at a time (see
        /// `linalg::mhsa_one_pass_backward`): from its input `x`, `weights`
        /// (`[w_q, w_k, w_v, w_o]`) and the output's gradient `dy`, `dX`
        /// into `dx` (with `w_qkv_t = [W_Q | W_K | W_V]ᵀ`, `[3·width, d]`),
        /// and, accumulated onto what they hold, the weight gradients:
        /// `d_wqkv` (`[d, 3·width]`) takes head `h`'s `[dW_Q | dW_K | dW_V]`
        /// columns at `3·h·dk`, and `d_wo_t` (`[d, width]`) is `dW_Oᵀ`.
        ///
        /// A group's `x` and `dY` rows enter the lanes once. For each head,
        /// in column order, its `Q`, `K`, `V`, softmax rows and output `O`
        /// are recomputed by [`mhsa_lanes`]' chains, `dO = dY·W_Oᵀ` by the
        /// `nt` product's (one FMA per `e` ascending from `+0.0`), and
        /// `dQ`, `dK`, `dV` by [`backward_panels`], the tile backward's,
        /// into a `[t][3·width]` panel. The head's `[dQ | dK | dV]` and `O`
        /// leave the lanes as rows, and once a chunk of whole `[tokens,
        /// inner]` row blocks (one group's rows when `inner ≤ LANES`) has
        /// them all, the weight gradients continue their chains over the
        /// chunk's rows in ascending order (the `tn` product,
        /// `matmul::<true>`). `dX` is the panel times `w_qkv_t`, every
        /// head's `dQ`, then `dK`, then `dV` (the `nt` product's chain), in
        /// the lanes.
        $(#[$attr])*
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn mhsa_backward_lanes<const R: usize>(
            grid: &crate::simd::AttnGrid,
            x: &[f32],
            [w_q, w_k, w_v, w_o, w_qkv_t]: [&[f32]; 5],
            dy: &[f32],
            mut dx: Option<&mut [f32]>,
            d_wqkv: &mut [f32],
            d_wo_t: &mut [f32],
        ) {
            use crate::simd::attention::{rows, span, MAX_ROWS};
            use $ops::{load, splat, store, LANES};
            const C: usize = $ops::PROJECT_COLS;
            let (t, dk, heads, width, inner) = (grid.tokens, grid.head_dim, grid.heads, grid.width(), grid.inner);
            let d = w_q.len() / width;
            let block = t * inner;
            assert!(
                t > 0
                    && (1..=MAX_ROWS).contains(&R)
                    && x.len() == grid.rows() * d
                    && dy.len() == x.len()
                    && dx.as_ref().is_none_or(|dx| dx.len() == x.len())
                    && [w_q, w_k, w_v, w_o].iter().all(|w| w.len() == d * width)
                    && w_qkv_t.len() == 3 * d * width
                    && d_wqkv.len() == 3 * d * width
                    && d_wo_t.len() == d * width,
                "one-pass MHSA backward buffers disagree with {grid:?} at model dim {d}"
            );
            let [w_q, w_k, w_v, w_o, w_qkv_t] = [w_q, w_k, w_v, w_o, w_qkv_t].map(<[f32]>::as_ptr);
            // Panels, each from a 64-byte boundary: the group's `x`, `dY`
            // and `dX`; the head's Q, K, V, dO and O, the query rows in
            // flight, P and dP / dS; `[dQ | dK | dV]` of every head.
            let lens = [t * d, t * d, t * d, t * dk, t * dk, t * dk, t * dk, t * dk, MAX_ROWS * dk, MAX_ROWS * t, t * t, t * t, t * 3 * width];
            let mut memory = crate::Scratch::take(lens.iter().sum::<usize>() * LANES);
            let mut rest = &mut memory[..];
            let [xp, dyp, dxp, q_all, kp, vp, dop, op, qp, s, pp, ds, gp] = lens.map(|len| {
                let (panel, tail) = std::mem::take(&mut rest).split_at_mut(len * LANES);
                rest = tail;
                panel
            });
            // A chunk is as many whole row blocks as one group's lanes hold
            // (one block, in groups, when a block has more sequences). Its
            // rows' `[dQ | dK | dV]`, head by head, and `O` go through the
            // weight-gradient products together.
            let chunk = (LANES / inner).max(1);
            let chunk_rows = chunk * block;
            let (mut g_rows, mut o_rows) = (crate::Scratch::take(chunk_rows * 3 * width), crate::Scratch::take(chunk_rows * width));
            for first_block in (0..grid.outer).step_by(chunk) {
                let blocks = (first_block + chunk).min(grid.outer) - first_block;
                let (row0, n, end) = (first_block * block, blocks * block, (first_block + blocks) * inner);
                let mut group = first_block * inner;
                while group < end {
                    let live = (end - group).min(LANES);
                    let completes = group + live == end;
                    // Each lane's first row: its sequence's rows of `x`, `dY` and
                    // `dX` start there, its chunk rows there less `row0`.
                    let first: [usize; LANES] =
                        std::array::from_fn(|lane| grid.tile_base_in((group + lane.min(live - 1)) * heads, 1));
                    let x_at = first.map(|r| r * d);
                    let g_at = first.map(|r| (r - row0) * 3 * width);
                    let o_at = first.map(|r| (r - row0) * width);
                    // SAFETY (this block): a lane reads `d` floats at `x_at[λ] +
                    // i·inner·d` of `x` and `dY` (`i < t`), and a live lane
                    // writes them of `dX` — its own sequence's rows, inside them
                    // by the assert above. A live lane writes `3·dk` and `dk`
                    // floats at `g_at[λ] + i·inner·3·width + 3·col` of `g_rows` and
                    // `o_at[λ] + i·inner·width + col` of `o_rows` — its rows of
                    // the chunk, inside `chunk_rows` of them, and the products
                    // read the chunk's `n ≤ chunk_rows`. Weights are read at `k·width + col`
                    // and `(col + c)·d + e` (`k, e < d`, `col + c < width`):
                    // inside `d·width`, and `w_qkv_t` at `c·d + e` (`c < 3·width`).
                    // Panel rows `i·d + 0..d` of `xp` / `dyp` / `dxp`, `i·dk +
                    // 0..dk` of the head's panels, `r·dk + 0..dk` and `r·t +
                    // 0..t` (`r < R`) of `qp` and `s`, `i·t + 0..t` of `pp` / `ds`
                    // and `i·3·width + 0..3·width` of `gp` stay inside them.
                    unsafe {
                        let zero = [[splat(0.0); R]; C];
                        for i in 0..t {
                            $ops::load_runs(x.as_ptr(), &x_at, i * inner * d, d, xp.as_mut_ptr().add(i * d * LANES));
                            $ops::load_runs(dy.as_ptr(), &x_at, i * inner * d, d, dyp.as_mut_ptr().add(i * d * LANES));
                        }
                        for h in 0..heads {
                            let col = h * dk;
                            kv_panels::<R>([t, d, dk, width], h, xp.as_ptr(), [w_k, w_v], kp.as_mut_ptr(), vp.as_mut_ptr());
                            // Q and dO of every row.
                            for i0 in (0..t).step_by(R) {
                                let (is, rows) = rows::<R>(t, i0);
                                let (a_at, at) = (is.map(|i| i * d), is.map(|i| i * dk));
                                for c in (0..dk).step_by(C) {
                                    let (cs, cols) = (span::<C>(c, dk), (dk - c).min(C));
                                    let acc = project::<R, C>(xp.as_ptr(), a_at, d, cs.map(|c| w_q.add(col + c)), width, zero);
                                    put(q_all.as_mut_ptr(), at, rows, &acc, &cs, cols);
                                    let acc = project::<R, C>(dyp.as_ptr(), a_at, d, cs.map(|c| w_o.add((col + c) * d)), 1, zero);
                                    put(dop.as_mut_ptr(), at, rows, &acc, &cs, cols);
                                }
                            }
                            // Softmax rows into `pp` and outputs into `op`, `R`
                            // query rows at a time through `attend`.
                            for i0 in (0..t).step_by(R) {
                                let (is, rows) = rows::<R>(t, i0);
                                for (r, &i) in is.iter().enumerate() {
                                    for c in 0..dk {
                                        store(qp.as_mut_ptr().add((r * dk + c) * LANES), load(q_all.as_ptr().add((i * dk + c) * LANES)));
                                    }
                                }
                                attend::<R>(t, dk, kp, vp, qp, s, rows, |r, row| {
                                    for j in 0..t {
                                        store(pp.as_mut_ptr().add(((i0 + r) * t + j) * LANES), load(row.add(j * LANES)));
                                    }
                                });
                                for (r, &i) in is.iter().enumerate().take(rows) {
                                    for c in 0..dk {
                                        store(op.as_mut_ptr().add((i * dk + c) * LANES), load(qp.as_ptr().add((r * dk + c) * LANES)));
                                    }
                                }
                            }
                            let inputs = [q_all.as_ptr(), kp.as_ptr(), vp.as_ptr(), dop.as_ptr()];
                            let g_panel = gp.as_mut_ptr().add(h * 3 * dk * LANES);
                            let grads = [0, dk, 2 * dk].map(|at| g_panel.add(at * LANES));
                            backward_panels::<R>(t, dk, inputs, pp.as_ptr(), ds.as_mut_ptr(), grads, 3 * width);
                            for i in 0..t {
                                let (g_row, o_row) = (i * inner * 3 * width + 3 * col, i * inner * width + col);
                                $ops::store_runs(g_panel.add(i * 3 * width * LANES), g_rows.as_mut_ptr(), &g_at, g_row, 3 * dk, live);
                                $ops::store_runs(op.as_ptr().add(i * dk * LANES), o_rows.as_mut_ptr(), &o_at, o_row, dk, live);
                            }
                        }
                        if completes {
                            let (x, dy) = (&x[row0 * d..][..n * d], &dy[row0 * d..][..n * d]);
                            matmul::<true>(x, &g_rows[..n * 3 * width], false, d_wqkv, d, n, 3 * width);
                            matmul::<true>(dy, &o_rows[..n * width], false, d_wo_t, d, n, width);
                        }
                        // dX[i][e] = Σ_c G[i][c] · w_qkv_t[c][e], one chain over
                        // `c` ascending — every head's dQ, then dK, then dV —
                        // though the panel keeps each head's three together.
                        if let Some(dx) = dx.as_deref_mut() {
                            for i0 in (0..t).step_by(R) {
                                let (is, rows) = rows::<R>(t, i0);
                                for e in (0..d).step_by(C) {
                                    let es = span::<C>(e, d);
                                    let mut acc = zero;
                                    for which in 0..3 {
                                        for h in 0..heads {
                                            let at = is.map(|i| i * 3 * width + (3 * h + which) * dk);
                                            let w = es.map(|e| w_qkv_t.add((which * width + h * dk) * d + e));
                                            acc = project::<R, C>(gp.as_ptr(), at, dk, w, d, acc);
                                        }
                                    }
                                    put(dxp.as_mut_ptr(), is.map(|i| i * d), rows, &acc, &es, (d - e).min(C));
                                }
                            }
                            for i in 0..t {
                                $ops::store_runs(dxp.as_ptr().add(i * d * LANES), dx.as_mut_ptr(), &x_at, i * inner * d, d, live);
                            }
                        }
                    }
                    group += LANES;
                }
            }
        }
    };
}
pub(crate) use attention_lanes_kernel;

/// Runs every tile of `grid` on `isa`'s kernel (see the module docs for
/// which), `queries` query rows a sequence against all its `tokens` keys,
/// overwriting each query's Q with its output. `probs`, when given, holds
/// `grid.tiles() * queries * grid.tokens` floats and receives the softmax
/// rows — the values the `P·V` product reads, so emitting them changes no
/// chain. The lane kernels carry [`block_rows`]`(queries)` query rows at
/// once; each row's chains read only its own query, so the block does not
/// change a value.
///
/// # Safety
///
/// `qo` must point to `grid.query_rows(queries) * grid.width()` floats
/// (`1 <= queries <= grid.tokens`), and nothing else may access them during
/// the call. (Shape/length consistency is checked by the safe caller,
/// `linalg::attention_queries_into`.)
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn attention_tiles(
    isa: super::Isa,
    grid: &AttnGrid,
    queries: usize,
    qo: *mut f32,
    k: &[f32],
    v: &[f32],
    scratch: &mut [f32],
    probs: Option<&mut [f32]>,
) {
    use super::Isa;
    debug_assert_eq!(k.len(), grid.rows() * grid.width());
    debug_assert_eq!(v.len(), k.len());
    debug_assert!(scratch.len() >= grid.scratch_len());
    let r = queries;
    // SAFETY: the caller's contract is each kernel's contract (`block_rows`
    // is 3 or 4); Avx2/Avx512 dispatch implies the features their kernels
    // enable are present.
    unsafe {
        match (isa, block_rows(r)) {
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx2, 3) => super::avx2::attention_lanes::<3>(grid, r, qo, k, v, scratch, probs),
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx2, _) => super::avx2::attention_lanes::<4>(grid, r, qo, k, v, scratch, probs),
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx512, 3) => {
                super::avx512::attention_lanes::<3>(grid, r, qo, k, v, scratch, probs)
            }
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx512, _) => {
                super::avx512::attention_lanes::<4>(grid, r, qo, k, v, scratch, probs)
            }
            _ => super::scalar::attention_tiles(grid, r, qo, k, v, scratch, probs),
        }
    }
}

/// One MHSA layer over every sequence of `grid` in one pass on `isa`'s
/// lane kernel (`mhsa_lanes`; `isa` is avx2 or avx512, see
/// [`AttnGrid::one_pass`]): `y = MHSA(x)` for `[rows, d]` rows `x` and `y`,
/// `weights` the row-major `[w_q, w_k, w_v, w_o]`. The kernel checks
/// every length against `grid`.
pub(crate) fn mhsa_one_pass(
    isa: super::Isa,
    grid: &AttnGrid,
    x: &[f32],
    weights: [&[f32]; 4],
    y: &mut [f32],
    scratch: &mut [f32],
) {
    use super::Isa;
    // SAFETY: Avx2/Avx512 dispatch implies the features their kernels
    // enable are present.
    unsafe {
        match (isa, block_rows(grid.tokens)) {
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx2, 3) => super::avx2::mhsa_lanes::<3>(grid, x, weights, y, scratch),
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx2, _) => super::avx2::mhsa_lanes::<4>(grid, x, weights, y, scratch),
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx512, 3) => super::avx512::mhsa_lanes::<3>(grid, x, weights, y, scratch),
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx512, _) => super::avx512::mhsa_lanes::<4>(grid, x, weights, y, scratch),
            _ => unreachable!("{isa:?} has no one-pass MHSA kernel"),
        }
    }
}

/// The backward of a layer [`mhsa_one_pass`] runs, on `isa`'s lane kernel
/// (`mhsa_backward_lanes`, which has the buffers and checks every length
/// against `grid`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn mhsa_one_pass_backward(
    isa: super::Isa,
    grid: &AttnGrid,
    x: &[f32],
    weights: [&[f32]; 5],
    dy: &[f32],
    dx: Option<&mut [f32]>,
    d_wqkv: &mut [f32],
    d_wo_t: &mut [f32],
) {
    use super::Isa;
    // SAFETY: Avx2/Avx512 dispatch implies the features their kernels
    // enable are present.
    unsafe {
        match (isa, block_rows(grid.tokens)) {
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx2, 3) => {
                super::avx2::mhsa_backward_lanes::<3>(grid, x, weights, dy, dx, d_wqkv, d_wo_t)
            }
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx2, _) => {
                super::avx2::mhsa_backward_lanes::<4>(grid, x, weights, dy, dx, d_wqkv, d_wo_t)
            }
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx512, 3) => {
                super::avx512::mhsa_backward_lanes::<3>(grid, x, weights, dy, dx, d_wqkv, d_wo_t)
            }
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx512, _) => {
                super::avx512::mhsa_backward_lanes::<4>(grid, x, weights, dy, dx, d_wqkv, d_wo_t)
            }
            _ => unreachable!("{isa:?} has no one-pass MHSA kernel"),
        }
    }
}

/// `acc[λ] += a[λ] * b[λ]` — a multiply, then an add: Rust never contracts
/// the pair into an FMA, so the loop the compiler vectorises here rounds
/// exactly like its scalar form.
#[inline(always)]
fn mul_add<const LANES: usize>(acc: &mut [f32; LANES], a: &[f32; LANES], b: &[f32; LANES]) {
    // By value: the optimiser then sees three unaliased rows.
    let (mut sum, a, b) = (*acc, *a, *b);
    for lane in 0..LANES {
        sum[lane] += a[lane] * b[lane];
    }
    *acc = sum;
}

/// One `R × 2` register block of a product of panels: for `x < 2` (`x = 0`
/// alone unless `two`) and `r < R`, `Σ_κ a[a_rows[r] + κ·a_step] ·
/// b[b_cols[x] + κ·b_step]` over `κ < n`, one accumulator per lane from
/// `0.0` a sum, `κ` ascending, multiply then add. Every product of the
/// attention backward is such blocks; `attention_backward_kernel!` has the
/// same function in vector registers.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn block<const LANES: usize, const R: usize>(
    a: &[[f32; LANES]],
    a_rows: [usize; R],
    a_step: usize,
    b: &[[f32; LANES]],
    b_cols: [usize; 2],
    b_step: usize,
    n: usize,
    two: bool,
) -> [[[f32; LANES]; R]; 2] {
    let mut acc = [[[0.0f32; LANES]; R]; 2];
    for kappa in 0..n {
        let b0 = &b[b_cols[0] + kappa * b_step];
        if two {
            let b1 = &b[b_cols[1] + kappa * b_step];
            for (r, &row) in a_rows.iter().enumerate() {
                let a = &a[row + kappa * a_step];
                mul_add(&mut acc[0][r], a, b0);
                mul_add(&mut acc[1][r], a, b1);
            }
        } else {
            for (r, &row) in a_rows.iter().enumerate() {
                mul_add(&mut acc[0][r], &a[row + kappa * a_step], b0);
            }
        }
    }
    acc
}

/// The `[token][column][lane]` panels of one lane group of the attention
/// backward: row `i·dk + c` of a `t × dk` panel (row `i·t + j` of `p` and
/// `ds`) is that element of every lane's tile, lane `λ` belonging to one
/// tile throughout. Every tile-backward kernel carves them with
/// [`Self::new`], fills `inputs` and `p` its own way, and writes `grads`
/// back out; in between the scalar kernel runs [`Self::backward`] and the
/// lane kernels (`attention_backward_kernel!`) the same arithmetic, op for
/// op and in the same loop nest, in vector registers — which the one-pass
/// backward also runs, on panels of its own.
pub(super) struct Panels<'a, const LANES: usize> {
    t: usize,
    dk: usize,
    /// Q, K, V and dO.
    pub(crate) inputs: [&'a mut [[f32; LANES]]; 4],
    /// The softmax rows P.
    pub(crate) p: &'a mut [[f32; LANES]],
    /// dQ, dK and dV.
    pub(crate) grads: [&'a mut [[f32; LANES]]; 3],
    /// dP, then dS: `t × t`, like P.
    pub(crate) ds: &'a mut [[f32; LANES]],
}

impl<'a, const LANES: usize> Panels<'a, LANES> {
    /// Floats the panels of one call over `t`-token, `dk`-column tiles
    /// take, with the slack [`Self::new`] needs to start them on a 64-byte
    /// boundary.
    pub(crate) fn memory_len(t: usize, dk: usize) -> usize {
        (7 * t * dk + 2 * t * t) * LANES + 15
    }

    /// Carves the panels out of `memory` ([`Self::memory_len`] floats)
    /// from its first 64-byte boundary, so no panel row straddles a cache
    /// line more than it must.
    pub(crate) fn new(memory: &'a mut [f32], t: usize, dk: usize) -> Self {
        debug_assert!(t * dk > 0);
        let skip = memory.as_ptr().align_offset(64).min(15);
        let rows = 7 * t * dk + 2 * t * t;
        let (rows, _) = memory[skip..][..rows * LANES].as_chunks_mut::<LANES>();
        let (tiles, rest) = rows.split_at_mut(7 * t * dk);
        let (p, ds) = rest.split_at_mut(t * t);
        let mut tiles = tiles.chunks_exact_mut(t * dk);
        let [q, k, v, d_o, d_q, d_k, d_v] = [(); 7].map(|()| tiles.next().expect("seven panels"));
        Panels {
            t,
            dk,
            inputs: [q, k, v, d_o],
            p,
            grads: [d_q, d_k, d_v],
            ds,
        }
    }

    /// The backward of every lane's tile, from `inputs` and `p` into
    /// `grads`:
    ///
    /// ```text
    /// dP = dO·Vᵀ    dS = P ∘ (dP − rowsum(dP ∘ P)) · scale
    /// dQ = dS·K     dK = dSᵀ·Q    dV = Pᵀ·dO
    /// ```
    ///
    /// `R` query rows at a time ([`block_rows`]`(t)`), `dP` goes into the
    /// `ds` panel two keys a step while each row's `rowsum(dP ∘ P)` follows
    /// in key order, then becomes `dS` in place, and the rows' `dQ` follow
    /// two columns a step; then `dK` and `dV`, `R` key rows by two columns
    /// a block. Each sum is one accumulator per lane from `0.0` over an
    /// ascending index, multiply then add ([`block`]), held until its
    /// store; a short last block re-reads its last row and never stores
    /// it. Lanes never mix, so every lane computes the same bits whatever
    /// its position. Non-finite inputs propagate by IEEE rules: nothing is
    /// skipped or masked.
    ///
    /// Safe rows suit the build's baseline (SSE2 on x86-64), where the
    /// compiler vectorises each row op across the lanes. Inlined under an
    /// avx2 / avx512 `#[target_feature]`, the same loops get vectorised
    /// across panel rows instead — gathers and scatters on avx512,
    /// shuffles on avx2 — and ran at half the baseline's speed, which is
    /// why the lane kernels spell the ops out in vector registers.
    pub(crate) fn backward<const R: usize>(&mut self, scale: f32) {
        let (t, dk) = (self.t, self.dk);
        let [qp, kp, vp, gp] = &self.inputs;
        let [dqp, dkp, dvp] = &mut self.grads;
        let (pp, ds) = (&*self.p, &mut *self.ds);
        // Stores the first `live` rows of a block, row `r` at `at[r] + x`
        // for its columns `x` (`x = 0` alone unless `two`).
        let store = |out: &mut [[f32; LANES]],
                     at: [usize; R],
                     live: usize,
                     acc: [[[f32; LANES]; R]; 2],
                     two: bool| {
            for (x, acc) in acc.iter().enumerate().take(1 + two as usize) {
                for (&at, acc) in at.iter().zip(acc).take(live) {
                    out[at + x] = *acc;
                }
            }
        };
        for i0 in (0..t).step_by(R) {
            let (is, live) = rows::<R>(t, i0);
            let mut sum = [[0.0f32; LANES]; R];
            for j in (0..t).step_by(2) {
                let two = j + 1 < t;
                let acc = block(
                    gp,
                    is.map(|i| i * dk),
                    1,
                    vp,
                    [j * dk, (j + 1) * dk],
                    1,
                    dk,
                    two,
                );
                for (x, acc) in acc.iter().enumerate().take(1 + two as usize) {
                    for (r, dp) in acc.iter().enumerate() {
                        mul_add(&mut sum[r], dp, &pp[is[r] * t + j + x]);
                    }
                }
                store(ds, is.map(|i| i * t + j), live, acc, two);
            }
            for (&i, sum) in is.iter().zip(&sum).take(live) {
                for (dp, p) in ds[i * t..][..t].iter_mut().zip(&pp[i * t..][..t]) {
                    for lane in 0..LANES {
                        dp[lane] = p[lane] * (dp[lane] - sum[lane]) * scale;
                    }
                }
            }
            for c in (0..dk).step_by(2) {
                let two = c + 1 < dk;
                let acc = block(ds, is.map(|i| i * t), 1, kp, [c, c + 1], dk, t, two);
                store(dqp, is.map(|i| i * dk + c), live, acc, two);
            }
        }
        for j0 in (0..t).step_by(R) {
            let (js, live) = rows::<R>(t, j0);
            for (out, a, b) in [(&mut **dkp, &*ds, qp), (&mut **dvp, pp, gp)] {
                for c in (0..dk).step_by(2) {
                    let two = c + 1 < dk;
                    let acc = block(a, js, t, b, [c, c + 1], dk, t, two);
                    store(out, js.map(|j| j * dk + c), live, acc, two);
                }
            }
        }
    }
}

/// Generates `attention_backward_lanes`, the lane-parallel attention
/// backward, and `backward_panels`, its arithmetic on one lane group's
/// panels (which the one-pass backward shares), over `$ops`, a lanes
/// module of the ISA's vector primitives
/// (`LANES`, `splat`, `load`, `store`, `load_runs`, `store_runs`, `add`,
/// `mul`, `sub`). `LANES` tiles ride in the lanes of [`Panels`]; the
/// group's tile rows go in through `load_runs` (contiguous `dk`-float runs
/// turned lane-major by in-register transposes, as the forward's Q, K and V
/// do) and its gradient rows come out through `store_runs`, the inverse —
/// no element is gathered or emitted one at a time. The arithmetic is
/// [`Panels::backward`]'s op for op in its loop nest, each `acc[λ] +=
/// a[λ]·b[λ]` an `add(acc, mul(a, b))` (never an FMA), so a lane computes
/// exactly the scalar kernel's chain. Dead lanes of a ragged last group
/// alias the last live tile (valid reads) and are never written.
macro_rules! attention_backward_kernel {
    ($(#[$attr:meta])* $ops:ident) => {
        /// [`Panels::backward`] in vector registers, op for op and loop for
        /// loop, on one lane group's panels (`LANES` floats a row): from
        /// `Q`, `K`, `V`, `dO` (`inputs`, `t·dk` rows each) and `P` (`pp`,
        /// `t·t` rows), `dQ`, `dK` and `dV` into `grads` (element `(i, c)`
        /// at row `i·stride + c`), through `ds` (`t·t` rows: `dP`, then
        /// `dS`). Every sum is one accumulator per lane from `0.0` over an
        /// ascending index, `add(acc, mul(a, b))`, held in a register until
        /// its store.
        ///
        /// # Safety
        ///
        /// Every pointer must be valid for its rows — `ds` and `grads` for
        /// writes, overlapping nothing else passed.
        $(#[$attr])*
        #[inline]
        #[allow(clippy::too_many_arguments)]
        unsafe fn backward_panels<const R: usize>(
            t: usize,
            dk: usize,
            [qp, kp, vp, gp]: [*const f32; 4],
            pp: *const f32,
            ds: *mut f32,
            [dqp, dkp, dvp]: [*mut f32; 3],
            stride: usize,
        ) {
            use $ops::LANES;
            // Float offset of panel row `r`.
            let at = |r: usize| r * LANES;
            let (zero, scale) = ($ops::splat(0.0), $ops::splat(1.0 / (dk as f32).sqrt()));
            let get = |panel: *const f32, r: usize| $ops::load(panel.add(at(r)));
            let put = |panel: *mut f32, r: usize, x| $ops::store(panel.add(at(r)), x);
            // `attention::block` in vector registers.
            let block = |a: *const f32,
                         a_rows: [usize; R],
                         a_step: usize,
                         b: *const f32,
                         b_cols: [usize; 2],
                         b_step: usize,
                         n: usize,
                         two: bool| {
                let mut acc = [[zero; R]; 2];
                for kappa in 0..n {
                    let b0 = get(b, b_cols[0] + kappa * b_step);
                    if two {
                        let b1 = get(b, b_cols[1] + kappa * b_step);
                        for (r, &row) in a_rows.iter().enumerate() {
                            let a = get(a, row + kappa * a_step);
                            acc[0][r] = $ops::add(acc[0][r], $ops::mul(a, b0));
                            acc[1][r] = $ops::add(acc[1][r], $ops::mul(a, b1));
                        }
                    } else {
                        for (r, &row) in a_rows.iter().enumerate() {
                            let a = get(a, row + kappa * a_step);
                            acc[0][r] = $ops::add(acc[0][r], $ops::mul(a, b0));
                        }
                    }
                }
                acc
            };
            let store = |out: *mut f32, at: [usize; R], live: usize, acc: [[$ops::V; R]; 2], two: bool| {
                for (x, acc) in acc.into_iter().enumerate() {
                    if x == 0 || two {
                        for (r, acc) in acc.into_iter().enumerate() {
                            if r < live {
                                put(out, at[r] + x, acc);
                            }
                        }
                    }
                }
            };
            for i0 in (0..t).step_by(R) {
                let (is, live) = crate::simd::attention::rows::<R>(t, i0);
                let mut sum = [zero; R];
                for j in (0..t).step_by(2) {
                    let two = j + 1 < t;
                    let acc = block(gp, is.map(|i| i * dk), 1, vp, [j * dk, (j + 1) * dk], 1, dk, two);
                    for (x, acc) in acc.into_iter().enumerate() {
                        if x == 0 || two {
                            for (r, dp) in acc.into_iter().enumerate() {
                                sum[r] = $ops::add(sum[r], $ops::mul(dp, get(pp, is[r] * t + j + x)));
                            }
                        }
                    }
                    store(ds, is.map(|i| i * t + j), live, acc, two);
                }
                for (&i, &sum) in is.iter().zip(&sum).take(live) {
                    for at in i * t..(i + 1) * t {
                        let dp = $ops::sub(get(ds, at), sum);
                        put(ds, at, $ops::mul($ops::mul(get(pp, at), dp), scale));
                    }
                }
                for c in (0..dk).step_by(2) {
                    let two = c + 1 < dk;
                    let acc = block(ds, is.map(|i| i * t), 1, kp, [c, c + 1], dk, t, two);
                    store(dqp, is.map(|i| i * stride + c), live, acc, two);
                }
            }
            for j0 in (0..t).step_by(R) {
                let (js, live) = crate::simd::attention::rows::<R>(t, j0);
                for (out, a, b) in [(dkp, ds.cast_const(), qp), (dvp, pp, gp)] {
                    for c in (0..dk).step_by(2) {
                        let two = c + 1 < dk;
                        let acc = block(a, js, t, b, [c, c + 1], dk, t, two);
                        store(out, js.map(|j| j * stride + c), live, acc, two);
                    }
                }
            }
        }

        /// The attention backward of every tile of `grid`, `LANES` tiles a
        /// group and `R` rows a register block (see
        /// `linalg::attention_backward_into_with_isa` for the buffers):
        /// `dQ | dK | dV` into `d_qkv`, `[rows, 3·width]`, at column
        /// offsets `0`, `width` and `2·width`, every element overwritten.
        $(#[$attr])*
        pub(crate) fn attention_backward_lanes<const R: usize>(
            grid: &crate::simd::AttnGrid,
            inputs: [&[f32]; 4],
            p: &[f32],
            d_qkv: &mut [f32],
        ) {
            use $ops::LANES;
            let (t, dk, tiles, width) = (grid.tokens, grid.head_dim, grid.tiles(), grid.width());
            let len = grid.rows() * width;
            assert!(
                inputs.iter().all(|x| x.len() == len)
                    && p.len() == grid.probs_len()
                    && d_qkv.len() == 3 * len,
                "attention backward buffers disagree with {grid:?}"
            );
            if len == 0 {
                return;
            }
            let (stride, out_stride) = (grid.token_stride(), 3 * grid.token_stride());
            let mut memory = crate::Scratch::take(crate::simd::attention::Panels::<LANES>::memory_len(t, dk));
            let panels = crate::simd::attention::Panels::<LANES>::new(&mut memory, t, dk);
            let [qp, kp, vp, gp] = panels.inputs.map(|x| x.as_mut_ptr().cast::<f32>());
            let [dqp, dkp, dvp] = panels.grads.map(|x| x.as_mut_ptr().cast::<f32>());
            let (pp, ds) = (panels.p.as_mut_ptr().cast::<f32>(), panels.ds.as_mut_ptr().cast::<f32>());
            let mut group = 0;
            while group < tiles {
                let live = (tiles - group).min(LANES);
                let (mut base, mut p_base, mut out_base) = ([0usize; LANES], [0usize; LANES], [0usize; LANES]);
                for lane in 0..LANES {
                    let tile = group + lane.min(live - 1);
                    base[lane] = grid.tile_base(tile);
                    p_base[lane] = tile * t * t;
                    out_base[lane] = grid.tile_base_in(tile, 3 * width);
                }
                // SAFETY (this block): a lane reads `base[λ] + i·stride +
                // 0..dk` of a `[rows, width]` input for `i < t` — its own
                // tile's segments, inside `len` floats by `AttnGrid`'s
                // geometry, the lengths asserted above — and `p_base[λ] +
                // 0..t·t` of `p`, its own tile's softmax rows; a live lane
                // writes `dk` floats at `out_base[λ] + i·out_stride +
                // which·width` of `d_qkv`, its own tile's segment of gradient
                // `which` in the `[rows, 3·width]` layout, inside `3·len`
                // floats. The panels are `backward_panels`' (`t·dk` rows
                // each, `t·t` for `pp` and `ds`), all carved from `memory`
                // by `Panels::new`, which nothing else touches meanwhile.
                unsafe {
                    for i in 0..t {
                        for (panel, src) in [qp, kp, vp, gp].into_iter().zip(inputs) {
                            $ops::load_runs(src.as_ptr(), &base, i * stride, dk, panel.add(i * dk * LANES));
                        }
                    }
                    $ops::load_runs(p.as_ptr(), &p_base, 0, t * t, pp);
                    backward_panels::<R>(t, dk, [qp, kp, vp, gp].map(<*mut f32>::cast_const), pp, ds, [dqp, dkp, dvp], dk);
                    for (which, grad) in [dqp, dkp, dvp].into_iter().enumerate() {
                        let dst = d_qkv.as_mut_ptr().add(which * width);
                        for i in 0..t {
                            $ops::store_runs(grad.add(i * dk * LANES), dst, &out_base, i * out_stride, dk, live);
                        }
                    }
                }
                group += LANES;
            }
        }
    };
}
pub(crate) use attention_backward_kernel;

/// Backward of every attention tile of `grid` on `isa`'s kernel: from each
/// tile's `Q`, `K`, `V`, `dO` (`inputs`, `[rows, width]` each) and saved
/// softmax rows `P` (`p`, the `[tile][token][token]` array), `dQ | dK | dV`
/// into `d_qkv`, `[rows, 3·width]`, every element overwritten. Every ISA
/// runs [`Panels::backward`]'s arithmetic per lane group — scalar on
/// [`MAX_LANES`]-wide panels filled element by element, avx2/avx512 on 8 /
/// 16 lanes filled by in-register transposes — so a tile's gradient bits
/// are the same on every ISA, in every lane position and every group
/// (DESIGN.md §16). (Length consistency is checked by the safe caller,
/// `linalg::attention_backward_into_with_isa`, and again by the lane
/// kernels, whose pointer loads and stores rest on it.)
pub(crate) fn attention_backward_tiles(
    isa: super::Isa,
    grid: &AttnGrid,
    inputs: [&[f32]; 4],
    p: &[f32],
    d_qkv: &mut [f32],
) {
    use super::Isa;
    // SAFETY: Avx2/Avx512 dispatch implies the features their kernels
    // enable are present.
    unsafe {
        match (isa, block_rows(grid.tokens)) {
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx2, 3) => super::avx2::attention_backward_lanes::<3>(grid, inputs, p, d_qkv),
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx2, _) => super::avx2::attention_backward_lanes::<4>(grid, inputs, p, d_qkv),
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx512, 3) => {
                super::avx512::attention_backward_lanes::<3>(grid, inputs, p, d_qkv)
            }
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx512, _) => {
                super::avx512::attention_backward_lanes::<4>(grid, inputs, p, d_qkv)
            }
            _ => super::scalar::attention_backward_tiles(grid, inputs, p, d_qkv),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every (tile, token) pair owns a distinct `head_dim`-long segment
    /// inside the buffer — the disjointness writing outputs over Q rests on.
    #[test]
    fn tiles_partition_the_buffer_into_disjoint_segments() {
        for (outer, tokens, inner) in [(3, 5, 1), (2, 4, 3), (1, 1, 1), (4, 9, 2)] {
            let grid = AttnGrid {
                outer,
                tokens,
                inner,
                heads: 3,
                head_dim: 4,
            };
            let len = grid.rows() * grid.width();
            let mut owner = vec![usize::MAX; len];
            for tile in 0..grid.tiles() {
                for token in 0..tokens {
                    let at = grid.tile_base(tile) + token * grid.token_stride();
                    for slot in &mut owner[at..at + grid.head_dim] {
                        assert_eq!(*slot, usize::MAX, "{grid:?}: element claimed twice");
                        *slot = tile;
                    }
                }
            }
            assert!(owner.iter().all(|&o| o != usize::MAX), "{grid:?}: gaps");
        }
    }
}
