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
//!   mirror of `exp_scalar`, which the row kernel uses on tails) and the
//!   f64 adds are exact per lane, so lane position cannot change a value;
//!   the one order-sensitive step, the softmax sum, reproduces the row
//!   kernel's fold explicitly (see the macro).
//!
//! Either kernel can also hand out each tile's softmax rows `P` — the values
//! it is about to multiply into `V`, stored on the way, so no chain changes.
//!
//! # Backward
//!
//! `attention_backward_tiles` (behind `linalg::attention_backward_into`)
//! turns `Q`, `K`, `V`, the saved `P` and `dO` into `dQ`, `dK`, `dV`. It had no earlier composition's bits to honour, so
//! it takes the simplest contract there is: **one** kernel for every ISA,
//! safe Rust over `[f32; 16]` rows (16 tiles per `[token][column][lane]`
//! panel, like the lane kernel above), every sum a single accumulator per
//! lane over an ascending index, multiply then add. rustc vectorises the
//! rows with whatever the build's baseline allows (SSE2 on x86-64) and may
//! not fuse or reorder them, so a tile's gradient bits are the same on every
//! ISA and in every lane — a stronger contract than the
//! forward's, bought by not hand-writing it three times. Wider per-ISA
//! instances would have little to win: at HIM's tile sizes about 70 % of
//! the kernel's time is gathering tiles into panels and scattering the
//! results, not arithmetic.

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
/// scratch so its length does not depend on the dispatched ISA.
const MAX_LANES: usize = 16;

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
        let (batch, head) = (tile / self.heads, tile % self.heads);
        let (o, j) = (batch / self.inner, batch % self.inner);
        (o * self.tokens * self.inner + j) * self.width() + head * self.head_dim
    }

    /// Scratch floats a call needs, whichever ISA's kernel runs it:
    /// gathered Q/Kᵀ/V tiles plus a score and a probability tile for the
    /// tile-at-a-time kernel; K and V panels, one Q row and one score row
    /// per lane for the lane-parallel one.
    pub fn scratch_len(&self) -> usize {
        let (t, dk) = (self.tokens, self.head_dim);
        (3 * t * dk + 2 * t * t).max((2 * t * dk + dk + t) * MAX_LANES)
    }
}

/// Generates `attention_lanes`, the lane-parallel kernel. `$ops` is a
/// module of the ISA's vector primitives: `LANES`, `splat`, `load`,
/// `store`, `gather`, `scatter`, `fmadd`, `mul`, `sub`, `max`, `exp`,
/// `sum_zero`, `sum_add`, `sum_join`, `sum_recip`.
///
/// Layout: lane `λ` of every vector belongs to tile `group_start + λ`. The
/// group's K and V are gathered once into `[token][column][lane]` panels,
/// Q one row at a time, so every later operand is one full-width load;
/// each output vector is scattered back over that row's Q. Dead lanes of a
/// ragged last group alias the last live tile (valid reads) and are never
/// written.
macro_rules! attention_lanes_kernel {
    ($(#[$attr:meta])* $ops:ident) => {
        /// Attention over every tile of `grid`, `LANES` tiles per vector
        /// (see [`crate::simd::attention`] for the lane layout and why each
        /// lane's chain is the unfused one), overwriting each tile's Q with
        /// its output. `scratch` holds at least `grid.scratch_len()`
        /// floats; `probs`, when given, is the `[tile][token][token]`
        /// softmax rows (`grid.probs_len()` floats) and receives them.
        ///
        /// # Safety
        ///
        /// `qo` must point to `k.len()` floats (`grid.rows() *
        /// grid.width()`, which must fit in `i32`: gather indices are
        /// 32-bit element offsets), and nothing else may access them
        /// during the call.
        $(#[$attr])*
        pub unsafe fn attention_lanes(
            grid: &crate::simd::AttnGrid,
            qo: *mut f32,
            k: &[f32],
            v: &[f32],
            scratch: &mut [f32],
            mut probs: Option<&mut [f32]>,
        ) {
            use $ops::LANES;
            let (t, dk, tiles) = (grid.tokens, grid.head_dim, grid.tiles());
            debug_assert!(t > 0 && k.len() <= i32::MAX as usize);
            let stride = grid.token_stride();
            let (kp, rest) = scratch.split_at_mut(t * dk * LANES);
            let (vp, rest) = rest.split_at_mut(t * dk * LANES);
            let (q_row, rest) = rest.split_at_mut(dk * LANES);
            let s = &mut rest[..t * LANES];
            let at = |token: usize, col: usize| (token * dk + col) * LANES;
            let scale = $ops::splat(1.0 / (dk as f32).sqrt());
            // Columns of a softmax row the avx2 row kernel runs through its
            // eight-wide vector body; the rest is its scalar tail.
            let body = t - t % 8;
            if let Some(probs) = &probs {
                assert!(
                    probs.len() == tiles * t * t && probs.len() <= i32::MAX as usize,
                    "softmax rows of {tiles} tiles of {t} tokens cannot be {} floats",
                    probs.len()
                );
            }
            let mut group = 0;
            while group < tiles {
                let live = (tiles - group).min(LANES);
                let (mut base, mut p_base) = ([0i32; LANES], [0i32; LANES]);
                for lane in 0..LANES {
                    let tile = group + lane.min(live - 1);
                    let tile_base = grid.tile_base(tile);
                    debug_assert!(tile_base + (t - 1) * stride + dk <= k.len());
                    base[lane] = tile_base as i32;
                    p_base[lane] = (tile * t * t) as i32;
                }
                // SAFETY (this block): every gather/scatter offset is
                // `tile_base + token * stride + col` with `token < t`,
                // `col < dk` — inside the buffers by the assert above — and
                // scatters touch only live tiles' own Q segments, or, into
                // `probs`, element `i * t + j < t * t` of a live tile's own
                // `t * t` rows, inside it by the length assert; panel
                // offsets `at(token, col) + LANES <= t * dk * LANES`, row
                // offsets `col * LANES + LANES <= dk * LANES` and
                // `j * LANES + LANES <= t * LANES`.
                unsafe {
                    for j in 0..t {
                        for c in 0..dk {
                            let offset = (j * stride + c) as i32;
                            $ops::store(
                                kp.as_mut_ptr().add(at(j, c)),
                                $ops::gather(k.as_ptr(), &base, offset),
                            );
                            $ops::store(
                                vp.as_mut_ptr().add(at(j, c)),
                                $ops::gather(v.as_ptr(), &base, offset),
                            );
                        }
                    }
                    for i in 0..t {
                        for c in 0..dk {
                            let offset = (i * stride + c) as i32;
                            $ops::store(
                                q_row.as_mut_ptr().add(c * LANES),
                                $ops::gather(qo as *const f32, &base, offset),
                            );
                        }
                        // s[j] = (q_i · k_j) * scale, and the row max.
                        let mut max = $ops::splat(f32::NEG_INFINITY);
                        for j in 0..t {
                            let mut acc = $ops::splat(0.0);
                            for c in 0..dk {
                                acc = $ops::fmadd(
                                    $ops::load(q_row.as_ptr().add(c * LANES)),
                                    $ops::load(kp.as_ptr().add(at(j, c))),
                                    acc,
                                );
                            }
                            let sj = $ops::mul(acc, scale);
                            $ops::store(s.as_mut_ptr().add(j * LANES), sj);
                            max = $ops::max(sj, max);
                        }
                        for j in 0..t {
                            let e = $ops::exp($ops::sub($ops::load(s.as_ptr().add(j * LANES)), max));
                            $ops::store(s.as_mut_ptr().add(j * LANES), e);
                        }
                        // The row kernel's f64 sum: body columns accumulate
                        // by `j % 8` into two four-lane registers (`lo`:
                        // residues 0–3, `hi`: 4–7), folded as
                        // `((l0 + l1) + l2) + l3` with `l_r = lo_r + hi_r`;
                        // tail columns then add one by one.
                        let mut sum = $ops::sum_zero();
                        for r in 0..4 {
                            let (mut lo, mut hi) = ($ops::sum_zero(), $ops::sum_zero());
                            let mut j = r;
                            while j < body {
                                lo = $ops::sum_add(lo, $ops::load(s.as_ptr().add(j * LANES)));
                                hi = $ops::sum_add(hi, $ops::load(s.as_ptr().add((j + 4) * LANES)));
                                j += 8;
                            }
                            let l = $ops::sum_join(lo, hi);
                            sum = if r == 0 { l } else { $ops::sum_join(sum, l) };
                        }
                        for j in body..t {
                            sum = $ops::sum_add(sum, $ops::load(s.as_ptr().add(j * LANES)));
                        }
                        let inv = $ops::sum_recip(sum);
                        for j in 0..t {
                            let p = $ops::mul($ops::load(s.as_ptr().add(j * LANES)), inv);
                            $ops::store(s.as_mut_ptr().add(j * LANES), p);
                        }
                        if let Some(probs) = probs.as_deref_mut() {
                            for j in 0..t {
                                $ops::scatter(
                                    probs.as_mut_ptr(),
                                    &p_base,
                                    (i * t + j) as i32,
                                    $ops::load(s.as_ptr().add(j * LANES)),
                                    live,
                                );
                            }
                        }
                        for c in 0..dk {
                            let mut acc = $ops::splat(0.0);
                            for j in 0..t {
                                acc = $ops::fmadd(
                                    $ops::load(s.as_ptr().add(j * LANES)),
                                    $ops::load(vp.as_ptr().add(at(j, c))),
                                    acc,
                                );
                            }
                            $ops::scatter(qo, &base, (i * stride + c) as i32, acc, live);
                        }
                    }
                }
                group += LANES;
            }
        }
    };
}
pub(crate) use attention_lanes_kernel;

/// Runs every tile of `grid` on `isa`'s kernel (see the module docs for
/// which), overwriting each tile's Q with its output. `probs`, when given,
/// holds `grid.probs_len()` floats and receives the softmax rows — the
/// values the `P·V` product reads, so emitting them changes no chain.
///
/// # Safety
///
/// `qo` must point to `k.len()` floats, and nothing else may access them
/// during the call. (Shape/length consistency and the 32-bit index bound are
/// checked by the safe caller, `linalg::attention_into_with_isa`.)
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn attention_tiles(
    isa: super::Isa,
    grid: &AttnGrid,
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
    // SAFETY: the caller's contract is each kernel's contract; Avx2/Avx512
    // dispatch implies the features their kernels enable are present.
    unsafe {
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => super::avx2::attention_lanes(grid, qo, k, v, scratch, probs),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => super::avx512::attention_lanes(grid, qo, k, v, scratch, probs),
            _ => super::scalar::attention_tiles(grid, qo, k, v, scratch, probs),
        }
    }
}

/// One panel row of the backward kernel: the same `(token, column)` element
/// of [`MAX_LANES`] tiles.
type Row = [f32; MAX_LANES];

/// `acc[λ] += a[λ] * b[λ]` — a multiply, then an add, in every build: Rust
/// never contracts the pair into an FMA, so the loop rustc vectorises here
/// rounds exactly like its scalar form.
#[inline(always)]
fn mul_add(acc: &mut Row, a: &Row, b: &Row) {
    // By value: the optimiser then sees three unaliased rows.
    let (mut sum, a, b) = (*acc, *a, *b);
    for lane in 0..MAX_LANES {
        sum[lane] += a[lane] * b[lane];
    }
    *acc = sum;
}

/// `rows[e][lane] = src[e]`: one tile's values into its lane of a panel.
#[inline(always)]
fn set_lane(rows: &mut [Row], lane: usize, src: &[f32]) {
    for (row, &x) in rows.iter_mut().zip(src) {
        row[lane] = x;
    }
}

/// Backward of every attention tile of `grid`: from each tile's `Q`, `K`,
/// `V`, saved softmax rows `P` (`p`, the `[tile][token][token]` array) and
/// upstream `dO`,
///
/// ```text
/// dV = Pᵀ·dO    dP = dO·Vᵀ    dS = P ∘ (dP − rowsum(dP ∘ P)) / √dk
/// dQ = dS·K     dK = dSᵀ·Q
/// ```
///
/// handed to `emit(offset, [dq, dk, dv])` once per element of the tile's
/// segments (`offset` is the element's index in the `[rows, width]`
/// buffers, the one `q[offset]` was read at).
///
/// Lane-blocked like `attention_lanes_kernel!` — [`MAX_LANES`] tiles ride
/// in the lanes of `[token][column][lane]` panels, so every inner loop is
/// full width however small a tile is — but written once, in safe Rust,
/// for every ISA. Each sum is one accumulator per lane from `0.0` over an
/// ascending index, multiply then add; lanes never mix. A tile's gradient
/// bits are therefore the same on every ISA and in every lane position
/// (DESIGN.md §16). Non-finite
/// inputs propagate by IEEE rules: nothing is skipped or masked.
pub(crate) fn attention_backward_tiles(
    grid: &AttnGrid,
    [q, k, v, d_o]: [&[f32]; 4],
    p: &[f32],
    mut emit: impl FnMut(usize, [f32; 3]),
) {
    const LANES: usize = MAX_LANES;
    let (t, dk, tiles) = (grid.tokens, grid.head_dim, grid.tiles());
    let stride = grid.token_stride();
    let scale = 1.0 / (dk as f32).sqrt();
    let zero = [0.0f32; LANES];
    let mut panels = vec![zero; 7 * t * dk + t * t + t];
    let (qp, rest) = panels.split_at_mut(t * dk);
    let (kp, rest) = rest.split_at_mut(t * dk);
    let (vp, rest) = rest.split_at_mut(t * dk);
    let (gp, rest) = rest.split_at_mut(t * dk);
    let (dqp, rest) = rest.split_at_mut(t * dk);
    let (dkp, rest) = rest.split_at_mut(t * dk);
    let (dvp, rest) = rest.split_at_mut(t * dk);
    // `ds` is row `i` of `dP`, then of `dS`.
    let (pp, ds) = rest.split_at_mut(t * t);
    let mut group = 0;
    while group < tiles {
        // Lanes past `live` keep whatever an earlier group left there:
        // lanes are independent and theirs are never emitted.
        let live = (tiles - group).min(LANES);
        for lane in 0..live {
            let base = grid.tile_base(group + lane);
            for i in 0..t {
                let at = base + i * stride;
                for (panel, src) in [(&mut *qp, q), (&mut *kp, k), (&mut *vp, v), (&mut *gp, d_o)] {
                    set_lane(&mut panel[i * dk..][..dk], lane, &src[at..][..dk]);
                }
            }
            set_lane(pp, lane, &p[(group + lane) * t * t..][..t * t]);
        }
        dkp.fill(zero);
        dvp.fill(zero);
        for i in 0..t {
            let (g_i, q_i) = (&gp[i * dk..][..dk], &qp[i * dk..][..dk]);
            let p_i = &pp[i * t..][..t];
            for (j, dp) in ds.iter_mut().enumerate() {
                *dp = zero;
                for (g, v) in g_i.iter().zip(&vp[j * dk..][..dk]) {
                    mul_add(dp, g, v);
                }
            }
            let mut sum = zero;
            for (dp, p) in ds.iter().zip(p_i) {
                mul_add(&mut sum, dp, p);
            }
            for (dp, p) in ds.iter_mut().zip(p_i) {
                for lane in 0..LANES {
                    dp[lane] = p[lane] * (dp[lane] - sum[lane]) * scale;
                }
            }
            for (c, dq) in dqp[i * dk..][..dk].iter_mut().enumerate() {
                *dq = zero;
                for (j, s) in ds.iter().enumerate() {
                    mul_add(dq, s, &kp[j * dk + c]);
                }
            }
            for (j, (s, p)) in ds.iter().zip(p_i).enumerate() {
                let (dk_j, dv_j) = (&mut dkp[j * dk..][..dk], &mut dvp[j * dk..][..dk]);
                for c in 0..dk {
                    mul_add(&mut dk_j[c], s, &q_i[c]);
                    mul_add(&mut dv_j[c], p, &g_i[c]);
                }
            }
        }
        for lane in 0..live {
            let base = grid.tile_base(group + lane);
            for i in 0..t {
                let rows = dqp[i * dk..][..dk]
                    .iter()
                    .zip(&dkp[i * dk..][..dk])
                    .zip(&dvp[i * dk..][..dk]);
                for (c, ((dq_e, dk_e), dv_e)) in rows.enumerate() {
                    emit(base + i * stride + c, [dq_e[lane], dk_e[lane], dv_e[lane]]);
                }
            }
        }
        group += LANES;
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
