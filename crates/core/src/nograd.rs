//! The one tape-free HIM forward: context encode → MBU/MBI/MBA attention
//! → `α·sigmoid` decoder (Eq. 16), written once over [`HimWeights`], f32
//! throughout.
//!
//! [`crate::FrozenModel`] is a `HimWeights` of owned arrays plus its
//! configuration, and [`crate::HireModel::predict`] runs it over the live
//! model's weights, lent where they are; [`crate::QuantizedModel`] is a `FrozenModel` whose weight
//! matrices were rounded through int8 when it was built, so it runs this
//! same code over other numbers.
//!
//! # Shape of the computation
//!
//! One context at a time. A call borrows one workspace from its thread's
//! reused memory (`hire_tensor::Scratch`), sized for the largest context it
//! is given and given back on return: two `[n·m, e]` activation
//! buffers and the largest MHSA workspace a layer asks for on the
//! dispatched ISA (MBU / MBI's Q, K and V buffers; MBA, which runs in one
//! pass, asks for a few lane groups' panels); a batch is a loop over its
//! contexts through that one workspace. A context is encoded straight into
//! the first buffer. Projection is row-wise, so MBU, MBI and MBA differ
//! only in the `[outer, tokens, inner]` view handed to
//! `hire_nn::mhsa_forward_into`: over every cell `[1, n, m]` (tokens =
//! users), `[n, m, 1]` (tokens = items), `[n·m, h, 1]` (tokens =
//! attributes). Nothing is ever permuted. The layer's output lands in the
//! second buffer; residual + LayerNorm fold it back, and the two buffers
//! swap roles when a layer has no norm.
//!
//! # Only the cells that are read
//!
//! A forward is asked for every cell (`forward_nograd*`, `[n, m]` out) or
//! for a list of cells (`forward_cells*`, one value each — a served miss
//! reads one). Each layer runs only on the cells its output is read at,
//! found by walking the layers back from the asked cells: MBA, the
//! residual, LayerNorm and the decoder are per cell and keep the set, MBI
//! (one user row's items) widens it to full rows, MBU (one item column's
//! users) to full columns. The layer that widens a set to every cell needs
//! its keys and values on every cell, but its queries only where its
//! output is read; when it is an MBU, that is the full rows of the next
//! layer's set (an MBU's view is `[1, n, m]`, so rows are whole runs of
//! `m` cells), and it runs as `hire_nn::mhsa_queries_into`: K and V from
//! every cell, then those rows moved to the front, Q, attention over all
//! `n` keys, `W_O`, the residual and the norm on them alone. With all three
//! layers on, the last block's MBU forms queries on the asked rows and its
//! MBI runs on them (`[r, m, 1]`), its MBA, norms and decoder on the asked
//! cells; only the MBU's keys and values and every earlier block run on
//! every cell. Without MBU the cut reaches back through every block. Before
//! a layer whose set is smaller than its predecessor's, the rows it needs
//! are moved to the front of the activation buffer, in row-major order.
//! Asking for every cell plans no cut and moves nothing: it is the same
//! code.
//!
//! The answers are the every-cell forward's, bit for bit: every kernel under
//! a layer computes each row from its own sequence alone, whatever rows
//! surround it — the matmul chains, the one-row layer norm
//! (`hire-tensor`'s `isa_dispatch.rs`), the ragged lane groups of the
//! attention kernels (`hire-nn`'s `mhsa_oracle.rs`), each attention row
//! from its own query and every key (`attention_queries.rs`) — and
//! `hire-serve`'s `tests/target_cells.rs` and `asked_cells_generated.rs`
//! hold the two forwards to each other.
//!
//! The tape trains through this same body: `crate::HimStack`'s one node
//! runs [`Stack::run_blocks`] over every cell, each layer also keeping what
//! its backward reads ([`Stack::forward_kept`]). So a frozen model is
//! **bit-identical** to the tape forward of the live model it was exported
//! from (DESIGN.md §9, §16; `hire-serve`'s `tests/equivalence.rs`). Everything runs on the calling thread
//! (DESIGN.md §11): a `Server` worker owns its batch's forwards from encode
//! to decode.

use hire_data::{Dataset, PredictionContext};
use hire_error::{HireError, HireResult};
use hire_nn::{
    mhsa_forward_into, mhsa_queries_into, mhsa_queries_workspace_len, mhsa_train_forward,
    mhsa_workspace_len, MhsaKept, MhsaWeights,
};
use hire_tensor::simd::{self, Isa};
use hire_tensor::{linalg, NdArray, Scratch};
use std::borrow::Borrow;
use std::time::Instant;

/// Every HIM layer norm's epsilon (`hire_nn::LayerNorm`'s).
const LAYER_NORM_EPS: f32 = 1e-5;

/// Error context of everything the forward rejects.
const LABEL: &str = "HIM forward";

/// LayerNorm affine parameters. Always f32: they are vectors — negligible
/// memory, and norms are sensitive to weight rounding.
#[derive(Debug, Clone)]
pub(crate) struct Norm<W = NdArray> {
    pub(crate) gamma: W,
    pub(crate) beta: W,
}

/// One HIM block's weights: owned arrays for serving, the tape's parameter
/// tensors in a [`crate::HimStack`], or either lent as `&NdArray` to a
/// forward.
#[derive(Debug, Clone)]
pub(crate) struct BlockWeights<W = NdArray> {
    pub(crate) mbu: Option<MhsaWeights<W>>,
    pub(crate) mbi: Option<MhsaWeights<W>>,
    pub(crate) mba: Option<MhsaWeights<W>>,
    pub(crate) norm_mbu: Option<Norm<W>>,
    pub(crate) norm_mbi: Option<Norm<W>>,
    pub(crate) norm_mba: Option<Norm<W>>,
    pub(crate) residual: bool,
}

impl<W> BlockWeights<W> {
    /// The same block with every weight, matrix and vector, converted by
    /// `f` — in `HireModel::parameters()` order: the enabled layers'
    /// `w_q`, `w_k`, `w_v`, `w_o`, then their norms' `gamma`, `beta`.
    pub(crate) fn map<'a, V>(&'a self, mut f: impl FnMut(&'a W) -> V) -> BlockWeights<V> {
        let mhsa = [&self.mbu, &self.mbi, &self.mba].map(|w| w.as_ref().map(|w| w.map(&mut f)));
        let norm = [&self.norm_mbu, &self.norm_mbi, &self.norm_mba].map(|norm| {
            norm.as_ref().map(|norm| Norm {
                gamma: f(&norm.gamma),
                beta: f(&norm.beta),
            })
        });
        let [mbu, mbi, mba] = mhsa;
        let [norm_mbu, norm_mbi, norm_mba] = norm;
        BlockWeights {
            mbu,
            mbi,
            mba,
            norm_mbu,
            norm_mbi,
            norm_mba,
            residual: self.residual,
        }
    }

    /// The three attention layers of the block, in order, each with its
    /// norm and the axis it attends across.
    pub(crate) fn layers(&self) -> [Layer<'_, W>; 3] {
        [
            (&self.mbu, &self.norm_mbu, Across::Users),
            (&self.mbi, &self.norm_mbi, Across::Items),
            (&self.mba, &self.norm_mba, Across::Attributes),
        ]
    }
}

/// A HIRE model's weights, plus the dataset schema facts needed to encode
/// contexts: what the tape-free forward runs on. Owned arrays in a
/// [`crate::FrozenModel`] ([`Self::map`] rewrites its weight matrices), or
/// the live model's, lent as `&NdArray` to one prediction.
#[derive(Debug, Clone)]
pub(crate) struct HimWeights<W = NdArray> {
    pub(crate) user_embeddings: Vec<W>,
    pub(crate) item_embeddings: Vec<W>,
    pub(crate) rating_embedding: W,
    pub(crate) blocks: Vec<BlockWeights<W>>,
    pub(crate) decoder_w: W,
    pub(crate) decoder_b: W,
    /// Output scale α of Eq. (16).
    pub(crate) alpha: f32,
    pub(crate) min_rating: f32,
    pub(crate) rating_levels: usize,
    pub(crate) user_id_only: bool,
    pub(crate) item_id_only: bool,
    pub(crate) attr_dim: usize,
}

/// Rejects context entity ids the dataset does not have.
fn check_ids(kind: &str, ids: &[usize], bound: usize) -> HireResult<()> {
    match ids.iter().find(|&&id| id >= bound) {
        Some(id) => Err(HireError::invalid_data(
            LABEL,
            format!("context {kind} {id} out of range {bound}"),
        )),
        None => Ok(()),
    }
}

/// Row `index` of an embedding table `[v, f]`.
fn row(table: &NdArray, index: usize) -> &[f32] {
    let (v, f) = (table.dims()[0], table.dims()[1]);
    assert!(index < v, "row index {index} out of range {v}");
    &table.as_slice()[index * f..][..f]
}

/// Writes one entity's attribute features — each table's embedding row,
/// concatenated — into `out: [tables.len() * f]`. ID-only schemas have a
/// single table indexed by the entity id itself.
fn entity_features<W: Borrow<NdArray>>(
    tables: &[W],
    id: usize,
    id_only: bool,
    attrs: &[Vec<usize>],
    out: &mut [f32],
) {
    let f = out.len() / tables.len().max(1);
    for (k, (emb, dst)) in tables.iter().zip(out.chunks_exact_mut(f)).enumerate() {
        dst.copy_from_slice(row(emb.borrow(), if id_only { id } else { attrs[id][k] }));
    }
}

/// Residual-add + optional LayerNorm over the first `len` floats of the
/// two activation buffers: on entry `x` is the layer's input and `y` its
/// attention output; on return `x` is the block stack's next input (the
/// buffers swap roles instead of copying when there is no norm). With
/// `kept`, the norm also writes what its backward reads into it.
#[allow(clippy::too_many_arguments)]
fn post<'a, W: Borrow<NdArray>>(
    x: &mut &'a mut [f32],
    y: &mut &'a mut [f32],
    len: usize,
    residual: bool,
    norm: &Option<Norm<W>>,
    isa: Isa,
    kept: Option<(&mut [f32], &mut [f32])>,
) {
    if residual {
        for (o, &a) in y[..len].iter_mut().zip(&x[..len]) {
            *o += a;
        }
    }
    let Some(nm) = norm else {
        return std::mem::swap(x, y);
    };
    let (gamma, beta) = (nm.gamma.borrow().as_slice(), nm.beta.borrow().as_slice());
    let (y, x) = (&y[..len], &mut x[..len]);
    match kept {
        Some((xhat, inv_std)) => {
            linalg::layer_norm_train_into(y, gamma, beta, LAYER_NORM_EPS, x, xhat, inv_std, isa)
        }
        None => linalg::layer_norm_last_into(y, gamma, beta, LAYER_NORM_EPS, x, isa),
    }
}

/// What the training forward ([`Stack::forward_kept`]) keeps of one enabled
/// attention layer for the backward, in reused memory: the layer's input
/// and, after a norm, what its backward reads — `xhat`, the normalized
/// input, and one `inv_std` a cell — in one buffer; and what the
/// attention's backward reads.
pub(crate) struct KeptLayer {
    /// The input (`len` floats), then `xhat` (`len`) and `inv_std`.
    memory: Scratch,
    len: usize,
    pub(crate) mhsa: MhsaKept,
}

impl KeptLayer {
    /// The layer's input.
    pub(crate) fn input(&self) -> &[f32] {
        &self.memory[..self.len]
    }

    /// The norm's `(xhat, inv_std)`, if the layer has a norm.
    pub(crate) fn norm(&self) -> Option<(&[f32], &[f32])> {
        let kept = &self.memory[self.len..];
        (!kept.is_empty()).then(|| kept.split_at(self.len))
    }

    fn norm_mut(&mut self) -> Option<(&mut [f32], &mut [f32])> {
        let kept = &mut self.memory[self.len..];
        (!kept.is_empty()).then(|| kept.split_at_mut(self.len))
    }
}

/// What [`Stack::run_blocks`] keeps as it runs, when it is the training
/// forward: one [`KeptLayer`] per enabled layer, in forward order; `probs`
/// asks every layer for its softmax rows (Fig. 9).
struct Keep {
    layers: Vec<KeptLayer>,
    probs: bool,
}

/// Cells of one `n × m` context in row-major order: what the forward is
/// asked for, and what each of its steps runs on.
#[derive(Debug, Clone, PartialEq)]
enum Cells {
    /// Every cell.
    All,
    /// These cell indices `i·m + j`, ascending and distinct, short of every
    /// cell.
    Listed(Vec<usize>),
}

impl Cells {
    /// The asked `(row, col)` cells of an `n × m` context, or every cell
    /// when `asked` is `None`; rejects a cell outside the context.
    fn asked(asked: Option<&[(usize, usize)]>, n: usize, m: usize) -> HireResult<Cells> {
        let Some(asked) = asked else {
            return Ok(Cells::All);
        };
        if let Some(&(r, c)) = asked.iter().find(|&&(r, c)| r >= n || c >= m) {
            return Err(HireError::invalid_data(
                LABEL,
                format!("asked cell ({r}, {c}) is outside the {n}x{m} context"),
            ));
        }
        let mut cells: Vec<usize> = asked.iter().map(|&(r, c)| r * m + c).collect();
        cells.sort_unstable();
        cells.dedup();
        Ok(Cells::of(cells, n * m))
    }

    /// `cells` (ascending, distinct) of a context of `total` cells.
    fn of(cells: Vec<usize>, total: usize) -> Cells {
        if cells.len() == total {
            Cells::All
        } else {
            Cells::Listed(cells)
        }
    }

    /// How many cells of an `n × m` context these are.
    fn count(&self, n: usize, m: usize) -> usize {
        match self {
            Cells::All => n * m,
            Cells::Listed(cells) => cells.len(),
        }
    }

    /// What a layer attending `across` reads to answer these cells, if
    /// more than these: MBI reads the full rows they lie in, MBU the full
    /// columns, MBA (within a cell) nothing more.
    fn widened(&self, across: Across, n: usize, m: usize) -> Option<Cells> {
        let Cells::Listed(cells) = self else {
            return None;
        };
        match across {
            Across::Attributes => None,
            Across::Items => {
                let rows = cells.chunk_by(|a, b| a / m == b / m).count();
                if rows * m == cells.len() {
                    return None;
                }
                let mut grid = Vec::with_capacity(rows * m);
                for &cell in cells {
                    let row = cell / m * m;
                    if grid.last() != Some(&(row + m - 1)) {
                        grid.extend(row..row + m);
                    }
                }
                Some(Cells::of(grid, n * m))
            }
            Across::Users => {
                let mut cols: Vec<usize> = cells.iter().map(|&cell| cell % m).collect();
                cols.sort_unstable();
                cols.dedup();
                if cols.len() * n == cells.len() {
                    return None;
                }
                if cols.len() == m {
                    return Some(Cells::All);
                }
                let mut grid = Vec::with_capacity(n * cols.len());
                for i in 0..n {
                    grid.extend(cols.iter().map(|&j| i * m + j));
                }
                Some(Cells::Listed(grid))
            }
        }
    }

    /// Where cell `i·m + j`, one of these, sits among them.
    fn position(&self, cell: usize) -> usize {
        match self {
            Cells::All => cell,
            Cells::Listed(cells) => cells.binary_search(&cell).expect("one of these cells"),
        }
    }

    /// Moves the rows of `to`, a subset of `self`, from where `self` keeps
    /// them in `x` (row `k` of `x` holding `self`'s `k`-th cell, `width`
    /// floats) to the front of `x`, in order. Both sets ascend, so every row
    /// moves towards the front and none is overwritten before it is read.
    fn gather_into(&self, to: &Cells, x: &mut [f32], width: usize) {
        let Cells::Listed(to) = to else {
            return; // a subset of `self` that is every cell is `self`
        };
        if matches!(self, Cells::Listed(from) if from.len() == to.len()) {
            return; // and so is one as large
        }
        let mut at = 0;
        for (k, &cell) in to.iter().enumerate() {
            at = match self {
                Cells::All => cell,
                Cells::Listed(from) => at + from[at..].partition_point(|&c| c < cell),
            };
            x.copy_within(at * width..(at + 1) * width, k * width);
        }
    }
}

/// What one context's forward is asked for: every cell (`None`, answered as
/// the `[n, m]` matrix) or the listed `(row, col)` cells.
pub(crate) type Ask<'a> = (&'a PredictionContext, Option<&'a [(usize, usize)]>);

/// Which way an attention layer attends over a context's cells: MBU across
/// the users of an item column, MBI across the items of a user row, MBA
/// across the attributes of one cell.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Across {
    Users,
    Items,
    Attributes,
}

/// Which cells each enabled attention layer of a forward runs on, in
/// forward order ([`HimWeights::plan`]): the first `every` on every cell,
/// the rest up to `grid_end` on `grid`, the others on the cells the decoder
/// reads. With `queries`, layer `every - 1` is an MBU whose output is read
/// only on `grid`'s full rows: its keys and values run on every cell, its
/// queries, attention, `W_O` and norm on `grid`.
struct Plan {
    every: usize,
    grid_end: usize,
    grid: Cells,
    queries: bool,
}

/// One attention layer of a block: `(weights, norm, the axis it attends
/// across)`; `None` weights mean the layer is ablated.
pub(crate) type Layer<'a, W> = (&'a Option<MhsaWeights<W>>, &'a Option<Norm<W>>, Across);

/// The HIM blocks a forward runs, over cells of `num_attrs` attribute rows
/// of `attr_dim` floats: the serving forward's own weights, or the weights
/// a [`crate::HimStack`] lends its training forward.
pub(crate) struct Stack<'a, W> {
    pub(crate) blocks: &'a [BlockWeights<W>],
    pub(crate) num_attrs: usize,
    pub(crate) attr_dim: usize,
}

impl<W> Stack<'_, W> {
    /// The `[outer, tokens, inner]` view a layer attending `across` takes
    /// of `cells` cell rows of an `n × m` context — every cell, or what
    /// [`Self::plan`] hands it: full columns to MBU, full rows to MBI. MBA's
    /// rows are the `h` attribute slices of each cell.
    pub(crate) fn view(&self, across: Across, n: usize, m: usize, cells: usize) -> [usize; 3] {
        match across {
            Across::Users => [1, n, cells / n],
            Across::Items => [cells / m, m, 1],
            Across::Attributes => [cells, self.num_attrs, 1],
        }
    }
}

impl<W: Borrow<NdArray>> Stack<'_, W> {
    /// Cell width `e = h * f`.
    pub(crate) fn embed_dim(&self) -> usize {
        self.num_attrs * self.attr_dim
    }

    /// The enabled attention layers of every block, in forward order:
    /// `(weights, norm, the axis it attends across, residual)`.
    pub(crate) fn enabled(
        &self,
    ) -> impl DoubleEndedIterator<Item = (&MhsaWeights<W>, &Option<Norm<W>>, Across, bool)> {
        self.blocks.iter().flat_map(|b| {
            b.layers()
                .into_iter()
                .filter_map(move |(w, norm, across)| Some((w.as_ref()?, norm, across, b.residual)))
        })
    }

    /// Floats of the largest MHSA workspace any layer asks for over every
    /// cell of an `n × m` context on `isa` (a layer on fewer cells asks for
    /// less; an MBU with fewer queries, no more than the composition over
    /// every cell).
    pub(crate) fn attention_len(&self, n: usize, m: usize, isa: Isa) -> usize {
        self.enabled()
            .map(|(w, _, across, _)| {
                let view = self.view(across, n, m, n * m);
                let len = mhsa_workspace_len(view, w, isa);
                match across {
                    Across::Users => len.max(mhsa_queries_workspace_len(view, n, w)),
                    _ => len,
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// The cells each enabled attention layer runs on, found by walking
    /// the enabled layers backwards from `targets`, the cells the decoder
    /// reads. MBA, the residual, LayerNorm and the decoder work cell by cell
    /// and keep the set; MBI widens it to the full rows it lies in, MBU to
    /// the full columns. Widened both ways it is every cell, so the walk
    /// meets at most one set between `targets` and every cell — the
    /// targets' rows or columns — and a forward asked for every cell plans
    /// nothing. The layer that widens a set to every cell needs its keys
    /// and values there; when it is an MBU, its queries only on the full
    /// rows of what is read after it, if those are not every row.
    fn plan(&self, targets: &Cells, n: usize, m: usize) -> Plan {
        let mut k = self.enabled().count();
        let mut plan = Plan {
            every: 0,
            grid_end: 0,
            grid: Cells::All,
            queries: false,
        };
        let mut widened = false;
        for (_, _, across, _) in self.enabled().rev() {
            let read = if widened { &plan.grid } else { targets };
            k -= 1;
            match read.widened(across, n, m) {
                None => continue,
                Some(Cells::All) => {
                    plan.every = k + 1;
                    if matches!(across, Across::Users) {
                        // The full rows `read` lies in: itself, or none
                        // short of every row.
                        match read.widened(Across::Items, n, m) {
                            None if widened => plan.queries = true,
                            None => (plan.grid, plan.queries) = (read.clone(), true),
                            Some(Cells::All) => {}
                            Some(rows) => (plan.grid, plan.queries) = (rows, true),
                        }
                    }
                    plan.grid_end = plan.grid_end.max(k + 1);
                    break;
                }
                Some(grid) => (plan.grid, plan.grid_end, widened) = (grid, k + 1, true),
            }
        }
        plan
    }

    /// HIM blocks over one context `[n, m, e]` held in `x`, with `y` as the
    /// second activation buffer, for the decoder to read `targets`: each
    /// layer runs on its [`Self::plan`] set, gathered to the front of `x`
    /// first — an MBU the plan gives queries on `grid` once its keys and
    /// values are projected from every cell. Returns the two buffers in
    /// their final roles, `(result, spare)`, the result's rows holding
    /// `targets` in order.
    ///
    /// With `keep` this is the training forward over every cell
    /// ([`Self::forward_kept`]): the same kernels on the same rows, each
    /// layer also copying its input into `keep` and keeping what its
    /// attention's and its norm's backwards read.
    #[allow(clippy::too_many_arguments)]
    fn run_blocks<'a>(
        &self,
        mut x: &'a mut [f32],
        mut y: &'a mut [f32],
        workspace: &mut [f32],
        n: usize,
        m: usize,
        targets: &Cells,
        isa: Isa,
        mut keep: Option<&mut Keep>,
    ) -> (&'a mut [f32], &'a mut [f32]) {
        let e = self.embed_dim();
        let plan = self.plan(targets, n, m);
        let all = Cells::All;
        let mut live = &all;
        for (k, (w, norm, across, residual)) in self.enabled().enumerate() {
            let (len, kept) = if plan.queries && k + 1 == plan.every {
                // Keys and values on every cell (`live` is), then the
                // query rows `grid` to the front.
                debug_assert!(keep.is_none(), "the training forward runs on every cell");
                let (rows, view) = (plan.grid.count(n, m) / m, self.view(across, n, m, n * m));
                let front = |x: &mut [f32]| live.gather_into(&plan.grid, x, e);
                let (x, y) = (&mut x[..n * m * e], &mut y[..rows * m * e]);
                mhsa_queries_into(x, view, rows, w, isa, workspace, y, front);
                live = &plan.grid;
                (rows * m * e, None)
            } else {
                let set = match k {
                    k if k < plan.every => &all,
                    k if k < plan.grid_end => &plan.grid,
                    _ => targets,
                };
                live.gather_into(set, x, e);
                live = set;
                let cells = set.count(n, m);
                let len = cells * e;
                let view = self.view(across, n, m, cells);
                let kept = match keep.as_deref_mut() {
                    None => {
                        mhsa_forward_into(&x[..len], view, w, isa, workspace, &mut y[..len]);
                        None
                    }
                    Some(keep) => {
                        let normed = if norm.is_some() { len + cells } else { 0 };
                        let mut memory = Scratch::take(len + normed);
                        let input = &mut memory[..len];
                        input.copy_from_slice(&x[..len]);
                        let out = &mut y[..len];
                        let mhsa =
                            mhsa_train_forward(input, view, w, isa, workspace, out, keep.probs);
                        keep.layers.push(KeptLayer { memory, len, mhsa });
                        keep.layers.last_mut().and_then(KeptLayer::norm_mut)
                    }
                };
                (len, kept)
            };
            post(&mut x, &mut y, len, residual, norm, isa, kept);
        }
        live.gather_into(targets, x, e);
        (x, y)
    }

    /// The training forward over one context's every cell: the HIM blocks
    /// over `h` (`[n·m, e]`), by [`Self::run_blocks`] — the serving
    /// forward's body and kernels, so the output is the frozen forward's,
    /// bit for bit — returning the blocks' output and what each enabled
    /// layer keeps for the backward ([`KeptLayer`], forward order). With
    /// `probs`, every layer keeps its softmax rows.
    pub(crate) fn forward_kept(
        &self,
        h: &[f32],
        n: usize,
        m: usize,
        isa: Isa,
        probs: bool,
    ) -> (Vec<f32>, Vec<KeptLayer>) {
        let slab = h.len();
        let mut memory = Scratch::take(2 * slab + self.attention_len(n, m, isa));
        let (x, rest) = memory.split_at_mut(slab);
        let (y, workspace) = rest.split_at_mut(slab);
        x.copy_from_slice(h);
        let mut keep = Keep {
            layers: Vec::with_capacity(3 * self.blocks.len()),
            probs,
        };
        let (out, _) = self.run_blocks(x, y, workspace, n, m, &Cells::All, isa, Some(&mut keep));
        (out[..slab].to_vec(), keep.layers)
    }
}

impl HimWeights {
    /// The same model with every weight matrix converted by `f`, in
    /// `HireModel::parameters()` order; vectors (norms, decoder bias) and
    /// schema facts are copied. This is the whole of quantization.
    pub(crate) fn map(&self, mut f: impl FnMut(&NdArray) -> NdArray) -> HimWeights {
        let user_embeddings = self.user_embeddings.iter().map(&mut f).collect();
        let item_embeddings = self.item_embeddings.iter().map(&mut f).collect();
        let rating_embedding = f(&self.rating_embedding);
        let blocks = self
            .blocks
            .iter()
            .map(|b| BlockWeights {
                mbu: b.mbu.as_ref().map(|w| w.map(&mut f)),
                mbi: b.mbi.as_ref().map(|w| w.map(&mut f)),
                mba: b.mba.as_ref().map(|w| w.map(&mut f)),
                norm_mbu: b.norm_mbu.clone(),
                norm_mbi: b.norm_mbi.clone(),
                norm_mba: b.norm_mba.clone(),
                residual: b.residual,
            })
            .collect();
        HimWeights {
            user_embeddings,
            item_embeddings,
            rating_embedding,
            blocks,
            decoder_w: f(&self.decoder_w),
            decoder_b: self.decoder_b.clone(),
            alpha: self.alpha,
            min_rating: self.min_rating,
            rating_levels: self.rating_levels,
            user_id_only: self.user_id_only,
            item_id_only: self.item_id_only,
            attr_dim: self.attr_dim,
        }
    }
}

impl<W: Borrow<NdArray>> HimWeights<W> {
    /// Number of attribute channels `h = h_u + h_i + 1`.
    pub(crate) fn num_attrs(&self) -> usize {
        self.user_embeddings.len() + self.item_embeddings.len() + 1
    }

    /// Embedding width `e = h * f`.
    pub(crate) fn embed_dim(&self) -> usize {
        self.num_attrs() * self.attr_dim
    }

    /// No-grad mirror of `ContextEncoder::encode`: `H ∈ R^{n×m×e}` written
    /// into `out`, cell `(i, j)` holding `[user_i attrs | item_j attrs |
    /// rating_ij]`.
    fn encode_into(
        &self,
        ctx: &PredictionContext,
        dataset: &Dataset,
        out: &mut [f32],
    ) -> HireResult<()> {
        let (n, m, f, e) = (ctx.n(), ctx.m(), self.attr_dim, self.embed_dim());
        check_ids("user", &ctx.users, dataset.num_users)?;
        check_ids("item", &ctx.items, dataset.num_items)?;
        let hu_f = self.user_embeddings.len() * f;
        let hi_f = self.item_embeddings.len() * f;
        debug_assert_eq!(out.len(), n * m * e);

        // Each user's features once, into its first cell; each item's once,
        // into the first row's cells; every other cell copies from those.
        for (i, &user) in ctx.users.iter().enumerate() {
            entity_features(
                &self.user_embeddings,
                user,
                self.user_id_only,
                &dataset.user_attrs,
                &mut out[i * m * e..][..hu_f],
            );
        }
        for (j, &item) in ctx.items.iter().enumerate() {
            entity_features(
                &self.item_embeddings,
                item,
                self.item_id_only,
                &dataset.item_attrs,
                &mut out[j * e + hu_f..][..hi_f],
            );
        }
        let (ratings, mask) = (ctx.ratings.as_slice(), ctx.input_mask.as_slice());
        for i in 0..n {
            for j in 0..m {
                let cell = (i * m + j) * e;
                if j > 0 {
                    out.copy_within(i * m * e..i * m * e + hu_f, cell);
                }
                if i > 0 {
                    out.copy_within(j * e + hu_f..j * e + hu_f + hi_f, cell + hu_f);
                }
                // Rating channel: a visible cell takes its level's
                // embedding; a masked cell takes row 0 times 0.0 — what the
                // tape encoder's gather-then-mask computes, so signed
                // zeros match too.
                let dst = &mut out[cell + hu_f + hi_f..cell + e];
                if mask[i * m + j] == 1.0 {
                    let level = (ratings[i * m + j] - self.min_rating).round() as usize;
                    let level = level.min(self.rating_levels - 1);
                    dst.copy_from_slice(row(self.rating_embedding.borrow(), level));
                } else {
                    for (v, &r) in dst.iter_mut().zip(row(self.rating_embedding.borrow(), 0)) {
                        *v = r * 0.0;
                    }
                }
            }
        }
        Ok(())
    }

    /// The HIM blocks this model's forward runs.
    fn stack(&self) -> Stack<'_, W> {
        Stack {
            blocks: &self.blocks,
            num_attrs: self.num_attrs(),
            attr_dim: self.attr_dim,
        }
    }

    /// Floats of working memory one `n × m` context needs on `isa`: two
    /// activation buffers and the largest MHSA workspace any layer asks
    /// for ([`Stack::attention_len`]).
    fn memory_len(&self, n: usize, m: usize, isa: Isa) -> usize {
        2 * n * m * self.embed_dim() + self.stack().attention_len(n, m, isa)
    }

    /// Decoder: `α · sigmoid(H W + b)` over the first `cells` cell rows of
    /// `x`, into the first `cells` floats of `logits`, which it returns.
    fn decode<'a>(&self, x: &[f32], logits: &'a mut [f32], cells: usize, isa: Isa) -> &'a [f32] {
        let logits = &mut logits[..cells];
        let x = &x[..cells * self.embed_dim()];
        linalg::linear_into(self.decoder_w.borrow(), x, logits, isa);
        let (bias, alpha) = (self.decoder_b.borrow().as_slice()[0], self.alpha);
        for v in logits.iter_mut() {
            *v = 1.0 / (1.0 + (-(*v + bias)).exp()) * alpha;
        }
        logits
    }

    /// Tape-free forward: the predicted rating matrix `[n, m]`.
    pub(crate) fn forward_nograd(
        &self,
        ctx: &PredictionContext,
        dataset: &Dataset,
    ) -> HireResult<NdArray> {
        let preds = self
            .forward_nograd_batch_within(&[ctx], dataset, None)?
            .expect("a forward without a deadline cannot time out");
        Ok(preds.into_iter().next().expect("one context in, one out"))
    }

    /// Tape-free forward over a batch of contexts of any shapes, with a
    /// deadline budget (`FrozenModel::forward_nograd_batch_within`): one
    /// `[n, m]` prediction matrix per context, each the single-context
    /// [`Self::forward_nograd`] — [`Self::forward_within`] asked for every
    /// cell.
    pub(crate) fn forward_nograd_batch_within(
        &self,
        ctxs: &[&PredictionContext],
        dataset: &Dataset,
        deadline: Option<Instant>,
    ) -> HireResult<Option<Vec<NdArray>>> {
        let asks = ctxs.iter().map(|&ctx| (ctx, None));
        self.forward_within(asks, dataset, deadline, |(ctx, _), values| {
            NdArray::from_vec(vec![ctx.n(), ctx.m()], values)
        })
    }

    /// [`Self::forward_within`] asked for the listed cells of each context
    /// (`FrozenModel::forward_cells_batch_within`): one prediction per
    /// asked cell, in the asked order.
    pub(crate) fn forward_cells_batch_within(
        &self,
        asks: &[(&PredictionContext, &[(usize, usize)])],
        dataset: &Dataset,
        deadline: Option<Instant>,
    ) -> HireResult<Option<Vec<Vec<f32>>>> {
        let asks = asks.iter().map(|&(ctx, cells)| (ctx, Some(cells)));
        self.forward_within(asks, dataset, deadline, |_, values| values)
    }

    /// The one forward body. Each ask's context is encoded, run through the
    /// blocks on the cells its answer depends on ([`Self::plan`]) and
    /// decoded at the asked cells; `answer` turns the ask and its values —
    /// every cell row-major, or one per asked cell in the asked order —
    /// into the caller's result. Contexts run in order through one
    /// workspace sized for the largest, `deadline` checked before each
    /// (`Ok(None)` once it passed), so the first bad context is the one
    /// reported.
    fn forward_within<'a, R>(
        &self,
        asks: impl Iterator<Item = Ask<'a>> + Clone,
        dataset: &Dataset,
        deadline: Option<Instant>,
        answer: impl Fn(Ask<'a>, Vec<f32>) -> R,
    ) -> HireResult<Option<Vec<R>>> {
        let isa = simd::active_isa();
        let most = asks
            .clone()
            .map(|(c, _)| self.memory_len(c.n(), c.m(), isa))
            .max();
        // The call's whole working memory, sized for its largest context
        // and reused by every context: this thread's reused memory, which
        // starts on a 64-byte boundary. Every buffer carved from it is a
        // multiple of 16 floats at HIM's shapes, so each starts on one too.
        let mut memory = Scratch::take(most.unwrap_or(0));
        let memory = &mut memory[..];
        let mut out = Vec::with_capacity(asks.size_hint().0);
        for ask in asks {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(None);
            }
            let (ctx, asked) = ask;
            let (n, m) = (ctx.n(), ctx.m());
            let targets = Cells::asked(asked, n, m)?;
            let slab = n * m * self.embed_dim();
            let (x, rest) = memory.split_at_mut(slab);
            let (y, workspace) = rest.split_at_mut(slab);
            self.encode_into(ctx, dataset, x)?;
            let (hidden, spare) = self
                .stack()
                .run_blocks(x, y, workspace, n, m, &targets, isa, None);
            let values = self.decode(hidden, spare, targets.count(n, m), isa);
            let values = match asked {
                None => values.to_vec(),
                Some(asked) => asked
                    .iter()
                    .map(|&(r, c)| values[targets.position(r * m + c)])
                    .collect(),
            };
            out.push(answer(ask, values));
        }
        Ok(Some(out))
    }
}
