//! Kernel/compute benchmark: establishes the perf trajectory of the compute
//! layer and emits `BENCH_KERNELS.json`. Everything timed here runs on the
//! calling thread, as every kernel does (DESIGN.md §11) — the `_1t` in the
//! report's field names says so.
//!
//! Six sections:
//! 1. **matmul** — GFLOP/s at HIM-realistic shapes: the naive reference
//!    loop, the blocked kernel forced to the scalar micro-kernel, and the
//!    blocked kernel on the dispatched ISA (see `hire_tensor::simd`). The
//!    dispatched result is correctness-checked before it is timed: bitwise
//!    against the reference on scalar, oracle-bounded on avx2 (whose
//!    FMA chain rounds less — DESIGN.md §16).
//!    Beside the generic shapes, HIM's own thin products: MBA's Q/K/V
//!    projection and `W_O` (`k` or `m` = 8) and MBU/MBI's `W_O`
//!    (`m = 72`, a 32-column panel pair and an 8-column tail); and two
//!    `aᵀ·b` rows, the streaming `matmul2d_tn` at the MHSA backward's
//!    `Xᵀ·[dQ | dK | dV]` of MBA and of MBU/MBI.
//! 2. **mhsa** — the tape-free `hire_nn::mhsa_forward` at HIM's three
//!    attention shapes (MBU, MBI, MBA), of the `fast` config and of the
//!    paper's (`HireConfig::default()`: 32×32 contexts, 8 heads × 16):
//!    microseconds, achieved GFLOP/s from the shape's matmul FLOPs, and
//!    that as a share of the matmul peak section 1 measured, beside the
//!    composition's three stages (the Q/K/V projections, the attention
//!    tiles, `W_O`) — what a layer that runs in one pass (MBA) replaced;
//!    beside it the same shape through the tape's one `mhsa` node, forward
//!    (the same kernels plus the saved `Q` and softmax rows) and backward,
//!    the backward also split into its stages (the attention tiles' backward,
//!    the two weight-gradient products, the two input-gradient products).
//!    Reported, not gated — these are the per-layer numbers the serving
//!    forward and a training step are made of.
//! 3. **layer_norm** — the layer norm after each attention layer, over one
//!    context's `[n·m, e]` cells at both configs: the no-grad forward the
//!    serving forward runs, the tape's forward (which also keeps `xhat`
//!    and `inv_std`) and its backward.
//! 4. **him** — full HIM tape forward and forward+backward wall time on a
//!    synthetic cold-start context, at the `fast` config (16×16, 2 blocks)
//!    and the paper's (32×32, 3 blocks): the one place below the ledger
//!    where a whole training step's model is timed at either. Beside them
//!    the serving forward of the same model and context: asked for every
//!    cell (`FrozenModel::forward_nograd`) and for the one query cell a
//!    served miss reads (`FrozenModel::forward_cells`), whose layers run
//!    only on the cells that cell depends on.
//! 5. **sampler** — `NeighborhoodSampler` at never-repeated uniform pairs on
//!    the default 600×400 `movielens_like` graph and on the streaming
//!    50 000×10 000 `popularity_skew = 1.1` graph whose hub items are rated
//!    by most users: microseconds per sample, and — from a plain BFS replica
//!    that must reproduce every selection first — the adjacency entries
//!    read and RNG draws made per sample.
//! 6. **graph_commit** — `EpochedGraph::commit_edges` on the same two graphs,
//!    one new edge and eight new edges a commit: microseconds, and — counted
//!    with `BipartiteGraph::chunk_sharing` against the predecessor — the
//!    adjacency chunks and bytes each commit copied, beside the snapshot's
//!    resident bytes and its largest chunk (what a commit on a hub row
//!    copies).
//!
//! `--smoke` shrinks every section to seconds and gates four regressions:
//! on hosts where the dispatcher resolves to avx2 the dispatched matmul
//! must beat the forced-scalar micro-kernel (MBA's `[2304, 32]·[32, 8]`
//! `W_O` among the shapes, which only the column-tail tile serves), a
//! single-edge commit on the hub graph must copy no more than a fixed
//! multiple of the bytes it copies on the 600×400 one, the sampler must
//! draw at most `4 · (n + m)` times per sample on the hub graph, and the
//! one-cell serving forward must be no slower than the every-cell one at
//! `fast` — the CI regression gates for the SIMD layer, the copy-on-write
//! graph, the hub-bounded BFS and the asked-cell forward.

use hire_core::{FrozenModel, HireConfig, HireModel};
use hire_data::{test_context_with_ratio, SyntheticConfig};
use hire_eval::write_json_atomic;
use hire_graph::{
    BipartiteGraph, ContextSampler, ContextSelection, EpochedGraph, NeighborhoodSampler, Rating,
};
use hire_nn::{mhsa_forward, MhsaWeights, MultiHeadSelfAttention};
use hire_tensor::linalg;
use hire_tensor::{AttnGrid, NdArray, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "compute_bench — kernel and HIM compute benchmark

USAGE:
    compute_bench [OPTIONS]

OPTIONS:
    --smoke         quick run: small shapes, assert (on avx2 hosts) that
                    dispatch beats forced-scalar, that a graph commit
                    copies bytes by the rows it touches, that the BFS
                    sampler draws by the context budget, and that a
                    one-cell serving forward is no slower than an
                    every-cell one
    --out <path>    write the JSON report here [BENCH_KERNELS.json]
    -h, --help      print this help";

/// On hosts where the dispatcher resolves to avx2, the dispatched matmul
/// must beat the forced-scalar micro-kernel by at least this factor on
/// every smoke shape. Deliberately far below the ~4x the avx2 kernel
/// actually delivers — the gate catches a dispatcher wired to the wrong
/// path, not a few percent of perf drift.
const ISA_SMOKE_SPEEDUP: f64 = 1.2;

/// `NeighborhoodSampler`'s BFS on the 50 000 × 10 000 graph may draw at
/// most this many times `n + m` per sample, mean over the pairs. It reads
/// 0.8–0.9×; a sampler whose draws follow the hub's 38 193 raters drew
/// ≈ 41 000 (1 280×).
const SAMPLER_DRAWS_SMOKE_PER_BUDGET: f64 = 4.0;

/// A single-edge commit on the 50 000 × 10 000 graph may copy at most this
/// many times the bytes it copies on the 600×400 one. Both are counts and
/// repeat exactly: 31 KB (two chunks and the 939-pointer tables) against
/// 100 KB (two of the denser graph's 17 chunks), 0.3× — where copying the
/// graph, which this gate keeps out, is 7.3 MB, 73×.
const COMMIT_BYTES_SMOKE_RATIO: f64 = 2.0;

#[derive(Debug, Clone)]
struct Args {
    smoke: bool,
    out: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        out: "BENCH_KERNELS.json".to_string(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => {
                args.out = it
                    .next()
                    .ok_or_else(|| "--out needs a value".to_string())?
                    .clone()
            }
            other => return Err(format!("unknown flag `{other}` (see --help)")),
        }
    }
    Ok(args)
}

/// Best-of-`reps` wall time of `f` in seconds.
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

#[derive(Serialize)]
struct MatmulReport {
    /// `a·b` — `[n, k]·[k, m]`, the forward product — or `aᵀ·b` —
    /// `[n, k]ᵀ·[n, m]`, the weight-gradient product `matmul2d_tn`.
    op: &'static str,
    /// `[n, k, m]` of the timed product.
    shape: Vec<usize>,
    /// Kernel path the dispatched numbers below ran on
    /// (`scalar` | `avx2` | `avx512`).
    isa: String,
    /// The naive reference loop (on `aᵀ` materialised, for `aᵀ·b`).
    gflops_reference_1t: f64,
    /// Blocked kernel pinned to the scalar micro-kernel (on `aᵀ`
    /// materialised, for `aᵀ·b`): the pre-SIMD baseline every dispatched
    /// number is compared against.
    gflops_scalar_1t: f64,
    /// The product on the dispatched ISA: the blocked kernel for `a·b`,
    /// the streaming `matmul2d_tn` for `aᵀ·b`.
    gflops_blocked_1t: f64,
    /// Single-thread win from blocking/tiling alone (scalar vs reference).
    blocking_speedup_1t: f64,
    /// Single-thread win from the dispatched micro-kernel over the forced
    /// scalar one. 1.0 on hosts where the dispatcher resolves to scalar.
    dispatch_speedup_1t: f64,
}

#[derive(Serialize)]
struct MhsaReport {
    /// Which HIM attention this shape is: `mbu` | `mbi` | `mba`.
    layer: &'static str,
    /// Whose shape: `fast` (`HireConfig::fast()`) | `paper`
    /// (`HireConfig::default()`).
    config: &'static str,
    /// `[batch, tokens, model_dim]` of the timed input.
    shape: Vec<usize>,
    heads: usize,
    head_dim: usize,
    /// Best-of wall time of one `mhsa_forward` (in one pass where
    /// `AttnGrid::one_pass` says so, MBA's case).
    micros_1t: f64,
    /// Best-of wall time of the composition's three Q/K/V projections
    /// (`linalg::linear_into` each).
    proj_us: f64,
    /// Best-of wall time of its attention tiles (`linalg::attention_into`).
    attn_us: f64,
    /// Best-of wall time of its output projection `W_O`.
    out_us: f64,
    /// Projection + QKᵀ + A·V + output-projection FLOPs over that time.
    gflops_1t: f64,
    /// `gflops_1t` over the dispatched 1-thread matmul GFLOP/s at the
    /// 256×40×32 projection shape: how much of the kernel peak survives
    /// the attention layer around it.
    share_of_matmul_peak: f64,
    /// Best-of wall time of one `MultiHeadSelfAttention::forward` on an
    /// input that takes a gradient: where the layer runs in one pass (MBA
    /// on avx2 / avx512), `micros_1t`'s forward keeping nothing; otherwise
    /// the composition keeping `Q`, `K`, `V`, `O` and the softmax rows
    /// (and allocating what the no-grad forward is handed).
    tape_forward_us: f64,
    /// Best-of wall time of that node's backward (all four weight
    /// gradients and `dX`).
    tape_backward_us: f64,
    /// Composition: best-of wall time of its attention tiles' backward
    /// (`linalg::attention_backward_into_with_isa`: `dQ | dK | dV` from the
    /// saved `Q`, `K`, `V`, softmax rows and `dO`). One pass: of the lane
    /// backward without `dX` (`linalg::mhsa_one_pass_backward` with no
    /// `dx`) — recomputing each head's `Q`, `K`, `V`, softmax rows and
    /// `O`, `dO`, the tiles' backward and the weight gradients, which it
    /// runs head by head and does not split.
    bwd_attn_us: f64,
    /// Composition: best-of wall time of its two weight-gradient products
    /// (`matmul2d_tn`): `dW_O = Oᵀ·dY` and `[dW_Q | dW_K | dW_V] = Xᵀ·[dQ |
    /// dK | dV]`. One pass: `null`, inside `bwd_attn_us`.
    bwd_dw_us: Option<f64>,
    /// Composition: best-of wall time of its two input-gradient products
    /// (`matmul2d_nt`): `dO = dY·W_Oᵀ` and `dX = [dQ | dK | dV]·[W_Q | W_K
    /// | W_V]ᵀ`. One pass: what asking the lane backward for `dX` as well
    /// adds to `bwd_attn_us` (best-of with, less best-of without).
    bwd_dx_us: f64,
}

#[derive(Serialize)]
struct LayerNormReport {
    /// `fast` | `paper`, as in [`MhsaReport::config`].
    config: &'static str,
    /// `[rows, width]`: a context's `n·m` cells by the embedding width
    /// `e = h·f`.
    shape: Vec<usize>,
    /// Best-of wall time of the no-grad forward into a buffer
    /// (`linalg::layer_norm_last_into`, what the serving forward runs).
    micros_1t: f64,
    /// Best-of wall time of the tape's forward
    /// (`linalg::layer_norm_forward_last`: `y`, `xhat` and `inv_std`).
    tape_forward_us: f64,
    /// Best-of wall time of its backward
    /// (`linalg::layer_norm_backward_last`: `dx`, `dgamma`, `dbeta`).
    tape_backward_us: f64,
}

#[derive(Serialize)]
struct SamplerReport {
    /// `[users, items]` of the sampled graph.
    graph: Vec<usize>,
    edges: usize,
    max_item_degree: usize,
    /// `[n, m]` context budgets.
    context: Vec<usize>,
    /// Distinct uniform `(user, item)` seed pairs, each sampled once a pass.
    pairs: usize,
    /// Mean wall time of one `NeighborhoodSampler::sample` over the pairs,
    /// best pass.
    micros_per_sample: f64,
    /// Adjacency entries the BFS reads per sample (the early-exit walks,
    /// and one per rejection try), mean over the pairs.
    entries_walked_per_sample: f64,
    /// RNG draws per sample in the BFS: one per rejection try of every hop
    /// that overflows its budget, mean over the pairs.
    rng_draws_per_sample: f64,
}

#[derive(Serialize)]
struct CommitCost {
    /// New edges per commit.
    edges_per_commit: usize,
    /// Mean wall time of one `EpochedGraph::commit_edges` (building the
    /// successor, the swap, freeing the predecessor), best pass.
    micros_per_commit: f64,
    /// Chunks of the successor that are not its predecessor's, mean.
    chunks_copied_per_commit: f64,
    /// Their bytes plus the two chunk tables', mean.
    bytes_copied_per_commit: f64,
}

#[derive(Serialize)]
struct GraphCommitReport {
    /// `[users, items]` of the graph committed to.
    graph: Vec<usize>,
    edges: usize,
    /// Adjacency storage of one snapshot: every chunk and both chunk tables.
    resident_bytes: usize,
    chunks: usize,
    /// What a commit touching the heaviest rows copies on that side.
    largest_chunk_bytes: usize,
    /// Commits per pass, each of never-rated uniform `(user, item)` pairs.
    commits: usize,
    single: CommitCost,
    batch8: CommitCost,
}

#[derive(Serialize)]
struct HimReport {
    /// `fast` | `paper`, as in [`MhsaReport::config`].
    config: &'static str,
    context_users: usize,
    context_items: usize,
    num_blocks: usize,
    /// Best-of wall time of one tape forward.
    forward_ms: f64,
    /// Best-of wall time of one `context_loss` + `backward`.
    forward_backward_ms: f64,
    /// Best-of wall time of one serving forward asked for every cell
    /// (`FrozenModel::forward_nograd`).
    nograd_forward_ms: f64,
    /// Best-of wall time of one serving forward asked for the query's one
    /// cell (`FrozenModel::forward_cells`), as a served miss runs it.
    nograd_one_cell_ms: f64,
}

/// Host execution environment, embedded in benchmark JSON reports so a
/// recorded number can be read against the machine that produced it.
#[derive(Debug, Clone, Serialize)]
struct HostInfo {
    /// Logical CPU cores visible to this process.
    logical_cores: usize,
    /// SIMD/ISA capabilities detected at runtime (x86_64) or implied by
    /// the compile target (aarch64); empty when the target supports
    /// neither probe.
    isa_features: Vec<String>,
    /// Raw `HIRE_THREADS` value from the environment, if set.
    hire_threads_env: Option<String>,
    /// `hire-par`'s process-wide lane count — how many models of a table
    /// train side by side. Nothing else reads it: kernels run on their
    /// caller's thread, and serving parallelism is the server's workers.
    compute_pool_threads: usize,
    /// Kernel path the SIMD dispatcher resolved to for this process
    /// (`scalar` | `avx2` | `avx512`) — the ISA every recorded
    /// number actually ran on.
    dispatched_kernel: String,
    /// Raw `HIRE_ISA` override from the environment, if set (the
    /// dispatched kernel above already reflects it).
    hire_isa_env: Option<String>,
}

impl HostInfo {
    /// Snapshots the current host. Reads (and, if needed, fixes from
    /// `HIRE_THREADS`) `hire-par`'s lane count.
    fn detect() -> Self {
        #[allow(unused_mut)]
        let mut isa_features: Vec<String> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        for (name, detected) in [
            ("sse2", is_x86_feature_detected!("sse2")),
            ("sse4.1", is_x86_feature_detected!("sse4.1")),
            ("avx", is_x86_feature_detected!("avx")),
            ("avx2", is_x86_feature_detected!("avx2")),
            ("fma", is_x86_feature_detected!("fma")),
            ("avx512f", is_x86_feature_detected!("avx512f")),
        ] {
            if detected {
                isa_features.push(name.to_string());
            }
        }
        #[cfg(target_arch = "aarch64")]
        isa_features.push("neon".to_string());
        HostInfo {
            logical_cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            isa_features,
            hire_threads_env: std::env::var("HIRE_THREADS").ok(),
            compute_pool_threads: hire_par::global().threads(),
            dispatched_kernel: hire_tensor::simd::active_isa().label().to_string(),
            hire_isa_env: std::env::var("HIRE_ISA").ok(),
        }
    }

    /// One-line host description for `compute_bench`'s stderr banner.
    fn summary(&self) -> String {
        format!(
            "{} hardware thread(s), isa features {}, dispatched kernel {}{}, HIRE_THREADS={}, fan-out {} lane(s)",
            self.logical_cores,
            if self.isa_features.is_empty() {
                "unknown".to_string()
            } else {
                self.isa_features.join("+")
            },
            self.dispatched_kernel,
            match &self.hire_isa_env {
                Some(v) => format!(" (HIRE_ISA={v})"),
                None => String::new(),
            },
            self.hire_threads_env.as_deref().unwrap_or("unset"),
            self.compute_pool_threads,
        )
    }
}

#[derive(Serialize)]
struct KernelBenchReport {
    smoke: bool,
    /// Cores and ISA features of the machine that produced these numbers.
    host: HostInfo,
    matmul: Vec<MatmulReport>,
    mhsa: Vec<MhsaReport>,
    layer_norm: Vec<LayerNormReport>,
    him: Vec<HimReport>,
    sampler: Vec<SamplerReport>,
    graph_commit: Vec<GraphCommitReport>,
}

/// Times one `[n,k] x [k,m]` product — or, `transposed`, the weight-gradient
/// product `[n,k]ᵀ x [n,m]` through `matmul2d_tn` — against the reference
/// loop and the forced-scalar blocked kernel (both on the materialised
/// `aᵀ` when `transposed`). Correctness runs first: the dispatched result
/// must match the reference (bitwise on scalar, oracle-bounded on avx2 per
/// DESIGN.md §16), and `matmul2d_tn` must be bitwise `matmul2d` of the
/// materialised transpose.
fn bench_matmul(n: usize, k: usize, m: usize, transposed: bool, reps: usize) -> MatmulReport {
    let mut rng = StdRng::seed_from_u64(0x11A7 ^ (n * k * m) as u64);
    let a = NdArray::randn([n, k], 0.0, 1.0, &mut rng);
    let b = NdArray::randn([if transposed { n } else { k }, m], 0.0, 1.0, &mut rng);
    // The left operand as the reference loop and the forced-scalar kernel
    // see it: `[rows, inner]`.
    let a_t;
    let (lhs, rows, inner) = if transposed {
        a_t = linalg::transpose_last2(&a);
        (&a_t, k, n)
    } else {
        (&a, n, k)
    };
    let dispatched = || {
        if transposed {
            linalg::matmul2d_tn(&a, &b)
        } else {
            linalg::matmul2d(&a, &b)
        }
    };
    let flops = 2.0 * (n * k * m) as f64;
    let isa = hire_tensor::simd::active_isa();

    let mut reference = vec![0.0f32; rows * m];
    linalg::matmul_reference(lhs.as_slice(), b.as_slice(), &mut reference, rows, inner, m);
    let baseline = dispatched();
    if transposed {
        assert_eq!(
            baseline.as_slice(),
            linalg::matmul2d(lhs, &b).as_slice(),
            "matmul2d_tn is not the forward product of the transpose ({n}x{k}x{m})"
        );
    }
    let bitwise_vs_reference = isa < hire_tensor::simd::Isa::Avx2;
    for (i, (&x, &y)) in baseline.as_slice().iter().zip(&reference).enumerate() {
        if bitwise_vs_reference {
            assert!(
                x.to_bits() == y.to_bits(),
                "{} matmul deviates from reference at element {i} ({n}x{k}x{m})",
                isa.label()
            );
        } else {
            let tol = 1e-4 * (inner as f32).sqrt() * y.abs().max(1.0);
            assert!(
                (x - y).abs() <= tol,
                "{} matmul outside oracle bound at element {i} ({n}x{k}x{m}): {x} vs {y}",
                isa.label()
            );
        }
    }

    let t_ref = time_best(reps, || {
        let mut out = vec![0.0f32; rows * m];
        linalg::matmul_reference(lhs.as_slice(), b.as_slice(), &mut out, rows, inner, m);
        std::hint::black_box(&out);
    });
    let t_scalar_1t = time_best(reps, || {
        let out = linalg::matmul2d_with_isa(lhs, &b, hire_tensor::simd::Isa::Scalar);
        std::hint::black_box(&out);
    });
    let t_blocked_1t = time_best(reps, || {
        std::hint::black_box(dispatched());
    });
    MatmulReport {
        op: if transposed { "aᵀ·b" } else { "a·b" },
        shape: vec![n, k, m],
        isa: isa.label().to_string(),
        gflops_reference_1t: flops / t_ref / 1e9,
        gflops_scalar_1t: flops / t_scalar_1t / 1e9,
        gflops_blocked_1t: flops / t_blocked_1t / 1e9,
        blocking_speedup_1t: t_ref / t_scalar_1t,
        dispatch_speedup_1t: t_scalar_1t / t_blocked_1t,
    }
}

/// Times `mhsa_forward` at the three attention shapes of a `cfg` HIM block
/// over an `n × m` context of `h` attributes (tokens = users, items,
/// attributes) against `matmul_peak_gflops`.
fn bench_mhsa(
    config: &'static str,
    cfg: &HireConfig,
    h: usize,
    reps: usize,
    matmul_peak_gflops: f64,
) -> Vec<MhsaReport> {
    let (n, m, f) = (cfg.context_users, cfg.context_items, cfg.attr_dim);
    let (l, dk) = (cfg.heads, cfg.head_dim);
    let e = h * f;
    let mut rng = StdRng::seed_from_u64(0x3A5A);
    [
        ("mbu", [m, n, e]),
        ("mbi", [n, m, e]),
        ("mba", [n * m, h, f]),
    ]
    .into_iter()
    .map(|(layer, [b, t, d])| {
        let mut weight = |rows, cols| NdArray::randn([rows, cols], 0.0, 0.1, &mut rng);
        let w = MhsaWeights {
            w_q: weight(d, l * dk),
            w_k: weight(d, l * dk),
            w_v: weight(d, l * dk),
            w_o: weight(l * dk, d),
            heads: l,
            head_dim: dk,
        };
        let x = NdArray::randn([b, t, d], 0.0, 1.0, &mut rng);
        let secs = time_best(reps, || {
            let y = mhsa_forward(&x, &w);
            std::hint::black_box(&y);
        });
        // The same forward a stage at a time, over the workspace layout
        // `mhsa_forward` hands `mhsa_forward_into` — Q, K, V, scratch,
        // from a 64-byte boundary — with the output after it.
        let isa = hire_tensor::simd::active_isa();
        let grid = AttnGrid {
            outer: b,
            tokens: t,
            inner: 1,
            heads: l,
            head_dim: dk,
        };
        let proj_len = grid.rows() * grid.width();
        let mut memory = vec![0.0f32; 3 * proj_len + grid.scratch_len() + x.numel() + 15];
        let skip = memory.as_ptr().align_offset(64).min(15);
        let (q, rest) = memory[skip..].split_at_mut(proj_len);
        let (k, rest) = rest.split_at_mut(proj_len);
        let (v, rest) = rest.split_at_mut(proj_len);
        let (scratch, rest) = rest.split_at_mut(grid.scratch_len());
        let y = &mut rest[..x.numel()];
        let proj = time_best(reps, || {
            for (w, out) in [(&w.w_q, &mut *q), (&w.w_k, &mut *k), (&w.w_v, &mut *v)] {
                linalg::linear_into(w, x.as_slice(), out, isa);
            }
        });
        // Each repetition attends over the last one's output as its Q: a
        // convex combination of V rows, so the values stay in range.
        let attn = time_best(reps, || {
            linalg::attention_into(&grid, q, k, v, scratch);
        });
        let out = time_best(reps, || {
            linalg::linear_into(&w.w_o, q, y, isa);
            std::hint::black_box(&y);
        });
        // The tape node's backward a stage at a time, over a random `dY`
        // (from a generator of its own, so the tape rows below draw what
        // they always drew): in one pass, the lane backward without and
        // with `dX`; otherwise the composition's stages over what its
        // forward saves — fresh projections, their softmax rows and `O`.
        let (rows, width) = (grid.rows(), grid.width());
        let dy = NdArray::randn([rows, d], 0.0, 1.0, &mut StdRng::seed_from_u64(0xD1));
        let (bwd_attn, bwd_dw, bwd_dx) = if grid.one_pass(d, isa) {
            let weights = [&w.w_q, &w.w_k, &w.w_v, &w.w_o].map(NdArray::as_slice);
            let (x, dy) = (x.as_slice(), dy.as_slice());
            let lanes = time_best(reps, || {
                let dw = linalg::mhsa_one_pass_backward(&grid, x, weights, dy, None, isa);
                std::hint::black_box(&dw);
            });
            let mut dx = vec![0.0f32; x.len()];
            let with_dx = time_best(reps, || {
                let dw = linalg::mhsa_one_pass_backward(&grid, x, weights, dy, Some(&mut dx), isa);
                std::hint::black_box(&dw);
            });
            (lanes, None, with_dx - lanes)
        } else {
            for (w, out) in [(&w.w_q, &mut *q), (&w.w_k, &mut *k), (&w.w_v, &mut *v)] {
                linalg::linear_into(w, x.as_slice(), out, isa);
            }
            let (mut o, mut p) = (q.to_vec(), vec![0.0f32; grid.probs_len()]);
            linalg::attention_probs_into(&grid, &mut o, k, v, &mut p, scratch);
            let o = NdArray::from_vec([rows, width], o);
            let d_o = linalg::matmul2d_nt(&dy, &w.w_o);
            let mut d_qkv = vec![0.0f32; rows * 3 * width];
            let bwd_attn = time_best(reps, || {
                linalg::attention_backward_into_with_isa(
                    &grid,
                    q,
                    k,
                    v,
                    &p,
                    d_o.as_slice(),
                    &mut d_qkv,
                    isa,
                );
            });
            let d_qkv = NdArray::from_vec([rows, 3 * width], d_qkv);
            let x_rows = x.reshape([rows, d]);
            let bwd_dw = time_best(reps, || {
                let dw = (
                    linalg::matmul2d_tn(&o, &dy),
                    linalg::matmul2d_tn(&x_rows, &d_qkv),
                );
                std::hint::black_box(&dw);
            });
            let w_qkv = linalg::concat_last(&[&w.w_q, &w.w_k, &w.w_v]);
            let bwd_dx = time_best(reps, || {
                let dx = (
                    linalg::matmul2d_nt(&dy, &w.w_o),
                    linalg::matmul2d_nt(&d_qkv, &w_qkv),
                );
                std::hint::black_box(&dx);
            });
            (bwd_attn, Some(bwd_dw), bwd_dx)
        };
        let layer_on_tape = MultiHeadSelfAttention::new(d, l, dk, &mut rng);
        let x_on_tape = Tensor::parameter(x.clone());
        let tape_forward = time_best(reps, || {
            let y = layer_on_tape.forward(&x_on_tape);
            std::hint::black_box(&y);
        });
        // The node's backward reads only what its forward saved, so one
        // forward serves every repetition (gradients accumulate in place).
        let y = layer_on_tape.forward(&x_on_tape);
        let seed = NdArray::randn([b, t, d], 0.0, 1.0, &mut rng);
        let tape_backward = time_best(reps, || y.backward_with(seed.clone()));
        let flops = (4 * 2 * b * t * d * l * dk + 2 * 2 * b * l * t * t * dk) as f64;
        let gflops = flops / secs / 1e9;
        MhsaReport {
            layer,
            config,
            shape: vec![b, t, d],
            heads: l,
            head_dim: dk,
            micros_1t: secs * 1e6,
            proj_us: proj * 1e6,
            attn_us: attn * 1e6,
            out_us: out * 1e6,
            gflops_1t: gflops,
            share_of_matmul_peak: gflops / matmul_peak_gflops,
            tape_forward_us: tape_forward * 1e6,
            tape_backward_us: tape_backward * 1e6,
            bwd_attn_us: bwd_attn * 1e6,
            bwd_dw_us: bwd_dw.map(|t| t * 1e6),
            bwd_dx_us: bwd_dx * 1e6,
        }
    })
    .collect()
}

/// Times the layer norm after a `cfg` HIM block's attention over an `n × m`
/// context of `h` attributes: `[n·m, h·f]` rows.
fn bench_layer_norm(
    config: &'static str,
    cfg: &HireConfig,
    h: usize,
    reps: usize,
) -> LayerNormReport {
    let (rows, w) = (cfg.context_users * cfg.context_items, h * cfg.attr_dim);
    let mut rng = StdRng::seed_from_u64(0x1A7E);
    let x = NdArray::randn([rows, w], 0.0, 1.0, &mut rng);
    let gamma = NdArray::randn([w], 1.0, 0.1, &mut rng);
    let beta = NdArray::randn([w], 0.0, 0.1, &mut rng);
    let g = NdArray::randn([rows, w], 0.0, 1.0, &mut rng);
    let isa = hire_tensor::simd::active_isa();
    let mut y = vec![0.0f32; rows * w];
    let nograd = time_best(reps, || {
        linalg::layer_norm_last_into(
            x.as_slice(),
            gamma.as_slice(),
            beta.as_slice(),
            1e-5,
            &mut y,
            isa,
        );
        std::hint::black_box(&y);
    });
    let tape_forward = time_best(reps, || {
        std::hint::black_box(linalg::layer_norm_forward_last(&x, &gamma, &beta, 1e-5));
    });
    let (_, xhat, inv_std) = linalg::layer_norm_forward_last(&x, &gamma, &beta, 1e-5);
    let tape_backward = time_best(reps, || {
        std::hint::black_box(linalg::layer_norm_backward_last(
            &xhat, &inv_std, &gamma, &g,
        ));
    });
    LayerNormReport {
        config,
        shape: vec![rows, w],
        micros_1t: nograd * 1e6,
        tape_forward_us: tape_forward * 1e6,
        tape_backward_us: tape_backward * 1e6,
    }
}

/// One side of one hop of [`bfs_replica`]: what `picked` still lacks of
/// `budget`, from the unselected neighbours of `frontier` — all of them in
/// first-seen order if they fit, else drawn by rejection from the
/// concatenated rows; `counts` gains the adjacency entries read (walked,
/// and one per try) and the draws made.
fn bfs_hop<'g>(
    frontier: &[usize],
    neighbors: impl Fn(usize) -> &'g [(u32, f32)],
    selected: &mut [bool],
    picked: &mut Vec<usize>,
    budget: usize,
    rng: &mut StdRng,
    counts: &mut (usize, usize),
) -> Vec<usize> {
    let room = budget - picked.len();
    if room == 0 {
        return Vec::new();
    }
    let mut seen = selected.to_vec();
    let mut next = Vec::new();
    'walk: for &v in frontier {
        for &(x, _) in neighbors(v) {
            counts.0 += 1;
            if !std::mem::replace(&mut seen[x as usize], true) {
                next.push(x as usize);
                if next.len() > room {
                    break 'walk;
                }
            }
        }
    }
    if next.len() > room {
        next.clear();
        let rows: Vec<&[(u32, f32)]> = frontier.iter().map(|&v| neighbors(v)).collect();
        let total = rows.iter().map(|row| row.len()).sum();
        while next.len() < room {
            counts.0 += 1;
            counts.1 += 1;
            let (mut row, mut at) = (0, rng.gen_range(0..total));
            while at >= rows[row].len() {
                at -= rows[row].len();
                row += 1;
            }
            let x = rows[row][at].0;
            let earlier = rows[..row]
                .iter()
                .any(|r| r.binary_search_by_key(&x, |&(y, _)| y).is_ok());
            if !earlier && !std::mem::replace(&mut selected[x as usize], true) {
                next.push(x as usize);
            }
        }
    }
    for &x in &next {
        selected[x] = true;
    }
    picked.extend_from_slice(&next);
    next
}

/// The sampler's BFS written the plain way — membership in `Vec<bool>`,
/// the hop rule of `NeighborhoodSampler` (early-exit walk, rejection draws
/// on overflow) — so that the work it does can be counted. Returns the BFS
/// part of the selection and the (adjacency entries read, RNG draws made).
fn bfs_replica(
    graph: &BipartiteGraph,
    (user, item): (usize, usize),
    (n, m): (usize, usize),
    rng: &mut StdRng,
) -> (ContextSelection, (usize, usize)) {
    let (mut users, mut items) = (vec![user], vec![item]);
    let mut user_selected = vec![false; graph.num_users()];
    let mut item_selected = vec![false; graph.num_items()];
    user_selected[user] = true;
    item_selected[item] = true;
    let (mut frontier_users, mut frontier_items) = (users.clone(), items.clone());
    let mut counts = (0, 0);
    while (users.len() < n || items.len() < m)
        && (!frontier_users.is_empty() || !frontier_items.is_empty())
    {
        let next_items = bfs_hop(
            &frontier_users,
            |u| graph.user_neighbors(u),
            &mut item_selected,
            &mut items,
            m,
            rng,
            &mut counts,
        );
        let next_users = bfs_hop(
            &frontier_items,
            |i| graph.item_neighbors(i),
            &mut user_selected,
            &mut users,
            n,
            rng,
            &mut counts,
        );
        (frontier_users, frontier_items) = (next_users, next_items);
    }
    (ContextSelection { users, items }, counts)
}

/// Times `NeighborhoodSampler` at `pairs` never-repeated uniform seed pairs
/// of `graph`, after checking every selection against [`bfs_replica`].
fn bench_sampler(graph: &BipartiteGraph, pairs: usize, reps: usize) -> SamplerReport {
    let cfg = HireConfig::fast();
    let (n, m) = (cfg.context_users, cfg.context_items);
    let mut rng = StdRng::seed_from_u64(0x5A3F);
    let mut seen = std::collections::BTreeSet::new();
    let seeds: Vec<(usize, usize)> = std::iter::repeat_with(|| {
        (
            rng.gen_range(0..graph.num_users()),
            rng.gen_range(0..graph.num_items()),
        )
    })
    .filter(|&pair| seen.insert(pair))
    .take(pairs)
    .collect();

    let (mut entries, mut draws) = (0, 0);
    for (k, &(u, i)) in seeds.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(k as u64);
        let (bfs, (e, d)) = bfs_replica(graph, (u, i), (n, m), &mut rng);
        // Same stream, so the sampler's own random fill (degree-0 seeds)
        // continues where the replica stopped.
        let mut rng = StdRng::seed_from_u64(k as u64);
        let sel = NeighborhoodSampler.sample(graph, &[u], &[i], n, m, &mut rng);
        assert!(
            sel.users.starts_with(&bfs.users) && sel.items.starts_with(&bfs.items),
            "the BFS replica diverged from the sampler at pair ({u}, {i})"
        );
        entries += e;
        draws += d;
    }
    let secs = time_best(reps, || {
        for (k, &(u, i)) in seeds.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(k as u64);
            let sel = NeighborhoodSampler.sample(graph, &[u], &[i], n, m, &mut rng);
            std::hint::black_box(&sel);
        }
    });
    SamplerReport {
        graph: vec![graph.num_users(), graph.num_items()],
        edges: graph.num_ratings(),
        max_item_degree: (0..graph.num_items())
            .map(|i| graph.item_degree(i))
            .max()
            .unwrap_or(0),
        context: vec![n, m],
        pairs,
        micros_per_sample: secs * 1e6 / pairs as f64,
        entries_walked_per_sample: entries as f64 / pairs as f64,
        rng_draws_per_sample: draws as f64 / pairs as f64,
    }
}

/// Commits `batches` to a fresh `EpochedGraph` over `base`, one
/// `commit_edges` each: counted once against each predecessor, then timed.
fn commit_cost(base: &Arc<BipartiteGraph>, batches: &[Vec<Rating>], reps: usize) -> CommitCost {
    let graph = EpochedGraph::from_arc(Arc::clone(base));
    let (mut chunks, mut bytes) = (0, 0);
    for batch in batches {
        let before = graph.pin();
        graph.commit_edges(batch);
        let sharing = graph.pin().chunk_sharing(&before);
        chunks += sharing.chunks - sharing.shared_chunks;
        bytes += sharing.bytes - sharing.shared_bytes;
    }
    drop(graph);
    let secs = time_best(reps, || {
        let graph = EpochedGraph::from_arc(Arc::clone(base));
        for batch in batches {
            std::hint::black_box(graph.commit_edges(batch));
        }
    });
    CommitCost {
        edges_per_commit: batches[0].len(),
        micros_per_commit: secs * 1e6 / batches.len() as f64,
        chunks_copied_per_commit: chunks as f64 / batches.len() as f64,
        bytes_copied_per_commit: bytes as f64 / batches.len() as f64,
    }
}

/// `commits` single-edge and as many eight-edge commits of never-rated
/// uniform pairs on `base` (see [`commit_cost`]).
fn bench_graph_commit(
    base: &Arc<BipartiteGraph>,
    commits: usize,
    reps: usize,
) -> GraphCommitReport {
    let mut rng = StdRng::seed_from_u64(0xC0_77_17);
    let mut seen = std::collections::BTreeSet::new();
    let mut fresh: Vec<Rating> = std::iter::repeat_with(|| {
        (
            rng.gen_range(0..base.num_users()),
            rng.gen_range(0..base.num_items()),
        )
    })
    .filter(|&(u, i)| base.rating(u, i).is_none() && seen.insert((u, i)))
    .map(|(u, i)| Rating::new(u, i, 3.0))
    .take(9 * commits)
    .collect();
    let eights: Vec<Vec<Rating>> = fresh
        .split_off(commits)
        .chunks(8)
        .map(<[Rating]>::to_vec)
        .collect();
    let singles: Vec<Vec<Rating>> = fresh.into_iter().map(|r| vec![r]).collect();
    let whole = base.chunk_sharing(base);
    GraphCommitReport {
        graph: vec![base.num_users(), base.num_items()],
        edges: base.num_ratings(),
        resident_bytes: whole.bytes,
        chunks: whole.chunks,
        largest_chunk_bytes: whole.largest_chunk_bytes,
        commits,
        single: commit_cost(base, &singles, reps),
        batch8: commit_cost(base, &eights, reps),
    }
}

/// Times the full HIM tape forward and forward+backward of a `config`
/// model (`cfg`; its context shrunk to 8×8 for `--smoke`), and its serving
/// forward asked for every cell and for the query cell alone.
fn bench_him(config: &'static str, cfg: HireConfig, smoke: bool) -> HimReport {
    let cfg = if smoke {
        cfg.with_context_size(8, 8)
    } else {
        cfg
    };
    let dataset = SyntheticConfig::movielens_like()
        .scaled(120, 100, (15, 40))
        .generate(41);
    let graph = dataset.graph();
    let mut rng = StdRng::seed_from_u64(41);
    let model = HireModel::new(&dataset, &cfg, &mut rng);
    let placeholder = Rating::new(3, 5, dataset.min_rating);
    let ctx = test_context_with_ratio(
        &graph,
        &NeighborhoodSampler,
        &[placeholder],
        cfg.context_users,
        cfg.context_items,
        cfg.input_ratio,
        &mut rng,
    )
    .expect("benchmark context");

    let reps = if smoke { 5 } else { 8 };
    let forward = time_best(reps, || {
        let out = model.forward(&ctx, &dataset);
        std::hint::black_box(&out);
    });
    let forward_backward = time_best(reps, || model.context_loss(&ctx, &dataset).backward());

    let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
    let cell = [(
        ctx.user_row(placeholder.user).expect("the query's user"),
        ctx.item_col(placeholder.item).expect("the query's item"),
    )];
    // Sub-millisecond calls: a longer best-of costs little.
    let nograd_reps = 5 * reps;
    let nograd_forward = time_best(nograd_reps, || {
        std::hint::black_box(frozen.forward_nograd(&ctx, &dataset).expect("forward"));
    });
    let nograd_one_cell = time_best(nograd_reps, || {
        std::hint::black_box(
            frozen
                .forward_cells(&ctx, &dataset, &cell)
                .expect("forward"),
        );
    });
    HimReport {
        config,
        context_users: cfg.context_users,
        context_items: cfg.context_items,
        num_blocks: cfg.num_blocks,
        forward_ms: forward * 1e3,
        forward_backward_ms: forward_backward * 1e3,
        nograd_forward_ms: nograd_forward * 1e3,
        nograd_one_cell_ms: nograd_one_cell * 1e3,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    let host = HostInfo::detect();
    eprintln!("compute_bench: {}", host.summary());

    // HIM-realistic products: [rows, e] x [e, inner] attention projections
    // (rows = batch*tokens of MBU/MBI/MBA) and the larger full-tier shape.
    // Then HIM's thin ones: MBA's projection and `W_O`, MBU/MBI's `W_O`.
    // Then (`true`: `[n, k]ᵀ·[n, m]`) the MHSA backward's weight gradient
    // `Xᵀ·[dQ | dK | dV]` of MBA and of MBU/MBI.
    let shapes: &[([usize; 3], bool)] = if args.smoke {
        &[
            ([256, 40, 32], false),
            ([512, 64, 64], false),
            ([2304, 32, 8], false),
        ]
    } else {
        &[
            ([256, 40, 32], false),
            ([1024, 40, 32], false),
            ([4096, 24, 24], false),
            ([512, 64, 64], false),
            ([2304, 8, 32], false),
            ([2304, 32, 8], false),
            ([256, 32, 72], false),
            ([2304, 8, 96], true),
            ([256, 72, 96], true),
        ]
    };
    // Matmul timings are microseconds per rep; a generous best-of count
    // costs nothing and rides out scheduler noise on shared hosts.
    let reps = if args.smoke { 20 } else { 40 };
    let matmul: Vec<MatmulReport> = shapes
        .iter()
        .map(|&([n, k, m], transposed)| {
            let r = bench_matmul(n, k, m, transposed, reps);
            eprintln!(
                "  matmul {} {n}x{k}x{m}: ref {:.2} GF/s, scalar {:.2} GF/s, {} {:.2} GF/s ({:.2}x from dispatch)",
                r.op, r.gflops_reference_1t, r.gflops_scalar_1t, r.isa, r.gflops_blocked_1t, r.dispatch_speedup_1t
            );
            r
        })
        .collect();

    // The movielens-like schema `bench_him` runs on: 4 user + 4 item
    // attributes + the rating channel. The `fast` rows first and the paper's
    // after the HIM section, so their megabyte buffers come and go after
    // every `fast` number is taken, as before the paper rows existed.
    let h = 9;
    let per_layer = |config: &'static str, cfg: &HireConfig| {
        let mhsa = bench_mhsa(config, cfg, h, reps, matmul[0].gflops_blocked_1t);
        for r in &mhsa {
            eprintln!(
                "  mhsa {} {} {:?}: {:.1} us (projections {:.1}, attention {:.1}, W_O {:.1}), {:.2} GF/s ({:.0} % of the matmul peak); on the tape {:.1} us forward, {:.1} us backward ({}, dX {:.1})",
                r.config,
                r.layer,
                r.shape,
                r.micros_1t,
                r.proj_us,
                r.attn_us,
                r.out_us,
                r.gflops_1t,
                100.0 * r.share_of_matmul_peak,
                r.tape_forward_us,
                r.tape_backward_us,
                match r.bwd_dw_us {
                    Some(dw) => format!("attention {:.1}, dW {dw:.1}", r.bwd_attn_us),
                    None => format!("one pass: lanes and dW {:.1}", r.bwd_attn_us),
                },
                r.bwd_dx_us
            );
        }
        let layer_norm = bench_layer_norm(config, cfg, h, reps);
        eprintln!(
            "  layer_norm {} {:?}: {:.1} us; on the tape {:.1} us forward, {:.1} us backward",
            layer_norm.config,
            layer_norm.shape,
            layer_norm.micros_1t,
            layer_norm.tape_forward_us,
            layer_norm.tape_backward_us
        );
        (mhsa, layer_norm)
    };
    let (mut mhsa, fast_layer_norm) = per_layer("fast", &HireConfig::fast());

    let him_row = |config: &'static str, cfg: HireConfig| {
        let him = bench_him(config, cfg, args.smoke);
        eprintln!(
            "  him {} {}x{}, {} blocks: forward {:.2} ms, forward+backward {:.2} ms; serving forward {:.3} ms every cell, {:.3} ms one cell",
            him.config,
            him.context_users,
            him.context_items,
            him.num_blocks,
            him.forward_ms,
            him.forward_backward_ms,
            him.nograd_forward_ms,
            him.nograd_one_cell_ms
        );
        him
    };
    let mut him = vec![him_row("fast", HireConfig::fast())];

    let (paper_mhsa, paper_layer_norm) = per_layer("paper", &HireConfig::default());
    him.push(him_row("paper", HireConfig::default()));
    mhsa.extend(paper_mhsa);
    let layer_norm = vec![fast_layer_norm, paper_layer_norm];

    // The serving benchmark's two graphs: the default 600×400 one and the
    // streaming hub graph of its write workload.
    // After the HIM section on purpose: freeing these multi-megabyte graphs
    // first leaves the main thread's heap trimming on every tape forward,
    // which triples its time and nothing else.
    let small = Arc::new(SyntheticConfig::movielens_like().generate(43).graph());
    let (_, hub) = SyntheticConfig::million_scale()
        .scaled(50_000, 10_000, (4, 16))
        .generate_streaming(43);
    let hub = Arc::new(hub);
    let sampler: Vec<SamplerReport> = [&small, &hub]
        .into_iter()
        .map(|graph| {
            let r = bench_sampler(graph, if args.smoke { 100 } else { 400 }, 5);
            eprintln!(
                "  sampler {}x{} (max item degree {}): {:.1} us/sample, {:.0} entries walked, {:.0} draws",
                r.graph[0],
                r.graph[1],
                r.max_item_degree,
                r.micros_per_sample,
                r.entries_walked_per_sample,
                r.rng_draws_per_sample
            );
            r
        })
        .collect();
    let graph_commit: Vec<GraphCommitReport> = [&small, &hub]
        .into_iter()
        .map(|graph| {
            let r = bench_graph_commit(graph, if args.smoke { 32 } else { 128 }, 5);
            eprintln!(
                "  graph_commit {}x{} ({} chunks, {} B resident, largest chunk {} B): 1 edge {:.1} us, {:.1} chunks, {:.0} B copied; 8 edges {:.1} us, {:.1} chunks, {:.0} B copied",
                r.graph[0],
                r.graph[1],
                r.chunks,
                r.resident_bytes,
                r.largest_chunk_bytes,
                r.single.micros_per_commit,
                r.single.chunks_copied_per_commit,
                r.single.bytes_copied_per_commit,
                r.batch8.micros_per_commit,
                r.batch8.chunks_copied_per_commit,
                r.batch8.bytes_copied_per_commit
            );
            r
        })
        .collect();
    // Sampler gate: the BFS draws by the context budget, not by degree.
    let draws_per_budget =
        sampler[1].rng_draws_per_sample / (sampler[1].context[0] + sampler[1].context[1]) as f64;
    let sampler_gate_failed = args.smoke && draws_per_budget > SAMPLER_DRAWS_SMOKE_PER_BUDGET;
    if sampler_gate_failed {
        eprintln!(
            "compute_bench: SAMPLER GATE FAILED — {draws_per_budget:.1}x (n + m) draws per sample on the hub graph (at most {SAMPLER_DRAWS_SMOKE_PER_BUDGET}x)"
        );
    }
    // Copy-on-write gate: what one new edge copies follows the rows it
    // touches, not the graph it is added to.
    let commit_bytes_ratio = graph_commit[1].single.bytes_copied_per_commit
        / graph_commit[0].single.bytes_copied_per_commit;
    let commit_gate_failed = args.smoke && commit_bytes_ratio > COMMIT_BYTES_SMOKE_RATIO;
    if commit_gate_failed {
        eprintln!(
            "compute_bench: COMMIT GATE FAILED — a single-edge commit copies {commit_bytes_ratio:.1}x the bytes on the hub graph that it does at 600x400 (at most {COMMIT_BYTES_SMOKE_RATIO}x)"
        );
    }

    // Asked-cell gate: a forward asked for one cell runs a subset of the
    // every-cell forward's layers' rows, so it must not be the slower one.
    let one_cell_gate_failed = args.smoke && him[0].nograd_one_cell_ms > him[0].nograd_forward_ms;
    if one_cell_gate_failed {
        eprintln!(
            "compute_bench: ONE-CELL GATE FAILED — a one-cell serving forward took {:.3} ms at fast, the every-cell one {:.3} ms",
            him[0].nograd_one_cell_ms, him[0].nograd_forward_ms
        );
    }

    // ISA gate: a host that dispatched avx2 or better must see the SIMD win
    // on every smoke shape, else the dispatcher or the micro-kernel
    // regressed.
    let mut isa_gate_failed = false;
    if args.smoke && hire_tensor::simd::active_isa() >= hire_tensor::simd::Isa::Avx2 {
        for r in &matmul {
            if r.dispatch_speedup_1t < ISA_SMOKE_SPEEDUP {
                eprintln!(
                    "compute_bench: ISA GATE FAILED — {} matmul only {:.2}x over forced-scalar at {:?} (need {ISA_SMOKE_SPEEDUP}x)",
                    r.isa, r.dispatch_speedup_1t, r.shape
                );
                isa_gate_failed = true;
            }
        }
    }
    let report = KernelBenchReport {
        smoke: args.smoke,
        host,
        matmul,
        mhsa,
        layer_norm,
        him,
        sampler,
        graph_commit,
    };
    write_json_atomic(&args.out, &report).expect("write BENCH_KERNELS.json");
    eprintln!("compute_bench: report written to {}", args.out);

    if isa_gate_failed || commit_gate_failed || sampler_gate_failed || one_cell_gate_failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_info_detect_is_sane_and_serializable() {
        let host = HostInfo::detect();
        assert!(host.logical_cores >= 1);
        assert!(host.compute_pool_threads >= 1);
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        assert!(
            !host.isa_features.is_empty(),
            "sse2/neon are baseline on these targets"
        );
        assert!(
            ["scalar", "avx2", "avx512"].contains(&host.dispatched_kernel.as_str()),
            "unknown dispatched kernel {:?}",
            host.dispatched_kernel
        );
        if let Ok(isa) = std::env::var("HIRE_ISA") {
            assert_eq!(host.hire_isa_env.as_deref(), Some(isa.as_str()));
        }
        let summary = host.summary();
        assert!(summary.contains(&host.dispatched_kernel));
        assert!(summary.contains("dispatched kernel"));
        let json = serde_json::to_string(&host).expect("serialize");
        assert!(json.contains("logical_cores"));
        assert!(json.contains("compute_pool_threads"));
        assert!(json.contains("dispatched_kernel"));
    }
}
