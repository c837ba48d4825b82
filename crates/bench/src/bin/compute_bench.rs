//! Kernel/compute benchmark: establishes the perf trajectory of the compute
//! layer and emits `BENCH_KERNELS.json`. Everything timed here runs on the
//! calling thread, as every kernel does (DESIGN.md §11) — the `_1t` in the
//! report's field names says so.
//!
//! Five sections:
//! 1. **matmul** — GFLOP/s at HIM-realistic shapes: the naive reference
//!    loop, the blocked kernel forced to the scalar micro-kernel, and the
//!    blocked kernel on the dispatched ISA (see `hire_tensor::simd`). The
//!    dispatched result is correctness-checked before it is timed: bitwise
//!    against the reference on scalar, oracle-bounded on avx2 (whose
//!    FMA chain rounds less — DESIGN.md §16).
//! 2. **mhsa** — the tape-free `hire_nn::mhsa_forward` at HIM's three
//!    attention shapes (MBU, MBI, MBA of the `fast` config):
//!    microseconds, achieved GFLOP/s from the shape's matmul FLOPs, and
//!    that as a share of the matmul peak section 1 measured; beside it the
//!    same shape through the tape's one `mhsa` node, forward (the same
//!    kernels plus the saved `Q` and softmax rows) and backward. Reported,
//!    not gated — these are the per-layer numbers the serving forward and
//!    a training step are made of.
//! 3. **him** — full HIM tape forward and forward+backward wall time on a
//!    synthetic cold-start context.
//! 4. **sampler** — `NeighborhoodSampler` at never-repeated uniform pairs on
//!    the default 600×400 `movielens_like` graph and on the streaming
//!    50 000×10 000 `popularity_skew = 1.1` graph whose hub items are rated
//!    by most users: microseconds per sample, and — from a plain BFS replica
//!    that must reproduce every selection first — the adjacency entries
//!    walked and RNG draws made per sample. Reported, not gated.
//! 5. **graph_commit** — `EpochedGraph::commit_edges` on the same two graphs,
//!    one new edge and eight new edges a commit: microseconds, and — counted
//!    with `BipartiteGraph::chunk_sharing` against the predecessor — the
//!    adjacency chunks and bytes each commit copied, beside the snapshot's
//!    resident bytes and its largest chunk (what a commit on a hub row
//!    copies).
//!
//! `--smoke` shrinks every section to seconds and gates two regressions: on
//! hosts where the dispatcher resolves to avx2 the dispatched matmul must
//! beat the forced-scalar micro-kernel, and a single-edge commit on the hub
//! graph must copy no more than a fixed multiple of the bytes it copies on
//! the 600×400 one — the CI regression gates for the SIMD layer and the
//! copy-on-write graph.

use hire_bench::write_json_atomic;
use hire_core::{HireConfig, HireModel};
use hire_data::{test_context_with_ratio, SyntheticConfig};
use hire_graph::{
    BipartiteGraph, ContextSampler, ContextSelection, EpochedGraph, NeighborhoodSampler, Rating,
};
use hire_nn::{mhsa_forward, MhsaWeights, MultiHeadSelfAttention};
use hire_tensor::linalg;
use hire_tensor::{NdArray, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "compute_bench — kernel and HIM compute benchmark

USAGE:
    compute_bench [OPTIONS]

OPTIONS:
    --smoke         quick run: small shapes, assert (on avx2 hosts) that
                    dispatch beats forced-scalar, and that a graph commit
                    copies bytes by the rows it touches
    --out <path>    write the JSON report here [BENCH_KERNELS.json]
    -h, --help      print this help";

/// On hosts where the dispatcher resolves to avx2, the dispatched matmul
/// must beat the forced-scalar micro-kernel by at least this factor on
/// every smoke shape. Deliberately far below the ~4x the avx2 kernel
/// actually delivers — the gate catches a dispatcher wired to the wrong
/// path, not a few percent of perf drift.
const ISA_SMOKE_SPEEDUP: f64 = 1.2;

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
    /// `[n, k, m]` of the timed product.
    shape: Vec<usize>,
    /// Kernel path the dispatched numbers below ran on
    /// (`scalar` | `avx2` | `avx512`).
    isa: String,
    gflops_reference_1t: f64,
    /// Blocked kernel pinned to the scalar micro-kernel: the pre-SIMD
    /// baseline every dispatched number is compared against.
    gflops_scalar_1t: f64,
    /// Blocked kernel on the dispatched ISA.
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
    /// `[batch, tokens, model_dim]` of the timed input.
    shape: Vec<usize>,
    heads: usize,
    head_dim: usize,
    /// Best-of wall time of one `mhsa_forward`.
    micros_1t: f64,
    /// Projection + QKᵀ + A·V + output-projection FLOPs over that time.
    gflops_1t: f64,
    /// `gflops_1t` over the dispatched 1-thread matmul GFLOP/s at the
    /// 256×40×32 projection shape: how much of the kernel peak survives
    /// the attention layer around it.
    share_of_matmul_peak: f64,
    /// Best-of wall time of one `MultiHeadSelfAttention::forward` on an
    /// input that takes a gradient: `micros_1t` plus keeping `Q`
    /// and the softmax rows (and allocating what the no-grad forward is
    /// handed).
    tape_forward_us: f64,
    /// Best-of wall time of that node's backward (all four weight
    /// gradients and `dX`).
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
    /// Adjacency entries the BFS reads per sample (every neighbour of every
    /// frontier entity of every hop), mean over the pairs.
    entries_walked_per_sample: f64,
    /// RNG draws per sample: one per candidate above the first in every hop
    /// that overflows its budget, spent budgets included.
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
    context_users: usize,
    context_items: usize,
    num_blocks: usize,
    /// Best-of wall time of one tape forward.
    forward_ms: f64,
    /// Best-of wall time of one `context_loss` + `backward`.
    forward_backward_ms: f64,
}

#[derive(Serialize)]
struct KernelBenchReport {
    smoke: bool,
    /// Cores and ISA features of the machine that produced these numbers.
    host: hire_bench::HostInfo,
    matmul: Vec<MatmulReport>,
    mhsa: Vec<MhsaReport>,
    him: HimReport,
    sampler: Vec<SamplerReport>,
    graph_commit: Vec<GraphCommitReport>,
}

/// Times one `[n,k] x [k,m]` product: reference vs forced-scalar blocked
/// vs dispatched blocked. Correctness runs first: the dispatched result must
/// match the reference (bitwise on scalar, oracle-bounded on avx2 per
/// DESIGN.md §16).
fn bench_matmul(n: usize, k: usize, m: usize, reps: usize) -> MatmulReport {
    let mut rng = StdRng::seed_from_u64(0x11A7 ^ (n * k * m) as u64);
    let a = NdArray::randn([n, k], 0.0, 1.0, &mut rng);
    let b = NdArray::randn([k, m], 0.0, 1.0, &mut rng);
    let flops = 2.0 * (n * k * m) as f64;
    let isa = hire_tensor::simd::active_isa();

    let mut reference = vec![0.0f32; n * m];
    linalg::matmul_reference(a.as_slice(), b.as_slice(), &mut reference, n, k, m);
    let baseline = linalg::matmul2d(&a, &b);
    let bitwise_vs_reference = isa < hire_tensor::simd::Isa::Avx2;
    for (i, (&x, &y)) in baseline.as_slice().iter().zip(&reference).enumerate() {
        if bitwise_vs_reference {
            assert!(
                x.to_bits() == y.to_bits(),
                "{} matmul deviates from reference at element {i} ({n}x{k}x{m})",
                isa.label()
            );
        } else {
            let tol = 1e-4 * (k as f32).sqrt() * y.abs().max(1.0);
            assert!(
                (x - y).abs() <= tol,
                "{} matmul outside oracle bound at element {i} ({n}x{k}x{m}): {x} vs {y}",
                isa.label()
            );
        }
    }

    let t_ref = time_best(reps, || {
        let mut out = vec![0.0f32; n * m];
        linalg::matmul_reference(a.as_slice(), b.as_slice(), &mut out, n, k, m);
        std::hint::black_box(&out);
    });
    let t_scalar_1t = time_best(reps, || {
        let out = linalg::matmul2d_with_isa(&a, &b, hire_tensor::simd::Isa::Scalar);
        std::hint::black_box(&out);
    });
    let t_blocked_1t = time_best(reps, || {
        let out = linalg::matmul2d(&a, &b);
        std::hint::black_box(&out);
    });
    MatmulReport {
        shape: vec![n, k, m],
        isa: isa.label().to_string(),
        gflops_reference_1t: flops / t_ref / 1e9,
        gflops_scalar_1t: flops / t_scalar_1t / 1e9,
        gflops_blocked_1t: flops / t_blocked_1t / 1e9,
        blocking_speedup_1t: t_ref / t_scalar_1t,
        dispatch_speedup_1t: t_scalar_1t / t_blocked_1t,
    }
}

/// Times `mhsa_forward` at the three attention shapes of a `fast`-config
/// HIM block over an `n × m` context of `h` attributes (tokens = users,
/// items, attributes) against `matmul_peak_gflops`.
fn bench_mhsa(h: usize, reps: usize, matmul_peak_gflops: f64) -> Vec<MhsaReport> {
    let cfg = HireConfig::fast();
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
            shape: vec![b, t, d],
            heads: l,
            head_dim: dk,
            micros_1t: secs * 1e6,
            gflops_1t: gflops,
            share_of_matmul_peak: gflops / matmul_peak_gflops,
            tape_forward_us: tape_forward * 1e6,
            tape_backward_us: tape_backward * 1e6,
        }
    })
    .collect()
}

/// One side of one hop of [`bfs_replica`]: the unselected neighbours of
/// `frontier` in first-seen order, cut to what `picked` still lacks of
/// `budget`; `counts` gains the adjacency entries read and the draws made.
fn bfs_hop<'g>(
    frontier: &[usize],
    neighbors: impl Fn(usize) -> &'g [(u32, f32)],
    selected: &mut [bool],
    picked: &mut Vec<usize>,
    budget: usize,
    rng: &mut StdRng,
    counts: &mut (usize, usize),
) -> Vec<usize> {
    let mut seen = selected.to_vec();
    let mut next = Vec::new();
    for &v in frontier {
        counts.0 += neighbors(v).len();
        for &(x, _) in neighbors(v) {
            if !std::mem::replace(&mut seen[x as usize], true) {
                next.push(x as usize);
            }
        }
    }
    let room = budget - picked.len();
    if next.len() > room {
        counts.1 += next.len() - 1;
        next.shuffle(rng);
        next.truncate(room);
    }
    for &x in &next {
        selected[x] = true;
    }
    picked.extend_from_slice(&next);
    next
}

/// The sampler's BFS written the plain way — membership in `Vec<bool>`,
/// candidates in first-seen order, `shuffle` + `truncate` on overflow — so
/// that the work it does can be counted. Returns the BFS part of the
/// selection and the (adjacency entries read, RNG draws made).
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

/// Times the full HIM tape forward and forward+backward.
fn bench_him(smoke: bool) -> HimReport {
    let config = if smoke {
        HireConfig::fast().with_context_size(8, 8)
    } else {
        HireConfig::fast()
    };
    let dataset = SyntheticConfig::movielens_like()
        .scaled(120, 100, (15, 40))
        .generate(41);
    let graph = dataset.graph();
    let mut rng = StdRng::seed_from_u64(41);
    let model = HireModel::new(&dataset, &config, &mut rng);
    let placeholder = Rating::new(3, 5, dataset.min_rating);
    let ctx = test_context_with_ratio(
        &graph,
        &NeighborhoodSampler,
        &[placeholder],
        config.context_users,
        config.context_items,
        config.input_ratio,
        &mut rng,
    )
    .expect("benchmark context");

    let reps = if smoke { 5 } else { 8 };
    let forward = time_best(reps, || {
        let out = model.forward(&ctx, &dataset);
        std::hint::black_box(&out);
    });
    let forward_backward = time_best(reps, || model.context_loss(&ctx, &dataset).backward());
    HimReport {
        context_users: config.context_users,
        context_items: config.context_items,
        num_blocks: config.num_blocks,
        forward_ms: forward * 1e3,
        forward_backward_ms: forward_backward * 1e3,
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

    let host = hire_bench::HostInfo::detect();
    eprintln!("compute_bench: {}", host.summary());

    // HIM-realistic products: [rows, e] x [e, inner] attention projections
    // (rows = batch*tokens of MBU/MBI/MBA) and the larger full-tier shape.
    let shapes: &[[usize; 3]] = if args.smoke {
        &[[256, 40, 32], [512, 64, 64]]
    } else {
        &[[256, 40, 32], [1024, 40, 32], [4096, 24, 24], [512, 64, 64]]
    };
    // Matmul timings are microseconds per rep; a generous best-of count
    // costs nothing and rides out scheduler noise on shared hosts.
    let reps = if args.smoke { 20 } else { 40 };
    let matmul: Vec<MatmulReport> = shapes
        .iter()
        .map(|&[n, k, m]| {
            let r = bench_matmul(n, k, m, reps);
            eprintln!(
                "  matmul {n}x{k}x{m}: ref {:.2} GF/s, scalar {:.2} GF/s, {} {:.2} GF/s ({:.2}x from dispatch)",
                r.gflops_reference_1t, r.gflops_scalar_1t, r.isa, r.gflops_blocked_1t, r.dispatch_speedup_1t
            );
            r
        })
        .collect();

    // The movielens-like schema `bench_him` runs on: 4 user + 4 item
    // attributes + the rating channel.
    let mhsa = bench_mhsa(9, reps, matmul[0].gflops_blocked_1t);
    for r in &mhsa {
        eprintln!(
            "  mhsa {} {:?}: {:.1} us, {:.2} GF/s ({:.0} % of the matmul peak); on the tape {:.1} us forward, {:.1} us backward",
            r.layer,
            r.shape,
            r.micros_1t,
            r.gflops_1t,
            100.0 * r.share_of_matmul_peak,
            r.tape_forward_us,
            r.tape_backward_us
        );
    }

    let him = bench_him(args.smoke);
    eprintln!(
        "  him {}x{}, {} blocks: forward {:.2} ms, forward+backward {:.2} ms",
        him.context_users,
        him.context_items,
        him.num_blocks,
        him.forward_ms,
        him.forward_backward_ms
    );

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
        him,
        sampler,
        graph_commit,
    };
    write_json_atomic(&args.out, &report).expect("write BENCH_KERNELS.json");
    eprintln!("compute_bench: report written to {}", args.out);

    if isa_gate_failed || commit_gate_failed {
        std::process::exit(1);
    }
}
