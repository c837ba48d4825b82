//! The forward asked for some cells answers exactly what the every-cell
//! forward answers there: `forward_cells` ≡ `forward_nograd` at the asked
//! cells, `to_bits` equal, for `FrozenModel` and `QuantizedModel`, single
//! and batched (with and without a deadline), over one cell, one full row,
//! one full column, scattered cells and every cell — at 1, 2 and 3 blocks,
//! under all seven MBU/MBI/MBA ablations, and without the residual or the
//! LayerNorm (whose absence swaps the two activation buffers instead).
//!
//! Each layer of the asked forward runs only on the cells its output is
//! read at, so these sets walk every shape of that plan: a cell's row
//! (MBI), its column (MBU), both (every cell), neither (MBA alone).

use hire_core::{HireConfig, HireModel};
use hire_data::{test_context_with_ratio, Dataset, PredictionContext};
use hire_error::HireError;
use hire_graph::{NeighborhoodSampler, Rating};
use hire_serve::{FrozenModel, QuantizedModel};
use hire_tensor::{NdArray, QuantMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn dataset() -> Dataset {
    hire_data::SyntheticConfig::movielens_like()
        .scaled(40, 35, (8, 15))
        .generate(42)
}

fn contexts(dataset: &Dataset, (n, m): (usize, usize)) -> Vec<PredictionContext> {
    let graph = dataset.graph();
    let mut rng = StdRng::seed_from_u64(7);
    (0..2)
        .map(|k| {
            let seed = dataset.ratings[k * 5 % dataset.ratings.len()];
            test_context_with_ratio(
                &graph,
                &NeighborhoodSampler,
                &[Rating::new(seed.user, seed.item, seed.value)],
                n,
                m,
                0.3,
                &mut rng,
            )
            .expect("test context")
        })
        .collect()
}

/// The cell sets asked of an `n × m` context, by name. Scattered cells come
/// unsorted and with a repeat; every cell comes in reverse order.
fn cell_sets(n: usize, m: usize) -> Vec<(&'static str, Vec<(usize, usize)>)> {
    vec![
        ("one cell", vec![(n / 2, m - 2)]),
        ("one row", (0..m).map(|j| (n - 3, j)).collect()),
        ("one column", (0..n).map(|i| (i, 1)).collect()),
        (
            "scattered",
            vec![
                (n - 1, m - 1),
                (0, 0),
                (2, m / 2),
                (2, 0),
                (n - 1, 1),
                (0, 0),
            ],
        ),
        (
            "every cell",
            (0..n)
                .flat_map(|i| (0..m).map(move |j| (i, j)))
                .rev()
                .collect(),
        ),
    ]
}

/// `got[k]` must be `full`'s value at `cells[k]`, bit for bit.
fn assert_at_cells(label: &str, full: &NdArray, cells: &[(usize, usize)], got: &[f32]) {
    assert_eq!(
        got.len(),
        cells.len(),
        "[{label}] one answer per asked cell"
    );
    for (&(r, c), v) in cells.iter().zip(got) {
        assert_eq!(
            v.to_bits(),
            full.at(&[r, c]).to_bits(),
            "[{label}] cell ({r}, {c}): {v} vs the every-cell forward's {}",
            full.at(&[r, c])
        );
    }
}

/// The two serving forwards over one model's weights: its own and the
/// int8-rounded one.
trait Forward {
    fn every_cell(&self, ctx: &PredictionContext, dataset: &Dataset) -> NdArray;
    fn cells(
        &self,
        asks: &[(&PredictionContext, &[(usize, usize)])],
        dataset: &Dataset,
        deadline: Option<Instant>,
    ) -> Option<Vec<Vec<f32>>>;
    fn single(
        &self,
        ctx: &PredictionContext,
        dataset: &Dataset,
        cells: &[(usize, usize)],
    ) -> Vec<f32>;
}

impl Forward for FrozenModel {
    fn every_cell(&self, ctx: &PredictionContext, dataset: &Dataset) -> NdArray {
        self.forward_nograd(ctx, dataset)
            .expect("every-cell forward")
    }
    fn cells(
        &self,
        asks: &[(&PredictionContext, &[(usize, usize)])],
        dataset: &Dataset,
        deadline: Option<Instant>,
    ) -> Option<Vec<Vec<f32>>> {
        self.forward_cells_batch_within(asks, dataset, deadline)
            .expect("asked forward")
    }
    fn single(
        &self,
        ctx: &PredictionContext,
        dataset: &Dataset,
        cells: &[(usize, usize)],
    ) -> Vec<f32> {
        self.forward_cells(ctx, dataset, cells)
            .expect("asked forward")
    }
}

impl Forward for QuantizedModel {
    fn every_cell(&self, ctx: &PredictionContext, dataset: &Dataset) -> NdArray {
        self.forward_nograd(ctx, dataset)
            .expect("every-cell forward")
    }
    fn cells(
        &self,
        asks: &[(&PredictionContext, &[(usize, usize)])],
        dataset: &Dataset,
        deadline: Option<Instant>,
    ) -> Option<Vec<Vec<f32>>> {
        self.forward_cells_batch_within(asks, dataset, deadline)
            .expect("asked forward")
    }
    fn single(
        &self,
        ctx: &PredictionContext,
        dataset: &Dataset,
        cells: &[(usize, usize)],
    ) -> Vec<f32> {
        self.forward_cells(ctx, dataset, cells)
            .expect("asked forward")
    }
}

/// Every cell set on every context, single and batched, against the
/// every-cell forward of the same model.
fn assert_matches(label: &str, forward: &impl Forward, dataset: &Dataset, shape: (usize, usize)) {
    let ctxs = contexts(dataset, shape);
    let sets = cell_sets(shape.0, shape.1);
    let full: Vec<NdArray> = ctxs
        .iter()
        .map(|c| forward.every_cell(c, dataset))
        .collect();
    for (name, cells) in &sets {
        for (k, ctx) in ctxs.iter().enumerate() {
            let got = forward.single(ctx, dataset, cells);
            assert_at_cells(&format!("{label} ctx {k} {name}"), &full[k], cells, &got);
        }
    }
    // One batch asking each context for every set, in turn.
    let asks: Vec<(&PredictionContext, &[(usize, usize)])> = sets
        .iter()
        .flat_map(|(_, cells)| ctxs.iter().map(move |ctx| (ctx, cells.as_slice())))
        .collect();
    let far = Instant::now() + Duration::from_secs(3600);
    for deadline in [None, Some(far)] {
        let got = forward
            .cells(&asks, dataset, deadline)
            .expect("time to spare");
        assert_eq!(got.len(), asks.len(), "[{label}] one answer per ask");
        for (a, ((_, cells), values)) in asks.iter().zip(&got).enumerate() {
            let (name, k) = (&sets[a / ctxs.len()].0, a % ctxs.len());
            let what = format!(
                "{label} batched (deadline {}) ctx {k} {name}",
                deadline.is_some()
            );
            assert_at_cells(&what, &full[k], cells, values);
        }
    }
}

fn assert_config(dataset: &Dataset, config: &HireConfig, label: &str) {
    let model = HireModel::new(dataset, config, &mut StdRng::seed_from_u64(1234));
    let frozen = FrozenModel::from_model(&model, dataset).expect("freeze");
    let quant = QuantizedModel::from_frozen(&frozen, QuantMode::Int8);
    for shape in [(9, 7), (16, 16)] {
        assert_matches(&format!("{label} {shape:?} f32"), &frozen, dataset, shape);
        assert_matches(&format!("{label} {shape:?} int8"), &quant, dataset, shape);
    }
}

#[test]
fn asked_cells_match_every_cell_across_depths() {
    let dataset = dataset();
    let one = HireConfig::fast().with_blocks(1);
    assert_config(&dataset, &one, "1 block");
    assert_config(&dataset, &HireConfig::fast(), "fast");
    assert_config(&dataset, &HireConfig::paper_default(), "paper");
}

#[test]
fn asked_cells_match_every_cell_across_layer_ablations() {
    let dataset = dataset();
    for mbu in [false, true] {
        for mbi in [false, true] {
            for mba in [false, true] {
                if !(mbu || mbi || mba) {
                    continue;
                }
                let config = HireConfig::fast().with_layers(mbu, mbi, mba);
                assert_config(&dataset, &config, &format!("layers {mbu}/{mbi}/{mba}"));
            }
        }
    }
}

#[test]
fn asked_cells_match_every_cell_without_residual_or_layer_norm() {
    let dataset = dataset();
    for (residual, layer_norm) in [(false, true), (true, false)] {
        let mut config = HireConfig::fast();
        config.residual = residual;
        config.layer_norm = layer_norm;
        assert_config(
            &dataset,
            &config,
            &format!("res={residual} ln={layer_norm}"),
        );
    }
}

#[test]
fn a_passed_deadline_and_bad_asks_are_answered_in_kind() {
    let dataset = dataset();
    let model = HireModel::new(&dataset, &HireConfig::fast(), &mut StdRng::seed_from_u64(3));
    let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
    let ctxs = contexts(&dataset, (6, 5));
    let one: &[(usize, usize)] = &[(1, 2)];
    let asks = [(&ctxs[0], one), (&ctxs[1], one)];
    let passed = frozen
        .forward_cells_batch_within(&asks, &dataset, Some(Instant::now()))
        .expect("a timeout is not an error");
    assert!(passed.is_none(), "an asked forward ran past its deadline");

    let none = frozen
        .forward_cells(&ctxs[0], &dataset, &[])
        .expect("asking for nothing is no error");
    assert!(none.is_empty());

    for outside in [(6, 0), (0, 5)] {
        match frozen.forward_cells(&ctxs[0], &dataset, &[(0, 0), outside]) {
            Err(HireError::InvalidData { message, .. }) => assert!(
                message.contains(&format!("({}, {})", outside.0, outside.1)),
                "the error should name the cell: {message}"
            ),
            other => panic!("expected a typed InvalidData error, got {other:?}"),
        }
    }
}
