//! Generated asks for the served forward: `forward_cells` ≡
//! `forward_nograd` at the asked cells, `to_bits` equal, over random
//! context shapes (`n, m ∈ 2..=8`), depths (1–3 blocks), all seven
//! MBU / MBI / MBA ablations, the residual and the LayerNorm on and off,
//! and random ask sets — one cell, `r` non-adjacent full rows, scattered
//! cells with repeats, every cell. `target_cells.rs` walks fixed sets on
//! fixed shapes; this walks the plan's every branch on shapes it did not
//! name: the last every-cell MBU with queries on one row, on several, on
//! every row (no cut), and the forward with no every-cell layer at all.

use hire_core::{HireConfig, HireModel};
use hire_data::{test_context_with_ratio, Dataset};
use hire_graph::{NeighborhoodSampler, Rating};
use hire_serve::FrozenModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

fn dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| {
        hire_data::SyntheticConfig::movielens_like()
            .scaled(40, 35, (8, 15))
            .generate(42)
    })
}

/// One ask of an `n × m` context, by `kind`: one cell, `r` non-adjacent
/// full rows, scattered cells with a repeat (unsorted), every cell
/// (shuffled).
fn ask(kind: usize, n: usize, m: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let cell = |rng: &mut StdRng| (rng.gen_range(0..n), rng.gen_range(0..m));
    match kind {
        0 => vec![cell(rng)],
        1 => {
            let mut rows: Vec<usize> = (rng.gen_range(0..2)..n).step_by(2).collect();
            rows.shuffle(rng);
            rows.truncate(rng.gen_range(1..=rows.len()));
            rows.iter()
                .flat_map(|&i| (0..m).map(move |j| (i, j)))
                .collect()
        }
        2 => {
            let mut cells: Vec<_> = (0..rng.gen_range(2..=n * m)).map(|_| cell(rng)).collect();
            cells.push(cells[0]);
            cells
        }
        _ => {
            let mut cells: Vec<_> = (0..n).flat_map(|i| (0..m).map(move |j| (i, j))).collect();
            cells.shuffle(rng);
            cells
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_asks_answer_the_every_cell_forwards_bits(
        (n, m, blocks) in (2usize..=8, 2usize..=8, 1usize..=3),
        (layers, residual, layer_norm) in (1usize..=7, 0usize..=1, 0usize..=1),
        (kind, seed) in (0usize..4, 0u64..1_000_000),
    ) {
        let dataset = dataset();
        let (mbu, mbi, mba) = (layers & 1 == 1, layers & 2 == 2, layers & 4 == 4);
        let mut config = HireConfig::fast().with_blocks(blocks).with_layers(mbu, mbi, mba);
        config.residual = residual == 1;
        config.layer_norm = layer_norm == 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let model = HireModel::new(dataset, &config, &mut rng);
        let frozen = FrozenModel::from_model(&model, dataset).expect("freeze");
        let seed_rating = dataset.ratings[rng.gen_range(0..dataset.ratings.len())];
        let ctx = test_context_with_ratio(
            &dataset.graph(),
            &NeighborhoodSampler,
            &[Rating::new(seed_rating.user, seed_rating.item, seed_rating.value)],
            n,
            m,
            0.3,
            &mut rng,
        )
        .expect("test context");
        let (n, m) = (ctx.n(), ctx.m());
        let cells = ask(kind, n, m, &mut rng);
        let full = frozen.forward_nograd(&ctx, dataset).expect("every-cell forward");
        let got = frozen.forward_cells(&ctx, dataset, &cells).expect("asked forward");
        let label = format!(
            "{n}x{m}, {blocks} blocks, layers {mbu}/{mbi}/{mba}, residual {residual}, \
             norm {layer_norm}, ask kind {kind}, seed {seed}"
        );
        prop_assert_eq!(got.len(), cells.len(), "[{}] one answer per asked cell", label);
        for (&(r, c), v) in cells.iter().zip(&got) {
            prop_assert_eq!(
                v.to_bits(),
                full.at(&[r, c]).to_bits(),
                "[{}] cell ({}, {}): {} vs the every-cell forward's {}",
                label, r, c, v, full.at(&[r, c])
            );
        }
    }
}
