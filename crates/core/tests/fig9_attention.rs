//! Fig. 9's attention rows keep their bits. Where MBA's tape node runs in
//! one pass it keeps only its input, and `AttentionOutput::weights`
//! recomputes the softmax rows from it: they must be the no-grad
//! composition's rows (`linalg::attention_probs_into` over the layer's own
//! Q, K and V), bit for bit, and asking for them must not change the
//! prediction. Tape ops dispatch on the process's ISA, so each ISA is one
//! run of this file under `HIRE_ISA` (CI's matrix).

use hire_core::{HireConfig, HireModel};
use hire_data::{training_context, SyntheticConfig};
use hire_graph::NeighborhoodSampler;
use hire_nn::Module;
use hire_tensor::{linalg, AttnGrid, NdArray};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bits(a: &NdArray) -> Vec<u32> {
    a.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// An MBA-only model, so that the first block's MBA reads the encoder's
/// output: its `mba` rows against the composition's over that input, and
/// `forward_with_attention`'s prediction against `forward`'s.
#[test]
fn mba_rows_are_the_composition_softmax_rows_and_the_prediction_is_forwards() {
    let dataset = SyntheticConfig::movielens_like()
        .scaled(60, 50, (10, 20))
        .generate(5);
    let config = HireConfig::fast()
        .with_blocks(2)
        .with_context_size(16, 16)
        .with_layers(false, false, true);
    let mut rng = StdRng::seed_from_u64(9);
    let model = HireModel::new(&dataset, &config, &mut rng);
    let ctx = training_context(
        &dataset.graph(),
        &NeighborhoodSampler,
        dataset.ratings[0],
        16,
        16,
        0.2,
        &mut rng,
    )
    .expect("context");

    let (pred, attns) = model.forward_with_attention(&ctx, &dataset);
    assert_eq!(
        bits(&pred.value()),
        bits(&model.forward(&ctx, &dataset).value()),
        "forward_with_attention predicts what forward does"
    );

    // The first block's MBA: its input is the encoder's output, its
    // weights the block's first four parameters.
    let (n, m, h, f) = (
        ctx.n(),
        ctx.m(),
        model.encoder().num_attrs(),
        config.attr_dim,
    );
    let x = model.encoder().encode(&ctx, &dataset).value();
    let first = model.encoder().parameters().len();
    let [w_q, w_k, w_v] = [0, 1, 2].map(|i| model.parameters()[first + i].value());
    let grid = AttnGrid {
        outer: n * m,
        tokens: h,
        inner: 1,
        heads: config.heads,
        head_dim: config.head_dim,
    };
    let x_rows = x.reshape([grid.rows(), f]);
    let [mut q, k, v] = [&w_q, &w_k, &w_v].map(|w| linalg::matmul2d(&x_rows, w));
    let mut p = vec![0.0; grid.probs_len()];
    let mut scratch = vec![0.0; grid.scratch_len()];
    linalg::attention_probs_into(
        &grid,
        q.as_mut_slice(),
        k.as_slice(),
        v.as_slice(),
        &mut p,
        &mut scratch,
    );
    let mba = &attns[0].mba;
    assert_eq!(mba.dims(), &[n * m, config.heads, h, h]);
    assert_eq!(bits(mba), bits(&NdArray::from_vec(mba.shape().clone(), p)));
    assert_eq!(attns.len(), 2);
    assert_eq!(attns[1].mba.dims(), mba.dims());
}
