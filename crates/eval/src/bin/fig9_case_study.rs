//! Regenerates **Fig. 9**: the case study visualizing the attention
//! matrices learned by the three HIM layers (MBU, MBI, MBA) for one
//! prediction context, rendered as ASCII heat maps.
//!
//! As in the paper, the MBU map shows which users influence a target
//! user's rating, the MBI map which items influence an item view, and the
//! MBA map how user attributes interact with item attributes; weight
//! matrices are asymmetric because attention is directional (Eq. 2).

use hire_core::{train, HireModel};
use hire_data::{test_context, ColdStartScenario};
use hire_eval::{dataset_for, paper_split, DatasetKind, HarnessArgs};
use hire_graph::NeighborhoodSampler;
use hire_tensor::NdArray;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Renders a [t, t] attention matrix (mean over heads) as an ASCII heat map.
fn heatmap(title: &str, weights: &NdArray, view: usize, labels: &[String]) {
    // weights: [views, heads, t, t]
    let dims = weights.dims().to_vec();
    let (heads, t) = (dims[1], dims[2]);
    println!("\n### {title}");
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let mut mean = vec![0.0f32; t * t];
    for h in 0..heads {
        for r in 0..t {
            for c in 0..t {
                mean[r * t + c] += weights.at(&[view, h, r, c]) / heads as f32;
            }
        }
    }
    let max = mean.iter().copied().fold(f32::MIN, f32::max).max(1e-9);
    for (r, label) in labels.iter().enumerate().take(t) {
        let row: String = (0..t)
            .map(|c| {
                let s = (mean[r * t + c] / max * (shades.len() - 1) as f32).round() as usize;
                shades[s.min(shades.len() - 1)]
            })
            .collect();
        println!("{label:>12} |{row}|");
    }
    // strongest off-diagonal interaction
    let mut best = (0usize, 0usize, f32::MIN);
    for r in 0..t {
        for c in 0..t {
            if r != c && mean[r * t + c] > best.2 {
                best = (r, c, mean[r * t + c]);
            }
        }
    }
    println!(
        "strongest interaction: {} <- {} (weight {:.3})",
        labels[best.0], labels[best.1], best.2
    );
}

fn main() {
    let args = HarnessArgs::parse();
    let dataset = dataset_for(DatasetKind::MovieLens, args.tier, args.seed);
    let split = paper_split(
        &dataset,
        DatasetKind::MovieLens,
        ColdStartScenario::UserCold,
        args.seed,
    );
    let mut rng = StdRng::seed_from_u64(args.seed);
    // Small context so the heat maps are readable, like the paper's 16x16.
    let config = args.tier.hire_config().with_context_size(16, 16);
    let model = HireModel::new(&dataset, &config, &mut rng);
    let train_graph = split.train_graph(&dataset);
    eprintln!("training HIRE for the case study ...");
    train(
        &model,
        &dataset,
        &train_graph,
        &NeighborhoodSampler,
        &args.tier.hire_train_config(),
        &mut rng,
    )
    .expect("training");

    // Pick the first cold user with enough queries.
    let (entity, queries) = split
        .queries_by_entity()
        .into_iter()
        .find(|(_, q)| q.len() >= 5)
        .expect("a cold user with >= 5 queries");
    let visible = split.visible_graph(&dataset);
    let ctx = test_context(
        &visible,
        &NeighborhoodSampler,
        &queries[..5],
        16,
        16,
        &mut rng,
    )
    .expect("test context");
    let (pred, attns) = model.forward_with_attention(&ctx, &dataset);
    let pred = pred.value();

    println!("# Fig. 9: Case study — learned attention of the last HIM block");
    println!(
        "cold user: u{entity}; context: {} users x {} items",
        ctx.n(),
        ctx.m()
    );

    let last = attns.last().expect("at least one HIM block");
    let user_labels: Vec<String> = ctx.users.iter().map(|u| format!("u{u}")).collect();
    let item_labels: Vec<String> = ctx.items.iter().map(|i| format!("i{i}")).collect();
    heatmap(
        &format!(
            "(a) MBU: attention among users, view of item {}",
            item_labels[0]
        ),
        &last.mbu,
        0,
        &user_labels,
    );
    heatmap(
        &format!(
            "(b) MBI: attention among items, view of user {}",
            user_labels[0]
        ),
        &last.mbi,
        0,
        &item_labels,
    );
    let mut attr_labels: Vec<String> = Vec::new();
    if dataset.user_schema.is_id_only() {
        attr_labels.push("u:ID".into());
    } else {
        attr_labels.extend(
            dataset
                .user_schema
                .attributes()
                .iter()
                .map(|a| format!("u:{}", a.name)),
        );
    }
    if dataset.item_schema.is_id_only() {
        attr_labels.push("i:ID".into());
    } else {
        attr_labels.extend(
            dataset
                .item_schema
                .attributes()
                .iter()
                .map(|a| format!("i:{}", a.name)),
        );
    }
    attr_labels.push("rating".into());
    heatmap(
        &format!(
            "(c) MBA: attention among attributes for the pair ({}, {})",
            user_labels[0], item_labels[0]
        ),
        &last.mba,
        0,
        &attr_labels,
    );

    println!("\n### Predictions vs ground truth for the cold user's queries");
    for (row, col, actual) in ctx.targets() {
        if ctx.users[row] == entity {
            println!(
                "  u{} on i{:<6} predicted {:.2}   actual {:.1}",
                entity,
                ctx.items[col],
                pred.at(&[row, col]),
                actual
            );
        }
    }
}
