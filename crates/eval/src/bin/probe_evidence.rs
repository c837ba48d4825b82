//! What each model does with the ratings a cold entity reveals: the
//! evidence probes of `hire_eval` (`support_level`, `support_transfer`,
//! `attention_evidence`) per dataset and scenario, over `runs` seeds from
//! `seed` on.
//!
//! - **Level** (every zoo model, `EntityMean` as the reference that reads
//!   exactly 1 on UC): d answer / d support, in units of the scale.
//! - **Transfer**: the rank correlation of the answers with a warm twin's
//!   ratings when the twin's ratings are the support (`twin`), and when a
//!   random warm entity's are (`random`). `gap` = twin − random.
//! - **Attention** (HIRE, its fitted weights loaded into a tape model): per
//!   block, layer and head, the attention mass on the evidence over its
//!   share of the keys (`share`; 1 = no preference), and the same with the
//!   revealed values permuted, mask kept (`permuted`).
//!
//! Each cell prints as mean ± sample std over the seeds; `--out` writes
//! every seed's rows.

use hire_baselines::EntityMean;
use hire_core::HireModel;
use hire_data::ColdStartScenario;
use hire_eval::{
    attention_evidence, baselines, dataset_for, maybe_write_json, mean_std, paper_split,
    support_level, support_transfer, AttentionEvidence, DatasetKind, HarnessArgs, HireRatingModel,
    Layer, RatingModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::BTreeMap;

/// Query cells a cold entity contributes to the attention probe.
const CELLS_PER_ENTITY: usize = 4;

#[derive(Serialize)]
struct ProbeRow {
    dataset: String,
    scenario: String,
    seed: u64,
    model: String,
    level: Option<f32>,
    twin: f32,
    random: f32,
    transfer_entities: usize,
}

#[derive(Serialize)]
struct AttentionRow {
    dataset: String,
    scenario: String,
    seed: u64,
    evidence: AttentionEvidence,
}

#[derive(Serialize)]
struct Report {
    runs: usize,
    probes: Vec<ProbeRow>,
    attention: Vec<AttentionRow>,
}

/// `mean ± std` (sample std) of `xs`, or `—` when empty.
fn cell(xs: &[f32]) -> String {
    if xs.is_empty() {
        return "—".into();
    }
    let (mean, std) = mean_std(xs);
    format!("{mean:+.3} ± {std:.3}")
}

fn main() {
    let args = HarnessArgs::parse();
    let max_entities = args.eval_config().max_entities;
    let kinds = [
        (DatasetKind::MovieLens, "MovieLens"),
        (DatasetKind::Bookcrossing, "Bookcrossing"),
        (DatasetKind::Douban, "Douban"),
    ];
    let mut report = Report {
        runs: args.runs,
        probes: Vec::new(),
        attention: Vec::new(),
    };
    for (kind, name) in kinds {
        for seed in args.seeds() {
            let dataset = dataset_for(kind, args.tier, seed);
            for scenario in ColdStartScenario::ALL {
                let split = paper_split(&dataset, kind, scenario, seed);
                let train_graph = split.train_graph(&dataset);
                let mut probe = |model: &mut dyn RatingModel| {
                    model.fit(&dataset, &train_graph, &mut StdRng::seed_from_u64(seed));
                    let level = support_level(model, &dataset, &split, max_entities);
                    let transfer = support_transfer(model, &dataset, &split, max_entities, seed);
                    eprintln!(
                        "[{name} {} seed {seed}] {:<10} level {level:?} twin {:+.3} random {:+.3}",
                        scenario.label(),
                        model.name(),
                        transfer.twin,
                        transfer.random
                    );
                    report.probes.push(ProbeRow {
                        dataset: name.into(),
                        scenario: scenario.label().into(),
                        seed,
                        model: model.name().into(),
                        level,
                        twin: transfer.twin,
                        random: transfer.random,
                        transfer_entities: transfer.entities,
                    });
                };
                let mut models: Vec<Box<dyn RatingModel>> = vec![Box::new(EntityMean::new())];
                models.extend(baselines(&dataset, args.tier));
                for mut model in models {
                    probe(&mut *model);
                }
                let config = args.tier.hire_config();
                let mut fitted =
                    HireRatingModel::new(config.clone(), args.tier.hire_train_config());
                probe(&mut fitted);
                // The fitted weights as a tape model, for its attention.
                let hire = HireModel::new(&dataset, &config, &mut StdRng::seed_from_u64(seed));
                let weights = fitted.frozen().expect("fitted").parameters();
                hire.load_parameters(&weights)
                    .expect("a model of the fitted one's configuration");
                for evidence in attention_evidence(
                    &hire,
                    &config,
                    &dataset,
                    &split,
                    max_entities,
                    CELLS_PER_ENTITY,
                    seed,
                ) {
                    report.attention.push(AttentionRow {
                        dataset: name.into(),
                        scenario: scenario.label().into(),
                        seed,
                        evidence,
                    });
                }
            }
        }
    }

    // The end is printed exclusive, so it may be 2^64.
    println!(
        "# Evidence probes — tier {:?}, seeds {}..{}",
        args.tier,
        args.seed,
        u128::from(*args.seeds().end()) + 1
    );
    println!("\n## Level and transfer (mean ± std over seeds)");
    let mut by_cell: BTreeMap<(String, String, String), Vec<&ProbeRow>> = BTreeMap::new();
    let mut order = Vec::new();
    for row in &report.probes {
        let key = (row.dataset.clone(), row.scenario.clone(), row.model.clone());
        if !by_cell.contains_key(&key) {
            order.push(key.clone());
        }
        by_cell.entry(key).or_default().push(row);
    }
    println!(
        "| dataset | scenario | model | level | twin | random | gap |\n|---|---|---|---|---|---|---|"
    );
    for key in &order {
        let rows = &by_cell[key];
        let levels: Vec<f32> = rows.iter().filter_map(|r| r.level).collect();
        let twin: Vec<f32> = rows.iter().map(|r| r.twin).collect();
        let random: Vec<f32> = rows.iter().map(|r| r.random).collect();
        let gap: Vec<f32> = rows.iter().map(|r| r.twin - r.random).collect();
        println!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            key.0,
            key.1,
            key.2,
            cell(&levels),
            cell(&twin),
            cell(&random),
            cell(&gap)
        );
    }

    println!("\n## HIRE's attention on the evidence (mean ± std over seeds)");
    let mut by_head: BTreeMap<(String, String, usize, Layer, usize), Vec<&AttentionRow>> =
        BTreeMap::new();
    for row in &report.attention {
        let e = &row.evidence;
        by_head
            .entry((
                row.dataset.clone(),
                row.scenario.clone(),
                e.block,
                e.layer,
                e.head,
            ))
            .or_default()
            .push(row);
    }
    println!("| dataset | scenario | block | layer | head | share | permuted |\n|---|---|---|---|---|---|---|");
    for ((dataset, scenario, block, layer, head), rows) in &by_head {
        let share: Vec<f32> = rows.iter().map(|r| r.evidence.share).collect();
        let permuted: Vec<f32> = rows.iter().map(|r| r.evidence.permuted).collect();
        println!(
            "| {dataset} | {scenario} | {block} | {layer:?} | {head} | {} | {} |",
            cell(&share),
            cell(&permuted)
        );
    }
    maybe_write_json(&args, &report);
}
