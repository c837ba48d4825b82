//! Regenerates **Fig. 6**: total test time per method (user cold-start, as
//! in the paper — test time is similar across scenarios).
//!
//! The paper's shape — CF fastest, HIRE between CF and the adaptation-based
//! meta-learners, MAMO slowest — does not hold here: HIRE is the slowest
//! method at test time (`results/fig6_efficiency.txt`: HIRE 0.181 s, MAMO
//! 0.015 s on MovieLens). HIRE answers each query pair with a sampled
//! context and a forward of its own, as the serving engine does, where the
//! meta-learners adapt once per cold entity and then score its pairs with
//! a small MLP.

use hire_data::ColdStartScenario;
use hire_eval::{
    baseline_specs, dataset_for, evaluate_model, format_timing, hire_spec, maybe_write_json,
    paper_split, DatasetKind, HarnessArgs,
};

fn main() {
    let args = HarnessArgs::parse();
    println!("# Fig. 6: Total Test Time (seconds, user cold-start)\n");
    let mut all = Vec::new();
    for (kind, label) in [
        (DatasetKind::MovieLens, "MovieLens-1M (synthetic)"),
        (DatasetKind::Douban, "Douban (synthetic)"),
        (DatasetKind::Bookcrossing, "Bookcrossing (synthetic)"),
    ] {
        let dataset = dataset_for(kind, args.tier, args.seed);
        let split = paper_split(&dataset, kind, ColdStartScenario::UserCold, args.seed);
        let cfg = args.eval_config();
        let mut specs = baseline_specs(&dataset, args.tier);
        specs.push(hire_spec(args.tier, args.tier.hire_train_config()));
        let mut results = Vec::new();
        for spec in specs {
            let mut model = spec.build();
            eprintln!("  [{label}] {} ...", model.name());
            results.push(evaluate_model(model.as_mut(), &dataset, &split, &cfg));
        }
        println!("{}", format_timing(label, &results));
        all.push((label.to_string(), results));
    }
    let json: Vec<_> = all
        .iter()
        .map(|(label, results)| {
            serde_json::json!({
                "dataset": label,
                "test_seconds": results.iter().map(|r| (r.model.clone(), r.test_seconds)).collect::<Vec<_>>(),
            })
        })
        .collect();
    maybe_write_json(&args, &json);
}
