//! Fault-injection tests for the benchmark harness: a crashing model or a
//! crashing scenario must not destroy the results gathered so far.

use hire_baselines::{EntityMean, GlobalMean, RatingModel};
use hire_bench::{
    dataset_for, run_overall_table_with, run_scenario_with_specs, DatasetKind, HarnessArgs,
};
use hire_data::{ColdStartScenario, Dataset};
use hire_eval::{EvalStatus, ModelSpec, SpeedTier};
use hire_graph::BipartiteGraph;
use rand::rngs::StdRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

struct PanickingModel;

impl RatingModel for PanickingModel {
    fn name(&self) -> &'static str {
        "Panicker"
    }
    fn fit(&mut self, _: &Dataset, _: &BipartiteGraph, _: &mut StdRng) {
        panic!("injected fit failure");
    }
    fn predict(&self, _: &Dataset, _: &BipartiteGraph, pairs: &[(usize, usize)]) -> Vec<f32> {
        vec![0.0; pairs.len()]
    }
}

fn smoke_args(out: Option<String>) -> HarnessArgs {
    HarnessArgs {
        tier: SpeedTier::Smoke,
        seed: 3,
        runs: 1,
        max_entities: 3,
        model_budget: None,
        out,
        checkpoint_dir: None,
        resume: false,
    }
}

#[test]
fn panicking_model_does_not_abort_the_scenario() {
    let args = smoke_args(None);
    let dataset = dataset_for(DatasetKind::MovieLens, args.tier, args.seed);
    let specs = vec![
        ModelSpec::new("GlobalMean", || Box::new(GlobalMean::new()) as _),
        ModelSpec::new("Panicker", || Box::new(PanickingModel) as _),
        ModelSpec::new("EntityMean", || Box::new(EntityMean::new()) as _),
    ];
    let report = run_scenario_with_specs(
        &dataset,
        DatasetKind::MovieLens,
        ColdStartScenario::UserCold,
        &args,
        specs,
    );
    assert_eq!(report.results.len(), 3, "all three models must be reported");
    assert!(report.results[0].status.is_ok());
    match &report.results[1].status {
        EvalStatus::Failed { message } => assert!(message.contains("injected fit failure")),
        other => panic!("expected Failed for the panicker, got {other:?}"),
    }
    assert_eq!(report.results[1].model, "Panicker");
    // the model after the crash still ran normally
    assert!(report.results[2].status.is_ok());
    assert!(report.results[2].entities > 0);
}

#[test]
fn partial_json_survives_a_crash_in_a_later_scenario() {
    let out = std::env::temp_dir().join("hire_bench_partial_flush_test.json");
    let out_str = out.to_str().unwrap().to_string();
    let _ = std::fs::remove_file(&out);
    let args = smoke_args(Some(out_str));

    // The spec factory serves scenario 1 (UC) normally and dies on the
    // second scenario — simulating a harness-level crash mid-run.
    let calls = std::cell::Cell::new(0usize);
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        run_overall_table_with(DatasetKind::MovieLens, "fault test", &args, |_, _| {
            let n = calls.get();
            calls.set(n + 1);
            if n >= 1 {
                panic!("scenario factory crash");
            }
            vec![ModelSpec::new("GlobalMean", || {
                Box::new(GlobalMean::new()) as _
            })]
        });
    }));
    assert!(crashed.is_err(), "the factory panic must propagate");

    // The first scenario's results were flushed before the crash.
    let body = std::fs::read_to_string(&out).expect("partial JSON on disk");
    assert!(body.contains("\"UC\""), "scenario 1 missing from {body}");
    assert!(body.contains("GlobalMean"));
    assert!(!body.contains("\"IC\""), "scenario 2 never ran");
    let _ = std::fs::remove_file(&out);
}
