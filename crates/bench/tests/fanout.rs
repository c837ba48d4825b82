//! The grain of parallelism the harness keeps: one scoped lane's chunk per
//! model of a table. Rows come back in spec order with the same metrics
//! whether the fan-out has one lane or four, and the same again on the serial
//! `--model-budget` branch — every model trains from its own fixed seed, so
//! scheduling cannot reach a result.

use hire_bench::{dataset_for, run_scenario_with_specs, DatasetKind, HarnessArgs};
use hire_data::ColdStartScenario;
use hire_eval::{ModelSpec, SpeedTier};
use hire_par::with_pool;

mod support;
use support::{cheap_specs, comparable, ComparableRow};

/// Two closed-form baselines and a smoke-tier HIRE: a model that trains, on
/// kernels that run on whichever thread the harness gives it.
fn specs() -> Vec<ModelSpec> {
    let mut specs = cheap_specs();
    specs.push(hire_eval::hire_spec(SpeedTier::Smoke));
    specs
}

fn rows(args: &HarnessArgs) -> Vec<ComparableRow> {
    let dataset = dataset_for(DatasetKind::MovieLens, args.tier, args.seed);
    let report = run_scenario_with_specs(
        &dataset,
        DatasetKind::MovieLens,
        ColdStartScenario::UserCold,
        args,
        specs(),
    );
    comparable(&[report])
}

#[test]
fn model_fan_out_keeps_spec_order_and_metrics_at_any_lane_count() {
    let fanned = support::args();
    let one = with_pool(1, || rows(&fanned));
    let names: Vec<&str> = one.iter().map(|row| row.1.as_str()).collect();
    assert_eq!(names, ["GlobalMean", "EntityMean", "HIRE"], "spec order");
    assert!(one.iter().all(|row| row.4), "every model finished: {one:?}");

    let four = with_pool(4, || rows(&fanned));
    assert_eq!(four, one, "4 lanes vs 1");

    // A budget no model comes near: the serial branch, same rows.
    let serial = rows(&HarnessArgs {
        model_budget: Some(600.0),
        ..fanned
    });
    assert_eq!(serial, one, "serial --model-budget branch vs fan-out");
}
