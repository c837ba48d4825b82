//! The fidelity gate: Tables III–V rerun in-process at the `smoke` tier,
//! seed 7 — the run `scripts/run_all_experiments.sh` writes to
//! `results/smoke/` — and held to those files, per dataset, scenario and
//! model: NDCG@5, MAE and RMSE, and the number of cold entities scored.
//!
//! On the lane ISAs the values must be the committed bits: `results/smoke/`
//! is written at `HIRE_ISA=avx2`, CI's ISA, and avx512 computes the same
//! bits (every kernel holds the two to each other). Scalar rounds
//! differently, so a model's training takes another path: there each value
//! must lie within [`SCALAR_TOLERANCE`] of the file's. The widest scalar
//! gap measured when the files were written was 0.0042 (AFN's NDCG@5 on
//! Bookcrossing IC); HIRE's was 2.4e-7.
//!
//! A change that moves any of these numbers — a model, the data generator,
//! a split, a sampler, a metric — fails here until `results/` is
//! regenerated with it and the change says why the numbers moved.

use hire_bench::{run_standard_sweep, DatasetKind, HarnessArgs};
use hire_tensor::simd::{active_isa, Isa};

/// How far a scalar run may stray from the avx2 files, on every value.
const SCALAR_TOLERANCE: f32 = 0.01;

/// `(scenario, model, NDCG@5, MAE, RMSE, entities)` of every row.
type Row = (String, String, f32, f32, f32, usize);

fn committed(table: &str) -> Vec<Row> {
    let path = format!("{}/results/smoke/{table}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let value = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e:?}"));
    let mut rows = Vec::new();
    for scenario in value.as_array().expect("a list of scenarios") {
        let label = scenario
            .get("scenario")
            .and_then(|v| v.as_str())
            .expect("label");
        for r in scenario
            .get("results")
            .and_then(|v| v.as_array())
            .expect("rows")
        {
            let num = |v: Option<&serde_json::Value>| v.and_then(|v| v.as_f64()).expect("number");
            let at5 = &r.get("at_k").and_then(|v| v.as_array()).expect("cutoffs")[0];
            rows.push((
                label.to_string(),
                r.get("model")
                    .and_then(|v| v.as_str())
                    .expect("model")
                    .to_string(),
                num(at5.get("ndcg")) as f32,
                num(r.get("mae")) as f32,
                num(r.get("rmse")) as f32,
                num(r.get("entities")) as usize,
            ));
        }
    }
    rows
}

fn rerun(kind: DatasetKind, title: &str) -> Vec<Row> {
    let argv: Vec<String> = ["--tier", "smoke", "--seed", "7"]
        .map(String::from)
        .to_vec();
    let args = HarnessArgs::parse_from(&argv).expect("smoke args");
    run_standard_sweep(kind, title, &args)
        .into_iter()
        .flat_map(|report| {
            let label = report.scenario;
            report.results.into_iter().map(move |r| {
                assert!(r.status.is_ok(), "{label} {}: {:?}", r.model, r.status);
                let ndcg = r.at_k[0].ndcg;
                (label.clone(), r.model, ndcg, r.mae, r.rmse, r.entities)
            })
        })
        .collect()
}

fn holds(kind: DatasetKind, table: &str) {
    let (want, got) = (committed(table), rerun(kind, table));
    let names = |rows: &[Row]| -> Vec<(String, String, usize)> {
        rows.iter()
            .map(|r| (r.0.clone(), r.1.clone(), r.5))
            .collect()
    };
    assert_eq!(names(&got), names(&want), "{table}: rows or entities moved");
    let exact = active_isa() != Isa::Scalar;
    for (w, g) in want.iter().zip(&got) {
        for (metric, a, b) in [("NDCG@5", w.2, g.2), ("MAE", w.3, g.3), ("RMSE", w.4, g.4)] {
            let ok = if exact {
                a.to_bits() == b.to_bits()
            } else {
                (a - b).abs() <= SCALAR_TOLERANCE
            };
            assert!(
                ok,
                "{table} {} {}: {metric} {b} against the committed {a} ({:?})",
                w.0,
                w.1,
                active_isa()
            );
        }
    }
}

#[test]
fn table3_movielens_holds_its_committed_numbers() {
    holds(DatasetKind::MovieLens, "table3_movielens");
}

#[test]
fn table4_bookcrossing_holds_its_committed_numbers() {
    holds(DatasetKind::Bookcrossing, "table4_bookcrossing");
}

#[test]
fn table5_douban_holds_its_committed_numbers() {
    holds(DatasetKind::Douban, "table5_douban");
}
