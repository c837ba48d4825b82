//! End-to-end crash/resume tests for the benchmark harness: a sweep killed
//! after scenario k and restarted with `--resume` must produce the same
//! final report set (timings aside) as an uninterrupted sweep, reusing the
//! finished scenarios and re-running failed ones.

use hire_baselines::{GlobalMean, RatingModel};
use hire_bench::{run_sweep, DatasetKind, HarnessArgs};
use hire_data::Dataset;
use hire_eval::{EvalStatus, ModelSpec};
use hire_graph::BipartiteGraph;
use rand::rngs::StdRng;
use std::path::PathBuf;

mod support;
use support::{cheap_specs, comparable};

/// Self-cleaning temp dir (removed on drop even when the test fails).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "hire_bench_resume_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn args(checkpoint_dir: Option<PathBuf>, resume: bool) -> HarnessArgs {
    HarnessArgs {
        checkpoint_dir,
        resume,
        ..support::args()
    }
}

#[test]
fn interrupted_sweep_resumes_to_the_uninterrupted_result() {
    let tmp = TempDir::new("e2e");

    // Reference: the sweep nobody interrupted.
    let reference = run_sweep(
        DatasetKind::MovieLens,
        "resume e2e reference",
        &args(None, false),
        |_, _, _| cheap_specs(),
        None,
    );
    assert_eq!(reference.len(), 3, "three cold-start scenarios");

    // "Crashed" run: the process dies after the first scenario.
    let partial = run_sweep(
        DatasetKind::MovieLens,
        "resume e2e crashed",
        &args(Some(tmp.0.clone()), false),
        |_, _, _| cheap_specs(),
        Some(1),
    );
    assert_eq!(partial.len(), 1, "crash after one scenario");
    assert!(tmp.0.join("progress.json").exists());

    // Restart with --resume: scenario 1 is reused, 2 and 3 run now.
    let mut reused_scenarios = Vec::new();
    let resumed = run_sweep(
        DatasetKind::MovieLens,
        "resume e2e resumed",
        &args(Some(tmp.0.clone()), true),
        |_, _, scenario| {
            reused_scenarios.push(scenario.label().to_string());
            cheap_specs()
        },
        None,
    );
    assert_eq!(resumed.len(), 3);
    assert_eq!(
        reused_scenarios.len(),
        2,
        "the finished scenario must not be re-run, the other two must"
    );
    assert_eq!(
        comparable(&resumed),
        comparable(&reference),
        "resumed sweep must match the uninterrupted one in everything but timings"
    );
}

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

#[test]
fn failed_scenarios_are_rerun_on_resume() {
    let tmp = TempDir::new("rerun_failed");

    // First run: every scenario contains a panicking model, so no scenario
    // is fully ok.
    let first = run_sweep(
        DatasetKind::MovieLens,
        "resume rerun first",
        &args(Some(tmp.0.clone()), false),
        |_, _, _| {
            vec![
                ModelSpec::new("GlobalMean", || Box::new(GlobalMean::new()) as _),
                ModelSpec::new("Panicker", || Box::new(PanickingModel) as _),
            ]
        },
        None,
    );
    assert!(first.iter().all(|r| r
        .results
        .iter()
        .any(|m| matches!(m.status, EvalStatus::Failed { .. }))));

    // Resume with a healthy roster: every scenario must re-run (none was
    // reusable) and come out clean.
    let mut reran = 0usize;
    let resumed = run_sweep(
        DatasetKind::MovieLens,
        "resume rerun second",
        &args(Some(tmp.0.clone()), true),
        |_, _, _| {
            reran += 1;
            cheap_specs()
        },
        None,
    );
    assert_eq!(reran, 3, "all scenarios had failures and must re-run");
    assert!(resumed
        .iter()
        .all(|r| r.results.iter().all(|m| m.status.is_ok())));
}

#[test]
fn fresh_run_clears_stale_progress() {
    let tmp = TempDir::new("clear_stale");

    run_sweep(
        DatasetKind::MovieLens,
        "stale first",
        &args(Some(tmp.0.clone()), false),
        |_, _, _| cheap_specs(),
        Some(1),
    );
    assert!(tmp.0.join("progress.json").exists());

    // A non-resume run in the same dir must start from scratch — all three
    // scenarios run even though progress.json claimed one was done.
    let mut ran = 0usize;
    run_sweep(
        DatasetKind::MovieLens,
        "stale second",
        &args(Some(tmp.0.clone()), false),
        |_, _, _| {
            ran += 1;
            cheap_specs()
        },
        None,
    );
    assert_eq!(ran, 3);
}
