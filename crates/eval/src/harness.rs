//! What the table and figure binaries (`src/bin/`) share: their flags, the
//! crash-safe sweep over the cold-start scenarios, and the `--runs` summary
//! over seeds.
//!
//! Every binary accepts:
//! - `--tier smoke|fast|full` — compute budget (default `fast`)
//! - `--seed <u64>` — base RNG seed (default 7)
//! - `--runs <n>` — Tables III–V only: run `n` seeds from `seed` on and
//!   print each cell as mean ± std over them (default 1: one seed, one table a
//!   scenario, as without the flag)
//! - `--max-entities <n>` — cold entities evaluated per scenario
//! - `--out <path>` — also write machine-readable JSON results
//! - `--checkpoint-dir <dir>` — durable per-scenario progress (and HIRE
//!   training snapshots) for crash-safe benchmark runs
//! - `--resume` — continue a run from `--checkpoint-dir`: scenario results
//!   whose status is `ok` are reused, `failed`/`timeout`/missing ones are
//!   re-run
//!
//! `smoke` finishes in seconds (sanity only); `fast` reproduces the paper's
//! qualitative shape in minutes on a laptop CPU; `full` uses the paper's
//! 32×32 / 3-HIM configuration.

use crate::fault::{evaluate_model_isolated, ModelSpec};
use crate::runner::{format_table, EvalConfig, MetricsAtK, ModelResult, RANDOM_ROW};
use crate::tier::{dataset_for, paper_split, DatasetKind, SpeedTier};
use crate::zoo::{baseline_specs, hire_spec};
use hire_baselines::Random;
use hire_core::TrainConfig;
use hire_data::{ColdStartScenario, Dataset};
use hire_error::{HireError, HireResult};
use serde::{Serialize, Value};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

const USAGE: &str = "usage: [--tier smoke|fast|full] [--seed N] [--runs N] [--max-entities N] \
[--model-budget SECS] [--out FILE] [--checkpoint-dir DIR] [--resume]";

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Compute tier.
    pub tier: SpeedTier,
    /// Base RNG seed.
    pub seed: u64,
    /// How many seeds, from `seed` on, a comparison table runs over (at
    /// least 1; [`HarnessArgs::seeds`]).
    pub runs: usize,
    /// Cold entities per scenario.
    pub max_entities: usize,
    /// Optional per-model wall-clock budget in seconds; models exceeding it
    /// are recorded as timed out and the run continues.
    pub model_budget: Option<f64>,
    /// Optional JSON output path.
    pub out: Option<String>,
    /// Directory for durable benchmark progress (per-scenario results plus
    /// HIRE training snapshots).
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from `checkpoint_dir`: reuse `ok` scenario results, re-run
    /// the rest.
    pub resume: bool,
}

impl HarnessArgs {
    /// Parses `std::env::args`; prints usage and exits on `--help` or a
    /// parse error (exit code 2).
    pub fn parse() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        match Self::parse_from(&argv) {
            Ok(args) => args,
            Err(err) => {
                eprintln!("error: {err}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list (without the program name),
    /// returning a typed error instead of panicking or exiting — the
    /// testable core of [`HarnessArgs::parse`].
    pub fn parse_from(argv: &[String]) -> HireResult<Self> {
        let mut args = HarnessArgs {
            tier: SpeedTier::Fast,
            seed: 7,
            runs: 1,
            max_entities: usize::MAX,
            model_budget: None,
            out: None,
            checkpoint_dir: None,
            resume: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| HireError::invalid_argument(flag.clone(), "missing a value"))
            };
            match flag.as_str() {
                "--tier" => {
                    args.tier = match value()?.as_str() {
                        "smoke" => SpeedTier::Smoke,
                        "fast" => SpeedTier::Fast,
                        "full" => SpeedTier::Full,
                        other => {
                            return Err(HireError::invalid_argument(
                                "--tier",
                                format!("unknown tier `{other}` (smoke|fast|full)"),
                            ))
                        }
                    }
                }
                "--seed" => {
                    args.seed = value()?
                        .parse()
                        .map_err(|_| HireError::invalid_argument("--seed", "expected a u64"))?
                }
                "--runs" => {
                    args.runs = value()?.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                        HireError::invalid_argument("--runs", "expected a count of at least 1")
                    })?
                }
                "--max-entities" => {
                    args.max_entities = value()?.parse().map_err(|_| {
                        HireError::invalid_argument("--max-entities", "expected a usize")
                    })?
                }
                "--model-budget" => {
                    let secs: f64 = value()?.parse().map_err(|_| {
                        HireError::invalid_argument("--model-budget", "expected seconds (f64)")
                    })?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(HireError::invalid_argument(
                            "--model-budget",
                            "seconds must be positive and finite",
                        ));
                    }
                    args.model_budget = Some(secs);
                }
                "--out" => args.out = Some(value()?.clone()),
                "--checkpoint-dir" => args.checkpoint_dir = Some(PathBuf::from(value()?)),
                "--resume" => args.resume = true,
                other => return Err(HireError::invalid_argument(other, "unknown flag")),
            }
        }
        if args.resume && args.checkpoint_dir.is_none() {
            return Err(HireError::invalid_argument(
                "--resume",
                "requires --checkpoint-dir to know where the previous run's progress lives",
            ));
        }
        if args.seed.checked_add(args.runs as u64 - 1).is_none() {
            return Err(HireError::invalid_argument(
                "--runs",
                format!("seeds from {} on run past u64::MAX", args.seed),
            ));
        }
        Ok(args)
    }

    /// The seeds the run covers: `runs` of them from `seed` on (that they
    /// fit in a `u64` is checked at parse).
    pub fn seeds(&self) -> RangeInclusive<u64> {
        self.seed..=self.seed + (self.runs as u64 - 1)
    }

    /// Evaluation config at these settings.
    pub fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            max_entities: self.tier.max_entities(self.max_entities),
            seed: self.seed,
            ..Default::default()
        }
    }
}

/// One scenario's comparison results.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioReport {
    /// Scenario label ("UC" / "IC" / "U&I C").
    pub scenario: String,
    /// Per-model results, HIRE last.
    pub results: Vec<ModelResult>,
}

/// Runs a comparison over explicit model specs for one scenario. Every
/// model is evaluated in panic/timeout isolation
/// (`evaluate_model_isolated`): a crashing or hanging model yields a
/// `failed`/`timeout` entry in the report and the remaining models still
/// run.
///
/// Without a `--model-budget`, models fan out over `hire-par`'s scoped
/// lanes (one chunk per spec). Behavior change vs the pre-pool harness: peak
/// memory scales with the number of concurrently training models, and
/// per-model progress lines from different models interleave (each line
/// carries its scenario label and model name, so they stay attributable).
/// The report keeps spec order and every model trains from its own fixed
/// seed, so *results* are independent of scheduling.
///
/// With a `--model-budget`, specs run serially instead: a wall-clock
/// budget measured while other models compete for the same cores would
/// mean something different than it did in pre-pool reports, so the
/// budgeted path keeps one model on the clock at a time.
pub fn run_scenario_with_specs(
    dataset: &Dataset,
    kind: DatasetKind,
    scenario: ColdStartScenario,
    args: &HarnessArgs,
    specs: Vec<ModelSpec>,
) -> ScenarioReport {
    let split = paper_split(dataset, kind, scenario, args.seed);
    let cfg = args.eval_config();
    let budget = args.model_budget.map(Duration::from_secs_f64);
    let eval_one = |spec: ModelSpec| {
        let name = spec.name.clone();
        eprintln!("  [{}] training {} ...", scenario.label(), name);
        let result = evaluate_model_isolated(spec, dataset, &split, &cfg, budget);
        if !result.status.is_ok() {
            eprintln!(
                "  [{}] {} did not finish: {:?}",
                scenario.label(),
                name,
                result.status
            );
        }
        result
    };
    let results: Vec<ModelResult> = if budget.is_some() {
        specs.into_iter().map(eval_one).collect()
    } else {
        let slots: Vec<Mutex<Option<ModelSpec>>> =
            specs.into_iter().map(|s| Mutex::new(Some(s))).collect();
        hire_par::parallel_map_chunks(slots.len(), |k| {
            let spec = slots[k]
                .lock()
                .expect("spec slot lock")
                .take()
                .expect("each spec slot is taken once");
            eval_one(spec)
        })
    };
    ScenarioReport {
        scenario: scenario.label().to_string(),
        results,
    }
}

/// Serializes `value` and writes it to `path` atomically and durably
/// ([`hire_ckpt::write_atomic`]), so a crash mid-write can never leave a
/// truncated result file, and a crash right after the rename cannot lose
/// it either (DESIGN.md §15).
///
/// Accepts any path — including non-UTF-8 ones — and reports failures as
/// typed [`HireError::Io`] values instead of panicking.
pub fn write_json_atomic<T: Serialize>(path: impl AsRef<Path>, value: &T) -> HireResult<()> {
    let json =
        serde_json::to_string_pretty(value).map_err(|e| HireError::Serialization(e.to_string()))?;
    hire_ckpt::write_atomic(path.as_ref(), json.as_bytes())
        .map_err(|(at, e)| HireError::io(at.display().to_string(), e))
}

/// Writes reports as JSON when `--out` was given. Write errors are
/// reported to stderr, not panicked on — the tables already printed are
/// worth keeping.
pub fn maybe_write_json<T: Serialize>(args: &HarnessArgs, value: &T) {
    if let Some(path) = &args.out {
        match write_json_atomic(path, value) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(err) => eprintln!("could not write results: {err}"),
        }
    }
}

impl ScenarioReport {
    /// Parses a report back out of its serialized [`Value`] form; `None`
    /// for malformed input.
    fn from_value(v: &Value) -> Option<Self> {
        let results = v
            .get("results")?
            .as_array()?
            .iter()
            .map(ModelResult::from_value)
            .collect::<Option<Vec<_>>>()?;
        Some(ScenarioReport {
            scenario: v.get("scenario")?.as_str()?.to_string(),
            results,
        })
    }
}

/// Path of the durable per-scenario progress file inside a checkpoint dir.
fn progress_path(dir: &Path) -> PathBuf {
    dir.join("progress.json")
}

/// Re-reads the per-scenario progress file flushed by a previous run.
/// Returns an empty list when the file does not exist; malformed content
/// (e.g. a torn write from a kernel crash — the atomic rename makes this
/// unlikely but not impossible on all filesystems) degrades to a fresh
/// start with a warning rather than an abort.
fn load_progress(dir: &Path) -> Vec<ScenarioReport> {
    let path = progress_path(dir);
    let Ok(body) = std::fs::read_to_string(&path) else {
        return Vec::new();
    };
    let parsed = serde_json::from_str(&body).ok().and_then(|v| {
        v.as_array()?
            .iter()
            .map(ScenarioReport::from_value)
            .collect::<Option<Vec<_>>>()
    });
    match parsed {
        Some(reports) => reports,
        None => {
            eprintln!(
                "warning: could not parse {}; starting the sweep from scratch",
                path.display()
            );
            Vec::new()
        }
    }
}

/// A scenario result is reusable on resume only if every model finished
/// cleanly; `failed`/`timeout` entries mean the scenario must re-run.
fn all_ok(report: &ScenarioReport) -> bool {
    report.results.iter().all(|r| r.status.is_ok())
}

/// Sanitized directory name for a scenario's training checkpoints.
fn scenario_slug(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Prints the standard comparison tables for a whole dataset (one table per
/// scenario) — the layout of Tables III-V.
pub fn run_overall_table(kind: DatasetKind, title: &str) {
    let args = HarnessArgs::parse();
    over_seeds(title, &args, |args| run_standard_sweep(kind, title, args));
}

/// The standard model roster: the random row, every applicable baseline,
/// then HIRE. When a training checkpoint directory is given, the HIRE fit
/// itself becomes durable and resume-aware (see
/// `hire_core::TrainConfig::resume`; `--resume` comes with one).
fn default_specs(
    dataset: &Dataset,
    args: &HarnessArgs,
    checkpoint_dir: Option<PathBuf>,
) -> Vec<ModelSpec> {
    let mut specs = vec![ModelSpec::new(RANDOM_ROW, || Box::new(Random) as _)];
    specs.extend(baseline_specs(dataset, args.tier));
    let train_config = TrainConfig {
        checkpoint_dir,
        resume: args.resume,
        ..args.tier.hire_train_config()
    };
    specs.push(hire_spec(args.tier, train_config));
    specs
}

/// [`run_overall_table`] with explicit args and a model-spec factory
/// (called once per scenario and seed). With one run the JSON output is
/// flushed after **every** scenario, so even if a later scenario dies the
/// finished ones are on disk. With `--checkpoint-dir`, progress is
/// additionally persisted for `--resume`; see [`run_sweep`]. With
/// `--runs N` each seed runs so in turn, then every cell prints as mean ±
/// std over the seeds.
pub fn run_overall_table_with(
    kind: DatasetKind,
    title: &str,
    args: &HarnessArgs,
    specs_for: impl Fn(&Dataset, &HarnessArgs) -> Vec<ModelSpec>,
) {
    over_seeds(title, args, |args| {
        run_sweep(kind, title, args, |d, a, _| specs_for(d, a), None)
    });
}

/// One seed's reports in a `--runs` table.
#[derive(Debug, Serialize)]
struct SeedReports {
    seed: u64,
    scenarios: Vec<ScenarioReport>,
}

impl SeedReports {
    /// `model`'s result in `scenario`, if it finished and evaluated an
    /// entity.
    fn evaluated(&self, scenario: &str, model: &str) -> Option<&ModelResult> {
        let report = self.scenarios.iter().find(|r| r.scenario == scenario)?;
        let result = report.results.iter().find(|r| r.model == model)?;
        (result.status.is_ok() && result.entities > 0).then_some(result)
    }
}

/// One model's cells in one scenario of a `--runs` table: each metric's
/// mean and sample standard deviation over the seeds where the model
/// evaluated an entity.
#[derive(Debug, Serialize)]
struct SummaryRow {
    scenario: String,
    model: String,
    seeds: usize,
    at_k: Vec<MetricsAtK>,
}

/// The `--out` document of a `--runs` table: each seed's reports, every
/// cell over them, and every model's verdict against HIRE.
#[derive(Debug, Serialize)]
struct RunsReport {
    runs: usize,
    per_seed: Vec<SeedReports>,
    summary: Vec<SummaryRow>,
    verdicts: Vec<VerdictRow>,
}

/// How one model ranks against another over paired seeds ([`rank`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Verdict {
    /// Ahead on enough seeds, by more than the seeds scatter.
    Beats,
    /// The other one beats it.
    Loses,
    /// Neither beats the other.
    Tied,
}

/// Paired seeds [`rank`] needs before it calls a winner.
const RANK_SEEDS: usize = 5;

/// The ranking rule for a metric measured over paired seeds (`a[i]` and
/// `b[i]` on seed `i`, higher better): `a` beats `b` when, over at least
/// five paired seeds, it is ahead on at least four in five of
/// them and its mean is ahead by more than the larger of the two sample
/// standard deviations; `b` beats `a` by the same rule; otherwise they
/// are tied.
pub fn rank(a: &[f32], b: &[f32]) -> Verdict {
    assert_eq!(a.len(), b.len(), "a verdict pairs seeds");
    let n = a.len();
    let beats = |x: &[f32], y: &[f32]| {
        let ahead = x.iter().zip(y).filter(|(x, y)| x > y).count();
        let ((mx, sx), (my, sy)) = (mean_std(x), mean_std(y));
        n >= RANK_SEEDS && 5 * ahead >= 4 * n && mx - my > sx.max(sy)
    };
    if beats(a, b) {
        Verdict::Beats
    } else if beats(b, a) {
        Verdict::Loses
    } else {
        Verdict::Tied
    }
}

/// One model against HIRE in one scenario of a `--runs` table, on NDCG at
/// the first cutoff over the seeds both evaluated.
#[derive(Debug, Serialize)]
struct VerdictRow {
    scenario: String,
    model: String,
    seeds: usize,
    verdict: Verdict,
}

/// Every model's [`rank`] against HIRE, per scenario, from the per-seed
/// reports — the rows a ranking claim reads.
fn verdicts(per_seed: &[SeedReports], summary: &[SummaryRow]) -> Vec<VerdictRow> {
    let ndcg = |seed: &SeedReports, scenario: &str, model: &str| {
        seed.evaluated(scenario, model)
            .and_then(|r| r.at_k.first())
            .map(|m| m.ndcg)
    };
    summary
        .iter()
        .filter(|row| row.model != "HIRE")
        .map(|row| {
            let (model, hire): (Vec<f32>, Vec<f32>) = per_seed
                .iter()
                .filter_map(|seed| {
                    let model = ndcg(seed, &row.scenario, &row.model)?;
                    Some((model, ndcg(seed, &row.scenario, "HIRE")?))
                })
                .unzip();
            VerdictRow {
                scenario: row.scenario.clone(),
                model: row.model.clone(),
                seeds: model.len(),
                verdict: rank(&model, &hire),
            }
        })
        .collect()
}

/// Mean and sample standard deviation (0 for one value), summed in f64.
pub fn mean_std(values: &[f32]) -> (f32, f32) {
    let n = values.len() as f64;
    let mean = values.iter().map(|&v| v as f64).sum::<f64>() / n;
    let var = values
        .iter()
        .map(|&v| (v as f64 - mean).powi(2))
        .sum::<f64>()
        / (n - 1.0).max(1.0);
    (mean as f32, var.sqrt() as f32)
}

/// Every scenario's rows over `per_seed`, in the first seed's scenario and
/// model order.
fn summarize(per_seed: &[SeedReports]) -> Vec<SummaryRow> {
    let Some(first) = per_seed.first() else {
        return Vec::new();
    };
    let row = |scenario: &str, model: &str| {
        let runs: Vec<&ModelResult> = per_seed
            .iter()
            .filter_map(|seed| seed.evaluated(scenario, model))
            .collect();
        let cutoffs = runs.first().map_or(0, |run| run.at_k.len());
        let at_k = (0..cutoffs)
            .map(|i| {
                // A metric some seed did not report is not reported.
                let stat = |f: fn(&MetricsAtK) -> Option<f32>| {
                    let values = runs.iter().map(|run| f(&run.at_k[i]));
                    let values: Option<Vec<f32>> = values.collect();
                    values.map_or((None, None), |v| {
                        let (mean, std) = mean_std(&v);
                        (Some(mean), Some(std))
                    })
                };
                let ((precision, precision_std), (map, map_std)) =
                    (stat(|m| m.precision), stat(|m| m.map));
                let ndcg: Vec<f32> = runs.iter().map(|run| run.at_k[i].ndcg).collect();
                let (ndcg, ndcg_std) = mean_std(&ndcg);
                MetricsAtK {
                    k: runs[0].at_k[i].k,
                    precision,
                    precision_std,
                    ndcg,
                    ndcg_std,
                    map,
                    map_std,
                }
            })
            .collect();
        SummaryRow {
            scenario: scenario.to_string(),
            model: model.to_string(),
            seeds: runs.len(),
            at_k,
        }
    };
    first
        .scenarios
        .iter()
        .flat_map(|report| {
            report
                .results
                .iter()
                .map(|r| row(&report.scenario, &r.model))
        })
        .collect()
}

/// One scenario's `--runs` table: each cell `mean±std` over the seeds.
fn format_summary(title: &str, rows: &[SummaryRow], runs: usize) -> String {
    let scenario = rows.first().map_or("", |r| r.scenario.as_str());
    let mut out = format!("## {title} — {scenario}, mean ± std over {runs} seeds\n");
    let width = rows.iter().map(|r| r.model.len() + 2).fold(12, usize::max);
    out.push_str(&format!("{:<width$}{:>6}", "Method", "seeds"));
    for at in rows
        .iter()
        .map(|r| &r.at_k)
        .max_by_key(|at| at.len())
        .into_iter()
        .flatten()
    {
        for name in ["Pre", "NDCG", "MAP"] {
            out.push_str(&format!("{:>16}", format!("{name}@{}", at.k)));
        }
    }
    let random = rows
        .iter()
        .find(|r| r.model == RANDOM_ROW)
        .and_then(|r| r.at_k.first());
    if let Some(at) = random {
        out.push_str(&format!("{:>14}", format!("gain@{}", at.k)));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:<width$}{:>6}", row.model, row.seeds));
        if row.at_k.is_empty() {
            out.push_str("  [no seed evaluated an entity]");
        }
        for at in &row.at_k {
            for cell in [
                at.precision.zip(at.precision_std),
                Some((at.ndcg, at.ndcg_std)),
                at.map.zip(at.map_std),
            ] {
                let cell = cell.map_or_else(|| "—".into(), |(m, s)| format!("{m:.4}±{s:.4}"));
                out.push_str(&format!("{cell:>16}"));
            }
        }
        if let (Some(random), Some(at)) = (random, row.at_k.first()) {
            out.push_str(&format!("{:>14}", format!("{:+.4}", at.ndcg - random.ndcg)));
        }
        out.push('\n');
    }
    out
}

/// Runs `sweep` (one seed's tables, printed and, per `--out`, flushed as
/// it goes) once at `args`, or — with `--runs N` — once per seed of
/// [`HarnessArgs::seeds`], each with no `--out` of its own and its progress in a `seed-S`
/// subdirectory of `--checkpoint-dir`; then prints every scenario's cells
/// as mean ± std over the seeds and writes each seed's reports and those
/// cells to `--out`.
fn over_seeds(
    title: &str,
    args: &HarnessArgs,
    mut sweep: impl FnMut(&HarnessArgs) -> Vec<ScenarioReport>,
) {
    if args.runs == 1 {
        sweep(args);
        return;
    }
    let per_seed: Vec<SeedReports> = args
        .seeds()
        .map(|seed| {
            let run = HarnessArgs {
                seed,
                runs: 1,
                out: None,
                checkpoint_dir: args
                    .checkpoint_dir
                    .as_ref()
                    .map(|dir| dir.join(format!("seed-{seed}"))),
                ..args.clone()
            };
            SeedReports {
                seed,
                scenarios: sweep(&run),
            }
        })
        .collect();
    let summary = summarize(&per_seed);
    let verdicts = verdicts(&per_seed, &summary);
    for rows in summary.chunk_by(|a, b| a.scenario == b.scenario) {
        println!("{}", format_summary(title, rows, args.runs));
    }
    for row in &verdicts {
        println!(
            "[{}] {} against HIRE, NDCG over {} seeds: {:?}",
            row.scenario, row.model, row.seeds, row.verdict
        );
    }
    maybe_write_json(
        args,
        &RunsReport {
            runs: args.runs,
            per_seed,
            summary,
            verdicts,
        },
    );
}

/// Runs all cold-start scenarios with crash-safe progress tracking.
///
/// When `args.checkpoint_dir` is set, the accumulated per-scenario reports
/// are flushed atomically to `<dir>/progress.json` after every scenario.
/// With `args.resume`, that file is re-read first: scenarios whose every
/// model finished with status `ok` are reused without re-running, while
/// `failed`/`timeout`/missing ones run again. Without `resume`, stale
/// progress from an earlier run is cleared.
///
/// `crash_after` is deterministic fault injection for tests: the sweep
/// stops (as if the process died) after that many scenarios have *run* in
/// this invocation — reused scenarios do not count.
///
/// The spec factory additionally receives the scenario, so HIRE training
/// checkpoints can live in a per-scenario subdirectory.
pub fn run_sweep(
    kind: DatasetKind,
    title: &str,
    args: &HarnessArgs,
    mut specs_for: impl FnMut(&Dataset, &HarnessArgs, ColdStartScenario) -> Vec<ModelSpec>,
    crash_after: Option<usize>,
) -> Vec<ScenarioReport> {
    let dataset = dataset_for(kind, args.tier, args.seed);
    println!("# {title}");
    println!(
        "dataset: {} ({} users x {} items, {} ratings)\n",
        dataset.name,
        dataset.num_users,
        dataset.num_items,
        dataset.ratings.len()
    );
    let previous: Vec<ScenarioReport> = match &args.checkpoint_dir {
        Some(dir) if args.resume => load_progress(dir),
        Some(dir) => {
            // A fresh (non-resume) run must not inherit stale progress.
            let _ = std::fs::remove_file(progress_path(dir));
            Vec::new()
        }
        None => Vec::new(),
    };

    let mut reports: Vec<ScenarioReport> = Vec::new();
    let mut ran = 0usize;
    for scenario in ColdStartScenario::ALL {
        if let Some(prev) = previous
            .iter()
            .find(|r| r.scenario == scenario.label() && all_ok(r))
        {
            eprintln!(
                "  [{}] finished in a previous run; reusing its results",
                scenario.label()
            );
            reports.push(prev.clone());
        } else {
            if crash_after.is_some_and(|n| ran >= n) {
                eprintln!("  injected crash: stopping before [{}]", scenario.label());
                break;
            }
            let specs = specs_for(&dataset, args, scenario);
            let report = run_scenario_with_specs(&dataset, kind, scenario, args, specs);
            reports.push(report);
            ran += 1;
        }
        let report = reports.last().expect("just pushed");
        println!(
            "{}",
            format_table(&format!("{title} — {}", report.scenario), &report.results)
        );
        // Partial flush: finished scenarios survive a crash in a later one.
        if let Some(dir) = &args.checkpoint_dir {
            if let Err(err) = std::fs::create_dir_all(dir)
                .map_err(|e| HireError::io(dir.display().to_string(), e))
                .and_then(|()| write_json_atomic(progress_path(dir), &reports))
            {
                eprintln!("could not persist progress: {err}");
            }
        }
        maybe_write_json(args, &reports);
    }
    reports
}

/// [`run_sweep`] with the standard model roster (the random row, every
/// applicable baseline, HIRE) — what Tables III–V run; HIRE training
/// checkpoints land in a per-scenario subdirectory of `--checkpoint-dir`.
pub fn run_standard_sweep(
    kind: DatasetKind,
    title: &str,
    args: &HarnessArgs,
) -> Vec<ScenarioReport> {
    run_sweep(
        kind,
        title,
        args,
        |dataset, args, scenario| {
            let train_dir = args
                .checkpoint_dir
                .as_ref()
                .map(|d| d.join(format!("train-{}", scenario_slug(scenario.label()))));
            default_specs(dataset, args, train_dir)
        },
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_from_accepts_all_flags() {
        let args = HarnessArgs::parse_from(&argv(&[
            "--tier",
            "smoke",
            "--seed",
            "11",
            "--max-entities",
            "9",
            "--model-budget",
            "2.5",
            "--out",
            "results.json",
        ]))
        .expect("valid args");
        assert_eq!(args.tier, SpeedTier::Smoke);
        assert_eq!(args.seed, 11);
        assert_eq!(args.max_entities, 9);
        assert_eq!(args.model_budget, Some(2.5));
        assert_eq!(args.out.as_deref(), Some("results.json"));
    }

    #[test]
    fn parse_from_defaults_with_no_flags() {
        let args = HarnessArgs::parse_from(&[]).expect("empty argv");
        assert_eq!(args.tier, SpeedTier::Fast);
        assert_eq!(args.seed, 7);
        assert!(args.out.is_none());
        assert!(args.model_budget.is_none());
    }

    #[test]
    fn the_tables_score_every_cold_entity_by_default() {
        let args = HarnessArgs::parse_from(&[]).expect("empty argv");
        assert_eq!(args.max_entities, usize::MAX);
        assert_eq!(args.eval_config().max_entities, usize::MAX);
    }

    #[test]
    fn a_model_ahead_on_enough_seeds_by_more_than_their_spread_beats() {
        let hire = [0.80, 0.82, 0.81, 0.79, 0.80];
        let other = [0.70, 0.71, 0.69, 0.72, 0.70];
        assert_eq!(rank(&hire, &other), Verdict::Beats);
        assert_eq!(rank(&other, &hire), Verdict::Loses);
        // Four of five seeds ahead is enough.
        let close = [0.70, 0.71, 0.69, 0.72, 0.81];
        assert_eq!(rank(&hire, &close), Verdict::Beats);
    }

    #[test]
    fn a_gap_inside_the_seeds_spread_is_a_tie() {
        // Ahead on every seed, but by less than the seeds scatter.
        let a = [0.70, 0.90, 0.60, 0.85, 0.75];
        let b = [0.69, 0.89, 0.59, 0.84, 0.74];
        assert_eq!(rank(&a, &b), Verdict::Tied);
        // A large mean gap from one seed, behind on two of five.
        let c = [0.99, 0.99, 0.99, 0.60, 0.60];
        let d = [0.50, 0.50, 0.50, 0.70, 0.70];
        assert_eq!(rank(&c, &d), Verdict::Tied);
    }

    #[test]
    fn one_seed_short_is_a_tie() {
        let hire = [0.80, 0.82, 0.81, 0.79];
        let other = [0.70, 0.71, 0.69, 0.72];
        assert_eq!(rank(&hire, &other), Verdict::Tied);
        assert_eq!(rank(&other, &hire), Verdict::Tied);
    }

    #[test]
    fn parse_from_rejects_unknown_flag() {
        let err = HarnessArgs::parse_from(&argv(&["--frobnicate"])).expect_err("unknown flag");
        assert!(err.to_string().contains("--frobnicate"));
    }

    #[test]
    fn parse_from_rejects_missing_value() {
        let err = HarnessArgs::parse_from(&argv(&["--seed"])).expect_err("missing value");
        assert!(err.to_string().contains("--seed"));
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn parse_from_rejects_bad_tier_and_numbers() {
        let err = HarnessArgs::parse_from(&argv(&["--tier", "warp9"])).expect_err("bad tier");
        assert!(err.to_string().contains("warp9"));
        let err = HarnessArgs::parse_from(&argv(&["--seed", "minus-one"])).expect_err("bad seed");
        assert!(err.to_string().contains("u64"));
        let err =
            HarnessArgs::parse_from(&argv(&["--model-budget", "-3"])).expect_err("negative budget");
        assert!(err.to_string().contains("positive"));
    }

    #[test]
    fn parse_from_reads_runs_and_defaults_to_one() {
        assert_eq!(HarnessArgs::parse_from(&[]).expect("empty argv").runs, 1);
        let args =
            HarnessArgs::parse_from(&argv(&["--runs", "5", "--seed", "11"])).expect("valid args");
        assert_eq!((args.runs, args.seed), (5, 11));
    }

    #[test]
    fn parse_from_rejects_runs_missing_zero_or_not_a_number() {
        let err = HarnessArgs::parse_from(&argv(&["--runs"])).expect_err("missing value");
        assert!(err.to_string().contains("--runs"), "{err}");
        assert!(err.to_string().contains("missing"), "{err}");
        for bad in ["0", "five", "-2", "2.5"] {
            let err = HarnessArgs::parse_from(&argv(&["--runs", bad])).expect_err(bad);
            assert!(err.to_string().contains("--runs"), "{bad}: {err}");
            assert!(err.to_string().contains("at least 1"), "{bad}: {err}");
        }
    }

    #[test]
    fn parse_from_refuses_seeds_past_u64_max() {
        let max = u64::MAX.to_string();
        let err = HarnessArgs::parse_from(&argv(&["--seed", &max, "--runs", "2"]))
            .expect_err("a second seed past u64::MAX");
        assert!(matches!(&err, HireError::InvalidArgument { flag, .. } if flag == "--runs"));
    }

    #[test]
    fn parse_from_lets_the_last_seed_be_u64_max() {
        let max = u64::MAX.to_string();
        let args = HarnessArgs::parse_from(&argv(&["--seed", &max])).expect("one seed");
        assert_eq!(args.seeds().collect::<Vec<_>>(), [u64::MAX]);
        let below = (u64::MAX - 2).to_string();
        let args =
            HarnessArgs::parse_from(&argv(&["--seed", &below, "--runs", "3"])).expect("three");
        assert_eq!(args.seeds(), u64::MAX - 2..=u64::MAX);
    }

    #[test]
    fn parse_from_accepts_checkpoint_dir_and_resume() {
        let args =
            HarnessArgs::parse_from(&argv(&["--checkpoint-dir", "/tmp/bench-ckpt", "--resume"]))
                .expect("valid args");
        assert_eq!(args.checkpoint_dir, Some(PathBuf::from("/tmp/bench-ckpt")));
        assert!(args.resume);
    }

    #[test]
    fn parse_from_rejects_resume_without_checkpoint_dir() {
        let err = HarnessArgs::parse_from(&argv(&["--resume"])).expect_err("lonely --resume");
        assert!(err.to_string().contains("--checkpoint-dir"), "{err}");
    }

    #[test]
    fn parse_from_rejects_checkpoint_dir_without_value() {
        let err = HarnessArgs::parse_from(&argv(&["--checkpoint-dir"])).expect_err("missing value");
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn atomic_json_write_round_trips_and_cleans_tmp() {
        let path = std::env::temp_dir().join("hire_bench_write_test.json");
        write_json_atomic(&path, &vec![1usize, 2, 3]).expect("write");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.contains('1') && body.contains('3'));
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scenario_report_value_round_trip() {
        use crate::fault::EvalStatus;
        let report = ScenarioReport {
            scenario: "UC".to_string(),
            results: vec![
                ModelResult {
                    model: "GlobalMean".to_string(),
                    at_k: vec![MetricsAtK {
                        k: 5,
                        precision: Some(0.25),
                        precision_std: Some(0.5),
                        ndcg: 0.75,
                        ndcg_std: 0.125,
                        map: None,
                        map_std: None,
                    }],
                    fit_seconds: 1.5,
                    test_seconds: 0.25,
                    entities: 12,
                    mae: 0.5,
                    rmse: 0.75,
                    status: EvalStatus::Ok,
                },
                ModelResult {
                    model: "Flaky".to_string(),
                    at_k: vec![],
                    fit_seconds: 0.0,
                    test_seconds: 0.0,
                    entities: 0,
                    mae: 0.0,
                    rmse: 0.0,
                    status: EvalStatus::Failed {
                        message: "boom".to_string(),
                    },
                },
            ],
        };
        let json = serde_json::to_string_pretty(&vec![&report]).unwrap();
        let value = serde_json::from_str(&json).expect("parse back");
        let arr = value.as_array().expect("array");
        let parsed = ScenarioReport::from_value(&arr[0]).expect("round trip");
        assert_eq!(parsed.scenario, "UC");
        assert_eq!(parsed.results.len(), 2);
        assert_eq!(parsed.results[0].model, "GlobalMean");
        assert_eq!(parsed.results[0].at_k[0].k, 5);
        assert_eq!(parsed.results[0].at_k[0].precision, Some(0.25));
        assert_eq!(parsed.results[0].at_k[0].map, None);
        assert_eq!((parsed.results[0].mae, parsed.results[0].rmse), (0.5, 0.75));
        assert_eq!(parsed.results[0].entities, 12);
        assert!(parsed.results[0].status.is_ok());
        assert!(matches!(
            &parsed.results[1].status,
            EvalStatus::Failed { message } if message == "boom"
        ));
        assert!(all_ok(&ScenarioReport {
            scenario: "x".into(),
            results: vec![parsed.results[0].clone()]
        }));
        assert!(!all_ok(&parsed));
    }

    #[test]
    fn load_progress_tolerates_missing_and_garbage_files() {
        let dir = std::env::temp_dir().join(format!("hire_bench_progress_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_progress(&dir).is_empty(), "missing file is empty");
        std::fs::write(progress_path(&dir), b"{ not json").unwrap();
        assert!(load_progress(&dir).is_empty(), "garbage degrades to empty");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn atomic_json_write_handles_non_utf8_paths() {
        use std::os::unix::ffi::OsStringExt;
        // 0xFF is invalid UTF-8, so Path::to_str() would return None here —
        // the old &str-based API could not even express this path.
        let name = std::ffi::OsString::from_vec(b"hire_bench_non_utf8_\xFF.json".to_vec());
        let path = std::env::temp_dir().join(name);
        write_json_atomic(&path, &vec![42usize]).expect("non-UTF-8 path must not panic");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.contains("42"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn atomic_json_write_reports_io_errors() {
        let err = write_json_atomic("/nonexistent-dir/deep/out.json", &vec![1usize])
            .expect_err("unwritable path");
        assert!(matches!(err, HireError::Io { .. }), "{err}");
    }
}
