//! Shared harness utilities for the per-table/figure benchmark binaries.
//!
//! Every binary accepts:
//! - `--tier smoke|fast|full` — compute budget (default `fast`)
//! - `--seed <u64>` — base RNG seed (default 7)
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

use hire_data::{ColdStartScenario, ColdStartSplit, Dataset, SyntheticConfig};
use hire_error::{HireError, HireResult};
use hire_eval::{evaluate_model_isolated, EvalConfig, ModelResult, ModelSpec, SpeedTier};
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

const USAGE: &str = "usage: [--tier smoke|fast|full] [--seed N] [--max-entities N] \
[--model-budget SECS] [--out FILE] [--checkpoint-dir DIR] [--resume]";

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Compute tier.
    pub tier: SpeedTier,
    /// Base RNG seed.
    pub seed: u64,
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
            max_entities: 25,
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
        Ok(args)
    }

    /// Evaluation config at these settings.
    pub fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            max_entities: match self.tier {
                SpeedTier::Smoke => self.max_entities.min(8),
                _ => self.max_entities,
            },
            seed: self.seed,
            ..Default::default()
        }
    }
}

/// The three dataset stand-ins, scaled per tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// MovieLens-1M stand-in (rich attributes).
    MovieLens,
    /// Douban stand-in (ID-only + social).
    Douban,
    /// Bookcrossing stand-in (sparse attributes, 1-10 scale).
    Bookcrossing,
}

/// Generates a dataset stand-in at the tier's scale.
pub fn dataset_for(kind: DatasetKind, tier: SpeedTier, seed: u64) -> Dataset {
    let base = match kind {
        DatasetKind::MovieLens => SyntheticConfig::movielens_like(),
        DatasetKind::Douban => SyntheticConfig::douban_like(),
        DatasetKind::Bookcrossing => SyntheticConfig::bookcrossing_like(),
    };
    let cfg = match tier {
        SpeedTier::Smoke => base.scaled(60, 50, (10, 20)),
        SpeedTier::Fast => base.scaled(150, 120, (20, 45)),
        SpeedTier::Full => base,
    };
    cfg.generate(seed)
}

/// Cold fraction per dataset, following § VI-A (20 % of MovieLens users,
/// 30 % for Douban/Bookcrossing).
pub fn cold_frac(kind: DatasetKind) -> f32 {
    match kind {
        DatasetKind::MovieLens => 0.2,
        _ => 0.3,
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
/// ([`evaluate_model_isolated`]): a crashing or hanging model yields a
/// `failed`/`timeout` entry in the report and the remaining models still
/// run.
///
/// Without a `--model-budget`, models fan out across the `hire-par` pool
/// (one task per spec). Behavior change vs the pre-pool harness: peak
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
    let split = ColdStartSplit::new(dataset, scenario, cold_frac(kind), 0.1, args.seed);
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
        hire_par::parallel_map_chunks(slots.len(), 1, |rr| {
            let spec = slots[rr.start]
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

/// Runs the full comparison (all baselines + HIRE) for one scenario.
pub fn run_scenario(
    dataset: &Dataset,
    kind: DatasetKind,
    scenario: ColdStartScenario,
    args: &HarnessArgs,
) -> ScenarioReport {
    let mut specs = hire_eval::baseline_specs(dataset, args.tier);
    specs.push(hire_eval::hire_spec(args.tier));
    run_scenario_with_specs(dataset, kind, scenario, args, specs)
}

/// Host execution environment, embedded in benchmark JSON reports so a
/// recorded number can be read against the machine that produced it.
#[derive(Debug, Clone, Serialize)]
pub struct HostInfo {
    /// Logical CPU cores visible to this process.
    pub logical_cores: usize,
    /// SIMD/ISA capabilities detected at runtime (x86_64) or implied by
    /// the compile target (aarch64); empty when the target supports
    /// neither probe.
    pub isa_features: Vec<String>,
    /// Raw `HIRE_THREADS` value from the environment, if set.
    pub hire_threads_env: Option<String>,
    /// Size of the `hire-par` global pool — how many models of a table
    /// train side by side (kernels themselves run on their caller's thread).
    pub compute_pool_threads: usize,
    /// Kernel path the SIMD dispatcher resolved to for this process
    /// (`scalar` | `avx2` | `avx512`) — the ISA every recorded
    /// number actually ran on.
    pub dispatched_kernel: String,
    /// Raw `HIRE_ISA` override from the environment, if set (the
    /// dispatched kernel above already reflects it).
    pub hire_isa_env: Option<String>,
}

impl HostInfo {
    /// Snapshots the current host. Reads (and, if needed, initializes)
    /// the global pool.
    pub fn detect() -> Self {
        #[allow(unused_mut)]
        let mut isa_features: Vec<String> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        for (name, detected) in [
            ("sse2", is_x86_feature_detected!("sse2")),
            ("sse4.1", is_x86_feature_detected!("sse4.1")),
            ("avx", is_x86_feature_detected!("avx")),
            ("avx2", is_x86_feature_detected!("avx2")),
            ("fma", is_x86_feature_detected!("fma")),
            ("avx512f", is_x86_feature_detected!("avx512f")),
        ] {
            if detected {
                isa_features.push(name.to_string());
            }
        }
        #[cfg(target_arch = "aarch64")]
        isa_features.push("neon".to_string());
        HostInfo {
            logical_cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            isa_features,
            hire_threads_env: std::env::var("HIRE_THREADS").ok(),
            compute_pool_threads: hire_par::global().threads(),
            dispatched_kernel: hire_tensor::simd::active_isa().label().to_string(),
            hire_isa_env: std::env::var("HIRE_ISA").ok(),
        }
    }

    /// One-line host description for `compute_bench`'s stderr banner.
    pub fn summary(&self) -> String {
        format!(
            "{} hardware thread(s), isa features {}, dispatched kernel {}{}, HIRE_THREADS={}, pool {} thread(s)",
            self.logical_cores,
            if self.isa_features.is_empty() {
                "unknown".to_string()
            } else {
                self.isa_features.join("+")
            },
            self.dispatched_kernel,
            match &self.hire_isa_env {
                Some(v) => format!(" (HIRE_ISA={v})"),
                None => String::new(),
            },
            self.hire_threads_env.as_deref().unwrap_or("unset"),
            self.compute_pool_threads,
        )
    }
}

/// Serializes `value` and writes it to `path` atomically and durably: the
/// JSON goes to a `<path>.tmp` sibling, is fsynced, renamed over the
/// target, and the parent directory is fsynced — so a crash mid-write can
/// never leave a truncated result file, and a crash right after the rename
/// cannot lose it either (the same temp/fsync/rename/dir-fsync discipline
/// as `hire-ckpt` and `hire-wal`; see DESIGN.md §15).
///
/// Accepts any path — including non-UTF-8 ones — and reports failures as
/// typed [`HireError::Io`] values instead of panicking.
pub fn write_json_atomic<T: Serialize>(path: impl AsRef<Path>, value: &T) -> HireResult<()> {
    let path = path.as_ref();
    let json =
        serde_json::to_string_pretty(value).map_err(|e| HireError::Serialization(e.to_string()))?;
    let tmp = {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        PathBuf::from(os)
    };
    let io = |p: &Path| {
        let label = p.display().to_string();
        move |e: std::io::Error| HireError::io(label.clone(), e)
    };
    {
        let mut file = std::fs::File::create(&tmp).map_err(io(&tmp))?;
        use std::io::Write;
        file.write_all(json.as_bytes()).map_err(io(&tmp))?;
        file.sync_all().map_err(io(&tmp))?;
    }
    std::fs::rename(&tmp, path).map_err(io(path))?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::File::open(parent)
            .and_then(|dir| dir.sync_all())
            .map_err(io(parent))?;
    }
    Ok(())
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
    run_standard_sweep(kind, title, &args);
}

/// The standard model roster: every applicable baseline plus HIRE. When a
/// training checkpoint directory is given, the HIRE fit itself becomes
/// durable and resume-aware (see `hire_core::resume_from`).
pub fn default_specs(
    dataset: &Dataset,
    args: &HarnessArgs,
    train_ckpt_dir: Option<PathBuf>,
) -> Vec<ModelSpec> {
    let mut specs = hire_eval::baseline_specs(dataset, args.tier);
    match train_ckpt_dir {
        Some(dir) => {
            let tc = hire_core::TrainConfig {
                checkpoint_dir: Some(dir),
                resume: args.resume,
                ..args.tier.hire_train_config()
            };
            specs.push(hire_eval::hire_spec_with_train_config(args.tier, tc));
        }
        None => specs.push(hire_eval::hire_spec(args.tier)),
    }
    specs
}

/// [`run_overall_table`] with explicit args and a model-spec factory
/// (called once per scenario). The JSON output is flushed after **every**
/// scenario, so even if a later scenario dies the finished ones are on
/// disk. With `--checkpoint-dir`, progress is additionally persisted for
/// `--resume`; see [`run_sweep`].
pub fn run_overall_table_with(
    kind: DatasetKind,
    title: &str,
    args: &HarnessArgs,
    specs_for: impl Fn(&Dataset, &HarnessArgs) -> Vec<ModelSpec>,
) {
    run_sweep(kind, title, args, |d, a, _| specs_for(d, a), None);
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
            hire_eval::format_table(&format!("{title} — {}", report.scenario), &report.results)
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

/// [`run_sweep`] with the standard model roster ([`default_specs`]); HIRE
/// training checkpoints land in a per-scenario subdirectory of
/// `--checkpoint-dir`.
pub fn run_standard_sweep(kind: DatasetKind, title: &str, args: &HarnessArgs) {
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
    );
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
        use hire_eval::{EvalStatus, MetricsAtK};
        let report = ScenarioReport {
            scenario: "UC".to_string(),
            results: vec![
                ModelResult {
                    model: "GlobalMean".to_string(),
                    at_k: vec![MetricsAtK {
                        k: 5,
                        precision: 0.25,
                        precision_std: 0.5,
                        ndcg: 0.75,
                        ndcg_std: 0.125,
                        map: 0.375,
                        map_std: 0.0625,
                    }],
                    fit_seconds: 1.5,
                    test_seconds: 0.25,
                    entities: 12,
                    status: EvalStatus::Ok,
                },
                ModelResult {
                    model: "Flaky".to_string(),
                    at_k: vec![],
                    fit_seconds: 0.0,
                    test_seconds: 0.0,
                    entities: 0,
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
        assert_eq!(parsed.results[0].at_k[0].precision, 0.25);
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
    fn host_info_detect_is_sane_and_serializable() {
        let host = HostInfo::detect();
        assert!(host.logical_cores >= 1);
        assert!(host.compute_pool_threads >= 1);
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        assert!(
            !host.isa_features.is_empty(),
            "sse2/neon are baseline on these targets"
        );
        assert!(
            ["scalar", "avx2", "avx512"].contains(&host.dispatched_kernel.as_str()),
            "unknown dispatched kernel {:?}",
            host.dispatched_kernel
        );
        if let Ok(isa) = std::env::var("HIRE_ISA") {
            assert_eq!(host.hire_isa_env.as_deref(), Some(isa.as_str()));
        }
        let summary = host.summary();
        assert!(summary.contains(&host.dispatched_kernel));
        assert!(summary.contains("dispatched kernel"));
        let json = serde_json::to_string(&host).expect("serialize");
        assert!(json.contains("logical_cores"));
        assert!(json.contains("compute_pool_threads"));
        assert!(json.contains("dispatched_kernel"));
    }

    #[test]
    fn atomic_json_write_reports_io_errors() {
        let err = write_json_atomic("/nonexistent-dir/deep/out.json", &vec![1usize])
            .expect_err("unwritable path");
        assert!(matches!(err, HireError::Io { .. }), "{err}");
    }
}
