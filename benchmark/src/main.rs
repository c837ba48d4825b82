//! The repo's benchmark: one command runs one workload in one process,
//! checks its outputs and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <hot_zipf|cold_scan|write_mix|train_eval> --seed <u64> \
//!     [--seconds N] [--trace [0|1]] [--smoke] [--out FILE] [--trace-out FILE]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     compare <A.json…> -- <B.json…>
//! ```
//!
//! See README.md for the workloads, the estimators and the evidence behind
//! them. The last line of standard output is the JSON object the driver
//! reads.

mod alloc;
mod common;
mod compare;
mod host;
mod probes;
mod report;
mod rng;
mod scratch;
mod serving;
mod setup;
mod stats;
mod trace;
mod workloads;

use common::{ensure, Failure, Round, Scale};
use host::{Calibrator, OneCpu, Span2, Stopwatch};
use report::{Metrics, Outcome};
use scratch::Scratch;
use setup::Stages;
use stats::{mean, quantile, slow_share};
use trace::Tracer;
use workloads::{Cx, TraceRun, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

pub const WORKLOADS: [&str; 4] = ["hot_zipf", "cold_scan", "write_mix", "train_eval"];

/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 12;

/// Spans kept in memory by a traced run (and written to the JSONL file).
const TRACE_CAPACITY: usize = 60_000;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

const USAGE: &str =
    "usage: hire-benchmark --workload <hot_zipf|cold_scan|write_mix|train_eval> --seed <u64> \
[--seconds <1..60>] [--trace [0|1]] [--smoke] [--out FILE] [--trace-out FILE]\n       \
hire-benchmark compare <A.json...> -- <B.json...> [--spec BENCHMARK.json]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut seed_given = false;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed `{v}` is not a u64"))?;
                seed_given = true;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("--seconds `{v}` is not a whole number from 1 to 60"))?;
            }
            "--trace" => {
                // `--trace 1` / `--trace 0` (the driver), or bare `--trace`.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("--out")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got `{}`",
            args.workload
        ));
    }
    if !seed_given {
        return Err("--seed is required".to_string());
    }
    Ok(args)
}

fn host_block(one_cpu: &OneCpu) -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "(unset)".to_string());
    vec![
        // As it was before the run pinned itself to one of them.
        (
            "available_parallelism",
            one_cpu.allowed_before().to_string(),
        ),
        ("HIRE_ISA", env("HIRE_ISA")),
        ("HIRE_THREADS", env("HIRE_THREADS")),
        (
            "resolved_isa",
            hire_tensor::simd::active_isa().label().to_string(),
        ),
        ("hire_par_pool", hire_par::global().threads().to_string()),
        ("server_workers", "1".to_string()),
        ("generator_threads", "1".to_string()),
        ("placement", one_cpu.describe()),
    ]
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, Failure> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| Failure("no VmHWM line in /proc/self/status".to_string()))
}

/// `(steal, total)` jiffies of `cpu` (all CPUs if `None`) from `/proc/stat`:
/// time the hypervisor ran someone else while this guest wanted the CPU.
fn steal_jiffies(cpu: Option<usize>) -> Option<(u64, u64)> {
    let label = cpu.map_or("cpu".to_string(), |c| format!("cpu{c}"));
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// One finished round, raw: wall clock and process CPU clock.
struct Done {
    stages: Stages,
    /// The whole set-up on both clocks.
    setup: Span2,
    round: Round,
}

/// The gated estimators over some rounds, with computing time scaled by
/// `speed` (the run's CPU speed for the reported values, 1.0 for raw).
struct Estimates {
    setup_s: f64,
    lat_ms: Vec<f64>,
    seg_rates: Vec<f64>,
    /// All the throughput phases' work over all their time (ungated).
    mean_per_s: f64,
}

impl Estimates {
    fn of(rounds: &[Done], speed: f64) -> Self {
        // Set-up: every piece from its fastest round, and the computing
        // share of the rounds' set-ups scaled like any other interval.
        let stages: Vec<&Stages> = rounds.iter().map(|d| &d.stages).collect();
        let both = rounds.iter().fold(Span2::default(), |acc, d| Span2 {
            wall_s: acc.wall_s + d.setup.wall_s,
            cpu_s: acc.cpu_s + d.setup.cpu_s,
        });
        let segs = || {
            rounds
                .iter()
                .flat_map(|d| d.round.segs.iter().map(move |s| (d, s)))
        };
        let work: f64 = segs().map(|(d, _)| d.round.seg_work).sum();
        let secs: f64 = segs().map(|(_, s)| s.at_reference_speed(speed)).sum();
        Estimates {
            mean_per_s: work / secs.max(1e-12),
            setup_s: Stages::fastest(&stages) * both.at_reference_speed(speed)
                / both.wall_s.max(1e-12),
            lat_ms: rounds
                .iter()
                .flat_map(|d| d.round.lat.iter())
                .map(|s| s.at_reference_speed(speed) * 1e3)
                .collect(),
            seg_rates: segs()
                .map(|(d, s)| d.round.seg_work / s.at_reference_speed(speed).max(1e-12))
                .collect(),
        }
    }

    fn lat_p10_ms(&self) -> f64 {
        quantile(&self.lat_ms, 0.1)
    }

    fn thru_per_s(&self) -> f64 {
        quantile(&self.seg_rates, 0.9)
    }
}

fn one_round<W: Workload>(cx: &Cx, mut trace: Option<&mut TraceRun>) -> Result<Done, Failure> {
    let mut stages = Stages::default();
    cx.cal.mark();
    let sw = Stopwatch::start();
    let mut state = W::setup(cx, &mut stages, trace.as_deref().map(|t| &t.tracer))?;
    let setup = sw.elapsed();
    cx.cal.mark();
    let round = state.measure(cx, trace.as_deref_mut())?;
    if let Some(trace) = trace.as_deref_mut() {
        state.probe(cx, trace)?;
    }
    state.finish(cx, trace)?;
    ensure(round.failed == 0, || {
        format!(
            "{} of {} ops failed; the first: {}",
            round.failed,
            round.attempted,
            round
                .first_failure
                .as_deref()
                .unwrap_or("(no reason recorded)")
        )
    })?;
    let done = Done {
        stages,
        setup,
        round,
    };
    println!(
        "round {}: set-up {:.3} s raw ({:.0} % computing), {} ops, {} latency samples, {} segments, checksum {:016x}, peak RSS so far {:.1} MiB",
        cx.round,
        done.stages.total(),
        done.setup.cpu_s / done.setup.wall_s * 100.0,
        done.round.attempted,
        done.round.lat.len(),
        done.round.segs.len(),
        done.round.checksum,
        peak_rss_mib()?
    );
    println!(
        "         set-up stages (raw): {}",
        done.stages
            .named()
            .iter()
            .map(|(name, s)| format!("{} {s:.3}", name.trim_start_matches("setup.")))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(done)
}

fn run<W: Workload>(args: &Args, workload: &'static str) -> Result<Outcome, Failure> {
    let scratch = Scratch::create()?;
    let scale = Scale::new(args.seconds, args.smoke);
    // Before any thread is started: they all inherit the mask.
    let one_cpu = OneCpu::hold();
    let steal_before = steal_jiffies(one_cpu.cpu());
    let cal = Calibrator::new();
    let cx = |round| Cx {
        seed: args.seed,
        scale,
        scratch: &scratch,
        round,
        cal: &cal,
    };
    let mut metrics = Metrics::default();
    let mut rounds: Vec<Done> = Vec::new();

    if args.trace {
        // Round 0 untraced, round 1 traced: both fresh set-ups, same ops.
        let plain = one_round::<W>(&cx(0), None)?;
        let mut trace = TraceRun {
            tracer: Tracer::new(TRACE_CAPACITY),
            metrics: Metrics::default(),
        };
        let traced = one_round::<W>(&cx(1), Some(&mut trace))?;
        metrics = trace.metrics;
        let speed = cal.speed();
        let untraced = Estimates::of(std::slice::from_ref(&plain), speed);
        let raw = Estimates::of(std::slice::from_ref(&plain), 1.0);
        metrics.set(
            "trace.overhead_pct",
            (untraced.thru_per_s()
                / Estimates::of(std::slice::from_ref(&traced), speed).thru_per_s()
                - 1.0)
                * 100.0,
        );
        // The diagnostics come from the same samples as the gated metrics.
        metrics.set("diag.lat_p50_ms", quantile(&untraced.lat_ms, 0.5));
        metrics.set("diag.lat_p99_ms", quantile(&untraced.lat_ms, 0.99));
        metrics.set("diag.mean_per_s", untraced.mean_per_s);
        metrics.set(
            "diag.slow_share",
            slow_share(&untraced.seg_rates, untraced.thru_per_s()),
        );
        metrics.set("diag.host_speed", speed);
        metrics.set("diag.raw_lat_p10_ms", raw.lat_p10_ms());
        metrics.set("diag.raw_thru_per_s", raw.thru_per_s());
        let fastest = if plain.stages.total() <= traced.stages.total() {
            &plain.stages
        } else {
            &traced.stages
        };
        for (name, value) in fastest.named() {
            metrics.set(name, value);
        }
        print_layer_table(&trace.tracer);
        let path = match &args.trace_out {
            Some(p) => std::path::PathBuf::from(p),
            None => scratch::exe_dir()?.join(format!("hire-benchmark-trace-{workload}.jsonl")),
        };
        trace::write_jsonl(&path, trace.tracer.spans())?;
        println!(
            "trace: {} spans written to {} ({} more were not kept)",
            trace.tracer.spans().len(),
            path.display(),
            trace.tracer.dropped
        );
        rounds.push(plain);
        rounds.push(traced);
    } else {
        for round in 0..scale.rounds {
            rounds.push(one_round::<W>(&cx(round), None)?);
        }
        let est = Estimates::of(&rounds, cal.speed());
        let raw = Estimates::of(&rounds, 1.0);
        if !args.smoke {
            ensure(
                est.lat_ms.len() >= 150 && est.seg_rates.len() >= 100,
                || {
                    format!(
                        "too few samples for the gated estimators: {} latencies, {} segments",
                        est.lat_ms.len(),
                        est.seg_rates.len()
                    )
                },
            )?;
        }
        metrics.set("setup_s", est.setup_s);
        metrics.set("lat_p10_ms", est.lat_p10_ms());
        metrics.set("thru_per_s", est.thru_per_s());
        metrics.set("peak_rss_mb", peak_rss_mib()?);
        println!(
            "samples: {} latency ops, {} segments",
            est.lat_ms.len(),
            est.seg_rates.len()
        );
        println!(
            "raw wall clock (ungated): setup_s {:.4}, lat_p10_ms {:.4}, thru_per_s {:.2}",
            raw.setup_s,
            raw.lat_p10_ms(),
            raw.thru_per_s()
        );
        println!(
            "ungated, at reference speed: lat p50 {:.4} ms, p99 {:.4} ms, mean latency {:.4} ms; whole-phase mean rate {:.2}/s; slow segments {:.1} %",
            quantile(&est.lat_ms, 0.5),
            quantile(&est.lat_ms, 0.99),
            mean(&est.lat_ms),
            est.mean_per_s,
            slow_share(&est.seg_rates, est.thru_per_s()) * 100.0
        );
        let deciles = |xs: &[f64]| -> String {
            (0..=10)
                .map(|d| format!("{:.4}", quantile(xs, d as f64 / 10.0)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("latency deciles (ms): {}", deciles(&est.lat_ms));
        println!("segment rate deciles (1/s): {}", deciles(&est.seg_rates));
    }

    println!(
        "cpu speed over the run: {:.4} of reference ({} calibration samples, {:.1} % of them in slow bursts)",
        cal.speed(),
        cal.samples(),
        cal.slow_share() * 100.0
    );
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, steal_jiffies(one_cpu.cpu())) {
        println!(
            "hypervisor steal on this run's cpu: {:.2} % of {:.1} s",
            (s1 - s0) as f64 / (t1 - t0).max(1) as f64 * 100.0,
            (t1 - t0) as f64 / 100.0
        );
    }

    // Every round repeats the same seeded work: same answers, same order.
    let checksum = rounds[0].round.checksum;
    ensure(rounds.iter().all(|d| d.round.checksum == checksum), || {
        format!(
            "answer checksums differ between rounds: {:?}",
            rounds
                .iter()
                .map(|d| format!("{:016x}", d.round.checksum))
                .collect::<Vec<_>>()
        )
    })?;
    let outcome = Outcome {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        correct: true,
        attempted: rounds.iter().map(|d| d.round.attempted).sum(),
        failed: rounds.iter().map(|d| d.round.failed).sum(),
        checksum,
        metrics,
        host: host_block(&one_cpu),
    };
    let bad = outcome.unreportable();
    ensure(bad.is_empty(), || {
        format!("metrics are not finite numbers: {bad:?}")
    })?;
    Ok(outcome)
}

/// Each layer's self time (span minus children) and share of the op.
fn print_layer_table(tracer: &Tracer) {
    let totals = trace::layer_totals(tracer.spans());
    const TABLES: [(&str, &str, &[&str]); 3] = [
        (
            "query",
            "per query through the server",
            &[
                "gen.submit",
                "server.queue",
                "predictor.batch",
                "server.reply",
            ],
        ),
        ("pattern", "per 1 : 3 pattern", &["insert", "reads"]),
        (
            "replay.op",
            "layer replay",
            &[
                "engine.predict",
                "graph.sampler",
                "data.context",
                "frozen.forward",
                "train.context",
                "train.loss_fwd",
                "train.backward",
                "train.clip_step",
                "eval.predict",
            ],
        ),
    ];
    for (root, title, children) in TABLES {
        let Some(op) = totals.get(root) else { continue };
        println!(
            "trace, {title}: {} ops, mean {:.3} us",
            op.count,
            op.total_ns as f64 / op.count as f64 / 1e3
        );
        let line = |name: &str, self_ns: u64| {
            println!(
                "  {:<18} self {:>12.3} us/op  {:>6.2} % of the op",
                name,
                self_ns as f64 / op.count as f64 / 1e3,
                self_ns as f64 / op.total_ns.max(1) as f64 * 100.0
            );
        };
        for name in children {
            if let Some(t) = totals.get(name) {
                line(name, t.self_ns);
            }
        }
        line("(unattributed)", op.self_ns);
    }
}

fn dispatch(args: &Args) -> Result<Outcome, Failure> {
    // At most nproc = 2 busy threads: one generator, one server worker,
    // kernels inline on the worker.
    hire_par::set_global_threads(1)
        .map_err(|n| Failure(format!("the hire-par pool already exists with {n} threads")))?;
    match args.workload.as_str() {
        "hot_zipf" => run::<workloads::hot_zipf::HotZipf>(args, "hot_zipf"),
        "cold_scan" => run::<workloads::cold_scan::ColdScan>(args, "cold_scan"),
        "write_mix" => run::<workloads::write_mix::WriteMix>(args, "write_mix"),
        "train_eval" => run::<workloads::train_eval::TrainEval>(args, "train_eval"),
        other => Err(Failure(format!("unknown workload `{other}`"))),
    }
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::main(&argv[1..]) {
            Ok(()) => std::process::ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return std::process::ExitCode::from(2);
        }
    };
    match dispatch(&args) {
        Ok(outcome) => {
            outcome.print();
            if let Some(path) = &args.out {
                if let Err(e) = std::fs::write(path, outcome.out_file()) {
                    eprintln!("error: could not write {path}: {e}");
                    return std::process::ExitCode::FAILURE;
                }
            }
            println!("{}", outcome.result_line());
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            // No result line: a run whose outputs are wrong reports nothing.
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_and_issue_spellings_of_trace_both_parse() {
        let a = parse_args(&argv("--workload hot_zipf --seed 3 --seconds 15 --trace 1")).unwrap();
        assert!(a.trace && a.seconds == 15 && a.seed == 3);
        let a = parse_args(&argv("--workload hot_zipf --seed 3 --trace 0")).unwrap();
        assert!(!a.trace);
        let a = parse_args(&argv("--workload cold_scan --trace --seed 9")).unwrap();
        assert!(a.trace && a.seed == 9);
        let a = parse_args(&argv("--workload cold_scan --seed 9 --trace")).unwrap();
        assert!(a.trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--seed 1",
            "--workload nope --seed 1",
            "--workload hot_zipf",
            "--workload hot_zipf --seed x",
            "--workload hot_zipf --seed 1 --seconds 0",
            "--workload hot_zipf --seed 1 --seconds 61",
            "--workload hot_zipf --seed 1 --bogus",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted `{bad}`");
        }
    }

    /// `--smoke`: one round with about a twentieth of the ops, all four
    /// workloads, end to end through the same code as a full run.
    #[test]
    fn smoke_runs_every_workload_green() {
        hire_par::set_global_threads(1).ok();
        for workload in WORKLOADS {
            let args = Args {
                workload: workload.to_string(),
                seed: 11,
                seconds: DEFAULT_SECONDS,
                trace: false,
                smoke: true,
                out: None,
                trace_out: None,
            };
            let outcome = dispatch(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(outcome.correct && outcome.failed == 0 && outcome.attempted > 0);
            for spec in report::END_TO_END {
                let v = outcome.metrics.get(spec.name).expect(spec.name);
                assert!(v.is_finite() && v > 0.0, "{workload} {} = {v}", spec.name);
            }
        }
    }
}
