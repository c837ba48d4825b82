//! The metric catalogue and the result a run prints.
//!
//! `END_TO_END` and `PER_LAYER` are the single list of metric names in the
//! code; `BENCHMARK.json` repeats name/unit/direction(/bound) and a unit
//! test keeps the two in step. `BENCHMARK.json` may hold only the keys the
//! driver's contract names, so what each per-layer metric *should move*
//! lives here (`moves`) and in README.md instead.

use serde_json::Value;

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
    /// The end-to-end metric and workload this metric should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

/// The bounds are what two committed sets of ten runs per workload support
/// on the reference host (NOISE.md): at least three times the widest spread
/// (quartile distance over median) any workload showed for the metric, and
/// for `lat_p10_ms` enough for the 10 % by which `write_mix`'s insert
/// latency (2 ms timer + fsync, not computing) drifted within a day.
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
    e2e("lat_p10_ms", "ms", "lower", 0.20),
    e2e("thru_per_s", "1/s", "higher", 0.20),
];

const DIAG: &str = "diagnostic of lat_p10_ms / thru_per_s, same workload";
const SETUP: &str = "setup_s, every workload";
const COLD: &str = "thru_per_s + lat_p10_ms on cold_scan; read share of write_mix";
const KERNEL: &str = "frozen.fwd_* -> cold_scan; must not move hot_zipf";
const WRITE: &str = "lat_p10_ms + thru_per_s on write_mix";
const TRAIN: &str = "lat_p10_ms + thru_per_s on train_eval only";

pub const PER_LAYER: &[Spec] = &[
    // Load generator (open-loop phase; serving workloads through `Server`).
    layer("gen.late_p99_ms", "ms", "lower", DIAG),
    layer("open.lat_p50_ms", "ms", "lower", DIAG),
    layer("open.lat_p99_ms", "ms", "lower", DIAG),
    layer("open.refused", "count", "lower", DIAG),
    // Diagnostics from the same samples as the gated metrics.
    layer("diag.lat_p50_ms", "ms", "lower", DIAG),
    layer("diag.lat_p99_ms", "ms", "lower", DIAG),
    layer("diag.mean_per_s", "1/s", "higher", DIAG),
    layer("diag.slow_share", "share", "lower", DIAG),
    // What the reference-speed scaling did (see `host`): the CPU's measured
    // speed, and the gated estimators on raw wall-clock samples.
    layer(
        "diag.host_speed",
        "ratio",
        "higher",
        "none: state of the host",
    ),
    layer("diag.raw_lat_p10_ms", "ms", "lower", DIAG),
    layer("diag.raw_thru_per_s", "1/s", "higher", DIAG),
    // serve::server, seen through the `Traced` wrapper.
    layer(
        "server.queue_wait_ms",
        "ms",
        "lower",
        "lat_p10_ms on hot_zipf (queue wait is nearly all of it)",
    ),
    layer(
        "server.batch_size",
        "count",
        "higher",
        "thru_per_s on hot_zipf",
    ),
    layer("server.reply_us", "us", "lower", "lat_p10_ms on hot_zipf"),
    layer(
        "server.refused",
        "count",
        "lower",
        "failed ops, any Server workload",
    ),
    // shard
    layer(
        "shard.route_us",
        "us",
        "lower",
        "thru_per_s on hot_zipf; nothing on cold_scan",
    ),
    layer("shard.balance", "ratio", "lower", "thru_per_s on hot_zipf"),
    layer(
        "shard.hot_routed_share",
        "share",
        "higher",
        "thru_per_s on hot_zipf",
    ),
    // serve::cache
    layer(
        "cache.hit_share",
        "share",
        "higher",
        "thru_per_s on hot_zipf",
    ),
    layer("cache.get_us", "us", "lower", "thru_per_s on hot_zipf"),
    layer(
        "cache.invalidated_per_write",
        "count",
        "lower",
        "lat_p10_ms on write_mix",
    ),
    // serve::engine (the ladder)
    layer("engine.hit_us", "us", "lower", "thru_per_s on hot_zipf"),
    layer("engine.miss_ms", "ms", "lower", "thru_per_s on cold_scan"),
    layer(
        "engine.tier_cache_share",
        "share",
        "higher",
        "thru_per_s on hot_zipf",
    ),
    layer(
        "engine.tier_model_share",
        "share",
        "lower",
        "thru_per_s on cold_scan",
    ),
    layer("engine.unattributed_pct", "%", "lower", DIAG),
    // Per cold-start scenario.
    layer("scan.warm_up_ms", "ms", "lower", "lat_p10_ms on cold_scan"),
    layer(
        "scan.user_cold_ms",
        "ms",
        "lower",
        "lat_p10_ms on cold_scan",
    ),
    layer(
        "scan.item_cold_ms",
        "ms",
        "lower",
        "lat_p10_ms on cold_scan",
    ),
    layer(
        "scan.both_cold_ms",
        "ms",
        "lower",
        "lat_p10_ms on cold_scan",
    ),
    // graph::sampler, data::context
    layer("sampler.sample_ms", "ms", "lower", COLD),
    layer("context.build_ms", "ms", "lower", COLD),
    // serve::frozen
    layer("frozen.fwd_b1_ms", "ms", "lower", COLD),
    layer("frozen.fwd_b8_ms", "ms", "lower", COLD),
    layer("frozen.flops_per_fwd", "count", "lower", COLD),
    layer("frozen.gflops", "GF/s", "higher", COLD),
    layer("frozen.allocs_per_fwd", "count", "lower", COLD),
    layer("frozen.alloc_kb_per_fwd", "KiB", "lower", COLD),
    // nn::nograd
    layer("mhsa.mbu_us", "us", "lower", KERNEL),
    layer("mhsa.mbi_us", "us", "lower", KERNEL),
    layer("mhsa.mba_us", "us", "lower", KERNEL),
    // tensor::linalg
    layer(
        "linalg.matmul_gflops",
        "GF/s",
        "higher",
        "cold_scan and train_eval together",
    ),
    // Degraded rungs: no gated metric today, recorded as a baseline.
    layer(
        "quant.fwd_b8_ms",
        "ms",
        "lower",
        "none today (degraded rung)",
    ),
    layer(
        "quant.max_abs_err",
        "rating",
        "lower",
        "none today (degraded rung)",
    ),
    layer(
        "hybrid.predict_us",
        "us",
        "lower",
        "none today (degraded rung)",
    ),
    // wal
    layer("wal.append_us", "us", "lower", WRITE),
    layer("wal.commit_ms", "ms", "lower", WRITE),
    layer("wal.fsyncs_per_ack", "count", "lower", WRITE),
    layer("wal.bytes_per_ack", "B", "lower", WRITE),
    // graph::epoch
    layer("epoch.commit_ms", "ms", "lower", WRITE),
    layer("epoch.pin_ns", "ns", "lower", WRITE),
    // shard::recovery
    layer(
        "recovery.replay_ms",
        "ms",
        "lower",
        "operator-visible restart cost of write_mix",
    ),
    layer(
        "recovery.bitwise_ok",
        "count",
        "higher",
        "correctness gate of write_mix",
    ),
    // core::trainer, optim, tensor::autograd
    layer("train.context_ms", "ms", "lower", TRAIN),
    layer("train.loss_fwd_ms", "ms", "lower", TRAIN),
    layer("train.backward_ms", "ms", "lower", TRAIN),
    layer("train.clip_step_ms", "ms", "lower", TRAIN),
    layer("train.allocs_per_step", "count", "lower", TRAIN),
    layer(
        "train.loss_drop",
        "mse",
        "higher",
        "quality tripwire of train_eval",
    ),
    // core::model (tape eval), metrics
    layer("eval.predict_ms", "ms", "lower", TRAIN),
    layer(
        "eval.mae_uc",
        "rating",
        "lower",
        "quality tripwire of train_eval",
    ),
    layer(
        "eval.mae_ic",
        "rating",
        "lower",
        "quality tripwire of train_eval",
    ),
    layer(
        "eval.mae_uic",
        "rating",
        "lower",
        "quality tripwire of train_eval",
    ),
    // Set-up split.
    layer("setup.gen_s", "s", "lower", SETUP),
    layer("setup.graph_s", "s", "lower", SETUP),
    layer("setup.train_s", "s", "lower", SETUP),
    layer("setup.freeze_s", "s", "lower", SETUP),
    layer("setup.quant_s", "s", "lower", SETUP),
    layer("setup.hybrid_s", "s", "lower", SETUP),
    layer("setup.engine_s", "s", "lower", SETUP),
    layer("setup.warm_s", "s", "lower", SETUP),
    // Tracing.
    layer(
        "trace.overhead_pct",
        "%",
        "lower",
        "none: cost of the traced run",
    ),
];

/// Named values measured by a run. A metric the running workload has no
/// layer for stays absent and is printed as `0` with an `n/a` note (the
/// driver wants every per-layer metric from every workload).
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|s| s.name == name),
            "metric `{name}` is not in the catalogue"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub checksum: u64,
    pub metrics: Metrics,
    /// `(key, value)` lines of the host block.
    pub host: Vec<(&'static str, String)>,
}

impl Outcome {
    fn catalogue(&self) -> &'static [Spec] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// A metric that is absent or not a finite number cannot be reported.
    pub fn unreportable(&self) -> Vec<&'static str> {
        self.catalogue()
            .iter()
            .filter(|s| self.metrics.get(s.name).is_some_and(|v| !v.is_finite()))
            .map(|s| s.name)
            .collect()
    }

    fn metrics_json(&self) -> Value {
        Value::Object(
            self.catalogue()
                .iter()
                .map(|s| {
                    let value = self.metrics.get(s.name).unwrap_or(0.0);
                    (
                        s.name.to_string(),
                        Value::Object(vec![
                            ("value".to_string(), Value::Float(value)),
                            ("unit".to_string(), Value::String(s.unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line JSON object the driver reads: exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let v = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::Int(self.attempted as i64)),
            ("failed".to_string(), Value::Int(self.failed as i64)),
            ("metrics".to_string(), self.metrics_json()),
        ]);
        serde_json::to_string(&v).expect("value trees always render")
    }

    /// The `--out` file: the result line's content plus what `compare` and
    /// a reader need to place it (workload, seed, host, checksum).
    pub fn out_file(&self) -> String {
        let host = Value::Object(
            self.host
                .iter()
                .map(|(k, v)| (k.to_string(), Value::String(v.clone())))
                .collect(),
        );
        let v = Value::Object(vec![
            ("workload".to_string(), Value::String(self.workload.into())),
            ("seed".to_string(), Value::String(self.seed.to_string())),
            ("seconds".to_string(), Value::Int(self.seconds as i64)),
            ("trace".to_string(), Value::Bool(self.trace)),
            ("host".to_string(), host),
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::Int(self.attempted as i64)),
            ("failed".to_string(), Value::Int(self.failed as i64)),
            (
                "checksum".to_string(),
                Value::String(format!("{:016x}", self.checksum)),
            ),
            ("metrics".to_string(), self.metrics_json()),
            ("claim".to_string(), Value::Null),
        ]);
        serde_json::to_string_pretty(&v).expect("value trees always render")
    }

    /// Human-readable block: host, every metric by name with its unit.
    pub fn print(&self) {
        println!("host:");
        for (k, v) in &self.host {
            println!("  {k:<22} {v}");
        }
        println!(
            "workload {}  seed {}  seconds {}  trace {}",
            self.workload, self.seed, self.seconds, self.trace as u8
        );
        println!(
            "ops {}  failed {}  checksum {:016x}  correct {}",
            self.attempted, self.failed, self.checksum, self.correct
        );
        println!("metrics:");
        for s in self.catalogue() {
            let note = match (self.metrics.get(s.name), s.bound) {
                (None, _) => "n/a on this workload".to_string(),
                (Some(_), Some(bound)) => {
                    format!(
                        "{} is better; gated, bound {:.0} %",
                        s.better,
                        bound * 100.0
                    )
                }
                (Some(_), None) => format!("{} is better; should move: {}", s.better, s.moves),
            };
            let value = self.metrics.get(s.name).unwrap_or(0.0);
            println!("  {:<28} {:>16.6} {:<6} ({note})", s.name, value, s.unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(specs: &[Spec]) -> Vec<&'static str> {
        specs.iter().map(|s| s.name).collect()
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&str> = names(END_TO_END)
            .into_iter()
            .chain(names(PER_LAYER))
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(spec.name.len() <= 64 && spec.unit.len() <= 16);
            assert!(spec
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(spec
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(spec.better, "lower" | "higher"));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` is what the driver reads; the catalogue above is
    /// what the program prints. They must list the same metrics.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            let Some(Value::Array(items)) = spec.get(key) else {
                panic!("`{key}` missing");
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Some(Value::String(s)) => s.clone(),
                        other => panic!("`{k}` of a `{key}` entry is {other:?}"),
                    };
                    let bound = match m.get("bound") {
                        Some(Value::Float(b)) => Some(*b),
                        Some(Value::Int(b)) => Some(*b as f64),
                        _ => None,
                    };
                    (s("name"), s("unit"), s("better"), bound)
                })
                .collect()
        };
        let ours = |specs: &[Spec]| -> Vec<(String, String, String, Option<f64>)> {
            specs
                .iter()
                .map(|s| (s.name.into(), s.unit.into(), s.better.into(), s.bound))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
        let Some(Value::Array(workloads)) = spec.get("workloads") else {
            panic!("`workloads` missing");
        };
        let listed: Vec<&str> = workloads
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::String(s)) => s.as_str(),
                _ => panic!("workload without a name"),
            })
            .collect();
        assert_eq!(listed, crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        for s in END_TO_END {
            metrics.set(s.name, 1.25);
        }
        let outcome = Outcome {
            workload: "hot_zipf",
            seed: 1,
            seconds: 15,
            trace: false,
            correct: true,
            attempted: 10,
            failed: 0,
            checksum: 7,
            metrics,
            host: vec![],
        };
        let line = outcome.result_line();
        assert!(!line.contains('\n'));
        let Value::Object(fields) = serde_json::from_str(&line).unwrap() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Value::Object(ms) = &fields[3].1 else {
            panic!("metrics is not an object");
        };
        assert_eq!(ms.len(), END_TO_END.len());
        assert_eq!(ms[0].1.get("unit"), Some(&Value::String("s".into())));
    }
}
