//! Panic-isolated, time-budgeted model evaluation.
//!
//! Benchmark tables evaluate many models in sequence; one model's panic or
//! hang used to abort the whole run and lose every finished result. Here
//! each model is built and evaluated on a worker thread behind
//! `catch_unwind` and an optional wall-clock budget, and the harness gets a
//! [`ModelResult`] with an explicit [`EvalStatus`] either way.

use crate::runner::{evaluate_model, EvalConfig, MetricsAtK, ModelResult};
use hire_baselines::RatingModel;
use hire_data::{ColdStartSplit, Dataset};
use serde::{Serialize, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

/// Terminal status of one model evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalStatus {
    /// Evaluation completed normally.
    Ok,
    /// The model panicked during fit or predict.
    Failed {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The model exceeded its wall-clock budget (its worker thread is
    /// detached and left to finish in the background).
    TimedOut {
        /// The budget that was exceeded.
        budget_seconds: f64,
    },
}

impl EvalStatus {
    /// True when the evaluation completed normally.
    pub fn is_ok(&self) -> bool {
        matches!(self, EvalStatus::Ok)
    }
}

// Data-carrying variants are beyond the derive macro's unit-enum support,
// so render the status by hand.
impl Serialize for EvalStatus {
    fn to_value(&self) -> Value {
        match self {
            EvalStatus::Ok => Value::Object(vec![(
                "status".to_string(),
                Value::String("ok".to_string()),
            )]),
            EvalStatus::Failed { message } => Value::Object(vec![
                ("status".to_string(), Value::String("failed".to_string())),
                ("message".to_string(), Value::String(message.clone())),
            ]),
            EvalStatus::TimedOut { budget_seconds } => Value::Object(vec![
                ("status".to_string(), Value::String("timeout".to_string())),
                ("budget_seconds".to_string(), Value::Float(*budget_seconds)),
            ]),
        }
    }
}

impl EvalStatus {
    /// Parses a status back out of its serialized [`Value`] form (the
    /// inverse of [`Serialize::to_value`]); `None` for malformed input.
    /// Used by the benchmark harness to re-read partial result files on
    /// `--resume`.
    pub(crate) fn from_value(v: &Value) -> Option<Self> {
        match v.get("status")?.as_str()? {
            "ok" => Some(EvalStatus::Ok),
            "failed" => Some(EvalStatus::Failed {
                message: v.get("message")?.as_str()?.to_string(),
            }),
            "timeout" => Some(EvalStatus::TimedOut {
                budget_seconds: v.get("budget_seconds")?.as_f64()?,
            }),
            _ => None,
        }
    }
}

/// A deferred model: a name plus a builder that constructs the model on the
/// worker thread. Models hold non-`Send` tensors, so they cannot be built
/// on the harness thread and moved; the builder closure (plain config data)
/// crosses the thread boundary instead.
pub struct ModelSpec {
    /// Model name, used for reporting even when the build/evaluation dies.
    pub name: String,
    builder: Box<dyn FnOnce() -> Box<dyn RatingModel> + Send>,
}

impl ModelSpec {
    /// Wraps a builder closure.
    pub fn new(
        name: impl Into<String>,
        builder: impl FnOnce() -> Box<dyn RatingModel> + Send + 'static,
    ) -> Self {
        ModelSpec {
            name: name.into(),
            builder: Box::new(builder),
        }
    }

    /// Builds the model (consumes the spec).
    pub(crate) fn build(self) -> Box<dyn RatingModel> {
        (self.builder)()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn placeholder_result(name: String, config: &EvalConfig, status: EvalStatus) -> ModelResult {
    ModelResult {
        model: name,
        at_k: config
            .ks
            .iter()
            .map(|&k| MetricsAtK {
                k,
                precision: None,
                precision_std: None,
                ndcg: 0.0,
                ndcg_std: 0.0,
                map: None,
                map_std: None,
            })
            .collect(),
        fit_seconds: 0.0,
        test_seconds: 0.0,
        entities: 0,
        mae: 0.0,
        rmse: 0.0,
        status,
    }
}

/// Builds and evaluates `spec` on a worker thread, catching panics and
/// enforcing `budget` (when given). Always returns a [`ModelResult`]; on
/// failure or timeout the metrics are zeroed placeholders and
/// [`ModelResult::status`] says what happened. On timeout the worker thread
/// is detached, not killed — budget overruns waste CPU but cannot corrupt
/// the harness.
pub fn evaluate_model_isolated(
    spec: ModelSpec,
    dataset: &Dataset,
    split: &ColdStartSplit,
    config: &EvalConfig,
    budget: Option<Duration>,
) -> ModelResult {
    let name = spec.name.clone();
    let builder = spec.builder;
    let (tx, rx) = mpsc::channel();
    let d = dataset.clone();
    let s = split.clone();
    let c = config.clone();
    std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut model = builder();
            evaluate_model(model.as_mut(), &d, &s, &c)
        }))
        .map_err(panic_message);
        let _ = tx.send(outcome);
    });
    let received = match budget {
        Some(b) => rx.recv_timeout(b).map_err(|_| b),
        None => Ok(rx
            .recv()
            .unwrap_or_else(|_| Err("evaluation thread died without reporting".to_string()))),
    };
    match received {
        Ok(Ok(result)) => result,
        Ok(Err(message)) => placeholder_result(name, config, EvalStatus::Failed { message }),
        Err(budget) => placeholder_result(
            name,
            config,
            EvalStatus::TimedOut {
                budget_seconds: budget.as_secs_f64(),
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_baselines::GlobalMean;
    use hire_data::{ColdStartScenario, SyntheticConfig};
    use hire_graph::BipartiteGraph;
    use rand::rngs::StdRng;

    struct PanickingModel;
    impl RatingModel for PanickingModel {
        fn name(&self) -> &'static str {
            "Panicker"
        }
        fn fit(&mut self, _: &Dataset, _: &BipartiteGraph, _: &mut StdRng) {
            panic!("injected failure");
        }
        fn predict(&self, _: &Dataset, _: &BipartiteGraph, pairs: &[(usize, usize)]) -> Vec<f32> {
            vec![0.0; pairs.len()]
        }
    }

    struct SleepyModel;
    impl RatingModel for SleepyModel {
        fn name(&self) -> &'static str {
            "Sleeper"
        }
        fn fit(&mut self, _: &Dataset, _: &BipartiteGraph, _: &mut StdRng) {
            std::thread::sleep(Duration::from_secs(30));
        }
        fn predict(&self, _: &Dataset, _: &BipartiteGraph, pairs: &[(usize, usize)]) -> Vec<f32> {
            vec![0.0; pairs.len()]
        }
    }

    fn setup() -> (Dataset, ColdStartSplit) {
        let d = SyntheticConfig::movielens_like()
            .scaled(40, 30, (8, 16))
            .generate(11);
        let s = ColdStartSplit::new(&d, ColdStartScenario::UserCold, 0.25, 0.1, 11);
        (d, s)
    }

    #[test]
    fn healthy_model_reports_ok() {
        let (d, s) = setup();
        let cfg = EvalConfig {
            max_entities: 5,
            ..Default::default()
        };
        let spec = ModelSpec::new("GlobalMean", || Box::new(GlobalMean::new()) as _);
        let r = evaluate_model_isolated(spec, &d, &s, &cfg, None);
        assert!(r.status.is_ok());
        assert!(r.entities > 0);
    }

    #[test]
    fn panicking_model_reports_failed_with_message() {
        let (d, s) = setup();
        let cfg = EvalConfig {
            max_entities: 5,
            ..Default::default()
        };
        let spec = ModelSpec::new("Panicker", || Box::new(PanickingModel) as _);
        let r = evaluate_model_isolated(spec, &d, &s, &cfg, None);
        match &r.status {
            EvalStatus::Failed { message } => assert!(message.contains("injected failure")),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(r.model, "Panicker");
        assert_eq!(r.entities, 0);
        assert_eq!(r.at_k.len(), cfg.ks.len(), "placeholder keeps table shape");
    }

    #[test]
    fn slow_model_times_out() {
        let (d, s) = setup();
        let cfg = EvalConfig {
            max_entities: 5,
            ..Default::default()
        };
        let spec = ModelSpec::new("Sleeper", || Box::new(SleepyModel) as _);
        let r = evaluate_model_isolated(spec, &d, &s, &cfg, Some(Duration::from_millis(200)));
        match r.status {
            EvalStatus::TimedOut { budget_seconds } => assert!(budget_seconds < 1.0),
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn status_serializes_with_discriminant() {
        let v = serde_json::to_string(&EvalStatus::Failed {
            message: "boom".into(),
        })
        .unwrap();
        assert!(v.contains("\"failed\"") && v.contains("boom"));
        let v = serde_json::to_string(&EvalStatus::Ok).unwrap();
        assert!(v.contains("\"ok\""));
    }
}
