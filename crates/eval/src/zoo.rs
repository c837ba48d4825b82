//! Model zoo: builds every method applicable to a dataset, at a chosen
//! compute tier, mirroring the paper's per-dataset baseline selection
//! (GraphRec only where a social graph exists; the HIN baseline only where
//! attributes are rich).

use crate::fault::ModelSpec;
use crate::hire_adapter::HireRatingModel;
use hire_baselines::{
    Afn, DeepFM, EdgeTrainConfig, GraphRec, HinNeighbor, Mamo, MeLU, MetaTrainConfig, NeuMF,
    RatingModel, Tanp, TanpConfig, WideDeep,
};
use hire_core::{HireConfig, TrainConfig};
use hire_data::Dataset;

/// Compute budget for a comparison run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeedTier {
    /// Seconds per model — CI smoke runs.
    Smoke,
    /// A few minutes per table — the default for the benchmark harness.
    Fast,
    /// Closest to the paper's configuration (32x32 contexts, 3 HIMs).
    Full,
}

impl SpeedTier {
    fn edge_config(self) -> EdgeTrainConfig {
        match self {
            SpeedTier::Smoke => EdgeTrainConfig {
                epochs: 2,
                batch_size: 128,
                lr: 1e-2,
            },
            SpeedTier::Fast => EdgeTrainConfig {
                epochs: 8,
                batch_size: 128,
                lr: 1e-2,
            },
            SpeedTier::Full => EdgeTrainConfig {
                epochs: 20,
                batch_size: 128,
                lr: 5e-3,
            },
        }
    }

    fn meta_config(self) -> MetaTrainConfig {
        match self {
            SpeedTier::Smoke => MetaTrainConfig {
                outer_steps: 5,
                ..Default::default()
            },
            SpeedTier::Fast => MetaTrainConfig {
                outer_steps: 40,
                ..Default::default()
            },
            SpeedTier::Full => MetaTrainConfig {
                outer_steps: 150,
                ..Default::default()
            },
        }
    }

    fn tanp_config(self) -> TanpConfig {
        match self {
            SpeedTier::Smoke => TanpConfig {
                steps: 8,
                ..Default::default()
            },
            SpeedTier::Fast => TanpConfig {
                steps: 60,
                ..Default::default()
            },
            SpeedTier::Full => TanpConfig {
                steps: 200,
                ..Default::default()
            },
        }
    }

    /// The HIRE model configuration at this tier.
    pub fn hire_config(self) -> HireConfig {
        match self {
            SpeedTier::Smoke => HireConfig::fast().with_blocks(1).with_context_size(8, 8),
            SpeedTier::Fast => HireConfig::fast(),
            SpeedTier::Full => HireConfig::paper_default(),
        }
    }

    /// The HIRE training configuration at this tier.
    pub fn hire_train_config(self) -> TrainConfig {
        match self {
            SpeedTier::Smoke => TrainConfig {
                steps: 20,
                batch_size: 2,
                base_lr: 3e-3,
                grad_clip: 1.0,
                ..TrainConfig::paper_default()
            },
            SpeedTier::Fast => TrainConfig {
                steps: 150,
                batch_size: 4,
                base_lr: 3e-3,
                grad_clip: 1.0,
                ..TrainConfig::paper_default()
            },
            SpeedTier::Full => TrainConfig::paper_default(),
        }
    }

    fn field_dim(self) -> usize {
        match self {
            SpeedTier::Smoke => 4,
            SpeedTier::Fast | SpeedTier::Full => 8,
        }
    }
}

/// Builds HIRE at the given tier.
pub fn hire(tier: SpeedTier) -> Box<dyn RatingModel> {
    Box::new(HireRatingModel::new(
        tier.hire_config(),
        tier.hire_train_config(),
    ))
}

/// Builds every baseline applicable to `dataset` (paper's Tables III-V
/// selection), in table order: [`baseline_specs`], built. Does not include
/// HIRE — add it with [`hire`].
pub fn baselines(dataset: &Dataset, tier: SpeedTier) -> Vec<Box<dyn RatingModel>> {
    baseline_specs(dataset, tier)
        .into_iter()
        .map(ModelSpec::build)
        .collect()
}

/// Every baseline applicable to `dataset` (paper's Tables III-V
/// selection), in table order, as deferred specs for the fault-isolated
/// harness: each entry carries a `Send` builder closure so the model can be
/// constructed on its evaluation worker thread (models hold non-`Send`
/// tensors and cannot cross threads themselves). GraphRec only where a
/// social graph exists, HIN only where both sides have rich attributes.
pub fn baseline_specs(dataset: &Dataset, tier: SpeedTier) -> Vec<ModelSpec> {
    let ec = tier.edge_config();
    let f = tier.field_dim();
    let mut specs = vec![
        ModelSpec::new("NeuMF", move || Box::new(NeuMF::new(f, ec)) as _),
        ModelSpec::new("Wide&Deep", move || Box::new(WideDeep::new(f, ec)) as _),
        ModelSpec::new("DeepFM", move || Box::new(DeepFM::new(f, ec)) as _),
        ModelSpec::new("AFN", move || Box::new(Afn::new(f, 2 * f, ec)) as _),
    ];
    if dataset.social.is_some() {
        specs.push(ModelSpec::new("GraphRec", move || {
            Box::new(GraphRec::new(f, ec)) as _
        }));
    }
    let rich_attrs =
        dataset.user_schema.num_attributes() >= 2 && dataset.item_schema.num_attributes() >= 2;
    if rich_attrs {
        specs.push(ModelSpec::new("HIN", move || {
            Box::new(HinNeighbor::new(f, ec)) as _
        }));
    }
    specs.push(ModelSpec::new("MAMO", move || {
        Box::new(Mamo::new(f, 4, tier.meta_config())) as _
    }));
    specs.push(ModelSpec::new("TaNP", move || {
        Box::new(Tanp::new(f, tier.tanp_config())) as _
    }));
    specs.push(ModelSpec::new("MeLU", move || {
        Box::new(MeLU::new(f, tier.meta_config())) as _
    }));
    specs
}

/// [`hire`] as a deferred spec for the fault-isolated harness.
pub fn hire_spec(tier: SpeedTier) -> ModelSpec {
    ModelSpec::new("HIRE", move || hire(tier))
}

/// [`hire_spec`] with an explicit [`TrainConfig`] — used by the benchmark
/// harness to enable durable training checkpoints (`checkpoint_dir` /
/// `resume`) for the HIRE fit while keeping the tier's model shape.
pub fn hire_spec_with_train_config(tier: SpeedTier, train_config: TrainConfig) -> ModelSpec {
    ModelSpec::new("HIRE", move || {
        Box::new(crate::hire_adapter::HireRatingModel::new(
            tier.hire_config(),
            train_config,
        )) as _
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_data::SyntheticConfig;

    /// Every spec is reported under the name its model reports.
    #[test]
    fn every_spec_is_named_as_its_model() {
        for d in [
            SyntheticConfig::movielens_like()
                .scaled(20, 20, (4, 8))
                .generate(1),
            SyntheticConfig::douban_like()
                .scaled(20, 20, (4, 8))
                .generate(2),
        ] {
            for tier in [SpeedTier::Smoke, SpeedTier::Fast] {
                for spec in baseline_specs(&d, tier) {
                    let name = spec.name.clone();
                    assert_eq!(spec.build().name(), name);
                }
            }
        }
    }

    #[test]
    fn movielens_gets_hin_but_not_graphrec() {
        let d = SyntheticConfig::movielens_like()
            .scaled(20, 20, (4, 8))
            .generate(1);
        let names: Vec<&str> = baselines(&d, SpeedTier::Smoke)
            .iter()
            .map(|m| m.name())
            .collect();
        assert!(names.contains(&"HIN"));
        assert!(!names.contains(&"GraphRec"));
        assert!(names.contains(&"NeuMF"));
        assert!(names.contains(&"MeLU"));
    }

    #[test]
    fn douban_gets_graphrec_but_not_hin() {
        let d = SyntheticConfig::douban_like()
            .scaled(20, 20, (4, 8))
            .generate(2);
        let names: Vec<&str> = baselines(&d, SpeedTier::Smoke)
            .iter()
            .map(|m| m.name())
            .collect();
        assert!(names.contains(&"GraphRec"));
        assert!(!names.contains(&"HIN"));
    }

    #[test]
    fn bookcrossing_gets_neither() {
        let d = SyntheticConfig::bookcrossing_like()
            .scaled(20, 20, (4, 8))
            .generate(3);
        let names: Vec<&str> = baselines(&d, SpeedTier::Smoke)
            .iter()
            .map(|m| m.name())
            .collect();
        assert!(!names.contains(&"GraphRec"));
        assert!(!names.contains(&"HIN"));
        // CF + meta methods remain
        assert_eq!(names.len(), 7);
    }
}
