//! Model zoo: builds every method applicable to a dataset, at a chosen
//! compute tier, mirroring the paper's per-dataset baseline selection
//! (GraphRec only where a social graph exists; the HIN baseline only where
//! attributes are rich).

use crate::fault::ModelSpec;
use crate::hire_adapter::HireRatingModel;
use crate::tier::SpeedTier;
use hire_baselines::{
    Afn, DeepFM, GraphRec, HinNeighbor, Mamo, MeLU, NeuMF, RatingModel, Tanp, WideDeep,
};
use hire_core::TrainConfig;
use hire_data::Dataset;

/// Builds every baseline applicable to `dataset` (paper's Tables III-V
/// selection), in table order: [`baseline_specs`], built. Does not include
/// HIRE — add it with [`hire_spec`].
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

/// HIRE at `tier`'s model shape, trained under `train_config` — the
/// tier's own [`SpeedTier::hire_train_config`], or that with durable
/// training checkpoints (`checkpoint_dir` / `resume`) for a sweep that can
/// be resumed.
pub fn hire_spec(tier: SpeedTier, train_config: TrainConfig) -> ModelSpec {
    ModelSpec::new("HIRE", move || {
        Box::new(HireRatingModel::new(tier.hire_config(), train_config)) as _
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
