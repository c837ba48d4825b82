//! HIN-based baseline standing in for GraphHINGE / MetaHIN: entity
//! representations are enhanced by **meta-path guided neighbors** on the
//! heterogeneous information network built from users, items and their
//! attributes (U-I-U co-rating paths, I-U-I paths, and U-A-U / I-A-I
//! same-attribute paths). Only applicable to attribute-rich datasets
//! (MovieLens), as in the paper. Lite variant — see DESIGN.md §2.

use crate::common::{
    scale_to_rating, segment_mean_pool, train_on_edges, EdgeTrainConfig, FieldEmbedder, RatingModel,
};
use hire_data::Dataset;
use hire_graph::BipartiteGraph;
use hire_nn::{Activation, Linear, Mlp, Module};
use hire_tensor::{NdArray, Tensor};
use rand::rngs::StdRng;
use std::collections::HashMap;

/// The HIN-neighbor baseline (GraphHINGE/MetaHIN-lite).
pub struct HinNeighbor {
    field_dim: usize,
    /// Neighbor cap per meta-path.
    neighbor_cap: usize,
    config: EdgeTrainConfig,
    state: Option<State>,
    /// Same-attribute neighbor index, precomputed at fit time from the
    /// *schema* (static side information, legitimately available for cold
    /// entities).
    uau_neighbors: Vec<Vec<usize>>,
    iai_neighbors: Vec<Vec<usize>>,
}

struct State {
    fields: FieldEmbedder,
    user_proj: Linear,
    item_proj: Linear,
    uiu_proj: Linear,
    iui_proj: Linear,
    uau_proj: Linear,
    iai_proj: Linear,
    head: Mlp,
}

impl HinNeighbor {
    /// HIN baseline with `field_dim`-wide embeddings.
    pub fn new(field_dim: usize, config: EdgeTrainConfig) -> Self {
        HinNeighbor {
            field_dim,
            neighbor_cap: 8,
            config,
            state: None,
            uau_neighbors: Vec::new(),
            iai_neighbors: Vec::new(),
        }
    }

    /// Builds same-attribute meta-path neighbor lists (U-A-U, I-A-I): for
    /// each entity, other entities sharing the value of its first attribute.
    fn build_attr_paths(dataset: &Dataset, cap: usize) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let group = |attrs: &[Vec<usize>]| -> Vec<Vec<usize>> {
            if attrs.is_empty() || attrs[0].is_empty() {
                return vec![Vec::new(); attrs.len()];
            }
            let mut by_value: HashMap<usize, Vec<usize>> = HashMap::new();
            for (e, codes) in attrs.iter().enumerate() {
                by_value.entry(codes[0]).or_default().push(e);
            }
            attrs
                .iter()
                .enumerate()
                .map(|(e, codes)| {
                    by_value[&codes[0]]
                        .iter()
                        .copied()
                        .filter(|&x| x != e)
                        .take(cap)
                        .collect()
                })
                .collect()
        };
        (group(&dataset.user_attrs), group(&dataset.item_attrs))
    }

    /// Co-rating meta-path neighbors (U-I-U): users who rated an item this
    /// user rated, discovered on the fly from `graph`.
    fn uiu(&self, graph: &BipartiteGraph, user: usize) -> Vec<usize> {
        let mut out = Vec::new();
        'outer: for &(item, _) in graph.user_neighbors(user) {
            for &(other, _) in graph.item_neighbors(item as usize) {
                let other = other as usize;
                if other != user && !out.contains(&other) {
                    out.push(other);
                    if out.len() >= self.neighbor_cap {
                        break 'outer;
                    }
                }
            }
        }
        out
    }

    fn iui(&self, graph: &BipartiteGraph, item: usize) -> Vec<usize> {
        let mut out = Vec::new();
        'outer: for &(user, _) in graph.item_neighbors(item) {
            for &(other, _) in graph.user_neighbors(user as usize) {
                let other = other as usize;
                if other != item && !out.contains(&other) {
                    out.push(other);
                    if out.len() >= self.neighbor_cap {
                        break 'outer;
                    }
                }
            }
        }
        out
    }

    /// Mean-pooled neighbor features projected by `proj`.
    fn aggregate_users(
        &self,
        dataset: &Dataset,
        neighbor_lists: Vec<Vec<usize>>,
        proj: &Linear,
    ) -> Tensor {
        let s = self.state.as_ref().unwrap();
        let segments: Vec<usize> = neighbor_lists.iter().map(Vec::len).collect();
        let flat: Vec<usize> = neighbor_lists.into_iter().flatten().collect();
        if flat.is_empty() {
            return Tensor::constant(NdArray::zeros([segments.len(), proj.out_features()]));
        }
        let feats = proj.forward(&s.fields.user_flat(dataset, &flat));
        segment_mean_pool(&feats, &segments)
    }

    fn aggregate_items(
        &self,
        dataset: &Dataset,
        neighbor_lists: Vec<Vec<usize>>,
        proj: &Linear,
    ) -> Tensor {
        let s = self.state.as_ref().unwrap();
        let segments: Vec<usize> = neighbor_lists.iter().map(Vec::len).collect();
        let flat: Vec<usize> = neighbor_lists.into_iter().flatten().collect();
        if flat.is_empty() {
            return Tensor::constant(NdArray::zeros([segments.len(), proj.out_features()]));
        }
        let feats = proj.forward(&s.fields.item_flat(dataset, &flat));
        segment_mean_pool(&feats, &segments)
    }

    fn score(&self, dataset: &Dataset, graph: &BipartiteGraph, pairs: &[(usize, usize)]) -> Tensor {
        let s = self.state.as_ref().expect("fit before predict");
        let users: Vec<usize> = pairs.iter().map(|&(u, _)| u).collect();
        let items: Vec<usize> = pairs.iter().map(|&(_, i)| i).collect();

        let uiu_lists: Vec<Vec<usize>> = users.iter().map(|&u| self.uiu(graph, u)).collect();
        let uau_lists: Vec<Vec<usize>> = users
            .iter()
            .map(|&u| self.uau_neighbors.get(u).cloned().unwrap_or_default())
            .collect();
        let iui_lists: Vec<Vec<usize>> = items.iter().map(|&i| self.iui(graph, i)).collect();
        let iai_lists: Vec<Vec<usize>> = items
            .iter()
            .map(|&i| self.iai_neighbors.get(i).cloned().unwrap_or_default())
            .collect();

        let u_own = s.user_proj.forward(&s.fields.user_flat(dataset, &users));
        let u_repr = u_own
            .add(&self.aggregate_users(dataset, uiu_lists, &s.uiu_proj))
            .add(&self.aggregate_users(dataset, uau_lists, &s.uau_proj))
            .relu();
        let i_own = s.item_proj.forward(&s.fields.item_flat(dataset, &items));
        let i_repr = i_own
            .add(&self.aggregate_items(dataset, iui_lists, &s.iui_proj))
            .add(&self.aggregate_items(dataset, iai_lists, &s.iai_proj))
            .relu();
        s.head
            .forward(&Tensor::concat_last(&[u_repr, i_repr]))
            .reshape([pairs.len()])
    }
}

impl RatingModel for HinNeighbor {
    fn name(&self) -> &'static str {
        "HIN"
    }

    fn fit(&mut self, dataset: &Dataset, train: &BipartiteGraph, rng: &mut StdRng) {
        let (uau, iai) = Self::build_attr_paths(dataset, self.neighbor_cap);
        self.uau_neighbors = uau;
        self.iai_neighbors = iai;
        let fields = FieldEmbedder::new(dataset, self.field_dim, rng);
        let d = 2 * self.field_dim;
        let uw = fields.num_user_fields() * self.field_dim;
        let iw = fields.num_item_fields() * self.field_dim;
        let state = State {
            user_proj: Linear::new(uw, d, rng),
            item_proj: Linear::new(iw, d, rng),
            uiu_proj: Linear::new(uw, d, rng),
            iui_proj: Linear::new(iw, d, rng),
            uau_proj: Linear::new(uw, d, rng),
            iai_proj: Linear::new(iw, d, rng),
            head: Mlp::new(&[2 * d, d, 1], Activation::Relu, rng),
            fields,
        };
        self.state = Some(state);
        let s = self.state.as_ref().unwrap();
        let mut params = s.fields.parameters();
        for l in [
            &s.user_proj,
            &s.item_proj,
            &s.uiu_proj,
            &s.iui_proj,
            &s.uau_proj,
            &s.iai_proj,
        ] {
            params.extend(l.parameters());
        }
        params.extend(s.head.parameters());
        let this: &Self = self;
        train_on_edges(dataset, train, params, self.config, rng, |d, batch| {
            let pairs: Vec<(usize, usize)> = batch.iter().map(|r| (r.user, r.item)).collect();
            let pred = scale_to_rating(&this.score(d, train, &pairs), d);
            let target = NdArray::from_vec([batch.len()], batch.iter().map(|r| r.value).collect());
            hire_nn::mse_loss(&pred, &target)
        });
    }

    fn predict(
        &self,
        dataset: &Dataset,
        visible: &BipartiteGraph,
        pairs: &[(usize, usize)],
    ) -> Vec<f32> {
        scale_to_rating(&self.score(dataset, visible, pairs), dataset)
            .value()
            .into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_data::SyntheticConfig;
    use rand::SeedableRng;

    #[test]
    fn attr_paths_group_by_first_attribute() {
        let d = SyntheticConfig::movielens_like()
            .scaled(30, 20, (5, 8))
            .generate(19);
        let (uau, _) = HinNeighbor::build_attr_paths(&d, 5);
        assert_eq!(uau.len(), 30);
        for (u, neighbors) in uau.iter().enumerate() {
            for &v in neighbors {
                assert_eq!(d.user_attrs[u][0], d.user_attrs[v][0]);
                assert_ne!(u, v);
            }
        }
    }

    #[test]
    fn trains_and_predicts() {
        let d = SyntheticConfig::movielens_like()
            .scaled(20, 18, (6, 10))
            .generate(20);
        let g = d.graph();
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = HinNeighbor::new(
            4,
            EdgeTrainConfig {
                epochs: 3,
                ..Default::default()
            },
        );
        m.fit(&d, &g, &mut rng);
        for p in m.predict(&d, &g, &[(0, 0), (19, 17)]) {
            assert!(p >= 0.0 && p <= d.max_rating());
        }
    }

    #[test]
    fn id_only_dataset_yields_empty_attr_paths() {
        let d = SyntheticConfig::douban_like()
            .scaled(10, 10, (3, 5))
            .generate(21);
        let (uau, iai) = HinNeighbor::build_attr_paths(&d, 5);
        assert!(uau.iter().all(Vec::is_empty));
        assert!(iai.iter().all(Vec::is_empty));
    }
}
