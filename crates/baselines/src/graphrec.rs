//! GraphRec (Fan et al., "Graph Neural Networks for Social Recommendation"):
//! user representations aggregate rated items *and* social friends; item
//! representations aggregate raters. One aggregation layer (lite variant,
//! DESIGN.md §2). Only applicable to datasets with a social graph (Douban),
//! exactly as in the paper.

use crate::common::{
    scale_to_rating, segment_mean_pool, train_on_edges, EdgeTrainConfig, FieldEmbedder, RatingModel,
};
use hire_data::Dataset;
use hire_graph::BipartiteGraph;
use hire_nn::{Activation, Embedding, Linear, Mlp, Module};
use hire_tensor::{NdArray, Tensor};
use rand::rngs::StdRng;

/// The GraphRec baseline.
pub struct GraphRec {
    field_dim: usize,
    /// Neighbor cap per aggregation.
    neighbor_cap: usize,
    config: EdgeTrainConfig,
    state: Option<State>,
}

struct State {
    fields: FieldEmbedder,
    rating_emb: Embedding,
    /// Opinion MLP for item-space aggregation: (item feat ‖ rating) -> d.
    item_opinion: Mlp,
    /// Opinion MLP for user-space aggregation: (user feat ‖ rating) -> d.
    user_opinion: Mlp,
    user_proj: Linear,
    item_proj: Linear,
    social_proj: Linear,
    head: Mlp,
    d: usize,
}

impl GraphRec {
    /// GraphRec with `field_dim`-wide embeddings.
    pub fn new(field_dim: usize, config: EdgeTrainConfig) -> Self {
        GraphRec {
            field_dim,
            neighbor_cap: 10,
            config,
            state: None,
        }
    }

    /// User latent in "item space": aggregate the user's rated items with
    /// opinion (rating) embeddings, then combine with the user's features.
    fn user_latent(
        &self,
        dataset: &Dataset,
        graph: &BipartiteGraph,
        users: &[usize],
        exclude: Option<&[(usize, usize)]>,
    ) -> Tensor {
        let s = self.state.as_ref().unwrap();
        let mut neigh_items: Vec<usize> = Vec::new();
        let mut neigh_codes: Vec<usize> = Vec::new();
        let mut segments: Vec<usize> = Vec::with_capacity(users.len());
        for (ix, &u) in users.iter().enumerate() {
            let mut count = 0;
            for &(i, v) in graph.user_neighbors(u).iter().take(self.neighbor_cap) {
                let i = i as usize;
                if let Some(ex) = exclude {
                    if ex.get(ix) == Some(&(u, i)) {
                        continue; // never aggregate the edge being predicted
                    }
                }
                neigh_items.push(i);
                neigh_codes.push(dataset.rating_code(v));
                count += 1;
            }
            segments.push(count);
        }
        let agg = if neigh_items.is_empty() {
            Tensor::constant(NdArray::zeros([users.len(), s.d]))
        } else {
            let feat = s.fields.item_flat(dataset, &neigh_items);
            let op = s.rating_emb.forward(&neigh_codes);
            let opinions = s.item_opinion.forward(&Tensor::concat_last(&[feat, op]));
            segment_mean_pool(&opinions, &segments)
        };
        let own = s.user_proj.forward(&s.fields.user_flat(dataset, users));
        own.add(&agg).relu()
    }

    /// Social-space enhancement: average the item-space latents of friends.
    fn social_latent(
        &self,
        dataset: &Dataset,
        graph: &BipartiteGraph,
        users: &[usize],
        base: &Tensor,
    ) -> Tensor {
        let s = self.state.as_ref().unwrap();
        let Some(social) = dataset.social.as_ref() else {
            return base.clone();
        };
        let mut friend_ids: Vec<usize> = Vec::new();
        let mut segments: Vec<usize> = Vec::with_capacity(users.len());
        for &u in users {
            let friends = social.friends(u);
            let take = friends.len().min(self.neighbor_cap);
            friend_ids.extend_from_slice(&friends[..take]);
            segments.push(take);
        }
        if friend_ids.is_empty() {
            return base.clone();
        }
        let friend_latents = self.user_latent(dataset, graph, &friend_ids, None);
        let social_agg = segment_mean_pool(&friend_latents, &segments);
        base.add(&s.social_proj.forward(&social_agg)).relu()
    }

    /// Item latent: aggregate raters with opinions, combine with item
    /// features.
    fn item_latent(
        &self,
        dataset: &Dataset,
        graph: &BipartiteGraph,
        items: &[usize],
        exclude: Option<&[(usize, usize)]>,
    ) -> Tensor {
        let s = self.state.as_ref().unwrap();
        let mut neigh_users: Vec<usize> = Vec::new();
        let mut neigh_codes: Vec<usize> = Vec::new();
        let mut segments: Vec<usize> = Vec::with_capacity(items.len());
        for (ix, &i) in items.iter().enumerate() {
            let mut count = 0;
            for &(u, v) in graph.item_neighbors(i).iter().take(self.neighbor_cap) {
                let u = u as usize;
                if let Some(ex) = exclude {
                    if ex.get(ix) == Some(&(u, i)) {
                        continue;
                    }
                }
                neigh_users.push(u);
                neigh_codes.push(dataset.rating_code(v));
                count += 1;
            }
            segments.push(count);
        }
        let agg = if neigh_users.is_empty() {
            Tensor::constant(NdArray::zeros([items.len(), s.d]))
        } else {
            let feat = s.fields.user_flat(dataset, &neigh_users);
            let op = s.rating_emb.forward(&neigh_codes);
            let opinions = s.user_opinion.forward(&Tensor::concat_last(&[feat, op]));
            segment_mean_pool(&opinions, &segments)
        };
        let own = s.item_proj.forward(&s.fields.item_flat(dataset, items));
        own.add(&agg).relu()
    }

    fn score(&self, dataset: &Dataset, graph: &BipartiteGraph, pairs: &[(usize, usize)]) -> Tensor {
        let s = self.state.as_ref().expect("fit before predict");
        let users: Vec<usize> = pairs.iter().map(|&(u, _)| u).collect();
        let items: Vec<usize> = pairs.iter().map(|&(_, i)| i).collect();
        let u_base = self.user_latent(dataset, graph, &users, Some(pairs));
        let u = self.social_latent(dataset, graph, &users, &u_base);
        let i = self.item_latent(dataset, graph, &items, Some(pairs));
        s.head
            .forward(&Tensor::concat_last(&[u, i]))
            .reshape([pairs.len()])
    }
}

impl RatingModel for GraphRec {
    fn name(&self) -> &'static str {
        "GraphRec"
    }

    fn fit(&mut self, dataset: &Dataset, train: &BipartiteGraph, rng: &mut StdRng) {
        let fields = FieldEmbedder::new(dataset, self.field_dim, rng);
        let d = 2 * self.field_dim;
        let uw = fields.num_user_fields() * self.field_dim;
        let iw = fields.num_item_fields() * self.field_dim;
        let state = State {
            rating_emb: Embedding::new(dataset.rating_levels, self.field_dim, rng),
            item_opinion: Mlp::new(&[iw + self.field_dim, d], Activation::Relu, rng),
            user_opinion: Mlp::new(&[uw + self.field_dim, d], Activation::Relu, rng),
            user_proj: Linear::new(uw, d, rng),
            item_proj: Linear::new(iw, d, rng),
            social_proj: Linear::new(d, d, rng),
            head: Mlp::new(&[2 * d, d, 1], Activation::Relu, rng),
            d,
            fields,
        };
        self.state = Some(state);
        let s = self.state.as_ref().unwrap();
        let mut params = s.fields.parameters();
        for m in [&s.item_opinion, &s.user_opinion, &s.head] {
            params.extend(m.parameters());
        }
        for l in [&s.user_proj, &s.item_proj, &s.social_proj] {
            params.extend(l.parameters());
        }
        params.extend(s.rating_emb.parameters());
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
    fn trains_on_social_dataset() {
        let d = SyntheticConfig::douban_like()
            .scaled(25, 25, (6, 10))
            .generate(17);
        assert!(d.social.is_some());
        let g = d.graph();
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = GraphRec::new(
            4,
            EdgeTrainConfig {
                epochs: 3,
                ..Default::default()
            },
        );
        m.fit(&d, &g, &mut rng);
        let preds = m.predict(&d, &g, &[(0, 0), (1, 1)]);
        for p in preds {
            assert!(p >= 0.0 && p <= d.max_rating());
        }
    }

    #[test]
    fn cold_user_benefits_from_support_edges() {
        // With support edges visible, the aggregation must change the
        // prediction relative to an isolated user.
        let d = SyntheticConfig::douban_like()
            .scaled(20, 20, (5, 8))
            .generate(18);
        let g = d.graph();
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = GraphRec::new(
            4,
            EdgeTrainConfig {
                epochs: 3,
                ..Default::default()
            },
        );
        m.fit(&d, &g, &mut rng);
        let empty = BipartiteGraph::empty(20, 20);
        let with_support = BipartiteGraph::from_ratings(
            20,
            20,
            &[
                hire_graph::Rating::new(0, 3, 5.0),
                hire_graph::Rating::new(0, 4, 5.0),
            ],
        );
        let p_cold = m.predict(&d, &empty, &[(0, 10)])[0];
        let p_support = m.predict(&d, &with_support, &[(0, 10)])[0];
        assert!((p_cold - p_support).abs() > 1e-6, "support edges ignored");
    }
}
