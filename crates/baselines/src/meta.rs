//! Shared machinery for the meta-learning baselines (MeLU, MAMO, TaNP):
//! task sampling and a first-order MAML (FOMAML) loop.
//!
//! Deviation from the paper's baselines (DESIGN.md §2): the original MeLU /
//! MAMO use second-order MAML; we use FOMAML, which is the standard
//! efficiency approximation and preserves the adaptation behaviour the
//! paper's comparison measures (including the higher test-time cost of
//! per-task adaptation, Fig. 6).

use hire_graph::{BipartiteGraph, Rating};
use hire_tensor::{NdArray, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// One meta-learning task: a cold entity's support/query rating sets.
#[derive(Debug, Clone)]
pub struct Task {
    /// Edges visible for adaptation.
    pub support: Vec<Rating>,
    /// Edges to predict after adaptation.
    pub query: Vec<Rating>,
}

/// Samples per-entity tasks from the training graph: choose an entity with
/// at least `min_edges` edges, reveal `support_ratio` of them (at least 1)
/// as support, keep the rest as query.
pub fn sample_tasks(
    graph: &BipartiteGraph,
    by_user: bool,
    support_ratio: f32,
    min_edges: usize,
    count: usize,
    rng: &mut StdRng,
) -> Vec<Task> {
    let num_entities = if by_user {
        graph.num_users()
    } else {
        graph.num_items()
    };
    let eligible: Vec<usize> = (0..num_entities)
        .filter(|&e| {
            let deg = if by_user {
                graph.user_degree(e)
            } else {
                graph.item_degree(e)
            };
            deg >= min_edges
        })
        .collect();
    let mut tasks = Vec::with_capacity(count);
    if eligible.is_empty() {
        return tasks;
    }
    for _ in 0..count {
        let &entity = eligible.choose(rng).expect("non-empty eligible set");
        let mut edges: Vec<Rating> = if by_user {
            graph
                .user_neighbors(entity)
                .iter()
                .map(|&(i, v)| Rating::new(entity, i as usize, v))
                .collect()
        } else {
            graph
                .item_neighbors(entity)
                .iter()
                .map(|&(u, v)| Rating::new(u as usize, entity, v))
                .collect()
        };
        edges.shuffle(rng);
        let n_support =
            ((edges.len() as f32 * support_ratio).round() as usize).clamp(1, edges.len() - 1);
        let support = edges[..n_support].to_vec();
        let query = edges[n_support..].to_vec();
        tasks.push(Task { support, query });
    }
    tasks
}

/// Collects a support set from the test-time visible graph for a batch of
/// prediction pairs: edges incident to the pairs' users and items, with the
/// query pairs themselves excluded. Deterministic; capped at `cap` edges
/// (pairs' own users first, so a cold user's few support edges always make
/// the cut).
pub fn support_from_visible(
    visible: &BipartiteGraph,
    pairs: &[(usize, usize)],
    cap: usize,
) -> Vec<Rating> {
    let forbidden: HashSet<(usize, usize)> = pairs.iter().copied().collect();
    let mut out: Vec<Rating> = Vec::new();
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    let users: Vec<usize> = {
        let mut v: Vec<usize> = pairs.iter().map(|&(u, _)| u).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let items: Vec<usize> = {
        let mut v: Vec<usize> = pairs.iter().map(|&(_, i)| i).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    for &u in &users {
        for &(i, val) in visible.user_neighbors(u) {
            let i = i as usize;
            if out.len() >= cap {
                return out;
            }
            if !forbidden.contains(&(u, i)) && seen.insert((u, i)) {
                out.push(Rating::new(u, i, val));
            }
        }
    }
    for &i in &items {
        for &(u, val) in visible.item_neighbors(i) {
            let u = u as usize;
            if out.len() >= cap {
                return out;
            }
            if !forbidden.contains(&(u, i)) && seen.insert((u, i)) {
                out.push(Rating::new(u, i, val));
            }
        }
    }
    out
}

/// First-order MAML scaffolding over a set of adapted ("local") parameters.
///
/// The typical flow per task:
/// 1. [`FoMaml::save`] the local parameter values,
/// 2. [`FoMaml::adapt`] them with a few SGD steps on the support loss,
/// 3. compute the query loss, `backward()`, [`FoMaml::stash_grads`],
/// 4. [`FoMaml::restore`] the saved values and zero grads,
/// 5. after the task batch, [`FoMaml::replay_grads`] and step the outer
///    optimizer.
pub struct FoMaml {
    /// Parameters adapted in the inner loop.
    pub local_params: Vec<Tensor>,
    /// All meta-parameters (receive outer gradients).
    pub all_params: Vec<Tensor>,
    /// Inner-loop SGD learning rate.
    pub inner_lr: f32,
    /// Inner-loop step count.
    pub inner_steps: usize,
    stash: Vec<Option<NdArray>>,
}

impl FoMaml {
    /// Creates the scaffold. `local_params` must be a subset of
    /// `all_params` (shared tensors, not copies).
    pub fn new(
        local_params: Vec<Tensor>,
        all_params: Vec<Tensor>,
        inner_lr: f32,
        inner_steps: usize,
    ) -> Self {
        let stash = vec![None; all_params.len()];
        FoMaml {
            local_params,
            all_params,
            inner_lr,
            inner_steps,
            stash,
        }
    }

    /// Snapshot of the local parameter values.
    pub fn save(&self) -> Vec<NdArray> {
        self.local_params.iter().map(|p| p.value()).collect()
    }

    /// Restores local parameters and clears every gradient.
    pub fn restore(&self, saved: &[NdArray]) {
        for (p, v) in self.local_params.iter().zip(saved) {
            p.set_value(v.clone());
        }
        for p in &self.all_params {
            p.zero_grad();
        }
    }

    /// Runs `inner_steps` SGD steps on `loss_fn` (the support loss),
    /// updating only the local parameters.
    pub fn adapt(&self, mut loss_fn: impl FnMut() -> Tensor) {
        for _ in 0..self.inner_steps {
            for p in &self.all_params {
                p.zero_grad();
            }
            let loss = loss_fn();
            loss.backward();
            for p in &self.local_params {
                if let Some(g) = p.grad() {
                    p.update_value(|v| {
                        for (vi, gi) in v.as_mut_slice().iter_mut().zip(g.as_slice()) {
                            *vi -= self.inner_lr * gi;
                        }
                    });
                }
            }
        }
        for p in &self.all_params {
            p.zero_grad();
        }
    }

    /// Accumulates the current gradients (from the query-loss backward)
    /// into the stash.
    pub fn stash_grads(&mut self) {
        for (slot, p) in self.stash.iter_mut().zip(&self.all_params) {
            if let Some(g) = p.grad() {
                match slot {
                    Some(acc) => acc.add_assign(&g),
                    None => *slot = Some(g),
                }
            }
        }
    }

    /// Moves the stashed gradients back onto the parameters (for the outer
    /// optimizer) and clears the stash.
    pub fn replay_grads(&mut self) {
        for (slot, p) in self.stash.iter_mut().zip(&self.all_params) {
            if let Some(g) = slot.take() {
                p.add_to_grad(&g);
            }
        }
    }
}

/// Deterministic mini-task split of a support set used at prediction time
/// by models that adapt on the fly.
pub fn ratings_to_pairs(ratings: &[Rating]) -> (Vec<(usize, usize)>, NdArray) {
    let pairs: Vec<(usize, usize)> = ratings.iter().map(|r| (r.user, r.item)).collect();
    let values = NdArray::from_vec([ratings.len()], ratings.iter().map(|r| r.value).collect());
    (pairs, values)
}

/// Uniformly samples `count` seed entities (with replacement).
pub fn sample_entities(n: usize, count: usize, rng: &mut StdRng) -> Vec<usize> {
    (0..count).map(|_| rng.gen_range(0..n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn toy_graph() -> BipartiteGraph {
        let mut edges = Vec::new();
        for u in 0..6 {
            for i in 0..8 {
                if (u * 3 + i) % 2 == 0 {
                    edges.push(Rating::new(u, i, ((u + i) % 5 + 1) as f32));
                }
            }
        }
        BipartiteGraph::from_ratings(6, 8, &edges)
    }

    #[test]
    fn task_sampling_respects_ratio() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(0);
        let tasks = sample_tasks(&g, true, 0.25, 3, 10, &mut rng);
        assert_eq!(tasks.len(), 10);
        for t in &tasks {
            assert!(!t.support.is_empty());
            assert!(!t.query.is_empty());
            // all edges share a user
            let u = t.support[0].user;
            assert!(t.support.iter().chain(&t.query).all(|r| r.user == u));
        }
    }

    #[test]
    fn item_tasks_share_items() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(1);
        let tasks = sample_tasks(&g, false, 0.25, 2, 5, &mut rng);
        for t in &tasks {
            let i = t.support[0].item;
            assert!(t.support.iter().chain(&t.query).all(|r| r.item == i));
        }
    }

    #[test]
    fn support_from_visible_excludes_queries() {
        let g = toy_graph();
        let pairs = [(0usize, 0usize), (0, 2)];
        let support = support_from_visible(&g, &pairs, 10);
        assert!(!support.is_empty());
        for r in &support {
            assert!(!pairs.contains(&(r.user, r.item)));
        }
        // capped
        let tight = support_from_visible(&g, &pairs, 2);
        assert_eq!(tight.len(), 2);
    }

    #[test]
    fn fomaml_adapt_and_restore_roundtrip() {
        let w = Tensor::parameter(NdArray::from_vec([1], vec![1.0]));
        let mut fm = FoMaml::new(vec![w.clone()], vec![w.clone()], 0.1, 3);
        let saved = fm.save();
        // minimize (w - 3)^2: inner steps move w toward 3
        fm.adapt(|| w.sub(&Tensor::scalar(3.0)).square().sum());
        assert!(w.value().item() > 1.0);
        // fake query loss grad, stash, restore
        w.square().sum().backward();
        fm.stash_grads();
        fm.restore(&saved);
        assert_eq!(w.value().item(), 1.0);
        assert!(w.grad().is_none());
        fm.replay_grads();
        assert!(w.grad().is_some());
    }
}
