//! The [`Dataset`] container: entities, attributes, ratings, and optional
//! social relations.

use crate::schema::EntitySchema;
use hire_error::{HireError, HireResult};
use hire_graph::{BipartiteGraph, Rating, SocialGraph};

/// A rating-prediction dataset.
///
/// Attribute codes are stored per entity as categorical indices matching the
/// entity schema. ID-only datasets (schema `is_id_only`) carry empty code
/// vectors; models then fall back to ID embeddings, as the paper does for
/// Douban.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (used in reports).
    pub name: String,
    /// Number of users.
    pub num_users: usize,
    /// Number of items.
    pub num_items: usize,
    /// User attribute schema.
    pub user_schema: EntitySchema,
    /// Item attribute schema.
    pub item_schema: EntitySchema,
    /// Per-user attribute codes, `[num_users][user_schema.num_attributes()]`.
    pub user_attrs: Vec<Vec<usize>>,
    /// Per-item attribute codes.
    pub item_attrs: Vec<Vec<usize>>,
    /// All observed ratings.
    pub ratings: Vec<Rating>,
    /// Minimum rating value (1.0 for all three paper datasets).
    pub min_rating: f32,
    /// Number of discrete rating levels (5 for MovieLens/Douban, 10 for
    /// Bookcrossing).
    pub rating_levels: usize,
    /// Optional user-user social graph (Douban only).
    pub social: Option<SocialGraph>,
}

/// Summary statistics, mirroring Table II of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetProfile {
    /// Dataset name.
    pub name: String,
    /// Number of users.
    pub num_users: usize,
    /// Number of items.
    pub num_items: usize,
    /// Number of ratings.
    pub num_ratings: usize,
    /// User attribute names.
    pub user_attributes: Vec<String>,
    /// Item attribute names.
    pub item_attributes: Vec<String>,
    /// Rating range as (min, max).
    pub rating_range: (f32, f32),
    /// Rating density.
    pub density: f32,
    /// Mean ratings per user.
    pub mean_user_degree: f32,
}

impl Dataset {
    /// Maximum rating value.
    pub fn max_rating(&self) -> f32 {
        self.min_rating + (self.rating_levels - 1) as f32
    }

    /// Converts a rating value to its 0-based level code.
    pub fn rating_code(&self, value: f32) -> usize {
        let code = (value - self.min_rating).round();
        assert!(
            code >= 0.0 && (code as usize) < self.rating_levels,
            "rating {value} outside [{}, {}]",
            self.min_rating,
            self.max_rating()
        );
        code as usize
    }

    /// Relevance threshold used by Precision/MAP: the top 40 % of the scale
    /// counts as relevant (>= 4 on a 1-5 scale, >= 8 on 1-10 — the common
    /// conventions for MovieLens and Bookcrossing).
    pub fn relevance_threshold(&self) -> f32 {
        self.min_rating + (self.rating_levels as f32 - 1.0) * 0.7
    }

    /// Builds the full bipartite rating graph.
    pub fn graph(&self) -> BipartiteGraph {
        BipartiteGraph::from_ratings(self.num_users, self.num_items, &self.ratings)
    }

    /// One-hot feature vector for a user (ID one-hot when ID-only).
    pub fn user_feature(&self, user: usize) -> Vec<f32> {
        if self.user_schema.is_id_only() {
            let mut v = vec![0.0; self.num_users];
            v[user] = 1.0;
            v
        } else {
            self.user_schema.one_hot(&self.user_attrs[user])
        }
    }

    /// One-hot feature vector for an item (ID one-hot when ID-only).
    pub fn item_feature(&self, item: usize) -> Vec<f32> {
        if self.item_schema.is_id_only() {
            let mut v = vec![0.0; self.num_items];
            v[item] = 1.0;
            v
        } else {
            self.item_schema.one_hot(&self.item_attrs[item])
        }
    }

    /// Summary statistics (Table II row).
    pub fn profile(&self) -> DatasetProfile {
        let g = self.graph();
        DatasetProfile {
            name: self.name.clone(),
            num_users: self.num_users,
            num_items: self.num_items,
            num_ratings: self.ratings.len(),
            user_attributes: self
                .user_schema
                .attributes()
                .iter()
                .map(|a| a.name.clone())
                .collect(),
            item_attributes: self
                .item_schema
                .attributes()
                .iter()
                .map(|a| a.name.clone())
                .collect(),
            rating_range: (self.min_rating, self.max_rating()),
            density: g.density(),
            mean_user_degree: if self.num_users == 0 {
                0.0
            } else {
                self.ratings.len() as f32 / self.num_users as f32
            },
        }
    }

    /// Validates internal consistency; returns a typed error describing the
    /// first problem found, if any.
    pub(crate) fn validate(&self) -> HireResult<()> {
        let err =
            |message: String| HireError::invalid_data(format!("Dataset `{}`", self.name), message);
        if self.user_attrs.len() != self.num_users {
            return Err(err(format!(
                "user_attrs has {} rows, expected {}",
                self.user_attrs.len(),
                self.num_users
            )));
        }
        if self.item_attrs.len() != self.num_items {
            return Err(err(format!(
                "item_attrs has {} rows, expected {}",
                self.item_attrs.len(),
                self.num_items
            )));
        }
        for (u, codes) in self.user_attrs.iter().enumerate() {
            if !self.user_schema.validate(codes) {
                return Err(err(format!(
                    "user {u} has invalid attribute codes {codes:?}"
                )));
            }
        }
        for (i, codes) in self.item_attrs.iter().enumerate() {
            if !self.item_schema.validate(codes) {
                return Err(err(format!(
                    "item {i} has invalid attribute codes {codes:?}"
                )));
            }
        }
        for r in &self.ratings {
            if r.user >= self.num_users || r.item >= self.num_items {
                return Err(err(format!("rating {r:?} out of range")));
            }
            if r.value < self.min_rating || r.value > self.max_rating() {
                return Err(err(format!("rating {r:?} outside the rating scale")));
            }
        }
        if let Some(social) = &self.social {
            if social.num_users() != self.num_users {
                return Err(err("social graph user count mismatch".into()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn tiny() -> Dataset {
        Dataset {
            name: "tiny".into(),
            num_users: 2,
            num_items: 3,
            user_schema: EntitySchema::new(vec![Attribute::new("age", 2)]),
            item_schema: EntitySchema::new(Vec::new()),
            user_attrs: vec![vec![0], vec![1]],
            item_attrs: vec![vec![], vec![], vec![]],
            ratings: vec![Rating::new(0, 0, 5.0), Rating::new(1, 2, 1.0)],
            min_rating: 1.0,
            rating_levels: 5,
            social: None,
        }
    }

    #[test]
    fn rating_codes_and_range() {
        let d = tiny();
        assert_eq!(d.max_rating(), 5.0);
        assert_eq!(d.rating_code(1.0), 0);
        assert_eq!(d.rating_code(5.0), 4);
        assert!((d.relevance_threshold() - 3.8).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_scale_rating_code_panics() {
        tiny().rating_code(6.0);
    }

    #[test]
    fn features_one_hot_vs_id() {
        let d = tiny();
        assert_eq!(d.user_feature(1), vec![0.0, 1.0]);
        assert_eq!(d.item_feature(2), vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn profile_matches() {
        let d = tiny();
        let p = d.profile();
        assert_eq!(p.num_ratings, 2);
        assert_eq!(p.user_attributes, vec!["age"]);
        assert!(p.item_attributes.is_empty());
        assert_eq!(p.rating_range, (1.0, 5.0));
    }

    #[test]
    fn validation_catches_errors() {
        let mut d = tiny();
        assert!(d.validate().is_ok());
        d.ratings.push(Rating::new(5, 0, 3.0));
        assert!(d.validate().is_err());
        let mut d2 = tiny();
        d2.user_attrs[0] = vec![7];
        assert!(d2.validate().is_err());
    }
}
