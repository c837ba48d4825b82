//! Categorical attribute schemas for users and items.

/// One categorical attribute (e.g. *age group*, *genre*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Human-readable name.
    pub name: String,
    /// Number of categories (one-hot width).
    pub cardinality: usize,
}

impl Attribute {
    /// Convenience constructor.
    pub(crate) fn new(name: impl Into<String>, cardinality: usize) -> Self {
        assert!(cardinality > 0, "attribute cardinality must be positive");
        Attribute {
            name: name.into(),
            cardinality,
        }
    }
}

/// The attribute layout of one entity side (users or items).
///
/// An empty schema means the entity has no side information; per § VI-A of
/// the paper, the entity ID is then used as its unique attribute.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EntitySchema {
    attributes: Vec<Attribute>,
}

impl EntitySchema {
    /// Schema from an attribute list.
    pub(crate) fn new(attributes: Vec<Attribute>) -> Self {
        EntitySchema { attributes }
    }

    /// Whether the schema is ID-only.
    pub fn is_id_only(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Number of attributes (0 for ID-only).
    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// The attributes.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Validates a code vector against the schema.
    pub(crate) fn validate(&self, codes: &[usize]) -> bool {
        codes.len() == self.attributes.len()
            && codes
                .iter()
                .zip(&self.attributes)
                .all(|(&c, a)| c < a.cardinality)
    }

    /// Total one-hot width across all attributes.
    pub fn one_hot_width(&self) -> usize {
        self.attributes.iter().map(|a| a.cardinality).sum()
    }

    /// Encodes a code vector as a concatenated one-hot feature vector
    /// (used by the feature-similarity sampler and CF baselines).
    pub(crate) fn one_hot(&self, codes: &[usize]) -> Vec<f32> {
        assert!(self.validate(codes), "codes {codes:?} invalid for schema");
        let mut out = vec![0.0f32; self.one_hot_width()];
        let mut offset = 0;
        for (&c, a) in codes.iter().zip(&self.attributes) {
            out[offset + c] = 1.0;
            offset += a.cardinality;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> EntitySchema {
        EntitySchema::new(vec![Attribute::new("age", 3), Attribute::new("job", 4)])
    }

    #[test]
    fn widths_and_validation() {
        let s = schema();
        assert_eq!(s.num_attributes(), 2);
        assert_eq!(s.one_hot_width(), 7);
        assert!(s.validate(&[2, 3]));
        assert!(!s.validate(&[3, 0]));
        assert!(!s.validate(&[0]));
    }

    #[test]
    fn one_hot_layout() {
        let s = schema();
        let v = s.one_hot(&[1, 2]);
        assert_eq!(v, vec![0., 1., 0., 0., 0., 1., 0.]);
    }

    #[test]
    fn id_only_schema() {
        let s = EntitySchema::new(Vec::new());
        assert!(s.is_id_only());
        assert_eq!(s.one_hot_width(), 0);
        assert!(s.validate(&[]));
    }

    #[test]
    #[should_panic(expected = "cardinality must be positive")]
    fn zero_cardinality_panics() {
        Attribute::new("bad", 0);
    }
}
