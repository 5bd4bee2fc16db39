//! Transformer attention-projection workload (the LLM application of
//! Figure 1).
//!
//! The dominant MVMs of a transformer block are the Q/K/V projections:
//! `d_model × d_model` weight matrices applied to every token.  Transformers
//! are the accuracy-hungry application of the paper's motivation — they need
//! higher SNR than a CNN to avoid degrading attention scores.

use crate::cnn::pseudo_random;
use crate::error::WorkloadError;
use crate::quantize::{binarize_mvm, BinaryMvm};

/// Which projection of the attention block is being exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjectionKind {
    /// Query projection.
    Query,
    /// Key projection.
    Key,
    /// Value projection.
    Value,
}

/// A synthetic attention projection workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttentionProjection {
    /// Model (embedding) dimension `d_model`.
    pub d_model: usize,
    /// Number of heads (the projection is evaluated per head slice).
    pub heads: usize,
    /// Which projection.
    pub kind: ProjectionKind,
}

impl AttentionProjection {
    /// A tiny edge transformer (d_model = 128, 4 heads).
    pub fn edge(kind: ProjectionKind) -> Self {
        Self {
            d_model: 128,
            heads: 4,
            kind,
        }
    }

    /// Per-head dimension.
    pub fn head_dim(&self) -> usize {
        self.d_model / self.heads.max(1)
    }

    /// Lowers one head's projection into a binarised MVM for a synthetic
    /// token embedding.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] when the shape is degenerate.
    pub fn to_workload(&self, seed: u64) -> Result<BinaryMvm, WorkloadError> {
        if self.d_model == 0 || self.heads == 0 || !self.d_model.is_multiple_of(self.heads) {
            return Err(WorkloadError::InvalidParameter {
                name: "attention projection".into(),
                reason: "d_model must be a positive multiple of the head count".into(),
            });
        }
        let rows = self.head_dim();
        let cols = self.d_model;
        let kind_salt = match self.kind {
            ProjectionKind::Query => 0x51,
            ProjectionKind::Key => 0x4B,
            ProjectionKind::Value => 0x56,
        };
        // Token embeddings are roughly zero-mean.
        let activations: Vec<f64> = (0..cols)
            .map(|i| pseudo_random(seed ^ 0x70CE, i) - 0.5)
            .collect();
        let label = format!(
            "attention_{:?}_{}d_{}h",
            self.kind, self.d_model, self.heads
        );
        binarize_mvm(
            &label,
            (rows, cols),
            |r, c| pseudo_random(seed ^ kind_salt, r * cols + c) - 0.5,
            &activations,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_dim_and_shapes() {
        let proj = AttentionProjection::edge(ProjectionKind::Query);
        assert_eq!(proj.head_dim(), 32);
        let mvm = proj.to_workload(3).unwrap();
        assert_eq!(mvm.rows(), 32);
        assert_eq!(mvm.cols(), 128);
        assert!(mvm.label.contains("Query"));
    }

    #[test]
    fn different_projections_differ() {
        let q = AttentionProjection::edge(ProjectionKind::Query)
            .to_workload(3)
            .unwrap();
        let k = AttentionProjection::edge(ProjectionKind::Key)
            .to_workload(3)
            .unwrap();
        assert_ne!(q.weights, k.weights);
    }

    #[test]
    fn invalid_head_split_rejected() {
        let proj = AttentionProjection {
            d_model: 100,
            heads: 3,
            kind: ProjectionKind::Value,
        };
        assert!(proj.to_workload(1).is_err());
    }
}
