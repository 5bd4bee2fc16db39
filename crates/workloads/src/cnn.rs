//! CNN layer workload (the image-identification application of Figure 1).
//!
//! A convolution layer is lowered to a matrix-vector product per output
//! pixel by im2col: the weight matrix has one row per output channel and
//! `C_in · K · K` columns.  The synthetic layer uses a deterministic,
//! seed-driven pseudo-random filler so workloads are reproducible without a
//! dataset.

use crate::error::WorkloadError;
use crate::quantize::{binarize_mvm, BinaryMvm};

/// A synthetic convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CnnLayer {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
}

impl CnnLayer {
    /// A small edge-CNN layer (e.g. a keyword-spotting or MNIST-class
    /// network): 8 → 16 channels, K×K kernel.
    pub fn small(kernel: usize) -> Self {
        Self {
            in_channels: 8,
            out_channels: 16,
            kernel,
        }
    }

    /// A mobile-class layer: 32 → 64 channels, 3×3 kernel.
    pub fn mobile() -> Self {
        Self {
            in_channels: 32,
            out_channels: 64,
            kernel: 3,
        }
    }

    /// The im2col dot-product length (`C_in · K · K`).
    pub fn dot_length(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Lowers the layer into a binarised MVM with a deterministic synthetic
    /// patch, using `seed` to vary weights and activations.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] when the layer shape is degenerate.
    pub fn to_workload(&self, seed: u64) -> Result<BinaryMvm, WorkloadError> {
        if self.kernel == 0 || self.in_channels == 0 || self.out_channels == 0 {
            return Err(WorkloadError::InvalidParameter {
                name: "cnn layer".into(),
                reason: "all dimensions must be positive".into(),
            });
        }
        let cols = self.dot_length();
        let activations: Vec<f64> = (0..cols)
            .map(|i| pseudo_random(seed ^ 0xFEED, i).max(0.0)) // post-ReLU style
            .collect();
        binarize_mvm(
            &format!(
                "cnn_{}x{}x{}",
                self.out_channels, self.in_channels, self.kernel
            ),
            (self.out_channels, cols),
            |r, c| pseudo_random(seed ^ 0xC0FFEE, r * cols + c) - 0.5,
            &activations,
        )
    }
}

/// Deterministic pseudo-random value in `[0, 1)` derived from a seed and an
/// index (splitmix64-style hash), so workloads need no RNG state.
pub(crate) fn pseudo_random(seed: u64, index: usize) -> f64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_length_matches_im2col() {
        assert_eq!(CnnLayer::small(3).dot_length(), 8 * 9);
        assert_eq!(CnnLayer::mobile().dot_length(), 32 * 9);
    }

    #[test]
    fn workload_shapes_follow_the_layer() {
        let layer = CnnLayer::small(5);
        let mvm = layer.to_workload(1).unwrap();
        assert_eq!(mvm.rows(), 16);
        assert_eq!(mvm.cols(), 8 * 25);
        assert!(mvm.label.contains("cnn"));
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let layer = CnnLayer::mobile();
        assert_eq!(layer.to_workload(5).unwrap(), layer.to_workload(5).unwrap());
        assert_ne!(layer.to_workload(5).unwrap(), layer.to_workload(6).unwrap());
    }

    #[test]
    fn degenerate_layers_are_rejected() {
        let layer = CnnLayer {
            in_channels: 0,
            out_channels: 4,
            kernel: 3,
        };
        assert!(layer.to_workload(1).is_err());
    }

    #[test]
    fn pseudo_random_is_in_unit_interval_and_varies() {
        let values: Vec<f64> = (0..100).map(|i| pseudo_random(42, i)).collect();
        assert!(values.iter().all(|v| (0.0..1.0).contains(v)));
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((mean - 0.5).abs() < 0.15, "mean {mean} far from 0.5");
    }
}
