//! Quantisation to the macro's 1b × 1b compute precision.
//!
//! The paper's evaluation uses 1-bit × 1-bit computation; multi-bit layers
//! are executed as bit-serial passes.  This module binarises real-valued
//! activations and weights around their medians, producing the
//! [`BinaryMvm`] form the behavioural macro simulator consumes.

use crate::error::WorkloadError;
use crate::tensor::Matrix;

/// A binarised matrix-vector multiplication: `weights · activations` with
/// every operand in {0, 1}.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryMvm {
    /// Binary weight matrix, `rows × cols`.
    pub weights: Vec<Vec<bool>>,
    /// Binary activation vector of length `cols`.
    pub activations: Vec<bool>,
    /// Name of the originating workload.
    pub label: String,
}

impl BinaryMvm {
    /// Number of output rows.
    pub fn rows(&self) -> usize {
        self.weights.len()
    }

    /// Dot-product length (columns).
    pub fn cols(&self) -> usize {
        self.activations.len()
    }

    /// The exact binary dot products (the ideal digital result the macro is
    /// trying to compute).
    pub fn ideal_binary_outputs(&self) -> Vec<u32> {
        self.weights
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&self.activations)
                    .filter(|(w, x)| **w && **x)
                    .count() as u32
            })
            .collect()
    }
}

/// Binarises a weight matrix around its per-row median (1 when above).
///
/// Values sort by [`f64::total_cmp`], so a NaN never panics;
/// [`binarize_mvm`] rejects NaN operands before they get here.
pub fn binarize_weights(weights: &Matrix) -> Vec<Vec<bool>> {
    (0..weights.rows())
        .map(|r| {
            let mut row: Vec<f64> = (0..weights.cols()).map(|c| weights.get(r, c)).collect();
            let mut sorted = row.clone();
            sorted.sort_by(f64::total_cmp);
            let median = sorted[sorted.len() / 2];
            row.drain(..).map(|v| v > median).collect()
        })
        .collect()
}

/// Binarises an activation vector around its median (1 when above).
///
/// Values sort by [`f64::total_cmp`], as in [`binarize_weights`].
pub fn binarize_activations(activations: &[f64]) -> Vec<bool> {
    if activations.is_empty() {
        return Vec::new();
    }
    let mut sorted = activations.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    activations.iter().map(|&v| v > median).collect()
}

/// Builds a [`BinaryMvm`] from real-valued operands.
///
/// # Errors
///
/// Returns [`WorkloadError::ShapeMismatch`] when the activation length does
/// not match the weight matrix, and [`WorkloadError::InvalidParameter`]
/// naming `weights` or `activations` when an operand holds a NaN, which
/// has no place around a median.
pub fn binarize_mvm(
    label: &str,
    weights: &Matrix,
    activations: &[f64],
) -> Result<BinaryMvm, WorkloadError> {
    if activations.len() != weights.cols() {
        return Err(WorkloadError::ShapeMismatch {
            operation: "binarize_mvm".into(),
            left: (weights.rows(), weights.cols()),
            right: (activations.len(), 1),
        });
    }
    let nan = |name: &str, at: String| WorkloadError::InvalidParameter {
        name: name.into(),
        reason: format!("NaN at {at}"),
    };
    for r in 0..weights.rows() {
        if let Some(c) = (0..weights.cols()).find(|&c| weights.get(r, c).is_nan()) {
            return Err(nan("weights", format!("row {r}, column {c}")));
        }
    }
    if let Some(i) = activations.iter().position(|v| v.is_nan()) {
        return Err(nan("activations", format!("index {i}")));
    }
    Ok(BinaryMvm {
        weights: binarize_weights(weights),
        activations: binarize_activations(activations),
        label: label.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binarisation_splits_around_the_median() {
        let acts = vec![0.1, 0.9, 0.5, 0.2, 0.8, 0.7];
        let bits = binarize_activations(&acts);
        let ones = bits.iter().filter(|&&b| b).count();
        assert!(
            (2..=4).contains(&ones),
            "roughly half should be ones, got {ones}"
        );
        assert!(bits[1] && bits[4], "largest values must binarise to 1");
        assert!(!bits[0], "smallest value must binarise to 0");
        assert!(binarize_activations(&[]).is_empty());
        // total_cmp orders -0.0 before +0.0, but both compare equal under
        // `>`, so signed zeros binarise as under the partial order.
        let bits = binarize_activations(&[-0.0, 0.0, 0.0, -0.0, 1.0]);
        assert_eq!(bits, vec![false, false, false, false, true]);
        let bits = binarize_activations(&[0.0, -0.0, -1.0]);
        assert_eq!(bits, vec![false, false, false]);
    }

    #[test]
    fn weight_binarisation_is_per_row() {
        let w = Matrix::from_fn(2, 4, |r, c| if r == 0 { c as f64 } else { -(c as f64) }).unwrap();
        let bits = binarize_weights(&w);
        assert_eq!(bits.len(), 2);
        assert!(bits[0][3], "largest in row 0 is 1");
        assert!(!bits[1][3], "most negative in row 1 is 0");
    }

    #[test]
    fn binary_mvm_construction_and_ideal_outputs() {
        let w = Matrix::from_fn(3, 8, |r, c| ((r + c) % 3) as f64).unwrap();
        let x: Vec<f64> = (0..8).map(|i| (i % 2) as f64).collect();
        let mvm = binarize_mvm("test", &w, &x).unwrap();
        assert_eq!(mvm.rows(), 3);
        assert_eq!(mvm.cols(), 8);
        let outputs = mvm.ideal_binary_outputs();
        assert_eq!(outputs.len(), 3);
        for (row, out) in outputs.iter().enumerate() {
            let manual = mvm.weights[row]
                .iter()
                .zip(&mvm.activations)
                .filter(|(w, x)| **w && **x)
                .count() as u32;
            assert_eq!(*out, manual);
        }
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let w = Matrix::zeros(2, 4).unwrap();
        assert!(binarize_mvm("bad", &w, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn nan_operands_are_typed_errors() {
        let mut w = Matrix::from_fn(2, 3, |r, c| (r + c) as f64).unwrap();
        let x = [0.5, f64::NAN, 1.5];
        match binarize_mvm("nan", &w, &x) {
            Err(WorkloadError::InvalidParameter { name, reason }) => {
                assert_eq!(name, "activations");
                assert!(reason.contains("index 1"), "{reason}");
            }
            other => panic!("expected an activations error, got {other:?}"),
        }
        w.set(1, 2, f64::NAN);
        match binarize_mvm("nan", &w, &[0.5, 1.0, 1.5]) {
            Err(WorkloadError::InvalidParameter { name, reason }) => {
                assert_eq!(name, "weights");
                assert!(reason.contains("row 1, column 2"), "{reason}");
            }
            other => panic!("expected a weights error, got {other:?}"),
        }
        // The binarisers themselves never panic on a NaN.
        assert_eq!(binarize_activations(&x).len(), 3);
        assert_eq!(binarize_weights(&w)[1].len(), 3);
    }
}
