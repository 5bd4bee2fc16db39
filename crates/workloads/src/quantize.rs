//! Quantisation to the macro's 1b × 1b compute precision.
//!
//! The paper's evaluation uses 1-bit × 1-bit computation; multi-bit layers
//! are executed as bit-serial passes.  This module binarises real-valued
//! activations and weights around their medians, producing the
//! [`BinaryMvm`] form the behavioural macro simulator consumes.
//!
//! No real-valued weight matrix is ever stored: [`binarize_weights`] asks
//! its element generator for one row at a time, into a buffer reused for
//! every row, and keeps only that row's bits.  Each median is found by
//! selection (Hoare's FIND, CACM 1961) in linear time rather than by a full
//! sort.  Under [`f64::total_cmp`] no two distinct bit patterns compare
//! equal, so the value selection puts at `len / 2` has exactly the bits a
//! full sort puts there, and every `v > median` bit is the sort's.

use crate::error::WorkloadError;

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

/// `v > median` for every value of a non-empty slice, the median being the
/// value a sort by [`f64::total_cmp`] puts at `len / 2`.  Selection runs on
/// a copy in `scratch`, whose old contents are discarded.
fn above_median(values: &[f64], scratch: &mut Vec<f64>) -> Vec<bool> {
    scratch.clear();
    scratch.extend_from_slice(values);
    let (_, &mut median, _) = scratch.select_nth_unstable_by(values.len() / 2, f64::total_cmp);
    values.iter().map(|&v| v > median).collect()
}

/// The error for a NaN operand, which has no place around a median.
fn nan_operand(name: &str, at: String) -> WorkloadError {
    WorkloadError::InvalidParameter {
        name: name.into(),
        reason: format!("NaN at {at}"),
    }
}

/// Binarises a `rows × cols` weight matrix around each row's median (1
/// when above), lowering it one row at a time: `weight(row, col)` fills a
/// row buffer that every row reuses, so no real-valued matrix is built.
///
/// # Errors
///
/// Returns [`WorkloadError::InvalidParameter`] naming `matrix shape` when a
/// dimension is zero, and naming `weights` at the first NaN element in
/// row-major order.
pub fn binarize_weights(
    (rows, cols): (usize, usize),
    mut weight: impl FnMut(usize, usize) -> f64,
) -> Result<Vec<Vec<bool>>, WorkloadError> {
    if rows == 0 || cols == 0 {
        return Err(WorkloadError::InvalidParameter {
            name: "matrix shape".into(),
            reason: format!("{rows}x{cols} has a zero dimension"),
        });
    }
    let mut row = vec![0.0f64; cols];
    let mut scratch = Vec::with_capacity(cols);
    (0..rows)
        .map(|r| {
            for (c, value) in row.iter_mut().enumerate() {
                *value = weight(r, c);
            }
            if let Some(c) = row.iter().position(|v| v.is_nan()) {
                return Err(nan_operand("weights", format!("row {r}, column {c}")));
            }
            Ok(above_median(&row, &mut scratch))
        })
        .collect()
}

/// Binarises an activation vector around its median (1 when above), the
/// median taken as in [`binarize_weights`].  A NaN never panics;
/// [`binarize_mvm`] rejects NaN operands before they get here.
pub fn binarize_activations(activations: &[f64]) -> Vec<bool> {
    if activations.is_empty() {
        return Vec::new();
    }
    above_median(activations, &mut Vec::with_capacity(activations.len()))
}

/// Builds a [`BinaryMvm`] from real-valued operands: a `rows × cols`
/// weight matrix given by its element generator `weight(row, col)`,
/// lowered row by row as in [`binarize_weights`], and an activation vector
/// of length `cols`.
///
/// # Errors
///
/// Returns [`WorkloadError::ShapeMismatch`] when the activation length does
/// not match `cols`, and [`WorkloadError::InvalidParameter`] when a
/// dimension is zero or when an operand holds a NaN (naming `weights` or
/// `activations`, weights checked first).
pub fn binarize_mvm(
    label: &str,
    (rows, cols): (usize, usize),
    weight: impl FnMut(usize, usize) -> f64,
    activations: &[f64],
) -> Result<BinaryMvm, WorkloadError> {
    if activations.len() != cols {
        return Err(WorkloadError::ShapeMismatch {
            operation: "binarize_mvm".into(),
            left: (rows, cols),
            right: (activations.len(), 1),
        });
    }
    let weights = binarize_weights((rows, cols), weight)?;
    if let Some(i) = activations.iter().position(|v| v.is_nan()) {
        return Err(nan_operand("activations", format!("index {i}")));
    }
    Ok(BinaryMvm {
        weights,
        activations: binarize_activations(activations),
        label: label.to_string(),
    })
}

/// The clone-and-full-sort binariser that selection replaced, kept as the
/// oracle the selection path must match bit for bit.
#[cfg(test)]
pub(crate) fn binarize_sorted(values: &[f64]) -> Vec<bool> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    values.iter().map(|&v| v > median).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let bits =
            binarize_weights((2, 4), |r, c| if r == 0 { c as f64 } else { -(c as f64) }).unwrap();
        assert_eq!(bits.len(), 2);
        assert!(bits[0][3], "largest in row 0 is 1");
        assert!(!bits[1][3], "most negative in row 1 is 0");
        let shape = |rows, cols| binarize_weights((rows, cols), |_, _| 0.0);
        for (rows, cols) in [(0, 3), (3, 0)] {
            match shape(rows, cols) {
                Err(WorkloadError::InvalidParameter { name, reason }) => {
                    assert_eq!(name, "matrix shape");
                    assert_eq!(reason, format!("{rows}x{cols} has a zero dimension"));
                }
                other => panic!("expected a shape error, got {other:?}"),
            }
        }
    }

    #[test]
    fn binary_mvm_construction_and_ideal_outputs() {
        let x: Vec<f64> = (0..8).map(|i| (i % 2) as f64).collect();
        let mvm = binarize_mvm("test", (3, 8), |r, c| ((r + c) % 3) as f64, &x).unwrap();
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
        assert!(binarize_mvm("bad", (2, 4), |_, _| 0.0, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn nan_operands_are_typed_errors() {
        let w = |r: usize, c: usize| (r + c) as f64;
        let x = [0.5, f64::NAN, 1.5];
        match binarize_mvm("nan", (2, 3), w, &x) {
            Err(WorkloadError::InvalidParameter { name, reason }) => {
                assert_eq!(name, "activations");
                assert!(reason.contains("index 1"), "{reason}");
            }
            other => panic!("expected an activations error, got {other:?}"),
        }
        let nan_at_1_2 = |r, c| if (r, c) == (1, 2) { f64::NAN } else { w(r, c) };
        // Weights are checked first, as before the row-by-row lowering.
        for x in [[0.5, 1.0, 1.5], x] {
            match binarize_mvm("nan", (2, 3), nan_at_1_2, &x) {
                Err(WorkloadError::InvalidParameter { name, reason }) => {
                    assert_eq!(name, "weights");
                    assert!(reason.contains("row 1, column 2"), "{reason}");
                }
                other => panic!("expected a weights error, got {other:?}"),
            }
        }
        // The activation binariser itself never panics on a NaN.
        assert_eq!(binarize_activations(&x).len(), 3);
    }

    /// Values that must all binarise as the sort does: signed zeros,
    /// infinities, the extremes and the smallest subnormals.
    const SPECIAL: [f64; 10] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
    ];

    /// One value, not NaN: a special value, a small integer (so rows hold
    /// many ties), a subnormal, an arbitrary bit pattern or a value in
    /// `[-1, 1)`.
    fn value() -> impl Strategy<Value = f64> {
        (0u8..6, 0u64..=u64::MAX).prop_map(|(kind, bits)| match kind {
            0 => SPECIAL[(bits % SPECIAL.len() as u64) as usize],
            1 | 2 => (bits % 7) as f64 - 3.0,
            // Exponent field zero: a subnormal (or a zero) of either sign.
            3 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
            4 if !f64::from_bits(bits).is_nan() => f64::from_bits(bits),
            _ => (bits >> 11) as f64 / (1u64 << 52) as f64 - 1.0,
        })
    }

    proptest! {
        #[test]
        fn selection_binarises_every_row_as_the_sort_does(
            row in prop::collection::vec(value(), 1..601),
        ) {
            prop_assert_eq!(binarize_activations(&row), binarize_sorted(&row));
        }

        #[test]
        fn row_by_row_lowering_matches_the_dense_sorted_matrix(
            (rows, values) in (1usize..7, prop::collection::vec(value(), 6..3601)),
        ) {
            let cols = values.len() / rows;
            let sorted: Vec<Vec<bool>> =
                values.chunks_exact(cols).take(rows).map(binarize_sorted).collect();
            let lowered = binarize_weights((rows, cols), |r, c| values[r * cols + c]).unwrap();
            prop_assert_eq!(lowered, sorted);
        }
    }

    #[test]
    fn selection_matches_the_sort_on_nan_and_every_length() {
        // NaNs of both signs sit at the ends of the total order; the
        // activation binariser keeps them, and every length from 1 to 600,
        // odd and even, takes the same median.
        let pattern = [f64::NAN, -f64::NAN, 1.0, -0.0, 0.0, f64::INFINITY, 5e-324];
        for len in 1..=600 {
            let row: Vec<f64> = (0..len)
                .map(|i| pattern[(i * 7 + len) % pattern.len()])
                .collect();
            assert_eq!(
                binarize_activations(&row),
                binarize_sorted(&row),
                "len {len}"
            );
        }
    }
}
