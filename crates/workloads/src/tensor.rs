//! Minimal dense matrix type used by the workloads.

use crate::error::WorkloadError;

/// A row-major dense `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] when either dimension is
    /// zero.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self, WorkloadError> {
        if rows == 0 || cols == 0 {
            return Err(WorkloadError::InvalidParameter {
                name: "matrix shape".into(),
                reason: format!("{rows}x{cols} has a zero dimension"),
            });
        }
        Ok(Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        })
    }

    /// Creates a matrix from a generator `f(row, col)`.
    ///
    /// # Errors
    ///
    /// See [`Matrix::zeros`].
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(
        rows: usize,
        cols: usize,
        mut f: F,
    ) -> Result<Self, WorkloadError> {
        let mut m = Self::zeros(rows, cols)?;
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        Ok(m)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of range"
        );
        self.data[row * self.cols + col]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of range"
        );
        self.data[row * self.cols + col] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3).unwrap();
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(Matrix::zeros(0, 3).is_err());
    }

    #[test]
    fn from_fn_fills_elements() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64).unwrap();
        assert_eq!(m.get(2, 2), 8.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_access_panics() {
        let m = Matrix::zeros(2, 2).unwrap();
        let _ = m.get(2, 0);
    }
}
