//! The chip's macro grid: a 2-D mesh of (possibly heterogeneous) ACIM
//! macros.
//!
//! A single macro rarely fits a whole network, so the chip instantiates
//! `rows × cols` macros behind a shared global buffer and a mesh
//! interconnect.  The grid may be heterogeneous — e.g. a few high-SNR
//! macros for accuracy-critical attention layers next to long-local-array
//! macros for energy-tolerant SNN layers — which is exactly the
//! macro-diversity the paper's agile DSE makes cheap to obtain.

use std::fmt;

use acim_arch::AcimSpec;

use crate::error::ChipError;

/// A validated `rows × cols` grid of macro specifications, stored
/// row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroGrid {
    rows: usize,
    cols: usize,
    specs: Vec<AcimSpec>,
}

impl MacroGrid {
    /// Creates a homogeneous grid: every position holds the same macro.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::InvalidConfig`] when the grid is empty.
    pub fn uniform(rows: usize, cols: usize, spec: AcimSpec) -> Result<Self, ChipError> {
        Self::from_specs(rows, cols, vec![spec; rows * cols])
    }

    /// Creates a (possibly heterogeneous) grid from row-major macro specs.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::InvalidConfig`] when the grid is empty or the
    /// spec count does not match `rows · cols`.
    pub fn from_specs(rows: usize, cols: usize, specs: Vec<AcimSpec>) -> Result<Self, ChipError> {
        if rows == 0 || cols == 0 {
            return Err(ChipError::invalid_config(
                "grid",
                format!("grid must be non-empty, got {rows}x{cols}"),
            ));
        }
        if specs.len() != rows * cols {
            return Err(ChipError::invalid_config(
                "grid",
                format!(
                    "{rows}x{cols} grid needs {} specs, got {}",
                    rows * cols,
                    specs.len()
                ),
            ));
        }
        Ok(Self { rows, cols, specs })
    }

    /// Grid height in macros.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid width in macros.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of macro instances.
    pub fn num_macros(&self) -> usize {
        self.specs.len()
    }

    /// The macro specification at a flat index (row-major).
    ///
    /// # Panics
    ///
    /// Panics when `index >= num_macros()`.
    pub fn spec(&self, index: usize) -> &AcimSpec {
        &self.specs[index]
    }

    /// All macro specifications, row-major.
    pub fn specs(&self) -> &[AcimSpec] {
        &self.specs
    }

    /// The (row, col) mesh coordinate of a flat macro index.
    pub fn coordinate(&self, index: usize) -> (usize, usize) {
        (index / self.cols, index % self.cols)
    }

    /// Manhattan hop distance from the global buffer (placed at the mesh
    /// origin, north-west corner) to a macro.
    pub fn hops_from_buffer(&self, index: usize) -> usize {
        let (r, c) = self.coordinate(index);
        r + c
    }

    /// Returns `true` when every macro has the same specification.
    pub fn is_uniform(&self) -> bool {
        self.specs.windows(2).all(|w| w[0] == w[1])
    }

    /// The distinct macro specifications of the grid, in first-appearance
    /// order (a uniform grid has exactly one).
    pub fn distinct_specs(&self) -> Vec<&AcimSpec> {
        let mut distinct: Vec<&AcimSpec> = Vec::new();
        for spec in &self.specs {
            if !distinct.contains(&spec) {
                distinct.push(spec);
            }
        }
        distinct
    }
}

impl fmt::Display for MacroGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_uniform() {
            write!(f, "{}x{} x {}", self.rows, self.cols, self.specs[0])
        } else {
            write!(f, "{}x{} heterogeneous grid", self.rows, self.cols)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(h: usize, w: usize, l: usize, b: u32) -> AcimSpec {
        AcimSpec::from_dimensions(h, w, l, b).unwrap()
    }

    #[test]
    fn uniform_grid_shape_and_totals() {
        let grid = MacroGrid::uniform(2, 3, spec(128, 128, 8, 3)).unwrap();
        assert_eq!(grid.rows(), 2);
        assert_eq!(grid.cols(), 3);
        assert_eq!(grid.num_macros(), 6);
        assert!(grid.is_uniform());
        assert!(grid.to_string().contains("2x3"));
    }

    #[test]
    fn heterogeneous_grid_mixes_macros() {
        let grid =
            MacroGrid::from_specs(1, 2, vec![spec(128, 128, 2, 3), spec(64, 256, 8, 3)]).unwrap();
        assert!(!grid.is_uniform());
        assert_eq!(grid.spec(0).local_array(), 2);
        assert_eq!(grid.spec(1).local_array(), 8);
        assert!(grid.to_string().contains("heterogeneous"));
    }

    #[test]
    fn distinct_specs_deduplicates_in_order() {
        let a = spec(128, 128, 2, 3);
        let b = spec(64, 256, 8, 3);
        let grid = MacroGrid::from_specs(2, 2, vec![a, b, a, b]).unwrap();
        assert_eq!(grid.distinct_specs(), vec![&a, &b]);
        let uniform = MacroGrid::uniform(3, 3, a).unwrap();
        assert_eq!(uniform.distinct_specs().len(), 1);
    }

    #[test]
    fn empty_or_mismatched_grids_rejected() {
        assert!(MacroGrid::uniform(0, 2, spec(128, 128, 8, 3)).is_err());
        assert!(MacroGrid::uniform(2, 0, spec(128, 128, 8, 3)).is_err());
        assert!(MacroGrid::from_specs(2, 2, vec![spec(128, 128, 8, 3)]).is_err());
    }

    #[test]
    fn mesh_coordinates_and_hops() {
        let grid = MacroGrid::uniform(2, 3, spec(128, 128, 8, 3)).unwrap();
        assert_eq!(grid.coordinate(0), (0, 0));
        assert_eq!(grid.coordinate(4), (1, 1));
        assert_eq!(grid.hops_from_buffer(0), 0);
        assert_eq!(grid.hops_from_buffer(5), 3);
    }
}
