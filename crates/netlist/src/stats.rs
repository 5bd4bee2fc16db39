//! Netlist statistics.
//!
//! Device and instance counts for a generated design — used by reports, by
//! the Table 2 reproduction (design-complexity context) and by tests that
//! check the generator scales correctly with (H, W, L, B_ADC).

use acim_cell::{CellKind, CellLibrary};

use crate::design::{leaf_cells, Design, CELL_KINDS};
use crate::error::NetlistError;
use crate::module::InstanceRef;

/// Aggregate statistics of a hierarchical design, fully elaborated from the
/// top module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DesignStats {
    /// Number of 8T SRAM bit cells.
    pub sram_cells: usize,
    /// Number of local-array compute cells.
    pub compute_cells: usize,
    /// Number of comparators / sense amplifiers.
    pub comparators: usize,
    /// Number of SAR flip-flops.
    pub sar_dffs: usize,
    /// Number of buffers.
    pub buffers: usize,
    /// Total leaf-cell instances (all kinds).
    pub total_leaf_instances: usize,
    /// Total transistor count (elaborated).
    pub transistors: usize,
    /// Total compute/CDAC capacitor count (elaborated).
    pub capacitors: usize,
}

/// Computes the statistics of a design against a cell library.  A design
/// without a top module has all-zero statistics.
///
/// # Errors
///
/// Returns the first error [`Design::validate`] would report in the top
/// module or a module added before it: an instance whose target is
/// missing, whose arity differs from its target's port count or whose net
/// is beyond its parent's table.
pub fn design_stats(design: &Design, library: &CellLibrary) -> Result<DesignStats, NetlistError> {
    let counts = leaf_counts(design, library)?;
    let count = |kind: CellKind| counts[kind as usize];
    let mut stats = DesignStats {
        sram_cells: count(CellKind::Sram8T),
        compute_cells: count(CellKind::ComputeCell),
        comparators: count(CellKind::Comparator),
        sar_dffs: count(CellKind::SarDff),
        buffers: count(CellKind::Buffer),
        total_leaf_instances: counts.iter().sum(),
        ..DesignStats::default()
    };
    // Elaborated transistor/capacitor counts from the leaf netlists; every
    // counted kind is in the library, or `leaf_counts` failed.
    for (kind, cell) in CellKind::all().into_iter().zip(leaf_cells(library)) {
        if let Some(cell) = cell {
            stats.transistors += count(kind) * cell.netlist().transistor_count();
            stats.capacitors += count(kind) * cell.netlist().capacitor_count();
        }
    }
    Ok(stats)
}

/// Leaf-cell instances per `CellKind as usize` in the hierarchy under the
/// top module, all zero without one.
///
/// Each module's counts are its own leaves plus its callee modules'
/// counts.  A callee is always added before its caller, so one pass in
/// that order counts each module once.
pub(crate) fn leaf_counts(
    design: &Design,
    library: &CellLibrary,
) -> Result<[usize; CELL_KINDS], NetlistError> {
    let Some(top) = design.top_id() else {
        return Ok([0; CELL_KINDS]);
    };
    let cells = leaf_cells(library);
    let mut per_module: Vec<[usize; CELL_KINDS]> = Vec::with_capacity(top.index() + 1);
    for (parent, module) in design.modules()[..=top.index()].iter().enumerate() {
        let mut counts = [0; CELL_KINDS];
        for instance in module.instances() {
            design.callee(&cells, parent, instance)?;
            match instance.reference {
                InstanceRef::LeafCell(kind) => counts[kind as usize] += 1,
                InstanceRef::Module(id) => {
                    for (total, callee) in counts.iter_mut().zip(per_module[id.index()]) {
                        *total += callee;
                    }
                }
            }
        }
        per_module.push(counts);
    }
    Ok(per_module[top.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::NetlistGenerator;
    use acim_arch::AcimSpec;
    use acim_tech::Technology;

    fn stats_for(h: usize, w: usize, l: usize, b: u32) -> DesignStats {
        let tech = Technology::s28();
        let library = CellLibrary::s28_default(&tech);
        let spec = AcimSpec::from_dimensions(h, w, l, b).unwrap();
        let design = NetlistGenerator::new(&library).generate(&spec).unwrap();
        design_stats(&design, &library).unwrap()
    }

    #[test]
    fn counts_scale_with_the_spec() {
        let s = stats_for(64, 16, 4, 3);
        assert_eq!(s.sram_cells, 64 * 16);
        assert_eq!(s.compute_cells, 16 * 16);
        assert_eq!(s.comparators, 16);
        assert_eq!(s.sar_dffs, 16 * 3);
        assert_eq!(s.capacitors, s.compute_cells, "one C_F per compute cell");
        assert!(s.transistors > 8 * s.sram_cells);
        assert!(s.total_leaf_instances > s.sram_cells);
    }

    #[test]
    fn larger_array_has_proportionally_more_cells() {
        let small = stats_for(64, 16, 4, 3);
        let large = stats_for(64, 64, 4, 3);
        assert_eq!(large.sram_cells, 4 * small.sram_cells);
        assert_eq!(large.comparators, 4 * small.comparators);
    }

    #[test]
    fn higher_precision_adds_dffs_only_per_column() {
        let b3 = stats_for(64, 16, 4, 3);
        let b4 = stats_for(64, 16, 4, 4);
        assert_eq!(b4.sar_dffs - b3.sar_dffs, 16);
        assert_eq!(b4.sram_cells, b3.sram_cells);
    }
}
