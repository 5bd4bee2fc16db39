//! Template-based ACIM netlist generator (Section 3.3).
//!
//! The generator expands a validated [`AcimSpec`] into a three-level
//! hierarchy built from the leaf cells of the customized cell library:
//!
//! * `LOCAL_ARRAY` — `L` 8T SRAM cells sharing one compute cell,
//! * `COLUMN` — `H / L` local arrays, the CMOS isolation switch, the
//!   comparator / sense amplifier, the SAR control logic and `B_ADC`
//!   flip-flops; local arrays are wired to the SAR group-control signals
//!   `P_k` / `N_k` according to the binary CDAC grouping,
//! * `ACIM_TOP` — `W` columns plus the CIM input buffers (one per read
//!   word-line) and the output buffers (one per column output bit).

use std::iter;

use acim_arch::AcimSpec;
use acim_cell::{CellKind, CellLibrary};

use crate::design::Design;
use crate::error::NetlistError;
use crate::module::{Instance, InstanceRef, Module, ModuleId, NetId, PortDirection};

use PortDirection::{Inout, Input, Output};

/// Module names produced by the generator.
pub mod names {
    /// The local-array module.
    pub const LOCAL_ARRAY: &str = "LOCAL_ARRAY";
    /// The column module.
    pub const COLUMN: &str = "COLUMN";
    /// The top-level macro module.
    pub const TOP: &str = "ACIM_TOP";
}

/// `LOCAL_ARRAY`'s ports after its `RWL_i`/`WL_i` pairs.
const LOCAL_ARRAY_PORTS: [(&str, PortDirection); 10] = [
    ("BL", Inout),
    ("BLB", Inout),
    ("RBL", Inout),
    ("PCH", Input),
    ("RST", Input),
    ("P", Input),
    ("N", Input),
    ("VCM", Inout),
    ("VDD", Inout),
    ("VSS", Inout),
];

/// `COLUMN`'s ports after its `RWL_row`/`WL_row` pairs and `DOUT_bit`s.
const COLUMN_PORTS: [(&str, PortDirection); 9] = [
    ("BL", Inout),
    ("BLB", Inout),
    ("PCH", Input),
    ("RST", Input),
    ("CLK", Input),
    ("START", Input),
    ("VCM", Inout),
    ("VDD", Inout),
    ("VSS", Inout),
];

/// `ACIM_TOP`'s ports after its `IN_row`/`WL_row` pairs and per-column
/// `OUT_col_bit`s, `BL_col` and `BLB_col`.
const TOP_PORTS: [(&str, PortDirection); 7] = [
    ("PCH", Input),
    ("RST", Input),
    ("CLK", Input),
    ("START", Input),
    ("VCM", Inout),
    ("VDD", Inout),
    ("VSS", Inout),
];

/// The `N` nets starting at `base`, in order.
fn consecutive<const N: usize>(base: usize) -> [NetId; N] {
    std::array::from_fn(|k| NetId::new(base + k))
}

/// The `indexed` ports, then the fixed `tail`.
fn port_list<'t>(
    indexed: impl Iterator<Item = (String, PortDirection)> + 't,
    tail: &'t [(&str, PortDirection)],
) -> impl Iterator<Item = (String, PortDirection)> + 't {
    indexed.chain(
        tail.iter()
            .map(|&(port, direction)| (port.to_string(), direction)),
    )
}

/// Where the ports a template wires sit in a leaf cell's port list,
/// looked up once per module so each instance is wired by position.
struct Pins<const N: usize> {
    kind: CellKind,
    /// The cell's port count.
    count: usize,
    /// `slots[k]` is the position of the template's `k`-th port.
    slots: [usize; N],
}

impl<const N: usize> Pins<N> {
    /// An instance with `nets[k]` on the template's `k`-th port and any
    /// other port of the cell open.
    fn instance(&self, name: String, nets: [NetId; N]) -> Instance {
        let mut wired = vec![NetId::OPEN; self.count];
        for (&slot, net) in self.slots.iter().zip(nets) {
            wired[slot] = net;
        }
        Instance::new(name, InstanceRef::LeafCell(self.kind), wired)
    }
}

/// Template-based netlist generator bound to a cell library.
#[derive(Debug, Clone)]
pub struct NetlistGenerator<'a> {
    library: &'a CellLibrary,
}

impl<'a> NetlistGenerator<'a> {
    /// Creates a generator using `library` for leaf cells.
    pub fn new(library: &'a CellLibrary) -> Self {
        Self { library }
    }

    /// Generates the full hierarchical netlist for a specification.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] when a required leaf cell is missing from
    /// the library, lacks a port the templates wire, or the generated
    /// design fails validation.
    pub fn generate(&self, spec: &AcimSpec) -> Result<Design, NetlistError> {
        // Fail early if any required cell is missing.
        for kind in CellKind::all() {
            self.library.require(kind)?;
        }

        let mut design = Design::new(format!(
            "acim_{}x{}_l{}_b{}",
            spec.height(),
            spec.width(),
            spec.local_array(),
            spec.adc_bits()
        ));
        let local_array = design.add_module(self.local_array_module(spec)?)?;
        let column = design.add_module(self.column_module(spec, local_array)?)?;
        design.add_module(self.top_module(spec, column)?)?;
        design.set_top(names::TOP)?;
        design.validate(self.library)?;
        Ok(design)
    }

    /// Positions of `ports` in `kind`'s port list; `instance` names the
    /// first instance wired with them, for the error.
    fn pins<const N: usize>(
        &self,
        kind: CellKind,
        instance: &str,
        ports: [&str; N],
    ) -> Result<Pins<N>, NetlistError> {
        let cell_ports = &self.library.require(kind)?.netlist().ports;
        let mut slots = [0; N];
        for (slot, port) in slots.iter_mut().zip(ports) {
            *slot = cell_ports.iter().position(|p| p == port).ok_or_else(|| {
                NetlistError::UnknownPort {
                    instance: instance.to_string(),
                    target: kind.cell_name().to_string(),
                    port: port.to_string(),
                }
            })?;
        }
        Ok(Pins {
            kind,
            count: cell_ports.len(),
            slots,
        })
    }

    /// `LOCAL_ARRAY`: `L` SRAM cells plus the shared compute cell.
    ///
    /// Ports: `RWL_i`, `WL_i` for each `i < L` (nets `2i`, `2i + 1`), then
    /// [`LOCAL_ARRAY_PORTS`].
    fn local_array_module(&self, spec: &AcimSpec) -> Result<Module, NetlistError> {
        let l = spec.local_array();
        let mut m = Module::with_ports(
            names::LOCAL_ARRAY,
            port_list(
                (0..l).flat_map(|i| [(format!("RWL_{i}"), Input), (format!("WL_{i}"), Input)]),
                &LOCAL_ARRAY_PORTS,
            ),
        );
        let [bl, blb, rbl, pch, rst, p, n, vcm, vdd, vss] = consecutive(2 * l);
        // The local compute node shared by the read ports of the L cells and
        // the top plate of the compute capacitor.
        let lbl = m.add_net("LBL");
        let sram = self.pins(
            CellKind::Sram8T,
            "XSRAM_0",
            ["WL", "RWL", "BL", "BLB", "RBL", "VDD", "VSS"],
        )?;
        for i in 0..l {
            let [rwl, wl] = consecutive(2 * i);
            m.add_instance(sram.instance(format!("XSRAM_{i}"), [wl, rwl, bl, blb, lbl, vdd, vss]));
        }
        let compute = self.pins(
            CellKind::ComputeCell,
            "XLC",
            ["MOUT", "RBL", "PCH", "RST", "P", "N", "VCM", "VDD", "VSS"],
        )?;
        m.add_instance(
            compute.instance("XLC".to_string(), [lbl, rbl, pch, rst, p, n, vcm, vdd, vss]),
        );
        Ok(m)
    }

    /// `COLUMN`: `H / L` local arrays, CDAC isolation switch, comparator,
    /// SAR logic and `B_ADC` flip-flops.
    ///
    /// Ports: `RWL_row`, `WL_row` for each row (nets `2 row`, `2 row + 1`),
    /// `DOUT_bit` (net `2H + bit`), then [`COLUMN_PORTS`].
    fn column_module(
        &self,
        spec: &AcimSpec,
        local_array: ModuleId,
    ) -> Result<Module, NetlistError> {
        let h = spec.height();
        let l = spec.local_array();
        let n_local = spec.capacitors_per_column();
        let bits = spec.adc_bits() as usize;
        let mut m = Module::with_ports(
            names::COLUMN,
            port_list(
                (0..h)
                    .flat_map(|row| [(format!("RWL_{row}"), Input), (format!("WL_{row}"), Input)])
                    .chain((0..bits).map(|bit| (format!("DOUT_{bit}"), Output))),
                &COLUMN_PORTS,
            ),
        );
        let dout = |bit: usize| NetId::new(2 * h + bit);
        let [bl, blb, pch, rst, clk, start, vcm, vdd, vss] = consecutive(2 * h + bits);

        // The column read bit-line every compute cell redistributes onto.
        let rbl = m.add_net("RBL");
        let rbl_spare = m.add_net("RBL_SPARE");
        let com = m.add_net("COM");
        let comb = m.add_net("COMB");
        let sar_done = m.add_net("SAR_DONE");
        // SAR group controls `P_g`, `N_g` for the `B_ADC + 1` groups.
        let group_sizes = spec.sar_group_sizes();
        let p_0 = NetId::new(m.nets().len());
        for group in 0..group_sizes.len() {
            m.add_net(format!("P_{group}"));
            m.add_net(format!("N_{group}"));
        }
        let p = |group: usize| p_0.offset(2 * group);
        let n = |group: usize| p_0.offset(2 * group + 1);

        // Assign local arrays to SAR groups: group k gets as many
        // consecutive local arrays as the k-th of `sar_group_sizes()`;
        // any spare local arrays beyond 2^B reuse the last group's
        // controls (they are isolated by the CMOS switch during
        // conversion).
        let last = group_sizes.len() - 1;
        let group_of_local = group_sizes
            .enumerate()
            .flat_map(|(group, size)| iter::repeat_n(group, size))
            .chain(iter::repeat(last));
        for (j, group) in group_of_local.take(n_local).enumerate() {
            // LOCAL_ARRAY's port order: its rows' RWL/WL pairs, then
            // LOCAL_ARRAY_PORTS.
            let rows = (0..2 * l).map(|k| NetId::new(2 * j * l + k));
            let shared = [bl, blb, rbl, pch, rst, p(group), n(group), vcm, vdd, vss];
            m.add_instance(Instance::new(
                format!("XLA_{j}"),
                InstanceRef::Module(local_array),
                rows.chain(shared).collect::<Vec<_>>(),
            ));
        }

        // CMOS switch separating the spare (non-CDAC) capacitance from the
        // RBL during conversion (Section 3.1).
        let switch = self.pins(
            CellKind::CmosSwitch,
            "XSW",
            ["A", "B", "EN", "ENB", "VDD", "VSS"],
        )?;
        m.add_instance(switch.instance("XSW".to_string(), [rbl, rbl_spare, rst, pch, vdd, vss]));

        // Comparator / sense amplifier.
        let comparator = self.pins(
            CellKind::Comparator,
            "XCOMP",
            ["INP", "INN", "CLK", "COM", "COMB", "VDD", "VSS"],
        )?;
        m.add_instance(
            comparator.instance("XCOMP".to_string(), [rbl, vcm, clk, com, comb, vdd, vss]),
        );

        // SAR sequencing logic.
        let sar = self.pins(
            CellKind::SarLogic,
            "XSARCTRL",
            ["CLK", "COM", "COMB", "START", "DONE", "VDD", "VSS"],
        )?;
        m.add_instance(sar.instance(
            "XSARCTRL".to_string(),
            [clk, com, comb, start, sar_done, vdd, vss],
        ));

        // One DFF per output bit; Q drives the data output and QB the
        // negative group control of the matching SAR group.
        let dff = self.pins(
            CellKind::SarDff,
            "XDFF_0",
            ["D", "CLK", "Q", "QB", "VDD", "VSS"],
        )?;
        for bit in 0..bits {
            m.add_instance(dff.instance(
                format!("XDFF_{bit}"),
                [com, clk, dout(bit), n(bit + 1), vdd, vss],
            ));
        }
        Ok(m)
    }

    /// `ACIM_TOP`: `W` columns plus input and output buffers.
    ///
    /// Ports: `IN_row`, `WL_row` for each row (nets `2 row`, `2 row + 1`),
    /// then per column `OUT_col_bit` for each bit, `BL_col` and `BLB_col`
    /// (a block of `B_ADC + 2` nets from `2H`), then [`TOP_PORTS`].
    /// Internal nets: `RWL_row` for each row, then `D_col_bit`.
    fn top_module(&self, spec: &AcimSpec, column: ModuleId) -> Result<Module, NetlistError> {
        let h = spec.height();
        let w = spec.width();
        let bits = spec.adc_bits() as usize;
        let stride = bits + 2;
        let mut m = Module::with_ports(
            names::TOP,
            port_list(
                (0..h)
                    .flat_map(|row| [(format!("IN_{row}"), Input), (format!("WL_{row}"), Input)])
                    .chain((0..w).flat_map(|col| {
                        (0..bits)
                            .map(move |bit| (format!("OUT_{col}_{bit}"), Output))
                            .chain([(format!("BL_{col}"), Inout), (format!("BLB_{col}"), Inout)])
                    })),
                &TOP_PORTS,
            ),
        );
        let input = |row: usize| NetId::new(2 * row);
        let wl = |row: usize| NetId::new(2 * row + 1);
        let out = |col: usize, bit: usize| NetId::new(2 * h + col * stride + bit);
        let bl = |col: usize| out(col, bits);
        let blb = |col: usize| out(col, bits + 1);
        let [pch, rst, clk, start, vcm, vdd, vss] = consecutive(2 * h + w * stride);

        let rwl_0 = NetId::new(m.nets().len());
        for row in 0..h {
            m.add_net(format!("RWL_{row}"));
        }
        let rwl = |row: usize| rwl_0.offset(row);
        let d_0 = NetId::new(m.nets().len());
        for col in 0..w {
            for bit in 0..bits {
                m.add_net(format!("D_{col}_{bit}"));
            }
        }
        let d = |col: usize, bit: usize| d_0.offset(col * bits + bit);

        // CIM input buffers: one per read word-line, driving the buffered
        // RWL distributed to every column.
        let buffer = self.pins(CellKind::Buffer, "XIBUF_0", ["A", "Y", "VDD", "VSS"])?;
        for row in 0..h {
            m.add_instance(
                buffer.instance(format!("XIBUF_{row}"), [input(row), rwl(row), vdd, vss]),
            );
        }

        // Columns, wired in COLUMN's port order: the RWL/WL pairs, the
        // DOUT bits, then COLUMN_PORTS.
        for col in 0..w {
            let rows = (0..h).flat_map(|row| [rwl(row), wl(row)]);
            let douts = (0..bits).map(|bit| d(col, bit));
            let shared = [bl(col), blb(col), pch, rst, clk, start, vcm, vdd, vss];
            let mut nets = Vec::with_capacity(2 * h + bits + shared.len());
            nets.extend(rows.chain(douts).chain(shared));
            m.add_instance(Instance::new(
                format!("XCOL_{col}"),
                InstanceRef::Module(column),
                nets,
            ));
        }

        // CIM output buffers: one per column output bit.
        for col in 0..w {
            for bit in 0..bits {
                m.add_instance(buffer.instance(
                    format!("XOBUF_{col}_{bit}"),
                    [d(col, bit), out(col, bit), vdd, vss],
                ));
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::leaf_counts;
    use acim_tech::Technology;

    fn library() -> CellLibrary {
        CellLibrary::s28_default(&Technology::s28())
    }

    fn generate(h: usize, w: usize, l: usize, b: u32) -> Design {
        let spec = AcimSpec::from_dimensions(h, w, l, b).unwrap();
        NetlistGenerator::new(&library()).generate(&spec).unwrap()
    }

    /// The net `instance` of `module` connects to its target's `port`,
    /// looked up through the target's port list.
    fn net_of<'d>(design: &'d Design, module: &str, instance: &str, port: &str) -> &'d str {
        let library = library();
        let parent = design.module(module).unwrap();
        let instance = parent
            .instances()
            .iter()
            .find(|i| i.name == instance)
            .unwrap();
        let position = match instance.reference {
            InstanceRef::LeafCell(kind) => library
                .cell(kind)
                .unwrap()
                .netlist()
                .ports
                .iter()
                .position(|p| p == port),
            InstanceRef::Module(id) => design.modules()[id.index()]
                .port_names()
                .iter()
                .position(|p| p == port),
        }
        .unwrap();
        parent.net_name(instance.nets[position]).unwrap()
    }

    /// Instances of `module` whose reference is `reference`.
    fn count_instances_of(module: &Module, reference: InstanceRef) -> usize {
        module
            .instances()
            .iter()
            .filter(|i| i.reference == reference)
            .count()
    }

    #[test]
    fn generated_design_validates_and_has_three_levels() {
        let design = generate(64, 16, 4, 3);
        assert_eq!(design.module_count(), 3);
        assert!(design.module(names::LOCAL_ARRAY).is_some());
        assert!(design.module(names::COLUMN).is_some());
        assert_eq!(design.top().unwrap().name(), names::TOP);
    }

    #[test]
    fn leaf_instance_counts_match_the_architecture() {
        let (h, w, l, b) = (64usize, 16usize, 4usize, 3u32);
        let design = generate(h, w, l, b);
        let counts = leaf_counts(&design, &library()).unwrap();
        let count = |kind: CellKind| counts[kind as usize];
        // One SRAM cell per bit.
        assert_eq!(count(CellKind::Sram8T), h * w);
        // One compute cell per local array.
        assert_eq!(count(CellKind::ComputeCell), (h / l) * w);
        // One comparator, switch and SAR controller per column.
        assert_eq!(count(CellKind::Comparator), w);
        assert_eq!(count(CellKind::CmosSwitch), w);
        assert_eq!(count(CellKind::SarLogic), w);
        // B_ADC flip-flops per column.
        assert_eq!(count(CellKind::SarDff), w * b as usize);
        // H input buffers + W·B output buffers.
        assert_eq!(count(CellKind::Buffer), h + w * b as usize);
    }

    #[test]
    fn column_module_wires_sar_groups_binary() {
        let design = generate(128, 16, 8, 3);
        // 16 local arrays; group sizes 1,1,2,4 fill 8, the remaining 8 spare
        // local arrays reuse the last group.
        let p_of = |j: usize| net_of(&design, names::COLUMN, &format!("XLA_{j}"), "P");
        assert_eq!(p_of(0), "P_0");
        assert_eq!(p_of(1), "P_1");
        assert_eq!(p_of(2), "P_2");
        assert_eq!(p_of(3), "P_2");
        assert_eq!(p_of(4), "P_3");
        assert_eq!(p_of(7), "P_3");
        assert_eq!(p_of(8), "P_3", "spare local arrays reuse the last group");
        assert_eq!(p_of(15), "P_3");
        assert_eq!(net_of(&design, names::COLUMN, "XLA_5", "N"), "N_3");
        assert_eq!(net_of(&design, names::COLUMN, "XLA_3", "RWL_1"), "RWL_25");
        assert_eq!(net_of(&design, names::COLUMN, "XDFF_2", "QB"), "N_3");
        assert_eq!(net_of(&design, names::COLUMN, "XDFF_2", "Q"), "DOUT_2");
    }

    #[test]
    fn local_array_has_l_sram_cells_and_one_compute_cell() {
        let design = generate(64, 16, 4, 3);
        let la = design.module(names::LOCAL_ARRAY).unwrap();
        assert_eq!(
            count_instances_of(la, InstanceRef::LeafCell(CellKind::Sram8T)),
            4
        );
        assert_eq!(
            count_instances_of(la, InstanceRef::LeafCell(CellKind::ComputeCell)),
            1
        );
        // All SRAM read ports share the local bit-line.
        for i in 0..4 {
            let sram = format!("XSRAM_{i}");
            assert_eq!(net_of(&design, names::LOCAL_ARRAY, &sram, "RBL"), "LBL");
            assert_eq!(
                net_of(&design, names::LOCAL_ARRAY, &sram, "RWL"),
                format!("RWL_{i}")
            );
        }
        assert_eq!(net_of(&design, names::LOCAL_ARRAY, "XLC", "MOUT"), "LBL");
    }

    #[test]
    fn top_module_exposes_the_expected_interface() {
        let design = generate(64, 16, 4, 3);
        let top = design.top().unwrap();
        let ports = top.port_names();
        for port in ["IN_0", "IN_63", "OUT_15_2", "CLK"] {
            assert!(ports.iter().any(|p| p == port), "missing port {port}");
        }
        let column = design.module_id(names::COLUMN).unwrap();
        assert_eq!(count_instances_of(top, InstanceRef::Module(column)), 16);
        assert_eq!(net_of(&design, names::TOP, "XCOL_7", "DOUT_1"), "D_7_1");
        assert_eq!(net_of(&design, names::TOP, "XCOL_7", "BLB"), "BLB_7");
        assert_eq!(net_of(&design, names::TOP, "XCOL_7", "RWL_63"), "RWL_63");
        assert_eq!(net_of(&design, names::TOP, "XCOL_7", "WL_63"), "WL_63");
        assert_eq!(net_of(&design, names::TOP, "XOBUF_15_2", "Y"), "OUT_15_2");
        assert_eq!(net_of(&design, names::TOP, "XIBUF_63", "A"), "IN_63");
    }

    #[test]
    fn design_name_encodes_the_spec() {
        let design = generate(128, 128, 8, 3);
        assert_eq!(design.name(), "acim_128x128_l8_b3");
    }

    #[test]
    fn a_cell_without_a_wired_port_is_a_typed_error() {
        // A buffer without its output port Y: the first input buffer cannot
        // be wired.
        let mut library = library();
        let buffer = library.cell(CellKind::Buffer).unwrap();
        let (width, height) = (buffer.width_nm(), buffer.height_nm());
        let ports = ["A", "VDD", "VSS"].map(String::from).to_vec();
        library.insert(
            acim_cell::LeafCell::new(
                CellKind::Buffer,
                acim_cell::CellNetlist::new(ports),
                width,
                height,
                Vec::new(),
            )
            .unwrap(),
        );
        let spec = AcimSpec::from_dimensions(64, 16, 4, 3).unwrap();
        assert_eq!(
            NetlistGenerator::new(&library).generate(&spec).unwrap_err(),
            NetlistError::UnknownPort {
                instance: "XIBUF_0".into(),
                target: "BUF".into(),
                port: "Y".into(),
            }
        );
    }
}
