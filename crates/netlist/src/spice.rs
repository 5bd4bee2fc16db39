//! SPICE netlist writer.
//!
//! Serialises a hierarchical [`Design`] (plus the transistor-level contents
//! of the referenced leaf cells) into a flat-file SPICE deck with `.SUBCKT`
//! definitions — the exchange format the paper's customized cell library
//! uses for its component netlists.

use std::fmt::{self, Write as _};

use acim_cell::{CellKind, CellLibrary, DeviceKind};

use crate::design::{leaf_cells, Design, CELL_KINDS};
use crate::error::NetlistError;
use crate::module::{Instance, InstanceRef};

/// Writes a design as a SPICE deck.
///
/// Leaf-cell subcircuits are emitted first (transistor level), then the
/// hierarchical modules (instance level), and finally a top-level
/// instantiation comment.  An instance's nets already follow its target's
/// port order, so each connection is written by position.
///
/// # Errors
///
/// Returns the first error [`Design::validate`] would, for a design built
/// by hand: an instance whose target is missing from the library or the
/// design, whose arity is wrong, or whose net is beyond its parent's table.
pub fn write_spice(design: &Design, library: &CellLibrary) -> Result<String, NetlistError> {
    let cells = leaf_cells(library);
    let mut out = String::new();
    let _ = writeln!(out, "* SPICE netlist for design `{}`", design.name());
    let _ = writeln!(
        out,
        "* generated by the EasyACIM reproduction netlist writer"
    );
    let _ = writeln!(out);

    // The first instance of each leaf-cell kind used anywhere in the design.
    let mut users: [Option<&Instance>; CELL_KINDS] = [None; CELL_KINDS];
    for instance in design.modules().iter().flat_map(|m| m.instances()) {
        if let InstanceRef::LeafCell(kind) = instance.reference {
            users[kind as usize].get_or_insert(instance);
        }
    }
    // Leaf subcircuits in name order.
    let mut kinds = CellKind::all();
    kinds.sort_by_key(|kind| kind.cell_name());
    for kind in kinds {
        let Some(user) = users[kind as usize] else {
            continue;
        };
        let cell = cells[kind as usize].ok_or_else(|| NetlistError::UnknownReference {
            instance: user.name.clone(),
            target: kind.cell_name().to_string(),
        })?;
        let netlist = cell.netlist();
        let _ = writeln!(out, ".SUBCKT {} {}", cell.name(), Joined(&netlist.ports));
        for device in &netlist.devices {
            let terminals = Joined(&device.terminals);
            let _ = match device.kind {
                DeviceKind::Nmos => writeln!(
                    out,
                    "M{} {terminals} nch W={:.3}u L=0.03u",
                    device.name,
                    0.09 * device.size
                ),
                DeviceKind::Pmos => writeln!(
                    out,
                    "M{} {terminals} pch W={:.3}u L=0.03u",
                    device.name,
                    0.12 * device.size
                ),
                DeviceKind::Capacitor => {
                    writeln!(out, "C{} {terminals} {:.3}f", device.name, device.size)
                }
            };
        }
        let _ = writeln!(out, ".ENDS {}", cell.name());
        let _ = writeln!(out);
    }

    // Hierarchical modules in name order: `ACIM_TOP`, `COLUMN`, then
    // `LOCAL_ARRAY` in the generated designs, an order the byte digests of
    // `tests/emit_bytes.rs` pin.  SPICE does not require definition before
    // use.
    let mut order: Vec<usize> = (0..design.module_count()).collect();
    order.sort_by_key(|&index| design.modules()[index].name());
    for parent in order {
        let module = &design.modules()[parent];
        let _ = writeln!(
            out,
            ".SUBCKT {} {}",
            module.name(),
            Joined(module.port_names())
        );
        for instance in module.instances() {
            let callee = design.callee(&cells, parent, instance)?;
            out.push('X');
            out.push_str(&instance.name);
            out.push(' ');
            for (position, (&net, port)) in instance.nets.iter().zip(callee.ports).enumerate() {
                if position > 0 {
                    out.push(' ');
                }
                match module.net_name(net) {
                    Some(name) => out.push_str(name),
                    // An open port is tied to an explicit unconnected net.
                    None => {
                        let _ = write!(out, "UNCONNECTED_{}_{port}", instance.name);
                    }
                }
            }
            out.push(' ');
            out.push_str(callee.name);
            out.push('\n');
        }
        let _ = writeln!(out, ".ENDS {}", module.name());
        let _ = writeln!(out);
    }

    if let Some(top) = design.top() {
        let _ = writeln!(out, "* top module: {}", top.name());
    }
    let _ = writeln!(out, ".END");
    Ok(out)
}

/// Displays names separated by single spaces, without joining them into
/// a new string.
struct Joined<'a>(&'a [String]);

impl fmt::Display for Joined<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, item) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_char(' ')?;
            }
            f.write_str(item)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::NetlistGenerator;
    use crate::module::{Module, NetId, PortDirection};
    use acim_arch::AcimSpec;
    use acim_tech::Technology;

    fn small_design() -> (Design, CellLibrary) {
        let tech = Technology::s28();
        let library = CellLibrary::s28_default(&tech);
        let spec = AcimSpec::from_dimensions(16, 4, 4, 2).unwrap();
        let design = NetlistGenerator::new(&library).generate(&spec).unwrap();
        (design, library)
    }

    #[test]
    fn spice_deck_contains_all_subckts() {
        let (design, library) = small_design();
        let deck = write_spice(&design, &library).unwrap();
        for name in [
            "SRAM8T",
            "LC_CELL",
            "COMP_SA",
            "SAR_DFF",
            "LOCAL_ARRAY",
            "COLUMN",
            "ACIM_TOP",
        ] {
            assert!(
                deck.contains(&format!(".SUBCKT {name}")),
                "missing subckt {name}"
            );
        }
        assert!(deck.trim_end().ends_with(".END"));
    }

    #[test]
    fn subckt_and_ends_are_balanced() {
        let (design, library) = small_design();
        let deck = write_spice(&design, &library).unwrap();
        let subckts = deck.matches(".SUBCKT").count();
        let ends = deck.matches(".ENDS").count();
        assert_eq!(subckts, ends);
        assert!(subckts >= 8);
    }

    #[test]
    fn transistor_lines_have_sizes() {
        let (design, library) = small_design();
        let deck = write_spice(&design, &library).unwrap();
        assert!(deck.contains("nch W="));
        assert!(deck.contains("pch W="));
        assert!(
            deck.contains("f\n") || deck.contains("f\r\n"),
            "capacitor value present"
        );
    }

    #[test]
    fn open_ports_and_empty_port_lists_keep_their_spacing() {
        let library = CellLibrary::s28_default(&Technology::s28());
        let mut design = Design::new("edge");
        let sub = design
            .add_module(Module::with_ports(
                "SUB",
                [("A", PortDirection::Input), ("B", PortDirection::Output)],
            ))
            .unwrap();
        let empty = design.add_module(Module::new("EMPTY")).unwrap();
        let mut top = Module::new("TOP");
        let n = top.add_net("n");
        top.add_instance(Instance::new(
            "U",
            InstanceRef::Module(sub),
            [n, NetId::OPEN],
        ));
        top.add_instance(Instance::new("E", InstanceRef::Module(empty), []));
        design.add_module(top).unwrap();
        let deck = write_spice(&design, &library).unwrap();
        assert!(deck.contains("\n.SUBCKT EMPTY \n.ENDS EMPTY\n"), "{deck}");
        assert!(deck.contains("\nXU n UNCONNECTED_U_B SUB\n"), "{deck}");
        assert!(deck.contains("\nXE  EMPTY\n"), "{deck}");
    }

    #[test]
    fn modules_and_leaf_cells_are_written_in_name_order() {
        let (design, library) = small_design();
        let deck = write_spice(&design, &library).unwrap();
        let subckts: Vec<&str> = deck
            .lines()
            .filter_map(|line| line.strip_prefix(".SUBCKT "))
            .map(|rest| rest.split(' ').next().unwrap())
            .collect();
        assert_eq!(
            subckts,
            [
                "BUF",
                "COMP_SA",
                "CSW",
                "LC_CELL",
                "SAR_CTRL",
                "SAR_DFF",
                "SRAM8T",
                "ACIM_TOP",
                "COLUMN",
                "LOCAL_ARRAY"
            ]
        );
    }

    #[test]
    fn instance_lines_reference_targets_last() {
        let (design, library) = small_design();
        let deck = write_spice(&design, &library).unwrap();
        let line = deck
            .lines()
            .find(|l| l.starts_with("XXCOL_0 "))
            .expect("column instance present");
        assert!(line.trim_end().ends_with("COLUMN"));
    }
}
