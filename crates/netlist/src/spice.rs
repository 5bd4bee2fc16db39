//! SPICE netlist writer.
//!
//! Serialises a hierarchical [`Design`] (plus the transistor-level contents
//! of the referenced leaf cells) into a flat-file SPICE deck with `.SUBCKT`
//! definitions — the exchange format the paper's customized cell library
//! uses for its component netlists.

use std::borrow::Cow;
use std::fmt::Write as _;

use acim_cell::{CellLibrary, DeviceKind};

use crate::design::Design;
use crate::error::NetlistError;
use crate::module::InstanceRef;

/// Writes a design as a SPICE deck.
///
/// Leaf-cell subcircuits are emitted first (transistor level), then the
/// hierarchical modules bottom-up (instance level), and finally a top-level
/// instantiation comment.
///
/// # Errors
///
/// Returns [`NetlistError::UnknownReference`] when an instance references a
/// leaf cell that is not in the library.
pub fn write_spice(design: &Design, library: &CellLibrary) -> Result<String, NetlistError> {
    let mut out = String::new();
    let _ = writeln!(out, "* SPICE netlist for design `{}`", design.name());
    let _ = writeln!(
        out,
        "* generated by the EasyACIM reproduction netlist writer"
    );
    let _ = writeln!(out);

    // Leaf cells used anywhere in the design.
    let mut used_cells: Vec<String> = Vec::new();
    for module in design.modules() {
        for instance in module.instances() {
            if let InstanceRef::LeafCell(name) = &instance.reference {
                if !used_cells.contains(name) {
                    used_cells.push(name.clone());
                }
            }
        }
    }
    used_cells.sort();

    for cell_name in &used_cells {
        let cell =
            library
                .cell_by_name(cell_name)
                .ok_or_else(|| NetlistError::UnknownReference {
                    name: cell_name.clone(),
                    referenced_from: "spice writer".to_string(),
                })?;
        let netlist = cell.netlist();
        let _ = writeln!(out, ".SUBCKT {} {}", cell.name(), netlist.ports.join(" "));
        for device in &netlist.devices {
            match device.kind {
                DeviceKind::Nmos => {
                    let _ = writeln!(
                        out,
                        "M{} {} nch W={:.3}u L=0.03u",
                        device.name,
                        device.terminals.join(" "),
                        0.09 * device.size
                    );
                }
                DeviceKind::Pmos => {
                    let _ = writeln!(
                        out,
                        "M{} {} pch W={:.3}u L=0.03u",
                        device.name,
                        device.terminals.join(" "),
                        0.12 * device.size
                    );
                }
                DeviceKind::Capacitor => {
                    let _ = writeln!(
                        out,
                        "C{} {} {:.3}f",
                        device.name,
                        device.terminals.join(" "),
                        device.size
                    );
                }
            }
        }
        let _ = writeln!(out, ".ENDS {}", cell.name());
        let _ = writeln!(out);
    }

    // Hierarchical modules.  BTreeMap iteration is alphabetical, which puts
    // COLUMN and LOCAL_ARRAY before the top module in the generated designs;
    // SPICE does not require definition-before-use, so ordering is cosmetic.
    for module in design.modules() {
        let _ = write!(out, ".SUBCKT {} ", module.name());
        push_joined(
            &mut out,
            module.ports().iter().map(|(port, _)| port.as_str()),
        );
        out.push('\n');
        for instance in module.instances() {
            let unknown = |name: &String| NetlistError::UnknownReference {
                name: name.clone(),
                referenced_from: module.name().to_string(),
            };
            let net = |port: &str| {
                instance.net_for(port).map_or_else(
                    // Unconnected ports are tied to an explicit open net.
                    || Cow::Owned(format!("UNCONNECTED_{}_{port}", instance.name)),
                    Cow::Borrowed,
                )
            };
            out.push('X');
            out.push_str(&instance.name);
            out.push(' ');
            // Connections must be emitted in the target's port order.
            match &instance.reference {
                InstanceRef::LeafCell(name) => {
                    let cell = library.cell_by_name(name).ok_or_else(|| unknown(name))?;
                    push_joined(&mut out, cell.netlist().ports.iter().map(|p| net(p)));
                }
                InstanceRef::Module(name) => {
                    let target = design.module(name).ok_or_else(|| unknown(name))?;
                    push_joined(&mut out, target.ports().iter().map(|(p, _)| net(p)));
                }
            }
            out.push(' ');
            out.push_str(instance.reference.name());
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

/// Appends `items` to `out`, separated by single spaces.
fn push_joined<S: AsRef<str>>(out: &mut String, items: impl IntoIterator<Item = S>) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(item.as_ref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::NetlistGenerator;
    use crate::module::{Instance, Module, PortDirection};
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
        let mut sub = Module::new("SUB");
        sub.add_port("A", PortDirection::Input);
        sub.add_port("B", PortDirection::Output);
        design.add_module(sub).unwrap();
        design.add_module(Module::new("EMPTY")).unwrap();
        let mut top = Module::new("TOP");
        top.add_instance(Instance::new(
            "U",
            InstanceRef::Module("SUB".into()),
            [("A".to_string(), "n".to_string())],
        ));
        top.add_instance(Instance::new("E", InstanceRef::Module("EMPTY".into()), []));
        design.add_module(top).unwrap();
        let deck = write_spice(&design, &library).unwrap();
        assert!(deck.contains("\n.SUBCKT EMPTY \n.ENDS EMPTY\n"), "{deck}");
        assert!(deck.contains("\nXU n UNCONNECTED_U_B SUB\n"), "{deck}");
        assert!(deck.contains("\nXE  EMPTY\n"), "{deck}");
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
