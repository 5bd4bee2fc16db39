//! Transistor-level netlist templates of the leaf cells.
//!
//! The customized cell library of the paper ships SPICE netlists for every
//! component (8T SRAM, sense amplifier, SAR logic, …).  The reproduction
//! carries the same information as a structured device list that the
//! SPICE writer in `acim-netlist` serialises.

use std::fmt;

/// The kind of a primitive device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// N-channel MOSFET (terminals: drain, gate, source, bulk).
    Nmos,
    /// P-channel MOSFET (terminals: drain, gate, source, bulk).
    Pmos,
    /// Metal-fringe capacitor (terminals: top, bottom).
    Capacitor,
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            DeviceKind::Nmos => "nmos",
            DeviceKind::Pmos => "pmos",
            DeviceKind::Capacitor => "cap",
        };
        f.write_str(text)
    }
}

/// A primitive device instance inside a leaf cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Instance name, e.g. `"MN0"`.
    pub name: String,
    /// Device kind.
    pub kind: DeviceKind,
    /// Terminal-to-net connections, in the canonical terminal order of the
    /// device kind (D G S B for MOSFETs, TOP BOT for capacitors).
    pub terminals: Vec<String>,
    /// Size parameter: width multiple (MOSFET) or capacitance in fF
    /// (capacitor).
    pub size: f64,
}

impl Device {
    /// Creates a MOSFET device.
    pub fn mosfet(
        name: impl Into<String>,
        kind: DeviceKind,
        drain: &str,
        gate: &str,
        source: &str,
        bulk: &str,
        width_multiple: f64,
    ) -> Self {
        Self {
            name: name.into(),
            kind,
            terminals: vec![
                drain.to_string(),
                gate.to_string(),
                source.to_string(),
                bulk.to_string(),
            ],
            size: width_multiple,
        }
    }

    /// Creates a capacitor device.
    pub fn capacitor(name: impl Into<String>, top: &str, bottom: &str, cap_ff: f64) -> Self {
        Self {
            name: name.into(),
            kind: DeviceKind::Capacitor,
            terminals: vec![top.to_string(), bottom.to_string()],
            size: cap_ff,
        }
    }
}

/// The transistor-level netlist of one leaf cell.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellNetlist {
    /// Port (external net) names in declaration order.
    pub ports: Vec<String>,
    /// Primitive devices.
    pub devices: Vec<Device>,
}

impl CellNetlist {
    /// Creates an empty netlist with the given ports.
    pub fn new(ports: Vec<String>) -> Self {
        Self {
            ports,
            devices: Vec::new(),
        }
    }

    /// Adds a device.
    pub fn push(&mut self, device: Device) {
        self.devices.push(device);
    }

    /// Number of transistors (excluding capacitors).
    pub fn transistor_count(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| matches!(d.kind, DeviceKind::Nmos | DeviceKind::Pmos))
            .count()
    }

    /// Number of capacitors.
    pub fn capacitor_count(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| d.kind == DeviceKind::Capacitor)
            .count()
    }
}

/// Builds the 8T SRAM bit-cell netlist: a cross-coupled 6T core plus the
/// decoupled 2T read port (RWL / RBL).
pub fn sram_8t_netlist() -> CellNetlist {
    let mut netlist = CellNetlist::new(
        ["BL", "BLB", "WL", "RWL", "RBL", "VDD", "VSS"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    // Storage inverters.
    netlist.push(Device::mosfet(
        "MPU0",
        DeviceKind::Pmos,
        "Q",
        "QB",
        "VDD",
        "VDD",
        1.0,
    ));
    netlist.push(Device::mosfet(
        "MPD0",
        DeviceKind::Nmos,
        "Q",
        "QB",
        "VSS",
        "VSS",
        1.0,
    ));
    netlist.push(Device::mosfet(
        "MPU1",
        DeviceKind::Pmos,
        "QB",
        "Q",
        "VDD",
        "VDD",
        1.0,
    ));
    netlist.push(Device::mosfet(
        "MPD1",
        DeviceKind::Nmos,
        "QB",
        "Q",
        "VSS",
        "VSS",
        1.0,
    ));
    // Write access transistors.
    netlist.push(Device::mosfet(
        "MWA0",
        DeviceKind::Nmos,
        "BL",
        "WL",
        "Q",
        "VSS",
        1.2,
    ));
    netlist.push(Device::mosfet(
        "MWA1",
        DeviceKind::Nmos,
        "BLB",
        "WL",
        "QB",
        "VSS",
        1.2,
    ));
    // Decoupled read port.
    netlist.push(Device::mosfet(
        "MRD0",
        DeviceKind::Nmos,
        "RDINT",
        "QB",
        "VSS",
        "VSS",
        1.5,
    ));
    netlist.push(Device::mosfet(
        "MRD1",
        DeviceKind::Nmos,
        "RBL",
        "RWL",
        "RDINT",
        "VSS",
        1.5,
    ));
    netlist
}

/// Builds the local-array-shared computing-cell netlist: the compute
/// capacitor `C_F`, its reset/precharge devices and the group-control
/// switches (P/N switching of the bottom plate).
pub fn compute_cell_netlist(cap_ff: f64) -> CellNetlist {
    let mut netlist = CellNetlist::new(
        ["RBL", "MOUT", "PCH", "RST", "P", "N", "VCM", "VDD", "VSS"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    netlist.push(Device::capacitor("CF", "MOUT", "CBOT", cap_ff));
    // Top-plate reset to VCM.
    netlist.push(Device::mosfet(
        "MRST",
        DeviceKind::Nmos,
        "MOUT",
        "RST",
        "VCM",
        "VSS",
        1.0,
    ));
    // Precharge of the read bit-line.
    netlist.push(Device::mosfet(
        "MPCH",
        DeviceKind::Pmos,
        "RBL",
        "PCH",
        "VDD",
        "VDD",
        2.0,
    ));
    // Bottom-plate switching for the SAR groups: P switch to VDD, N switch
    // to VSS, plus the redistribution switch onto the RBL.
    netlist.push(Device::mosfet(
        "MSWP",
        DeviceKind::Pmos,
        "CBOT",
        "P",
        "VDD",
        "VDD",
        2.0,
    ));
    netlist.push(Device::mosfet(
        "MSWN",
        DeviceKind::Nmos,
        "CBOT",
        "N",
        "VSS",
        "VSS",
        2.0,
    ));
    netlist.push(Device::mosfet(
        "MSHR",
        DeviceKind::Nmos,
        "CBOT",
        "RST",
        "RBL",
        "VSS",
        2.0,
    ));
    netlist
}

/// Builds the dynamic comparator / sense-amplifier netlist (StrongARM
/// style: clocked tail, cross-coupled pair, output latch).
pub fn comparator_netlist() -> CellNetlist {
    let mut netlist = CellNetlist::new(
        ["INP", "INN", "CLK", "COM", "COMB", "VDD", "VSS"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    netlist.push(Device::mosfet(
        "MTAIL",
        DeviceKind::Nmos,
        "TAIL",
        "CLK",
        "VSS",
        "VSS",
        4.0,
    ));
    netlist.push(Device::mosfet(
        "MINP",
        DeviceKind::Nmos,
        "X",
        "INP",
        "TAIL",
        "VSS",
        3.0,
    ));
    netlist.push(Device::mosfet(
        "MINN",
        DeviceKind::Nmos,
        "Y",
        "INN",
        "TAIL",
        "VSS",
        3.0,
    ));
    netlist.push(Device::mosfet(
        "MCCN0",
        DeviceKind::Nmos,
        "COM",
        "COMB",
        "X",
        "VSS",
        2.0,
    ));
    netlist.push(Device::mosfet(
        "MCCN1",
        DeviceKind::Nmos,
        "COMB",
        "COM",
        "Y",
        "VSS",
        2.0,
    ));
    netlist.push(Device::mosfet(
        "MCCP0",
        DeviceKind::Pmos,
        "COM",
        "COMB",
        "VDD",
        "VDD",
        2.0,
    ));
    netlist.push(Device::mosfet(
        "MCCP1",
        DeviceKind::Pmos,
        "COMB",
        "COM",
        "VDD",
        "VDD",
        2.0,
    ));
    netlist.push(Device::mosfet(
        "MRSP0",
        DeviceKind::Pmos,
        "COM",
        "CLK",
        "VDD",
        "VDD",
        1.0,
    ));
    netlist.push(Device::mosfet(
        "MRSP1",
        DeviceKind::Pmos,
        "COMB",
        "CLK",
        "VDD",
        "VDD",
        1.0,
    ));
    netlist
}

/// Builds the dynamic D flip-flop netlist of the SAR logic (true
/// single-phase-clock style).
pub fn dff_netlist() -> CellNetlist {
    let mut netlist = CellNetlist::new(
        ["D", "CLK", "Q", "QB", "VDD", "VSS"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    netlist.push(Device::mosfet(
        "MP0",
        DeviceKind::Pmos,
        "N1",
        "D",
        "VDD",
        "VDD",
        1.0,
    ));
    netlist.push(Device::mosfet(
        "MN0",
        DeviceKind::Nmos,
        "N1",
        "CLK",
        "N2",
        "VSS",
        1.0,
    ));
    netlist.push(Device::mosfet(
        "MN1",
        DeviceKind::Nmos,
        "N2",
        "D",
        "VSS",
        "VSS",
        1.0,
    ));
    netlist.push(Device::mosfet(
        "MP1",
        DeviceKind::Pmos,
        "N3",
        "CLK",
        "VDD",
        "VDD",
        1.0,
    ));
    netlist.push(Device::mosfet(
        "MN2",
        DeviceKind::Nmos,
        "N3",
        "N1",
        "VSS",
        "VSS",
        1.0,
    ));
    netlist.push(Device::mosfet(
        "MP2",
        DeviceKind::Pmos,
        "Q",
        "N3",
        "VDD",
        "VDD",
        1.5,
    ));
    netlist.push(Device::mosfet(
        "MN3",
        DeviceKind::Nmos,
        "Q",
        "N3",
        "VSS",
        "VSS",
        1.5,
    ));
    netlist.push(Device::mosfet(
        "MP3",
        DeviceKind::Pmos,
        "QB",
        "Q",
        "VDD",
        "VDD",
        1.0,
    ));
    netlist.push(Device::mosfet(
        "MN4",
        DeviceKind::Nmos,
        "QB",
        "Q",
        "VSS",
        "VSS",
        1.0,
    ));
    netlist
}

/// Builds the CMOS transmission-gate switch used to isolate redundant CDAC
/// capacitance for low-precision conversions (Section 3.1).
pub fn cmos_switch_netlist() -> CellNetlist {
    let mut netlist = CellNetlist::new(
        ["A", "B", "EN", "ENB", "VDD", "VSS"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    netlist.push(Device::mosfet(
        "MTGN",
        DeviceKind::Nmos,
        "A",
        "EN",
        "B",
        "VSS",
        3.0,
    ));
    netlist.push(Device::mosfet(
        "MTGP",
        DeviceKind::Pmos,
        "A",
        "ENB",
        "B",
        "VDD",
        3.0,
    ));
    netlist
}

/// Builds a simple inverting buffer netlist (used for the CIM input/output
/// buffers and clock drivers).
pub fn buffer_netlist() -> CellNetlist {
    let mut netlist = CellNetlist::new(
        ["A", "Y", "VDD", "VSS"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    netlist.push(Device::mosfet(
        "MP0",
        DeviceKind::Pmos,
        "MID",
        "A",
        "VDD",
        "VDD",
        2.0,
    ));
    netlist.push(Device::mosfet(
        "MN0",
        DeviceKind::Nmos,
        "MID",
        "A",
        "VSS",
        "VSS",
        1.0,
    ));
    netlist.push(Device::mosfet(
        "MP1",
        DeviceKind::Pmos,
        "Y",
        "MID",
        "VDD",
        "VDD",
        4.0,
    ));
    netlist.push(Device::mosfet(
        "MN1",
        DeviceKind::Nmos,
        "Y",
        "MID",
        "VSS",
        "VSS",
        2.0,
    ));
    netlist
}

/// Builds the per-column SAR control-logic netlist skeleton: `bits`
/// flip-flop stages are instantiated structurally by the netlist generator,
/// so the leaf template only carries the sequencing gates.
pub fn sar_logic_netlist() -> CellNetlist {
    let mut netlist = CellNetlist::new(
        ["CLK", "COM", "COMB", "START", "DONE", "VDD", "VSS"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    netlist.push(Device::mosfet(
        "MP0",
        DeviceKind::Pmos,
        "SEQ",
        "START",
        "VDD",
        "VDD",
        1.0,
    ));
    netlist.push(Device::mosfet(
        "MN0",
        DeviceKind::Nmos,
        "SEQ",
        "CLK",
        "SEQ1",
        "VSS",
        1.0,
    ));
    netlist.push(Device::mosfet(
        "MN1",
        DeviceKind::Nmos,
        "SEQ1",
        "COM",
        "VSS",
        "VSS",
        1.0,
    ));
    netlist.push(Device::mosfet(
        "MP1",
        DeviceKind::Pmos,
        "DONE",
        "SEQ",
        "VDD",
        "VDD",
        1.0,
    ));
    netlist.push(Device::mosfet(
        "MN2",
        DeviceKind::Nmos,
        "DONE",
        "SEQ",
        "VSS",
        "VSS",
        1.0,
    ));
    netlist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_cell_has_eight_transistors() {
        let n = sram_8t_netlist();
        assert_eq!(n.transistor_count(), 8);
        assert_eq!(n.capacitor_count(), 0);
        assert!(n.ports.contains(&"RWL".to_string()));
        assert!(n.ports.contains(&"RBL".to_string()));
        // Q/QB are internal: device terminals, not ports.
        for net in ["Q", "QB"] {
            assert!(!n.ports.iter().any(|port| port == net));
            assert!(n
                .devices
                .iter()
                .any(|d| d.terminals.iter().any(|t| t == net)));
        }
    }

    #[test]
    fn compute_cell_has_one_capacitor() {
        let n = compute_cell_netlist(1.2);
        assert_eq!(n.capacitor_count(), 1);
        assert!(n.transistor_count() >= 4);
        let cap = n
            .devices
            .iter()
            .find(|d| d.kind == DeviceKind::Capacitor)
            .unwrap();
        assert_eq!(cap.size, 1.2);
        assert_eq!(cap.terminals[0], "MOUT");
    }

    #[test]
    fn comparator_is_differential() {
        let n = comparator_netlist();
        assert!(n.ports.contains(&"INP".to_string()));
        assert!(n.ports.contains(&"INN".to_string()));
        assert!(n.ports.contains(&"COM".to_string()));
        assert!(n.ports.contains(&"COMB".to_string()));
        assert!(n.transistor_count() >= 9);
    }

    #[test]
    fn device_constructors() {
        let m = Device::mosfet("MX", DeviceKind::Pmos, "d", "g", "s", "b", 2.5);
        assert_eq!(m.terminals.len(), 4);
        assert_eq!(m.size, 2.5);
        let c = Device::capacitor("C1", "t", "b", 0.6);
        assert_eq!(c.terminals, vec!["t", "b"]);
        assert_eq!(DeviceKind::Capacitor.to_string(), "cap");
    }
}
