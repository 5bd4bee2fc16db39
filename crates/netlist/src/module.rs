//! Modules, ports, nets and instances.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// Direction of a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDirection {
    /// Signal input.
    Input,
    /// Signal output.
    Output,
    /// Bidirectional or analog signal.
    Inout,
}

impl fmt::Display for PortDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            PortDirection::Input => "input",
            PortDirection::Output => "output",
            PortDirection::Inout => "inout",
        };
        f.write_str(text)
    }
}

/// What an instance refers to: a leaf cell from the customized cell library
/// or another module of the design.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum InstanceRef {
    /// A leaf cell, by its canonical cell name (e.g. `"SRAM8T"`).
    LeafCell(String),
    /// Another module of the same design.
    Module(String),
}

impl InstanceRef {
    /// The referenced name.
    pub fn name(&self) -> &str {
        match self {
            InstanceRef::LeafCell(name) | InstanceRef::Module(name) => name,
        }
    }
}

/// A placed-in-hierarchy instance: a name, what it instantiates and its
/// port→net connections.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Instance name, unique within its parent module.
    pub name: String,
    /// What the instance refers to.
    pub reference: InstanceRef,
    /// Port-to-net map (port name of the target → net name in the parent).
    pub connections: BTreeMap<String, String>,
}

impl Instance {
    /// Creates an instance.
    pub fn new(
        name: impl Into<String>,
        reference: InstanceRef,
        connections: impl IntoIterator<Item = (String, String)>,
    ) -> Self {
        Self {
            name: name.into(),
            reference,
            connections: connections.into_iter().collect(),
        }
    }

    /// The net connected to `port`, if any.
    pub fn net_for(&self, port: &str) -> Option<&str> {
        self.connections.get(port).map(String::as_str)
    }
}

/// A hierarchical module: ports, nets and instances.
#[derive(Clone, PartialEq, Default)]
pub struct Module {
    name: String,
    ports: Vec<(String, PortDirection)>,
    /// Nets in declaration order.
    nets: Vec<String>,
    /// The names in `nets`, so deduplication is a hash lookup rather than
    /// a scan.
    net_index: HashSet<String>,
    instances: Vec<Instance>,
}

// By hand so the output keeps the declaration-ordered fields only: the
// index repeats `nets` in hash order.
impl fmt::Debug for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Module")
            .field("name", &self.name)
            .field("ports", &self.ports)
            .field("nets", &self.nets)
            .field("instances", &self.instances)
            .finish()
    }
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a port (also declares the corresponding net).
    pub fn add_port(&mut self, name: impl Into<String>, direction: PortDirection) {
        let name = name.into();
        self.add_net(name.clone());
        self.ports.push((name, direction));
    }

    /// Declares an internal net (idempotent).
    pub fn add_net(&mut self, name: impl Into<String>) {
        let name = name.into();
        if !self.net_index.contains(&name) {
            self.net_index.insert(name.clone());
            self.nets.push(name);
        }
    }

    /// Adds an instance.
    pub fn add_instance(&mut self, instance: Instance) {
        // Any net referenced by a connection becomes a net of this module;
        // only a net not yet declared is copied.
        for net in instance.connections.values() {
            if !self.net_index.contains(net) {
                self.add_net(net.as_str());
            }
        }
        self.instances.push(instance);
    }

    /// Ports in declaration order.
    pub fn ports(&self) -> &[(String, PortDirection)] {
        &self.ports
    }

    /// Port names in declaration order.
    pub fn port_names(&self) -> Vec<&str> {
        self.ports.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// All nets (ports first, then internal nets, in declaration order).
    pub fn nets(&self) -> &[String] {
        &self.nets
    }

    /// Instances in declaration order.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Looks an instance up by name.
    pub fn instance(&self, name: &str) -> Option<&Instance> {
        self.instances.iter().find(|i| i.name == name)
    }

    /// Returns the nets that are not ports.
    pub fn internal_nets(&self) -> Vec<&str> {
        let ports: HashSet<&str> = self.ports.iter().map(|(p, _)| p.as_str()).collect();
        self.nets
            .iter()
            .map(String::as_str)
            .filter(|n| !ports.contains(n))
            .collect()
    }

    /// Counts instances whose reference matches `name`.
    pub fn count_instances_of(&self, name: &str) -> usize {
        self.instances
            .iter()
            .filter(|i| i.reference.name() == name)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_module() -> Module {
        let mut m = Module::new("COLUMN");
        m.add_port("RBL", PortDirection::Inout);
        m.add_port("CLK", PortDirection::Input);
        m.add_port("DOUT", PortDirection::Output);
        m.add_net("COM");
        m.add_instance(Instance::new(
            "XCOMP",
            InstanceRef::LeafCell("COMP_SA".into()),
            [
                ("INP".to_string(), "RBL".to_string()),
                ("CLK".to_string(), "CLK".to_string()),
                ("COM".to_string(), "COM".to_string()),
            ],
        ));
        m
    }

    #[test]
    fn ports_are_also_nets() {
        let m = sample_module();
        assert_eq!(m.ports().len(), 3);
        assert!(m.nets().contains(&"RBL".to_string()));
        assert!(m.nets().contains(&"COM".to_string()));
        assert_eq!(m.internal_nets(), vec!["COM"]);
        assert_eq!(m.port_names(), vec!["RBL", "CLK", "DOUT"]);
    }

    #[test]
    fn add_net_is_idempotent() {
        let mut m = Module::new("X");
        m.add_net("A");
        m.add_net("A");
        assert_eq!(m.nets().len(), 1);

        // A port re-declared as a net keeps its one entry, in the position
        // it was first declared, among nets added before and after it.
        let mut m = Module::new("Y");
        m.add_net("N0");
        m.add_port("A", PortDirection::Input);
        m.add_net("N1");
        m.add_net("A");
        m.add_net("N0");
        m.add_net("N2");
        m.add_instance(Instance::new(
            "XB",
            InstanceRef::LeafCell("BUF".into()),
            [
                ("A".to_string(), "A".to_string()),
                ("Y".to_string(), "N3".to_string()),
            ],
        ));
        assert_eq!(m.nets(), ["N0", "A", "N1", "N2", "N3"]);
        assert_eq!(m.internal_nets(), vec!["N0", "N1", "N2", "N3"]);
    }

    #[test]
    fn instance_lookup_and_counting() {
        let m = sample_module();
        assert!(m.instance("XCOMP").is_some());
        assert!(m.instance("MISSING").is_none());
        assert_eq!(m.count_instances_of("COMP_SA"), 1);
        assert_eq!(m.count_instances_of("SRAM8T"), 0);
        assert_eq!(m.instance("XCOMP").unwrap().net_for("INP"), Some("RBL"));
        assert_eq!(m.instance("XCOMP").unwrap().net_for("NOPE"), None);
    }

    #[test]
    fn instance_connections_create_nets() {
        // A net referenced only by an instance connection is still declared
        // in the parent module.
        let mut m2 = Module::new("Y");
        m2.add_instance(Instance::new(
            "XB",
            InstanceRef::Module("BUF".into()),
            [("A".to_string(), "NEWNET".to_string())],
        ));
        assert!(m2.nets().contains(&"NEWNET".to_string()));
    }

    #[test]
    fn reference_kinds() {
        assert_eq!(InstanceRef::LeafCell("SRAM8T".into()).name(), "SRAM8T");
        assert_eq!(InstanceRef::Module("COLUMN".into()).name(), "COLUMN");
        assert_eq!(PortDirection::Inout.to_string(), "inout");
    }
}
