//! Modules, nets and instances, connected by position.
//!
//! A [`Module`] owns one net table: its ports first, in declaration order,
//! then its internal nets.  A [`NetId`] indexes that table.  An
//! [`Instance`] holds one `NetId` per port of its target, in the target's
//! port order (a module's ports, or a leaf cell's `netlist().ports`), so
//! a connection is a position, not a name.  Net names are formatted once,
//! into the table, and only the writers read them.

use std::fmt;

use acim_cell::CellKind;

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

/// A net of a module: an index into the module's net table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(u32);

impl NetId {
    /// The explicit open connection: a port left unconnected.  The SPICE
    /// writer names it `UNCONNECTED_{instance}_{port}`.
    pub const OPEN: NetId = NetId(u32::MAX);

    /// The net at `index` of a net table.
    ///
    /// # Panics
    ///
    /// Panics when `index` does not fit below `u32::MAX`; a net table that
    /// large would hold billions of names.
    pub fn new(index: usize) -> Self {
        match u32::try_from(index) {
            Ok(index) if index != u32::MAX => Self(index),
            _ => panic!("net index {index} exceeds the u32 net table"),
        }
    }

    /// The index into the net table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is [`NetId::OPEN`].
    pub fn is_open(self) -> bool {
        self == Self::OPEN
    }

    /// The net `by` places after this one in the same table.
    pub(crate) fn offset(self, by: usize) -> Self {
        Self::new(self.index() + by)
    }
}

/// A module of a [`Design`](crate::Design): its position in the order the
/// modules were added.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(pub(crate) u32);

impl ModuleId {
    /// The module at `index` of a design's module list.
    pub(crate) fn new(index: usize) -> Self {
        Self(u32::try_from(index).expect("a design holds fewer than 2^32 modules"))
    }

    /// The position in [`Design::modules`](crate::Design::modules).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "module #{}", self.0)
    }
}

/// What an instance refers to: a leaf cell of the customized cell library
/// or another module of the design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceRef {
    /// A leaf cell, by kind.
    LeafCell(CellKind),
    /// A module added to the design before the instance's parent.
    Module(ModuleId),
}

/// A placed-in-hierarchy instance: a name, what it instantiates and one
/// net per port of its target, in the target's port order.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Instance name, unique within its parent module.
    pub name: String,
    /// What the instance refers to.
    pub reference: InstanceRef,
    /// The parent's net on each port of the target, in the target's port
    /// order; [`NetId::OPEN`] leaves a port unconnected.
    pub nets: Vec<NetId>,
}

impl Instance {
    /// Creates an instance.
    pub fn new(
        name: impl Into<String>,
        reference: InstanceRef,
        nets: impl Into<Vec<NetId>>,
    ) -> Self {
        Self {
            name: name.into(),
            reference,
            nets: nets.into(),
        }
    }
}

/// A hierarchical module: a net table whose first entries are the ports,
/// and instances wired into it by position.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    name: String,
    /// Net names: the ports in declaration order, then the internal nets.
    nets: Vec<String>,
    /// One direction per port, so its length is the port count.
    directions: Vec<PortDirection>,
    instances: Vec<Instance>,
}

impl Module {
    /// Creates a module without ports.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_ports(name, std::iter::empty::<(String, PortDirection)>())
    }

    /// Creates a module with `ports`, in order; port `k` is net `k`.
    pub fn with_ports<S: Into<String>>(
        name: impl Into<String>,
        ports: impl IntoIterator<Item = (S, PortDirection)>,
    ) -> Self {
        let (nets, directions) = ports
            .into_iter()
            .map(|(port, direction)| (port.into(), direction))
            .unzip();
        Self {
            name: name.into(),
            nets,
            directions,
            instances: Vec::new(),
        }
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares an internal net and returns its id.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        self.nets.push(name.into());
        NetId::new(self.nets.len() - 1)
    }

    /// Adds an instance.  [`Design::validate`](crate::Design::validate)
    /// checks its nets against its target.
    pub fn add_instance(&mut self, instance: Instance) {
        self.instances.push(instance);
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.directions.len()
    }

    /// Port names in declaration order: the head of [`nets`](Self::nets).
    pub fn port_names(&self) -> &[String] {
        &self.nets[..self.port_count()]
    }

    /// Ports with their directions, in declaration order.
    pub fn ports(&self) -> impl Iterator<Item = (&str, PortDirection)> {
        self.port_names()
            .iter()
            .map(String::as_str)
            .zip(self.directions.iter().copied())
    }

    /// The net table: ports first, then internal nets, in declaration
    /// order.  A [`NetId`] indexes it.
    pub fn nets(&self) -> &[String] {
        &self.nets
    }

    /// The name of `net`, or `None` for [`NetId::OPEN`] or an id beyond
    /// the table.
    pub fn net_name(&self, net: NetId) -> Option<&str> {
        self.nets.get(net.index()).map(String::as_str)
    }

    /// Instances in declaration order.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;
    use acim_cell::CellLibrary;
    use acim_tech::Technology;

    fn sample_module() -> Module {
        let mut m = Module::with_ports(
            "COLUMN",
            [
                ("RBL", PortDirection::Inout),
                ("CLK", PortDirection::Input),
                ("DOUT", PortDirection::Output),
            ],
        );
        let com = m.add_net("COM");
        m.add_instance(Instance::new(
            "XCOMP",
            InstanceRef::LeafCell(CellKind::Comparator),
            // INP, INN, CLK, COM, COMB, VDD, VSS.
            [
                NetId::new(0),
                NetId::OPEN,
                NetId::new(1),
                com,
                NetId::OPEN,
                NetId::OPEN,
                NetId::OPEN,
            ],
        ));
        m
    }

    /// The instance called `name`.  Only tests look instances up by name.
    fn instance<'m>(module: &'m Module, name: &str) -> Option<&'m Instance> {
        module.instances().iter().find(|i| i.name == name)
    }

    /// The number of instances of the leaf cell called `cell`.
    fn count_instances_of(module: &Module, cell: &str) -> usize {
        module
            .instances()
            .iter()
            .filter(
                |i| matches!(i.reference, InstanceRef::LeafCell(kind) if kind.cell_name() == cell),
            )
            .count()
    }

    /// The net on `port` of a leaf-cell instance of `module`, resolved
    /// through the cell's port list; `None` for an open or unknown port.
    fn net_for<'m>(
        module: &'m Module,
        instance: &Instance,
        library: &CellLibrary,
        port: &str,
    ) -> Option<&'m str> {
        let InstanceRef::LeafCell(kind) = instance.reference else {
            return None;
        };
        let ports = &library.cell(kind)?.netlist().ports;
        let position = ports.iter().position(|p| p == port)?;
        module.net_name(instance.nets[position])
    }

    #[test]
    fn ports_are_also_nets() {
        let m = sample_module();
        assert_eq!(m.port_count(), 3);
        assert!(m.nets().contains(&"RBL".to_string()));
        assert!(m.nets().contains(&"COM".to_string()));
        assert_eq!(m.nets(), ["RBL", "CLK", "DOUT", "COM"]);
        assert_eq!(&m.nets()[m.port_count()..], ["COM"]);
        assert_eq!(m.port_names(), ["RBL", "CLK", "DOUT"]);
        assert_eq!(
            m.ports().collect::<Vec<_>>(),
            [
                ("RBL", PortDirection::Inout),
                ("CLK", PortDirection::Input),
                ("DOUT", PortDirection::Output),
            ]
        );
    }

    #[test]
    fn add_net_returns_the_next_index() {
        let mut m = Module::with_ports("Y", [("A", PortDirection::Input)]);
        assert_eq!(m.add_net("N0"), NetId::new(1));
        assert_eq!(m.add_net("N1"), NetId::new(2));
        assert_eq!(m.nets(), ["A", "N0", "N1"]);
        assert_eq!(Module::new("EMPTY").port_count(), 0);
    }

    #[test]
    fn instance_lookup_and_counting() {
        let library = CellLibrary::s28_default(&Technology::s28());
        let m = sample_module();
        assert!(instance(&m, "XCOMP").is_some());
        assert!(instance(&m, "MISSING").is_none());
        assert_eq!(count_instances_of(&m, "COMP_SA"), 1);
        assert_eq!(count_instances_of(&m, "SRAM8T"), 0);
        let xcomp = instance(&m, "XCOMP").unwrap();
        assert_eq!(net_for(&m, xcomp, &library, "INP"), Some("RBL"));
        assert_eq!(net_for(&m, xcomp, &library, "COM"), Some("COM"));
        assert_eq!(net_for(&m, xcomp, &library, "INN"), None);
        assert_eq!(net_for(&m, xcomp, &library, "NOPE"), None);
        assert_eq!(m.net_name(NetId::OPEN), None);
        assert_eq!(m.net_name(NetId::new(4)), None);
    }

    #[test]
    fn reference_kinds() {
        // A leaf reference names its cell by kind; a module reference is
        // the module's position in its design.
        let mut design = Design::new("test");
        design.add_module(Module::new("LOCAL_ARRAY")).unwrap();
        let column = design.add_module(Module::new("COLUMN")).unwrap();
        let name = |reference| match reference {
            InstanceRef::LeafCell(kind) => kind.cell_name(),
            InstanceRef::Module(id) => design.modules()[id.index()].name(),
        };
        assert_eq!(name(InstanceRef::LeafCell(CellKind::Sram8T)), "SRAM8T");
        assert_eq!(name(InstanceRef::Module(column)), "COLUMN");
        assert_eq!(column.to_string(), "module #1");
        assert_eq!(PortDirection::Inout.to_string(), "inout");
    }

    #[test]
    fn net_ids_index_the_table() {
        assert!(NetId::OPEN.is_open());
        assert!(!NetId::new(0).is_open());
        assert_eq!(NetId::new(3).offset(4), NetId::new(7));
        assert_eq!(NetId::new(7).index(), 7);
    }
}
