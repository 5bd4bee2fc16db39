//! The hierarchical design: a set of modules, each instance wired by
//! position to a leaf cell of the customized cell library or to a module
//! added before its parent.
//!
//! Modules live in the order they were added, and a [`ModuleId`] is that
//! position.  Because an instance may only refer to an earlier module,
//! the hierarchy is acyclic and a single pass in that order visits every
//! callee before its callers, which is how [`design_stats`](crate::design_stats)
//! counts leaves.  [`Design::validate`] checks each instance's target,
//! arity and net range without building any name set.

use acim_cell::{CellKind, CellLibrary, LeafCell};

use crate::error::NetlistError;
use crate::module::{Instance, InstanceRef, Module, ModuleId};

/// A complete hierarchical netlist.
#[derive(Debug, Clone, Default)]
pub struct Design {
    name: String,
    /// Modules in the order they were added; a [`ModuleId`] indexes it.
    modules: Vec<Module>,
    top: Option<ModuleId>,
}

/// The number of leaf-cell kinds; `CellKind as usize` is below it.
pub(crate) const CELL_KINDS: usize = 7;

/// A library's leaf cells, indexed by `CellKind as usize` and resolved
/// once per walk over a design.
pub(crate) type LeafCells<'a> = [Option<&'a LeafCell>; CELL_KINDS];

/// Resolves every leaf-cell kind of `library` once.
pub(crate) fn leaf_cells(library: &CellLibrary) -> LeafCells<'_> {
    CellKind::all().map(|kind| library.cell(kind))
}

/// What an instance's nets line up with.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Callee<'a> {
    /// The target module or cell name.
    pub name: &'a str,
    /// The target's ports, in the order the instance's nets follow.
    pub ports: &'a [String],
}

impl Design {
    /// Creates an empty design.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            modules: Vec::new(),
            top: None,
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a module and returns its id.  Instances of later modules may
    /// refer to it.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateModule`] when a module with the same
    /// name already exists.
    pub fn add_module(&mut self, module: Module) -> Result<ModuleId, NetlistError> {
        if self.module(module.name()).is_some() {
            return Err(NetlistError::DuplicateModule(module.name().to_string()));
        }
        let id = ModuleId::new(self.modules.len());
        self.modules.push(module);
        Ok(id)
    }

    /// Marks a module as the top of the hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownModule`] when the module does not
    /// exist.
    pub fn set_top(&mut self, name: &str) -> Result<(), NetlistError> {
        let id = self
            .module_id(name)
            .ok_or_else(|| NetlistError::UnknownModule(name.to_string()))?;
        self.top = Some(id);
        Ok(())
    }

    /// The top module, if one has been set.
    pub fn top(&self) -> Option<&Module> {
        self.top.map(|id| &self.modules[id.index()])
    }

    /// The top module's id, if one has been set.
    pub(crate) fn top_id(&self) -> Option<ModuleId> {
        self.top
    }

    /// Looks a module up by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.module_id(name).map(|id| &self.modules[id.index()])
    }

    /// The id of the module called `name`.
    pub(crate) fn module_id(&self, name: &str) -> Option<ModuleId> {
        self.modules
            .iter()
            .position(|m| m.name() == name)
            .map(ModuleId::new)
    }

    /// Number of modules.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// The modules in the order they were added; `modules()[id.index()]`
    /// is module `id`.
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// Validates the design against a cell library: every instance must
    /// refer to a leaf cell of the library or to a module added before its
    /// parent, connect exactly one net per port of that target, and use
    /// only nets of its parent's table (or [`NetId::OPEN`](crate::NetId::OPEN)).
    ///
    /// Modules are checked in the order they were added, instances in
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError::UnknownReference`],
    /// [`NetlistError::ArityMismatch`] or [`NetlistError::NetOutOfRange`]
    /// found.
    pub fn validate(&self, library: &CellLibrary) -> Result<(), NetlistError> {
        let cells = leaf_cells(library);
        for (parent, module) in self.modules.iter().enumerate() {
            for instance in module.instances() {
                self.callee(&cells, parent, instance)?;
            }
        }
        Ok(())
    }

    /// Checks `instance` of module `parent` and returns what its nets line
    /// up with: its target exists (a leaf of `cells`, or a module before
    /// `parent`), it has one net per target port, and each net is open or
    /// in the parent's table.
    pub(crate) fn callee<'a>(
        &'a self,
        cells: &LeafCells<'a>,
        parent: usize,
        instance: &Instance,
    ) -> Result<Callee<'a>, NetlistError> {
        let unknown = |target: String| NetlistError::UnknownReference {
            instance: instance.name.clone(),
            target,
        };
        let callee = match instance.reference {
            InstanceRef::LeafCell(kind) => {
                let cell =
                    cells[kind as usize].ok_or_else(|| unknown(kind.cell_name().to_string()))?;
                Callee {
                    name: kind.cell_name(),
                    ports: &cell.netlist().ports,
                }
            }
            InstanceRef::Module(id) => match self.modules.get(id.index()) {
                Some(target) if id.index() < parent => Callee {
                    name: target.name(),
                    ports: target.port_names(),
                },
                Some(target) => return Err(unknown(target.name().to_string())),
                None => return Err(unknown(id.to_string())),
            },
        };
        if instance.nets.len() != callee.ports.len() {
            return Err(NetlistError::ArityMismatch {
                instance: instance.name.clone(),
                target: callee.name.to_string(),
                expected: callee.ports.len(),
                actual: instance.nets.len(),
            });
        }
        let nets = self.modules[parent].nets().len();
        if let Some(net) = instance
            .nets
            .iter()
            .find(|net| !net.is_open() && net.index() >= nets)
        {
            return Err(NetlistError::NetOutOfRange {
                instance: instance.name.clone(),
                target: callee.name.to_string(),
                net: net.index(),
                nets,
            });
        }
        Ok(callee)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{NetId, PortDirection};
    use crate::spice::write_spice;
    use crate::stats::{design_stats, leaf_counts};
    use acim_tech::Technology;

    fn library() -> CellLibrary {
        CellLibrary::s28_default(&Technology::s28())
    }

    /// A module with one internal net per name and no ports.
    fn module_with_nets(name: &str, nets: &[&str]) -> Module {
        let mut m = Module::new(name);
        for net in nets {
            m.add_net(*net);
        }
        m
    }

    /// Checks that validation, the statistics and the SPICE writer all
    /// return `expected` for `design`, with its last module as the top.
    fn assert_rejected(mut design: Design, library: &CellLibrary, expected: NetlistError) {
        let top = design.modules().last().unwrap().name().to_string();
        design.set_top(&top).unwrap();
        assert_eq!(design.validate(library), Err(expected.clone()));
        assert_eq!(design_stats(&design, library), Err(expected.clone()));
        assert_eq!(write_spice(&design, library), Err(expected));
    }

    /// An SRAM instance with every port on net 0.
    fn sram(name: &str) -> Instance {
        Instance::new(
            name,
            InstanceRef::LeafCell(CellKind::Sram8T),
            vec![NetId::new(0); 7],
        )
    }

    #[test]
    fn leaf_cells_are_indexed_by_kind() {
        let library = library();
        for (kind, cell) in CellKind::all().into_iter().zip(leaf_cells(&library)) {
            assert_eq!(cell.map(LeafCell::kind), Some(kind));
        }
    }

    #[test]
    fn duplicate_modules_rejected() {
        let mut design = Design::new("test");
        design.add_module(Module::new("A")).unwrap();
        assert!(matches!(
            design.add_module(Module::new("A")),
            Err(NetlistError::DuplicateModule(_))
        ));
    }

    #[test]
    fn set_top_requires_existing_module() {
        let mut design = Design::new("test");
        assert_eq!(
            design.set_top("TOP"),
            Err(NetlistError::UnknownModule("TOP".into()))
        );
        let id = design.add_module(Module::new("TOP")).unwrap();
        design.set_top("TOP").unwrap();
        assert_eq!(design.top().unwrap().name(), "TOP");
        assert_eq!(design.top_id(), Some(id));
        assert_eq!(design.module_id("TOP"), Some(id));
    }

    #[test]
    fn validation_accepts_good_references() {
        let mut design = Design::new("test");
        let mut leaf_user = module_with_nets("LEAF_USER", &["rwl0"]);
        leaf_user.add_instance(sram("X0"));
        let leaf_user = design.add_module(leaf_user).unwrap();
        let mut top = Module::new("TOP");
        top.add_instance(Instance::new("XU", InstanceRef::Module(leaf_user), []));
        design.add_module(top).unwrap();
        design.set_top("TOP").unwrap();
        design.validate(&library()).unwrap();
    }

    #[test]
    fn validation_catches_unknown_cell_and_bad_port() {
        let mut library = CellLibrary::new();
        library.insert(self::library().cell(CellKind::Buffer).unwrap().clone());
        let mut design = Design::new("test");
        let mut m = module_with_nets("M", &["n"]);
        m.add_instance(sram("X0"));
        design.add_module(m).unwrap();
        assert_rejected(
            design,
            &library,
            NetlistError::UnknownReference {
                instance: "X0".into(),
                target: "SRAM8T".into(),
            },
        );

        // A net for a port the cell does not have is one net too many.
        let mut design = Design::new("test2");
        let mut m = module_with_nets("M", &["n"]);
        m.add_instance(Instance::new(
            "X0",
            InstanceRef::LeafCell(CellKind::Sram8T),
            vec![NetId::new(0); 8],
        ));
        design.add_module(m).unwrap();
        assert_rejected(
            design,
            &self::library(),
            NetlistError::ArityMismatch {
                instance: "X0".into(),
                target: "SRAM8T".into(),
                expected: 7,
                actual: 8,
            },
        );
    }

    #[test]
    fn unknown_and_later_modules_are_rejected() {
        let mut design = Design::new("test");
        let mut a = Module::new("A");
        a.add_instance(Instance::new("XSELF", InstanceRef::Module(ModuleId(0)), []));
        design.add_module(a).unwrap();
        assert_rejected(
            design,
            &library(),
            NetlistError::UnknownReference {
                instance: "XSELF".into(),
                target: "A".into(),
            },
        );

        let mut design = Design::new("test");
        let mut a = Module::new("A");
        a.add_instance(Instance::new("XGONE", InstanceRef::Module(ModuleId(5)), []));
        design.add_module(a).unwrap();
        assert_rejected(
            design,
            &library(),
            NetlistError::UnknownReference {
                instance: "XGONE".into(),
                target: "module #5".into(),
            },
        );
    }

    #[test]
    fn a_wrong_arity_is_rejected() {
        let mut design = Design::new("test");
        let mut m = module_with_nets("M", &["n"]);
        m.add_instance(Instance::new(
            "X0",
            InstanceRef::LeafCell(CellKind::Sram8T),
            [NetId::new(0)],
        ));
        design.add_module(m).unwrap();
        assert_rejected(
            design,
            &library(),
            NetlistError::ArityMismatch {
                instance: "X0".into(),
                target: "SRAM8T".into(),
                expected: 7,
                actual: 1,
            },
        );
    }

    #[test]
    fn a_net_beyond_the_table_is_rejected() {
        let mut design = Design::new("test");
        let target = design
            .add_module(Module::with_ports(
                "T",
                [("P", PortDirection::Input), ("Q", PortDirection::Output)],
            ))
            .unwrap();
        let mut m = module_with_nets("M", &["n0", "n1"]);
        m.add_instance(Instance::new(
            "X0",
            InstanceRef::Module(target),
            [NetId::OPEN, NetId::new(2)],
        ));
        design.add_module(m).unwrap();
        assert_rejected(
            design,
            &library(),
            NetlistError::NetOutOfRange {
                instance: "X0".into(),
                target: "T".into(),
                net: 2,
                nets: 2,
            },
        );
    }

    #[test]
    fn validation_reports_the_first_mismatch_in_walk_order() {
        // Modules in the order added (for SPICE, in name order), instances
        // in order: the second instance of `T` in `A` is the first bad one,
        // although module `B`, added later, also has one.
        let module_instance = |target: ModuleId, name: &str, nets: usize| {
            Instance::new(name, InstanceRef::Module(target), vec![NetId::new(0); nets])
        };
        let mut design = Design::new("test");
        let target = design
            .add_module(Module::with_ports("T", [("P", PortDirection::Input)]))
            .unwrap();
        let mut a = module_with_nets("A", &["n"]);
        a.add_instance(module_instance(target, "X0", 1));
        a.add_instance(module_instance(target, "X1", 3));
        design.add_module(a).unwrap();
        let mut b = module_with_nets("B", &["n"]);
        b.add_instance(module_instance(target, "X2", 2));
        design.add_module(b).unwrap();
        assert_rejected(
            design,
            &library(),
            NetlistError::ArityMismatch {
                instance: "X1".into(),
                target: "T".into(),
                expected: 1,
                actual: 3,
            },
        );
    }

    #[test]
    fn hierarchical_leaf_counting() {
        let library = library();
        let mut design = Design::new("test");
        let mut inner = module_with_nets("INNER", &["a"]);
        inner.add_instance(sram("X0"));
        inner.add_instance(sram("X1"));
        let inner = design.add_module(inner).unwrap();
        let mut top = module_with_nets("TOP", &["x"]);
        for i in 0..3 {
            top.add_instance(Instance::new(
                format!("XI{i}"),
                InstanceRef::Module(inner),
                [],
            ));
        }
        top.add_instance(Instance::new(
            "XB",
            InstanceRef::LeafCell(CellKind::Buffer),
            vec![NetId::new(0); 4],
        ));
        design.add_module(top).unwrap();
        design.set_top("TOP").unwrap();
        let counts = leaf_counts(&design, &library).unwrap();
        assert_eq!(counts[CellKind::Sram8T as usize], 6);
        assert_eq!(counts[CellKind::Buffer as usize], 1);
        assert_eq!(counts[CellKind::Comparator as usize], 0);
    }
}
