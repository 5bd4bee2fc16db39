//! The hierarchical design: a set of modules plus a reference to the leaf
//! cells of the customized cell library.

use std::collections::{BTreeMap, HashMap, HashSet};

use acim_cell::CellLibrary;

use crate::error::NetlistError;
use crate::module::{InstanceRef, Module};

/// A complete hierarchical netlist.
#[derive(Debug, Clone, Default)]
pub struct Design {
    name: String,
    modules: BTreeMap<String, Module>,
    top: Option<String>,
}

impl Design {
    /// Creates an empty design.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            modules: BTreeMap::new(),
            top: None,
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a module.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateModule`] when a module with the same
    /// name already exists.
    pub fn add_module(&mut self, module: Module) -> Result<(), NetlistError> {
        if self.modules.contains_key(module.name()) {
            return Err(NetlistError::DuplicateModule(module.name().to_string()));
        }
        self.modules.insert(module.name().to_string(), module);
        Ok(())
    }

    /// Marks a module as the top of the hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownReference`] when the module does not
    /// exist.
    pub fn set_top(&mut self, name: &str) -> Result<(), NetlistError> {
        if !self.modules.contains_key(name) {
            return Err(NetlistError::UnknownReference {
                name: name.to_string(),
                referenced_from: "set_top".to_string(),
            });
        }
        self.top = Some(name.to_string());
        Ok(())
    }

    /// The top module, if one has been set.
    pub fn top(&self) -> Option<&Module> {
        self.top.as_deref().and_then(|name| self.modules.get(name))
    }

    /// Looks a module up by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.get(name)
    }

    /// Number of modules.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Iterates over the modules in name order.
    pub fn modules(&self) -> impl Iterator<Item = &Module> {
        self.modules.values()
    }

    /// Validates the design against a cell library: every instance must
    /// reference an existing module or leaf cell, and every connection must
    /// name an existing port of the target.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn validate(&self, library: &CellLibrary) -> Result<(), NetlistError> {
        // Each instantiated module's port set, resolved on first use.
        let mut port_sets: HashMap<&str, HashSet<&str>> = HashMap::new();
        for module in self.modules.values() {
            for instance in module.instances() {
                match &instance.reference {
                    InstanceRef::Module(name) => {
                        let target = self.modules.get(name).ok_or_else(|| {
                            NetlistError::UnknownReference {
                                name: name.clone(),
                                referenced_from: module.name().to_string(),
                            }
                        })?;
                        let ports = port_sets.entry(name.as_str()).or_insert_with(|| {
                            target.ports().iter().map(|(p, _)| p.as_str()).collect()
                        });
                        for port in instance.connections.keys() {
                            if !ports.contains(port.as_str()) {
                                return Err(NetlistError::PortMismatch {
                                    instance: instance.name.clone(),
                                    target: name.clone(),
                                    details: format!("no port `{port}` on module"),
                                });
                            }
                        }
                    }
                    InstanceRef::LeafCell(name) => {
                        let cell = library.cell_by_name(name).ok_or_else(|| {
                            NetlistError::UnknownReference {
                                name: name.clone(),
                                referenced_from: module.name().to_string(),
                            }
                        })?;
                        for port in instance.connections.keys() {
                            if !cell.netlist().ports.iter().any(|p| p == port) {
                                return Err(NetlistError::PortMismatch {
                                    instance: instance.name.clone(),
                                    target: name.clone(),
                                    details: format!("no port `{port}` on leaf cell"),
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Counts the total number of leaf-cell instances of `cell_name` in the
    /// fully elaborated hierarchy under the top module.
    pub fn count_leaf_instances(&self, cell_name: &str) -> usize {
        let Some(top) = self.top() else {
            return 0;
        };
        self.count_in_module(top, cell_name)
    }

    fn count_in_module(&self, module: &Module, cell_name: &str) -> usize {
        let mut total = 0;
        for instance in module.instances() {
            match &instance.reference {
                InstanceRef::LeafCell(name) => {
                    if name == cell_name {
                        total += 1;
                    }
                }
                InstanceRef::Module(name) => {
                    if let Some(child) = self.modules.get(name) {
                        total += self.count_in_module(child, cell_name);
                    }
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Instance, PortDirection};
    use acim_tech::Technology;

    fn library() -> CellLibrary {
        CellLibrary::s28_default(&Technology::s28())
    }

    fn leaf_instance(name: &str, cell: &str, port: &str, net: &str) -> Instance {
        Instance::new(
            name,
            InstanceRef::LeafCell(cell.into()),
            [(port.to_string(), net.to_string())],
        )
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
        assert!(design.set_top("TOP").is_err());
        design.add_module(Module::new("TOP")).unwrap();
        design.set_top("TOP").unwrap();
        assert_eq!(design.top().unwrap().name(), "TOP");
    }

    #[test]
    fn validation_accepts_good_references() {
        let mut design = Design::new("test");
        let mut leaf_user = Module::new("LEAF_USER");
        leaf_user.add_instance(leaf_instance("X0", "SRAM8T", "RWL", "rwl0"));
        design.add_module(leaf_user).unwrap();
        let mut top = Module::new("TOP");
        top.add_instance(Instance::new(
            "XU",
            InstanceRef::Module("LEAF_USER".into()),
            [],
        ));
        design.add_module(top).unwrap();
        design.set_top("TOP").unwrap();
        design.validate(&library()).unwrap();
    }

    #[test]
    fn validation_catches_unknown_cell_and_bad_port() {
        let mut design = Design::new("test");
        let mut m = Module::new("M");
        m.add_instance(leaf_instance("X0", "NOT_A_CELL", "A", "n"));
        design.add_module(m).unwrap();
        assert!(matches!(
            design.validate(&library()),
            Err(NetlistError::UnknownReference { .. })
        ));

        let mut design = Design::new("test2");
        let mut m = Module::new("M");
        m.add_instance(leaf_instance("X0", "SRAM8T", "NOT_A_PORT", "n"));
        design.add_module(m).unwrap();
        assert!(matches!(
            design.validate(&library()),
            Err(NetlistError::PortMismatch { .. })
        ));
    }

    #[test]
    fn validation_reports_the_first_mismatch_in_walk_order() {
        // Modules by name, instances in order, ports by name: the second
        // instance of `T` is the first bad one, and its first bad port (in
        // name order) is `Y`, although module `B` also has a bad one.
        let module_instance = |name: &str, ports: &[&str]| {
            Instance::new(
                name,
                InstanceRef::Module("T".into()),
                ports.iter().map(|p| (p.to_string(), "n".to_string())),
            )
        };
        let mut design = Design::new("test");
        let mut target = Module::new("T");
        target.add_port("P", PortDirection::Input);
        design.add_module(target).unwrap();
        let mut a = Module::new("A");
        a.add_instance(module_instance("X0", &["P"]));
        a.add_instance(module_instance("X1", &["Z", "P", "Y"]));
        design.add_module(a).unwrap();
        let mut b = Module::new("B");
        b.add_instance(module_instance("X2", &["W"]));
        design.add_module(b).unwrap();
        assert_eq!(
            design.validate(&library()),
            Err(NetlistError::PortMismatch {
                instance: "X1".into(),
                target: "T".into(),
                details: "no port `Y` on module".into(),
            })
        );
    }

    #[test]
    fn hierarchical_leaf_counting() {
        let mut design = Design::new("test");
        let mut inner = Module::new("INNER");
        inner.add_instance(leaf_instance("X0", "SRAM8T", "RWL", "a"));
        inner.add_instance(leaf_instance("X1", "SRAM8T", "RWL", "b"));
        design.add_module(inner).unwrap();
        let mut top = Module::new("TOP");
        for i in 0..3 {
            top.add_instance(Instance::new(
                format!("XI{i}"),
                InstanceRef::Module("INNER".into()),
                [],
            ));
        }
        top.add_instance(leaf_instance("XB", "BUF", "A", "x"));
        design.add_module(top).unwrap();
        design.set_top("TOP").unwrap();
        assert_eq!(design.count_leaf_instances("SRAM8T"), 6);
        assert_eq!(design.count_leaf_instances("BUF"), 1);
        assert_eq!(design.count_leaf_instances("COMP_SA"), 0);
    }
}
