//! The layer map.
//!
//! The [`LayerMap`] mirrors the "layer map" technology file among the
//! paper's inputs (Figure 4): it assigns GDS layer/datatype numbers to
//! every mask layer, which is what the GDS writer reads.

use std::collections::BTreeMap;

/// The GDS numbers of one mask layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    pub(crate) gds_layer: u16,
    pub(crate) gds_datatype: u16,
}

impl Layer {
    /// GDS layer number from the layer map.
    pub fn gds_layer(&self) -> u16 {
        self.gds_layer
    }

    /// GDS datatype number from the layer map.
    pub fn gds_datatype(&self) -> u16 {
        self.gds_datatype
    }
}

/// The mask layers of a technology by name.  Acts as the "layer map"
/// technology-file input of the EasyACIM flow.
#[derive(Debug, Clone)]
pub struct LayerMap {
    pub(crate) layers: BTreeMap<&'static str, Layer>,
}

impl LayerMap {
    /// Looks a layer up by name.
    pub fn by_name(&self, name: &str) -> Option<&Layer> {
        self.layers.get(name)
    }
}

#[cfg(test)]
mod tests {
    use crate::Technology;

    #[test]
    fn s28_map_has_six_metals_and_five_vias() {
        let tech = Technology::s28();
        let map = tech.layers();
        for i in 1..=6 {
            assert!(map.by_name(&format!("M{i}")).is_some(), "missing M{i}");
        }
        for i in 1..=5 {
            assert!(map.by_name(&format!("VIA{i}")).is_some(), "missing VIA{i}");
        }
        assert!(map.by_name("M7").is_none());
        assert!(map.by_name("VIA6").is_none());
    }

    #[test]
    fn gds_numbers_are_unique_per_layer() {
        let tech = Technology::s28();
        let mut seen = std::collections::BTreeSet::new();
        for (name, layer) in &tech.layers().layers {
            assert!(
                seen.insert((layer.gds_layer(), layer.gds_datatype())),
                "duplicate GDS number for {name}"
            );
        }
    }
}
