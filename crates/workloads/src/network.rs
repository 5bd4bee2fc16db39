//! Whole-network workloads: ordered layer graphs built from the
//! single-MVM workload generators of this crate.
//!
//! Each generator yields **one** matrix-vector product.  Real
//! applications are sequences of such MVMs — a CNN's
//! stacked convolutions, a transformer block's Q/K/V projections, an SNN's
//! synaptic layers — and their layers have very different shapes and
//! accuracy appetites.  [`Network`] captures that: an ordered list of
//! [`NetworkLayer`]s, each of which can report its MVM shape analytically
//! (for the fast chip estimation model) or lower itself to a concrete
//! [`BinaryMvm`] (for behavioural validation).
//!
//! Multi-tenant mixes of networks live one module over, in
//! [`crate::mix`]; the chip layer (`acim-chip`) schedules both onto macro
//! grids.

use std::fmt;

use crate::cnn::CnnLayer;
use crate::quantize::BinaryMvm;
use crate::snn::SnnLayer;
use crate::transformer::{AttentionProjection, ProjectionKind};
use crate::WorkloadError;

/// The workload family a layer belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LayerKind {
    /// A convolution layer lowered by im2col.
    Cnn(CnnLayer),
    /// One head of an attention projection.
    Attention(AttentionProjection),
    /// One timestep of a spiking layer at a given firing rate.
    Snn {
        /// The layer.
        layer: SnnLayer,
        /// Input spike rate in `[0, 1]`.
        rate: f64,
    },
}

/// One layer of a network: a named MVM workload.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkLayer {
    /// Human-readable layer name (unique within its network by
    /// convention).
    pub name: String,
    /// The underlying workload.
    pub kind: LayerKind,
}

impl NetworkLayer {
    /// The MVM shape of the layer: `(outputs, dot_length)` — weight-matrix
    /// rows and columns after lowering.
    pub fn shape(&self) -> (usize, usize) {
        match &self.kind {
            LayerKind::Cnn(layer) => (layer.out_channels, layer.dot_length()),
            LayerKind::Attention(proj) => (proj.head_dim(), proj.d_model),
            LayerKind::Snn { layer, .. } => (layer.neurons, layer.inputs),
        }
    }

    /// Number of weight bits the layer must keep resident (1-bit weights).
    pub fn weight_bits(&self) -> usize {
        let (rows, cols) = self.shape();
        rows * cols
    }

    /// Lowers the layer to a concrete binarised MVM.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] when the layer shape is degenerate.
    pub fn to_workload(&self, seed: u64) -> Result<BinaryMvm, WorkloadError> {
        match &self.kind {
            LayerKind::Cnn(layer) => layer.to_workload(seed),
            LayerKind::Attention(proj) => proj.to_workload(seed),
            LayerKind::Snn { layer, rate } => layer.to_workload(*rate, seed),
        }
    }
}

/// An ordered multi-layer network: layer `i + 1` consumes the outputs of
/// layer `i`, so layers execute sequentially while the tiles *within* a
/// layer spread across the macro grid in parallel.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    /// Network name (used in reports).
    pub name: String,
    /// The layers in execution order.
    pub layers: Vec<NetworkLayer>,
}

impl Network {
    /// Creates a network from named layers.
    pub fn new(name: impl Into<String>, layers: Vec<NetworkLayer>) -> Self {
        Self {
            name: name.into(),
            layers,
        }
    }

    /// A multi-layer edge CNN: a stem convolution, `depth` mobile-class
    /// 3×3 blocks, and a small head — the image-identification application
    /// of the paper's Figure 1 scaled past a single macro.
    pub fn edge_cnn(depth: usize) -> Self {
        let mut layers = vec![NetworkLayer {
            name: "stem".into(),
            kind: LayerKind::Cnn(CnnLayer::small(5)),
        }];
        for i in 0..depth {
            layers.push(NetworkLayer {
                name: format!("block{i}"),
                kind: LayerKind::Cnn(CnnLayer::mobile()),
            });
        }
        layers.push(NetworkLayer {
            name: "head".into(),
            kind: LayerKind::Cnn(CnnLayer::small(1)),
        });
        Self::new(format!("edge_cnn_d{depth}"), layers)
    }

    /// One attention block of an edge transformer: the Q, K and V
    /// projections of every head.
    pub fn transformer_block() -> Self {
        let layers = [
            ProjectionKind::Query,
            ProjectionKind::Key,
            ProjectionKind::Value,
        ]
        .into_iter()
        .map(|kind| NetworkLayer {
            name: format!("{kind:?}").to_lowercase(),
            kind: LayerKind::Attention(AttentionProjection::edge(kind)),
        })
        .collect();
        Self::new("transformer_block", layers)
    }

    /// A two-layer always-on SNN sensing pipeline.
    pub fn snn_pipeline() -> Self {
        let sensing = SnnLayer::small();
        let classifier = SnnLayer {
            inputs: sensing.neurons,
            neurons: 10,
            threshold: 4.0,
            leak: 0.8,
        };
        Self::new(
            "snn_pipeline",
            vec![
                NetworkLayer {
                    name: "sensing".into(),
                    kind: LayerKind::Snn {
                        layer: sensing,
                        rate: 0.3,
                    },
                },
                NetworkLayer {
                    name: "classifier".into(),
                    kind: LayerKind::Snn {
                        layer: classifier,
                        rate: 0.2,
                    },
                },
            ],
        )
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total MAC operations per inference (sum of `rows · cols` over
    /// layers).
    pub fn total_macs(&self) -> usize {
        self.layers.iter().map(NetworkLayer::weight_bits).sum()
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, {:.1} kMAC/inference)",
            self.name,
            self.len(),
            self.total_macs() as f64 / 1000.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_cnn_builds_stem_blocks_head() {
        let net = Network::edge_cnn(3);
        assert_eq!(net.len(), 5);
        assert_eq!(net.layers[0].name, "stem");
        assert_eq!(net.layers[4].name, "head");
        assert_eq!(net.layers[1].shape(), (64, 32 * 9));
        assert!(net.total_macs() > 0);
        assert!(net.to_string().contains("5 layers"));
    }

    #[test]
    fn transformer_block_has_qkv() {
        let net = Network::transformer_block();
        assert_eq!(net.len(), 3);
        for layer in &net.layers {
            assert_eq!(layer.shape(), (32, 128));
        }
    }

    #[test]
    fn snn_pipeline_chains_layer_shapes() {
        let net = Network::snn_pipeline();
        assert_eq!(net.len(), 2);
        let (sense_out, _) = net.layers[0].shape();
        let (_, classify_in) = net.layers[1].shape();
        assert_eq!(sense_out, classify_in);
    }

    #[test]
    fn layers_lower_to_concrete_workloads() {
        for net in [
            Network::edge_cnn(1),
            Network::transformer_block(),
            Network::snn_pipeline(),
        ] {
            for layer in &net.layers {
                let mvm = layer.to_workload(7).unwrap();
                assert_eq!((mvm.rows(), mvm.cols()), layer.shape(), "{}", layer.name);
            }
        }
    }

    #[test]
    fn empty_network_reports_zero_footprint() {
        let net = Network::new("empty", vec![]);
        assert!(net.is_empty());
    }
}
