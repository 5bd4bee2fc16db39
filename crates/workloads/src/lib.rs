//! # acim-workloads
//!
//! Application workloads for the EasyACIM reproduction.
//!
//! Figure 1 of the paper motivates the synthesizable architecture with the
//! mismatch between a fixed ACIM macro and the very different accuracy /
//! throughput / energy requirements of edge applications — transformers,
//! CNNs and SNNs.  This crate describes exactly those three workload
//! families and a binary quantiser; it knows nothing about the macro.  The
//! chip layer (`acim-chip`) tiles the workloads onto macro grids, both
//! analytically and through the behavioural macro of `acim-arch`.
//!
//! * [`quantize`] — binarisation of activations and of weights, lowered
//!   one row at a time,
//! * [`cnn`], [`transformer`], [`snn`] — synthetic layer workloads that
//!   generate realistic MVM shapes,
//! * [`network`] — ordered multi-layer networks built from those
//!   generators,
//! * [`mix`] — multi-tenant [`WorkloadMix`]es: named networks with
//!   arrival weights and per-tenant quantization, co-scheduled on one
//!   chip,
//! * [`requirements`] — per-application requirement profiles used by the
//!   user-distillation step of the design-space explorer.
//!
//! # Example
//!
//! ```
//! use acim_workloads::{cnn::CnnLayer, Network};
//!
//! # fn main() -> Result<(), acim_workloads::WorkloadError> {
//! // One layer lowered to a concrete binary MVM: 16 outputs, each a
//! // 72-long dot product.
//! let workload = CnnLayer::small(3).to_workload(3)?;
//! assert_eq!((workload.rows(), workload.cols()), (16, 72));
//! assert_eq!(workload.ideal_binary_outputs().len(), 16);
//!
//! // A network is an ordered list of such layers, each of which reports
//! // its shape without lowering.
//! let stem = &Network::edge_cnn(1).layers[0];
//! let lowered = stem.to_workload(5)?;
//! assert_eq!(stem.shape(), (lowered.rows(), lowered.cols()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(missing_docs)]

pub mod cnn;
pub mod error;
pub mod mix;
pub mod network;
pub mod quantize;
pub mod requirements;
pub mod snn;
pub mod transformer;

pub use cnn::CnnLayer;
pub use error::WorkloadError;
pub use mix::{Tenant, TenantQuant, WorkloadMix};
pub use network::{LayerKind, Network, NetworkLayer};
pub use quantize::{binarize_activations, binarize_weights, BinaryMvm};
pub use requirements::ApplicationProfile;
pub use snn::SnnLayer;
pub use transformer::AttentionProjection;
