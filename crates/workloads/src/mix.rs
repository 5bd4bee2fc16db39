//! Multi-tenant workload mixes: named networks sharing one accelerator.
//!
//! A deployed CIM chip rarely serves one network.  Figure 1 of the paper
//! motivates the synthesizable macro with three very different edge
//! applications — and a chip sized for the CNN alone loses once
//! transformer and SNN traffic time-share the same grid.  A
//! [`WorkloadMix`] captures that deployment: a named set of [`Tenant`]s,
//! each a [`Network`] with an arrival *weight* (its relative request
//! rate) and a per-tenant activation quantization ([`TenantQuant`]).
//!
//! The chip layer (`acim-chip`) co-schedules a mix's layer streams onto
//! one macro grid with the least-finish-time partitioner and scores
//! latency / throughput / energy *per tenant*; `acim-dse` aggregates
//! those into mix-level objectives.  One network is the mix of one
//! (`WorkloadMix::from(network)`): the chip stack has no separate
//! single-network path.

use std::fmt;

use crate::network::Network;
use crate::WorkloadError;

/// Per-tenant activation quantization.
///
/// The chip model is bit-serial over activations: a tenant running
/// `activation_bits`-bit activations issues every tile that many times, so
/// its cycles (and the schedule pressure it puts on shared macros) scale
/// linearly.  `activation_bits == 1` is the binary default and changes
/// nothing relative to the single-network model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuant {
    /// Activation bit-width of the tenant, `>= 1`.
    pub activation_bits: u32,
}

impl TenantQuant {
    /// Binary (1-bit) activations — the default and the single-network
    /// behaviour.
    pub fn binary() -> Self {
        Self { activation_bits: 1 }
    }

    /// `bits`-bit bit-serial activations.
    pub fn bits(activation_bits: u32) -> Self {
        Self { activation_bits }
    }
}

impl Default for TenantQuant {
    fn default() -> Self {
        Self::binary()
    }
}

/// One tenant of a [`WorkloadMix`]: a network plus its traffic share.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// The tenant's network.  Its name identifies the tenant in reports
    /// and telemetry, so names must be unique within a mix.
    pub network: Network,
    /// Relative arrival weight (request rate share), finite and `> 0`.
    /// Weights are relative: `{2.0, 1.0}` and `{4.0, 2.0}` are the same
    /// mix.
    pub weight: f64,
    /// Activation quantization of the tenant.
    pub quant: TenantQuant,
}

impl Tenant {
    /// A binary-activation tenant with the given arrival weight.
    pub fn new(network: Network, weight: f64) -> Self {
        Self {
            network,
            weight,
            quant: TenantQuant::binary(),
        }
    }

    /// The tenant's name (its network's name).
    pub fn name(&self) -> &str {
        &self.network.name
    }
}

/// A named set of networks co-scheduled on one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMix {
    /// Mix name, used in reports and design-space signatures.
    pub name: String,
    /// The tenants, in declaration order.  Order is a scheduling input
    /// (within a round, tenants place their tiles in this order) but never
    /// changes any tenant's compute or energy accounting.
    pub tenants: Vec<Tenant>,
}

impl WorkloadMix {
    /// An empty mix to grow with [`WorkloadMix::with_tenant`].
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tenants: Vec::new(),
        }
    }

    /// The degenerate mix: one binary-activation tenant with weight 1 —
    /// how the chip stack schedules and scores a single network.
    pub fn single(network: Network) -> Self {
        Self {
            name: network.name.clone(),
            tenants: vec![Tenant::new(network, 1.0)],
        }
    }

    /// Adds a binary-activation tenant.
    #[must_use]
    pub fn with_tenant(mut self, network: Network, weight: f64) -> Self {
        self.tenants.push(Tenant::new(network, weight));
        self
    }

    /// Adds a tenant with `activation_bits`-bit bit-serial activations.
    #[must_use]
    pub fn with_quantized_tenant(
        mut self,
        network: Network,
        weight: f64,
        activation_bits: u32,
    ) -> Self {
        self.tenants.push(Tenant {
            network,
            weight,
            quant: TenantQuant::bits(activation_bits),
        });
        self
    }

    /// The paper's Figure 1 deployment: an edge CNN, a transformer block
    /// and an always-on SNN pipeline sharing one chip.  The SNN fires most
    /// often (it is the always-on sensing path), the CNN serves the bulk
    /// of recognition traffic, and the transformer is the occasional
    /// heavyweight.
    pub fn edge_mix() -> Self {
        Self::new("edge_mix")
            .with_tenant(Network::edge_cnn(1), 2.0)
            .with_tenant(Network::transformer_block(), 1.0)
            .with_tenant(Network::snn_pipeline(), 4.0)
    }

    /// The tenants in declaration order.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Returns `true` when the mix has no tenants.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Returns `true` for the degenerate single-tenant mix.
    pub fn is_single(&self) -> bool {
        self.tenants.len() == 1
    }

    /// Number of scheduling rounds: the depth of the deepest tenant.
    /// Round `r` co-schedules layer `r` of every tenant that has one.
    pub fn rounds(&self) -> usize {
        self.tenants
            .iter()
            .map(|t| t.network.len())
            .max()
            .unwrap_or(0)
    }

    /// Total MAC operations across one inference of every tenant.
    pub fn total_macs(&self) -> usize {
        self.tenants.iter().map(|t| t.network.total_macs()).sum()
    }

    /// Validates the mix: at least one tenant, every tenant non-empty with
    /// a finite positive weight, `activation_bits >= 1`, and unique names.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] naming the offending
    /// tenant.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.tenants.is_empty() {
            return Err(WorkloadError::InvalidParameter {
                name: "mix.tenants".into(),
                reason: format!("mix `{}` has no tenants", self.name),
            });
        }
        for (index, tenant) in self.tenants.iter().enumerate() {
            if tenant.network.is_empty() {
                return Err(WorkloadError::InvalidParameter {
                    name: format!("mix.tenants[{index}].network"),
                    reason: format!("tenant `{}` has no layers", tenant.name()),
                });
            }
            if !tenant.weight.is_finite() || tenant.weight <= 0.0 {
                return Err(WorkloadError::InvalidParameter {
                    name: format!("mix.tenants[{index}].weight"),
                    reason: format!(
                        "tenant `{}` weight {} must be finite and > 0",
                        tenant.name(),
                        tenant.weight
                    ),
                });
            }
            if tenant.quant.activation_bits == 0 {
                return Err(WorkloadError::InvalidParameter {
                    name: format!("mix.tenants[{index}].quant"),
                    reason: format!("tenant `{}` activation_bits must be >= 1", tenant.name()),
                });
            }
            if self.tenants[..index]
                .iter()
                .any(|t| t.name() == tenant.name())
            {
                return Err(WorkloadError::InvalidParameter {
                    name: format!("mix.tenants[{index}]"),
                    reason: format!(
                        "duplicate tenant name `{}` — tenant names must be unique within a mix",
                        tenant.name()
                    ),
                });
            }
        }
        Ok(())
    }
}

/// One network is the mix of one: exactly [`WorkloadMix::single`].
impl From<Network> for WorkloadMix {
    fn from(network: Network) -> Self {
        Self::single(network)
    }
}

impl fmt::Display for WorkloadMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} tenants, {} rounds, {:.1} kMAC/mix-inference)",
            self.name,
            self.len(),
            self.rounds(),
            self.total_macs() as f64 / 1000.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_mix_wraps_one_tenant() {
        let mix = WorkloadMix::single(Network::edge_cnn(1));
        assert!(mix.is_single());
        assert_eq!(mix.name, "edge_cnn_d1");
        assert_eq!(mix.tenants()[0].weight, 1.0);
        assert_eq!(mix.tenants()[0].quant, TenantQuant::binary());
        assert_eq!(mix.rounds(), 3);
        mix.validate().unwrap();
        assert_eq!(WorkloadMix::from(Network::edge_cnn(1)), mix);
    }

    #[test]
    fn edge_mix_spans_three_families() {
        let mix = WorkloadMix::edge_mix();
        assert_eq!(mix.len(), 3);
        assert_eq!(mix.rounds(), 3);
        assert_eq!(mix.tenants().iter().map(|t| t.weight).sum::<f64>(), 7.0);
        assert_eq!(
            mix.total_macs(),
            mix.tenants()
                .iter()
                .map(|t| t.network.total_macs())
                .sum::<usize>()
        );
        assert!(mix.to_string().contains("3 tenants"));
        mix.validate().unwrap();
    }

    #[test]
    fn quantized_tenant_carries_bits() {
        let mix =
            WorkloadMix::new("quant").with_quantized_tenant(Network::transformer_block(), 1.0, 4);
        assert_eq!(mix.tenants()[0].quant.activation_bits, 4);
        mix.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_mixes() {
        assert!(WorkloadMix::new("empty").validate().is_err());
        assert!(WorkloadMix::new("no-layers")
            .with_tenant(Network::new("hollow", vec![]), 1.0)
            .validate()
            .is_err());
        assert!(WorkloadMix::new("bad-weight")
            .with_tenant(Network::edge_cnn(1), 0.0)
            .validate()
            .is_err());
        assert!(WorkloadMix::new("bad-weight-nan")
            .with_tenant(Network::edge_cnn(1), f64::NAN)
            .validate()
            .is_err());
        assert!(WorkloadMix::new("bad-quant")
            .with_quantized_tenant(Network::edge_cnn(1), 1.0, 0)
            .validate()
            .is_err());
        assert!(WorkloadMix::new("dup")
            .with_tenant(Network::edge_cnn(1), 1.0)
            .with_tenant(Network::edge_cnn(1), 2.0)
            .validate()
            .is_err());
    }

    #[test]
    fn rounds_is_deepest_tenant() {
        let mix = WorkloadMix::new("depths")
            .with_tenant(Network::edge_cnn(4), 1.0)
            .with_tenant(Network::snn_pipeline(), 1.0);
        assert_eq!(mix.rounds(), 6);
    }
}
