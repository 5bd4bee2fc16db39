//! Spiking-neural-network workload (the SNN application of Figure 1).
//!
//! SNN inference multiplies a binary spike vector by a synaptic weight
//! matrix and integrates the result into leaky membrane potentials; spikes
//! are emitted when a potential crosses the threshold.  Because the inputs
//! are already binary and the accumulation tolerates noise, SNNs sit at the
//! low-SNR / high-efficiency end of the requirement spectrum — the opposite
//! corner from transformers.

use crate::cnn::pseudo_random;
use crate::error::WorkloadError;
use crate::quantize::{binarize_weights, BinaryMvm};
use crate::tensor::Matrix;

/// A synthetic leaky-integrate-and-fire SNN layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnnLayer {
    /// Number of pre-synaptic neurons (inputs).
    pub inputs: usize,
    /// Number of post-synaptic neurons (outputs).
    pub neurons: usize,
    /// Firing threshold of the membrane potential.
    pub threshold: f64,
    /// Leak factor per timestep (0 = no memory, 1 = perfect integrator).
    pub leak: f64,
}

impl SnnLayer {
    /// A small always-on sensing layer: 64 inputs → 32 neurons.
    pub fn small() -> Self {
        Self {
            inputs: 64,
            neurons: 32,
            threshold: 8.0,
            leak: 0.9,
        }
    }

    /// Lowers one timestep of the layer into a binarised MVM: spikes with
    /// the given firing `rate` against binarised synaptic weights.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] when the shape or rate is
    /// invalid.
    pub fn to_workload(&self, rate: f64, seed: u64) -> Result<BinaryMvm, WorkloadError> {
        if self.inputs == 0 || self.neurons == 0 {
            return Err(WorkloadError::InvalidParameter {
                name: "snn layer".into(),
                reason: "inputs and neurons must be positive".into(),
            });
        }
        if !(0.0..=1.0).contains(&rate) {
            return Err(WorkloadError::InvalidParameter {
                name: "spike rate".into(),
                reason: format!("{rate} is outside [0, 1]"),
            });
        }
        let weights = Matrix::from_fn(self.neurons, self.inputs, |r, c| {
            pseudo_random(seed ^ 0x5A5A, r * self.inputs + c) - 0.5
        })?;
        let spikes: Vec<bool> = (0..self.inputs)
            .map(|i| pseudo_random(seed ^ 0x517E, i) < rate)
            .collect();
        Ok(BinaryMvm {
            weights: binarize_weights(&weights),
            activations: spikes,
            label: format!("snn_{}x{}_rate{:.2}", self.neurons, self.inputs, rate),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shape_and_spike_rate() {
        let layer = SnnLayer::small();
        let mvm = layer.to_workload(0.3, 7).unwrap();
        assert_eq!(mvm.rows(), 32);
        assert_eq!(mvm.cols(), 64);
        let ones = mvm.activations.iter().filter(|&&b| b).count();
        assert!(
            ones > 5 && ones < 35,
            "spike count {ones} implausible for rate 0.3"
        );
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(SnnLayer::small().to_workload(1.5, 1).is_err());
        let bad = SnnLayer {
            inputs: 0,
            ..SnnLayer::small()
        };
        assert!(bad.to_workload(0.5, 1).is_err());
    }
}
