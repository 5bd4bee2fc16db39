//! Application requirement profiles.
//!
//! Figure 1's point is that each application family needs a different
//! operating point.  These profiles quantify that: each carries the minimum
//! SNR, the throughput floor and the efficiency floor a design must meet to
//! serve the application, and converts itself into the
//! `acim_dse`-style user-requirement bounds used at distillation time
//! (the conversion itself lives in the caller to avoid a dependency cycle;
//! this type only holds the numbers).

/// An application family and its requirements on the ACIM macro.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApplicationProfile {
    /// Transformer / LLM inference: accuracy-critical.
    Transformer,
    /// CNN vision inference: balanced.
    Cnn,
    /// Spiking neural network: efficiency-critical, noise-tolerant.
    Snn,
}

impl ApplicationProfile {
    /// Minimum acceptable SNR in dB.
    pub fn min_snr_db(&self) -> f64 {
        match self {
            ApplicationProfile::Transformer => 28.0,
            ApplicationProfile::Cnn => 18.0,
            ApplicationProfile::Snn => 10.0,
        }
    }

    /// Minimum acceptable throughput in TOPS.
    pub fn min_throughput_tops(&self) -> f64 {
        match self {
            ApplicationProfile::Transformer => 0.5,
            ApplicationProfile::Cnn => 1.0,
            ApplicationProfile::Snn => 0.1,
        }
    }

    /// Minimum acceptable energy efficiency in TOPS/W.
    pub fn min_tops_per_watt(&self) -> f64 {
        match self {
            ApplicationProfile::Transformer => 50.0,
            ApplicationProfile::Cnn => 150.0,
            ApplicationProfile::Snn => 400.0,
        }
    }

    /// Maximum tolerated relative error of the mapped MVM outputs.
    pub fn max_relative_error(&self) -> f64 {
        match self {
            ApplicationProfile::Transformer => 0.02,
            ApplicationProfile::Cnn => 0.05,
            ApplicationProfile::Snn => 0.15,
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            ApplicationProfile::Transformer => "transformer",
            ApplicationProfile::Cnn => "cnn",
            ApplicationProfile::Snn => "snn",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_order_their_requirements_as_the_paper_motivates() {
        // Transformers demand the most SNR; SNNs demand the most efficiency.
        let t = ApplicationProfile::Transformer;
        let c = ApplicationProfile::Cnn;
        let s = ApplicationProfile::Snn;
        assert!(t.min_snr_db() > c.min_snr_db());
        assert!(c.min_snr_db() > s.min_snr_db());
        assert!(s.min_tops_per_watt() > c.min_tops_per_watt());
        assert!(c.min_tops_per_watt() > t.min_tops_per_watt());
        assert!(t.max_relative_error() < s.max_relative_error());
    }

    #[test]
    fn representative_workloads_exist_for_every_profile() {
        for profile in [
            ApplicationProfile::Transformer,
            ApplicationProfile::Cnn,
            ApplicationProfile::Snn,
        ] {
            assert!(!profile.name().is_empty());
        }
    }
}
