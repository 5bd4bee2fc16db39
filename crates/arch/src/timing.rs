//! Operating states and timing model (Figure 5 / Equation 7).
//!
//! A conversion cycle of the macro is:
//!
//! 1. **Reset** — both plates of every compute capacitor are reset to
//!    `V_CM`,
//! 2. **Compute (MAC)** — RWL rises, RST falls, and the selected row of
//!    every local array drives its capacitor top plate to the 1-bit product,
//! 3. **Sample / charge redistribution** — the top plates are reset to
//!    `V_CM` and the bottom-plate charge redistributes onto the RBL,
//!    producing the accumulation voltage `V_x`,
//! 4. **B_ADC comparison rounds** — the SAR logic performs the successive
//!    approximation, one bit per round.
//!
//! The cycle time is `t_com + t_set + t_conv`, with `t_set ≥ 0.69·τ·B_ADC`
//! (settling of the redistribution network) and
//! `t_conv = t_conv_per_bit · B_ADC`, and the macro throughput follows
//! Equation 7: `T = (H / L) · W / (t_com + t_set + t_conv)`.

use acim_tech::Picosecond;

use crate::error::ArchError;
use crate::spec::AcimSpec;

/// The operating state of the macro within one conversion cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatingState {
    /// Both capacitor plates are driven to `V_CM`.
    Reset,
    /// The MAC state: products drive the capacitor top plates.
    Compute,
    /// Bottom-plate charge redistribution produces `V_x` on the RBL.
    Sample,
    /// One SAR comparison round; the payload is the bit index being decided
    /// (MSB = `B_ADC − 1`).
    Compare(u32),
    /// The digital result is latched and ready.
    Done,
}

impl OperatingState {
    /// Returns the state sequence of one full conversion cycle for an ADC of
    /// `bits` bits.
    pub fn cycle(bits: u32) -> Vec<OperatingState> {
        let mut states = vec![
            OperatingState::Reset,
            OperatingState::Compute,
            OperatingState::Sample,
        ];
        for bit in (0..bits).rev() {
            states.push(OperatingState::Compare(bit));
        }
        states.push(OperatingState::Done);
        states
    }
}

/// Timing parameters of the macro.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// MAC (compute) time `t_com`.
    pub t_compute: Picosecond,
    /// Redistribution time constant `τ` of the RBL network.
    pub tau: Picosecond,
    /// Per-bit SAR conversion time `t_conv/bit`.
    pub t_conv_per_bit: Picosecond,
}

impl TimingModel {
    /// Default timing of the synthetic S28 technology, calibrated so that a
    /// 16 kb macro with `B_ADC = 3`, `L = 2`, `H = 128` reaches ≈3.28 TOPS
    /// (Figure 8(a) of the paper).
    pub fn s28_default() -> Self {
        Self {
            t_compute: Picosecond::new(1000.0),
            tau: Picosecond::new(480.0),
            t_conv_per_bit: Picosecond::new(1000.0),
        }
    }

    /// Settling time `t_set = 0.69·τ·B_ADC` (the paper's lower bound, used
    /// as the design value).
    pub fn t_set(&self, adc_bits: u32) -> Picosecond {
        Picosecond::new(0.69 * self.tau.value() * f64::from(adc_bits))
    }

    /// Total SAR conversion time `t_conv = t_conv/bit · B_ADC`.
    pub fn t_conv(&self, adc_bits: u32) -> Picosecond {
        Picosecond::new(self.t_conv_per_bit.value() * f64::from(adc_bits))
    }

    /// Full conversion-cycle time `t_com + t_set + t_conv`.
    pub fn cycle_time(&self, adc_bits: u32) -> Picosecond {
        self.t_compute + self.t_set(adc_bits) + self.t_conv(adc_bits)
    }

    /// Macro throughput in operations per second for a specification
    /// (Equation 7).  One MAC counts as two operations (multiply +
    /// accumulate), the usual TOPS convention.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidParameter`] when any timing parameter is
    /// non-positive or NaN.
    pub fn throughput_ops(&self, spec: &AcimSpec) -> Result<f64, ArchError> {
        if !(self.t_compute.value() > 0.0
            && self.tau.value() > 0.0
            && self.t_conv_per_bit.value() > 0.0)
        {
            return Err(ArchError::InvalidParameter {
                name: "timing".into(),
                reason: "all timing parameters must be positive".into(),
            });
        }
        let cycle_s = self.cycle_time(spec.adc_bits()).value() * 1e-12;
        let macs_per_cycle = spec.macs_per_cycle() as f64;
        Ok(2.0 * macs_per_cycle / cycle_s)
    }

    /// Macro throughput in TOPS.
    ///
    /// # Errors
    ///
    /// See [`TimingModel::throughput_ops`].
    pub fn throughput_tops(&self, spec: &AcimSpec) -> Result<f64, ArchError> {
        Ok(self.throughput_ops(spec)? / 1e12)
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        Self::s28_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_sequence_has_expected_structure() {
        let states = OperatingState::cycle(3);
        assert_eq!(states.len(), 3 + 3 + 1);
        assert_eq!(states[0], OperatingState::Reset);
        assert_eq!(states[1], OperatingState::Compute);
        assert_eq!(states[2], OperatingState::Sample);
        assert_eq!(states[3], OperatingState::Compare(2));
        assert_eq!(states[5], OperatingState::Compare(0));
        assert_eq!(*states.last().unwrap(), OperatingState::Done);
    }

    #[test]
    fn t_set_scales_with_bits_and_tau() {
        let t = TimingModel::s28_default();
        let b3 = t.t_set(3).value();
        let b6 = t.t_set(6).value();
        assert!((b6 / b3 - 2.0).abs() < 1e-12);
        assert!((b3 - 0.69 * 480.0 * 3.0).abs() < 1e-9);
    }

    #[test]
    fn figure8a_throughput_is_about_3_28_tops() {
        let spec = AcimSpec::from_dimensions(128, 128, 2, 3).unwrap();
        let tops = TimingModel::s28_default().throughput_tops(&spec).unwrap();
        assert!(
            (tops - 3.277).abs() < 0.15,
            "expected ≈3.277 TOPS, got {tops}"
        );
    }

    #[test]
    fn figure8b_throughput_is_about_0_81_tops() {
        let t = TimingModel::s28_default();
        let spec = AcimSpec::from_dimensions(128, 128, 8, 3).unwrap();
        let tops = t.throughput_tops(&spec).unwrap();
        assert!(
            (tops - 0.813).abs() < 0.05,
            "expected ≈0.813 TOPS, got {tops}"
        );
        // Figure 8(c) has the same throughput as (b): same H/L·W product.
        let c = AcimSpec::from_dimensions(64, 256, 8, 3).unwrap();
        assert!((t.throughput_tops(&c).unwrap() - tops).abs() < 1e-9);
    }

    #[test]
    fn throughput_ratio_between_l2_and_l8_is_4x() {
        let t = TimingModel::s28_default();
        let l2 = AcimSpec::from_dimensions(128, 128, 2, 3).unwrap();
        let l8 = AcimSpec::from_dimensions(128, 128, 8, 3).unwrap();
        let ratio = t.throughput_tops(&l2).unwrap() / t.throughput_tops(&l8).unwrap();
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn higher_adc_precision_slows_the_cycle() {
        let t = TimingModel::s28_default();
        assert!(t.cycle_time(8).value() > t.cycle_time(3).value());
        // The B = 3 cycle is about 5 ns with the default timing.
        let ns = t.cycle_time(3).value() / 1000.0;
        assert!((ns - 5.0).abs() < 0.3, "cycle time {ns:.2} ns");
    }

    #[test]
    fn invalid_timing_rejected() {
        let spec = AcimSpec::from_dimensions(128, 128, 2, 3).unwrap();
        for value in [0.0, -1.0, f64::NAN] {
            let bad = TimingModel {
                t_compute: Picosecond::new(value),
                ..TimingModel::s28_default()
            };
            assert!(bad.throughput_ops(&spec).is_err(), "t_compute = {value}");
        }
    }
}
