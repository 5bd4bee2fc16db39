//! Area estimation (Equation 10).
//!
//! The average area per bit cell is the 8T cell itself plus the amortised
//! share of the local-array-shared computing cell (divided by `L`), the
//! per-column comparator (divided by `H`) and the `B_ADC` SAR flip-flops
//! (divided by `H`):
//!
//! ```text
//! A = A_SRAM + A_LC / L + A_COMP / H + B_ADC · A_DFF / H        [F²/bit]
//! ```

use acim_arch::AcimSpec;

use crate::error::ModelError;
use crate::params::{AreaParams, ModelParams};

/// Average area per bit in F² (Equation 10).
///
/// # Errors
///
/// Returns [`ModelError::InvalidParameter`] when the parameter set fails
/// validation.
pub fn area_f2_per_bit(spec: &AcimSpec, params: &ModelParams) -> Result<f64, ModelError> {
    params.validate()?;
    Ok(area_per_bit(spec, &params.area))
}

/// Equation 10 on areas the caller has already validated.
pub(crate) fn area_per_bit(spec: &AcimSpec, area: &AreaParams) -> f64 {
    let l = spec.local_array() as f64;
    let h = spec.height() as f64;
    let b = f64::from(spec.adc_bits());
    area.a_sram.value()
        + area.a_lc.value() / l
        + area.a_comp.value() / h
        + b * area.a_dff.value() / h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(h: usize, w: usize, l: usize, b: u32) -> AcimSpec {
        AcimSpec::from_dimensions(h, w, l, b).unwrap()
    }

    #[test]
    fn figure8_area_anchors() {
        // Figure 8: (a) 128x128 L=2 → 4504 F²/bit, (b) 128x128 L=8 → 2610,
        // (c) 64x256 L=8 → 2977.  All at B_ADC = 3.
        let params = ModelParams::s28_default();
        let a = area_f2_per_bit(&spec(128, 128, 2, 3), &params).unwrap();
        let b = area_f2_per_bit(&spec(128, 128, 8, 3), &params).unwrap();
        let c = area_f2_per_bit(&spec(64, 256, 8, 3), &params).unwrap();
        assert!((a - 4504.0).abs() < 30.0, "fig 8(a): {a:.0} F²/bit");
        assert!((b - 2610.0).abs() < 30.0, "fig 8(b): {b:.0} F²/bit");
        assert!((c - 2977.0).abs() < 30.0, "fig 8(c): {c:.0} F²/bit");
    }

    #[test]
    fn smaller_l_costs_area() {
        let params = ModelParams::s28_default();
        let l2 = area_f2_per_bit(&spec(128, 128, 2, 3), &params).unwrap();
        let l32 = area_f2_per_bit(&spec(128, 128, 32, 2), &params).unwrap();
        assert!(l2 > l32);
    }

    #[test]
    fn smaller_h_costs_area() {
        let params = ModelParams::s28_default();
        let tall = area_f2_per_bit(&spec(256, 64, 8, 3), &params).unwrap();
        let short = area_f2_per_bit(&spec(32, 512, 8, 2), &params).unwrap();
        assert!(short > tall);
    }

    #[test]
    fn more_adc_bits_cost_area() {
        let params = ModelParams::s28_default();
        let b3 = area_f2_per_bit(&spec(128, 128, 4, 3), &params).unwrap();
        let b5 = area_f2_per_bit(&spec(128, 128, 4, 5), &params).unwrap();
        assert!(b5 > b3);
        assert!(
            (b5 - b3 - 2.0 * params.area.a_dff.value() / 128.0).abs() < 1e-9,
            "difference should be exactly 2·A_DFF/H"
        );
    }

    #[test]
    fn area_is_in_papers_band() {
        // The paper reports the design space spanning 1500–7500 F²/bit.
        let params = ModelParams::s28_default();
        for (h, w, l, b) in [
            (128usize, 128usize, 2usize, 3u32),
            (128, 128, 32, 2),
            (32, 512, 16, 1),
            (512, 32, 2, 8),
            (1024, 16, 4, 8),
        ] {
            let area = area_f2_per_bit(&spec(h, w, l, b), &params).unwrap();
            assert!(
                (1500.0..9000.0).contains(&area),
                "area {area:.0} out of band for H={h} W={w} L={l} B={b}"
            );
        }
    }
}
