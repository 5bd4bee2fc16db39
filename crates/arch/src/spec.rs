//! The ACIM design specification (H, W, L, B_ADC) and its architectural
//! constraints.

use std::fmt;

use crate::error::ArchError;

/// Bounds on the local-array size used by the paper's design-space
/// exploration ("L is limited to between 2 and 32 to avoid extreme
/// results").
pub const MIN_LOCAL_ARRAY: usize = 2;
/// Upper bound of the local-array size (see [`MIN_LOCAL_ARRAY`]).
pub const MAX_LOCAL_ARRAY: usize = 32;
/// Maximum ADC precision explored by the paper ("B_ADC is set within 8
/// bits").
pub const MAX_ADC_BITS: u32 = 8;

/// A complete ACIM design specification: the four parameters explored by the
/// MOGA-based design-space explorer (Section 3.2), validated against the
/// constraints of Equation 12.
///
/// * `H` — array height (cells per column),
/// * `W` — array width (columns),
/// * `L` — local-array size (8T cells sharing one compute capacitor),
/// * `B_ADC` — SAR ADC precision in bits.
///
/// # Example
///
/// ```
/// use acim_arch::AcimSpec;
///
/// # fn main() -> Result<(), acim_arch::ArchError> {
/// let spec = AcimSpec::new(16 * 1024, 128, 128, 8, 3)?;
/// assert_eq!(spec.dot_product_length(), 16);
/// assert_eq!(spec.capacitors_per_column(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AcimSpec {
    array_size: usize,
    height: usize,
    width: usize,
    local_array: usize,
    adc_bits: u32,
}

impl AcimSpec {
    /// Creates and validates a specification.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidSpec`] when any of the constraints of
    /// Equation 12 (or the practical bounds of the paper's exploration) is
    /// violated:
    ///
    /// * `H · W = array_size`,
    /// * `H ≥ L` and `H` divisible by `L`,
    /// * `H / L ≥ 2^B_ADC` (enough capacitors to form the CDAC),
    /// * `2 ≤ L ≤ 32`, `1 ≤ B_ADC ≤ 8`, and all dimensions positive.
    pub fn new(
        array_size: usize,
        height: usize,
        width: usize,
        local_array: usize,
        adc_bits: u32,
    ) -> Result<Self, ArchError> {
        if height == 0 || width == 0 || array_size == 0 {
            return Err(ArchError::invalid_spec(
                "positive dimensions",
                format!("H={height}, W={width}, array_size={array_size}"),
            ));
        }
        if height * width != array_size {
            return Err(ArchError::invalid_spec(
                "H*W=ArraySize",
                format!("{height}*{width} != {array_size}"),
            ));
        }
        if !(MIN_LOCAL_ARRAY..=MAX_LOCAL_ARRAY).contains(&local_array) {
            return Err(ArchError::invalid_spec(
                "L in [2, 32]",
                format!("L={local_array}"),
            ));
        }
        if height < local_array {
            return Err(ArchError::invalid_spec(
                "H-L>=0",
                format!("H={height} < L={local_array}"),
            ));
        }
        if !height.is_multiple_of(local_array) {
            return Err(ArchError::invalid_spec(
                "L divides H",
                format!("H={height} is not a multiple of L={local_array}"),
            ));
        }
        if adc_bits == 0 || adc_bits > MAX_ADC_BITS {
            return Err(ArchError::invalid_spec(
                "B_ADC in [1, 8]",
                format!("B_ADC={adc_bits}"),
            ));
        }
        let caps_per_column = height / local_array;
        if caps_per_column < (1usize << adc_bits) {
            return Err(ArchError::invalid_spec(
                "H/L - 2^B_ADC >= 0",
                format!("H/L={caps_per_column} < 2^B_ADC={}", 1usize << adc_bits),
            ));
        }
        Ok(Self {
            array_size,
            height,
            width,
            local_array,
            adc_bits,
        })
    }

    /// Creates a specification directly from (H, W, L, B) with the array
    /// size implied by `H · W`.
    ///
    /// # Errors
    ///
    /// Same as [`AcimSpec::new`].
    pub fn from_dimensions(
        height: usize,
        width: usize,
        local_array: usize,
        adc_bits: u32,
    ) -> Result<Self, ArchError> {
        Self::new(height * width, height, width, local_array, adc_bits)
    }

    /// Total number of bit cells (`H · W`), the user-defined array size.
    pub fn array_size(&self) -> usize {
        self.array_size
    }

    /// Array height `H` (bit cells per column).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Array width `W` (number of columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Local-array size `L` (cells sharing one compute capacitor).
    pub fn local_array(&self) -> usize {
        self.local_array
    }

    /// ADC precision `B_ADC` in bits.
    pub fn adc_bits(&self) -> u32 {
        self.adc_bits
    }

    /// Number of compute capacitors per column (`H / L`), which is also the
    /// dot-product length `N` processed in a single MAC cycle.
    pub fn capacitors_per_column(&self) -> usize {
        self.height / self.local_array
    }

    /// Dot-product length per MAC cycle (alias of
    /// [`capacitors_per_column`](Self::capacitors_per_column), named after
    /// the `N` of the paper's estimation model).
    pub fn dot_product_length(&self) -> usize {
        self.capacitors_per_column()
    }

    /// Number of MAC operations completed per conversion cycle across the
    /// whole macro: `(H / L) · W`.
    pub fn macs_per_cycle(&self) -> usize {
        self.capacitors_per_column() * self.width
    }

    /// CDAC SAR-group sizes in unit capacitors, following the paper's
    /// 1 : 1 : 2 : 4 : … : 2^(B−1) ratio.  The sum is `2^B_ADC`, which is
    /// guaranteed to fit in the available `H / L` capacitors.
    pub fn sar_group_sizes(&self) -> Vec<usize> {
        let b = self.adc_bits as usize;
        let mut sizes = Vec::with_capacity(b + 1);
        sizes.push(1);
        for k in 0..b.saturating_sub(1) {
            sizes.push(1usize << k);
        }
        if b >= 1 {
            sizes.push(1usize << (b - 1));
        }
        // The construction above yields [1, 1, 2, 4, ..., 2^(b-1)] with b+1
        // entries whose sum is 2^b; the first "dummy" group keeps the ratio
        // of the paper's CDAC (a 1× LSB group plus b binary-weighted groups).
        sizes
    }

    /// Number of spare compute capacitors per column not needed by the CDAC
    /// (`H/L − 2^B_ADC`); these are isolated by the CMOS switch during
    /// conversion to save energy (Section 3.1).
    pub fn spare_capacitors(&self) -> usize {
        self.capacitors_per_column() - (1usize << self.adc_bits)
    }

    /// Returns all valid (H, W) factorisations of `array_size` with `H` a
    /// power of two between `min_height` and `max_height` — the candidate
    /// set enumerated by the design-space explorer.
    pub fn factorizations(
        array_size: usize,
        min_height: usize,
        max_height: usize,
    ) -> Vec<(usize, usize)> {
        let mut result = Vec::new();
        let mut h = 1usize;
        while h <= max_height {
            if h >= min_height && array_size.is_multiple_of(h) {
                result.push((h, array_size / h));
            }
            h *= 2;
            if h == 0 {
                break;
            }
        }
        result
    }
}

impl fmt::Display for AcimSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ACIM[{}x{} L={} B={}b]",
            self.height, self.width, self.local_array, self.adc_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_specs_are_valid() {
        // The three layouts of Figure 8: 16 kb, B_ADC = 3.
        let a = AcimSpec::new(16 * 1024, 128, 128, 2, 3).expect("fig 8(a)");
        let b = AcimSpec::new(16 * 1024, 128, 128, 8, 3).expect("fig 8(b)");
        let c = AcimSpec::new(16 * 1024, 64, 256, 8, 3).expect("fig 8(c)");
        assert_eq!(a.dot_product_length(), 64);
        assert_eq!(b.dot_product_length(), 16);
        assert_eq!(c.dot_product_length(), 8);
        assert_eq!(a.macs_per_cycle(), 8192);
        assert_eq!(b.macs_per_cycle(), 2048);
        assert_eq!(c.macs_per_cycle(), 2048);
    }

    #[test]
    fn array_size_mismatch_rejected() {
        let err = AcimSpec::new(16 * 1024, 128, 100, 8, 3).unwrap_err();
        assert!(
            matches!(err, ArchError::InvalidSpec { constraint, .. } if constraint.contains("ArraySize"))
        );
    }

    #[test]
    fn local_array_bounds_enforced() {
        assert!(AcimSpec::from_dimensions(128, 128, 1, 3).is_err());
        assert!(AcimSpec::from_dimensions(128, 128, 64, 3).is_err());
        assert!(AcimSpec::from_dimensions(128, 128, 32, 2).is_ok());
    }

    #[test]
    fn adc_capacity_constraint_enforced() {
        // H/L = 16 but 2^5 = 32 > 16 → invalid.
        let err = AcimSpec::from_dimensions(128, 128, 8, 5).unwrap_err();
        assert!(
            matches!(err, ArchError::InvalidSpec { constraint, .. } if constraint.contains("2^B_ADC"))
        );
        // H/L = 16 and 2^4 = 16 → exactly enough.
        assert!(AcimSpec::from_dimensions(128, 128, 8, 4).is_ok());
    }

    #[test]
    fn h_must_be_multiple_of_l() {
        assert!(AcimSpec::from_dimensions(100, 164, 8, 2).is_err());
    }

    #[test]
    fn adc_bits_bounds() {
        assert!(AcimSpec::from_dimensions(512, 32, 2, 0).is_err());
        assert!(AcimSpec::from_dimensions(512, 32, 2, 9).is_err());
        assert!(AcimSpec::from_dimensions(512, 32, 2, 8).is_ok());
    }

    #[test]
    fn sar_group_sizes_follow_binary_ratio() {
        let spec = AcimSpec::from_dimensions(128, 128, 8, 4).unwrap();
        let sizes = spec.sar_group_sizes();
        assert_eq!(sizes, vec![1, 1, 2, 4, 8]);
        assert_eq!(sizes.iter().sum::<usize>(), 16);
        assert_eq!(sizes.iter().sum::<usize>(), 1 << spec.adc_bits());
    }

    #[test]
    fn sar_group_sizes_one_bit() {
        let spec = AcimSpec::from_dimensions(64, 64, 32, 1).unwrap();
        let sizes = spec.sar_group_sizes();
        assert_eq!(sizes, vec![1, 1]);
        assert_eq!(sizes.iter().sum::<usize>(), 2);
    }

    #[test]
    fn spare_capacitors_counted() {
        let spec = AcimSpec::from_dimensions(128, 128, 2, 3).unwrap();
        assert_eq!(spec.capacitors_per_column(), 64);
        assert_eq!(spec.spare_capacitors(), 64 - 8);
    }

    #[test]
    fn factorizations_enumerate_powers_of_two() {
        let f = AcimSpec::factorizations(16 * 1024, 16, 1024);
        assert!(f.contains(&(128, 128)));
        assert!(f.contains(&(64, 256)));
        assert!(f.contains(&(1024, 16)));
        for (h, w) in &f {
            assert_eq!(h * w, 16 * 1024);
            assert!(h.is_power_of_two());
        }
    }

    #[test]
    fn display_format() {
        let spec = AcimSpec::from_dimensions(128, 128, 8, 3).unwrap();
        assert_eq!(spec.to_string(), "ACIM[128x128 L=8 B=3b]");
    }

    #[test]
    fn accessors_roundtrip() {
        let spec = AcimSpec::new(32 * 1024, 256, 128, 4, 5).unwrap();
        assert_eq!(spec.array_size(), 32 * 1024);
        assert_eq!(spec.height(), 256);
        assert_eq!(spec.width(), 128);
        assert_eq!(spec.local_array(), 4);
        assert_eq!(spec.adc_bits(), 5);
    }
}
