//! Shared numeric helpers of the estimation model: one conversion surface
//! for the dB arithmetic used across the SNR model and the calibration
//! fits.

/// Converts a power ratio to decibels: `10·log10(ratio)`.
pub fn db(ratio: f64) -> f64 {
    10.0 * ratio.log10()
}

/// Converts decibels back to a power ratio: `10^(dB/10)`.
pub fn from_db(value_db: f64) -> f64 {
    10f64.powf(value_db / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_helpers_roundtrip() {
        assert!((from_db(db(123.0)) - 123.0).abs() < 1e-9);
        assert_eq!(db(100.0), 20.0);
    }
}
