//! Shared numeric helpers of the estimation model.
//!
//! One conversion surface for the dB arithmetic used across the SNR model
//! and the calibration fits, plus the table-accelerated `log10` the
//! hoisted kernel relies on.  Everything here is **bit-identical** to the
//! naive `f64` expression it replaces — the speed comes from memoizing
//! whole function results over the discrete design grid, never from
//! reassociating floating-point operations (see `ModelInvariants`).

use std::sync::LazyLock;

/// Converts a power ratio to decibels: `10·log10(ratio)`.
pub fn db(ratio: f64) -> f64 {
    10.0 * ratio.log10()
}

/// Converts decibels back to a power ratio: `10^(dB/10)`.
pub fn from_db(value_db: f64) -> f64 {
    10f64.powf(value_db / 10.0)
}

/// `log10(2^k)` for every `k`, each entry computed by the very
/// `(n as f64).log10()` call it replaces — a table hit is bit-identical
/// by construction.
static LOG10_POW2: LazyLock<[f64; 64]> = LazyLock::new(|| {
    let mut table = [0.0; 64];
    for (k, entry) in table.iter_mut().enumerate() {
        *entry = ((1u64 << k) as f64).log10();
    }
    table
});

/// `log10(n)` for a positive integer, table-accelerated for powers of two.
///
/// The design grid makes `N = H/L` a power of two for every explorable
/// spec (heights are power-of-two divisors, `L ∈ {2, 4, 8, 16, 32}`), so
/// the hot path is a table load; any other `n` falls back to the exact
/// same `(n as f64).log10()` call the table entries were built from.
/// Either way the result is bit-identical to `(n as f64).log10()`.
pub fn log10_int(n: usize) -> f64 {
    if n.is_power_of_two() {
        LOG10_POW2[n.trailing_zeros() as usize]
    } else {
        (n as f64).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_helpers_roundtrip() {
        assert!((from_db(db(123.0)) - 123.0).abs() < 1e-9);
        assert_eq!(db(100.0), 20.0);
    }

    #[test]
    fn log10_table_is_bit_identical_to_libm() {
        for k in 0..64u32 {
            let n = 1usize << k.min(usize::BITS - 1);
            assert_eq!(
                log10_int(n).to_bits(),
                (n as f64).log10().to_bits(),
                "table diverged at 2^{k}"
            );
        }
        // Non-power-of-two fallback.
        for n in [3usize, 5, 7, 12, 100, 12_345] {
            assert_eq!(log10_int(n).to_bits(), (n as f64).log10().to_bits());
        }
    }
}
