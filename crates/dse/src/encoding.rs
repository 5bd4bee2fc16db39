//! Genome encoding for the (H, W, L, B_ADC) design space.
//!
//! The discrete design space is mapped onto a three-gene real-coded genome
//! in `[0, 1]³`:
//!
//! * gene 0 selects the array height `H` from the power-of-two divisors of
//!   the array size (which fixes `W = ArraySize / H`),
//! * gene 1 selects the local-array size `L` from the powers of two in
//!   `[2, 32]`,
//! * gene 2 selects the ADC precision `B_ADC ∈ [1, 8]`.
//!
//! Candidates decoded this way always satisfy `H · W = ArraySize`; the
//! remaining constraints (`L | H`, `H ≥ L`, `H/L ≥ 2^B`) may be violated and
//! are handled by NSGA-II's constrained-domination (the violation magnitude
//! is returned alongside the decoded candidate).

use acim_arch::spec::{MAX_ADC_BITS, MAX_LOCAL_ARRAY, MIN_LOCAL_ARRAY};
use acim_arch::{AcimSpec, ArchError};

use crate::error::DseError;

/// A decoded (possibly infeasible) candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Array height.
    pub height: usize,
    /// Array width.
    pub width: usize,
    /// Local-array size.
    pub local_array: usize,
    /// ADC precision in bits.
    pub adc_bits: u32,
}

impl Candidate {
    /// The candidate a validated specification was built from.
    pub fn of(spec: &AcimSpec) -> Self {
        Self {
            height: spec.height(),
            width: spec.width(),
            local_array: spec.local_array(),
            adc_bits: spec.adc_bits(),
        }
    }

    /// Attempts to turn the candidate into a validated specification,
    /// returning the constraint-violation magnitude on failure.
    pub fn into_spec(self, array_size: usize) -> Result<AcimSpec, f64> {
        match AcimSpec::new(
            array_size,
            self.height,
            self.width,
            self.local_array,
            self.adc_bits,
        ) {
            Ok(spec) => Ok(spec),
            Err(ArchError::InvalidSpec { .. }) => Err(self.violation(array_size)),
            Err(_) => Err(1.0),
        }
    }

    /// Quantifies how badly the candidate violates the architectural
    /// constraints (0 = feasible).  Normalised so each violated constraint
    /// contributes on the order of 1.
    pub fn violation(self, array_size: usize) -> f64 {
        let mut violation = 0.0;
        if self.height * self.width != array_size {
            violation += 1.0;
        }
        if self.height < self.local_array {
            violation += 1.0 + (self.local_array - self.height) as f64 / self.local_array as f64;
        }
        if self.local_array == 0 || !self.height.is_multiple_of(self.local_array.max(1)) {
            violation += 1.0;
        }
        if let Some(caps) = self.height.checked_div(self.local_array) {
            let needed = 1usize << self.adc_bits;
            if caps < needed {
                violation += 1.0 + (needed - caps) as f64 / needed as f64;
            }
        }
        violation
    }
}

/// The genome ↔ candidate mapping for one array size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignEncoding {
    array_size: usize,
    /// Allowed heights (power-of-two divisors of the array size).
    heights: Vec<usize>,
    /// Allowed local-array sizes.
    local_sizes: Vec<usize>,
    /// Allowed ADC precisions.
    adc_bits: Vec<u32>,
}

impl DesignEncoding {
    /// Builds the encoding for an array size, restricting heights to
    /// power-of-two divisors in `[min_height, max_height]`.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::InvalidConfig`] when no valid height exists.
    pub fn new(array_size: usize, min_height: usize, max_height: usize) -> Result<Self, DseError> {
        let heights = AcimSpec::factorizations(array_size, min_height, max_height)
            .into_iter()
            .map(|(h, _)| h)
            .collect::<Vec<_>>();
        if heights.is_empty() {
            return Err(DseError::InvalidConfig(format!(
                "array size {array_size} has no power-of-two height in [{min_height}, {max_height}]"
            )));
        }
        let local_sizes: Vec<usize> = (1..=5)
            .map(|k| 1usize << k)
            .filter(|&l| (MIN_LOCAL_ARRAY..=MAX_LOCAL_ARRAY).contains(&l))
            .collect();
        let adc_bits: Vec<u32> = (1..=MAX_ADC_BITS).collect();
        Ok(Self {
            array_size,
            heights,
            local_sizes,
            adc_bits,
        })
    }

    /// The array size this encoding targets.
    pub fn array_size(&self) -> usize {
        self.array_size
    }

    /// Number of genes (always 3: height, local size, ADC bits).
    pub fn num_genes(&self) -> usize {
        3
    }

    /// The candidate heights.
    pub fn heights(&self) -> &[usize] {
        &self.heights
    }

    /// The candidate local-array sizes.
    pub fn local_sizes(&self) -> &[usize] {
        &self.local_sizes
    }

    /// The candidate ADC precisions.
    pub fn adc_bits(&self) -> &[u32] {
        &self.adc_bits
    }

    /// Decodes a genome into a candidate.
    ///
    /// # Panics
    ///
    /// Panics if the genome does not have exactly [`Self::num_genes`] genes.
    pub fn decode(&self, genes: &[f64]) -> Candidate {
        assert_eq!(genes.len(), self.num_genes(), "genome length mismatch");
        let height = self.heights[index_from_gene(genes[0], self.heights.len())];
        let local_array = self.local_sizes[index_from_gene(genes[1], self.local_sizes.len())];
        let adc_bits = self.adc_bits[index_from_gene(genes[2], self.adc_bits.len())];
        Candidate {
            height,
            width: self.array_size / height,
            local_array,
            adc_bits,
        }
    }

    /// The bucket indices a genome decodes to — the canonical cache key
    /// of the encoding: two genomes with equal indices decode to the same
    /// candidate, hence the same evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the genome does not have exactly [`Self::num_genes`] genes.
    pub fn bucket_indices(&self, genes: &[f64]) -> Vec<i64> {
        assert_eq!(genes.len(), self.num_genes(), "genome length mismatch");
        vec![
            index_from_gene(genes[0], self.heights.len()) as i64,
            index_from_gene(genes[1], self.local_sizes.len()) as i64,
            index_from_gene(genes[2], self.adc_bits.len()) as i64,
        ]
    }

    /// Encodes a candidate back into gene-space (centre of the bucket);
    /// returns `None` when a value is not part of the encoding.
    pub fn encode(&self, candidate: &Candidate) -> Option<Vec<f64>> {
        let hi = self.heights.iter().position(|&h| h == candidate.height)?;
        let li = self
            .local_sizes
            .iter()
            .position(|&l| l == candidate.local_array)?;
        let bi = self
            .adc_bits
            .iter()
            .position(|&b| b == candidate.adc_bits)?;
        Some(vec![
            gene_from_index(hi, self.heights.len()),
            gene_from_index(li, self.local_sizes.len()),
            gene_from_index(bi, self.adc_bits.len()),
        ])
    }
}

/// Maps a gene in `[0, 1]` to a bucket index in `[0, count)`.
pub(crate) fn index_from_gene(gene: f64, count: usize) -> usize {
    ((gene.clamp(0.0, 1.0) * count as f64) as usize).min(count - 1)
}

/// Centre of bucket `index` in gene space.
pub(crate) fn gene_from_index(index: usize, count: usize) -> f64 {
    (index as f64 + 0.5) / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoding() -> DesignEncoding {
        DesignEncoding::new(16 * 1024, 16, 1024).unwrap()
    }

    #[test]
    fn heights_are_power_of_two_divisors() {
        let e = encoding();
        assert!(e.heights().contains(&128));
        assert!(e.heights().contains(&64));
        for &h in e.heights() {
            assert!(h.is_power_of_two());
            assert_eq!((16 * 1024) % h, 0);
        }
        assert_eq!(e.num_genes(), 3);
        assert_eq!(e.array_size(), 16 * 1024);
    }

    #[test]
    fn local_sizes_and_bits_cover_papers_bounds() {
        let e = encoding();
        assert_eq!(e.local_sizes(), &[2, 4, 8, 16, 32]);
        assert_eq!(e.adc_bits(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn decode_covers_all_buckets_and_is_in_range() {
        let e = encoding();
        for step in 0..=20 {
            let g = f64::from(step) / 20.0;
            let c = e.decode(&[g, g, g]);
            assert!(e.heights().contains(&c.height));
            assert!(e.local_sizes().contains(&c.local_array));
            assert!(e.adc_bits().contains(&c.adc_bits));
            assert_eq!(c.height * c.width, 16 * 1024);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let e = encoding();
        let candidate = Candidate {
            height: 128,
            width: 128,
            local_array: 8,
            adc_bits: 3,
        };
        let genes = e.encode(&candidate).expect("valid candidate encodes");
        assert_eq!(e.decode(&genes), candidate);
    }

    #[test]
    fn encode_rejects_values_outside_the_space() {
        let e = encoding();
        let candidate = Candidate {
            height: 100, // not a power-of-two divisor
            width: 164,
            local_array: 8,
            adc_bits: 3,
        };
        assert!(e.encode(&candidate).is_none());
    }

    #[test]
    fn feasible_candidate_converts_to_spec() {
        let c = Candidate {
            height: 128,
            width: 128,
            local_array: 8,
            adc_bits: 3,
        };
        assert!(c.into_spec(16 * 1024).is_ok());
        assert_eq!(c.violation(16 * 1024), 0.0);
    }

    #[test]
    fn infeasible_candidate_reports_graded_violation() {
        // H/L = 4 but B = 8 needs 256 capacitors.
        let c = Candidate {
            height: 128,
            width: 128,
            local_array: 32,
            adc_bits: 8,
        };
        let violation = c.into_spec(16 * 1024).unwrap_err();
        assert!(violation > 1.0);
        // A milder violation (B = 3 needs 8 > 4 caps) scores lower.
        let milder = Candidate {
            height: 128,
            width: 128,
            local_array: 32,
            adc_bits: 3,
        };
        assert!(milder.violation(16 * 1024) < violation);
        assert!(milder.violation(16 * 1024) > 0.0);
    }

    #[test]
    fn empty_height_range_is_rejected() {
        // 12 000 is not a power-of-two multiple in the allowed band.
        assert!(DesignEncoding::new(10_000, 1024, 2048).is_err());
    }

    #[test]
    fn gene_bucket_helpers_are_inverse() {
        for count in [1usize, 3, 8, 17] {
            for index in 0..count {
                assert_eq!(index_from_gene(gene_from_index(index, count), count), index);
            }
        }
        assert_eq!(index_from_gene(1.0, 5), 4);
        assert_eq!(index_from_gene(0.0, 5), 0);
    }
}
