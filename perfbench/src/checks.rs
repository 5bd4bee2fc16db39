//! Output checks: frontier digests, emitted-byte digests and the
//! hypervolume quality guard.

use acim_dse::{ChipDesignPoint, DesignPoint};
use acim_moga::hypervolume_monte_carlo;

use crate::common::{mean, SizedRequest};
use crate::pins;

/// FNV-1a, 64 bit: a stable digest of emitted text and frontier bits.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, value: u64) -> Self {
        self.bytes(&value.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a macro frontier: every spec and the bits of its objectives.
pub fn macro_frontier_digest(points: &[DesignPoint]) -> u64 {
    points
        .iter()
        .fold(Digest::default(), |digest, point| {
            let spec = &point.spec;
            let digest = digest
                .u64(spec.height() as u64)
                .u64(spec.width() as u64)
                .u64(spec.local_array() as u64)
                .u64(u64::from(spec.adc_bits()));
            point
                .metrics
                .objective_array()
                .iter()
                .fold(digest, |d, v| d.u64(v.to_bits()))
        })
        .finish()
}

/// Digest of a chip frontier: every chip spec and its objective bits.
pub fn chip_frontier_digest(points: &[ChipDesignPoint]) -> u64 {
    points
        .iter()
        .fold(Digest::default(), |digest, point| {
            let digest = digest.bytes(format!("{:?}", point.chip).as_bytes());
            point
                .metrics
                .objective_array()
                .iter()
                .fold(digest, |d, v| d.u64(v.to_bits()))
        })
        .finish()
}

/// Monte-Carlo samples and seed of the hypervolume guard.
const HV_SAMPLES: usize = 4096;
const HV_SEED: u64 = 0x4856;

/// Objectives `[−SNR, −throughput, energy, area]` in comparable scales:
/// SNR in bels, the others as decades.
pub fn hv_coordinates(objectives: [f64; 4]) -> Vec<f64> {
    vec![
        objectives[0] / 10.0,
        -(-objectives[1]).log10(),
        objectives[2].log10(),
        objectives[3].log10(),
    ]
}

/// Seeded Monte-Carlo hypervolume of a front (rows of
/// [`hv_coordinates`]) against a fixed reference point.
pub fn hypervolume(front: &[Vec<f64>], reference: &[f64; 4]) -> f64 {
    if front.is_empty() {
        return 0.0;
    }
    hypervolume_monte_carlo(front, reference, HV_SAMPLES, HV_SEED)
}

/// Mean hypervolume of macro requests' distilled frontiers, each against
/// the pinned reference point of its array size.
pub fn macro_frontier_hv(fronts: &[(SizedRequest, Vec<DesignPoint>)]) -> Result<f64, String> {
    let mut hv = Vec::with_capacity(fronts.len());
    for (request, distilled) in fronts {
        let reference = pins::macro_reference(request.kb)
            .ok_or_else(|| format!("no pinned reference for {} kb", request.kb))?;
        hv.push(hypervolume(&macro_hv_front(distilled), &reference));
    }
    Ok(mean(&hv))
}

pub fn macro_hv_front(points: &[DesignPoint]) -> Vec<Vec<f64>> {
    points
        .iter()
        .map(|p| hv_coordinates(p.metrics.objective_array()))
        .collect()
}

pub fn chip_hv_front(points: &[ChipDesignPoint]) -> Vec<Vec<f64>> {
    points
        .iter()
        .map(|p| hv_coordinates(p.metrics.objective_array()))
        .collect()
}

/// Component-wise maximum of a set of fronts plus a margin: how the
/// pinned reference points were derived.
pub fn nadir_reference<'a>(fronts: impl IntoIterator<Item = &'a Vec<Vec<f64>>>) -> [f64; 4] {
    let mut reference = [f64::NEG_INFINITY; 4];
    for front in fronts {
        for point in front {
            for (r, v) in reference.iter_mut().zip(point) {
                *r = r.max(*v);
            }
        }
    }
    reference.map(|r| r + 0.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(
            Digest::default().bytes(b"a").finish(),
            0xaf63_dc4c_8601_ec8c
        );
    }

    #[test]
    fn hypervolume_grows_with_a_dominating_point() {
        let reference = [1.0; 4];
        let worse = vec![vec![0.5; 4]];
        let better = vec![vec![0.5; 4], vec![0.2, 0.2, 0.2, 0.9]];
        assert!(hypervolume(&better, &reference) > hypervolume(&worse, &reference));
    }
}
