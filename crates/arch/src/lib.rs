//! # acim-arch
//!
//! The synthesizable ACIM architecture of EasyACIM (Section 3.1, Figures 5
//! and 6 of the paper) and a behavioural, charge-domain simulator of it.
//!
//! The architecture is a W-column SRAM compute array.  Each column holds
//! `H` 8T SRAM cells grouped into local arrays of `L` cells; every local
//! array shares one metal-fringe compute capacitor `C_F` and its control
//! circuit.  The `H / L` compute capacitors of a column double as the CDAC
//! of a SAR ADC: they are partitioned into `B_ADC` SAR groups with the
//! binary ratio 1 : 1 : 2 : … : 2^(B_ADC − 1), which is why the architecture
//! requires `H / L ≥ 2^B_ADC`.
//!
//! Two operating states are modelled, following the paper's timing diagram:
//!
//! 1. **MAC state** — the selected row of every local array computes the
//!    1-bit product of its stored weight and the broadcast activation; the
//!    product drives the top plate of the local compute capacitor to either
//!    `V_DD` or `V_SS`.
//! 2. **ADC conversion state** — the capacitor charge redistributes on the
//!    read bit-line (bottom-plate charge redistribution), producing the
//!    analog accumulation voltage `V_x`, which the SAR logic digitises in
//!    `B_ADC` comparison rounds using the same capacitors as the CDAC.
//!
//! The simulator injects the noise sources of the paper's Equation 5 —
//! capacitor mismatch, kT/C thermal noise and comparator noise — so the
//! analytic estimation model in `acim-model` can be calibrated and
//! cross-checked against "measured" (Monte-Carlo) SNR.
//!
//! # Example
//!
//! ```
//! use acim_arch::{AcimSpec, AcimMacro, NoiseConfig};
//! use acim_tech::Technology;
//!
//! # fn main() -> Result<(), acim_arch::ArchError> {
//! let spec = AcimSpec::new(16 * 1024, 128, 128, 8, 3)?;
//! let tech = Technology::s28();
//! let mut macro_sim = AcimMacro::new(&spec, &tech, NoiseConfig::noiseless(), 1)?;
//! // Program a checkerboard weight pattern and run one MAC + ADC cycle.
//! macro_sim.program_with(|row, col| (row + col) % 2 == 0);
//! let ones = vec![true; spec.dot_product_length()];
//! let outputs = macro_sim.mac_and_convert(&ones, 0)?;
//! assert_eq!(outputs.len(), spec.width());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adc;
pub mod compute_model;
pub mod energy;
pub mod error;
pub mod macro_sim;
pub mod snr;
pub mod spec;
pub mod timing;

pub use adc::{CdacBank, SarAdc};
pub use compute_model::{ComputeModel, ComputeModelKind};
pub use energy::{EnergyBreakdown, EnergyModelParams};
pub use error::ArchError;
pub use macro_sim::{AcimMacro, MacroStats, NoiseConfig};
pub use snr::{measure_snr, SnrMeasurement};
pub use spec::AcimSpec;
pub use timing::{OperatingState, TimingModel};
