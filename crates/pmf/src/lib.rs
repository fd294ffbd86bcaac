//! Stochastic substrate for energy-constrained dynamic resource allocation.
//!
//! The paper models every task execution time as a discrete random variable
//! described by a probability mass function (pmf). All of the scheduling
//! mathematics — completion-time prediction (Sec. IV-B), robustness
//! (Sec. IV-C), expected completion time, and expected energy consumption
//! (Sec. V-A) — reduces to a small algebra over pmfs:
//!
//! * **convolution** of independent execution-time pmfs to obtain queue
//!   completion-time pmfs,
//! * **shifting** a pmf by a scalar (a task's start time or a core's ready
//!   time),
//! * **truncation and renormalization** of an in-progress task's
//!   completion-time pmf (impulses in the past are impossible outcomes and
//!   must be removed, with the remaining mass rescaled to 1),
//! * **impulse reduction** so that repeated convolution does not blow up the
//!   support size,
//! * **moments and tail probabilities** (expectation for ECT/EET/EEC, the
//!   CDF at a deadline for the robustness value ρ).
//!
//! This crate implements that algebra, plus the deterministic random
//! machinery the rest of the workspace builds on: a seed-derivation scheme
//! for reproducible independent substreams and the continuous samplers
//! (gamma, exponential, uniform) that the CVB workload generator and the
//! cluster generator require. Gamma sampling is implemented here (Marsaglia &
//! Tsang) rather than pulled from `rand_distr` to keep the dependency
//! surface at the sanctioned set and to pin sampling behaviour across
//! dependency upgrades.
//!
//! # Quick example
//!
//! ```
//! use ecds_pmf::{Pmf, ReductionPolicy};
//!
//! // Execution time of task A: 10 with prob 0.5, 20 with prob 0.5.
//! let a = Pmf::from_pairs(&[(10.0, 0.5), (20.0, 0.5)]).unwrap();
//! // Execution time of task B: always 5.
//! let b = Pmf::singleton(5.0);
//!
//! // Completion time of B queued behind A on an idle core at time 0:
//! let completion = a.convolve(&b, ReductionPolicy::unlimited());
//! assert_eq!(completion.expectation(), 20.0);
//! assert!((completion.prob_le(15.0) - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod convolve;
pub mod dist;
pub mod error;
pub mod impulse;
pub mod pmf;
pub mod reduce;
pub mod sample;
pub mod scaled;
pub mod scratch;
pub mod seed;
pub mod truncate;

pub use dist::{Exponential, Gamma, Uniform};
pub use error::PmfError;
pub use impulse::Impulse;
pub use pmf::Pmf;
pub use reduce::ReductionPolicy;
pub use sample::{empirical_pmf, empirical_pmf_into, SamplePmfConfig};
pub use scaled::ScaledPmf;
pub use scratch::PmfScratch;
pub use seed::{SeedDerive, Stream};

/// Probability type used throughout the workspace.
pub type Prob = f64;

/// Simulated-time type used throughout the workspace. The paper works in
/// abstract time units (mean task execution time μ_task = 750 units).
pub type Time = f64;

/// Tolerance used when checking that a pmf's mass sums to one and when
/// merging impulses that should be considered the same support point.
pub const MASS_EPSILON: f64 = 1e-9;

/// Relative tolerance used to merge adjacent support values produced by
/// convolution (floating-point noise can split what is mathematically a
/// single impulse into several).
pub const VALUE_MERGE_EPSILON: f64 = 1e-12;
