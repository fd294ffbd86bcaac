//! The paper's contribution: robustness-aware, energy-constrained
//! immediate-mode resource allocation (Sections IV and V).
//!
//! # Architecture
//!
//! Mapping one arriving task is a three-stage pipeline, assembled by
//! [`Scheduler`] (which implements [`ecds_sim::Mapper`]):
//!
//! 1. **Evaluate** — [`CandidateEvaluator`] covers every assignment
//!    (core × P-state) and computes the paper's four per-assignment
//!    quantities: expected execution time `EET`, expected completion time
//!    `ECT`, expected energy consumption `EEC`, and the robustness value
//!    `ρ(i,j,k,π,t_l,z)` — the probability the task meets its deadline
//!    under that assignment, obtained from the stochastic completion-time
//!    pmf of Sec. IV-B (shift + truncate + renormalize the executing task,
//!    convolve the queue, convolve the candidate). The result is a list
//!    of [`ClassCandidate`]s at one of two granularities: the shard
//!    index's equivalence classes of bit-identical cores, when the
//!    heuristic may decide from them, or one class per core, in core
//!    order (DESIGN.md §13).
//! 2. **Filter** — any chain of [`Filter`]s narrows the classes' feasible
//!    P-states. The paper's two filters are provided: the [`EnergyFilter`]
//!    ("fair share" of the remaining energy budget, Eq. 6, with
//!    queue-depth-adaptive ζ_mul) and the [`RobustnessFilter`] (drop
//!    assignments with `ρ < ρ_thresh = 0.5`). An empty result discards the
//!    task.
//! 3. **Choose** — a [`Heuristic`] picks one surviving (class, P-state)
//!    pair, assigned to the class's lowest core: [`ShortestQueue`] (SQ),
//!    [`MinimumExpectedCompletionTime`] (MECT), [`LightestLoad`] (LL, the
//!    paper's new heuristic minimizing `EEC × (1 − ρ)`), or
//!    [`RandomChoice`]; the \[MaA99\] baselines and a deterministic
//!    contrast ride along for the ablations.
//!
//! The 4 heuristics × 4 filter variants of the paper's Figures 2–5 are all
//! expressible through [`build_scheduler`].
//!
//! [`Scheduler::assign_observed`] runs the same pipeline and reports each
//! stage, and the decision, to a read-only [`DecisionObserver`]; the
//! `validate` binary records every chosen assignment's ρ this way.
//!
//! # Example
//!
//! ```
//! use ecds_core::{build_scheduler, FilterVariant, HeuristicKind};
//! use ecds_sim::{Scenario, Simulation};
//!
//! let scenario = Scenario::small_for_tests(42);
//! let trace = scenario.trace(0);
//! let mut mapper = build_scheduler(
//!     HeuristicKind::LightestLoad,
//!     FilterVariant::EnergyAndRobustness,
//!     &scenario,
//!     0, // trial index, seeds the Random heuristic's substream
//! );
//! let result = Simulation::new(&scenario, &trace).run(mapper.as_mut());
//! assert!(result.missed() <= result.window());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod candidate;
pub mod estimate;
pub mod factory;
pub mod filters;
pub mod heuristics;
pub mod observer;
mod pool;
pub mod reference;
pub mod robustness;
pub mod scheduler;
pub mod shard;

pub use candidate::{candidates_bit_eq, EvaluatedCandidate};
pub use estimate::{AssignmentEstimate, CandidateEvaluator};
pub use factory::{build_scheduler, FilterVariant, HeuristicKind};
pub use filters::energy::{EnergyFilter, ZetaMulPolicy};
pub use filters::robustness::RobustnessFilter;
pub use filters::{retain_estimates, Filter, FilterCtx};
pub use heuristics::det_mect::DeterministicMct;
pub use heuristics::kpb::KPercentBest;
pub use heuristics::ll::LightestLoad;
pub use heuristics::mect::MinimumExpectedCompletionTime;
pub use heuristics::met::MinimumExecutionTime;
pub use heuristics::olb::OpportunisticLoadBalancing;
pub use heuristics::random::RandomChoice;
pub use heuristics::sq::ShortestQueue;
pub use heuristics::Heuristic;
pub use observer::DecisionObserver;
pub use robustness::{core_robustness, system_robustness};
pub use scheduler::Scheduler;
pub use shard::ClassCandidate;
