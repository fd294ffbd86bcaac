//! Discrete-event simulator for the energy-constrained dynamic mapping
//! study.
//!
//! The simulator drives one *trial*: a [`ecds_workload::WorkloadTrace`] of
//! dynamically-arriving tasks mapped onto an [`ecds_cluster::Cluster`]
//! through one unified event-driven engine with a pluggable *commitment
//! discipline* (the [`Discipline`] trait): immediate mode drives a
//! [`Mapper`] (the heuristics and filters live in `ecds-core`; the
//! simulator knows only the trait) committing each task to a core FIFO at
//! its arrival instant, while batch mode (`ecds-ext`) holds a central
//! pending bag and commits when cores free up. The engine maintains
//! per-core FIFO run queues, P-state transition logs, and exact energy
//! accounting per the paper's Eqs. 1–2, and reports a [`TrialResult`] with
//! per-task outcomes and the paper's metric: missed deadlines under the
//! energy constraint.
//!
//! # Semantics (paper Sec. III, plus DESIGN.md §3 interpretations)
//!
//! * Immediate mode: each task is mapped at its arrival instant and is never
//!   reassigned; if the mapper returns `None` (a filter eliminated every
//!   assignment) the task is discarded.
//! * A core executes its queue FIFO; it cannot be preempted and P-states
//!   switch only between tasks (transition times ignored).
//! * Cores are never off: an idle core keeps drawing its last P-state's
//!   power. Every core starts in a configurable initial P-state (default
//!   `P4`) at time zero — the paper's "transition at the start of workload
//!   execution".
//! * Energy: per-core transition logs integrate piecewise-constant power
//!   (Eq. 1), summed over cores after dividing by each node's power-supply
//!   efficiency (Eq. 2). The instant the cumulative consumption crosses the
//!   budget ζ_max is computed exactly; tasks completing after it do not
//!   count (DESIGN.md §3.1).
//!
//! # Example
//!
//! ```
//! use ecds_sim::{Scenario, Simulation, Mapper, Assignment, SystemView};
//! use ecds_workload::Task;
//!
//! /// Maps every task to core 0 at the base P-state.
//! struct Naive;
//! impl Mapper for Naive {
//!     fn assign(&mut self, _task: &Task, _view: &SystemView<'_>) -> Option<Assignment> {
//!         Some(Assignment { core: 0, pstate: ecds_cluster::PState::P0 })
//!     }
//! }
//!
//! let scenario = Scenario::small_for_tests(42);
//! let trace = scenario.trace(0);
//! let result = Simulation::new(&scenario, &trace).run(&mut Naive);
//! assert_eq!(result.window(), trace.len());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod discipline;
pub mod energy;
pub mod engine;
pub mod event;
pub mod report;
pub mod result;
pub mod scenario;
pub mod serve;
pub mod state;
mod store;
pub mod telemetry;
pub mod view;

pub use config::SimConfig;
pub use discipline::{Discipline, EngineCtx, ImmediateDiscipline};
pub use energy::{exhaustion_time, EnergyAccountant, TransitionLog};
pub use engine::Simulation;
pub use event::{EventKind, EventQueue};
pub use report::EnergyBreakdown;
pub use result::{TaskOutcome, TrialResult};
pub use scenario::Scenario;
pub use serve::{
    Horizon, Retention, RetiredTally, ServeConfig, ServeSession, ServeSummary, TelemetryFold,
    CHECKPOINT_VERSION,
};
pub use state::{CoreState, ExecutingTask, QueuedTask};
pub use telemetry::{MapperStats, Telemetry};
pub use view::{Assignment, Mapper, SystemView};
