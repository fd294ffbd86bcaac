//! # ecds — Energy-Constrained Dynamic Scheduling
//!
//! A complete reproduction of *"Energy-Constrained Dynamic Resource
//! Allocation in a Heterogeneous Computing Environment"* (Young et al.,
//! ICPP 2011) as a reusable Rust library: the stochastic completion-time
//! machinery, the robustness model, the SQ/MECT/LL/Random heuristics, the
//! energy and robustness filters, and every substrate the paper's
//! simulation study depends on (heterogeneous DVFS cluster model, CVB
//! workload generator, discrete-event simulator with exact energy
//! accounting, result statistics).
//!
//! This facade re-exports each subsystem under a stable module name; see
//! the individual crates for full documentation:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`pmf`] | `ecds-pmf` | discrete pmfs, convolution, truncation, samplers, seed derivation |
//! | [`cluster`] | `ecds-cluster` | nodes/processors/cores, ACPI P-states, CMOS power model |
//! | [`workload`] | `ecds-workload` | CVB task heterogeneity, bursty Poisson arrivals, deadlines |
//! | [`sim`] | `ecds-sim` | discrete-event engine, energy accounting, trial results |
//! | [`core`] | `ecds-core` | robustness, heuristics, filters, the scheduler |
//! | [`stats`] | `ecds-stats` | box-plot summaries, ASCII figures, tables, CSV |
//! | [`ext`] | `ecds-ext` | future-work extensions: task priorities, batch-mode rescheduling |
//!
//! # Quickstart
//!
//! ```
//! use ecds::prelude::*;
//!
//! // Everything reproduces from one master seed.
//! let scenario = Scenario::small_for_tests(42);
//! let trace = scenario.trace(0);
//!
//! // The paper's best configuration: LL heuristic + both filters.
//! let mut mapper = build_scheduler(
//!     HeuristicKind::LightestLoad,
//!     FilterVariant::EnergyAndRobustness,
//!     &scenario,
//!     0,
//! );
//! let result = Simulation::new(&scenario, &trace).run(mapper.as_mut());
//! println!(
//!     "missed {} of {} deadlines, {:.1}% of the energy budget consumed",
//!     result.missed(),
//!     result.window(),
//!     100.0 * result.total_energy() / scenario.energy_budget().unwrap(),
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use ecds_cluster as cluster;
pub use ecds_core as core;
pub use ecds_ext as ext;
pub use ecds_persist as persist;
pub use ecds_pmf as pmf;
pub use ecds_sim as sim;
pub use ecds_stats as stats;
pub use ecds_workload as workload;

/// The most commonly used items, importable with one `use`.
pub mod prelude {
    pub use ecds_cluster::{
        generate_cluster, Cluster, ClusterGenConfig, CoreId, NodeSpec, PState, PStateLadder,
        PowerProfile,
    };
    pub use ecds_core::{
        build_scheduler, candidates_bit_eq, core_robustness, system_robustness, AssignmentEstimate,
        CandidateEvaluator, ClassCandidate, DecisionObserver, DeterministicMct, EnergyFilter,
        EvaluatedCandidate, Filter, FilterCtx, FilterVariant, Heuristic, HeuristicKind,
        KPercentBest, LightestLoad, MinimumExecutionTime, MinimumExpectedCompletionTime,
        OpportunisticLoadBalancing, RandomChoice, RobustnessFilter, Scheduler, ShortestQueue,
        ZetaMulPolicy,
    };
    pub use ecds_pmf::{Impulse, Pmf, ReductionPolicy, SeedDerive, Stream};
    pub use ecds_sim::{
        Assignment, Discipline, EnergyBreakdown, EngineCtx, Horizon, ImmediateDiscipline, Mapper,
        MapperStats, Retention, RetiredTally, Scenario, ServeConfig, ServeSession, ServeSummary,
        SimConfig, Simulation, SystemView, TaskOutcome, Telemetry, TrialResult,
    };
    pub use ecds_stats::{render_boxplots, BoxStats, MarkdownTable};
    pub use ecds_workload::{
        ArrivalSource, BurstPattern, BurstyArrivalSource, ExecTable, Task, TaskId, TaskTypeId,
        TraceArrivalSource, WorkloadConfig, WorkloadTrace,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_quickstart_runs() {
        let scenario = Scenario::small_for_tests(1);
        let trace = scenario.trace(0);
        let mut mapper = build_scheduler(
            HeuristicKind::ShortestQueue,
            FilterVariant::None,
            &scenario,
            0,
        );
        let result = Simulation::new(&scenario, &trace).run(mapper.as_mut());
        assert_eq!(result.window(), trace.len());
    }
}
