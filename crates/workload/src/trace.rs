//! Per-trial workload traces.
//!
//! A trace fixes everything that varies across the paper's 50 simulation
//! trials: task types (uniform over the type set), arrival times (bursty
//! Poisson), deadlines (derived), and the actual-execution-time quantiles.
//! The cluster, the ETC matrix, and the pmf table stay constant across
//! trials ("All other parameters are held constant", Sec. VI).

use ecds_pmf::{SeedDerive, Time};

use crate::config::WorkloadConfig;
use crate::exec_table::ExecTable;
use crate::source::{ArrivalSource, BurstyArrivalSource};
use crate::task::Task;

/// One trial's worth of tasks, sorted by arrival time.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    trial: u64,
    tasks: Vec<Task>,
}

impl WorkloadTrace {
    /// Generates trial `trial`'s trace: the first `cfg.window` tasks of the
    /// [`BurstyArrivalSource`] over `cfg.arrivals` on substream `b = 0`
    /// (the window is exactly one pass over the pattern's phases).
    ///
    /// Deadlines follow Sec. VI:
    /// `δ(z) = arrival(z) + type_average(type(z)) + t_avg`, where the load
    /// factor `t_avg` is the anticipated waiting time of a task before it
    /// begins execution.
    pub fn generate(
        cfg: &WorkloadConfig,
        table: &ExecTable,
        seeds: &SeedDerive,
        trial: u64,
    ) -> Self {
        let mut source =
            BurstyArrivalSource::on_substream(cfg.arrivals.phases(), cfg, table, seeds, trial, 0);
        let tasks = std::iter::from_fn(|| source.next_task())
            .take(cfg.window)
            .collect();
        Self { trial, tasks }
    }

    /// Which trial this trace belongs to.
    #[inline]
    pub fn trial(&self) -> u64 {
        self.trial
    }

    /// The tasks, in arrival order.
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks in the window.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when the trace holds no tasks (unreachable for valid configs;
    /// present for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Arrival time of the last task (the end of the arrival window).
    pub fn last_arrival(&self) -> Time {
        self.tasks.last().map(|t| t.arrival).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;
    use ecds_cluster::{generate_cluster, ClusterGenConfig};

    fn setup() -> (WorkloadConfig, ExecTable, SeedDerive) {
        let seeds = SeedDerive::new(21);
        let cluster = generate_cluster(&ClusterGenConfig::small_for_tests(), &seeds);
        let cfg = WorkloadConfig::small_for_tests();
        let table = ExecTable::generate(&cfg, &cluster, &seeds);
        (cfg, table, seeds)
    }

    #[test]
    fn trace_covers_window_in_arrival_order() {
        let (cfg, table, seeds) = setup();
        let trace = WorkloadTrace::generate(&cfg, &table, &seeds, 0);
        assert_eq!(trace.len(), cfg.window);
        assert!(trace
            .tasks()
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
        for (i, t) in trace.tasks().iter().enumerate() {
            assert_eq!(t.id, TaskId(i));
        }
    }

    #[test]
    fn deadlines_follow_section_vi_formula() {
        let (cfg, table, seeds) = setup();
        let trace = WorkloadTrace::generate(&cfg, &table, &seeds, 0);
        for t in trace.tasks() {
            let expected = t.arrival + table.type_average(t.type_id) + table.t_avg();
            assert!((t.deadline - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn types_are_within_range_and_varied() {
        let (cfg, table, seeds) = setup();
        let trace = WorkloadTrace::generate(&cfg, &table, &seeds, 0);
        let mut seen = std::collections::BTreeSet::new();
        for t in trace.tasks() {
            assert!(t.type_id.0 < cfg.num_types);
            seen.insert(t.type_id.0);
        }
        assert!(seen.len() > 1, "uniform type selection should vary");
    }

    #[test]
    fn quantiles_in_unit_interval() {
        let (cfg, table, seeds) = setup();
        let trace = WorkloadTrace::generate(&cfg, &table, &seeds, 3);
        for t in trace.tasks() {
            assert!((0.0..1.0).contains(&t.quantile));
        }
    }

    #[test]
    fn trials_differ_but_are_reproducible() {
        let (cfg, table, seeds) = setup();
        let a = WorkloadTrace::generate(&cfg, &table, &seeds, 0);
        let a2 = WorkloadTrace::generate(&cfg, &table, &seeds, 0);
        let b = WorkloadTrace::generate(&cfg, &table, &seeds, 1);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.trial(), 0);
        assert_eq!(b.trial(), 1);
    }

    #[test]
    fn last_arrival_is_max() {
        let (cfg, table, seeds) = setup();
        let trace = WorkloadTrace::generate(&cfg, &table, &seeds, 0);
        let max = trace
            .tasks()
            .iter()
            .map(|t| t.arrival)
            .fold(0.0f64, f64::max);
        assert_eq!(trace.last_arrival(), max);
    }

    #[test]
    #[should_panic(expected = "disagree on task-type count")]
    fn mismatched_table_rejected() {
        let (cfg, table, seeds) = setup();
        let mut bad = cfg.clone();
        bad.num_types = cfg.num_types + 1;
        let _ = WorkloadTrace::generate(&bad, &table, &seeds, 0);
    }
}
