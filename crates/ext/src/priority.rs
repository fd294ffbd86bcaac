//! Task priorities (paper future work; compare \[KiS08\], which completes
//! "as many high-priority tasks as possible, followed by as many
//! low-priority tasks as possible").
//!
//! Tasks get a synthetic priority class (the paper's workload has none);
//! priority-awareness is added the same way the paper adds energy- and
//! robustness-awareness — as a *filter*: high-priority tasks may spend a
//! larger multiple of the fair energy share than low-priority ones, so
//! under scarcity the scheduler starves low-priority tasks first.

use ecds_core::{retain_estimates, ClassCandidate, EnergyFilter, Filter, FilterCtx};
use ecds_pmf::{SeedDerive, Stream};
use ecds_sim::{SystemView, TrialResult};
use ecds_workload::Task;
use rand::Rng;

/// A task's priority class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriorityClass {
    /// Must-complete work.
    High,
    /// Best-effort work.
    Low,
}

/// Deterministically assigns a priority class to every task in a window:
/// each task is `High` with probability `high_fraction`, drawn from the
/// [`Stream::Extension`] substream of `seeds` for trial `trial`.
pub fn assign_priorities(
    window: usize,
    high_fraction: f64,
    seeds: &SeedDerive,
    trial: u64,
) -> Vec<PriorityClass> {
    assert!(
        (0.0..=1.0).contains(&high_fraction),
        "high_fraction must be a probability"
    );
    let mut rng = seeds.rng(Stream::Extension, trial, 0);
    (0..window)
        .map(|_| {
            if rng.gen_range(0.0..1.0) < high_fraction {
                PriorityClass::High
            } else {
                PriorityClass::Low
            }
        })
        .collect()
}

/// A priority-differentiated energy filter: wraps the paper's
/// [`EnergyFilter`], scaling its fair share by a per-class factor.
///
/// With `high_factor > 1 > low_factor`, high-priority tasks keep access to
/// fast P-states deep into budget scarcity while low-priority tasks are
/// pushed to frugal assignments (or discarded) first.
#[derive(Debug, Clone)]
pub struct PriorityEnergyFilter {
    inner: EnergyFilter,
    priorities: Vec<PriorityClass>,
    high_factor: f64,
    low_factor: f64,
}

impl PriorityEnergyFilter {
    /// Creates the filter. `priorities` must cover the whole window
    /// (indexed by task id).
    pub fn new(priorities: Vec<PriorityClass>, high_factor: f64, low_factor: f64) -> Self {
        assert!(
            high_factor > 0.0 && low_factor > 0.0,
            "factors must be positive"
        );
        assert!(
            high_factor >= low_factor,
            "high-priority tasks should not get less than low-priority ones"
        );
        Self {
            inner: EnergyFilter::paper(),
            priorities,
            high_factor,
            low_factor,
        }
    }

    fn factor(&self, task: &Task) -> f64 {
        match self.priorities.get(task.id.0) {
            Some(PriorityClass::High) | None => self.high_factor,
            Some(PriorityClass::Low) => self.low_factor,
        }
    }
}

impl Filter for PriorityEnergyFilter {
    fn name(&self) -> &'static str {
        "prio-en"
    }

    fn retain_indexed(
        &self,
        task: &Task,
        view: &SystemView<'_>,
        ctx: &FilterCtx,
        classes: &mut Vec<ClassCandidate>,
    ) {
        let fair = self.inner.fair_share(view, ctx) * self.factor(task);
        retain_estimates(classes, |est| est.eec <= fair);
    }
}

/// Per-class outcome counts for a trial run with priorities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorityReport {
    /// High-priority tasks in the window.
    pub high_total: usize,
    /// High-priority tasks completed on time within energy.
    pub high_completed: usize,
    /// Low-priority tasks in the window.
    pub low_total: usize,
    /// Low-priority tasks completed on time within energy.
    pub low_completed: usize,
}

impl PriorityReport {
    /// Tallies a trial result against a priority table.
    pub fn from_result(result: &TrialResult, priorities: &[PriorityClass]) -> Self {
        assert_eq!(
            result.window(),
            priorities.len(),
            "priority table must cover the window"
        );
        let mut report = Self {
            high_total: 0,
            high_completed: 0,
            low_total: 0,
            low_completed: 0,
        };
        for (outcome, class) in result.outcomes().iter().zip(priorities) {
            let counted = outcome.counted(result.exhausted_at());
            match class {
                PriorityClass::High => {
                    report.high_total += 1;
                    report.high_completed += usize::from(counted);
                }
                PriorityClass::Low => {
                    report.low_total += 1;
                    report.low_completed += usize::from(counted);
                }
            }
        }
        report
    }

    /// Completion rate of high-priority tasks.
    pub fn high_rate(&self) -> f64 {
        if self.high_total == 0 {
            1.0
        } else {
            self.high_completed as f64 / self.high_total as f64
        }
    }

    /// Completion rate of low-priority tasks.
    pub fn low_rate(&self) -> f64 {
        if self.low_total == 0 {
            1.0
        } else {
            self.low_completed as f64 / self.low_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecds_core::{LightestLoad, RobustnessFilter, Scheduler};
    use ecds_pmf::ReductionPolicy;
    use ecds_sim::{Scenario, Simulation};

    #[test]
    fn assignment_is_deterministic_and_proportional() {
        let seeds = SeedDerive::new(5);
        let a = assign_priorities(1000, 0.3, &seeds, 0);
        let b = assign_priorities(1000, 0.3, &seeds, 0);
        assert_eq!(a, b);
        let high = a.iter().filter(|c| **c == PriorityClass::High).count();
        assert!((200..400).contains(&high), "high count {high}");
        let c = assign_priorities(1000, 0.3, &seeds, 1);
        assert_ne!(a, c);
    }

    #[test]
    fn extreme_fractions() {
        let seeds = SeedDerive::new(5);
        assert!(assign_priorities(100, 0.0, &seeds, 0)
            .iter()
            .all(|c| *c == PriorityClass::Low));
        assert!(assign_priorities(100, 1.0, &seeds, 0)
            .iter()
            .all(|c| *c == PriorityClass::High));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_fraction_rejected() {
        let _ = assign_priorities(10, 1.5, &SeedDerive::new(0), 0);
    }

    #[test]
    #[should_panic(expected = "high-priority tasks should not get less")]
    fn inverted_factors_rejected() {
        let _ = PriorityEnergyFilter::new(vec![], 0.5, 1.5);
    }

    #[test]
    fn scarcity_favors_high_priority() {
        // Starve the budget so the priority differentiation matters, then
        // check high-priority tasks complete at a higher rate.
        let scenario = Scenario::small_for_tests(42).with_budget_factor(0.4);
        let trace = scenario.trace(0);
        let priorities = assign_priorities(trace.len(), 0.3, scenario.seeds(), 0);
        let budget = scenario.energy_budget().unwrap();
        let mut sched = Scheduler::new(
            Box::new(LightestLoad),
            vec![
                Box::new(PriorityEnergyFilter::new(priorities.clone(), 1.5, 0.5)),
                Box::new(RobustnessFilter::paper()),
            ],
            budget,
            ReductionPolicy::default(),
        );
        let result = Simulation::new(&scenario, &trace).run(&mut sched);
        let report = PriorityReport::from_result(&result, &priorities);
        assert_eq!(report.high_total + report.low_total, trace.len());
        // The differentiated filter must not leave high-priority tasks
        // worse off than low-priority ones.
        assert!(
            report.high_rate() >= report.low_rate(),
            "high {:.2} vs low {:.2}",
            report.high_rate(),
            report.low_rate()
        );
    }

    #[test]
    fn report_rates_degenerate_gracefully() {
        let r = PriorityReport {
            high_total: 0,
            high_completed: 0,
            low_total: 10,
            low_completed: 5,
        };
        assert_eq!(r.high_rate(), 1.0);
        assert_eq!(r.low_rate(), 0.5);
    }
}
