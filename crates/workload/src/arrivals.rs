//! Bursty Poisson arrival process (paper Sec. VI, after \[LiB98\]).
//!
//! Arrivals follow a Poisson process whose rate switches by task count: the
//! first 200 tasks arrive at `λ_fast = 1/8` (oversubscribing the cluster),
//! the next 600 at `λ_slow = 1/48` (undersubscribed lull), the last 200 at
//! `λ_fast` again. Rates are constant across trials; arrival *times* vary
//! by trial seed. The paper also defines an equilibrium rate
//! `λ_eq = 1/28` at which the system would be perfectly subscribed.

use ecds_pmf::Time;

/// One phase of the arrival pattern: `count` tasks arriving at Poisson rate
/// `rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalPhase {
    /// Number of tasks arriving during this phase.
    pub count: usize,
    /// Poisson rate (tasks per time unit).
    pub rate: f64,
}

impl ArrivalPhase {
    /// Creates a phase; `count >= 1` and `rate > 0`.
    pub fn new(count: usize, rate: f64) -> Self {
        assert!(count >= 1, "phase must contain at least one task");
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        Self { count, rate }
    }
}

/// A piecewise-constant-rate Poisson arrival pattern.
///
/// Arrival times are drawn by a
/// [`BurstyArrivalSource`](crate::BurstyArrivalSource) cycling the
/// pattern: exponential inter-arrival gaps at each phase's rate, starting
/// from time 0 (the first task arrives after one gap).
///
/// ```
/// use ecds_cluster::{generate_cluster, ClusterGenConfig};
/// use ecds_pmf::SeedDerive;
/// use ecds_workload::{
///     ArrivalSource, BurstPattern, BurstyArrivalSource, ExecTable, WorkloadConfig,
/// };
///
/// let pattern = BurstPattern::paper(); // 200 fast / 600 slow / 200 fast
/// assert_eq!(pattern.total_tasks(), 1000);
/// let seeds = SeedDerive::new(7);
/// let cfg = WorkloadConfig::small_for_tests();
/// let cluster = generate_cluster(&ClusterGenConfig::small_for_tests(), &seeds);
/// let table = ExecTable::generate(&cfg, &cluster, &seeds);
/// let mut source = BurstyArrivalSource::new(pattern, &cfg, &table, &seeds, 0);
/// let times: Vec<f64> = (0..1000).map(|_| source.next_task().unwrap().arrival).collect();
/// assert!(times.windows(2).all(|w| w[0] <= w[1]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BurstPattern {
    phases: Vec<ArrivalPhase>,
}

/// The paper's fast (burst) arrival rate, `λ_fast = 1/8`.
pub const LAMBDA_FAST: f64 = 1.0 / 8.0;
/// The paper's slow (lull) arrival rate, `λ_slow = 1/48`.
pub const LAMBDA_SLOW: f64 = 1.0 / 48.0;
/// The paper's equilibrium rate, `λ_eq = 1/28` (defined for context; the
/// generated pattern uses only fast and slow).
pub const LAMBDA_EQ: f64 = 1.0 / 28.0;
/// Core count of the paper's reference cluster (8 nodes × expected 2.5
/// processors × 2.5 cores ≈ 48, matching the λ_eq derivation in Sec. VI) —
/// the denominator of [`BurstPattern::scaled_to_cluster`]'s rate scaling.
pub const PAPER_REFERENCE_CORES: usize = 48;

impl BurstPattern {
    /// Builds a pattern from phases (at least one).
    pub fn new(phases: Vec<ArrivalPhase>) -> Self {
        assert!(!phases.is_empty(), "pattern needs at least one phase");
        Self { phases }
    }

    /// The paper's pattern: 200 fast, 600 slow, 200 fast.
    pub fn paper() -> Self {
        Self::new(vec![
            ArrivalPhase::new(200, LAMBDA_FAST),
            ArrivalPhase::new(600, LAMBDA_SLOW),
            ArrivalPhase::new(200, LAMBDA_FAST),
        ])
    }

    /// The paper's pattern scaled to `window` tasks, preserving the
    /// 20%/60%/20% split (each phase gets at least one task).
    pub fn scaled(window: usize) -> Self {
        Self::scaled_with_rates(window, LAMBDA_FAST, LAMBDA_SLOW)
    }

    /// The paper's 20%/60%/20% split over `window` tasks with custom burst
    /// and lull rates — used to keep scaled-down scenarios at the paper's
    /// *subscription level* (the paper's absolute rates assume its 48-core
    /// cluster; a small test cluster needs proportionally slower arrivals).
    pub fn scaled_with_rates(window: usize, fast: f64, slow: f64) -> Self {
        assert!(window >= 3, "scaled pattern needs at least 3 tasks");
        let burst = (window / 5).max(1);
        let lull = window - 2 * burst;
        Self::new(vec![
            ArrivalPhase::new(burst, fast),
            ArrivalPhase::new(lull, slow),
            ArrivalPhase::new(burst, fast),
        ])
    }

    /// A single-phase constant-rate pattern.
    pub fn constant(count: usize, rate: f64) -> Self {
        Self::new(vec![ArrivalPhase::new(count, rate)])
    }

    /// The paper's burst/lull/burst pattern over `window` tasks with rates
    /// scaled so a cluster of `total_cores` cores sees the paper's
    /// *subscription level*. The paper's λ_fast = 1/8 and λ_slow = 1/48
    /// oversubscribe and undersubscribe its ~48-core reference cluster; a
    /// 40,000-core cluster at those absolute rates would idle, so the
    /// high-rate source multiplies both rates by
    /// `total_cores / PAPER_REFERENCE_CORES`. This is the λ-scaling knob
    /// of the mega-scale study.
    pub fn scaled_to_cluster(window: usize, total_cores: usize) -> Self {
        assert!(total_cores >= 1, "need at least one core");
        let factor = total_cores as f64 / PAPER_REFERENCE_CORES as f64;
        Self::scaled_with_rates(window, LAMBDA_FAST * factor, LAMBDA_SLOW * factor)
    }

    /// The phases.
    pub fn phases(&self) -> &[ArrivalPhase] {
        &self.phases
    }

    /// Total number of tasks across all phases.
    pub fn total_tasks(&self) -> usize {
        self.phases.iter().map(|p| p.count).sum()
    }

    /// Expected makespan of the arrival process (sum of phase means).
    pub fn expected_span(&self) -> Time {
        self.phases.iter().map(|p| p.count as f64 / p.rate).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrivalSource, BurstyArrivalSource, ExecTable, WorkloadConfig};
    use ecds_cluster::{generate_cluster, ClusterGenConfig};
    use ecds_pmf::SeedDerive;

    /// The arrival times of `runs` trials of one pass over `pattern`, each
    /// drawn by the bursty source.
    fn arrival_runs(pattern: &BurstPattern, runs: u64) -> Vec<Vec<Time>> {
        let seeds = SeedDerive::new(11);
        let cluster = generate_cluster(&ClusterGenConfig::small_for_tests(), &seeds);
        let cfg = WorkloadConfig::small_for_tests();
        let table = ExecTable::generate(&cfg, &cluster, &seeds);
        (0..runs)
            .map(|trial| {
                let mut source =
                    BurstyArrivalSource::new(pattern.clone(), &cfg, &table, &seeds, trial);
                std::iter::from_fn(|| source.next_task())
                    .take(pattern.total_tasks())
                    .map(|task| task.arrival)
                    .collect()
            })
            .collect()
    }

    fn paper_arrivals() -> Vec<Time> {
        arrival_runs(&BurstPattern::paper(), 1).remove(0)
    }

    #[test]
    fn paper_pattern_totals_1000() {
        assert_eq!(BurstPattern::paper().total_tasks(), 1000);
    }

    #[test]
    fn paper_rates_match_section_vi() {
        let p = BurstPattern::paper();
        assert_eq!(p.phases()[0].rate, 0.125);
        assert!((p.phases()[1].rate - 0.0208333).abs() < 1e-6);
        assert_eq!(p.phases()[0].count, 200);
        assert_eq!(p.phases()[1].count, 600);
        assert_eq!(p.phases()[2].count, 200);
    }

    #[test]
    fn generated_times_are_sorted_and_positive() {
        let times = paper_arrivals();
        assert_eq!(times.len(), 1000);
        assert!(times[0] > 0.0);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn phase_means_are_respected() {
        // Average over many runs: the first burst of 200 tasks at rate 1/8
        // should span about 1600 time units.
        const RUNS: u64 = 200;
        let total: f64 = arrival_runs(&BurstPattern::paper(), RUNS)
            .iter()
            .map(|times| times[199])
            .sum();
        let mean = total / RUNS as f64;
        assert!((mean - 1600.0).abs() < 60.0, "burst span {mean}");
    }

    #[test]
    fn expected_span_matches_paper_scale() {
        // 200/0.125 + 600/(1/48) + 200/0.125 = 1600 + 28800 + 1600 = 32000.
        let span = BurstPattern::paper().expected_span();
        assert!((span - 32000.0).abs() < 1e-9);
    }

    #[test]
    fn lull_is_slower_than_bursts() {
        let times = paper_arrivals();
        let burst1_span = times[199] - times[0];
        let lull_span = times[799] - times[200];
        // 600 slow tasks take far longer than 200 fast ones.
        assert!(lull_span > 3.0 * burst1_span);
    }

    #[test]
    fn scaled_pattern_preserves_split() {
        let p = BurstPattern::scaled(100);
        assert_eq!(p.total_tasks(), 100);
        assert_eq!(p.phases()[0].count, 20);
        assert_eq!(p.phases()[1].count, 60);
        assert_eq!(p.phases()[2].count, 20);
    }

    #[test]
    fn cluster_scaled_rates_track_core_count() {
        let p = BurstPattern::scaled_to_cluster(1_000, 4_800);
        // 100× the paper's reference cores ⇒ 100× both rates.
        assert!((p.phases()[0].rate - LAMBDA_FAST * 100.0).abs() < 1e-12);
        assert!((p.phases()[1].rate - LAMBDA_SLOW * 100.0).abs() < 1e-12);
        assert_eq!(p.total_tasks(), 1_000);
        // At the reference size the pattern is exactly the scaled paper one.
        assert_eq!(
            BurstPattern::scaled_to_cluster(1_000, PAPER_REFERENCE_CORES),
            BurstPattern::scaled(1_000)
        );
    }

    #[test]
    fn constant_pattern_single_phase() {
        let p = BurstPattern::constant(50, LAMBDA_EQ);
        assert_eq!(p.phases().len(), 1);
        assert_eq!(p.total_tasks(), 50);
    }

    #[test]
    fn determinism_per_seed() {
        assert_eq!(paper_arrivals(), paper_arrivals());
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_phase_rejected() {
        let _ = ArrivalPhase::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = ArrivalPhase::new(10, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_pattern_rejected() {
        let _ = BurstPattern::new(vec![]);
    }
}
