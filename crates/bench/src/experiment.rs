//! The 4 × 4 heuristic/filter experiment grid.

use ecds_core::{build_scheduler, FilterVariant, HeuristicKind};
use ecds_sim::{MapperStats, Scenario, Simulation};
use ecds_stats::BoxStats;
use ecds_workload::WorkloadTrace;

use crate::parallel::{default_threads, run_parallel};

/// Configuration of a grid run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Master seed (the paper's whole study reproduces from this one value).
    pub master_seed: u64,
    /// Trials per cell (paper: 50).
    pub trials: u64,
    /// Worker threads (defaults to available parallelism).
    pub threads: usize,
    /// Heuristics to run (paper: all four).
    pub kinds: Vec<HeuristicKind>,
    /// Filter variants to run (paper: all four).
    pub variants: Vec<FilterVariant>,
}

impl ExperimentConfig {
    /// The paper's full study: 4 × 4 × 50 trials.
    pub fn paper(master_seed: u64) -> Self {
        Self {
            master_seed,
            trials: 50,
            threads: default_threads(),
            kinds: HeuristicKind::ALL.to_vec(),
            variants: FilterVariant::ALL.to_vec(),
        }
    }

    /// A reduced grid for tests and smoke runs.
    pub fn smoke(master_seed: u64, trials: u64) -> Self {
        Self {
            trials,
            ..Self::paper(master_seed)
        }
    }
}

/// Results of one (heuristic, variant) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The heuristic.
    pub kind: HeuristicKind,
    /// The filter variant.
    pub variant: FilterVariant,
    /// Missed deadlines per trial, trial-indexed.
    pub missed: Vec<f64>,
    /// Total energy actually consumed per trial.
    pub energy: Vec<f64>,
    /// Tasks discarded by filters per trial.
    pub discarded: Vec<f64>,
    /// Structured mapper instrumentation per trial (prefix-cache counters,
    /// fused-kernel coverage), trial-indexed like `missed`.
    pub mapper: Vec<MapperStats>,
}

impl CellResult {
    /// Figure label, e.g. `"LL/en+rob"`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.kind.label(), self.variant.label())
    }

    /// Box summary of the missed-deadline distribution.
    pub fn stats(&self) -> BoxStats {
        BoxStats::from_samples(&self.missed).expect("cells are non-empty")
    }

    /// Median missed deadlines.
    pub fn median_missed(&self) -> f64 {
        self.stats().median
    }

    /// Prefix-cache hit rate pooled over the cell's trials, `None` if the
    /// mapper performed no cached lookups.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let hits: u64 = self.mapper.iter().map(MapperStats::prefix_cache_hits).sum();
        let total: u64 = self
            .mapper
            .iter()
            .map(MapperStats::prefix_cache_lookups)
            .sum();
        (total > 0).then(|| hits as f64 / total as f64)
    }
}

/// A completed grid run over a scenario.
#[derive(Debug, Clone)]
pub struct ExperimentGrid {
    /// The configuration that produced this grid.
    pub config: ExperimentConfig,
    /// The scenario's window size (tasks per trial).
    pub window: usize,
    /// One result per (kind, variant) in config order (kind-major).
    pub cells: Vec<CellResult>,
}

impl ExperimentGrid {
    /// Runs the grid on an explicit scenario.
    ///
    /// Every cell shares the same `config.trials` traces (paired
    /// comparisons), and trials fan out over `config.threads` workers; the
    /// output is identical for any thread count.
    pub fn run(config: ExperimentConfig, scenario: &Scenario) -> Self {
        assert!(config.trials >= 1, "need at least one trial");
        assert!(!config.kinds.is_empty() && !config.variants.is_empty());
        let traces: Vec<WorkloadTrace> = (0..config.trials).map(|t| scenario.trace(t)).collect();
        let cells_spec: Vec<(HeuristicKind, FilterVariant)> = config
            .kinds
            .iter()
            .flat_map(|&k| config.variants.iter().map(move |&v| (k, v)))
            .collect();

        let trials = config.trials as usize;
        let total = cells_spec.len() * trials;
        // One work item per (cell, trial): finest grain keeps all workers
        // busy through the tail of the run.
        let outcomes = run_parallel(total, config.threads, |idx| {
            let (cell_idx, trial_idx) = (idx / trials, idx % trials);
            let (kind, variant) = cells_spec[cell_idx];
            let trace = &traces[trial_idx];
            let mut scheduler = build_scheduler(kind, variant, scenario, trial_idx as u64);
            let result = Simulation::new(scenario, trace).run(scheduler.as_mut());
            (
                result.missed() as f64,
                result.total_energy(),
                result.discarded() as f64,
                result.telemetry().mapper,
            )
        });

        let cells = cells_spec
            .iter()
            .enumerate()
            .map(|(cell_idx, &(kind, variant))| {
                let slice = &outcomes[cell_idx * trials..(cell_idx + 1) * trials];
                CellResult {
                    kind,
                    variant,
                    missed: slice.iter().map(|o| o.0).collect(),
                    energy: slice.iter().map(|o| o.1).collect(),
                    discarded: slice.iter().map(|o| o.2).collect(),
                    mapper: slice.iter().map(|o| o.3).collect(),
                }
            })
            .collect();
        Self {
            config,
            window: scenario.workload().window,
            cells,
        }
    }

    /// The cell for `(kind, variant)`, if it was run.
    pub fn cell(&self, kind: HeuristicKind, variant: FilterVariant) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.kind == kind && c.variant == variant)
    }

    /// All cells of one heuristic, in variant order — one paper figure
    /// (Figures 2–5).
    pub fn heuristic_row(&self, kind: HeuristicKind) -> Vec<&CellResult> {
        self.config
            .variants
            .iter()
            .filter_map(|&v| self.cell(kind, v))
            .collect()
    }

    /// The best (lowest median missed) variant per heuristic — Figure 6.
    pub fn best_per_heuristic(&self) -> Vec<&CellResult> {
        self.config
            .kinds
            .iter()
            .filter_map(|&k| {
                self.heuristic_row(k)
                    .into_iter()
                    .min_by(|a, b| a.median_missed().total_cmp(&b.median_missed()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_grid() -> ExperimentGrid {
        let scenario = Scenario::small_for_tests(42);
        ExperimentGrid::run(ExperimentConfig::smoke(42, 3), &scenario)
    }

    #[test]
    fn grid_covers_all_cells() {
        let g = smoke_grid();
        assert_eq!(g.cells.len(), 16);
        for kind in HeuristicKind::ALL {
            for variant in FilterVariant::ALL {
                let cell = g.cell(kind, variant).unwrap();
                assert_eq!(cell.missed.len(), 3);
                assert!(cell.missed.iter().all(|&m| m <= 60.0));
            }
        }
    }

    #[test]
    fn heuristic_row_is_one_figure() {
        let g = smoke_grid();
        let row = g.heuristic_row(HeuristicKind::LightestLoad);
        assert_eq!(row.len(), 4);
        assert!(row.iter().all(|c| c.kind == HeuristicKind::LightestLoad));
    }

    #[test]
    fn best_per_heuristic_picks_minimum_median() {
        let g = smoke_grid();
        let best = g.best_per_heuristic();
        assert_eq!(best.len(), 4);
        for cell in best {
            for variant in FilterVariant::ALL {
                let other = g.cell(cell.kind, variant).unwrap();
                assert!(cell.median_missed() <= other.median_missed() + 1e-9);
            }
        }
    }

    #[test]
    fn grid_is_deterministic_across_thread_counts() {
        let scenario = Scenario::small_for_tests(7);
        let mut cfg1 = ExperimentConfig::smoke(7, 2);
        cfg1.threads = 1;
        let mut cfg4 = ExperimentConfig::smoke(7, 2);
        cfg4.threads = 4;
        let a = ExperimentGrid::run(cfg1, &scenario);
        let b = ExperimentGrid::run(cfg4, &scenario);
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.missed, cb.missed);
            assert_eq!(ca.energy, cb.energy);
        }
    }

    #[test]
    fn dedup_counters_are_deterministic_across_thread_counts() {
        // The deduplicating evaluator is the default, so this pins the
        // satellite guarantee directly: with dedup enabled, fanning trials
        // over more workers changes nothing — not even the per-trial
        // mapper telemetry (class counts, skipped evaluations, cache
        // counters are all part of `MapperStats`' `Eq`).
        let scenario = Scenario::small_for_tests(13);
        let mut cfg1 = ExperimentConfig::smoke(13, 3);
        cfg1.threads = 1;
        let mut cfg8 = ExperimentConfig::smoke(13, 3);
        cfg8.threads = 8;
        let a = ExperimentGrid::run(cfg1, &scenario);
        let b = ExperimentGrid::run(cfg8, &scenario);
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.missed, cb.missed);
            assert_eq!(ca.energy, cb.energy);
            assert_eq!(ca.discarded, cb.discarded);
            assert_eq!(ca.mapper, cb.mapper, "telemetry diverged in {}", ca.label());
            // And dedup really ran: every trial recorded mapping events.
            assert!(ca
                .mapper
                .iter()
                .all(|m| m.candidate_classes.is_some_and(|(_, events)| events > 0)));
        }
    }

    #[test]
    fn grid_records_cache_counters_per_trial() {
        let g = smoke_grid();
        for cell in &g.cells {
            assert_eq!(cell.mapper.len(), 3);
            // Every trial maps at least one task, and the first prefix
            // lookup on a core is always a miss.
            assert!(cell.mapper.iter().all(|m| m.prefix_cache_misses() > 0));
            let rate = cell.cache_hit_rate().expect("lookups happened");
            assert!((0.0..=1.0).contains(&rate));
        }
        // The candidate sweep revisits cores within one decision, so the
        // grid as a whole must see real hits.
        assert!(g.cells.iter().any(|c| c.cache_hit_rate().unwrap() > 0.0));
    }

    #[test]
    fn grid_records_fused_kernel_calls_per_trial() {
        let g = smoke_grid();
        for cell in &g.cells {
            assert_eq!(cell.mapper.len(), 3);
            // Busy cores appear in every trial, so every trial runs real
            // convolutions through the fused kernel.
            assert!(cell.mapper.iter().all(|m| m.fused_kernel_calls > 0));
        }
    }

    #[test]
    fn cell_labels_match_figures() {
        let g = smoke_grid();
        assert_eq!(
            g.cell(
                HeuristicKind::LightestLoad,
                FilterVariant::EnergyAndRobustness
            )
            .unwrap()
            .label(),
            "LL/en+rob"
        );
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let scenario = Scenario::small_for_tests(1);
        let _ = ExperimentGrid::run(ExperimentConfig::smoke(1, 0), &scenario);
    }
}
