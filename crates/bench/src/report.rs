//! Figure rendering: each paper figure as ASCII box plots, a markdown
//! table, and CSV.

use ecds_core::{FilterVariant, HeuristicKind};
use ecds_stats::{improvement_pct, mann_whitney_u, render_boxplots, CsvWriter, MarkdownTable};

use crate::experiment::{CellResult, ExperimentGrid};

/// Width of rendered ASCII box plots.
const PLOT_WIDTH: usize = 64;

/// Renders one heuristic's figure (Figures 2–5): four filter variants of
/// `kind` as box plots plus a summary table.
pub fn render_heuristic_figure(grid: &ExperimentGrid, kind: HeuristicKind) -> String {
    let cells = grid.heuristic_row(kind);
    render_cells(
        &format!(
            "Missed deadlines over {} trials — {} heuristic, all filter variants",
            grid.config.trials,
            kind.label()
        ),
        &cells,
    )
}

/// Renders Figure 6: the best variant of every heuristic side by side.
pub fn render_best_figure(grid: &ExperimentGrid) -> String {
    let cells = grid.best_per_heuristic();
    render_cells(
        &format!(
            "Missed deadlines over {} trials — best variant of each heuristic",
            grid.config.trials
        ),
        &cells,
    )
}

fn render_cells(title: &str, cells: &[&CellResult]) -> String {
    let series: Vec<(String, ecds_stats::BoxStats)> =
        cells.iter().map(|c| (c.label(), c.stats())).collect();
    let mut table = MarkdownTable::new(&[
        "variant", "median", "mean", "q1", "q3", "whisker-", "whisker+", "min", "max",
    ]);
    for cell in cells {
        let s = cell.stats();
        table.push_row(vec![
            cell.label(),
            format!("{:.1}", s.median),
            format!("{:.1}", s.mean),
            format!("{:.1}", s.q1),
            format!("{:.1}", s.q3),
            format!("{:.1}", s.whisker_lo),
            format!("{:.1}", s.whisker_hi),
            format!("{:.1}", s.min),
            format!("{:.1}", s.max),
        ]);
    }
    format!(
        "## {title}\n\n{}\n{}",
        render_boxplots(&series, PLOT_WIDTH),
        table.render()
    )
}

/// The Sec. VII headline analysis: filtering improvements per heuristic,
/// the energy-filter anomaly on Random, and the Random-vs-LL gap.
pub fn render_headline_analysis(grid: &ExperimentGrid) -> String {
    let mut out = String::from("## Headline comparisons (paper Sec. VII)\n\n");
    for kind in &grid.config.kinds {
        let Some(none) = grid.cell(*kind, FilterVariant::None) else {
            continue;
        };
        let base = none.median_missed();
        for variant in [
            FilterVariant::Energy,
            FilterVariant::Robustness,
            FilterVariant::EnergyAndRobustness,
        ] {
            let Some(cell) = grid.cell(*kind, variant) else {
                continue;
            };
            let med = cell.median_missed();
            let rel = improvement_pct(base, med)
                .map(|p| format!("{p:+.1}% vs unfiltered"))
                .unwrap_or_else(|| "baseline zero".to_string());
            // The paper quotes improvements as percentage points of the
            // window as well; report both conventions, plus a rank-sum
            // significance check against the unfiltered distribution.
            let window_pts = (base - med) / grid_window(grid) * 100.0;
            let sig = mann_whitney_u(&cell.missed, &none.missed)
                .map(|t| {
                    if t.p_two_sided < 0.001 {
                        "p<0.001".to_string()
                    } else {
                        format!("p={:.3}", t.p_two_sided)
                    }
                })
                .unwrap_or_else(|| "p=?".to_string());
            out.push_str(&format!(
                "- {}: median {:.1} ({rel}; {window_pts:+.2} window pts; {sig})\n",
                cell.label(),
                med
            ));
        }
    }
    // Random en+rob vs best LL — the "filters drive performance" point.
    if let (Some(rand), Some(ll)) = (
        grid.cell(HeuristicKind::Random, FilterVariant::EnergyAndRobustness),
        grid.cell(
            HeuristicKind::LightestLoad,
            FilterVariant::EnergyAndRobustness,
        ),
    ) {
        if ll.median_missed() > 0.0 {
            let gap = (rand.median_missed() - ll.median_missed()) / grid_window(grid) * 100.0;
            out.push_str(&format!(
                "- Random/en+rob is {gap:.1} window pts from LL/en+rob (paper: ~4%)\n"
            ));
        }
    }
    out
}

fn grid_window(grid: &ExperimentGrid) -> f64 {
    grid.window as f64
}

/// One-line summary of the mapper's queue-prefix cache over the whole grid:
/// pooled hit rate plus the per-cell range (DESIGN.md §7).
pub fn render_cache_summary(grid: &ExperimentGrid) -> String {
    let stats = grid.cells.iter().flat_map(|c| &c.mapper);
    let hits: u64 = stats.clone().map(|m| m.prefix_cache_hits()).sum();
    let total: u64 = stats.map(|m| m.prefix_cache_lookups()).sum();
    if total == 0 {
        return "Prefix cache: no cached lookups recorded\n".to_string();
    }
    let rates: Vec<f64> = grid
        .cells
        .iter()
        .filter_map(|c| c.cache_hit_rate())
        .collect();
    let lo = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "Prefix cache: {:.1}% hit rate over {total} lookups \
         (per-cell {:.1}%–{:.1}%)\n",
        hits as f64 / total as f64 * 100.0,
        lo * 100.0,
        hi * 100.0,
    )
}

/// One-line summary of fused-kernel coverage over the whole grid: total
/// invocations plus the per-trial range — the allocation-free-path baseline
/// future perf work measures against (DESIGN.md §7).
pub fn render_kernel_summary(grid: &ExperimentGrid) -> String {
    let total: u64 = grid
        .cells
        .iter()
        .flat_map(|c| &c.mapper)
        .map(|m| m.fused_kernel_calls)
        .sum();
    if total == 0 {
        return "Fused kernel: no invocations recorded\n".to_string();
    }
    let per_trial = grid
        .cells
        .iter()
        .flat_map(|c| c.mapper.iter().map(|m| m.fused_kernel_calls));
    let lo = per_trial.clone().min().unwrap_or(0);
    let hi = per_trial.max().unwrap_or(0);
    format!(
        "Fused kernel: {total} allocation-free convolutions \
         (per-trial {lo}–{hi})\n"
    )
}

/// One-line summary of candidate equivalence-class deduplication over the
/// whole grid: mean classes per mapping event against the core count, plus
/// the total (core, P-state) evaluations the partition skipped
/// (DESIGN.md §11).
pub fn render_dedup_summary(grid: &ExperimentGrid) -> String {
    let stats = grid.cells.iter().flat_map(|c| &c.mapper);
    let (classes, events) = stats
        .clone()
        .filter_map(|m| m.candidate_classes)
        .fold((0u64, 0u64), |(c, e), (dc, de)| (c + dc, e + de));
    if events == 0 {
        return "Candidate dedup: disabled (per-core evaluation)\n".to_string();
    }
    let skipped: u64 = stats.map(|m| m.dedup_skipped_evaluations).sum();
    format!(
        "Candidate dedup: {:.1} classes per mapping event ({events} events), \
         {skipped} duplicate evaluations skipped\n",
        classes as f64 / events as f64,
    )
}

/// Serializes every cell's raw per-trial data as CSV
/// (`heuristic,variant,trial,missed,energy,discarded`).
pub fn grid_csv(grid: &ExperimentGrid) -> String {
    let mut csv = CsvWriter::new();
    csv.write_row(&[
        "heuristic",
        "variant",
        "trial",
        "missed",
        "energy",
        "discarded",
    ]);
    for cell in &grid.cells {
        for (trial, ((missed, energy), discarded)) in cell
            .missed
            .iter()
            .zip(&cell.energy)
            .zip(&cell.discarded)
            .enumerate()
        {
            csv.write_row(&[
                cell.kind.label().to_string(),
                cell.variant.label().to_string(),
                trial.to_string(),
                format!("{missed}"),
                format!("{energy:.3}"),
                format!("{discarded}"),
            ]);
        }
    }
    csv.into_string()
}

/// Renders the complete report: Figures 2–6 plus the headline analysis.
pub fn render_full_report(grid: &ExperimentGrid) -> String {
    let mut out = String::new();
    let figures = [
        (HeuristicKind::ShortestQueue, "Figure 2"),
        (HeuristicKind::Mect, "Figure 3"),
        (HeuristicKind::LightestLoad, "Figure 4"),
        (HeuristicKind::Random, "Figure 5"),
    ];
    for (kind, fig) in figures {
        if grid.config.kinds.contains(&kind) {
            out.push_str(&format!("# {fig}\n\n"));
            out.push_str(&render_heuristic_figure(grid, kind));
            out.push('\n');
        }
    }
    out.push_str("# Figure 6\n\n");
    out.push_str(&render_best_figure(grid));
    out.push('\n');
    out.push_str(&render_headline_analysis(grid));
    out.push('\n');
    out.push_str(&render_cache_summary(grid));
    out.push_str(&render_kernel_summary(grid));
    out.push_str(&render_dedup_summary(grid));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use ecds_sim::Scenario;

    fn grid() -> &'static ExperimentGrid {
        use std::sync::OnceLock;
        static GRID: OnceLock<ExperimentGrid> = OnceLock::new();
        GRID.get_or_init(|| {
            let scenario = Scenario::small_for_tests(11);
            ExperimentGrid::run(ExperimentConfig::smoke(11, 2), &scenario)
        })
    }

    #[test]
    fn heuristic_figure_contains_all_variants() {
        let g = grid();
        let fig = render_heuristic_figure(g, HeuristicKind::Mect);
        for v in ["MECT/none", "MECT/en", "MECT/rob", "MECT/en+rob"] {
            assert!(fig.contains(v), "missing {v}");
        }
        assert!(fig.contains("median"));
    }

    #[test]
    fn best_figure_has_one_row_per_heuristic() {
        let g = grid();
        let fig = render_best_figure(g);
        for h in ["SQ/", "MECT/", "LL/", "Random/"] {
            assert!(fig.contains(h), "missing {h}");
        }
    }

    #[test]
    fn csv_has_row_per_cell_trial() {
        let g = grid();
        let csv = grid_csv(g);
        // header + 16 cells × 2 trials.
        assert_eq!(csv.lines().count(), 1 + 32);
        assert!(csv.starts_with("heuristic,variant,trial"));
    }

    #[test]
    fn full_report_mentions_every_figure() {
        let g = grid();
        let report = render_full_report(g);
        for fig in ["Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6"] {
            assert!(report.contains(fig));
        }
        assert!(report.contains("Headline comparisons"));
    }

    #[test]
    fn full_report_summarizes_the_prefix_cache() {
        let g = grid();
        let line = render_cache_summary(g);
        assert!(line.contains("% hit rate over"), "got: {line}");
        assert!(render_full_report(g).contains("Prefix cache:"));
    }

    #[test]
    fn full_report_summarizes_fused_kernel_coverage() {
        let g = grid();
        let line = render_kernel_summary(g);
        assert!(line.contains("allocation-free convolutions"), "got: {line}");
        assert!(render_full_report(g).contains("Fused kernel:"));
    }

    #[test]
    fn full_report_summarizes_candidate_dedup() {
        let g = grid();
        let line = render_dedup_summary(g);
        assert!(line.contains("classes per mapping event"), "got: {line}");
        assert!(
            line.contains("duplicate evaluations skipped"),
            "got: {line}"
        );
        assert!(render_full_report(g).contains("Candidate dedup:"));
    }

    #[test]
    fn headline_analysis_handles_small_grids() {
        let g = grid();
        let text = render_headline_analysis(g);
        assert!(text.contains("vs unfiltered") || text.contains("baseline zero"));
    }
}
