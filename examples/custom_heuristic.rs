//! Extending the library: write your own heuristic and your own filter,
//! and run them through the same simulation harness as the paper's.
//!
//! The custom heuristic below is **MaxRho** — assign each task where its
//! probability of finishing on time is highest. Section IV-C of the paper
//! proves this is the immediate-mode-optimal choice for maximizing the
//! robustness metric ρ(t_l); it ignores energy entirely, which is exactly
//! why it needs the energy filter.
//!
//! ```text
//! cargo run --release --example custom_heuristic
//! ```

use ecds::prelude::*;
use ecds_workload::Task;

/// Assigns the task to the candidate with the highest robustness value
/// ρ(i,j,k,π,t_l,z) — maximizing the expected number of on-time
/// completions one task at a time.
struct MaxRho;

impl Heuristic for MaxRho {
    fn name(&self) -> &'static str {
        "MaxRho"
    }

    /// Decides on per-core classes (the default): one class per core in
    /// core order, each retaining the P-states the filters left.
    fn choose_indexed(
        &mut self,
        _task: &Task,
        _view: &SystemView<'_>,
        classes: &[ClassCandidate],
    ) -> Option<(usize, PState)> {
        classes
            .iter()
            .enumerate()
            .flat_map(|(ci, class)| {
                PState::ALL
                    .into_iter()
                    .filter(|p| class.retained[p.index()])
                    .map(move |p| (ci, p, class.ests[p.index()]))
            })
            // Tie-break toward the cheaper assignment: deadlines are often
            // comfortably met by several P-states (all with rho ~= 1), and
            // the cheaper one banks energy.
            .max_by(|(_, _, a), (_, _, b)| a.rho.total_cmp(&b.rho).then(b.eec.total_cmp(&a.eec)))
            .map(|(ci, p, _)| (ci, p))
    }
}

/// A custom filter: cap the *queue depth* of the target core, forcing
/// spatial load balancing regardless of the heuristic.
struct MaxDepthFilter {
    max_depth: usize,
}

impl Filter for MaxDepthFilter {
    fn name(&self) -> &'static str {
        "depth"
    }

    /// Every member of a class shares its queue depth, so the cap holds
    /// for grouped and per-core classes alike.
    fn retain_indexed(
        &self,
        _task: &Task,
        _view: &SystemView<'_>,
        _ctx: &FilterCtx,
        classes: &mut Vec<ClassCandidate>,
    ) {
        classes.retain(|class| class.depth <= self.max_depth);
    }
}

fn main() {
    let scenario = Scenario::small_for_tests(7);
    let budget = scenario.energy_budget().unwrap();
    let mut table = MarkdownTable::new(&["configuration", "missed", "energy used"]);

    let configs: Vec<(&str, Box<Scheduler>)> = vec![
        (
            "MaxRho/none",
            Box::new(Scheduler::new(
                Box::new(MaxRho),
                vec![],
                budget,
                ReductionPolicy::default(),
            )),
        ),
        (
            "MaxRho/en+depth",
            Box::new(Scheduler::new(
                Box::new(MaxRho),
                vec![
                    Box::new(EnergyFilter::paper()),
                    Box::new(MaxDepthFilter { max_depth: 3 }),
                ],
                budget,
                ReductionPolicy::default(),
            )),
        ),
        (
            "LL/en+rob (paper's best)",
            build_scheduler(
                HeuristicKind::LightestLoad,
                FilterVariant::EnergyAndRobustness,
                &scenario,
                0,
            ),
        ),
    ];

    let trace = scenario.trace(0);
    for (name, mut scheduler) in configs {
        let result = Simulation::new(&scenario, &trace).run(scheduler.as_mut());
        table.push_row(vec![
            name.to_string(),
            format!("{}", result.missed()),
            format!("{:.3e}", result.total_energy()),
        ]);
    }

    println!(
        "Custom heuristic + custom filter vs the paper's best, one trial of {} tasks:\n",
        trace.len()
    );
    println!("{}", table.render());
    println!(
        "Anything implementing the `Heuristic` or `Filter` trait plugs into\n\
         the same Scheduler/Simulation harness the paper's figures use."
    );
}
