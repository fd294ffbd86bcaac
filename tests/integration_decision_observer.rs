//! Fidelity of the decision observer: `Scheduler::assign_observed` with a
//! recording observer decides exactly as `Scheduler::assign` (the no-op
//! observer) — same outcomes, telemetry, ledger bits, `MapperStats` and
//! checkpoint bytes — and reports every decision's stages in pipeline
//! order: evaluate, each filter in chain order, choose, then the choice or
//! the discard (a discard right after the filter that emptied the set).
//! The ρ it reports for a chosen assignment is the chosen class's
//! estimate. Covers all 16 heuristic × filter cells and the literature zoo
//! (MET, OLB, KPB(20), KPB(50), det-MCT) under en+rob, on two seeds.

pub mod common;

use common::assert_bit_identical;
use ecds::persist::{DecodeError, Decoder, Encoder};
use ecds::prelude::*;

/// One reported stage.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    EvaluateStart(TaskId),
    EvaluateEnd,
    FilterStart(&'static str),
    /// The filter's name, and whether it emptied the set.
    FilterEnd(&'static str, bool),
    ChooseStart,
    ChooseEnd,
    Chosen(TaskId, Assignment),
    Discarded(TaskId),
}

/// Records every stage, and checks each chosen estimate against the
/// classes the last stage left.
#[derive(Default)]
struct Recorder {
    stages: Vec<Stage>,
    classes: Vec<ClassCandidate>,
    predictions: Vec<(TaskId, f64)>,
}

impl Recorder {
    fn keep(&mut self, classes: &[ClassCandidate]) {
        self.classes.clear();
        self.classes.extend_from_slice(classes);
    }
}

impl DecisionObserver for Recorder {
    fn evaluate_start(&mut self, task: &Task) {
        self.stages.push(Stage::EvaluateStart(task.id));
    }

    fn evaluate_end(&mut self, classes: &[ClassCandidate]) {
        self.stages.push(Stage::EvaluateEnd);
        self.keep(classes);
    }

    fn filter_start(&mut self, filter: &dyn Filter) {
        self.stages.push(Stage::FilterStart(filter.name()));
    }

    fn filter_end(&mut self, filter: &dyn Filter, classes: &[ClassCandidate]) {
        self.stages
            .push(Stage::FilterEnd(filter.name(), classes.is_empty()));
        self.keep(classes);
    }

    fn choose_start(&mut self) {
        self.stages.push(Stage::ChooseStart);
    }

    fn choose_end(&mut self) {
        self.stages.push(Stage::ChooseEnd);
    }

    fn chosen(&mut self, task: &Task, assignment: &Assignment, est: &AssignmentEstimate) {
        let class = self
            .classes
            .iter()
            .find(|c| c.min_core == assignment.core)
            .expect("the chosen core leads a surviving class");
        let p = assignment.pstate.index();
        assert!(
            class.retained[p],
            "task {}: P-state filtered out",
            task.id.0
        );
        assert!(
            class.ests[p].bit_eq(est),
            "task {}: reported estimate is not the chosen class's",
            task.id.0
        );
        self.stages.push(Stage::Chosen(task.id, *assignment));
        self.predictions.push((task.id, est.rho));
    }

    fn discarded(&mut self, task: &Task) {
        self.stages.push(Stage::Discarded(task.id));
    }
}

/// A scheduler deciding through `assign_observed` with a [`Recorder`].
struct Observed {
    scheduler: Box<Scheduler>,
    recorder: Recorder,
}

impl Mapper for Observed {
    fn on_trial_start(&mut self) {
        self.scheduler.on_trial_start();
    }

    fn assign(&mut self, task: &Task, view: &SystemView<'_>) -> Option<Assignment> {
        self.scheduler
            .assign_observed(task, view, &mut self.recorder)
    }

    fn stats(&self) -> MapperStats {
        self.scheduler.stats()
    }

    fn save_state(&self, enc: &mut Encoder) {
        self.scheduler.save_state(enc);
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.scheduler.restore_state(dec)
    }
}

/// Events before the mid-trial checkpoint.
const CHECKPOINT_AT: u64 = 60;

/// Serves trial 0 to the end, checkpointing after [`CHECKPOINT_AT`]
/// events; returns the result, the checkpoint, and the mapper's state
/// once the trial is over.
fn serve(scenario: &Scenario, mapper: &mut dyn Mapper) -> (TrialResult, Vec<u8>, Vec<u8>) {
    let trace = scenario.trace(0);
    let mut source = TraceArrivalSource::new(&trace);
    let mut discipline = ImmediateDiscipline::new(&mut *mapper);
    let mut session = ServeSession::new(
        scenario.cluster(),
        scenario.table(),
        scenario.sim_config(),
        ServeConfig::finite(trace.len()),
        &mut source,
        &mut discipline,
    );
    session.run_events(CHECKPOINT_AT, &mut source, &mut discipline);
    let checkpoint = session.checkpoint(&source, &discipline);
    session.run(&mut source, &mut discipline);
    let result = session.finish(&mut discipline);
    let mut end = Encoder::new();
    mapper.save_state(&mut end);
    (result, checkpoint, end.into_bytes())
}

/// Walks `stages` decision by decision against the pipeline order for
/// `filters` and the trial's outcomes; returns the number of discards
/// reported right after a filter.
fn check_sequence(
    stages: &[Stage],
    filters: &[&'static str],
    result: &TrialResult,
    label: &str,
) -> usize {
    let mut it = stages.iter().copied();
    let mut next = || it.next();
    let mut decided = vec![false; result.window()];
    let mut filter_discards = 0;
    while let Some(stage) = next() {
        let Stage::EvaluateStart(task) = stage else {
            panic!("{label}: a decision starts with {stage:?}");
        };
        assert!(!decided[task.0], "{label}: task {} decided twice", task.0);
        decided[task.0] = true;
        let outcome = result.outcomes()[task.0].assignment;
        assert_eq!(next(), Some(Stage::EvaluateEnd), "{label}: task {}", task.0);
        let mut emptied = false;
        for &name in filters {
            assert_eq!(next(), Some(Stage::FilterStart(name)), "{label}");
            let Some(Stage::FilterEnd(ended, empty)) = next() else {
                panic!("{label}: task {}: filter {name} did not end", task.0);
            };
            assert_eq!(ended, name, "{label}");
            if empty {
                emptied = true;
                break;
            }
        }
        if emptied {
            filter_discards += 1;
        } else {
            assert_eq!(next(), Some(Stage::ChooseStart), "{label}: task {}", task.0);
            assert_eq!(next(), Some(Stage::ChooseEnd), "{label}: task {}", task.0);
        }
        match next() {
            Some(Stage::Chosen(id, a)) if !emptied => {
                assert_eq!(id, task, "{label}");
                assert_eq!(
                    outcome,
                    Some((a.core, a.pstate)),
                    "{label}: task {}",
                    task.0
                );
            }
            Some(Stage::Discarded(id)) => {
                assert_eq!(id, task, "{label}");
                assert_eq!(outcome, None, "{label}: task {}", task.0);
            }
            other => panic!("{label}: task {} ended with {other:?}", task.0),
        }
    }
    assert!(
        decided.iter().all(|&d| d),
        "{label}: a task was never decided"
    );
    filter_discards
}

/// One scheduler configuration: a cell of the paper's grid, or a zoo
/// heuristic under en+rob.
#[derive(Clone, Copy)]
enum Cell {
    Grid(HeuristicKind, FilterVariant),
    Zoo(fn() -> Box<dyn Heuristic>),
}

impl Cell {
    fn variant(self) -> FilterVariant {
        match self {
            Cell::Grid(_, variant) => variant,
            Cell::Zoo(_) => FilterVariant::EnergyAndRobustness,
        }
    }

    fn build(self, scenario: &Scenario) -> Box<Scheduler> {
        match self {
            Cell::Grid(kind, variant) => build_scheduler(kind, variant, scenario, 0),
            Cell::Zoo(heuristic) => Box::new(Scheduler::new(
                heuristic(),
                self.variant().build(),
                scenario.energy_budget().unwrap(),
                ReductionPolicy::default(),
            )),
        }
    }
}

#[test]
fn observed_assign_matches_assign_and_reports_every_stage() {
    let mut cells: Vec<Cell> = HeuristicKind::ALL
        .into_iter()
        .flat_map(|kind| FilterVariant::ALL.map(|variant| Cell::Grid(kind, variant)))
        .collect();
    cells.extend([
        Cell::Zoo(|| Box::new(MinimumExecutionTime)),
        Cell::Zoo(|| Box::new(OpportunisticLoadBalancing)),
        Cell::Zoo(|| Box::new(KPercentBest::new(20.0))),
        Cell::Zoo(|| Box::new(KPercentBest::new(50.0))),
        Cell::Zoo(|| Box::new(DeterministicMct)),
    ]);
    let mut filter_discards = 0;
    for master in [12, 29] {
        let scenario = Scenario::small_for_tests(master);
        for &cell in &cells {
            let mut plain = cell.build(&scenario);
            let label = format!("seed {master} {}", plain.label());
            let mut observed = Observed {
                scheduler: cell.build(&scenario),
                recorder: Recorder::default(),
            };
            let (a, a_checkpoint, a_end) = serve(&scenario, plain.as_mut());
            let (b, b_checkpoint, b_end) = serve(&scenario, &mut observed);
            assert!(a.completed() > 0, "{label}");
            assert_bit_identical(&a, &b, &label);
            assert_eq!(
                plain.remaining_energy().to_bits(),
                observed.scheduler.remaining_energy().to_bits(),
                "{label}: ledger diverged"
            );
            assert_eq!(plain.stats(), observed.scheduler.stats(), "{label}");
            assert!(a_checkpoint == b_checkpoint, "{label}: checkpoint diverged");
            assert!(a_end == b_end, "{label}: end state diverged");

            let names: Vec<&'static str> =
                cell.variant().build().iter().map(|f| f.name()).collect();
            let recorder = &observed.recorder;
            filter_discards += check_sequence(&recorder.stages, &names, &b, &label);
            assert_eq!(
                recorder.predictions.len(),
                b.window() - b.discarded(),
                "{label}"
            );
        }
    }
    assert!(filter_discards > 0, "no filter emptied a set");
}
