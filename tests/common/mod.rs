//! Shared by the differential suites: `OracleMapper`, the reference twin of
//! `build_scheduler` with every selection rule restated on the candidate
//! stream, and the bit-identity comparisons of two trial results.
//!
//! Suites declare `pub mod common;` so the helpers a suite does not call
//! are not reported as dead code.
//!
//! Every `f64` is compared through `to_bits`, never float `==`, so a
//! `-0.0`/`0.0` or NaN difference cannot hide a divergence.

use ecds::core::heuristics::det_mect::deterministic_ready_time;
use ecds::core::reference;
use ecds::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A heuristic's selection rule restated on the core-major candidate
/// stream, independent of the class form production decides on.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// Fewest pending tasks, then minimum EET (Sec. V-B).
    ShortestQueue,
    /// Minimum ECT (Sec. V-C).
    Mect,
    /// Minimum `EEC × (1 − ρ)` (Sec. V-D, Eq. 5).
    LightestLoad,
    /// A uniform draw over the stream (Sec. V-E).
    Random,
    /// Minimum EET.
    Met,
    /// Minimum ready time `ECT − EET`.
    Olb,
    /// Minimum ECT among the best `k`% of the stream by EET.
    Kpb(f64),
    /// Minimum deterministic ready time plus EET.
    DetMct,
}

impl From<HeuristicKind> for Rule {
    fn from(kind: HeuristicKind) -> Self {
        match kind {
            HeuristicKind::ShortestQueue => Rule::ShortestQueue,
            HeuristicKind::Mect => Rule::Mect,
            HeuristicKind::LightestLoad => Rule::LightestLoad,
            HeuristicKind::Random => Rule::Random,
        }
    }
}

/// The index of the first candidate minimizing `key`.
fn first_min<K: PartialOrd>(
    candidates: &[EvaluatedCandidate],
    key: impl Fn(&EvaluatedCandidate) -> K,
) -> Option<usize> {
    let mut best: Option<(usize, K)> = None;
    for (i, c) in candidates.iter().enumerate() {
        let k = key(c);
        if best.as_ref().is_none_or(|(_, b)| k < *b) {
            best = Some((i, k));
        }
    }
    best.map(|(i, _)| i)
}

/// `Scheduler` rebuilt on the oracle: the same energy ledger, but
/// candidates come from `reference::evaluate_all` as one core-major stream,
/// and the filter predicates and the heuristic's [`Rule`] are restated on
/// that stream here rather than taken from production.
pub struct OracleMapper {
    rule: Rule,
    seed: u64,
    rng: StdRng,
    energy: Option<EnergyFilter>,
    rho_threshold: Option<f64>,
    budget: f64,
    remaining: f64,
}

impl OracleMapper {
    /// The oracle twin of `build_scheduler(kind, variant, scenario, trial)`.
    pub fn build(
        kind: HeuristicKind,
        variant: FilterVariant,
        scenario: &Scenario,
        trial: u64,
    ) -> Self {
        Self::new(kind.into(), variant, scenario, trial)
    }

    /// The oracle twin of a `Scheduler` with `rule`'s heuristic behind
    /// `variant`'s filters; `trial` seeds `Rule::Random` as
    /// `build_heuristic` does.
    pub fn new(rule: Rule, variant: FilterVariant, scenario: &Scenario, trial: u64) -> Self {
        let budget = scenario.energy_budget().unwrap_or(f64::INFINITY);
        let seed = scenario.seeds().seed(Stream::Heuristic, trial, 0);
        let (energy, robustness) = match variant {
            FilterVariant::None => (false, false),
            FilterVariant::Energy => (true, false),
            FilterVariant::Robustness => (false, true),
            FilterVariant::EnergyAndRobustness => (true, true),
        };
        Self {
            rule,
            seed,
            rng: StdRng::seed_from_u64(seed),
            energy: energy.then(EnergyFilter::paper),
            rho_threshold: robustness.then_some(0.5),
            budget,
            remaining: budget,
        }
    }

    /// The index `rule` selects from a non-empty stream.
    fn choose(&mut self, view: &SystemView<'_>, c: &[EvaluatedCandidate]) -> Option<usize> {
        match self.rule {
            Rule::ShortestQueue => first_min(c, |c| (view.core_state(c.core).depth(), c.est.eet)),
            Rule::Mect => first_min(c, |c| c.est.ect),
            Rule::LightestLoad => first_min(c, |c| c.est.eec * (1.0 - c.est.rho)),
            Rule::Random => Some(self.rng.gen_range(0..c.len())),
            Rule::Met => first_min(c, |c| c.est.eet),
            Rule::Olb => first_min(c, |c| c.est.ect - c.est.eet),
            Rule::Kpb(k) => {
                let keep = ((c.len() as f64 * k / 100.0).ceil() as usize).max(1);
                let mut by_eet: Vec<usize> = (0..c.len()).collect();
                by_eet.sort_by(|&a, &b| c[a].est.eet.total_cmp(&c[b].est.eet).then(a.cmp(&b)));
                by_eet[..keep]
                    .iter()
                    .copied()
                    .min_by(|&a, &b| c[a].est.ect.total_cmp(&c[b].est.ect).then(a.cmp(&b)))
            }
            Rule::DetMct => first_min(c, |c| deterministic_ready_time(view, c.core) + c.est.eet),
        }
    }

    /// Filters `candidates`, lets the rule choose, and debits the ledger —
    /// the selection half of `assign`, open to mappers that bring their
    /// own candidate stream.
    pub fn select(
        &mut self,
        _task: &Task,
        view: &SystemView<'_>,
        mut candidates: Vec<EvaluatedCandidate>,
    ) -> Option<Assignment> {
        let ctx = FilterCtx {
            remaining_energy: self.remaining,
            budget: self.budget,
        };
        // Eq. 6's fair share and the ρ threshold, on the stream.
        let fair = self
            .energy
            .map_or(f64::INFINITY, |f| f.fair_share(view, &ctx));
        let threshold = self.rho_threshold.unwrap_or(f64::NEG_INFINITY);
        candidates.retain(|c| c.est.eec <= fair && c.est.rho >= threshold);
        if candidates.is_empty() {
            return None; // the task is discarded
        }
        let chosen = candidates[self.choose(view, &candidates)?];
        self.remaining -= chosen.est.eec;
        Some(Assignment {
            core: chosen.core,
            pstate: chosen.pstate,
        })
    }
}

impl Mapper for OracleMapper {
    fn on_trial_start(&mut self) {
        self.remaining = self.budget;
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    fn assign(&mut self, task: &Task, view: &SystemView<'_>) -> Option<Assignment> {
        let candidates = reference::evaluate_all(view, task, ReductionPolicy::default());
        self.select(task, view, candidates)
    }
}

/// A heuristic pinned to per-core classes: the wrapped rule, with grouped
/// classes declined, so a `Scheduler` over it takes the per-core path.
pub struct PerCore(pub Box<dyn Heuristic>);

impl Heuristic for PerCore {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn choose_indexed(
        &mut self,
        task: &Task,
        view: &SystemView<'_>,
        classes: &[ClassCandidate],
    ) -> Option<(usize, PState)> {
        self.0.choose_indexed(task, view, classes)
    }

    fn reset(&mut self) {
        self.0.reset();
    }
}

/// Runs trial `trial` of `Scenario::small_for_tests(master)` twice — on
/// `build_scheduler` and on its `OracleMapper` twin — and returns
/// `(fast, oracle)`.
pub fn run_against_oracle(
    master: u64,
    trial: u64,
    kind: HeuristicKind,
    variant: FilterVariant,
) -> (TrialResult, TrialResult) {
    let scenario = Scenario::small_for_tests(master);
    let trace = scenario.trace(trial);
    let mut fast = build_scheduler(kind, variant, &scenario, trial);
    let mut oracle = OracleMapper::build(kind, variant, &scenario, trial);
    let a = Simulation::new(&scenario, &trace).run(fast.as_mut());
    let b = Simulation::new(&scenario, &trace).run(&mut oracle);
    (a, b)
}

fn opt_bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

fn series_bits<T: Copy>(v: &[(f64, T)], f: impl Fn(T) -> u64) -> Vec<(u64, u64)> {
    v.iter().map(|&(t, x)| (t.to_bits(), f(x))).collect()
}

/// Task outcomes, energy, exhaustion, makespan and the telemetry series
/// must agree bit for bit. Work counters are not compared: the oracle
/// keeps no cache, runs no fused kernel and forms no classes, so it
/// reports none.
pub fn assert_semantically_identical(a: &TrialResult, b: &TrialResult, label: &str) {
    assert_eq!(
        a.outcomes().len(),
        b.outcomes().len(),
        "{label}: outcome count diverged"
    );
    for (x, y) in a.outcomes().iter().zip(b.outcomes()) {
        // Destructured so a new outcome field cannot go uncompared.
        let TaskOutcome {
            task,
            type_id,
            arrival,
            deadline,
            assignment,
            start,
            completion,
            cancelled,
        } = *x;
        assert_eq!(task, y.task, "{label}: task id order diverged");
        assert_eq!(type_id, y.type_id, "{label}: type of {task:?} diverged");
        assert_eq!(
            (arrival.to_bits(), deadline.to_bits()),
            (y.arrival.to_bits(), y.deadline.to_bits()),
            "{label}: arrival/deadline of {task:?} diverged"
        );
        assert_eq!(
            assignment, y.assignment,
            "{label}: assignment of {task:?} diverged"
        );
        assert_eq!(
            opt_bits(start),
            opt_bits(y.start),
            "{label}: start of {task:?} diverged"
        );
        assert_eq!(
            opt_bits(completion),
            opt_bits(y.completion),
            "{label}: completion of {task:?} diverged"
        );
        assert_eq!(
            cancelled, y.cancelled,
            "{label}: cancellation of {task:?} diverged"
        );
    }
    assert_eq!(
        a.total_energy().to_bits(),
        b.total_energy().to_bits(),
        "{label}: energy diverged"
    );
    assert_eq!(
        opt_bits(a.exhausted_at()),
        opt_bits(b.exhausted_at()),
        "{label}: exhaustion diverged"
    );
    assert_eq!(
        a.makespan().to_bits(),
        b.makespan().to_bits(),
        "{label}: makespan diverged"
    );
    let (ta, tb) = (a.telemetry(), b.telemetry());
    assert_eq!(
        series_bits(&ta.queue_depth, f64::to_bits),
        series_bits(&tb.queue_depth, f64::to_bits),
        "{label}: queue depth diverged"
    );
    assert_eq!(
        series_bits(&ta.busy_cores, |n| n as u64),
        series_bits(&tb.busy_cores, |n| n as u64),
        "{label}: busy cores diverged"
    );
    assert_eq!(
        series_bits(&ta.power, f64::to_bits),
        series_bits(&tb.power, f64::to_bits),
        "{label}: power timeline diverged"
    );
}

/// Everything [`assert_semantically_identical`] compares, plus the work
/// counters in `Telemetry::mapper`: the two runs made the same decisions
/// the same way.
pub fn assert_bit_identical(a: &TrialResult, b: &TrialResult, label: &str) {
    assert_semantically_identical(a, b, label);
    assert_eq!(
        a.telemetry().mapper,
        b.telemetry().mapper,
        "{label}: mapper stats diverged"
    );
}
