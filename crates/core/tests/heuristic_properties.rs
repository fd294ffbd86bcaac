//! Property tests of the heuristic/filter/scheduler pipeline: for
//! arbitrary candidate sets, every heuristic must choose a valid index and
//! every filter must only ever shrink the set; for arbitrary grouped class
//! lists, the order of the classes must never change a choice.

use ecds_cluster::{PState, NUM_PSTATES};
use ecds_core::AssignmentEstimate;
use ecds_core::{
    ClassCandidate, DeterministicMct, EnergyFilter, EvaluatedCandidate, Filter, FilterCtx,
    Heuristic, KPercentBest, LightestLoad, MinimumExecutionTime, MinimumExpectedCompletionTime,
    OpportunisticLoadBalancing, RandomChoice, RobustnessFilter, ShortestQueue,
};
use ecds_sim::{CoreState, Scenario, SystemView};
use ecds_workload::{Task, TaskId, TaskTypeId};
use proptest::prelude::*;
use std::sync::OnceLock;

fn scenario() -> &'static Scenario {
    static S: OnceLock<Scenario> = OnceLock::new();
    S.get_or_init(|| Scenario::small_for_tests(55))
}

fn idle_cores() -> &'static Vec<CoreState> {
    static C: OnceLock<Vec<CoreState>> = OnceLock::new();
    C.get_or_init(|| vec![CoreState::new(); scenario().cluster().total_cores()])
}

fn task() -> Task {
    Task {
        id: TaskId(0),
        type_id: TaskTypeId(0),
        arrival: 0.0,
        deadline: 5000.0,
        quantile: 0.5,
    }
}

/// Arbitrary candidate annotated with plausible (finite, positive)
/// estimates on valid cores of the small scenario.
fn arb_candidates() -> impl Strategy<Value = Vec<EvaluatedCandidate>> {
    let cores = scenario().cluster().total_cores();
    prop::collection::vec(
        (
            0..cores,
            0usize..5,
            1.0f64..5000.0,    // eet
            0.0f64..5000.0,    // queue delay (ect = eet + delay)
            1.0f64..500_000.0, // eec
            0.0f64..1.0,       // rho
        ),
        1..24,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(core, ps, eet, delay, eec, rho)| EvaluatedCandidate {
                core,
                pstate: PState::from_index(ps),
                est: AssignmentEstimate {
                    eet,
                    ect: eet + delay,
                    eec,
                    rho,
                },
            })
            .collect()
    })
}

/// Arbitrary grouped class list with distinct `min_core`s. Estimates are
/// drawn from a few values each, so keys tie across classes and P-states
/// and the `min_core` tie-break decides.
fn arb_classes() -> impl Strategy<Value = Vec<ClassCandidate>> {
    let cores = scenario().cluster().total_cores();
    let pstate = (
        0u32..3,
        0u32..3,
        0u32..3,
        0u32..3,
        prop::bool::weighted(0.8),
    );
    prop::collection::vec(
        (
            0..cores,
            0usize..3,
            1usize..5,
            prop::collection::vec(pstate, NUM_PSTATES),
        ),
        1..12,
    )
    .prop_map(|raw| {
        let mut classes: Vec<ClassCandidate> = Vec::new();
        for (min_core, depth, members, per_pstate) in raw {
            if classes.iter().any(|c| c.min_core == min_core) {
                continue;
            }
            let mut class = ClassCandidate {
                min_core,
                depth,
                members,
                ests: [AssignmentEstimate {
                    eet: 0.0,
                    ect: 0.0,
                    eec: 0.0,
                    rho: 0.0,
                }; NUM_PSTATES],
                retained: [true; NUM_PSTATES],
            };
            for (p, (eet, delay, eec, rho, keep)) in per_pstate.into_iter().enumerate() {
                let eet = 100.0 * f64::from(eet + 1);
                class.ests[p] = AssignmentEstimate {
                    eet,
                    ect: eet + 50.0 * f64::from(delay),
                    eec: 1_000.0 * f64::from(eec + 1),
                    rho: 0.25 * f64::from(rho),
                };
                class.retained[p] = keep;
            }
            classes.push(class);
        }
        classes
    })
}

/// The `(min_core, retained)` pairs of a class list, in core order.
fn kept(classes: &[ClassCandidate]) -> Vec<(usize, [bool; NUM_PSTATES])> {
    let mut kept: Vec<_> = classes.iter().map(|c| (c.min_core, c.retained)).collect();
    kept.sort_unstable();
    kept
}

fn all_heuristics() -> Vec<Box<dyn Heuristic>> {
    vec![
        Box::new(ShortestQueue),
        Box::new(MinimumExpectedCompletionTime),
        Box::new(LightestLoad),
        Box::new(RandomChoice::new(7)),
        Box::new(OpportunisticLoadBalancing),
        Box::new(MinimumExecutionTime),
        Box::new(KPercentBest::default()),
        Box::new(DeterministicMct),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_heuristic_returns_a_valid_index(cands in arb_candidates()) {
        let s = scenario();
        let view = SystemView::new(s.cluster(), s.table(), idle_cores(), 0.0, 1, 60);
        for mut h in all_heuristics() {
            let idx = h.choose(&task(), &view, &cands);
            let idx = idx.expect("non-empty candidates must yield a choice");
            prop_assert!(idx < cands.len(), "{} returned {idx}", h.name());
        }
    }

    #[test]
    fn every_heuristic_abstains_on_empty(_x in 0..1i32) {
        let s = scenario();
        let view = SystemView::new(s.cluster(), s.table(), idle_cores(), 0.0, 1, 60);
        for mut h in all_heuristics() {
            prop_assert_eq!(h.choose(&task(), &view, &[]), None);
        }
    }

    #[test]
    fn deterministic_heuristics_are_stable(cands in arb_candidates()) {
        let s = scenario();
        let view = SystemView::new(s.cluster(), s.table(), idle_cores(), 0.0, 1, 60);
        for build in [
            || Box::new(ShortestQueue) as Box<dyn Heuristic>,
            || Box::new(MinimumExpectedCompletionTime) as Box<dyn Heuristic>,
            || Box::new(LightestLoad) as Box<dyn Heuristic>,
            || Box::new(MinimumExecutionTime) as Box<dyn Heuristic>,
        ] {
            let a = build().choose(&task(), &view, &cands);
            let b = build().choose(&task(), &view, &cands);
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn mect_choice_minimizes_ect(cands in arb_candidates()) {
        let s = scenario();
        let view = SystemView::new(s.cluster(), s.table(), idle_cores(), 0.0, 1, 60);
        let idx = MinimumExpectedCompletionTime
            .choose(&task(), &view, &cands)
            .unwrap();
        let min = cands.iter().map(|c| c.est.ect).fold(f64::INFINITY, f64::min);
        prop_assert_eq!(cands[idx].est.ect, min);
    }

    #[test]
    fn ll_choice_minimizes_load(cands in arb_candidates()) {
        let s = scenario();
        let view = SystemView::new(s.cluster(), s.table(), idle_cores(), 0.0, 1, 60);
        let idx = LightestLoad.choose(&task(), &view, &cands).unwrap();
        let load = |c: &EvaluatedCandidate| c.est.eec * (1.0 - c.est.rho);
        let min = cands.iter().map(load).fold(f64::INFINITY, f64::min);
        prop_assert!((load(&cands[idx]) - min).abs() < 1e-12);
    }

    #[test]
    fn filters_only_shrink_and_preserve_membership(
        cands in arb_candidates(),
        remaining in 0.0f64..1e8,
        thresh in 0.0f64..1.0,
    ) {
        let s = scenario();
        let view = SystemView::new(s.cluster(), s.table(), idle_cores(), 0.0, 1, 60);
        let ctx = FilterCtx {
            remaining_energy: remaining,
            budget: 1e8,
        };
        let filters: Vec<Box<dyn Filter>> = vec![
            Box::new(EnergyFilter::paper()),
            Box::new(RobustnessFilter::with_threshold(thresh)),
        ];
        for f in filters {
            let mut filtered = cands.clone();
            f.retain(&task(), &view, &ctx, &mut filtered);
            prop_assert!(filtered.len() <= cands.len());
            for c in &filtered {
                prop_assert!(
                    cands.iter().any(|k| k.bit_eq(c)),
                    "{} invented a candidate",
                    f.name()
                );
            }
        }
    }

    #[test]
    fn robustness_filter_is_exact(cands in arb_candidates(), thresh in 0.0f64..1.0) {
        let s = scenario();
        let view = SystemView::new(s.cluster(), s.table(), idle_cores(), 0.0, 1, 60);
        let ctx = FilterCtx { remaining_energy: 1.0, budget: 1.0 };
        let f = RobustnessFilter::with_threshold(thresh);
        let mut filtered = cands.clone();
        f.retain(&task(), &view, &ctx, &mut filtered);
        let expected = cands.iter().filter(|c| c.est.rho >= thresh).count();
        prop_assert_eq!(filtered.len(), expected);
    }

    #[test]
    fn kpb_respects_its_shortlist(cands in arb_candidates(), k in 1.0f64..100.0) {
        let s = scenario();
        let view = SystemView::new(s.cluster(), s.table(), idle_cores(), 0.0, 1, 60);
        let idx = KPercentBest::new(k).choose(&task(), &view, &cands).unwrap();
        let keep = ((cands.len() as f64 * k / 100.0).ceil() as usize).max(1);
        // The chosen candidate's EET rank must be within the shortlist.
        let chosen_eet = cands[idx].est.eet;
        let strictly_better = cands.iter().filter(|c| c.est.eet < chosen_eet).count();
        prop_assert!(strictly_better < keep,
            "choice ranked {strictly_better} by EET but shortlist is {keep}");
    }

    /// The evaluator emits classes in key order, founding order within a
    /// key; selection must not depend on that order. Every indexed
    /// heuristic picks the same `(min_core, P-state)`, and both filters
    /// keep the same `(min_core, retained)` set, on a reversed and on a
    /// rotated copy of the list.
    #[test]
    fn class_order_never_changes_a_choice(
        classes in arb_classes(),
        rotate in 0usize..12,
        remaining in 0.0f64..20_000.0,
        thresh in 0.0f64..1.0,
    ) {
        let s = scenario();
        let view = SystemView::new(s.cluster(), s.table(), idle_cores(), 0.0, 1, 60);
        let mut reversed = classes.clone();
        reversed.reverse();
        let mut rotated = classes.clone();
        rotated.rotate_left(rotate % classes.len());
        let orders = [&classes, &reversed, &rotated];
        let mut heuristics: [Box<dyn Heuristic>; 6] = [
            Box::new(ShortestQueue),
            Box::new(MinimumExpectedCompletionTime),
            Box::new(LightestLoad),
            Box::new(MinimumExecutionTime),
            Box::new(OpportunisticLoadBalancing),
            Box::new(DeterministicMct),
        ];
        for h in heuristics.iter_mut() {
            let picks: Vec<_> = orders
                .iter()
                .map(|list| {
                    h.choose_indexed(&task(), &view, list)
                        .map(|(ci, pstate)| (list[ci].min_core, pstate))
                })
                .collect();
            prop_assert_eq!(picks[0], picks[1], "{} on the reversed list", h.name());
            prop_assert_eq!(picks[0], picks[2], "{} on the rotated list", h.name());
        }
        let ctx = FilterCtx { remaining_energy: remaining, budget: 20_000.0 };
        let filters: [Box<dyn Filter>; 2] = [
            Box::new(EnergyFilter::paper()),
            Box::new(RobustnessFilter::with_threshold(thresh)),
        ];
        for f in &filters {
            let sets: Vec<_> = orders
                .iter()
                .map(|list| {
                    let mut list = list.to_vec();
                    f.retain_indexed(&task(), &view, &ctx, &mut list);
                    kept(&list)
                })
                .collect();
            prop_assert_eq!(&sets[0], &sets[1], "{} on the reversed list", f.name());
            prop_assert_eq!(&sets[0], &sets[2], "{} on the rotated list", f.name());
        }
    }
}
