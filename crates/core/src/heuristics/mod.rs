//! Task-scheduling heuristics (paper Sec. V).
//!
//! Every heuristic operates in immediate mode: given the filtered feasible
//! set of assignments for one arriving task, it picks exactly one (or
//! abstains if the set is empty — the scheduler then discards the task).
//! The set arrives as [`ClassCandidate`]s: the shard index's equivalence
//! classes for a heuristic that may decide from grouped classes, one class
//! per core otherwise (DESIGN.md §13). All heuristics are deterministic
//! given their inputs ([`random`] carries its own seeded RNG), and all
//! tie-breaking follows the deterministic core-major order.

pub mod det_mect;
pub mod kpb;
pub mod ll;
pub mod mect;
pub mod met;
pub mod olb;
pub mod random;
pub mod sq;

use ecds_cluster::PState;
use ecds_persist::{DecodeError, Decoder, Encoder};
use ecds_sim::SystemView;
use ecds_workload::Task;

use crate::candidate::{per_core_classes, stream_index, EvaluatedCandidate};
use crate::estimate::AssignmentEstimate;
use crate::shard::ClassCandidate;

/// An immediate-mode assignment heuristic.
pub trait Heuristic: Send {
    /// Display name used in figures ("SQ", "MECT", "LL", "Random").
    fn name(&self) -> &'static str;

    /// `true` when this heuristic may decide from grouped classes: its
    /// choice among a class's bit-identical members is the one a
    /// core-major scan makes first. Default `false`: the scheduler then
    /// hands it per-core classes (one singleton class per core, in core
    /// order), which a rule that reads core order needs — Random's draw,
    /// KPB's percentile cut, det-MCT's per-core ready times.
    fn supports_indexed(&self) -> bool {
        false
    }

    /// Chooses `(class index, P-state)` among the retained pairs of
    /// `classes`, or `None` when there are none.
    fn choose_indexed(
        &mut self,
        task: &Task,
        view: &SystemView<'_>,
        classes: &[ClassCandidate],
    ) -> Option<(usize, PState)>;

    /// [`Heuristic::choose_indexed`] on a candidate stream: converts it to
    /// per-core classes, chooses, and returns the chosen candidate's
    /// index. Exists only for `perfbench`'s `TracedScheduler` until
    /// ROADMAP item 1(0b) times it through
    /// [`Scheduler::assign_observed`](crate::Scheduler::assign_observed).
    fn choose(
        &mut self,
        task: &Task,
        view: &SystemView<'_>,
        candidates: &[EvaluatedCandidate],
    ) -> Option<usize> {
        let mut classes = Vec::new();
        per_core_classes(view, candidates, &mut classes);
        let (class, pstate) = self.choose_indexed(task, view, &classes)?;
        stream_index(candidates, class, pstate)
    }

    /// Resets per-trial internal state. Default: no-op.
    fn reset(&mut self) {}

    /// Serializes mutable per-trial state into a serving checkpoint.
    /// Default: nothing — most heuristics are stateless.
    fn save_state(&self, _enc: &mut Encoder) {}

    /// Restores state written by [`Heuristic::save_state`]. Default: no-op.
    fn restore_state(&mut self, _dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        Ok(())
    }
}

/// Every retained `(class index, P-state)` pair, in class order then
/// P-state order — on per-core classes, the core-major stream's order.
pub(crate) fn retained_pairs(
    classes: &[ClassCandidate],
) -> impl Iterator<Item = (usize, PState)> + '_ {
    classes.iter().enumerate().flat_map(|(ci, class)| {
        PState::ALL
            .into_iter()
            .filter(move |p| class.retained[p.index()])
            .map(move |p| (ci, p))
    })
}

/// Selects the retained `(class index, P-state)` pair minimizing `key`,
/// breaking ties exactly like a first-wins argmin over the core-major
/// stream: the smallest `(min_core, P-state)` wins. (Every member of a
/// class carries bit-identical estimates, so the first stream occurrence
/// of a tied key sits at the smallest member core of the tied classes.)
pub(crate) fn argmin_indexed<K, F>(
    classes: &[ClassCandidate],
    mut key: F,
) -> Option<(usize, PState)>
where
    K: PartialOrd,
    F: FnMut(&ClassCandidate, &AssignmentEstimate) -> K,
{
    let mut best: Option<(usize, PState, K)> = None;
    for (ci, pstate) in retained_pairs(classes) {
        let class = &classes[ci];
        let k = key(class, &class.ests[pstate.index()]);
        debug_assert!(
            k.partial_cmp(&k).is_some(),
            "heuristic keys must not be NaN"
        );
        let better = match &best {
            None => true,
            Some((bci, bp, bk)) => match k.partial_cmp(bk) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Greater) => false,
                _ => (class.min_core, pstate.index()) < (classes[*bci].min_core, bp.index()),
            },
        };
        if better {
            best = Some((ci, pstate, k));
        }
    }
    best.map(|(ci, pstate, _)| (ci, pstate))
}

#[cfg(test)]
pub(crate) mod testutil {
    use ecds_cluster::PState;
    use ecds_workload::{Task, TaskId, TaskTypeId};

    use crate::candidate::EvaluatedCandidate;
    use crate::estimate::AssignmentEstimate;
    use crate::shard::{ClassCandidate, ZERO_ESTS};

    /// Builds a candidate with the given quantities.
    pub fn cand(
        core: usize,
        pstate: PState,
        eet: f64,
        ect: f64,
        eec: f64,
        rho: f64,
    ) -> EvaluatedCandidate {
        EvaluatedCandidate {
            core,
            pstate,
            est: AssignmentEstimate { eet, ect, eec, rho },
        }
    }

    /// A depth-0 singleton class over `min_core` with the given per-P-state
    /// EETs, every P-state retained.
    pub fn class(min_core: usize, eets: [f64; 5]) -> ClassCandidate {
        let mut ests = ZERO_ESTS;
        for (est, eet) in ests.iter_mut().zip(eets) {
            est.eet = eet;
        }
        ClassCandidate {
            min_core,
            depth: 0,
            members: 1,
            ests,
            retained: [true; 5],
        }
    }

    /// A throwaway task for heuristic tests.
    pub fn task() -> Task {
        Task {
            id: TaskId(0),
            type_id: TaskTypeId(0),
            arrival: 0.0,
            deadline: 1000.0,
            quantile: 0.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::class;
    use super::*;

    #[test]
    fn argmin_picks_smallest() {
        let classes = [
            class(0, [3.0; 5]),
            class(1, [4.0, 1.0, 5.0, 5.0, 5.0]),
            class(2, [2.0; 5]),
        ];
        assert_eq!(
            argmin_indexed(&classes, |_, e| e.eet),
            Some((1, PState::P1))
        );
    }

    #[test]
    fn argmin_breaks_ties_by_order() {
        // Grouped classes arrive in key order, not core order: the tie
        // goes to the smallest (min_core, P-state), where a core-major
        // scan meets the key first.
        let mut late = class(5, [1.0; 5]);
        late.retained[0] = false;
        let classes = [late, class(2, [2.0, 1.0, 1.0, 1.0, 1.0])];
        assert_eq!(
            argmin_indexed(&classes, |_, e| e.eet),
            Some((1, PState::P1))
        );
    }

    #[test]
    fn argmin_empty_is_none() {
        assert_eq!(argmin_indexed(&[], |_, e| e.eet), None);
        let mut none = class(0, [1.0; 5]);
        none.retained = [false; 5];
        assert_eq!(argmin_indexed(&[none], |_, e| e.eet), None);
    }
}
