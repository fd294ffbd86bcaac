//! A candidate assignment with its evaluated decision quantities, and the
//! per-core class form of a candidate stream.

use ecds_cluster::{PState, NUM_PSTATES};
use ecds_sim::SystemView;

use crate::estimate::AssignmentEstimate;
use crate::shard::{ClassCandidate, ZERO_ESTS};

/// One feasible assignment — a (core, P-state) pair — annotated with the
/// estimates every heuristic and filter consumes.
///
/// Candidates are produced in deterministic order (core-major, then
/// P-state from `P0` to `P4`), which fixes tie-breaking behaviour across
/// runs.
///
/// Like [`AssignmentEstimate`], deliberately not `PartialEq`: differential
/// suites compare candidates with [`EvaluatedCandidate::bit_eq`] (exact
/// `f64::to_bits` identity) rather than float `==`.
#[derive(Debug, Clone, Copy)]
pub struct EvaluatedCandidate {
    /// Flat core index.
    pub core: usize,
    /// P-state of the assignment.
    pub pstate: PState,
    /// The evaluated EET / ECT / EEC / ρ quadruple.
    pub est: AssignmentEstimate,
}

impl EvaluatedCandidate {
    /// `true` iff the assignments match and the estimates are bit-identical
    /// (see [`AssignmentEstimate::bit_eq`]).
    pub fn bit_eq(&self, other: &Self) -> bool {
        self.core == other.core && self.pstate == other.pstate && self.est.bit_eq(&other.est)
    }
}

/// `true` iff both candidate streams have the same length and match
/// pairwise under [`EvaluatedCandidate::bit_eq`] — the whole-stream
/// identity the evaluator's differential suites assert.
pub fn candidates_bit_eq(a: &[EvaluatedCandidate], b: &[EvaluatedCandidate]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bit_eq(y))
}

/// Refills `out` with the per-core classes of `stream`, in stream order:
/// one singleton class (`members = 1`, `min_core` = the core, `depth` = its
/// queue depth) per run of candidates on one core with ascending P-states,
/// retaining exactly the P-states the run carries. On the core-major stream
/// [`CandidateEvaluator::evaluate_all_into`](crate::CandidateEvaluator::evaluate_all_into)
/// emits, that is one class per core in core order, and the class-order
/// (class, P-state) pairs are the stream's own order.
pub(crate) fn per_core_classes(
    view: &SystemView<'_>,
    stream: &[EvaluatedCandidate],
    out: &mut Vec<ClassCandidate>,
) {
    out.clear();
    for (i, c) in stream.iter().enumerate() {
        if opens_class(stream, i) {
            out.push(ClassCandidate {
                min_core: c.core,
                depth: view.core_state(c.core).depth(),
                members: 1,
                ests: ZERO_ESTS,
                retained: [false; NUM_PSTATES],
            });
        }
        if let Some(class) = out.last_mut() {
            class.ests[c.pstate.index()] = c.est;
            class.retained[c.pstate.index()] = true;
        }
    }
}

/// `true` when `stream[i]` opens a per-core class: the first candidate, a
/// change of core, or a P-state that does not ascend.
fn opens_class(stream: &[EvaluatedCandidate], i: usize) -> bool {
    i == 0
        || stream[i - 1].core != stream[i].core
        || stream[i - 1].pstate.index() >= stream[i].pstate.index()
}

/// The stream index of `(class, pstate)` among the [`per_core_classes`] of
/// `stream`.
pub(crate) fn stream_index(
    stream: &[EvaluatedCandidate],
    class: usize,
    pstate: PState,
) -> Option<usize> {
    let mut opened = 0;
    (0..stream.len()).find(|&i| {
        opened += usize::from(opens_class(stream, i));
        opened == class + 1 && stream[i].pstate == pstate
    })
}

/// Keeps the candidates of `stream` that a filter kept in the class form:
/// `before` is [`per_core_classes`] of `stream`, `after` what the filter
/// left of it — a subsequence with narrowed `retained` flags. A class of
/// `before` survives as the next unmatched class of `after` with the same
/// `min_core` and bit-identical estimates.
pub(crate) fn retain_stream(
    stream: &mut Vec<EvaluatedCandidate>,
    before: &[ClassCandidate],
    after: &[ClassCandidate],
) {
    let mut survivors = after.iter().peekable();
    let kept: Vec<[bool; NUM_PSTATES]> = before
        .iter()
        .map(|b| {
            survivors
                .next_if(|a| {
                    a.min_core == b.min_core && a.ests.iter().zip(&b.ests).all(|(x, y)| x.bit_eq(y))
                })
                .map_or([false; NUM_PSTATES], |a| a.retained)
        })
        .collect();
    let mut opened = 0;
    let keep: Vec<bool> = (0..stream.len())
        .map(|i| {
            opened += usize::from(opens_class(stream, i));
            kept[opened - 1][stream[i].pstate.index()]
        })
        .collect();
    let mut keep = keep.into_iter();
    stream.retain(|_| keep.next().unwrap_or(false));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate() -> EvaluatedCandidate {
        EvaluatedCandidate {
            core: 3,
            pstate: PState::P2,
            est: AssignmentEstimate {
                eet: 10.0,
                ect: 25.0,
                eec: 600.0,
                rho: 0.75,
            },
        }
    }

    #[test]
    fn candidate_carries_estimates() {
        let c = candidate();
        assert_eq!(c.core, 3);
        assert_eq!(c.pstate, PState::P2);
        assert_eq!(c.est.rho, 0.75);
    }

    #[test]
    fn bit_eq_is_exact() {
        let a = candidate();
        let mut b = a;
        assert!(a.bit_eq(&b));
        assert!(a.est.bit_eq(&b.est));
        // An ulp-level perturbation breaks bit equality…
        b.est.ect = f64::from_bits(a.est.ect.to_bits() + 1);
        assert!(!a.bit_eq(&b));
        // …and so does a sign-of-zero difference float `==` would miss.
        let mut c = a;
        c.est.rho = 0.0;
        let mut d = a;
        d.est.rho = -0.0;
        assert!(!c.bit_eq(&d));
    }

    #[test]
    fn bit_eq_distinguishes_the_assignment_itself() {
        let a = candidate();
        let mut b = a;
        b.core = 4;
        assert!(!a.bit_eq(&b));
        let mut c = a;
        c.pstate = PState::P0;
        assert!(!a.bit_eq(&c));
    }

    #[test]
    fn slice_helper_requires_equal_lengths_and_pairs() {
        let a = candidate();
        assert!(candidates_bit_eq(&[a, a], &[a, a]));
        assert!(!candidates_bit_eq(&[a, a], &[a]));
        let mut b = a;
        b.est.eec = 601.0;
        assert!(!candidates_bit_eq(&[a], &[b]));
        assert!(candidates_bit_eq(&[], &[]));
    }
}
