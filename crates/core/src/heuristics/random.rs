//! The Random baseline heuristic (paper Sec. V-E).

use ecds_cluster::PState;
use ecds_persist::{DecodeError, Decoder, Encoder, Persist};
use ecds_sim::SystemView;
use ecds_workload::Task;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::heuristics::{retained_pairs, Heuristic};
use crate::shard::ClassCandidate;

/// **Random**: pick uniformly at random among the feasible assignments —
/// "conceptually one of the simplest techniques", used to contrast how much
/// work the filters (rather than the heuristic) are doing. With "en+rob"
/// filtering the paper finds Random lands within ~4% of LL.
///
/// The draw is `gen_range(0..n)` over the `n` retained pairs in core-major
/// order, so Random decides from per-core classes: one uniform pick per
/// feasible (core, P-state) assignment.
///
/// Carries its own seeded RNG so whole experiment grids stay reproducible;
/// [`Heuristic::reset`] rewinds the stream so repeated trials with one
/// scheduler instance are also deterministic.
#[derive(Debug, Clone)]
pub struct RandomChoice {
    seed: u64,
    rng: StdRng,
}

impl RandomChoice {
    /// Creates the heuristic with its RNG substream seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Heuristic for RandomChoice {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn choose_indexed(
        &mut self,
        _task: &Task,
        _view: &SystemView<'_>,
        classes: &[ClassCandidate],
    ) -> Option<(usize, PState)> {
        let n = retained_pairs(classes).count();
        if n == 0 {
            return None;
        }
        retained_pairs(classes).nth(self.rng.gen_range(0..n))
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    fn save_state(&self, enc: &mut Encoder) {
        self.rng.state().encode(enc);
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.rng = StdRng::from_state(Persist::decode(dec)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::testutil::{cand, task};
    use ecds_sim::{CoreState, Scenario};

    fn choices(h: &mut RandomChoice, n: usize) -> Vec<usize> {
        let s = Scenario::small_for_tests(8);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let view = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 10);
        let cands: Vec<_> = (0..4)
            .map(|i| cand(i, PState::P0, 1.0, 1.0, 1.0, 1.0))
            .collect();
        (0..n)
            .map(|_| h.choose(&task(), &view, &cands).unwrap())
            .collect()
    }

    #[test]
    fn choices_are_in_range_and_varied() {
        let mut h = RandomChoice::new(1);
        let picks = choices(&mut h, 200);
        assert!(picks.iter().all(|&p| p < 4));
        let distinct: std::collections::BTreeSet<_> = picks.iter().collect();
        assert_eq!(distinct.len(), 4, "uniform choice should hit all options");
    }

    #[test]
    fn reset_rewinds_the_stream() {
        let mut h = RandomChoice::new(7);
        let first = choices(&mut h, 50);
        h.reset();
        let second = choices(&mut h, 50);
        assert_eq!(first, second);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RandomChoice::new(1);
        let mut b = RandomChoice::new(2);
        assert_ne!(choices(&mut a, 50), choices(&mut b, 50));
    }

    #[test]
    fn empty_candidates_abstain() {
        let s = Scenario::small_for_tests(8);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        let view = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 10);
        let mut h = RandomChoice::new(1);
        assert_eq!(h.choose(&task(), &view, &[]), None);
    }

    #[test]
    fn name_is_random() {
        assert_eq!(RandomChoice::new(0).name(), "Random");
    }
}
