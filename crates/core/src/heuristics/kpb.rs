//! K-Percent Best — the \[MaA99\] compromise between MET's heterogeneity
//! exploitation and MCT's load awareness.

use ecds_cluster::PState;
use ecds_sim::SystemView;
use ecds_workload::Task;

use crate::heuristics::{retained_pairs, Heuristic};
use crate::shard::ClassCandidate;

/// **KPB**: restrict attention to the `k`% of candidates with the best
/// (smallest) expected execution time for this task, then choose the
/// minimum expected completion time among them (\[MaA99\]). `k = 100`
/// degenerates to MECT; small `k` approaches MET.
///
/// The cut counts feasible (core, P-state) pairs and ranks ties by
/// core-major order, so KPB decides from per-core classes.
#[derive(Debug, Clone, Copy)]
pub struct KPercentBest {
    k_percent: f64,
}

impl KPercentBest {
    /// Creates the heuristic; `k_percent` must be in `(0, 100]`.
    pub fn new(k_percent: f64) -> Self {
        assert!(
            k_percent > 0.0 && k_percent <= 100.0,
            "k must be a percentage in (0, 100]"
        );
        Self { k_percent }
    }

    /// The `k` parameter.
    pub fn k_percent(&self) -> f64 {
        self.k_percent
    }
}

impl Default for KPercentBest {
    /// \[MaA99\]'s experiments found moderate k best; default to 20%.
    fn default() -> Self {
        Self::new(20.0)
    }
}

impl Heuristic for KPercentBest {
    fn name(&self) -> &'static str {
        "KPB"
    }

    fn choose_indexed(
        &mut self,
        _task: &Task,
        _view: &SystemView<'_>,
        classes: &[ClassCandidate],
    ) -> Option<(usize, PState)> {
        let pairs: Vec<(usize, PState)> = retained_pairs(classes).collect();
        if pairs.is_empty() {
            return None;
        }
        let est = |i: usize| &classes[pairs[i].0].ests[pairs[i].1.index()];
        let keep = ((pairs.len() as f64 * self.k_percent / 100.0).ceil() as usize).max(1);
        // Rank pair indices by EET and keep the best `keep`.
        let mut by_eet: Vec<usize> = (0..pairs.len()).collect();
        by_eet.sort_by(|&a, &b| est(a).eet.total_cmp(&est(b).eet).then(a.cmp(&b)));
        // Minimum ECT within the shortlist, ties by core-major order.
        by_eet[..keep]
            .iter()
            .copied()
            .min_by(|&a, &b| est(a).ect.total_cmp(&est(b).ect).then(a.cmp(&b)))
            .map(|i| pairs[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::mect::MinimumExpectedCompletionTime;
    use crate::heuristics::testutil::{cand, task};
    use ecds_sim::{CoreState, Scenario};

    fn fixture() -> (Scenario, Vec<CoreState>) {
        let s = Scenario::small_for_tests(8);
        let cores = vec![CoreState::new(); s.cluster().total_cores()];
        (s, cores)
    }

    #[test]
    fn shortlists_by_eet_then_minimizes_ect() {
        let (s, cores) = fixture();
        let v = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 10);
        let cands = vec![
            cand(0, PState::P0, 10.0, 500.0, 0.0, 0.0), // best EET, deep queue
            cand(1, PState::P0, 12.0, 40.0, 0.0, 0.0),  // 2nd EET, idle
            cand(2, PState::P0, 90.0, 20.0, 0.0, 0.0),  // worst EET, best ECT
        ];
        // k = 60% keeps ceil(1.8) = 2 best-EET candidates; MECT among them
        // → idx 1.
        let mut h = KPercentBest::new(60.0);
        assert_eq!(h.choose(&task(), &v, &cands), Some(1));
    }

    #[test]
    fn k_100_degenerates_to_mect() {
        let (s, cores) = fixture();
        let v = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 10);
        let cands = vec![
            cand(0, PState::P0, 10.0, 500.0, 0.0, 0.0),
            cand(1, PState::P0, 12.0, 40.0, 0.0, 0.0),
            cand(2, PState::P0, 90.0, 20.0, 0.0, 0.0),
        ];
        let mut h = KPercentBest::new(100.0);
        let mect = MinimumExpectedCompletionTime.choose(&task(), &v, &cands);
        assert_eq!(h.choose(&task(), &v, &cands), mect);
    }

    #[test]
    fn tiny_k_degenerates_to_met() {
        let (s, cores) = fixture();
        let v = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 10);
        let cands = vec![
            cand(0, PState::P0, 50.0, 60.0, 0.0, 0.0),
            cand(1, PState::P0, 20.0, 900.0, 0.0, 0.0),
        ];
        let mut h = KPercentBest::new(1.0);
        // Shortlist of 1 = best EET.
        assert_eq!(h.choose(&task(), &v, &cands), Some(1));
    }

    #[test]
    fn empty_candidates_abstain() {
        let (s, cores) = fixture();
        let v = ecds_sim::SystemView::new(s.cluster(), s.table(), &cores, 0.0, 1, 10);
        assert_eq!(KPercentBest::default().choose(&task(), &v, &[]), None);
    }

    #[test]
    #[should_panic(expected = "percentage")]
    fn zero_k_rejected() {
        let _ = KPercentBest::new(0.0);
    }

    #[test]
    fn default_k_is_20() {
        assert_eq!(KPercentBest::default().k_percent(), 20.0);
    }
}
