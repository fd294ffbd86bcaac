//! Truncation and renormalization of completion-time pmfs.
//!
//! When a task is already executing at mapping time `t_l`, some impulses of
//! its completion-time pmf lie in the past; those outcomes are impossible
//! (the task has observably not finished), so Sec. IV-B prescribes
//! "removing the past impulses from the pmf ... and re-normalizing the
//! remaining distribution".

use crate::error::PmfError;
use crate::impulse::Impulse;
use crate::pmf::Pmf;
use crate::Time;

impl Pmf {
    /// Removes impulses with `value < cutoff` and renormalizes the
    /// remainder — the Sec. IV-B operation on a currently-executing task's
    /// completion-time pmf.
    ///
    /// Returns [`PmfError::AllMassTruncated`] when no impulse is at or
    /// after the cutoff; [`Pmf::truncate_below_or_floor`] models that case
    /// as "completes now".
    ///
    /// ```
    /// use ecds_pmf::Pmf;
    ///
    /// // A task predicted to finish at 10 or 20 with equal odds, observed
    /// // still running at t = 15: only the 20 outcome remains possible.
    /// let completion = Pmf::from_pairs(&[(10.0, 0.5), (20.0, 0.5)]).unwrap();
    /// let conditioned = completion.truncate_below(15.0).unwrap();
    /// assert_eq!(conditioned.expectation(), 20.0);
    /// assert_eq!(conditioned.total_mass(), 1.0);
    /// ```
    pub fn truncate_below(&self, cutoff: Time) -> Result<Pmf, PmfError> {
        assert!(cutoff.is_finite(), "cutoff must be finite");
        let kept: Vec<Impulse> = self
            .impulses()
            .iter()
            .filter(|i| i.value >= cutoff)
            .copied()
            .collect();
        if kept.is_empty() {
            return Err(PmfError::AllMassTruncated);
        }
        let mass: f64 = kept.iter().map(|i| i.prob).sum();
        let renorm: Vec<Impulse> = kept
            .into_iter()
            .map(|i| Impulse::new(i.value, i.prob / mass))
            .collect();
        Ok(Pmf::from_invariant_impulses(renorm))
    }

    /// Like [`Pmf::truncate_below`], but when every outcome is in the past
    /// the task is modeled as completing "now": a singleton at `cutoff`.
    ///
    /// This is the behaviour the simulator needs for a task that has
    /// exceeded its entire predicted distribution — the best remaining
    /// estimate of its completion time is the current instant.
    pub fn truncate_below_or_floor(&self, cutoff: Time) -> Pmf {
        self.truncate_below(cutoff)
            .unwrap_or_else(|_| Pmf::singleton(cutoff))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> Pmf {
        Pmf::from_pairs(&[(10.0, 0.2), (20.0, 0.3), (30.0, 0.5)]).unwrap()
    }

    #[test]
    fn no_truncation_below_support() {
        let p = tri();
        let t = p.truncate_below(5.0).unwrap();
        assert_eq!(t, p);
    }

    #[test]
    fn truncation_removes_past_and_renormalizes() {
        let t = tri().truncate_below(15.0).unwrap();
        assert_eq!(t.len(), 2);
        assert!((t.impulses()[0].prob - 0.3 / 0.8).abs() < 1e-12);
        assert!((t.impulses()[1].prob - 0.5 / 0.8).abs() < 1e-12);
        assert!((t.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cutoff_exactly_at_impulse_keeps_it() {
        let t = tri().truncate_below(20.0).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.min_value(), 20.0);
    }

    #[test]
    fn all_mass_truncated_errors() {
        assert_eq!(
            tri().truncate_below(31.0).unwrap_err(),
            PmfError::AllMassTruncated
        );
    }

    #[test]
    fn floor_variant_degenerates_to_now() {
        let t = tri().truncate_below_or_floor(99.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.min_value(), 99.0);
    }

    #[test]
    fn floor_variant_matches_truncate_when_mass_remains() {
        let a = tri().truncate_below(15.0).unwrap();
        let b = tri().truncate_below_or_floor(15.0);
        assert_eq!(a, b);
    }

    #[test]
    fn truncation_raises_expectation() {
        let p = tri();
        let t = p.truncate_below(15.0).unwrap();
        assert!(t.expectation() > p.expectation());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_cutoff_panics() {
        let _ = tri().truncate_below(f64::NAN);
    }
}
