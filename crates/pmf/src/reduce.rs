//! Impulse reduction: bounding a pmf's support size after convolution.
//!
//! Each convolution multiplies support sizes, so a queue of `q` tasks with
//! `k`-impulse execution-time pmfs would otherwise produce `k^q` support
//! points. The reduction here merges *adjacent* impulses (the support is
//! sorted) into mass-weighted centroids, which preserves total mass and the
//! distribution mean exactly, and never moves mass across the bucket
//! boundaries by more than one bucket width — keeping deadline-tail
//! probabilities accurate to the bucket resolution.

use crate::impulse::Impulse;
use crate::pmf::Pmf;

/// Policy bounding the support size of reduced pmfs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionPolicy {
    /// Maximum number of impulses retained; pmfs at or below the cap are
    /// returned unchanged.
    pub max_impulses: usize,
}

impl ReductionPolicy {
    /// A policy capping the support at `max_impulses` (at least 1).
    pub fn new(max_impulses: usize) -> Self {
        assert!(max_impulses >= 1, "reduction cap must be at least 1");
        Self { max_impulses }
    }

    /// No reduction (cap of `usize::MAX`) — useful in tests and for exact
    /// small-scale computations.
    pub const fn unlimited() -> Self {
        Self {
            max_impulses: usize::MAX,
        }
    }

    /// The workspace default, matching the paper-scale experiments
    /// (24 impulses keeps per-assignment evaluation sub-microsecond while
    /// holding ρ errors well below the filter threshold granularity).
    pub const fn default_cap() -> Self {
        Self { max_impulses: 24 }
    }
}

impl Default for ReductionPolicy {
    fn default() -> Self {
        Self::default_cap()
    }
}

impl Pmf {
    /// Reduces the support to at most `policy.max_impulses` points by
    /// merging runs of adjacent impulses into their probability-weighted
    /// centroids, which preserves total mass and the mean.
    ///
    /// Buckets are chosen with equal *probability mass* (not equal width): the
    /// cumulative mass axis is split into `max_impulses` equal slices and each
    /// slice collapses to its centroid. Equal-mass bucketing spends resolution
    /// where the distribution actually has mass, which is what the robustness
    /// computation (a CDF query at the deadline) cares about.
    pub fn reduce(&self, policy: ReductionPolicy) -> Pmf {
        let cap = policy.max_impulses;
        if self.len() <= cap {
            return self.clone();
        }
        let target_mass = 1.0 / cap as f64;
        let mut out: Vec<Impulse> = Vec::with_capacity(cap);
        let mut bucket_mass = 0.0;
        let mut bucket_weighted = 0.0;
        let mut filled_buckets = 0usize;
        // Mass emitted so far. Accumulated exactly as the previous
        // `out.iter().map(|i| i.prob).sum()` would recompute it (left-to-right
        // from 0.0), so results stay bit-identical — without the O(n·cap)
        // rescan per impulse.
        let mut emitted_mass = 0.0;
        let n = self.len();
        for (idx, imp) in self.impulses().iter().enumerate() {
            bucket_mass += imp.prob;
            bucket_weighted += imp.weighted_value();
            let remaining_impulses = n - idx - 1;
            let remaining_buckets = cap - filled_buckets - 1;
            // Close the bucket when it holds its fair share of mass, unless the
            // leftover impulses are needed one-per-bucket to fill the rest.
            let must_flush = remaining_impulses == remaining_buckets && remaining_buckets > 0;
            let quota_met =
                bucket_mass + 1e-15 >= target_mass * (filled_buckets + 1) as f64 - emitted_mass;
            if (quota_met || must_flush) && remaining_buckets > 0 {
                out.push(Impulse::new(bucket_weighted / bucket_mass, bucket_mass));
                emitted_mass += bucket_mass;
                filled_buckets += 1;
                bucket_mass = 0.0;
                bucket_weighted = 0.0;
            }
        }
        if bucket_mass > 0.0 {
            out.push(Impulse::new(bucket_weighted / bucket_mass, bucket_mass));
        }
        debug_assert!(out.len() <= cap);
        // Centroids of consecutive buckets are non-decreasing; coincident
        // centroids (possible when a heavy impulse spans a bucket boundary)
        // merge here.
        crate::pmf::sort_and_merge(&mut out);
        Pmf::from_invariant_impulses(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_support(n: usize) -> Pmf {
        let pairs: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 1.0)).collect();
        Pmf::from_pairs(&pairs).unwrap()
    }

    #[test]
    fn below_cap_is_identity() {
        let p = uniform_support(5);
        let r = p.reduce(ReductionPolicy::new(8));
        assert_eq!(r, p);
    }

    #[test]
    fn at_cap_is_identity() {
        let p = uniform_support(8);
        let r = p.reduce(ReductionPolicy::new(8));
        assert_eq!(r, p);
    }

    #[test]
    fn reduction_hits_cap() {
        let p = uniform_support(100);
        let r = p.reduce(ReductionPolicy::new(10));
        assert!(r.len() <= 10);
        assert!(r.len() >= 5, "should not over-collapse");
    }

    #[test]
    fn reduction_preserves_mean_exactly() {
        let p = uniform_support(97);
        let r = p.reduce(ReductionPolicy::new(12));
        assert!((r.expectation() - p.expectation()).abs() < 1e-9);
    }

    #[test]
    fn reduction_preserves_mass() {
        let p = uniform_support(50);
        let r = p.reduce(ReductionPolicy::new(7));
        assert!((r.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reduction_never_widens_support() {
        let p = uniform_support(64);
        let r = p.reduce(ReductionPolicy::new(9));
        assert!(r.min_value() >= p.min_value() - 1e-12);
        assert!(r.max_value() <= p.max_value() + 1e-12);
    }

    #[test]
    fn cap_one_collapses_to_mean() {
        let p = uniform_support(10);
        let r = p.reduce(ReductionPolicy::new(1));
        assert_eq!(r.len(), 1);
        assert!((r.expectation() - p.expectation()).abs() < 1e-12);
    }

    #[test]
    fn skewed_mass_keeps_resolution_in_bulk() {
        // 90% of mass near zero, long light tail.
        let mut pairs: Vec<(f64, f64)> = (0..9).map(|i| (i as f64, 0.1)).collect();
        pairs.extend((0..10).map(|i| (100.0 + i as f64, 0.01)));
        let p = Pmf::from_pairs(&pairs).unwrap();
        let r = p.reduce(ReductionPolicy::new(8));
        assert!(r.len() <= 8);
        // The bulk (values < 10) should retain several distinct points.
        let bulk = r.impulses().iter().filter(|i| i.value < 10.0).count();
        assert!(bulk >= 4, "bulk resolution too coarse: {bulk}");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_cap_rejected() {
        let _ = ReductionPolicy::new(0);
    }

    #[test]
    fn default_policy_is_default_cap() {
        assert_eq!(ReductionPolicy::default(), ReductionPolicy::default_cap());
    }

    #[test]
    fn cdf_error_is_bounded_after_reduction() {
        let p = uniform_support(200);
        let r = p.reduce(ReductionPolicy::new(20));
        // Equal-mass buckets: CDF error at any point is at most one bucket
        // of mass (1/20) plus epsilon.
        for x in [10.0, 50.0, 99.5, 150.0] {
            assert!((r.prob_le(x) - p.prob_le(x)).abs() <= 0.05 + 1e-9);
        }
    }
}
