//! Building empirical pmfs from continuous samplers.
//!
//! The paper assumes execution-time pmfs "may in practice be obtained by
//! historical, experimental, or analytical techniques" (Sec. III-B). We
//! synthesize them the way the Smith et al. lineage does: draw a batch of
//! samples from the underlying continuous law (gamma around the CVB mean)
//! and compress them into an equal-probability-mass empirical pmf.

use rand::Rng;

use crate::impulse::Impulse;
use crate::pmf::{sort_and_merge_in_place, Pmf};

/// Configuration for empirical-pmf construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplePmfConfig {
    /// Number of raw samples to draw from the continuous law.
    pub samples: usize,
    /// Maximum number of impulses in the resulting pmf.
    pub max_impulses: usize,
}

impl SamplePmfConfig {
    /// Creates a config; both fields must be at least 1 and
    /// `max_impulses <= samples`.
    pub fn new(samples: usize, max_impulses: usize) -> Self {
        assert!(samples >= 1, "need at least one sample");
        assert!(max_impulses >= 1, "need at least one impulse");
        assert!(
            max_impulses <= samples,
            "cannot have more impulses than samples"
        );
        Self {
            samples,
            max_impulses,
        }
    }
}

impl Default for SamplePmfConfig {
    /// The workspace default used for paper-scale experiments: 200 samples
    /// compressed to 24 impulses.
    fn default() -> Self {
        Self::new(200, 24)
    }
}

/// Draws `cfg.samples` values from `draw` and bins them into an
/// equal-probability-mass pmf with at most `cfg.max_impulses` impulses, each
/// impulse placed at the mean of its bin (so the pmf mean equals the sample
/// mean exactly).
pub fn empirical_pmf<R, F>(rng: &mut R, cfg: SamplePmfConfig, draw: F) -> Pmf
where
    R: Rng + ?Sized,
    F: FnMut(&mut R) -> f64,
{
    let mut impulses = vec![Impulse::new(0.0, 0.0); cfg.max_impulses];
    let len = empirical_pmf_into(rng, cfg, draw, &mut Vec::new(), &mut impulses);
    impulses.truncate(len);
    Pmf::from_invariant_impulses(impulses)
}

/// [`empirical_pmf`] over caller-owned buffers: writes the pmf's impulses
/// to the front of `out` and returns how many there are (at most
/// `cfg.max_impulses`, which `out` must hold), using `samples` as the draw
/// buffer. A caller building many pmfs into one arena allocates nothing
/// per pmf this way.
pub fn empirical_pmf_into<R, F>(
    rng: &mut R,
    cfg: SamplePmfConfig,
    mut draw: F,
    samples: &mut Vec<f64>,
    out: &mut [Impulse],
) -> usize
where
    R: Rng + ?Sized,
    F: FnMut(&mut R) -> f64,
{
    samples.clear();
    samples.extend((0..cfg.samples).map(|_| draw(rng)));
    samples.retain(|x| x.is_finite());
    assert!(!samples.is_empty(), "sampler produced no finite values");
    // Keys that compare equal under `total_cmp` have equal bits, so the
    // unstable sort's order of ties cannot show.
    samples.sort_unstable_by(f64::total_cmp);

    let n = samples.len();
    let k = cfg.max_impulses.min(n);
    let prob = 1.0 / n as f64;
    // Split the sorted samples into k nearly-equal-count bins.
    for (bin, imp) in out[..k].iter_mut().enumerate() {
        let start = bin * n / k;
        let end = ((bin + 1) * n / k).max(start + 1);
        let slice = &samples[start..end.min(n)];
        let mass = prob * slice.len() as f64;
        let centroid = slice.iter().sum::<f64>() / slice.len() as f64;
        *imp = Impulse::new(centroid, mass);
    }
    let len = sort_and_merge_in_place(&mut out[..k]);
    let pmf = &mut out[..len];
    // Renormalize defensively against floating-point drift.
    let total: f64 = pmf.iter().map(|i| i.prob).sum();
    for imp in pmf.iter_mut() {
        imp.prob /= total;
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Gamma;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn pmf_respects_impulse_cap() {
        let g = Gamma::from_mean_cv(750.0, 0.2);
        let p = empirical_pmf(&mut rng(), SamplePmfConfig::new(500, 16), |r| g.sample(r));
        assert!(p.len() <= 16);
    }

    #[test]
    fn pmf_mean_tracks_sample_mean() {
        let g = Gamma::from_mean_cv(750.0, 0.2);
        let p = empirical_pmf(&mut rng(), SamplePmfConfig::new(5_000, 24), |r| g.sample(r));
        assert!(
            (p.expectation() - 750.0).abs() < 15.0,
            "{}",
            p.expectation()
        );
    }

    #[test]
    fn pmf_std_dev_tracks_cv() {
        let g = Gamma::from_mean_cv(1000.0, 0.25);
        let p = empirical_pmf(&mut rng(), SamplePmfConfig::new(20_000, 24), |r| {
            g.sample(r)
        });
        let cv = p.std_dev() / p.expectation();
        assert!((cv - 0.25).abs() < 0.03, "cv {cv}");
    }

    #[test]
    fn single_sample_gives_singleton() {
        let p = empirical_pmf(&mut rng(), SamplePmfConfig::new(1, 1), |_| 5.0);
        assert_eq!(p.len(), 1);
        assert_eq!(p.expectation(), 5.0);
    }

    #[test]
    fn constant_sampler_collapses_to_one_impulse() {
        let p = empirical_pmf(&mut rng(), SamplePmfConfig::new(100, 10), |_| 3.0);
        assert_eq!(p.len(), 1);
        assert_eq!(p.expectation(), 3.0);
    }

    #[test]
    fn masses_are_nearly_equal() {
        let g = Gamma::from_mean_cv(100.0, 0.3);
        let p = empirical_pmf(&mut rng(), SamplePmfConfig::new(240, 12), |r| g.sample(r));
        for imp in p.impulses() {
            assert!((imp.prob - 1.0 / 12.0).abs() < 0.02, "prob {}", imp.prob);
        }
    }

    #[test]
    #[should_panic(expected = "more impulses than samples")]
    fn cap_cannot_exceed_samples() {
        let _ = SamplePmfConfig::new(4, 8);
    }

    #[test]
    fn into_writes_the_same_pmf_to_the_front_of_the_buffer() {
        let g = Gamma::from_mean_cv(80.0, 0.3);
        let alone = empirical_pmf(&mut rng(), SamplePmfConfig::default(), |r| g.sample(r));
        let mut out = [Impulse::new(1.0, 1.0); 30];
        let mut samples = vec![f64::NAN; 3];
        let len = empirical_pmf_into(
            &mut rng(),
            SamplePmfConfig::default(),
            |r| g.sample(r),
            &mut samples,
            &mut out,
        );
        assert!(Pmf::new(out[..len].to_vec()).unwrap().bit_eq(&alone));
        assert_eq!(out[29], Impulse::new(1.0, 1.0));
    }

    #[test]
    fn deterministic_for_same_rng_seed() {
        let g = Gamma::from_mean_cv(50.0, 0.2);
        let a = empirical_pmf(&mut rng(), SamplePmfConfig::default(), |r| g.sample(r));
        let b = empirical_pmf(&mut rng(), SamplePmfConfig::default(), |r| g.sample(r));
        assert_eq!(a, b);
    }
}
