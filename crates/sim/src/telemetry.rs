//! Trial telemetry: time series recorded during simulation.
//!
//! The engine samples system state at every arrival event (the moments the
//! mapper acts); the energy side is reconstructed exactly from the
//! transition logs after the run. Telemetry powers the `telemetry_trace`
//! example and diagnosis of burst behaviour (queue build-up during λ_fast,
//! drain during the lull).

use ecds_persist::{DecodeError, Decoder, Encoder, Persist};
use ecds_pmf::Time;

/// Structured per-trial instrumentation reported by a mapper (or any other
/// commitment discipline) after a trial.
///
/// This is the single seam through which mapper-side counters reach the
/// engine's [`Telemetry`] and, from there, experiment reports and the
/// `telemetry_trace` example. New instrumentation adds a field here (with a
/// `Default`-compatible zero value) instead of widening the
/// [`Mapper`](crate::Mapper) trait with another accessor method.
///
/// All counters are diagnostic only: they never affect scheduling
/// decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapperStats {
    /// `Some((hits, misses))` of the mapper's queue-prefix pmf cache for
    /// the trial, or `None` for mappers that do not cache (DESIGN.md §7).
    pub prefix_cache: Option<(u64, u64)>,
    /// Fused pmf-kernel invocations for the trial — the
    /// allocation-free-path coverage counter (DESIGN.md §7.1). Zero for
    /// mappers without a fused kernel.
    pub fused_kernel_calls: u64,
    /// `Some((classes, events))` — total candidate equivalence classes
    /// summed over all mapping events, and the number of mapping events —
    /// for mappers that deduplicate candidate evaluation (DESIGN.md §11),
    /// or `None` for mappers that evaluate every core independently.
    pub candidate_classes: Option<(u64, u64)>,
    /// `(core, P-state)` evaluations skipped because the core belonged to
    /// an already-evaluated equivalence class. Zero without dedup.
    pub dedup_skipped_evaluations: u64,
}

impl MapperStats {
    /// Queue-prefix cache hits (zero when the mapper does not cache).
    pub fn prefix_cache_hits(&self) -> u64 {
        self.prefix_cache.map_or(0, |(h, _)| h)
    }

    /// Queue-prefix cache misses (zero when the mapper does not cache).
    pub fn prefix_cache_misses(&self) -> u64 {
        self.prefix_cache.map_or(0, |(_, m)| m)
    }

    /// Total queue-prefix cache lookups (hits plus misses).
    pub fn prefix_cache_lookups(&self) -> u64 {
        self.prefix_cache_hits() + self.prefix_cache_misses()
    }

    /// Fraction of prefix-cache lookups that hit, or `None` when the
    /// mapper reported no lookups at all (e.g. it does not cache).
    pub fn prefix_cache_hit_rate(&self) -> Option<f64> {
        let total = self.prefix_cache_lookups();
        (total > 0).then(|| self.prefix_cache_hits() as f64 / total as f64)
    }

    /// Mean candidate equivalence classes per mapping event, or `None`
    /// when the mapper does not deduplicate or recorded no events.
    pub fn classes_per_event(&self) -> Option<f64> {
        self.candidate_classes
            .and_then(|(classes, events)| (events > 0).then(|| classes as f64 / events as f64))
    }
}

/// Windowed telemetry: the running reduction of streamed samples.
///
/// The bounded-retention serve path records every sample straight into
/// this accumulator ([`TelemetryFold::record`]) instead of growing the
/// per-trial [`Telemetry`] vectors; full retention still buffers and
/// [`TelemetryFold::absorb`]s at the end. Both routes perform the same
/// f64 operations in the same per-sample order, so the folded values are
/// bit-identical whichever way the samples travel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TelemetryFold {
    /// Samples folded so far.
    pub samples: u64,
    /// Sum of folded average queue depths.
    pub sum_queue_depth: f64,
    /// Peak folded average queue depth.
    pub peak_queue_depth: f64,
    /// Maximum folded busy-core count.
    pub max_busy: u64,
}

impl TelemetryFold {
    /// Folds one sample directly — the streaming serve path, bypassing
    /// the per-trial vectors entirely.
    pub fn record(&mut self, depth: f64, busy: usize) {
        self.samples += 1;
        self.sum_queue_depth += depth;
        self.peak_queue_depth = self.peak_queue_depth.max(depth);
        self.max_busy = self.max_busy.max(busy as u64);
    }

    /// Drains a telemetry buffer into the fold.
    pub fn absorb(&mut self, telemetry: &mut Telemetry) {
        for (_, depth) in telemetry.queue_depth.drain(..) {
            self.samples += 1;
            self.sum_queue_depth += depth;
            self.peak_queue_depth = self.peak_queue_depth.max(depth);
        }
        for (_, busy) in telemetry.busy_cores.drain(..) {
            self.max_busy = self.max_busy.max(busy as u64);
        }
    }

    /// Mean folded queue depth, or `None` before the first sample.
    pub fn mean_queue_depth(&self) -> Option<f64> {
        (self.samples > 0).then(|| self.sum_queue_depth / self.samples as f64)
    }
}

/// The four accumulators in field order.
impl Persist for TelemetryFold {
    const MIN_ENCODED_LEN: u64 = 32;

    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.samples);
        enc.put_f64(self.sum_queue_depth);
        enc.put_f64(self.peak_queue_depth);
        enc.put_u64(self.max_busy);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            samples: dec.u64()?,
            sum_queue_depth: dec.f64()?,
            peak_queue_depth: dec.f64()?,
            max_busy: dec.u64()?,
        })
    }
}

/// Time series captured during one trial.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// `(arrival time, instantaneous average queue depth)` — the quantity
    /// the energy filter's ζ_mul adapts on. In batch mode this is the
    /// pending-bag depth normalized by the core count.
    pub queue_depth: Vec<(Time, f64)>,
    /// `(arrival time, cores currently executing a task)`.
    pub busy_cores: Vec<(Time, usize)>,
    /// The exact piecewise-constant total cluster wall power: `(time,
    /// watts)` holding from each entry to the next (reconstructed from the
    /// P-state transition logs after the run; integrating it over the
    /// makespan reproduces the trial's total energy exactly).
    pub power: Vec<(Time, f64)>,
    /// Structured mapper-side counters for the trial (prefix-cache
    /// hits/misses, fused-kernel coverage, …), copied from
    /// [`Mapper::stats`](crate::Mapper::stats) by the engine after the run.
    pub mapper: MapperStats,
}

impl Telemetry {
    /// An empty recording.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one arrival-time sample (called by simulation engines).
    pub fn sample(&mut self, time: Time, avg_depth: f64, busy: usize) {
        self.queue_depth.push((time, avg_depth));
        self.busy_cores.push((time, busy));
    }

    /// Fraction of prefix-cache lookups that hit, or `None` when the mapper
    /// reported no lookups at all (e.g. it does not cache). Convenience
    /// delegate to [`MapperStats::prefix_cache_hit_rate`].
    pub fn prefix_cache_hit_rate(&self) -> Option<f64> {
        self.mapper.prefix_cache_hit_rate()
    }

    /// Peak average queue depth over the trial.
    pub fn peak_queue_depth(&self) -> f64 {
        self.queue_depth.iter().map(|&(_, d)| d).fold(0.0, f64::max)
    }

    /// Resamples a series onto `buckets` equal time intervals (mean of the
    /// samples in each bucket, carrying the previous value through empty
    /// buckets) — the shape sparkline rendering wants.
    pub fn resample(series: &[(Time, f64)], buckets: usize) -> Vec<f64> {
        assert!(buckets >= 1, "need at least one bucket");
        if series.is_empty() {
            return vec![0.0; buckets];
        }
        let t0 = series[0].0;
        let t1 = series[series.len() - 1].0;
        let span = (t1 - t0).max(f64::MIN_POSITIVE);
        let mut sums = vec![0.0f64; buckets];
        let mut counts = vec![0usize; buckets];
        for &(t, v) in series {
            let idx = (((t - t0) / span) * buckets as f64).min(buckets as f64 - 1.0) as usize;
            sums[idx] += v;
            counts[idx] += 1;
        }
        let mut out = Vec::with_capacity(buckets);
        let mut last = series[0].1;
        for (sum, count) in sums.into_iter().zip(counts) {
            if count > 0 {
                last = sum / count as f64;
            }
            out.push(last);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_accumulates_in_order() {
        let mut t = Telemetry::new();
        t.sample(1.0, 0.5, 2);
        t.sample(2.0, 1.5, 3);
        assert_eq!(t.queue_depth, vec![(1.0, 0.5), (2.0, 1.5)]);
        assert_eq!(t.busy_cores, vec![(1.0, 2), (2.0, 3)]);
        assert_eq!(t.peak_queue_depth(), 1.5);
    }

    #[test]
    fn peak_of_empty_is_zero() {
        assert_eq!(Telemetry::new().peak_queue_depth(), 0.0);
    }

    #[test]
    fn hit_rate_is_none_without_lookups() {
        assert_eq!(Telemetry::new().prefix_cache_hit_rate(), None);
        // A caching mapper that performed no lookups is also "no rate".
        let stats = MapperStats {
            prefix_cache: Some((0, 0)),
            ..MapperStats::default()
        };
        assert_eq!(stats.prefix_cache_hit_rate(), None);
    }

    #[test]
    fn hit_rate_divides_hits_by_total() {
        let mut t = Telemetry::new();
        t.mapper.prefix_cache = Some((3, 1));
        assert_eq!(t.prefix_cache_hit_rate(), Some(0.75));
        assert_eq!(t.mapper.prefix_cache_hits(), 3);
        assert_eq!(t.mapper.prefix_cache_misses(), 1);
        assert_eq!(t.mapper.prefix_cache_lookups(), 4);
    }

    #[test]
    fn default_stats_report_zero_counters() {
        let stats = MapperStats::default();
        assert_eq!(stats.prefix_cache, None);
        assert_eq!(stats.prefix_cache_hits(), 0);
        assert_eq!(stats.prefix_cache_misses(), 0);
        assert_eq!(stats.prefix_cache_hit_rate(), None);
        assert_eq!(stats.fused_kernel_calls, 0);
        assert_eq!(stats.candidate_classes, None);
        assert_eq!(stats.dedup_skipped_evaluations, 0);
        assert_eq!(stats.classes_per_event(), None);
    }

    #[test]
    fn classes_per_event_divides_classes_by_events() {
        let stats = MapperStats {
            candidate_classes: Some((30, 10)),
            ..MapperStats::default()
        };
        assert_eq!(stats.classes_per_event(), Some(3.0));
        // Dedup enabled but no events yet: still no rate.
        let idle = MapperStats {
            candidate_classes: Some((0, 0)),
            ..MapperStats::default()
        };
        assert_eq!(idle.classes_per_event(), None);
    }

    #[test]
    fn resample_means_within_buckets() {
        let series = vec![(0.0, 1.0), (1.0, 3.0), (9.0, 10.0), (10.0, 20.0)];
        let out = Telemetry::resample(&series, 2);
        assert_eq!(out.len(), 2);
        assert!((out[0] - 2.0).abs() < 1e-12); // mean of 1 and 3
        assert!((out[1] - 15.0).abs() < 1e-12); // mean of 10 and 20
    }

    #[test]
    fn resample_carries_last_value_through_gaps() {
        let series = vec![(0.0, 4.0), (100.0, 8.0)];
        let out = Telemetry::resample(&series, 4);
        assert_eq!(out, vec![4.0, 4.0, 4.0, 8.0]);
    }

    #[test]
    fn resample_empty_series_is_zeros() {
        assert_eq!(Telemetry::resample(&[], 3), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn resample_zero_buckets_rejected() {
        let _ = Telemetry::resample(&[(0.0, 1.0)], 0);
    }

    #[test]
    fn single_sample_fills_all_buckets() {
        let out = Telemetry::resample(&[(5.0, 7.0)], 3);
        assert_eq!(out, vec![7.0, 7.0, 7.0]);
    }

    #[test]
    fn streamed_record_matches_buffered_absorb_bitwise() {
        let samples = [(0.5, 2usize), (1.75, 3), (0.25, 1), (3.5, 3)];
        let mut streamed = TelemetryFold::default();
        let mut telemetry = Telemetry::new();
        for (i, &(depth, busy)) in samples.iter().enumerate() {
            streamed.record(depth, busy);
            telemetry.sample(i as f64, depth, busy);
        }
        let mut buffered = TelemetryFold::default();
        buffered.absorb(&mut telemetry);
        assert_eq!(streamed.samples, buffered.samples);
        assert_eq!(
            streamed.sum_queue_depth.to_bits(),
            buffered.sum_queue_depth.to_bits()
        );
        assert_eq!(
            streamed.peak_queue_depth.to_bits(),
            buffered.peak_queue_depth.to_bits()
        );
        assert_eq!(streamed.max_busy, buffered.max_busy);
        assert!(telemetry.queue_depth.is_empty() && telemetry.busy_cores.is_empty());
        assert_eq!(streamed.mean_queue_depth(), buffered.mean_queue_depth());
    }
}
