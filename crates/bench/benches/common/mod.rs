//! Timing helpers shared by the benches that write a hand-rolled median
//! report (`micro` → `results/BENCH_kernel.json`, `evaluator` →
//! `results/BENCH_evaluator.json`); the vendored criterion reports
//! mean/min/max only.

use std::time::Instant;

/// Timed batches per measurement.
pub const SAMPLES: usize = 30;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Median ns/op over [`SAMPLES`] batches of `iters` calls (one warm-up
/// batch first). In smoke mode runs `f` once and returns 0.
// Bench harness: timing is the point (clippy.toml / ecds-lint R2).
#[allow(clippy::disallowed_methods)]
pub fn measure(mut f: impl FnMut(), iters: u32, bench_mode: bool) -> f64 {
    if !bench_mode {
        f();
        return 0.0;
    }
    for _ in 0..iters {
        f();
    }
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(samples)
}
