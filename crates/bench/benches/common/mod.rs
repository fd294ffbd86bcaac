//! The benches' one timing harness. Each bench builds a [`Report`], times
//! every number exactly once through [`Report::measure`], and hands the
//! rows to [`Report::write`], which writes `results/<file>` in the shared
//! schema:
//!
//! ```text
//! {"units": "...", "rows": [{"group", "name", <params>, "median_ns"}]}
//! ```
//!
//! Without cargo's `--bench` flag (i.e. under `cargo test --benches`) the
//! report runs in smoke mode: every measured closure runs once so no path
//! can bit-rot, and no file is written.

use std::time::Instant;

/// Timed batches per measurement.
const SAMPLES: usize = 30;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Median ns/op over [`SAMPLES`] batches of `iters` calls, after one
/// untimed warm-up batch (which also primes any cache `f` keeps).
// Bench harness: timing is the point (clippy.toml / ecds-lint R2).
#[allow(clippy::disallowed_methods)]
fn time(mut f: impl FnMut(), iters: u32) -> f64 {
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

/// The rows one bench writes to `results/<file>`.
pub struct Report {
    file: &'static str,
    bench_mode: bool,
    rows: Vec<String>,
}

impl Report {
    pub fn new(file: &'static str) -> Self {
        Report {
            file,
            bench_mode: std::env::args().any(|a| a == "--bench"),
            rows: Vec::new(),
        }
    }

    /// Times `f` (see [`time`]; once, untimed, in smoke mode) and records
    /// one row: `group`, `name`, then each `(key, value)` of `fields`.
    pub fn measure(
        &mut self,
        group: &str,
        name: &str,
        fields: &[(&str, usize)],
        iters: u32,
        mut f: impl FnMut(),
    ) {
        let median_ns = if self.bench_mode {
            time(f, iters)
        } else {
            f();
            0.0
        };
        let mut row = format!("    {{\"group\": \"{group}\", \"name\": \"{name}\"");
        for (key, value) in fields {
            row.push_str(&format!(", \"{key}\": {value}"));
        }
        row.push_str(&format!(", \"median_ns\": {median_ns:.1}}}"));
        self.rows.push(row);
    }

    /// Writes the report (bench mode) or confirms the smoke run.
    pub fn write(self) {
        let rows = self.rows.len();
        if !self.bench_mode {
            println!("{}: ok (smoke, {rows} rows)", self.file);
            return;
        }
        let json = format!(
            "{{\n  \"units\": \"median ns per op, {SAMPLES} samples\",\n  \"rows\": [\n{}\n  ]\n}}\n",
            self.rows.join(",\n")
        );
        let path = format!("{}/../../results/{}", env!("CARGO_MANIFEST_DIR"), self.file);
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path} ({rows} rows):\n{json}");
    }
}
