//! Result statistics and presentation for the experiment harness.
//!
//! The paper reports every experiment as a box-and-whiskers plot of missed
//! deadlines over 50 trials (Figures 2–6) plus headline medians and
//! percentage improvements in the text. This crate computes those summaries
//! ([`BoxStats`]: quartiles, Tukey whiskers, outliers) and renders them as
//! ASCII box plots, markdown tables, and CSV — so the bench harness can
//! regenerate each figure as text.
//!
//! # Example
//!
//! ```
//! use ecds_stats::BoxStats;
//!
//! let samples = [1.0, 2.0, 3.0, 4.0, 100.0];
//! let stats = BoxStats::from_samples(&samples).unwrap();
//! assert_eq!(stats.median, 3.0);
//! assert_eq!(stats.outliers_hi, 1); // 100.0 is beyond the upper whisker
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod boxplot;
pub mod compare;
pub mod csv;
pub mod mannwhitney;
pub mod sparkline;
pub mod summary;
pub mod table;

pub use boxplot::render_boxplots;
pub use compare::improvement_pct;
pub use csv::CsvWriter;
pub use mannwhitney::{mann_whitney_u, MannWhitney};
pub use sparkline::{sparkline, sparkline_row};
pub use summary::BoxStats;
pub use table::MarkdownTable;
