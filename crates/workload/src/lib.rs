//! Workload substrate (paper Sec. III-B and VI).
//!
//! The workload is a dynamically-arriving window of independent tasks. Each
//! task is an instance of one of a fixed set of well-known *task types*
//! (compute-intensive, memory-intensive, ...); its execution time on a given
//! core and P-state is a random variable described by a pmf. This crate
//! provides:
//!
//! * the CVB (coefficient-of-variation-based) heterogeneity generator of
//!   \[AlS00\] producing the matrix of mean execution times per
//!   (task type, node) — `μ_task = 750`, `V_task = V_mach = 0.25` in the
//!   paper,
//! * the execution-time pmf table per (task type, node, P-state): one
//!   base-state pmf per (type, node template), the deeper P-states derived
//!   on read,
//! * the bursty Poisson arrival process (`λ_fast = 1/8` for the first and
//!   last 200 tasks, `λ_slow = 1/48` for the 600 between),
//! * deadline assignment `δ(z) = arrival + avg-exec-of-type + t_avg`,
//! * per-trial trace generation with pre-drawn actual-time quantiles,
//! * [`run_parallel`], the workspace's one thread-spawning map, which the
//!   table build and the experiment harness share.
//!
//! # Example
//!
//! ```
//! use ecds_cluster::{generate_cluster, ClusterGenConfig};
//! use ecds_pmf::SeedDerive;
//! use ecds_workload::{ExecTable, WorkloadConfig, WorkloadTrace};
//!
//! let seeds = SeedDerive::new(42);
//! let cluster = generate_cluster(&ClusterGenConfig::small_for_tests(), &seeds);
//! let cfg = WorkloadConfig::small_for_tests();
//! let table = ExecTable::generate(&cfg, &cluster, &seeds);
//! let trace = WorkloadTrace::generate(&cfg, &table, &seeds, 0);
//! assert_eq!(trace.tasks().len(), cfg.window);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrivals;
pub mod config;
pub mod etc;
pub mod exec_table;
pub mod parallel;
pub mod source;
pub mod task;
pub mod trace;

pub use arrivals::{ArrivalPhase, BurstPattern, PAPER_REFERENCE_CORES};
pub use config::WorkloadConfig;
pub use etc::EtcMatrix;
pub use exec_table::ExecTable;
pub use parallel::{default_threads, run_parallel};
pub use source::{ArrivalSource, BurstyArrivalSource, TraceArrivalSource};
pub use task::{Task, TaskId, TaskTypeId};
pub use trace::WorkloadTrace;
