//! `ecds-lint` — the workspace static-analysis pass that mechanically
//! enforces the determinism, epoch, and float invariants the results
//! depend on (DESIGN.md §9).
//!
//! Every correctness argument this reproduction ships rests on invariants
//! that used to live only in doc comments: the PR-1 prefix cache is sound
//! only if every [`CoreState`] mutator bumps the epoch; `results/` is
//! byte-stable only if no nondeterministic iteration order, wall clock, or
//! OS entropy reaches a result-affecting crate; comparison-driven branches
//! replay identically only if float ordering goes through `total_cmp`
//! rather than NaN-panicking `partial_cmp(..).unwrap()` chains. This crate
//! checks those properties on every CI run:
//!
//! - **R1 epoch-discipline** ([`rules`]): public `&mut self` methods on
//!   epoch-guarded types must bump `self.epoch` — since v2, on *every*
//!   exit path, proven by a per-function control-flow graph ([`mod@cfg`])
//!   over statement-parsed bodies.
//! - **R2 determinism**: `HashMap`/`HashSet`, `SystemTime`/`Instant`,
//!   `thread_rng`/`from_entropy`/`OsRng` are banned in result-affecting
//!   crates outside `#[cfg(test)]`.
//! - **R3 float-discipline**: `.partial_cmp(..).unwrap()` and float
//!   equality literals are flagged; `total_cmp` is the approved order.
//! - **R4 panic-discipline**: `unwrap`/`expect`/`panic!` in non-test
//!   library code must be audited and allowlisted with a rationale.
//! - **R5 determinism-taint**: a result-affecting function may not reach
//!   an R2-banned construct *transitively* through the workspace call
//!   graph ([`model`]) — laundering `thread_rng` through a helper crate
//!   is flagged with the full call chain.
//! - **R6 alloc-free**: functions annotated `// lint: alloc-free` must
//!   not reach allocating constructs (directly or via callees) outside
//!   audited sites — the hot-kernel allocation-freedom promise as a
//!   static certificate.
//!
//! Violations can be excused in `lint.toml` (see [`allowlist`]); an entry
//! that stops matching code is itself an error, and an entry matching
//! more than one diagnostic is an anchoring error, so the allowlist can
//! only shrink with the code it excuses and every rationale stays pinned
//! to its audited site. The parsing stack is the vendored
//! `proc-macro2`/`syn` subset (the same offline-vendoring pattern as
//! `rand`/`proptest`) extended with a statement-level body
//! parser (`syn::body`) feeding the CFGs.
//!
//! [`CoreState`]: https://docs.rs/ecds-sim

#![warn(missing_docs)]

pub mod allowlist;
pub mod cfg;
pub mod diag;
pub mod engine;
pub mod model;
pub mod report;
pub mod rules;
pub mod scan;
pub mod source;

pub use allowlist::{AllowEntry, Allowlist};
pub use diag::{Diagnostic, RuleId};
pub use engine::{find_root, run_on_sources, run_workspace, RunResult};
