//! Extensions from the paper's future-work section (Sec. VIII).
//!
//! Two of the paper's closing extensions are implemented against the same
//! substrates as the paper's own model:
//!
//! * **Task priorities** ([`priority`]) — "we intend to expand our model to
//!   consider tasks with varying priorities": a deterministic synthetic
//!   priority assignment, a priority-differentiated energy filter (high
//!   priority gets a larger fair share), and weighted miss metrics.
//! * **Batch-mode rescheduling** ([`batch`]) — the "reschedule" half of
//!   "a system with the ability to cancel and/or reschedule tasks", after
//!   the paper's \[SmA10\] lineage: tasks wait in a central bag and are
//!   committed only when a core frees up, so every mapping event re-decides
//!   over everything not yet started.
//!
//! The "cancel" half is the simulator's own
//! [`ecds_sim::SimConfig::cancel_overdue`] mode, which both disciplines
//! read.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod priority;

pub use batch::{
    run_batch, BatchDiscipline, BatchEdf, BatchMaxRho, BatchPolicy, BatchView, Dispatch,
};
pub use priority::{assign_priorities, PriorityClass, PriorityEnergyFilter, PriorityReport};
