//! # rtopex-core — the RT-OPEX scheduling framework
//!
//! The paper's contribution (§3), reproduced as a substrate-agnostic
//! library. RT-OPEX is one policy — a static partitioned base schedule,
//! a per-core free window `fck` that is predictable because that schedule
//! is static, and the R1 test `tp + δ ≤ fck` — and each of its three
//! decisions is said once here and called by both substrates, which keep
//! only their own clock conversion:
//!
//! | decision | function | simulator call site | runtime call site |
//! |---|---|---|---|
//! | a core's next own subframe | [`PartitionedSchedule::next_own_index`] | `sim::engine::Partitioned::next_release` | `runtime::cluster::Shared::next_release` |
//! | idle windows, in Alg. 1's order | [`migration::survey_idle_windows`] | `Partitioned::fill_idle_cores` | `run_stage` (mutex mode) |
//! | R1 | [`DeltaGuard::capacity`] / [`DeltaGuard::admit`] | via [`migration::plan_migration_into`] in `Partitioned::plan_parallel_stage` | `plan_migration_into` in `run_stage`; `admit` in `steal_from` and `Shared::worth_publishing` |
//!
//! The processing-thread state machine of Fig. 12 is not a module here:
//! it is `runtime::cluster::worker_loop`, and the simulator's stage
//! events.
//!
//! * [`time`] — integer-nanosecond time base with µs/ms conversions;
//! * [`budget`] — the end-to-end deadline arithmetic of Eq. (2)/(3):
//!   `T_rxproc ≤ T_max := 2 ms − RTT/2`;
//! * [`task`] — the execution profile of one subframe-processing task,
//!   split into the Fig. 5 stages (FFT / demod / decode subtasks);
//! * [`partitioned`] — §3.1.1: offline core assignment
//!   `core(i, j) = i·⌈T_max⌉ + (j mod ⌈T_max⌉)`;
//! * [`global`] — §3.1.2: shared-queue dispatch with FIFO/EDF priority;
//! * [`migration`] — §3.2, Algorithm 1: the idle-window survey and how
//!   many subtasks to migrate to each idle core, under requirements R1–R3;
//! * [`steal`] — lock-free work-stealing migration: a bounded Chase–Lev
//!   deque of subtask tickets plus the δ guard (R1) asked at plan, publish
//!   and steal time;
//! * [`slots`] — epoch-validated slot-arena publication: the board a
//!   core publishes a stage on and helpers complete/decline slots
//!   through (model-checked by `rtopex-check`);
//! * [`sync`] — the synchronization facade: `std::sync` in production,
//!   the model checker's instrumented shims under `--cfg rtopex_model`;
//! * [`metrics`] — deadline-miss, gap, and migration accounting
//!   (the raw material of Figs. 15–19).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod global;
pub mod metrics;
pub mod migration;
pub mod partitioned;
pub mod slots;
pub mod steal;
pub mod sync;
pub mod task;
pub mod time;

pub use budget::Budget;
pub use partitioned::PartitionedSchedule;
pub use steal::{steal_pair, DeltaGuard, Steal, Stealer, Worker};
pub use task::{StageProfile, SubframeTask, TaskProfile};
pub use time::Nanos;
