//! # rtopex-runtime — the real pinned-thread C-RAN runtime
//!
//! Where `rtopex-sim` answers "what happens over millions of subframes",
//! this crate answers "does it actually work on real threads with the real
//! PHY". It reproduces the implementation layer of §4.1:
//!
//! * processing threads with a 1:1 kernel mapping, each **pinned to a
//!   dedicated core** (`sched_setaffinity`), with a graceful no-op
//!   fallback when pinning is not permitted ([`affinity`]);
//! * transport → processing signalling through a one-way condvar
//!   ("processing threads wait for the transport threads, not the other
//!   way around"): the delivery thread stages releases on per-core
//!   inboxes and never waits for a worker;
//! * **real subtask migration**: a parallelizable stage (FFT, turbo
//!   decode) of the actual uplink job (`rtopex_phy::uplink::SlabJob`) is
//!   published into the owner's preallocated slot arena and handed out
//!   as `(epoch, index)` tickets one of two ways — pushed to a lock-free
//!   deque that idle cores steal from, admitted by Algorithm 1's δ check
//!   at steal time, or sent to the hosts Algorithm 1 planned at the
//!   owner, through their inboxes. Either way the helper runs the same
//!   executor, completion is signalled with the arena's per-subtask
//!   *result-ready* flags, and stragglers are recomputed locally (the
//!   Fig. 12 recovery path);
//! * a shared CPU-state table (per-core idle flags) the workers update
//!   and poll.
//!
//! [`cluster`] is the runtime: one driver runs N cells on 2N pinned
//! workers under any [`SchedulerMode`], with deadline checks and ACK/NACK
//! accounting, and decodes what a fronthaul receiver delivers
//! ([`CranCluster::run_fed`]). [`CranCluster::run`] is the same driver
//! fed over an in-process fronthaul by a sender thread that paces a
//! deterministic tower-trace workload ([`send_paced`]) at a configurable
//! subframe period. [`CranCluster::check_eq3`] checks the paper's Eq. 3
//! deadline against the same per-MCS calibration the runs schedule with.
//!
//! [`measure`] provides the micro-measurement harnesses behind Fig. 4
//! (task times on 1 vs 2 cores) and Fig. 18 (local vs migrated execution,
//! i.e. the real migration overhead δ on this machine); they time the
//! cluster's own publication, ticket hand-off and executor.

#![warn(missing_docs)]
// Every unsafe operation (the libc affinity calls) must sit in an explicit
// `unsafe {}` block with its own `// SAFETY:` comment (enforced by
// `cargo xtask lint`) — an `unsafe fn` signature alone licenses nothing.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod affinity;
pub mod cluster;
pub mod measure;

pub use cluster::{
    send_paced, ClusterConfig, ClusterReport, CranCluster, Eq3Check, FedReport, SchedulerMode,
    SendPlan,
};
pub use measure::{
    measure_migration_overhead, measure_stage_parallelism, measure_steal_overhead,
    MigrationMeasurement, StageMeasurement,
};
