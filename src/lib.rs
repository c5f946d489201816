//! # rtopex — reproduction of RT-OPEX (CoNEXT 2016)
//!
//! A from-scratch Rust implementation of *RT-OPEX: Flexible Scheduling for
//! Cloud-RAN Processing* (Garikipati, Fawaz, Shin), including every
//! substrate the paper depends on:
//!
//! * [`phy`] — a real LTE-style uplink PHY (turbo codec, FFT, equalizer…);
//! * [`model`] — the Eq. (1) processing-time model, platform jitter,
//!   iteration statistics, OLS fitting;
//! * [`transport`] — fronthaul/cloud latency models, the IQ wire format,
//!   the fronthaul trait pair and its receive ring;
//! * [`workload`] — synthetic tower load traces and scenario presets;
//! * [`core`] — the contribution: deadline budgets, partitioned/global
//!   schedulers, and RT-OPEX's migration Algorithm 1;
//! * [`sim`] — a discrete-event simulator of the compute node;
//! * [`runtime`] — a real pinned-thread node running the real PHY.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results. The
//! `rtopex-experiments` binary regenerates every table and figure.
//!
//! ```
//! use rtopex::sim::{run, SchedulerKind, SimConfig};
//! use rtopex::workload::Scenario;
//!
//! let mut cfg = SimConfig::from_scenario(&Scenario::smoke_test(), 500);
//! cfg.scheduler = SchedulerKind::RtOpex { delta_us: 20 };
//! let report = run(&cfg);
//! assert!(report.miss_rate() < 0.05);
//! ```

pub use rtopex_core as core;
pub use rtopex_model as model;
pub use rtopex_phy as phy;
pub use rtopex_runtime as runtime;
pub use rtopex_sim as sim;
pub use rtopex_transport as transport;
pub use rtopex_workload as workload;
