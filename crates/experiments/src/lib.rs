//! # rtopex-experiments — regenerate every table and figure
//!
//! One module per experiment of the paper's evaluation (§2 measurements
//! and §4 results). Each module exposes a `run(&Opts)` entry that prints
//! the same rows/series the paper reports, so `EXPERIMENTS.md` can record
//! paper-vs-measured side by side. The `rtopex-experiments` binary
//! dispatches on the first argument (`fig15`, `table1`, …).
//!
//! Experiments come in two speeds:
//!
//! * **model-driven** (Figs. 1, 3, 6, 7, 14–17, 19, Table 1) — run the
//!   discrete-event simulator / analytic models; full-scale in seconds;
//! * **real-thread** (Figs. 4, 18, and the PHY variants of Fig. 3/Table 1)
//!   — execute the actual Rust PHY on pinned threads. On a single-CPU
//!   machine the parallel variants degenerate to time-sharing; the tool
//!   reports the CPU count so results are interpretable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod common;
pub mod discussion;
pub mod fig01;
pub mod fig03;
pub mod fig04;
pub mod fig06;
pub mod fig07;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod table1;
pub mod table2;

pub use common::Opts;
