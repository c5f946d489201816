//! Fig. 18 — processing times of local vs. migrated tasks (real threads).
//!
//! The paper measures the migration overhead by comparing a subtask's
//! execution time on its own core with its end-to-end time when migrated:
//! FFT 108 → 126 µs, decode +≈20 µs — a fixed cost dominated by pulling
//! shared state into the remote core's cache. We repeat the measurement
//! with the real PHY kernels through the cluster's own hand-off: the
//! owner publishes the stage on its slot arena and sends the subtask's
//! ticket to a host parked on its inbox, which runs the runtime's
//! executor, as in mutex mode.

use crate::common::{header, Opts};
use rtopex_phy::params::Bandwidth;
use rtopex_phy::tasks::TaskKind;
use rtopex_runtime::affinity::num_cpus;
use rtopex_runtime::measure_migration_overhead;

/// Runs the experiment.
pub fn run(opts: &Opts) {
    header("Fig. 18 — local vs. migrated task times", "Fig. 18 (§4.4)");
    let trials = if opts.quick { 8 } else { 40 };
    println!("machine CPUs: {}", num_cpus());
    println!(
        "{:>8} {:>16} {:>18} {:>12}",
        "task", "local p50 (µs)", "migrated p50 (µs)", "δ (µs)"
    );
    for (task, bw, mcs) in [
        (TaskKind::Fft, Bandwidth::Mhz10, 27u8),
        (TaskKind::Decode, Bandwidth::Mhz5, 16u8),
    ] {
        let mut m = measure_migration_overhead(bw, 2, mcs, task, trials);
        println!(
            "{:>8} {:>16.0} {:>18.0} {:>12.0}",
            task.label(),
            m.local_us.median(),
            m.migrated_us.median(),
            m.delta_us
        );
    }
    println!("paper: FFT 108 → 126 µs and decode +≈20 µs — a fixed per-subtask cost;");
    println!(
        "note: here δ includes publication (epoch bump, LLR snapshot), the inbox hand-off, \
         the host's wake-up, board entry and cache transfer."
    );
}
