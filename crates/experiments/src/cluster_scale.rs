//! Cluster consolidation — cells sustained per host vs. scheduler
//! (the real-thread analogue of Figs. 17/18's capacity argument).
//!
//! The paper's consolidation pitch: RT-OPEX lets one host carry more
//! RAPs at the same deadline-miss budget because idle cycles are shared
//! across cells instead of stranded per partition. This experiment runs
//! the actual [`CranCluster`] — real PHY, real threads, the workload
//! paced over an in-process fronthaul with the shared port's per-cell
//! ingest stagger — at N = 1, 2, 3, … cells and reports each
//! scheduler's deadline-miss rate, then the largest N each sustains at
//! the < 0.5 % miss threshold. The comparison of interest is
//! RT-OPEX(mutex) vs RT-OPEX(steal): the same tickets, executor and
//! recovery, under two policies — Algorithm 1 planned at the owner and
//! sent to the planned hosts, or tickets stolen from a lock-free deque
//! with steal-time δ admission.
//!
//! ## Measuring under a noisy host
//!
//! On a shared VM the hypervisor steals the CPU in multi-millisecond
//! bursts (we have measured 4 ms gaps inside a hot spin loop on a
//! single-vCPU box). At a true 1 ms cadence one such burst forces
//! several consecutive misses no scheduler could avoid. Interference is
//! strictly one-sided — it adds misses, never removes them — so each
//! sweep point runs `trials` times and keeps the *best* (minimum-miss)
//! run as the capacity estimate, the same reasoning as taking the min
//! of repeated latency benchmarks.

use crate::common::{fmt_rate, header, Opts};
use rtopex_phy::params::Bandwidth;
use rtopex_runtime::cluster::{ClusterConfig, CranCluster, SchedulerMode};
use std::time::Duration;

/// The sustained-capacity miss threshold (fraction of subframes).
pub const MISS_THRESHOLD: f64 = 0.005;

/// One (mode, cell-count) measurement.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Cells driven.
    pub cells: usize,
    /// Aggregate deadline-miss rate.
    pub miss: f64,
    /// Completed subframes per wall-clock second.
    pub sf_per_sec: f64,
    /// Subtasks executed by thieves (steal mode only).
    pub steals: u64,
    /// Subtasks absorbed from remote execution (any migrating mode).
    pub migrated: u64,
}

/// The cluster configuration for a sweep point: 5 MHz cells on a 6 ms
/// dilated cadence (the node module's time-dilation convention — the
/// subframe period stretches with the slower hardware so the queueing
/// structure of the real 1 ms system is preserved), behind a one-way
/// fronthaul of ~1.2 periods (Fig. 6's metro range). Eq. 3 then gives
/// each subframe a `2·6 − 7 = 5 ms` processing budget — wide enough to
/// ride out single-millisecond hypervisor stalls, tight enough that a
/// scheduler whose p99 processing latency inflates past ~5 ms misses
/// structurally, in every trial, which is where a policy that strands
/// idle cycles lands first as cells are added.
pub fn cluster_cfg(opts: &Opts, mode: SchedulerMode, cells: usize) -> ClusterConfig {
    ClusterConfig {
        bandwidth: Bandwidth::Mhz5,
        num_antennas: 2,
        num_cells: cells,
        subframes: if opts.quick { 220 } else { 300 },
        period: Duration::from_micros(6_000),
        rtt_half: Duration::from_micros(7_000),
        mode,
        snr_db: 30.0,
        mcs_pool: vec![5, 10, 16, 22, 27],
        delta_us: 60.0,
        seed: opts.seed,
    }
}

/// One sweep point: best (minimum-miss) of `trials` runs — see the
/// module docs on one-sided host interference.
pub fn best_of(opts: &Opts, mode: SchedulerMode, cells: usize, trials: usize) -> ScalePoint {
    (0..trials.max(1))
        .map(|_| {
            let r = CranCluster::new(cluster_cfg(opts, mode, cells))
                .run()
                .cluster;
            ScalePoint {
                cells,
                miss: r.miss_rate(),
                sf_per_sec: r.subframes_per_sec(),
                steals: r.steals,
                migrated: r.migration.fft_migrated + r.migration.decode_migrated,
            }
        })
        .min_by(|a, b| {
            a.miss
                .partial_cmp(&b.miss)
                .unwrap()
                .then(b.sf_per_sec.partial_cmp(&a.sf_per_sec).unwrap())
        })
        .expect("at least one trial")
}

/// Runs one mode at 1..=`max_cells` cells.
pub fn sweep_mode(opts: &Opts, mode: SchedulerMode, max_cells: usize) -> Vec<ScalePoint> {
    let trials = if opts.quick { 2 } else { 5 };
    (1..=max_cells)
        .map(|n| best_of(opts, mode, n, trials))
        .collect()
}

/// Largest leading cell count whose miss rate stays under the threshold
/// (capacity is contiguous: once a mode collapses it does not recover).
pub fn cells_sustained(points: &[ScalePoint]) -> usize {
    points
        .iter()
        .take_while(|p| p.miss < MISS_THRESHOLD)
        .count()
}

/// Runs the experiment.
pub fn run(opts: &Opts) {
    header(
        "Cluster — cells sustained per host vs. scheduler",
        "Figs. 17/18 consolidation (§4.3–4.4), real threads",
    );
    let max_cells = if opts.quick { 4 } else { 6 };
    println!(
        "5 MHz / 2 antennas / 6 ms dilated period / 5 ms Eq. 3 budget, miss threshold {:.2} %",
        MISS_THRESHOLD * 100.0
    );
    println!(
        "{:>14} {}",
        "mode",
        (1..=max_cells)
            .map(|n| format!("{n:>9}"))
            .collect::<String>()
    );
    let mut summary = Vec::new();
    for mode in SchedulerMode::ALL {
        let points = sweep_mode(opts, mode, max_cells);
        println!(
            "{:>14} {}",
            mode.name(),
            points
                .iter()
                .map(|p| format!("{:>9}", fmt_rate(p.miss)))
                .collect::<String>()
        );
        summary.push((mode, cells_sustained(&points), points));
    }
    for (mode, sustained, points) in &summary {
        let tail = points
            .iter()
            .find(|p| p.cells == *sustained)
            .map(|p| format!(", {:.0} sf/s, {} stolen", p.sf_per_sec, p.steals))
            .unwrap_or_default();
        println!("{:>14}: sustains {sustained} cell(s){tail}", mode.name());
    }
    println!("paper: RT-OPEX carries ~15 % more load per host at the same miss budget;");
    println!("here steal-time admission should sustain ≥ Algorithm 1 planned at the owner.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_count_is_leading_run() {
        let mk = |cells, miss| ScalePoint {
            cells,
            miss,
            sf_per_sec: 0.0,
            steals: 0,
            migrated: 0,
        };
        let pts = vec![mk(1, 0.0), mk(2, 0.001), mk(3, 0.3), mk(4, 0.0)];
        assert_eq!(cells_sustained(&pts), 2, "post-collapse recovery ignored");
    }
}
