//! The crate's wall-clock tests: their assertions read real elapsed time,
//! so they must not share the CPU with anything.
//!
//! Cargo runs one test binary at a time, so keeping them out of the unit
//! tests keeps the simulator tests off the two vCPUs a one-cell cluster
//! pins; inside this binary they hold one lock. Beside the real-PHY fit
//! and the simulator sweeps the cluster test missed up to 25 % of its
//! deadlines. Its runs go through `CranCluster::run`, an in-process
//! fronthaul into the shipped `run_fed` path, so deadlines count from
//! each subframe's arrival; a worker that wakes late for a delivered
//! subframe can still leave too little slack for the decode on a noisy
//! 2-vCPU guest, and the subframe is dropped. Host interference only
//! ever adds misses, so the cluster test judges the best of three runs.

use rtopex_experiments::table1::real_phy_fit;
use rtopex_experiments::Opts;
use rtopex_phy::params::Bandwidth;
use rtopex_runtime::cluster::{ClusterConfig, CranCluster, SchedulerMode};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Serializes the tests in this binary. Poisoning is ignored — the lock
/// guards no data.
fn wall_clock_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn single_cell_points_are_sane() {
    const SUBFRAMES: usize = 120;
    let _guard = wall_clock_guard();
    for mode in [SchedulerMode::Partitioned, SchedulerMode::RtOpexSteal] {
        // One 5 MHz cell on a 6 ms dilated period behind a 7 ms one-way
        // fronthaul: Eq. 3 leaves a 5 ms budget per subframe.
        let cfg = ClusterConfig {
            bandwidth: Bandwidth::Mhz5,
            num_antennas: 2,
            num_cells: 1,
            subframes: SUBFRAMES, // keep the test brisk
            period: Duration::from_micros(6_000),
            rtt_half: Duration::from_micros(7_000),
            mode,
            snr_db: 30.0,
            mcs_pool: vec![5, 10, 16, 22, 27],
            seed: Opts::default().seed,
        };
        let best = (0..3)
            .map(|_| CranCluster::new(cfg.clone()).run().cluster.miss_rate())
            .fold(f64::INFINITY, f64::min);
        // One 5 MHz cell on the vectorized PHY is comfortably sustainable
        // for every scheduler; allow a single miss in the best trial for
        // hypervisor steal-time the runtime cannot control (see the
        // module docs).
        assert!(
            best <= 1.0 / SUBFRAMES as f64 + 1e-9,
            "{} misses {best} at a single cell",
            mode.name(),
        );
    }
}

#[test]
fn real_phy_fit_is_linear() {
    // Wall-clock measurements on a shared 2-vCPU guest are noisy; retry
    // once before judging, and keep the bar at "the linear structure
    // explains most of the variance".
    let _guard = wall_clock_guard();
    let mut best = None;
    for seed in [Opts::default().seed, 0xFEED] {
        let fit = real_phy_fit(&Opts { quick: true, seed });
        assert!(fit.model.w3 > 0.0, "w3 {}", fit.model.w3);
        if fit.r2 > 0.5 {
            best = Some(fit);
            break;
        }
        best = Some(fit);
    }
    let fit = best.expect("at least one fit");
    assert!(fit.r2 > 0.5, "r² {} on both attempts", fit.r2);
}
