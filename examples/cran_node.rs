//! A live multi-cell C-RAN node on real threads: one [`CranCluster`]
//! takes N cells' subframes over an in-process fronthaul paced at the
//! transport cadence, runs pinned per-cell workers, and migrates real
//! PHY subtasks — stolen through the lock-free deque path or sent to
//! Algorithm 1's planned hosts in mutex mode, side by side.
//!
//! The demo runs narrowband 1.4 MHz cells at LTE's *true 1 ms* cadence:
//! a vectorized subframe decode takes ~0.3 ms here, so the real-time
//! deadline is genuinely attainable on commodity hardware, exactly the
//! regime the paper's testbed operates in. Expect a few misses on a busy
//! or virtualized host — the hypervisor can stall a core for longer than
//! the whole budget — so compare modes over several runs, never one.
//!
//! Run with: `cargo run --release --example cran_node`

use rtopex::phy::params::Bandwidth;
use rtopex::runtime::affinity::num_cpus;
use rtopex::runtime::cluster::{ClusterConfig, CranCluster, SchedulerMode};
use std::time::Duration;

fn main() {
    let cells = 2usize;
    println!(
        "machine: {} CPU(s) — {}",
        num_cpus(),
        if num_cpus() > 2 * cells {
            "full parallel operation"
        } else {
            "workers will time-share; the mechanics still run end to end"
        }
    );
    for mode in [
        SchedulerMode::Partitioned,
        SchedulerMode::RtOpexMutex,
        SchedulerMode::RtOpexSteal,
    ] {
        let cfg = ClusterConfig {
            bandwidth: Bandwidth::Mhz1_4,
            num_antennas: 2,
            num_cells: cells,
            subframes: 500,
            // LTE's real subframe cadence, with a one-period fronthaul
            // half-RTT: Eq. 3 leaves exactly one period of processing
            // budget per subframe.
            period: Duration::from_millis(1),
            rtt_half: Duration::from_millis(1),
            mode,
            snr_db: 30.0,
            mcs_pool: vec![10, 16, 27],
            seed: 0xC0DE,
        };
        println!(
            "\n=== {}: {} cell(s) × {} subframes @ 1.4 MHz, period {:?}, budget {:?} ===",
            mode.name(),
            cfg.num_cells,
            cfg.subframes,
            cfg.period,
            cfg.budget()
        );
        let report = CranCluster::new(cfg).run().cluster;
        let mut proc = report.proc_us.clone();
        println!(
            "pinned: {} | deadline misses: {}/{} ({:.2}%)",
            report.pinned,
            report.deadline.overall().missed,
            report.deadline.total_subframes(),
            report.miss_rate() * 100.0
        );
        println!(
            "processing time p50/p95: {:.0}/{:.0} µs | {:.0} sf/s | dropped {} | CRC failures {}",
            proc.quantile(0.5),
            proc.quantile(0.95),
            report.subframes_per_sec(),
            report.dropped,
            report.crc_failures
        );
        if mode.migrates() {
            println!(
                "migrations: {} fft + {} decode subtasks, {} stolen tickets ({} declined by δ)",
                report.migration.fft_migrated,
                report.migration.decode_migrated,
                report.steals,
                report.declined_steals
            );
        }
    }
}
