//! Shard-parallel fleet simulation: many simulated hosts, one merged
//! report.
//!
//! Outside tests, the fleet's one caller is the repo benchmark
//! (`benchmark/src/sim.rs`), which reports `sim.fleet_t2_sf_per_s` and
//! checks that a 4-host fleet merges identically on 1 and on 2 threads.
//! No paper figure needs more than one host, so this module goes with
//! that metric when the benchmark next changes.
//!
//! Hosts are *independent* — each runs its own engine, event wheel, RNG
//! streams, and metrics — so the fleet is embarrassingly parallel. This
//! module shards the host list across worker threads and merges the
//! per-host [`SimReport`]s into one fleet report.
//!
//! **Determinism.** The merged report is bit-identical for *any*
//! shard/thread count because
//!
//! 1. host `i`'s configuration (and therefore its entire event history)
//!    depends only on the base config and `i` — never on which shard or
//!    thread ran it, or in what order;
//! 2. every host's report is written into slot `i` of a result vector,
//!    and the merge folds slots in ascending host order after all
//!    workers join. [`SimReport::merge`]'s counter/histogram components
//!    are associative and commutative anyway; the ascending fold also
//!    fixes the concatenation order of the sample vectors.
//!
//! Host RNG streams are split from the base seed with a multiplicative
//! mix (the 64-bit golden ratio), so host 0 reproduces the single-node
//! simulation exactly and hosts are statistically independent.

use crate::config::SimConfig;
use crate::report::SimReport;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Seed mix distinguishing the hosts' RNG streams: the 64-bit golden
/// ratio, multiplied by the host index. Host 0 keeps the base seed, so a
/// 1-host fleet is bit-identical to [`crate::run`] on the base config.
const HOST_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fleet of identical hosts running the base configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Per-host simulation configuration (host 0 runs it verbatim).
    pub base: SimConfig,
    /// Number of simulated hosts.
    pub hosts: usize,
    /// Number of worker threads to shard the hosts across. Clamped to
    /// `[1, hosts]`. Purely a throughput knob: the merged report is
    /// identical for every value.
    pub threads: usize,
}

/// The merged outcome of a fleet run.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// All hosts' metrics merged in ascending host order.
    pub merged: SimReport,
    /// Number of hosts simulated.
    pub hosts: usize,
}

/// The configuration host `i` runs: the base config with a split seed
/// and the trace list rotated by `i`, so a heterogeneous cell mix lands
/// differently on every host (no fleet-wide phase alignment).
fn host_config(base: &SimConfig, host: usize) -> SimConfig {
    let mut cfg = base.clone();
    cfg.seed = base.seed ^ (host as u64).wrapping_mul(HOST_SEED_MIX);
    if host > 0 && base.traces.len() > 1 {
        let k = host % base.traces.len();
        cfg.traces.rotate_left(k);
    }
    cfg
}

/// Runs the fleet, sharding hosts across `cfg.threads` scoped worker
/// threads, and merges the per-host reports. Work is claimed from a
/// shared atomic counter so a straggler host cannot idle the other
/// workers.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    assert!(cfg.hosts > 0, "a fleet needs at least one host");
    let threads = cfg.threads.clamp(1, cfg.hosts);
    let slots: Mutex<Vec<Option<SimReport>>> = Mutex::new(vec![None; cfg.hosts]);
    // ORDERING: Relaxed — the counter only hands out distinct host
    // indices; the results themselves synchronize through the mutex and
    // the scope join.
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // ORDERING: Relaxed — see above; fetch_add uniqueness is
                // all the claim needs.
                let host = next.fetch_add(1, Ordering::Relaxed);
                if host >= cfg.hosts {
                    return;
                }
                let host_cfg = host_config(&cfg.base, host);
                let report = crate::run(&host_cfg);
                slots.lock().expect("fleet worker panicked")[host] = Some(report);
            });
        }
    });

    let slots = slots.into_inner().expect("fleet worker panicked");
    let mut iter = slots.into_iter().map(|r| r.expect("every host simulated"));
    let mut merged = iter.next().expect("at least one host");
    for report in iter {
        merged.merge(&report);
    }
    FleetReport {
        merged,
        hosts: cfg.hosts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtopex_workload::Scenario;

    fn base() -> SimConfig {
        let mut c = SimConfig::from_scenario(&Scenario::smoke_test(), 500);
        c.subframes = 500;
        c
    }

    #[test]
    fn one_host_fleet_matches_single_run() {
        let b = base();
        let fleet = run_fleet(&FleetConfig {
            base: b.clone(),
            hosts: 1,
            threads: 1,
        });
        let single = crate::run(&b);
        assert_eq!(fleet.merged.deadline.per_bs(), single.deadline.per_bs());
        assert_eq!(fleet.merged.proc_hist, single.proc_hist);
    }

    #[test]
    fn thread_count_does_not_change_the_merge() {
        let b = base();
        let r1 = run_fleet(&FleetConfig {
            base: b.clone(),
            hosts: 5,
            threads: 1,
        });
        let r4 = run_fleet(&FleetConfig {
            base: b.clone(),
            hosts: 5,
            threads: 4,
        });
        let r9 = run_fleet(&FleetConfig {
            base: b,
            hosts: 5,
            threads: 9, // clamped to 5
        });
        assert_eq!(r1.merged.deadline.per_bs(), r4.merged.deadline.per_bs());
        assert_eq!(r1.merged.proc_hist, r4.merged.proc_hist);
        assert_eq!(
            r1.merged.proc_times_us.as_slice(),
            r4.merged.proc_times_us.as_slice()
        );
        assert_eq!(r1.merged.deadline.per_bs(), r9.merged.deadline.per_bs());
    }

    #[test]
    fn hosts_have_distinct_streams() {
        let b = base();
        let h0 = crate::run(&host_config(&b, 0));
        let h1 = crate::run(&host_config(&b, 1));
        // Different seeds ⇒ different sampled execution times.
        assert_ne!(h0.proc_hist, h1.proc_hist);
        // Host 0 is the base config verbatim.
        assert_eq!(host_config(&b, 0).seed, b.seed);
    }

    #[test]
    fn fleet_totals_scale_with_hosts() {
        let b = base();
        let total = (b.num_bs * b.subframes) as u64;
        let fleet = run_fleet(&FleetConfig {
            base: b,
            hosts: 3,
            threads: 2,
        });
        assert_eq!(fleet.merged.deadline.total_subframes(), 3 * total);
        assert_eq!(fleet.hosts, 3);
    }
}
