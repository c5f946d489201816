//! # rtopex-sim — discrete-event simulation of a C-RAN compute node
//!
//! The paper's testbed collects 30 000 subframes per basestation per
//! configuration; resolving deadline-miss rates down to 10⁻⁴ and sweeping
//! transport latency, load, and core counts requires millions of simulated
//! subframes. This crate provides a deterministic, seedable discrete-event
//! simulator of the compute node:
//!
//! * subframes are released every 1 ms per basestation, shifted by the
//!   transport latency `RTT/2` (Eq. 2);
//! * execution times come from the calibrated Eq. (1) task model
//!   (`rtopex-model`), with the platform-error tail of Fig. 3(d) and the
//!   iteration statistics of the turbo decoder;
//! * the three schedulers of §3 run on simulated cores: **partitioned**
//!   (Fig. 9), **global** FIFO/EDF with cache-affinity penalties
//!   (Fig. 10/19), and **RT-OPEX** — the partitioned mapping with runtime
//!   subtask migration per Algorithm 1, including host preemption and the
//!   recovery path (Fig. 11/12).
//!
//! There is one [`engine::Engine`] on one timeline (the hierarchical
//! [`wheel::TimingWheel`]) drawing from one streaming workload generator
//! ([`gen::TaskStream`], constant memory in the subframe count); the
//! scheduler is its policy. The entry point is [`run`], which consumes a
//! [`SimConfig`] and produces a [`SimReport`] with deadline, gap,
//! migration, and processing-time accounting.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod event;
pub mod fleet;
pub mod gen;
pub mod report;
pub mod wheel;

pub use config::{CacheModel, SchedulerKind, SimConfig};
pub use fleet::{host_config, run_fleet, FleetConfig, FleetReport};
pub use report::SimReport;

/// Runs one simulation to completion.
pub fn run(config: &SimConfig) -> SimReport {
    engine::Engine::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtopex_core::global::QueuePolicy;
    use rtopex_workload::Scenario;

    fn base_config(rtt_half_us: u64) -> SimConfig {
        SimConfig::from_scenario(&Scenario::smoke_test(), rtt_half_us)
    }

    #[test]
    fn all_schedulers_process_every_subframe() {
        for sched in [
            SchedulerKind::Partitioned,
            SchedulerKind::RtOpex { delta_us: 20 },
            SchedulerKind::Global {
                cores: 8,
                policy: QueuePolicy::Edf,
            },
        ] {
            let mut cfg = base_config(500);
            cfg.scheduler = sched;
            let report = run(&cfg);
            assert_eq!(
                report.deadline.total_subframes(),
                (cfg.num_bs * cfg.subframes) as u64,
                "{sched:?}"
            );
        }
    }

    #[test]
    fn rtopex_never_worse_than_partitioned() {
        for rtt in [400u64, 500, 600, 700] {
            let mut part = base_config(rtt);
            part.scheduler = SchedulerKind::Partitioned;
            let mut rto = base_config(rtt);
            rto.scheduler = SchedulerKind::RtOpex { delta_us: 20 };
            let pm = run(&part).deadline.overall().rate();
            let rm = run(&rto).deadline.overall().rate();
            assert!(
                rm <= pm + 1e-9,
                "RTT/2={rtt}: RT-OPEX {rm} vs partitioned {pm}"
            );
        }
    }

    #[test]
    fn miss_rate_grows_with_transport_latency() {
        let mut low = base_config(400);
        low.scheduler = SchedulerKind::Partitioned;
        let mut high = base_config(700);
        high.scheduler = SchedulerKind::Partitioned;
        let r_low = run(&low).deadline.overall().rate();
        let r_high = run(&high).deadline.overall().rate();
        assert!(r_high >= r_low, "low {r_low}, high {r_high}");
        assert!(r_high > 0.0, "700µs transport must cause misses");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = base_config(500);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.deadline.overall().missed, b.deadline.overall().missed);
        assert_eq!(a.migration.decode_migrated, b.migration.decode_migrated);
    }

    #[test]
    fn rtopex_actually_migrates() {
        let mut cfg = base_config(500);
        cfg.scheduler = SchedulerKind::RtOpex { delta_us: 20 };
        let report = run(&cfg);
        assert!(report.migration.decode_migrated > 0 || report.migration.fft_migrated > 0);
    }

    #[test]
    fn partitioned_never_migrates() {
        let mut cfg = base_config(500);
        cfg.scheduler = SchedulerKind::Partitioned;
        let report = run(&cfg);
        assert_eq!(report.migration.decode_migrated, 0);
        assert_eq!(report.migration.fft_migrated, 0);
    }
}
