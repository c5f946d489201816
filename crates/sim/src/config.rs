//! Simulation configuration.

use rtopex_core::budget::Budget;
use rtopex_core::global::QueuePolicy;
use rtopex_model::iters::IterationModel;
use rtopex_model::platform::PlatformJitter;
use rtopex_model::tasks::TaskTimeModel;
use rtopex_phy::params::Bandwidth;
use rtopex_workload::{Scenario, TraceParams};

/// Which scheduler the simulated compute node runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// §3.1.1 — offline partitioned mapping, `⌈T_max⌉` cores per BS.
    Partitioned,
    /// §3.1.2 — shared queue dispatched to `cores` workers.
    Global {
        /// Worker core count (the paper evaluates 8 and 16).
        cores: usize,
        /// Dispatch priority.
        policy: QueuePolicy,
    },
    /// §3.2 — partitioned base plus runtime subtask migration.
    RtOpex {
        /// Per-subtask migration cost δ in µs (paper measures ≈ 20).
        delta_us: u64,
    },
    /// Semi-partitioned baseline (the paper's \[14\]): the partitioned
    /// mapping, but a subframe that finds its core busy may move — as a
    /// *whole task* — to another core's idle window. Task granularity,
    /// contrasted with RT-OPEX's subtask granularity (Table 2).
    SemiPartitioned,
}

/// Cache-affinity penalty model for the global scheduler (Fig. 19).
///
/// Partitioned cores always serve the same basestation every other
/// millisecond, so their caches stay warm. A global worker's cache decays:
/// processing basestation `b` on core `c` costs an extra
/// `cold_penalty_us · (1 − e^{−Δt/τ})`, where `Δt` is the time since `c`
/// last served `b` (a never-seen pairing pays the full cold penalty).
///
/// With more workers, a basestation's subframes scatter across more
/// cores, so each (core, BS) pairing recurs more rarely and the penalty
/// saturates toward its cold maximum — which is why doubling the global
/// pool from 8 to 16 cores does not help and even hurts (Fig. 19: ≈ 80 µs
/// longer processing for a sizable fraction of MCS-27 subframes under
/// global-16).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheModel {
    /// Maximum (fully cold) cache-refill penalty, µs.
    pub cold_penalty_us: f64,
    /// Cache-residency decay constant, ms.
    pub reuse_tau_ms: f64,
    /// Fixed dispatcher/locking overhead per global dispatch, µs.
    pub dispatch_overhead_us: f64,
}

impl CacheModel {
    /// Calibration matching Fig. 19's ≈ 80 µs processing-time inflation
    /// for a sizable fraction of subframes under global-16.
    pub const fn paper_gpp() -> Self {
        CacheModel {
            cold_penalty_us: 120.0,
            reuse_tau_ms: 8.0,
            dispatch_overhead_us: 8.0,
        }
    }

    /// No cache effects (for ablations).
    pub const fn free() -> Self {
        CacheModel {
            cold_penalty_us: 0.0,
            reuse_tau_ms: 5.0,
            dispatch_overhead_us: 0.0,
        }
    }
}

impl Default for CacheModel {
    fn default() -> Self {
        Self::paper_gpp()
    }
}

/// Complete configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of basestations.
    pub num_bs: usize,
    /// Subframes per basestation.
    pub subframes: usize,
    /// Channel bandwidth.
    pub bandwidth: Bandwidth,
    /// Receive antennas per basestation.
    pub num_antennas: usize,
    /// Channel SNR (dB) — drives the iteration model.
    pub snr_db: f64,
    /// One-way transport latency RTT/2 in µs.
    pub rtt_half_us: u64,
    /// Scheduler under test.
    pub scheduler: SchedulerKind,
    /// Load-trace parameters, one per basestation (cycled if shorter).
    pub traces: Vec<TraceParams>,
    /// Fixed MCS override for every basestation (Fig. 19's right panel);
    /// `None` = trace-driven.
    pub fixed_mcs: Option<u8>,
    /// Fixed MCS override for basestation 0 only (Fig. 17's load sweep:
    /// one swept basestation against a trace-driven background).
    pub bs0_mcs: Option<u8>,
    /// Task time split model.
    pub time_model: TaskTimeModel,
    /// Turbo-iteration statistics.
    pub iter_model: IterationModel,
    /// Platform error `E` sampler.
    pub jitter: PlatformJitter,
    /// Cache penalties (global scheduler only).
    pub cache: CacheModel,
    /// Probability that a migrated batch overruns its estimate
    /// (exercises RT-OPEX's recovery path).
    pub overrun_prob: f64,
    /// Slowdown factor of an overrunning batch.
    pub overrun_factor: f64,
    /// Global-queue ring-buffer capacity.
    pub queue_capacity: usize,
    /// Extra cores beyond the partitioned schedule's allocation (§5-B
    /// "flexibility to resources"). A partitioned schedule cannot use
    /// them; RT-OPEX migrates subtasks into them; the global scheduler's
    /// pool is set explicitly via its `cores` field instead.
    pub spare_cores: usize,
    /// Simulated core failure: `(core index, time in µs)` after which the
    /// core stops processing — its subframes are lost and it hosts no
    /// migrations (§5-B: commodity hardware fails).
    pub failed_core: Option<(usize, u64)>,
    /// Per-subframe PRB utilization range `(lo, hi)` in `(0, 1]`; `None` =
    /// the paper's conservative 100 % single-user allocation. Varying
    /// utilization shrinks some subframes' transport blocks, producing the
    /// extra idle gaps the §4.2 footnote says a realistic multi-user
    /// workload would give RT-OPEX.
    pub prb_util_range: Option<(f64, f64)>,
    /// Override the partitioned schedule's cores-per-basestation
    /// allocation (`None` = the Eq. 3 `⌈T_max⌉` default), holding a
    /// host's core budget fixed whatever its cells' `T_max`.
    pub cores_per_bs: Option<usize>,
    /// Record per-sample data (gap durations, per-subframe processing
    /// times in `proc_times_us`). The paper figures need the raw
    /// samples; a long run turns this off so its memory stays constant
    /// — counters and the processing-time histogram are always kept.
    pub record_samples: bool,
    /// RNG seed.
    pub seed: u64,
}

impl SimConfig {
    /// Builds a configuration from a workload scenario and transport
    /// latency, defaulting to the RT-OPEX scheduler with the paper's
    /// measured 20 µs migration cost.
    pub fn from_scenario(s: &Scenario, rtt_half_us: u64) -> Self {
        SimConfig {
            num_bs: s.num_bs,
            subframes: s.subframes,
            bandwidth: s.bandwidth,
            num_antennas: s.num_antennas,
            snr_db: s.snr_db,
            rtt_half_us,
            scheduler: SchedulerKind::RtOpex { delta_us: 20 },
            traces: s.traces.clone(),
            fixed_mcs: None,
            bs0_mcs: None,
            time_model: TaskTimeModel::paper_gpp(),
            iter_model: IterationModel {
                l_max: s.max_turbo_iters,
                ..IterationModel::paper_gpp()
            },
            jitter: PlatformJitter::paper_gpp(),
            cache: CacheModel::paper_gpp(),
            overrun_prob: 0.01,
            overrun_factor: 1.5,
            queue_capacity: 64,
            spare_cores: 0,
            failed_core: None,
            prb_util_range: None,
            cores_per_bs: None,
            record_samples: true,
            seed: s.seed,
        }
    }

    /// The deadline budget implied by the transport latency.
    pub fn budget(&self) -> Budget {
        Budget::from_rtt_half_us(self.rtt_half_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_scenario_copies_shape() {
        let s = Scenario::paper_default();
        let c = SimConfig::from_scenario(&s, 500);
        assert_eq!(c.num_bs, 4);
        assert_eq!(c.subframes, 30_000);
        assert_eq!(c.iter_model.l_max, 4);
        assert_eq!(c.budget().tmax().as_us_f64(), 1500.0);
    }

    #[test]
    fn scheduler_kinds_compare() {
        assert_ne!(
            SchedulerKind::Partitioned,
            SchedulerKind::RtOpex { delta_us: 20 }
        );
    }
}
