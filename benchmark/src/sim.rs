//! The `sim_rtopex` workload: `rtopex_sim::run` on the paper's scenario
//! widened to 8 cells, in short runs. Each run is one operation; its wall
//! time per simulated cell-subframe is one sample. Runs are short (half a
//! millisecond) so that this sandbox's 3–8 ms preemptions hit only a few
//! per cent of them, where p95 does not see them, and they cycle through
//! [`VARIANTS`] sub-seeds so that one run's stretch of trace does not
//! decide the median.

use crate::inputs::{sim_config, SIM_CELLS};
use crate::probe::{process_cpu, us};
use rtopex_sim::{run, run_fleet, FleetConfig, SchedulerKind, SimConfig, SimReport};
use std::time::{Duration, Instant};

/// Subframes per cell in one run.
pub const RUN_SUBFRAMES: usize = 100;
/// Distinct traces a trial cycles through.
pub const VARIANTS: usize = 64;
pub const RTOPEX: SchedulerKind = SchedulerKind::RtOpex { delta_us: 20 };

/// Whether two reports are the same simulation outcome, field by field.
pub fn same_report(a: &SimReport, b: &SimReport) -> bool {
    let mig = |r: &SimReport| {
        let m = r.migration;
        [
            m.fft_total,
            m.fft_migrated,
            m.decode_total,
            m.decode_migrated,
            m.recoveries,
            m.whole_tasks,
        ]
    };
    a.deadline.per_bs() == b.deadline.per_bs()
        && a.proc_hist == b.proc_hist
        && a.dropped == b.dropped
        && a.crc_failures == b.crc_failures
        && mig(a) == mig(b)
}

/// The configurations one trial cycles through, from the run's seed.
pub fn variants(seed: u64) -> Vec<SimConfig> {
    let first = seed.wrapping_mul(VARIANTS as u64);
    (0..VARIANTS as u64)
        .map(|v| sim_config(first.wrapping_add(v), RUN_SUBFRAMES, RTOPEX))
        .collect()
}

pub struct SimTrial {
    pub traced: bool,
    pub started: Instant,
    /// Config build plus one warm-up run of every variant.
    pub setup_s: f64,
    /// Wall µs per simulated cell-subframe, one sample per run.
    pub run_us_per_sf: Vec<f64>,
    /// `(start, end)` of every run, when tracing.
    pub runs: Vec<(Instant, Instant)>,
    pub cpu_us_per_sf: f64,
    /// Runs whose report differed from their variant's warm-up run.
    pub diverged: u64,
    /// The warm-up run of every variant.
    pub reports: Vec<SimReport>,
}

/// Runs the simulator back to back for `measure`, or `runs` times if given.
pub fn trial(seed: u64, measure: Duration, runs: Option<usize>, traced: bool) -> SimTrial {
    let started = Instant::now();
    let cfgs = variants(seed);
    let reports: Vec<SimReport> = cfgs.iter().map(run).collect();
    let setup_s = started.elapsed().as_secs_f64();

    let per_run = (SIM_CELLS * RUN_SUBFRAMES) as f64;
    let expect = runs.unwrap_or((measure.as_secs_f64() * 4_000.0) as usize);
    let mut run_us_per_sf = Vec::with_capacity(expect);
    let mut spans = Vec::with_capacity(if traced { expect } else { 0 });
    let mut diverged = 0;
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let mut last = t0;
    while runs.map_or(last - t0 < measure, |n| run_us_per_sf.len() < n) {
        let v = run_us_per_sf.len() % cfgs.len();
        let r = run(&cfgs[v]);
        let now = Instant::now();
        run_us_per_sf.push(us(now - last) / per_run);
        if traced {
            spans.push((last, now));
        }
        diverged += u64::from(!same_report(&r, &reports[v]));
        last = now;
    }
    let cpu = process_cpu() - cpu0;
    SimTrial {
        traced,
        started,
        setup_s,
        cpu_us_per_sf: us(cpu) / (per_run * run_us_per_sf.len() as f64),
        run_us_per_sf,
        runs: spans,
        diverged,
        reports,
    }
}

/// Cell-subframes per second of `scheduler` on the same scenario at
/// `subframes` per cell — the same layer used differently.
pub fn engine_sf_per_s(seed: u64, subframes: usize, scheduler: SchedulerKind) -> f64 {
    let cfg = sim_config(seed, subframes, scheduler);
    let t = Instant::now();
    std::hint::black_box(run(&cfg));
    (SIM_CELLS * subframes) as f64 / t.elapsed().as_secs_f64()
}

/// A 4-host fleet on 1 and on 2 threads: returns the 2-thread
/// cell-subframes per second and whether the merged reports agree.
pub fn fleet_check(seed: u64, subframes: usize) -> (f64, bool) {
    const HOSTS: usize = 4;
    let mut fleet = FleetConfig {
        base: sim_config(seed, subframes, RTOPEX),
        hosts: HOSTS,
        threads: 1,
    };
    let one = run_fleet(&fleet);
    fleet.threads = 2;
    let t = Instant::now();
    let two = run_fleet(&fleet);
    let rate = (HOSTS * SIM_CELLS * subframes) as f64 / t.elapsed().as_secs_f64();
    (rate, same_report(&one.merged, &two.merged))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_runs_agree_and_other_seeds_do_not() {
        let t = trial(5, Duration::ZERO, Some(VARIANTS + 3), true);
        assert_eq!(
            (t.run_us_per_sf.len(), t.runs.len(), t.diverged),
            (VARIANTS + 3, VARIANTS + 3, 0)
        );
        assert!(t.run_us_per_sf.iter().all(|&v| v > 0.0));
        assert!(t.setup_s > 0.0 && t.cpu_us_per_sf > 0.0);
        assert!(!same_report(&t.reports[0], &t.reports[1]));
        assert!(!same_report(&t.reports[0], &run(&variants(6)[0])));
        assert_eq!(
            t.reports[0].deadline.total_subframes(),
            (SIM_CELLS * RUN_SUBFRAMES) as u64
        );
    }

    #[test]
    fn fleet_merges_identically_on_one_and_two_threads() {
        let (rate, same) = fleet_check(5, 200);
        assert!(same && rate > 0.0);
    }
}
