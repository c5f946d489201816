//! Fleet pooling gain — cells sustained per core as the fleet grows.
//!
//! The consolidation argument (§1, §6): a C-RAN operator pools many
//! cells onto a fleet of commodity hosts, and a scheduler that shares
//! idle cycles lets each fixed core budget carry more cells. This
//! experiment holds the per-host budget at [`CORE_BUDGET`] cores, sweeps
//! the aggregated cells per host upward, and reports — per scheduler
//! mode and per fleet size `H ∈ {1 … 64}` — the largest cell count whose
//! *fleet-wide* deadline-miss rate stays within [`MISS_BUDGET`].
//!
//! Fleet size matters even though hosts run independently: host `i`'s
//! trace mix is rotated by `i` (see [`rtopex_sim::host_config`]), so a
//! larger fleet samples more heterogeneous cell mixes and its capacity is
//! set by the unluckier hosts — the fleet curve `cells/core vs H` decays
//! toward an asymptote, which the experiment fits as `y(H) = a + b/H`
//! (each added host dilutes any single host's influence by `1/H`).
//!
//! The four modes mirror the real runtime's contenders: partitioned,
//! global-EDF over the shared budget, and RT-OPEX at two migration
//! costs — δ = 60 µs (`rtopex-mutex`: the runtime's configured δ) and
//! δ = 20 µs (`rtopex-steal`: the paper's Fig. 18 cost).
//!
//! **The search is censored for the partitioned family.** Partitioned
//! and both RT-OPEX modes need at least one core per cell, so their
//! search stops at [`CORE_BUDGET`] cells per host (see
//! [`pooling_config`]): a mode that sustains all of them reads exactly
//! 1.000 cells/core, which is the ceiling of the search, not a measured
//! capacity. Only global-EDF can report more. This is an interactive
//! experiment; nothing gates on its numbers.

use crate::common::{fmt_rate, header, Opts};
use rtopex_core::global::QueuePolicy;
use rtopex_sim::{run_fleet, FleetConfig, SchedulerKind, SimConfig};

/// Per-host core budget (the paper's evaluation node has 8 usable
/// processing cores).
pub const CORE_BUDGET: usize = 8;

/// Fleet-wide deadline-miss budget a configuration must stay within to
/// count as sustained — the same < 0.5 % HARQ-recoverable threshold the
/// cluster experiment uses, sitting just above the partitioned
/// scheduler's irreducible platform-jitter miss floor at 500 µs (≈ 0.3 %,
/// Fig. 15) so capacity measures load, not the floor.
pub const MISS_BUDGET: f64 = 5e-3;

/// One-way transport latency for the sweep (the paper's midpoint).
pub const RTT_HALF_US: u64 = 500;

/// Sweep ceiling on aggregated cells per host.
pub const MAX_CELLS_PER_HOST: usize = 12;

/// Fleet sizes swept at full scale.
pub const HOSTS_FULL: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Fleet sizes swept under `--quick`.
pub const HOSTS_QUICK: [usize; 3] = [1, 2, 4];

/// Total simulated subframes budgeted per sweep point (split across
/// hosts and cells so every point costs about the same wall-clock).
const SUBFRAME_BUDGET: usize = 400_000;
const SUBFRAME_BUDGET_QUICK: usize = 48_000;

/// The four scheduler modes the pooling sweep compares.
pub fn modes() -> Vec<(&'static str, SchedulerKind)> {
    vec![
        ("partitioned", SchedulerKind::Partitioned),
        (
            "global-edf",
            SchedulerKind::Global {
                cores: CORE_BUDGET,
                policy: QueuePolicy::Edf,
            },
        ),
        ("rtopex-mutex", SchedulerKind::RtOpex { delta_us: 60 }),
        ("rtopex-steal", SchedulerKind::RtOpex { delta_us: 20 }),
    ]
}

/// The fleet sizes at this option level.
pub fn hosts_grid(quick: bool) -> &'static [usize] {
    if quick {
        &HOSTS_QUICK
    } else {
        &HOSTS_FULL
    }
}

/// Builds the fleet configuration for one sweep point, or `None` when
/// the point is infeasible by construction (a partitioned-family mapping
/// needs at least one core per cell, so `cells > CORE_BUDGET` cannot be
/// laid out; the global scheduler has no such floor — its cells share
/// the queue).
pub fn pooling_config(
    opts: &Opts,
    hosts: usize,
    cells: usize,
    kind: SchedulerKind,
) -> Option<FleetConfig> {
    let mut cfg = SimConfig::from_scenario(&opts.scenario(), RTT_HALF_US);
    cfg.num_bs = cells;
    cfg.scheduler = kind;
    // Fleet sweeps keep constant memory per host: counters + the
    // processing-time histogram only.
    cfg.record_samples = false;
    let budget = if opts.quick {
        SUBFRAME_BUDGET_QUICK
    } else {
        SUBFRAME_BUDGET
    };
    cfg.subframes = (budget / (hosts * cells)).clamp(500, 30_000);
    match kind {
        SchedulerKind::Global { .. } => {}
        _ => {
            if cells > CORE_BUDGET {
                return None;
            }
            let per = (CORE_BUDGET / cells).max(1);
            cfg.cores_per_bs = Some(per);
            // Cores the ⌊C/A⌋ layout strands: partitioned cannot touch
            // them, RT-OPEX migrates subtasks into them — the intra-host
            // half of the pooling gain.
            cfg.spare_cores = CORE_BUDGET - cells * per;
        }
    }
    Some(FleetConfig {
        base: cfg,
        hosts,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// One sweep point's outcome.
#[derive(Clone, Copy, Debug)]
pub struct PoolingPoint {
    /// Fleet size.
    pub hosts: usize,
    /// Aggregated cells per host.
    pub cells: usize,
    /// Fleet-wide deadline-miss rate (1.0 for infeasible layouts).
    pub miss: f64,
}

/// A mode's full pooling curve.
#[derive(Clone, Debug)]
pub struct ModeCurve {
    /// Mode name.
    pub name: &'static str,
    /// Fleet sizes swept.
    pub hosts: Vec<usize>,
    /// Largest sustained cells/host at each fleet size (leading run).
    pub a_max: Vec<usize>,
    /// Every measured point (for the tables / JSON dump).
    pub points: Vec<PoolingPoint>,
    /// `cells/core = a + b/H` fitted over the sweep.
    pub fit: InverseFit,
}

/// Least-squares fit of `y = a + b·(1/hosts)` — the pooling curve's
/// shape (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InverseFit {
    /// Fleet-scale asymptote (cells per core as `H → ∞`).
    pub a: f64,
    /// Small-fleet surplus coefficient.
    pub b: f64,
}

/// Fits `y = a + b/H` by least squares in `x = 1/H`. With a single
/// point the fit is flat (`b = 0`).
pub fn fit_inverse(hosts: &[usize], y: &[f64]) -> InverseFit {
    assert_eq!(hosts.len(), y.len(), "fit needs one y per fleet size");
    assert!(!hosts.is_empty(), "fit needs at least one point");
    let n = hosts.len() as f64;
    let xs: Vec<f64> = hosts.iter().map(|&h| 1.0 / h as f64).collect();
    let xbar = xs.iter().sum::<f64>() / n;
    let ybar = y.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - xbar) * (x - xbar)).sum();
    if sxx == 0.0 {
        return InverseFit { a: ybar, b: 0.0 };
    }
    let sxy: f64 = xs
        .iter()
        .zip(y)
        .map(|(x, yv)| (x - xbar) * (yv - ybar))
        .sum();
    let b = sxy / sxx;
    InverseFit {
        a: ybar - b * xbar,
        b,
    }
}

/// Sweeps cells/host upward at one fleet size until the fleet miss rate
/// leaves the budget; returns the sustained count (leading run — once a
/// mode collapses, recoveries at higher counts don't count) and the
/// measured points.
pub fn a_max_for(opts: &Opts, hosts: usize, kind: SchedulerKind) -> (usize, Vec<PoolingPoint>) {
    let mut a_max = 0;
    let mut points = Vec::new();
    for cells in 1..=MAX_CELLS_PER_HOST {
        let miss = match pooling_config(opts, hosts, cells, kind) {
            Some(fc) => run_fleet(&fc).miss_rate(),
            None => 1.0,
        };
        points.push(PoolingPoint { hosts, cells, miss });
        if miss <= MISS_BUDGET {
            a_max = cells;
        } else {
            break;
        }
    }
    (a_max, points)
}

/// Runs one mode over the whole fleet-size grid and fits its curve.
pub fn sweep_mode(opts: &Opts, name: &'static str, kind: SchedulerKind) -> ModeCurve {
    let hosts: Vec<usize> = hosts_grid(opts.quick).to_vec();
    let mut a_max = Vec::with_capacity(hosts.len());
    let mut points = Vec::new();
    for &h in &hosts {
        let (am, pts) = a_max_for(opts, h, kind);
        a_max.push(am);
        points.extend(pts);
    }
    let y: Vec<f64> = a_max
        .iter()
        .map(|&a| a as f64 / CORE_BUDGET as f64)
        .collect();
    let fit = fit_inverse(&hosts, &y);
    ModeCurve {
        name,
        hosts,
        a_max,
        points,
        fit,
    }
}

/// Runs the full experiment: every mode's curve with its fitted
/// parameters.
pub fn sweep_all(opts: &Opts) -> Vec<ModeCurve> {
    modes()
        .into_iter()
        .map(|(name, kind)| sweep_mode(opts, name, kind))
        .collect()
}

/// Runs the experiment.
pub fn run(opts: &Opts) {
    header(
        "Pooling — cells per core vs. fleet size",
        "§1/§6 consolidation at fleet scale",
    );
    println!(
        "{CORE_BUDGET}-core hosts, RTT/2 = {RTT_HALF_US} µs, fleet miss budget {MISS_BUDGET:.0e}"
    );
    println!("(partitioned and RT-OPEX stop at {CORE_BUDGET} cells/host: 1.000 cells/core is the search ceiling)");
    let curves = sweep_all(opts);
    let hosts = hosts_grid(opts.quick);
    println!(
        "{:>14} {}  {:>18}",
        "mode",
        hosts.iter().map(|h| format!("{h:>5}")).collect::<String>(),
        "fit a + b/H"
    );
    for c in &curves {
        println!(
            "{:>14} {}  {:>8.3} + {:.3}/H",
            c.name,
            c.a_max
                .iter()
                .map(|a| format!("{a:>5}"))
                .collect::<String>(),
            c.fit.a,
            c.fit.b
        );
    }
    println!("\nsustained cells/host by fleet size (columns: H); curve is cells/core");
    for c in &curves {
        let worst = c.points.iter().filter(|p| p.miss > MISS_BUDGET).count();
        println!(
            "{:>14}: asymptote {:.3} cells/core ({} over-budget points measured)",
            c.name, c.fit.a, worst
        );
    }
    let part = curves.iter().find(|c| c.name == "partitioned").unwrap();
    let steal = curves.iter().find(|c| c.name == "rtopex-steal").unwrap();
    println!(
        "\npooling gain at H = {}: rtopex-steal {} vs partitioned {} cells/host ({})",
        hosts[hosts.len() - 1],
        steal.a_max[steal.a_max.len() - 1],
        part.a_max[part.a_max.len() - 1],
        fmt_rate(
            steal.a_max[steal.a_max.len() - 1] as f64
                / part.a_max[part.a_max.len() - 1].max(1) as f64
                - 1.0
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> Opts {
        Opts {
            quick: true,
            ..Opts::default()
        }
    }

    #[test]
    fn fit_recovers_exact_inverse_law() {
        let hosts = [1usize, 2, 4, 8];
        let y: Vec<f64> = hosts.iter().map(|&h| 0.5 + 0.25 / h as f64).collect();
        let fit = fit_inverse(&hosts, &y);
        assert!((fit.a - 0.5).abs() < 1e-12, "a = {}", fit.a);
        assert!((fit.b - 0.25).abs() < 1e-12, "b = {}", fit.b);
    }

    #[test]
    fn fit_degenerates_gracefully() {
        let f = fit_inverse(&[4], &[0.5]);
        assert_eq!(f, InverseFit { a: 0.5, b: 0.0 });
    }

    #[test]
    fn partitioned_family_cannot_exceed_the_core_budget() {
        let o = opts();
        assert!(pooling_config(&o, 1, CORE_BUDGET + 1, SchedulerKind::Partitioned).is_none());
        assert!(pooling_config(
            &o,
            1,
            CORE_BUDGET + 1,
            SchedulerKind::Global {
                cores: CORE_BUDGET,
                policy: rtopex_core::global::QueuePolicy::Edf,
            }
        )
        .is_some());
    }

    #[test]
    fn layout_spends_the_whole_budget() {
        let o = opts();
        for cells in 1..=CORE_BUDGET {
            let fc = pooling_config(&o, 1, cells, SchedulerKind::RtOpex { delta_us: 20 })
                .expect("feasible");
            let per = fc.base.cores_per_bs.expect("override set");
            assert_eq!(
                per * cells + fc.base.spare_cores,
                CORE_BUDGET,
                "{cells} cells"
            );
        }
    }

    #[test]
    fn single_host_single_cell_is_sustained_by_everyone() {
        let o = opts();
        for (name, kind) in modes() {
            let fc = pooling_config(&o, 1, 1, kind).expect("feasible");
            let miss = run_fleet(&fc).miss_rate();
            assert!(miss <= MISS_BUDGET, "{name}: {miss}");
        }
    }

    #[test]
    fn steal_sustains_at_least_partitioned() {
        let o = opts();
        let (p, _) = a_max_for(&o, 2, SchedulerKind::Partitioned);
        let (s, _) = a_max_for(&o, 2, SchedulerKind::RtOpex { delta_us: 20 });
        assert!(s >= p, "steal {s} vs partitioned {p}");
    }
}
