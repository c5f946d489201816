//! Ablations of the design choices called out in DESIGN.md §6.
//!
//! * `ablate-delta` — sweep the migration cost δ: Algorithm 1's R1 guard
//!   makes migration taper off and eventually vanish as δ grows, instead
//!   of turning counterproductive;
//! * `ablate-policy` — EDF vs. FIFO global dispatch: equivalent when all
//!   basestations share one transport delay (§3.1.2's claim);
//! * `ablate-recovery` — host-overrun sensitivity: RT-OPEX's recovery
//!   path keeps the miss rate bounded even when migrated batches overrun
//!   half the time;
//! * `ablate-cache` — the global scheduler with cache penalties removed:
//!   quantifies how much of global's deficit is cache thrashing;
//! * `ablate-granularity` — semi-partitioned (whole-task migration, the
//!   paper's \[14\]) vs. RT-OPEX (subtask migration): Table 2's granularity
//!   column, quantified. Task-level moves barely help because the misses
//!   come from subframes whose *serial* time exceeds the budget — only
//!   splitting the task parallelizes past that wall.

use crate::common::{fmt_rate, header, Opts};
use rtopex_core::global::QueuePolicy;
use rtopex_sim::{run as sim_run, CacheModel, SchedulerKind, SimConfig};

/// δ sweep.
pub fn run_delta(opts: &Opts) {
    header(
        "Ablation — migration cost δ",
        "DESIGN.md §6 (supports §4.4)",
    );
    println!(
        "{:>8} {:>12} {:>10} {:>10}",
        "δ (µs)", "miss rate", "fft mig%", "dec mig%"
    );
    for delta in [0u64, 10, 20, 50, 100, 200, 500] {
        let mut cfg = SimConfig::from_scenario(&opts.scenario(), 600);
        cfg.scheduler = SchedulerKind::RtOpex { delta_us: delta };
        let r = sim_run(&cfg);
        println!(
            "{:>8} {:>12} {:>10.3} {:>10.3}",
            delta,
            fmt_rate(r.miss_rate()),
            r.migration.fft_fraction(),
            r.migration.decode_fraction()
        );
    }
    println!("expected: misses and migration volume degrade gracefully as δ grows;\nR1 stops migration before it could hurt.");
}

/// EDF vs. FIFO.
pub fn run_policy(opts: &Opts) {
    header("Ablation — global EDF vs. FIFO", "§3.1.2 equivalence claim");
    println!("{:>8} {:>12} {:>12}", "RTT/2", "EDF", "FIFO");
    for rtt in [450u64, 600] {
        let mut rates = Vec::new();
        for policy in [QueuePolicy::Edf, QueuePolicy::Fifo] {
            let mut cfg = SimConfig::from_scenario(&opts.scenario(), rtt);
            cfg.scheduler = SchedulerKind::Global { cores: 8, policy };
            rates.push(sim_run(&cfg).miss_rate());
        }
        println!(
            "{:>8} {:>12} {:>12}",
            format!("{rtt}µs"),
            fmt_rate(rates[0]),
            fmt_rate(rates[1])
        );
    }
    println!("expected: identical — with equal transport delay, EDF order = arrival order.");
}

/// Host-overrun sensitivity.
pub fn run_recovery(opts: &Opts) {
    header(
        "Ablation — host overruns and recovery",
        "§3.2.1-B recovery path",
    );
    println!(
        "{:>14} {:>12} {:>12}",
        "P(overrun)", "miss rate", "recoveries"
    );
    for p in [0.0, 0.01, 0.1, 0.5] {
        let mut cfg = SimConfig::from_scenario(&opts.scenario(), 600);
        cfg.scheduler = SchedulerKind::RtOpex { delta_us: 20 };
        cfg.overrun_prob = p;
        cfg.overrun_factor = 2.0;
        let r = sim_run(&cfg);
        println!(
            "{:>14} {:>12} {:>12}",
            p,
            fmt_rate(r.miss_rate()),
            r.migration.recoveries
        );
    }
    println!("expected: recoveries grow with overrun probability while the miss rate\nstays bounded by the no-migration baseline (the §3.2 guarantee).");
}

/// Cache-penalty ablation for the global scheduler.
pub fn run_cache(opts: &Opts) {
    header(
        "Ablation — global without cache penalties",
        "explains Fig. 19",
    );
    println!("{:>10} {:>14} {:>14}", "cores", "with cache", "no cache");
    for cores in [8usize, 16] {
        let mut with = SimConfig::from_scenario(&opts.scenario(), 600);
        with.scheduler = SchedulerKind::Global {
            cores,
            policy: QueuePolicy::Edf,
        };
        let mut without = with.clone();
        without.cache = CacheModel::free();
        println!(
            "{:>10} {:>14} {:>14}",
            cores,
            fmt_rate(sim_run(&with).miss_rate()),
            fmt_rate(sim_run(&without).miss_rate())
        );
    }
    println!("expected: without penalties the global scheduler approaches partitioned —\nthe deficit the paper observed is cache-affinity loss, not queueing.");
}

/// PRB-utilization ablation — the §4.2 footnote: 100 % single-user
/// allocation is *conservative*; multi-user traffic with varying PRB
/// utilization leaves more gaps for RT-OPEX to harvest.
pub fn run_prb(opts: &Opts) {
    header("Ablation — PRB utilization (§4.2 footnote)", "§4.2");
    println!(
        "{:>16} {:>14} {:>14} {:>10}",
        "utilization", "partitioned", "rt-opex", "gain ×"
    );
    for (label, range) in [
        ("100 % (paper)", None),
        ("60–100 %", Some((0.6, 1.0))),
        ("30–100 %", Some((0.3, 1.0))),
    ] {
        let mut rates = Vec::new();
        for sched in [
            SchedulerKind::Partitioned,
            SchedulerKind::RtOpex { delta_us: 20 },
        ] {
            let mut cfg = SimConfig::from_scenario(&opts.scenario(), 650);
            cfg.scheduler = sched;
            cfg.prb_util_range = range;
            rates.push(sim_run(&cfg).miss_rate());
        }
        println!(
            "{:>16} {:>14} {:>14} {:>10.1}",
            label,
            fmt_rate(rates[0]),
            fmt_rate(rates[1]),
            rates[0] / rates[1].max(1e-9)
        );
    }
    println!(
        "expected: partial utilization lightens everyone, and the
partitioned/RT-OPEX miss ratio stays large or grows — the 100 % setting
understates RT-OPEX's advantage, exactly as the paper claims."
    );
}

/// Migration granularity: whole tasks (semi-partitioned) vs. subtasks
/// (RT-OPEX) — the Table 2 "granularity" column, quantified.
pub fn run_granularity(opts: &Opts) {
    header(
        "Ablation — migration granularity (Table 2)",
        "Table 2 / [14]",
    );
    println!(
        "{:>8} {:>13} {:>13} {:>13}",
        "RTT/2", "partitioned", "semi-part.", "rt-opex"
    );
    for rtt in [500u64, 600, 700] {
        let mut rates = Vec::new();
        for sched in [
            SchedulerKind::Partitioned,
            SchedulerKind::SemiPartitioned,
            SchedulerKind::RtOpex { delta_us: 20 },
        ] {
            let mut cfg = SimConfig::from_scenario(&opts.scenario(), rtt);
            cfg.scheduler = sched;
            rates.push(sim_run(&cfg).miss_rate());
        }
        println!(
            "{:>8} {:>13} {:>13} {:>13}",
            format!("{rtt}µs"),
            fmt_rate(rates[0]),
            fmt_rate(rates[1]),
            fmt_rate(rates[2])
        );
    }
    println!(
        "expected: whole-task migration ≈ partitioned — the misses come from
subframes whose serial time exceeds T_max, which moving the task cannot
fix; only subtask-level parallelism (RT-OPEX) does."
    );
}

/// Runs all ablations.
pub fn run(opts: &Opts) {
    run_delta(opts);
    run_policy(opts);
    run_recovery(opts);
    run_cache(opts);
    run_prb(opts);
    run_granularity(opts);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Opts {
        Opts {
            quick: true,
            ..Opts::default()
        }
    }

    #[test]
    fn huge_delta_kills_migration_but_not_correctness() {
        let mut cfg = SimConfig::from_scenario(&quick().scenario(), 600);
        cfg.scheduler = SchedulerKind::RtOpex { delta_us: 5_000 };
        let r = sim_run(&cfg);
        assert_eq!(r.migration.fft_migrated + r.migration.decode_migrated, 0);
        // Degenerates exactly to partitioned.
        let mut part = SimConfig::from_scenario(&quick().scenario(), 600);
        part.scheduler = SchedulerKind::Partitioned;
        let rp = sim_run(&part);
        assert_eq!(r.deadline.overall().missed, rp.deadline.overall().missed);
    }

    #[test]
    fn edf_equals_fifo_with_uniform_delay() {
        let mut e = SimConfig::from_scenario(&quick().scenario(), 500);
        e.scheduler = SchedulerKind::Global {
            cores: 8,
            policy: QueuePolicy::Edf,
        };
        let mut f = e.clone();
        f.scheduler = SchedulerKind::Global {
            cores: 8,
            policy: QueuePolicy::Fifo,
        };
        assert_eq!(
            sim_run(&e).deadline.overall().missed,
            sim_run(&f).deadline.overall().missed
        );
    }

    #[test]
    fn recovery_keeps_rtopex_bounded_by_partitioned() {
        let mut cfg = SimConfig::from_scenario(&quick().scenario(), 600);
        cfg.scheduler = SchedulerKind::RtOpex { delta_us: 20 };
        cfg.overrun_prob = 0.5;
        cfg.overrun_factor = 3.0;
        let rto = sim_run(&cfg).miss_rate();
        let mut part = SimConfig::from_scenario(&quick().scenario(), 600);
        part.scheduler = SchedulerKind::Partitioned;
        let p = sim_run(&part).miss_rate();
        assert!(rto <= p + 1e-9, "rto {rto} vs part {p}");
    }

    #[test]
    fn whole_task_migration_barely_helps() {
        // Table 2's point: task granularity cannot beat the serial wall.
        let rate = |sched| {
            let mut cfg = SimConfig::from_scenario(&quick().scenario(), 650);
            cfg.scheduler = sched;
            sim_run(&cfg)
        };
        let part = rate(SchedulerKind::Partitioned);
        let semi = rate(SchedulerKind::SemiPartitioned);
        let rto = rate(SchedulerKind::RtOpex { delta_us: 20 });
        let (p, s, r) = (part.miss_rate(), semi.miss_rate(), rto.miss_rate());
        // Semi-partitioned is sandwiched: no better than RT-OPEX, not much
        // better than partitioned.
        assert!(r <= s, "rt-opex {r} vs semi {s}");
        assert!(s <= p + 1e-9, "semi {s} vs partitioned {p}");
        assert!(
            r < 0.5 * s.max(1e-9),
            "subtask granularity should clearly beat task granularity: {r} vs {s}"
        );
    }

    #[test]
    fn varying_prb_means_lighter_subframes() {
        let mut full = SimConfig::from_scenario(&quick().scenario(), 650);
        full.scheduler = SchedulerKind::Partitioned;
        let mut varied = full.clone();
        varied.prb_util_range = Some((0.3, 1.0));
        let rf = sim_run(&full);
        let rv = sim_run(&varied);
        // Lighter transport blocks decode faster on average…
        assert!(rv.proc_times_us.mean() < rf.proc_times_us.mean());
        // …and miss less.
        assert!(rv.deadline.overall().missed <= rf.deadline.overall().missed);
    }

    #[test]
    fn cache_penalties_explain_global_deficit() {
        let mut with = SimConfig::from_scenario(&quick().scenario(), 600);
        with.scheduler = SchedulerKind::Global {
            cores: 8,
            policy: QueuePolicy::Edf,
        };
        let mut without = with.clone();
        without.cache = CacheModel::free();
        let a = sim_run(&with).miss_rate();
        let b = sim_run(&without).miss_rate();
        assert!(b <= a, "no-cache {b} should not exceed with-cache {a}");
    }
}
