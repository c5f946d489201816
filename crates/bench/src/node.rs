//! `rtopex-bench --node` — emits `BENCH_node.json`, the tracked node-level
//! throughput baseline for the multi-cell cluster runtime.
//!
//! Three measurement groups, one JSON object:
//!
//! * `steal_path` — per-subtask handoff latency of the lock-free steal
//!   path vs. the boxed-closure mailbox path (`measure_steal_overhead` /
//!   `measure_migration_overhead`), for the two migratable stages. This
//!   is the microscopic claim: a steal ticket costs less than a mailbox
//!   round trip.
//! * `single_cell` — one 1.4 MHz cell through the full `CranCluster`
//!   staged path, checked against the `subframe_decode` kernel mean in
//!   `BENCH_kernels.json`: the arena/epoch protocol must not tax the
//!   unstolen fast path.
//! * `sweep` — the Figs. 17/18 capacity sweep (cells sustained under the
//!   0.5 % miss threshold) reusing the exact geometry from
//!   `rtopex_experiments::cluster_scale`, so the committed baseline and
//!   the interactive experiment can never drift apart. The `headline`
//!   block distills it to the one number this PR is about: RT-OPEX(steal)
//!   must sustain at least as many cells as RT-OPEX(mutex).
//! * `multihost` — real-network fronthaul overheads (per-transport
//!   loopback handoff latency + steady-state rx cost per subframe) and
//!   the spawned `rtopex-fronthaul --spawn 2` demo verdict — see
//!   `multihost.rs`. `--refresh-multihost` re-measures only this
//!   section and splices it into an existing file.
//!
//! ```text
//! cargo run --release -p rtopex-bench -- --node [--quick] [OUTPUT.json]
//! cargo run --release -p rtopex-bench -- --node --refresh-multihost [FILE.json]
//! ```
//!
//! `--quick` shrinks the sweep (2 cells, 1 trial) for CI smoke runs where
//! only the schema and the steal-path numbers are being sanity-checked.

use rtopex_experiments::cluster_scale::{best_of, cells_sustained, cluster_cfg, MISS_THRESHOLD};
use rtopex_experiments::common::Opts;
use rtopex_phy::params::Bandwidth;
use rtopex_phy::tasks::TaskKind;
use rtopex_runtime::cluster::{ClusterConfig, CranCluster, SchedulerMode};
use rtopex_runtime::measure::{measure_migration_overhead, measure_steal_overhead};
use std::fmt::Write as _;
use std::time::Duration;

/// Steal-ticket vs. mailbox handoff numbers for one migratable stage.
struct PathEntry {
    task: TaskKind,
    local_p50_us: f64,
    stolen_p50_us: f64,
    steal_delta_us: f64,
    mailbox_p50_us: f64,
    mailbox_delta_us: f64,
}

fn steal_path_entry(task: TaskKind, trials: usize) -> PathEntry {
    let mut steal = measure_steal_overhead(Bandwidth::Mhz5, 2, 16, task, trials);
    let mut mbox = measure_migration_overhead(Bandwidth::Mhz5, 2, 16, task, trials);
    PathEntry {
        task,
        local_p50_us: steal.local_us.median(),
        stolen_p50_us: steal.stolen_us.median(),
        steal_delta_us: steal.delta_us,
        mailbox_p50_us: mbox.migrated_us.median(),
        mailbox_delta_us: mbox.delta_us,
    }
}

/// Single 1.4 MHz cell through the staged cluster path, plus the tracked
/// kernel-bench mean for the same decode, read from `BENCH_kernels.json`.
struct SingleCell {
    period_us: u64,
    proc_p50_us: f64,
    proc_p99_us: f64,
    sf_per_sec: f64,
    miss_rate: f64,
    kernel_mean_us: Option<f64>,
}

fn single_cell(quick: bool) -> SingleCell {
    // Same PHY configuration as the tracked `subframe_decode_mhz1_4_mcs_27`
    // kernel entry; a 2.5 ms period leaves the cell unloaded so proc_us
    // measures the staged path itself, not queueing.
    let period = Duration::from_micros(2_500);
    let cfg = ClusterConfig {
        bandwidth: Bandwidth::Mhz1_4,
        num_antennas: 2,
        num_cells: 1,
        subframes: if quick { 150 } else { 400 },
        period,
        rtt_half: period, // Eq. 3 budget = one full period
        mode: SchedulerMode::RtOpexSteal,
        snr_db: 30.0,
        mcs_pool: vec![27],
        delta_us: 60.0,
        seed: 0xC0DE,
    };
    let best = (0..if quick { 1 } else { 3 })
        .map(|_| CranCluster::new(cfg.clone()).run())
        .min_by(|a, b| {
            let (mut ap, mut bp) = (a.proc_us.clone(), b.proc_us.clone());
            ap.median().partial_cmp(&bp.median()).unwrap()
        })
        .expect("at least one run");
    let mut proc = best.proc_us.clone();
    SingleCell {
        period_us: period.as_micros() as u64,
        proc_p50_us: proc.median(),
        proc_p99_us: proc.quantile(0.99),
        sf_per_sec: best.subframes_per_sec(),
        miss_rate: best.miss_rate(),
        kernel_mean_us: kernel_baseline_us(),
    }
}

/// Pulls `subframe_decode_mhz1_4_mcs_27.mean_ns` out of the committed
/// kernel baseline with a plain string scan (no JSON dep in-tree).
fn kernel_baseline_us() -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_kernels.json").ok()?;
    let at = text.find("subframe_decode_mhz1_4_mcs_27")?;
    let tail = &text[at..];
    let at = tail.find("\"mean_ns\":")? + "\"mean_ns\":".len();
    let digits: String = tail[at..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse::<f64>().ok().map(|ns| ns / 1_000.0)
}

/// One mode's capacity column.
struct SweepRow {
    mode: SchedulerMode,
    miss: Vec<f64>,
    sustained: usize,
    sf_per_sec: f64,
    steals: u64,
}

fn sweep(opts: &Opts, max_cells: usize, trials: usize) -> Vec<SweepRow> {
    SchedulerMode::ALL
        .iter()
        .map(|&mode| {
            eprintln!("  sweeping {} to {max_cells} cells…", mode.name());
            let points: Vec<_> = (1..=max_cells)
                .map(|n| best_of(opts, mode, n, trials))
                .collect();
            let sustained = cells_sustained(&points);
            let at = points.iter().find(|p| p.cells == sustained);
            SweepRow {
                mode,
                miss: points.iter().map(|p| p.miss).collect(),
                sustained,
                sf_per_sec: at.map(|p| p.sf_per_sec).unwrap_or(0.0),
                steals: at.map(|p| p.steals).unwrap_or(0),
            }
        })
        .collect()
}

fn task_key(task: TaskKind) -> &'static str {
    match task {
        TaskKind::Fft => "fft",
        TaskKind::Demod => "demod",
        TaskKind::Decode => "decode",
    }
}

fn fmt_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// Runs the node benchmark and writes `path`.
pub fn run(quick: bool, path: &str) {
    let opts = Opts {
        quick,
        ..Opts::default()
    };
    let (max_cells, trials) = if quick { (2, 1) } else { (5, 4) };

    eprintln!("steal-path handoff latency…");
    let paths: Vec<PathEntry> = [TaskKind::Fft, TaskKind::Decode]
        .into_iter()
        .map(|t| steal_path_entry(t, if quick { 8 } else { 24 }))
        .collect();
    eprintln!("single-cell staged path…");
    let cell = single_cell(quick);
    eprintln!("capacity sweep ({max_cells} cells, best of {trials})…");
    let rows = sweep(&opts, max_cells, trials);

    let sustained = |m: SchedulerMode| {
        rows.iter()
            .find(|r| r.mode == m)
            .map(|r| r.sustained)
            .unwrap_or(0)
    };
    let mutex_n = sustained(SchedulerMode::RtOpexMutex);
    let steal_n = sustained(SchedulerMode::RtOpexSteal);

    let sweep_cfg = cluster_cfg(&opts, SchedulerMode::RtOpexSteal, 1);
    let budget_us = 2 * sweep_cfg.period.as_micros() as u64 - sweep_cfg.rtt_half.as_micros() as u64;

    let mut body = String::new();
    writeln!(body, "{{").unwrap();
    writeln!(body, "  \"schema\": 1,").unwrap();
    writeln!(body, "  \"quick\": {quick},").unwrap();
    writeln!(
        body,
        "  \"git_rev\": \"{}\",",
        crate::json_escape(&crate::git_rev())
    )
    .unwrap();
    writeln!(body, "  \"machine\": {},", crate::machine_json()).unwrap();

    writeln!(body, "  \"steal_path\": {{").unwrap();
    for (i, p) in paths.iter().enumerate() {
        let comma = if i + 1 < paths.len() { "," } else { "" };
        writeln!(
            body,
            "    \"{}\": {{ \"local_p50_us\": {}, \"stolen_p50_us\": {}, \
             \"steal_delta_us\": {}, \"mailbox_p50_us\": {}, \"mailbox_delta_us\": {} }}{}",
            task_key(p.task),
            fmt_f(p.local_p50_us),
            fmt_f(p.stolen_p50_us),
            fmt_f(p.steal_delta_us),
            fmt_f(p.mailbox_p50_us),
            fmt_f(p.mailbox_delta_us),
            comma
        )
        .unwrap();
    }
    writeln!(body, "  }},").unwrap();

    writeln!(body, "  \"single_cell\": {{").unwrap();
    writeln!(body, "    \"bandwidth\": \"1.4MHz\",").unwrap();
    writeln!(body, "    \"period_us\": {},", cell.period_us).unwrap();
    writeln!(body, "    \"proc_p50_us\": {},", fmt_f(cell.proc_p50_us)).unwrap();
    writeln!(body, "    \"proc_p99_us\": {},", fmt_f(cell.proc_p99_us)).unwrap();
    writeln!(body, "    \"sf_per_sec\": {},", fmt_f(cell.sf_per_sec)).unwrap();
    writeln!(body, "    \"miss_rate\": {},", fmt_f(cell.miss_rate)).unwrap();
    match cell.kernel_mean_us {
        Some(k) => {
            // The staged path adds arena bookkeeping and scheduling around
            // the same decode; within 1.5× of the bare-kernel mean counts
            // as no regression (the slack absorbs host-noise jitter).
            writeln!(body, "    \"kernel_baseline_us\": {},", fmt_f(k)).unwrap();
            writeln!(
                body,
                "    \"p50_vs_kernel\": {},",
                fmt_f(cell.proc_p50_us / k)
            )
            .unwrap();
            writeln!(
                body,
                "    \"no_regression\": {}",
                cell.proc_p50_us <= k * 1.5
            )
            .unwrap();
        }
        None => {
            writeln!(body, "    \"kernel_baseline_us\": null,").unwrap();
            writeln!(body, "    \"no_regression\": null").unwrap();
        }
    }
    writeln!(body, "  }},").unwrap();

    writeln!(body, "  \"sweep\": {{").unwrap();
    writeln!(
        body,
        "    \"config\": {{ \"bandwidth\": \"5MHz\", \"antennas\": 2, \
         \"period_us\": {}, \"budget_us\": {}, \"miss_threshold\": {}, \
         \"trials\": {}, \"max_cells\": {} }},",
        sweep_cfg.period.as_micros(),
        budget_us,
        MISS_THRESHOLD,
        trials,
        max_cells
    )
    .unwrap();
    writeln!(body, "    \"modes\": {{").unwrap();
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let miss: Vec<String> = r.miss.iter().map(|m| fmt_f(*m)).collect();
        writeln!(
            body,
            "      \"{}\": {{ \"miss\": [{}], \"cells_sustained\": {}, \
             \"sf_per_sec\": {}, \"steals\": {} }}{}",
            r.mode.name(),
            miss.join(", "),
            r.sustained,
            fmt_f(r.sf_per_sec),
            r.steals,
            comma
        )
        .unwrap();
    }
    writeln!(body, "    }}").unwrap();
    writeln!(body, "  }},").unwrap();

    eprintln!("multihost fronthaul overheads + demo…");
    body.push_str(&crate::multihost::section(quick));

    writeln!(body, "  \"headline\": {{").unwrap();
    writeln!(body, "    \"mutex_cells_sustained\": {mutex_n},").unwrap();
    writeln!(body, "    \"steal_cells_sustained\": {steal_n},").unwrap();
    writeln!(body, "    \"steal_ge_mutex\": {}", steal_n >= mutex_n).unwrap();
    writeln!(body, "  }}").unwrap();
    writeln!(body, "}}").unwrap();

    std::fs::write(path, body).expect("write node baseline");
    eprintln!(
        "wrote {path}: steal sustains {steal_n} cell(s), mutex {mutex_n}, \
         single-cell p50 {:.0} µs",
        cell.proc_p50_us
    );
}
