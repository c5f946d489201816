//! Pass 3 — the static Eq. 3 schedulability audit.
//!
//! Re-derives the paper's deadline arithmetic from the one tracked
//! baseline, `BENCH_kernels.json`, and gates every shipped scheduler
//! config against it:
//!
//! * **valid baseline** — the file must have been recorded on at least
//!   two cores (`machine.cores ≥ 2`, the benchmark's own `nproc ≥ 2`
//!   rule): its `handoff` block times a second thread picking up work,
//!   which a one-core recording measures as time-sharing. An invalid
//!   baseline certifies nothing.
//! * **Eq. 3 budget** — a γ-calibrated kernel component model (FFT
//!   `n·log₂n` fit, turbo linear-in-K interpolation over the measured
//!   {512, 2048, 6144} points, per-Qm demapper scaling) estimates the
//!   worst-MCS subframe processing time `T̂_w` per (bandwidth, MCS);
//!   every shipped (scheduler, cells, MCS) tuple must satisfy
//!   `T̂_w ≤ 2·period − rtt_half` (the dilated Eq. 3 budget) and the
//!   2-cores-per-cell utilization bound `T̂_w ≤ 2·period`.
//! * **δ admission sanity** — a config's declared δ must not be below
//!   the *measured* hand-off overhead of its migration path (`handoff`
//!   `steal_delta_us` / `mailbox_delta_us`, worst stage) nor below the
//!   smallest migratable subtask (an FFT transform): a δ smaller than
//!   either makes Alg. 1's `tp + δ ≤ slack` test admit migrations whose
//!   bookkeeping exceeds the work moved.
//!
//! The PHY structure (FFT sizes, PRB/TBS tables, turbo segmentation)
//! and the shipped configs are *mirrored* here rather than imported, so
//! the analyzer stays dependency-free; `tests/mirror_check.rs` proves
//! (via dev-dependencies) that every mirrored table equals the shipped
//! constructors' output.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::json::Json;
use crate::Violation;

// ---------------------------------------------------------------------
// Mirrored LTE structure (cross-checked by tests/mirror_check.rs).
// ---------------------------------------------------------------------

/// Mirrored `rtopex_phy::params::Bandwidth`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bw {
    Mhz1_4,
    Mhz3,
    Mhz5,
    Mhz10,
    Mhz15,
    Mhz20,
}

/// Mirrored `SYMBOLS_PER_SUBFRAME`.
pub const SYMBOLS_PER_SUBFRAME: usize = 14;

impl Bw {
    pub const fn fft_size(self) -> usize {
        match self {
            Bw::Mhz1_4 => 128,
            Bw::Mhz3 => 256,
            Bw::Mhz5 => 512,
            Bw::Mhz10 => 1024,
            Bw::Mhz15 => 1536,
            Bw::Mhz20 => 2048,
        }
    }

    pub const fn num_prbs(self) -> usize {
        match self {
            Bw::Mhz1_4 => 6,
            Bw::Mhz3 => 15,
            Bw::Mhz5 => 25,
            Bw::Mhz10 => 50,
            Bw::Mhz15 => 75,
            Bw::Mhz20 => 100,
        }
    }

    pub const fn num_subcarriers(self) -> usize {
        self.num_prbs() * 12
    }

    /// Data REs: everything except the two DMRS symbols.
    pub const fn data_res(self) -> usize {
        self.num_subcarriers() * (SYMBOLS_PER_SUBFRAME - 2)
    }

    pub const fn label(self) -> &'static str {
        match self {
            Bw::Mhz1_4 => "1.4MHz",
            Bw::Mhz3 => "3MHz",
            Bw::Mhz5 => "5MHz",
            Bw::Mhz10 => "10MHz",
            Bw::Mhz15 => "15MHz",
            Bw::Mhz20 => "20MHz",
        }
    }
}

/// Mirrored `Mcs::modulation_order`.
pub const fn qm(mcs: u8) -> usize {
    match mcs {
        0..=10 => 2,
        11..=20 => 4,
        _ => 6,
    }
}

/// Mirrored 36.213 TBS column for N_PRB = 50, indexed by I_TBS.
const TBS_50PRB: [usize; 27] = [
    1384, 1800, 2216, 2856, 3624, 4392, 5160, 6200, 6968, 7992, 8760, 9912, 11448, 12960, 14112,
    15264, 16416, 18336, 19848, 21384, 22920, 25456, 27376, 28336, 30576, 31704, 32856,
];

/// Mirrored `Mcs::tbs_index` + `transport_block_bits`.
pub fn tbs_bits(mcs: u8, nprb: usize) -> usize {
    let i_tbs = match mcs {
        0..=10 => mcs as usize,
        11..=20 => mcs as usize - 1,
        _ => mcs as usize - 2,
    };
    let base = TBS_50PRB[i_tbs];
    if nprb == 50 {
        return base;
    }
    let scaled = base as u64 * nprb as u64 / 50;
    ((scaled / 8 * 8) as usize).max(16)
}

const MAX_CODE_BLOCK: usize = 6144;
const BLOCK_CRC_LEN: usize = 24;
/// Transport-block CRC24A length prepended before segmentation.
pub const TB_CRC_LEN: usize = 24;

fn next_valid_k(want: usize) -> Option<usize> {
    if want > MAX_CODE_BLOCK {
        return None;
    }
    Some(if want <= 512 {
        40usize.max(want.div_ceil(8) * 8)
    } else if want <= 1024 {
        want.div_ceil(16) * 16
    } else if want <= 2048 {
        want.div_ceil(32) * 32
    } else {
        want.div_ceil(64) * 64
    })
}

fn prev_valid_k(k: usize) -> Option<usize> {
    if k <= 40 {
        return None;
    }
    let want = k - 1;
    Some(if want <= 512 {
        40usize.max(want / 8 * 8)
    } else if want <= 1024 {
        (want / 16 * 16).max(512)
    } else if want <= 2048 {
        (want / 32 * 32).max(1024)
    } else {
        (want / 64 * 64).max(2048)
    })
}

/// Mirrored `Segmentation::compute(b).block_sizes()` for a transport
/// block of `b` bits (TB CRC included).
pub fn block_sizes(b: usize) -> Vec<usize> {
    let (c, b_prime) = if b <= MAX_CODE_BLOCK {
        (1, b)
    } else {
        let c = b.div_ceil(MAX_CODE_BLOCK - BLOCK_CRC_LEN);
        (c, b + c * BLOCK_CRC_LEN)
    };
    let Some(k_plus) = next_valid_k(b_prime.div_ceil(c)) else {
        return Vec::new();
    };
    let (k_minus, c_minus, c_plus) = if c == 1 {
        (0, 0, 1)
    } else {
        match prev_valid_k(k_plus) {
            Some(k_minus) => {
                let delta = k_plus - k_minus;
                let c_minus = (c * k_plus - b_prime) / delta;
                (k_minus, c_minus, c - c_minus)
            }
            None => (0, 0, c),
        }
    };
    let mut out = vec![k_minus; c_minus];
    out.extend(std::iter::repeat_n(k_plus, c_plus));
    out
}

// ---------------------------------------------------------------------
// Mirrored shipped configs (cross-checked by tests/mirror_check.rs).
// ---------------------------------------------------------------------

/// Scheduler modes, named as `SchedulerMode::name` names them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Partitioned,
    Global,
    RtOpexMutex,
    RtOpexSteal,
}

impl Mode {
    pub const fn key(self) -> &'static str {
        match self {
            Mode::Partitioned => "partitioned",
            Mode::Global => "global",
            Mode::RtOpexMutex => "rtopex_mutex",
            Mode::RtOpexSteal => "rtopex_steal",
        }
    }
}

/// A mirrored shipped scheduler config.
#[derive(Clone, Debug)]
pub struct MirrorConfig {
    /// Short name used in the report.
    pub name: &'static str,
    /// Source file declaring the real constructor (for diagnostics).
    pub file: &'static str,
    pub bw: Bw,
    pub cells: usize,
    pub period_us: f64,
    pub rtt_half_us: f64,
    pub mcs_pool: &'static [u8],
    pub delta_us: f64,
    /// Modes the config ships with / is swept over.
    pub modes: &'static [Mode],
}

impl MirrorConfig {
    /// Dilated Eq. 3 budget: `2·period − rtt_half`.
    pub fn budget_us(&self) -> f64 {
        2.0 * self.period_us - self.rtt_half_us
    }
}

/// Every scheduler config the repo ships.
pub fn shipped_configs() -> Vec<MirrorConfig> {
    vec![
        MirrorConfig {
            name: "cluster-demo",
            file: "crates/runtime/src/cluster.rs",
            bw: Bw::Mhz1_4,
            cells: 3,
            period_us: 1_000.0,
            rtt_half_us: 1_000.0,
            mcs_pool: &[5, 10, 16, 22, 27],
            delta_us: 60.0,
            modes: &[Mode::RtOpexSteal],
        },
        MirrorConfig {
            name: "experiments-cluster-sweep",
            file: "crates/experiments/src/cluster_scale.rs",
            bw: Bw::Mhz5,
            cells: 5,
            period_us: 6_000.0,
            rtt_half_us: 7_000.0,
            mcs_pool: &[5, 10, 16, 22, 27],
            delta_us: 60.0,
            modes: &[
                Mode::Partitioned,
                Mode::Global,
                Mode::RtOpexMutex,
                Mode::RtOpexSteal,
            ],
        },
    ]
}

// ---------------------------------------------------------------------
// The tracked baseline.
// ---------------------------------------------------------------------

/// `machine.cores` of the baseline: the core count it was recorded on.
pub fn parse_cores(src: &str) -> Result<usize, String> {
    Json::parse(src)?
        .path(&["machine", "cores"])
        .and_then(Json::as_f64)
        .map(|c| c as usize)
        .ok_or_else(|| "missing machine.cores".into())
}

/// WCET inputs parsed from `BENCH_kernels.json`.
#[derive(Debug, Clone)]
pub struct KernelTable {
    /// Measured turbo per-iteration cost as `(K, ns)` points, ascending.
    pub turbo: Vec<(f64, f64)>,
    /// Per-data-symbol demap cost for Qm 2/4/6 (ns).
    pub demap_per_sym_ns: [f64; 3],
    /// Per-RE MRC/equalize cost at 2 antennas (ns).
    pub mrc_per_re_ns: f64,
    /// Measured FFT forward costs as `(n, ns)` points.
    pub fft: Vec<(usize, f64)>,
    /// Measured end-to-end subframe decode, 1.4 MHz MCS 27 (ns) — the
    /// γ-calibration anchor.
    pub subframe_ref_ns: f64,
}

/// Parses the `kernels` block of `BENCH_kernels.json`.
pub fn parse_kernels(src: &str) -> Result<KernelTable, String> {
    let j = Json::parse(src)?;
    let kernels = j.get("kernels").ok_or("missing `kernels` object")?;
    let mean = |name: &str| -> Result<f64, String> {
        kernels
            .path(&[name, "mean_ns"])
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing kernel `{name}`"))
    };
    let mut turbo = Vec::new();
    let mut fft = Vec::new();
    for (key, _) in kernels.fields() {
        if let Some(k) = key.strip_prefix("turbo_decode_1iter_") {
            let k: f64 = k.parse().map_err(|_| format!("bad turbo key `{key}`"))?;
            turbo.push((k, mean(key)?));
        } else if let Some(n) = key.strip_prefix("fft_forward_") {
            let n: usize = n.parse().map_err(|_| format!("bad fft key `{key}`"))?;
            fft.push((n, mean(key)?));
        }
    }
    turbo.sort_by(|a, b| a.0.total_cmp(&b.0));
    fft.sort_by_key(|(n, _)| *n);
    if turbo.len() < 2 {
        return Err("need at least two turbo_decode_1iter_* points".into());
    }
    Ok(KernelTable {
        turbo,
        demap_per_sym_ns: [
            mean("demap_600sym_qm_2")? / 600.0,
            mean("demap_600sym_qm_4")? / 600.0,
            mean("demap_600sym_qm_6")? / 600.0,
        ],
        mrc_per_re_ns: mean("mrc_600sc_2ant_600")? / 600.0,
        fft,
        subframe_ref_ns: mean("subframe_decode_mhz1_4_mcs_27")?,
    })
}

/// Measured migration hand-off, worst migratable stage, from the
/// `handoff` block of `BENCH_kernels.json`.
#[derive(Debug, Clone, Copy)]
pub struct Handoff {
    /// Steal-ticket path δ (µs).
    pub steal_delta_us: f64,
    /// Mailbox path δ (µs).
    pub mailbox_delta_us: f64,
}

/// Parses the `handoff` block: the larger of the FFT and decode deltas
/// per path.
pub fn parse_handoff(src: &str) -> Result<Handoff, String> {
    let j = Json::parse(src)?;
    let delta = |stage: &str, key: &str| -> Result<f64, String> {
        j.path(&["handoff", stage, key])
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing `handoff.{stage}.{key}`"))
    };
    let worst =
        |key: &str| -> Result<f64, String> { Ok(delta("fft", key)?.max(delta("decode", key)?)) };
    Ok(Handoff {
        steal_delta_us: worst("steal_delta_us")?,
        mailbox_delta_us: worst("mailbox_delta_us")?,
    })
}

// ---------------------------------------------------------------------
// The γ-calibrated component model.
// ---------------------------------------------------------------------

/// Modeled FFT cost (ns) for size `n`: measured point if tracked,
/// otherwise an `n·log₂n` fit whose per-op constant is interpolated in
/// `log₂n` between the power-of-two anchors.
pub fn fft_cost_ns(t: &KernelTable, n: usize) -> f64 {
    if let Some((_, ns)) = t.fft.iter().find(|(m, _)| *m == n) {
        return *ns;
    }
    let anchors: Vec<(f64, f64)> = t
        .fft
        .iter()
        .filter(|(m, _)| m.is_power_of_two())
        .map(|(m, ns)| {
            let lg = (*m as f64).log2();
            (lg, ns / (*m as f64 * lg))
        })
        .collect();
    let lg = (n as f64).log2();
    let c = interp(&anchors, lg);
    c * n as f64 * lg
}

/// Modeled turbo per-iteration cost (ns) at block size `k`, linear
/// between the measured K points (clamped extrapolation outside).
pub fn iter_cost_ns(t: &KernelTable, k: usize) -> f64 {
    interp(&t.turbo, k as f64)
}

/// Piecewise-linear interpolation over ascending `(x, y)` points.
fn interp(points: &[(f64, f64)], x: f64) -> f64 {
    match points {
        [] => 0.0,
        [(_, y)] => *y,
        _ => {
            let i = points
                .windows(2)
                .position(|w| x <= w[1].0)
                .unwrap_or(points.len() - 2);
            let (x0, y0) = points[i];
            let (x1, y1) = points[i + 1];
            y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        }
    }
}

/// Uncalibrated subframe component model (ns).
pub fn modeled_subframe_ns(t: &KernelTable, bw: Bw, mcs: u8, antennas: usize) -> f64 {
    let ffts = (SYMBOLS_PER_SUBFRAME * antennas) as f64 * fft_cost_ns(t, bw.fft_size());
    let mrc = t.mrc_per_re_ns
        * (bw.num_subcarriers() * SYMBOLS_PER_SUBFRAME) as f64
        * (antennas as f64 / 2.0);
    let qi = match qm(mcs) {
        2 => 0,
        4 => 1,
        _ => 2,
    };
    let demap = t.demap_per_sym_ns[qi] * bw.data_res() as f64;
    let b = tbs_bits(mcs, bw.num_prbs()) + TB_CRC_LEN;
    let turbo: f64 = block_sizes(b)
        .iter()
        .map(|&k| iter_cost_ns(t, k) * MAX_TURBO_ITERS as f64)
        .sum();
    ffts + mrc + demap + turbo
}

/// Mirrored `rtopex_phy::mcs::DEFAULT_MAX_TURBO_ITERS`.
pub const MAX_TURBO_ITERS: usize = 4;

/// Calibration factor γ: measured end-to-end subframe decode over the
/// component model at the same operating point (1.4 MHz, MCS 27,
/// 2 antennas). γ < 1 captures early-terminating turbo iterations and
/// cache effects the per-kernel microbenches cannot see.
pub fn gamma(t: &KernelTable) -> f64 {
    t.subframe_ref_ns / modeled_subframe_ns(t, Bw::Mhz1_4, 27, 2)
}

/// Calibrated subframe processing estimate `T̂` (µs).
pub fn estimate_us(t: &KernelTable, bw: Bw, mcs: u8, antennas: usize) -> f64 {
    gamma(t) * modeled_subframe_ns(t, bw, mcs, antennas) / 1_000.0
}

/// Smallest migratable subtask (µs): one FFT transform — the finest
/// granule `fanout_steal` publishes.
pub fn smallest_subtask_us(t: &KernelTable, bw: Bw) -> f64 {
    gamma(t) * fft_cost_ns(t, bw.fft_size()) / 1_000.0
}

// ---------------------------------------------------------------------
// The audit.
// ---------------------------------------------------------------------

/// Audit outcome: gating violations plus the JSON report body.
#[derive(Debug)]
pub struct Audit {
    pub violations: Vec<Violation>,
    pub report: String,
}

/// The tracked baseline, relative to the workspace root.
const BASELINE: &str = "BENCH_kernels.json";

/// Audits the workspace: the tracked baseline against the shipped
/// configs.
pub fn audit_workspace(root: &Path) -> Audit {
    match fs::read_to_string(root.join(BASELINE)) {
        Ok(k) => audit(&k, &shipped_configs()),
        Err(e) => refused(parse_violation(format!("{BASELINE}: {e}"))),
    }
}

/// Audits explicit inputs (fixture tests inject doctored baselines and
/// configs here).
pub fn audit(kernels_src: &str, configs: &[MirrorConfig]) -> Audit {
    match parse_cores(kernels_src) {
        Ok(cores) if cores >= 2 => {}
        found => {
            let found = match found {
                Ok(cores) => format!("was recorded on {cores} core(s)"),
                Err(e) => e,
            };
            return refused(Violation {
                file: BASELINE.into(),
                line: 0,
                pass: "sched",
                class: "invalid-baseline",
                msg: format!(
                    "baseline {found}: the hand-off is a two-thread measurement, so only a file recorded with `machine.cores` ≥ 2 can certify — re-record with `cargo run --release -p rtopex-bench` on a multi-core host"
                ),
            });
        }
    }
    let parsed = parse_kernels(kernels_src).and_then(|t| Ok((t, parse_handoff(kernels_src)?)));
    let (table, handoff) = match parsed {
        Ok(p) => p,
        Err(e) => return refused(parse_violation(e)),
    };

    let mut v = Vec::new();
    let mut report = String::from("{\n");
    let g = gamma(&table);
    let _ = writeln!(report, "  \"gamma\": {g:.4},");
    let _ = writeln!(
        report,
        "  \"handoff\": {{\"steal_delta_us\": {:.2}, \"mailbox_delta_us\": {:.2}}},",
        handoff.steal_delta_us, handoff.mailbox_delta_us
    );
    let _ = writeln!(report, "  \"configs\": [");

    for (ci, cfg) in configs.iter().enumerate() {
        let budget = cfg.budget_us();
        let _ = writeln!(report, "    {{");
        let _ = writeln!(report, "      \"name\": \"{}\",", cfg.name);
        let _ = writeln!(
            report,
            "      \"bandwidth\": \"{}\", \"cells\": {}, \"period_us\": {}, \"budget_us\": {}, \"delta_us\": {},",
            cfg.bw.label(),
            cfg.cells,
            cfg.period_us,
            budget,
            cfg.delta_us
        );
        let _ = writeln!(report, "      \"mcs\": [");
        for (mi, &mcs) in cfg.mcs_pool.iter().enumerate() {
            let t_hat = estimate_us(&table, cfg.bw, mcs, 2);
            let eq3_ok = t_hat <= budget;
            let util_ok = t_hat <= 2.0 * cfg.period_us;
            let comma = if mi + 1 < cfg.mcs_pool.len() { "," } else { "" };
            let _ = writeln!(
                report,
                "        {{\"mcs\": {mcs}, \"t_hat_us\": {t_hat:.1}, \"eq3_ok\": {eq3_ok}, \"util_ok\": {util_ok}}}{comma}"
            );
            if !eq3_ok || !util_ok {
                for mode in cfg.modes {
                    v.push(Violation {
                        file: cfg.file.to_string(),
                        line: 0,
                        pass: "sched",
                        class: "unschedulable",
                        msg: format!(
                            "config `{}` ({}, {} cells, {}) is statically unschedulable at MCS {mcs}: T̂_w = {t_hat:.1} µs exceeds {} (Eq. 3 budget {budget:.0} µs, 2-core bound {:.0} µs)",
                            cfg.name,
                            cfg.bw.label(),
                            cfg.cells,
                            mode.key(),
                            if eq3_ok { "the 2-core utilization bound" } else { "the Eq. 3 budget" },
                            2.0 * cfg.period_us,
                        ),
                    });
                }
            }
        }
        let _ = writeln!(report, "      ],");

        // δ admission sanity, for the modes that migrate.
        let smallest = smallest_subtask_us(&table, cfg.bw);
        let _ = writeln!(report, "      \"smallest_subtask_us\": {smallest:.2}");
        for mode in cfg.modes {
            let measured = match mode {
                Mode::RtOpexSteal => handoff.steal_delta_us,
                Mode::RtOpexMutex => handoff.mailbox_delta_us,
                _ => continue,
            };
            if cfg.delta_us < measured {
                v.push(Violation {
                    file: cfg.file.to_string(),
                    line: 0,
                    pass: "sched",
                    class: "delta-too-small",
                    msg: format!(
                        "config `{}`: declared δ = {} µs is below the measured {} hand-off overhead {measured:.1} µs — Alg. 1 would admit migrations that cannot pay for themselves",
                        cfg.name,
                        cfg.delta_us,
                        mode.key()
                    ),
                });
            }
            if cfg.delta_us < smallest {
                v.push(Violation {
                    file: cfg.file.to_string(),
                    line: 0,
                    pass: "sched",
                    class: "delta-too-small",
                    msg: format!(
                        "config `{}`: declared δ = {} µs is below the smallest migratable subtask ({smallest:.1} µs FFT at {}) — the admission test degenerates",
                        cfg.name,
                        cfg.delta_us,
                        cfg.bw.label()
                    ),
                });
            }
        }
        let comma = if ci + 1 < configs.len() { "," } else { "" };
        let _ = writeln!(report, "    }}{comma}");
    }
    let _ = writeln!(report, "  ]");
    report.push_str("}\n");

    Audit {
        violations: v,
        report,
    }
}

/// An audit that certifies nothing: one violation, an empty report.
fn refused(v: Violation) -> Audit {
    Audit {
        violations: vec![v],
        report: "{}".into(),
    }
}

fn parse_violation(err: String) -> Violation {
    Violation {
        file: BASELINE.into(),
        line: 0,
        pass: "sched",
        class: "bench-parse",
        msg: err,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNELS: &str = include_str!("../../../BENCH_kernels.json");

    #[test]
    fn gamma_is_sane() {
        let t = parse_kernels(KERNELS).unwrap();
        let g = gamma(&t);
        assert!(g > 0.1 && g < 2.0, "gamma = {g}");
        // The calibration anchor reproduces itself exactly.
        let anchor = estimate_us(&t, Bw::Mhz1_4, 27, 2);
        assert!((anchor - t.subframe_ref_ns / 1000.0).abs() < 1e-6);
    }

    #[test]
    fn fft_model_matches_tracked_points_and_interpolates() {
        let t = parse_kernels(KERNELS).unwrap();
        let point = |n: usize| t.fft.iter().find(|(m, _)| *m == n).unwrap().1;
        assert_eq!(fft_cost_ns(&t, 128), point(128));
        let t512 = fft_cost_ns(&t, 512);
        assert!(t512 > point(128) && t512 < point(1024), "fft512 = {t512}");
    }

    #[test]
    fn shipped_configs_pass_the_audit() {
        let a = audit(KERNELS, &shipped_configs());
        assert!(a.violations.is_empty(), "{:#?}", a.violations);
        assert!(a.report.contains("\"configs\""));
    }

    #[test]
    fn baseline_without_a_core_count_is_invalid() {
        let doc = KERNELS.replace("\"cores\"", "\"cpus\"");
        let a = audit(&doc, &shipped_configs());
        assert_eq!(a.violations.len(), 1, "{:#?}", a.violations);
        assert_eq!(a.violations[0].class, "invalid-baseline");
    }

    #[test]
    fn baseline_without_handoff_is_a_parse_error() {
        let doc = KERNELS.replace("\"handoff\"", "\"hand_off\"");
        let a = audit(&doc, &shipped_configs());
        assert!(
            a.violations.iter().any(|v| v.class == "bench-parse"),
            "{:#?}",
            a.violations
        );
    }

    #[test]
    fn unschedulable_config_is_caught() {
        let bad = MirrorConfig {
            name: "bad",
            file: "fixture.rs",
            bw: Bw::Mhz5,
            cells: 2,
            period_us: 300.0,
            rtt_half_us: 100.0,
            mcs_pool: &[27],
            delta_us: 60.0,
            modes: &[Mode::RtOpexSteal],
        };
        let a = audit(KERNELS, &[bad]);
        assert!(
            a.violations.iter().any(|v| v.class == "unschedulable"),
            "{:#?}",
            a.violations
        );
    }

    #[test]
    fn tiny_delta_is_caught() {
        let bad = MirrorConfig {
            name: "tiny-delta",
            file: "fixture.rs",
            bw: Bw::Mhz5,
            cells: 2,
            period_us: 6_000.0,
            rtt_half_us: 7_000.0,
            mcs_pool: &[27],
            delta_us: 0.5,
            modes: &[Mode::RtOpexSteal],
        };
        let a = audit(KERNELS, &[bad]);
        assert!(
            a.violations.iter().any(|v| v.class == "delta-too-small"),
            "{:#?}",
            a.violations
        );
    }

    #[test]
    fn report_is_valid_json() {
        let a = audit(KERNELS, &shipped_configs());
        crate::json::Json::parse(&a.report).expect("report must parse");
    }
}
