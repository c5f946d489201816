//! Pass 3 — the static Eq. 3 schedulability audit.
//!
//! Re-derives the paper's deadline arithmetic from the *tracked* bench
//! baselines alone (`BENCH_kernels.json`, `BENCH_node.json`) and gates
//! every shipped scheduler config against it:
//!
//! * **Eq. 3 budget** — a γ-calibrated kernel component model (FFT
//!   `n·log₂n` fit, turbo linear-in-K interpolation over the measured
//!   {512, 2048, 6144} points, per-Qm demapper scaling) estimates the
//!   worst-MCS subframe processing time `T̂_w` per (bandwidth, MCS);
//!   every shipped (scheduler, cells, MCS) tuple must satisfy
//!   `T̂_w ≤ 2·period − rtt_half` (the dilated Eq. 3 budget) and the
//!   2-cores-per-cell utilization bound `T̂_w ≤ 2·period`.
//! * **δ admission sanity** — a config's declared δ must not be below
//!   the *measured* handoff overhead of its migration path
//!   (`steal_delta` / `mailbox_delta` from `BENCH_node.json`) nor below
//!   the smallest migratable subtask (an FFT transform): a δ smaller
//!   than either makes Alg. 1's `tp + δ ≤ slack` test admit migrations
//!   whose bookkeeping exceeds the work moved.
//! * **capacity reproduction** — recomputes `cells_sustained` per mode
//!   from the raw miss arrays + threshold (the leading-run rule the
//!   experiment uses) and fails if the recomputed table drifts from the
//!   recorded one or if the paper's ordering steal ≥ mutex ≥ global no
//!   longer holds.
//! * **fleet-level pooling gate** (`BENCH_sim.json`) — re-fits the
//!   pooling curve `cells/core = a + b/H` from the recorded per-mode
//!   sweep arrays and flags any shipped fleet deployment whose
//!   `cells_per_host` exceeds the fitted capacity at its fleet size.
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

/// Scheduler modes, named as in `BENCH_node.json`.
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
            name: "example-cran-node",
            file: "examples/cran_node.rs",
            bw: Bw::Mhz1_4,
            cells: 2,
            period_us: 1_000.0,
            rtt_half_us: 1_000.0,
            mcs_pool: &[10, 16, 27],
            delta_us: 60.0,
            modes: &[Mode::Partitioned, Mode::RtOpexMutex, Mode::RtOpexSteal],
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
// Tracked bench baselines.
// ---------------------------------------------------------------------

/// Minimum recorded batched-turbo speedup (`batched.*.speedup` in
/// `BENCH_kernels.json`) the tracked baseline must keep: the cross-cell
/// batched drain exists to outrun per-call dispatch, so a recorded batch
/// that no longer pays for itself is a regression to profile before
/// re-recording. The floor sits under the ~1.35× measured at batch 4 so
/// host-noise jitter across re-records does not flap the gate.
pub const MIN_BATCH_SPEEDUP: f64 = 1.2;

/// One `machine` fingerprint from a tracked `BENCH_*.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineFp {
    pub cpu: String,
    pub cores: usize,
    /// Widest SIMD tier (empty when an old file predates the field).
    pub simd_tier: String,
}

/// Parses the `machine` block of any `BENCH_*.json`.
pub fn parse_machine(src: &str) -> Result<MachineFp, String> {
    let j = Json::parse(src)?;
    let m = j.get("machine").ok_or("missing `machine` block")?;
    Ok(MachineFp {
        cpu: m
            .get("cpu")
            .and_then(Json::as_str)
            .ok_or("missing machine.cpu")?
            .to_string(),
        cores: m
            .get("cores")
            .and_then(Json::as_f64)
            .ok_or("missing machine.cores")? as usize,
        simd_tier: m
            .get("simd_tier")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
    })
}

/// Cross-checks the machine fingerprints of the tracked baselines. The γ
/// calibration transfers `BENCH_kernels.json` measurements onto
/// `BENCH_node.json` budgets (and the fleet gate extrapolates from
/// `BENCH_sim.json`), which is only meaningful when every file was
/// recorded on the same machine — CPU model, core count and widest SIMD
/// tier must all agree, or the whole Eq. 3 audit compares apples to
/// oranges.
pub fn audit_machines(files: &[(&str, &str)]) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut parsed: Vec<(&str, MachineFp)> = Vec::new();
    for (name, src) in files {
        match parse_machine(src) {
            Ok(fp) => parsed.push((name, fp)),
            Err(e) => v.push(Violation {
                file: name.to_string(),
                line: 0,
                pass: "sched",
                class: "machine-fingerprint",
                msg: format!(
                    "{e} — regenerate with rtopex-bench so the analyzer can refuse cross-machine baseline comparisons"
                ),
            }),
        }
    }
    let Some((first_name, first)) = parsed.first() else {
        return v;
    };
    for (name, fp) in &parsed[1..] {
        let tier_differs = !fp.simd_tier.is_empty()
            && !first.simd_tier.is_empty()
            && fp.simd_tier != first.simd_tier;
        if fp.cpu != first.cpu || fp.cores != first.cores || tier_differs {
            v.push(Violation {
                file: name.to_string(),
                line: 0,
                pass: "sched",
                class: "machine-mismatch",
                msg: format!(
                    "machine fingerprint ({}, {} cores, {}) disagrees with {first_name} ({}, {} cores, {}) — baselines from different machines cannot be compared; regenerate all BENCH_*.json on one host",
                    fp.cpu, fp.cores, fp.simd_tier, first.cpu, first.cores, first.simd_tier
                ),
            });
        }
    }
    v
}

/// Recorded batched-dispatch speedups from `BENCH_kernels.json`
/// (`batched.*.speedup`); empty when the section is absent (fixtures
/// predating batched dispatch).
pub fn parse_batched(src: &str) -> Result<Vec<(String, f64)>, String> {
    let j = Json::parse(src)?;
    let Some(b) = j.get("batched") else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    for (key, val) in b.fields() {
        let s = val
            .get("speedup")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing speedup for batched entry `{key}`"))?;
        out.push((key.clone(), s));
    }
    Ok(out)
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

/// Parses `BENCH_kernels.json`.
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

/// Migration-overhead and capacity inputs parsed from `BENCH_node.json`.
#[derive(Debug, Clone)]
pub struct NodeBench {
    /// Worst measured steal-path handoff delta (µs).
    pub steal_delta_us: f64,
    /// Worst measured mailbox handoff delta (µs).
    pub mailbox_delta_us: f64,
    /// Sweep miss threshold.
    pub miss_threshold: f64,
    /// Per-mode `(key, miss array, recorded cells_sustained)`.
    pub modes: Vec<(String, Vec<f64>, usize)>,
    /// Recorded headline claim.
    pub headline_steal_ge_mutex: bool,
    /// Real-network fronthaul section, when recorded.
    pub multihost: Option<MultihostBench>,
}

/// The `multihost` block of `BENCH_node.json`: per-transport fronthaul
/// rx overheads on loopback plus the verdict of the localhost
/// multi-process demo (`rtopex-fronthaul --spawn`).
#[derive(Debug, Clone)]
pub struct MultihostBench {
    /// Cadence period (µs) the overheads were measured against.
    pub period_us: f64,
    /// Per-transport `(name, handoff_p50_us, rx_per_subframe_us)`.
    pub transports: Vec<(String, f64, f64)>,
    /// Aggregate miss rate of the spawned multi-process demo.
    pub demo_miss_rate: f64,
    /// Sequence gaps observed by the demo workers.
    pub demo_gaps: f64,
    /// Recorded demo verdict (miss bar + crc + full delivery).
    pub demo_ok: bool,
}

/// Parses `BENCH_node.json`.
pub fn parse_node(src: &str) -> Result<NodeBench, String> {
    let j = Json::parse(src)?;
    let delta = |path: &[&str]| -> Result<f64, String> {
        j.path(path)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing `{}`", path.join(".")))
    };
    let steal_delta_us = delta(&["steal_path", "fft", "steal_delta_us"])?.max(delta(&[
        "steal_path",
        "decode",
        "steal_delta_us",
    ])?);
    let mailbox_delta_us = delta(&["steal_path", "fft", "mailbox_delta_us"])?.max(delta(&[
        "steal_path",
        "decode",
        "mailbox_delta_us",
    ])?);
    let miss_threshold = delta(&["sweep", "config", "miss_threshold"])?;
    let mut modes = Vec::new();
    for (key, val) in j
        .path(&["sweep", "modes"])
        .ok_or("missing sweep.modes")?
        .fields()
    {
        let miss: Vec<f64> = val
            .get("miss")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing miss array for `{key}`"))?
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        let recorded = val
            .get("cells_sustained")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing cells_sustained for `{key}`"))?
            as usize;
        modes.push((key.clone(), miss, recorded));
    }
    let multihost = j.get("multihost").map(|m| {
        let mut transports = Vec::new();
        if let Some(t) = m.get("transports") {
            for (name, val) in t.fields() {
                transports.push((
                    name.clone(),
                    val.get("handoff_p50_us")
                        .and_then(Json::as_f64)
                        .unwrap_or(-1.0),
                    val.get("rx_per_subframe_us")
                        .and_then(Json::as_f64)
                        .unwrap_or(-1.0),
                ));
            }
        }
        MultihostBench {
            period_us: m.get("period_us").and_then(Json::as_f64).unwrap_or(0.0),
            transports,
            demo_miss_rate: m
                .path(&["demo", "miss_rate"])
                .and_then(Json::as_f64)
                .unwrap_or(1.0),
            demo_gaps: m
                .path(&["demo", "gaps"])
                .and_then(Json::as_f64)
                .unwrap_or(-1.0),
            demo_ok: m
                .path(&["demo", "ok"])
                .and_then(Json::as_bool)
                .unwrap_or(false),
        }
    });
    Ok(NodeBench {
        steal_delta_us,
        mailbox_delta_us,
        miss_threshold,
        modes,
        headline_steal_ge_mutex: j
            .path(&["headline", "steal_ge_mutex"])
            .and_then(Json::as_bool)
            .unwrap_or(false),
        multihost,
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

/// Mirrored `DEFAULT_MAX_TURBO_ITERS`.
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

/// The leading-run capacity rule the cluster sweep uses: cells
/// sustained = longest prefix of the miss array under the threshold.
pub fn cells_sustained(miss: &[f64], threshold: f64) -> usize {
    miss.iter().take_while(|m| **m < threshold).count()
}

// ---------------------------------------------------------------------
// Mirrored fleet deployments + pooling-curve fit
// (cross-checked by tests/mirror_check.rs).
// ---------------------------------------------------------------------

/// Mirrored `rtopex_experiments::pooling::CORE_BUDGET`.
pub const FLEET_CORE_BUDGET: usize = 8;

/// Mirrored `rtopex_experiments::pooling::MISS_BUDGET`.
pub const FLEET_MISS_BUDGET: f64 = 5e-3;

/// A mirrored `rtopex_experiments::pooling::FleetDeployment`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetMirror {
    pub name: &'static str,
    pub hosts: usize,
    /// Pooling-sweep mode name (a `pooling.modes` key in `BENCH_sim.json`).
    pub mode: &'static str,
    pub cells_per_host: usize,
}

/// Mirrored `rtopex_experiments::pooling::SHIPPED_FLEET_CONFIGS`.
pub fn shipped_fleet_configs() -> Vec<FleetMirror> {
    vec![
        FleetMirror {
            name: "edge-4",
            hosts: 4,
            mode: "rtopex-steal",
            cells_per_host: 4,
        },
        FleetMirror {
            name: "metro-16",
            hosts: 16,
            mode: "rtopex-steal",
            cells_per_host: 4,
        },
        FleetMirror {
            name: "region-64",
            hosts: 64,
            mode: "partitioned",
            cells_per_host: 4,
        },
    ]
}

/// Mirrored `rtopex_experiments::pooling::fit_inverse`: least-squares
/// fit of `y = a + b/H` in `x = 1/H`, returning `(a, b)`.
pub fn fit_inverse(hosts: &[f64], y: &[f64]) -> (f64, f64) {
    assert_eq!(hosts.len(), y.len(), "fit needs one y per fleet size");
    assert!(!hosts.is_empty(), "fit needs at least one point");
    let n = hosts.len() as f64;
    let xs: Vec<f64> = hosts.iter().map(|&h| 1.0 / h).collect();
    let xbar = xs.iter().sum::<f64>() / n;
    let ybar = y.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - xbar) * (x - xbar)).sum();
    if sxx == 0.0 {
        return (ybar, 0.0);
    }
    let sxy: f64 = xs
        .iter()
        .zip(y)
        .map(|(x, yv)| (x - xbar) * (yv - ybar))
        .sum();
    let b = sxy / sxx;
    (ybar - b * xbar, b)
}

/// Predicted whole-cell capacity of one [`FLEET_CORE_BUDGET`]-core host
/// in a fleet of `hosts` hosts, from a fitted `(a, b)` curve.
pub fn fleet_capacity(fit: (f64, f64), hosts: usize) -> usize {
    ((fit.0 + fit.1 / hosts as f64) * FLEET_CORE_BUDGET as f64).floor() as usize
}

/// One mode's recorded pooling curve from `pooling.modes`.
#[derive(Debug, Clone)]
pub struct FleetCurve {
    pub name: String,
    pub hosts: Vec<f64>,
    pub cells_per_core: Vec<f64>,
    /// Fit parameters as recorded by the bench (re-fitted during audit).
    pub fit_a: f64,
    pub fit_b: f64,
}

/// Pooling inputs parsed from `BENCH_sim.json`.
#[derive(Debug, Clone)]
pub struct SimBench {
    /// Whether the file was generated with `--quick` (CI schema runs —
    /// never a legitimate tracked baseline).
    pub quick: bool,
    pub core_budget: usize,
    pub miss_budget: f64,
    pub modes: Vec<FleetCurve>,
}

/// Parses `BENCH_sim.json`.
pub fn parse_sim(src: &str) -> Result<SimBench, String> {
    let j = Json::parse(src)?;
    let quick = j
        .get("quick")
        .and_then(Json::as_bool)
        .ok_or("missing `quick`")?;
    let pooling = j.get("pooling").ok_or("missing `pooling`")?;
    let num = |key: &str| -> Result<f64, String> {
        pooling
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing pooling.{key}"))
    };
    let arr = |val: &Json, key: &str, of: &str| -> Result<Vec<f64>, String> {
        val.get(key)
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .ok_or_else(|| format!("missing {key} array for mode `{of}`"))
    };
    let mut modes = Vec::new();
    for (key, val) in pooling
        .get("modes")
        .ok_or("missing pooling.modes")?
        .fields()
    {
        let hosts = arr(val, "hosts", key)?;
        let cells_per_core = arr(val, "cells_per_core", key)?;
        if hosts.is_empty() || hosts.len() != cells_per_core.len() {
            return Err(format!(
                "mode `{key}`: hosts/cells_per_core length mismatch"
            ));
        }
        modes.push(FleetCurve {
            name: key.clone(),
            hosts,
            cells_per_core,
            fit_a: val
                .get("fit_a")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing fit_a for mode `{key}`"))?,
            fit_b: val
                .get("fit_b")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing fit_b for mode `{key}`"))?,
        });
    }
    if modes.is_empty() {
        return Err("pooling.modes has no entries".into());
    }
    Ok(SimBench {
        quick,
        core_budget: num("core_budget")? as usize,
        miss_budget: num("miss_budget")?,
        modes,
    })
}

/// Audits the tracked simulator baseline against the mirrored fleet
/// deployments: fit drift and the fleet-level capacity gate.
pub fn audit_sim(sim_src: &str, fleet: &[FleetMirror]) -> Audit {
    let mut v = Vec::new();
    let sim = match parse_sim(sim_src) {
        Ok(s) => s,
        Err(e) => {
            v.push(parse_violation("BENCH_sim.json", e));
            return Audit {
                violations: v,
                report: "{}".into(),
            };
        }
    };
    let file = || "BENCH_sim.json".to_string();

    if sim.quick {
        v.push(Violation {
            file: file(),
            line: 0,
            pass: "sched",
            class: "quick-baseline",
            msg: "tracked BENCH_sim.json was generated with --quick; regenerate it full-scale with `rtopex-bench --sim`".into(),
        });
    }
    if sim.core_budget != FLEET_CORE_BUDGET || (sim.miss_budget - FLEET_MISS_BUDGET).abs() > 1e-12 {
        v.push(Violation {
            file: file(),
            line: 0,
            pass: "sched",
            class: "fleet-drift",
            msg: format!(
                "pooling budgets in the tracked file (C = {}, miss = {}) disagree with the shipped experiment (C = {FLEET_CORE_BUDGET}, miss = {FLEET_MISS_BUDGET}) — re-run `rtopex-bench --sim`",
                sim.core_budget, sim.miss_budget
            ),
        });
    }

    let mut report = String::from("{\n");
    // Re-fit every recorded curve; the recorded parameters must agree
    // (the recorded arrays are the ground truth — a doctored fit cannot
    // widen capacity without also doctoring the sweep points).
    let mut fits: Vec<(&str, (f64, f64))> = Vec::new();
    let _ = writeln!(report, "  \"fit\": {{");
    for (i, c) in sim.modes.iter().enumerate() {
        let fit = fit_inverse(&c.hosts, &c.cells_per_core);
        let comma = if i + 1 < sim.modes.len() { "," } else { "" };
        let _ = writeln!(
            report,
            "    \"{}\": {{\"a\": {:.3}, \"b\": {:.3}}}{comma}",
            c.name, fit.0, fit.1
        );
        if (fit.0 - c.fit_a).abs() > 0.01 || (fit.1 - c.fit_b).abs() > 0.01 {
            v.push(Violation {
                file: file(),
                line: 0,
                pass: "sched",
                class: "fleet-drift",
                msg: format!(
                    "mode `{}`: pooling fit re-computed from the sweep arrays is a = {:.3}, b = {:.3}, but the tracked file records a = {:.3}, b = {:.3} — re-run `rtopex-bench --sim` or fix the file",
                    c.name, fit.0, fit.1, c.fit_a, c.fit_b
                ),
            });
        }
        fits.push((c.name.as_str(), fit));
    }
    let _ = writeln!(report, "  }},");

    // The gate: every shipped fleet deployment must fit under the
    // re-fitted curve at its fleet size.
    let _ = writeln!(report, "  \"deployments\": [");
    for (i, d) in fleet.iter().enumerate() {
        let comma = if i + 1 < fleet.len() { "," } else { "" };
        match fits.iter().find(|(name, _)| *name == d.mode) {
            Some(&(_, fit)) => {
                let cap = fleet_capacity(fit, d.hosts);
                let ok = d.cells_per_host <= cap;
                let _ = writeln!(
                    report,
                    "    {{\"name\": \"{}\", \"hosts\": {}, \"mode\": \"{}\", \"cells_per_host\": {}, \"fitted_capacity\": {cap}, \"ok\": {ok}}}{comma}",
                    d.name, d.hosts, d.mode, d.cells_per_host
                );
                if !ok {
                    v.push(Violation {
                        file: file(),
                        line: 0,
                        pass: "sched",
                        class: "fleet-unschedulable",
                        msg: format!(
                            "fleet deployment `{}` ({} hosts × {} cells, {}) exceeds the fitted pooling capacity of {cap} cells/host at H = {} — shrink the deployment or re-measure",
                            d.name, d.hosts, d.cells_per_host, d.mode, d.hosts
                        ),
                    });
                }
            }
            None => {
                let _ = writeln!(
                    report,
                    "    {{\"name\": \"{}\", \"mode\": \"{}\", \"ok\": false}}{comma}",
                    d.name, d.mode
                );
                v.push(Violation {
                    file: file(),
                    line: 0,
                    pass: "sched",
                    class: "fleet-unschedulable",
                    msg: format!(
                        "fleet deployment `{}` references mode `{}`, which the tracked pooling sweep never measured",
                        d.name, d.mode
                    ),
                });
            }
        }
    }
    let _ = writeln!(report, "  ]");
    report.push_str("}\n");

    Audit {
        violations: v,
        report,
    }
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

/// Audits the workspace: tracked baselines + shipped configs. The
/// report composes the Eq. 3 (node-level) audit and the fleet-level
/// pooling audit as `{"eq3": …, "fleet": …}`.
pub fn audit_workspace(root: &Path) -> Audit {
    let kernels = fs::read_to_string(root.join("BENCH_kernels.json"))
        .map_err(|e| format!("BENCH_kernels.json: {e}"));
    let node = fs::read_to_string(root.join("BENCH_node.json"))
        .map_err(|e| format!("BENCH_node.json: {e}"));
    let sim_src = fs::read_to_string(root.join("BENCH_sim.json"));
    // Same-machine gate first: comparing baselines recorded on different
    // hosts invalidates every downstream number.
    let mut fp_files: Vec<(&str, &str)> = Vec::new();
    if let Ok(k) = &kernels {
        fp_files.push(("BENCH_kernels.json", k.as_str()));
    }
    if let Ok(n) = &node {
        fp_files.push(("BENCH_node.json", n.as_str()));
    }
    if let Ok(s) = &sim_src {
        fp_files.push(("BENCH_sim.json", s.as_str()));
    }
    let machine_violations = audit_machines(&fp_files);
    let mut eq3 = match (kernels, node) {
        (Ok(k), Ok(n)) => audit(&k, &n, &shipped_configs()),
        (k, n) => {
            let mut violations = Vec::new();
            for err in [k.err(), n.err()].into_iter().flatten() {
                violations.push(parse_violation("", err));
            }
            Audit {
                violations,
                report: "{}".into(),
            }
        }
    };
    let fleet = match sim_src {
        Ok(s) => audit_sim(&s, &shipped_fleet_configs()),
        Err(e) => Audit {
            violations: vec![parse_violation("", format!("BENCH_sim.json: {e}"))],
            report: "{}".into(),
        },
    };
    eq3.violations.extend(machine_violations);
    eq3.violations.extend(fleet.violations);
    Audit {
        violations: eq3.violations,
        report: format!(
            "{{\n\"eq3\": {},\n\"fleet\": {}}}\n",
            eq3.report.trim_end(),
            fleet.report
        ),
    }
}

/// Audits explicit inputs (fixture tests inject doctored baselines and
/// configs here).
pub fn audit(kernels_src: &str, node_src: &str, configs: &[MirrorConfig]) -> Audit {
    let mut v = Vec::new();
    let mut report = String::from("{\n");

    let table = match parse_kernels(kernels_src) {
        Ok(t) => t,
        Err(e) => {
            v.push(parse_violation("BENCH_kernels.json", e));
            return Audit {
                violations: v,
                report: "{}".into(),
            };
        }
    };
    let node = match parse_node(node_src) {
        Ok(n) => n,
        Err(e) => {
            v.push(parse_violation("BENCH_node.json", e));
            return Audit {
                violations: v,
                report: "{}".into(),
            };
        }
    };

    // Batched-dispatch floor: the recorded cross-cell batch must still
    // outrun per-call dispatch.
    let batched = match parse_batched(kernels_src) {
        Ok(b) => b,
        Err(e) => {
            v.push(parse_violation("BENCH_kernels.json", e));
            Vec::new()
        }
    };
    for (key, speedup) in &batched {
        if *speedup < MIN_BATCH_SPEEDUP {
            v.push(Violation {
                file: "BENCH_kernels.json".into(),
                line: 0,
                pass: "sched",
                class: "batching-regression",
                msg: format!(
                    "batched entry `{key}`: recorded speedup {speedup:.2}x is below the {MIN_BATCH_SPEEDUP}x floor — the batched drain no longer pays for its staging; profile before re-recording"
                ),
            });
        }
    }

    let g = gamma(&table);
    let _ = writeln!(report, "  \"gamma\": {g:.4},");
    let _ = writeln!(report, "  \"batched_speedups\": {{");
    for (i, (key, s)) in batched.iter().enumerate() {
        let comma = if i + 1 < batched.len() { "," } else { "" };
        let _ = writeln!(report, "    \"{key}\": {s:.3}{comma}");
    }
    let _ = writeln!(report, "  }},");
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
        let _ = writeln!(
            report,
            "      \"smallest_subtask_us\": {smallest:.2}, \"measured_steal_delta_us\": {:.2}, \"measured_mailbox_delta_us\": {:.2}",
            node.steal_delta_us, node.mailbox_delta_us
        );
        for mode in cfg.modes {
            let measured = match mode {
                Mode::RtOpexSteal => node.steal_delta_us,
                Mode::RtOpexMutex => node.mailbox_delta_us,
                _ => continue,
            };
            if cfg.delta_us < measured {
                v.push(Violation {
                    file: cfg.file.to_string(),
                    line: 0,
                    pass: "sched",
                    class: "delta-too-small",
                    msg: format!(
                        "config `{}`: declared δ = {} µs is below the measured {} handoff overhead {measured:.1} µs — Alg. 1 would admit migrations that cannot pay for themselves",
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
    let _ = writeln!(report, "  ],");

    // Real-network fronthaul gate: the tracked baseline must carry the
    // multihost section, every transport's per-subframe rx cost must fit
    // inside the cadence period (otherwise the delivery thread cannot
    // keep up with the fronthaul and run_fed degrades to shedding), and
    // the recorded localhost multi-process demo must have passed.
    match &node.multihost {
        None => {
            let _ = writeln!(report, "  \"multihost\": null,");
            v.push(Violation {
                file: "BENCH_node.json".into(),
                line: 0,
                pass: "sched",
                class: "multihost-missing",
                msg: "missing `multihost` section — re-run `rtopex-bench --node` (or `--node --refresh-multihost`) so the real-network fronthaul overheads and the multi-process demo verdict stay tracked".into(),
            });
        }
        Some(m) => {
            for required in ["inproc", "udp", "tcp"] {
                if !m.transports.iter().any(|(n, ..)| n == required) {
                    v.push(Violation {
                        file: "BENCH_node.json".into(),
                        line: 0,
                        pass: "sched",
                        class: "multihost-missing",
                        msg: format!(
                            "multihost.transports is missing `{required}` — all three fronthaul transports must stay measured"
                        ),
                    });
                }
            }
            let _ = writeln!(report, "  \"multihost\": {{");
            let _ = writeln!(report, "    \"period_us\": {:.1},", m.period_us);
            let _ = writeln!(report, "    \"transports\": {{");
            for (i, (name, handoff, rx)) in m.transports.iter().enumerate() {
                let comma = if i + 1 < m.transports.len() { "," } else { "" };
                let _ = writeln!(
                    report,
                    "      \"{name}\": {{\"handoff_p50_us\": {handoff:.3}, \"rx_per_subframe_us\": {rx:.3}}}{comma}"
                );
                if !(handoff.is_finite() && *handoff > 0.0 && rx.is_finite() && *rx > 0.0) {
                    v.push(Violation {
                        file: "BENCH_node.json".into(),
                        line: 0,
                        pass: "sched",
                        class: "multihost-overrun",
                        msg: format!(
                            "multihost.transports.{name}: handoff_p50_us = {handoff}, rx_per_subframe_us = {rx} — overheads must be positive measured numbers; re-run `rtopex-bench --node --refresh-multihost`"
                        ),
                    });
                } else if *rx >= m.period_us {
                    v.push(Violation {
                        file: "BENCH_node.json".into(),
                        line: 0,
                        pass: "sched",
                        class: "multihost-overrun",
                        msg: format!(
                            "multihost.transports.{name}: rx cost {rx:.1} µs/subframe does not fit the {:.0} µs cadence period — a worker fed over this transport cannot keep up with one cell, let alone pool several",
                            m.period_us
                        ),
                    });
                }
            }
            let _ = writeln!(report, "    }},");
            let _ = writeln!(report, "    \"demo_ok\": {}", m.demo_ok);
            let _ = writeln!(report, "  }},");
            if !m.demo_ok || m.demo_miss_rate > node.miss_threshold || m.demo_gaps != 0.0 {
                v.push(Violation {
                    file: "BENCH_node.json".into(),
                    line: 0,
                    pass: "sched",
                    class: "multihost-demo",
                    msg: format!(
                        "recorded multi-process demo failed its bar (ok = {}, miss_rate = {}, gaps = {}) — the distributed fronthaul no longer sustains the localhost capacity claim; debug before re-recording",
                        m.demo_ok, m.demo_miss_rate, m.demo_gaps
                    ),
                });
            }
        }
    }

    // Capacity reproduction from the raw miss arrays.
    let mut computed: Vec<(String, usize, usize)> = Vec::new();
    for (key, miss, recorded) in &node.modes {
        let c = cells_sustained(miss, node.miss_threshold);
        if c != *recorded {
            v.push(Violation {
                file: "BENCH_node.json".into(),
                line: 0,
                pass: "sched",
                class: "capacity-drift",
                msg: format!(
                    "mode `{key}`: cells_sustained recomputed from the miss array is {c}, but the tracked file records {recorded} — re-run `rtopex-bench --node` or fix the file"
                ),
            });
        }
        computed.push((key.clone(), c, *recorded));
    }
    let lookup = |k: &str| {
        computed
            .iter()
            .find(|(key, ..)| key == k)
            .map(|(_, c, _)| *c)
    };
    let _ = writeln!(report, "  \"capacity\": {{");
    for (i, (key, c, recorded)) in computed.iter().enumerate() {
        let comma = if i + 1 < computed.len() { "," } else { "" };
        let _ = writeln!(
            report,
            "    \"{key}\": {{\"computed\": {c}, \"recorded\": {recorded}}}{comma}"
        );
    }
    let _ = writeln!(report, "  }},");
    if let (Some(steal), Some(mutex), Some(global)) = (
        lookup("rtopex_steal"),
        lookup("rtopex_mutex"),
        lookup("global"),
    ) {
        let ordered = steal >= mutex && mutex >= global;
        let _ = writeln!(
            report,
            "  \"capacity_ordering\": {{\"steal\": {steal}, \"mutex\": {mutex}, \"global\": {global}, \"steal_ge_mutex_ge_global\": {ordered}}}"
        );
        if !ordered {
            v.push(Violation {
                file: "BENCH_node.json".into(),
                line: 0,
                pass: "sched",
                class: "capacity-order",
                msg: format!(
                    "measured capacity ordering violated: steal={steal}, mutex={mutex}, global={global} — the paper's steal ≥ mutex ≥ global claim no longer holds in the tracked baseline"
                ),
            });
        }
        if node.headline_steal_ge_mutex != (steal >= mutex) {
            v.push(Violation {
                file: "BENCH_node.json".into(),
                line: 0,
                pass: "sched",
                class: "capacity-drift",
                msg: "headline.steal_ge_mutex disagrees with the miss arrays".into(),
            });
        }
    } else {
        let _ = writeln!(report, "  \"capacity_ordering\": null");
        v.push(Violation {
            file: "BENCH_node.json".into(),
            line: 0,
            pass: "sched",
            class: "capacity-drift",
            msg: "sweep.modes is missing one of rtopex_steal/rtopex_mutex/global".into(),
        });
    }
    report.push_str("}\n");

    Audit {
        violations: v,
        report,
    }
}

fn parse_violation(file: &str, err: String) -> Violation {
    Violation {
        file: file.to_string(),
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
    const NODE: &str = include_str!("../../../BENCH_node.json");

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
        assert_eq!(fft_cost_ns(&t, 128), 1290.0);
        let t512 = fft_cost_ns(&t, 512);
        assert!(t512 > 1290.0 && t512 < 12942.0, "fft512 = {t512}");
    }

    #[test]
    fn shipped_configs_pass_the_audit() {
        let a = audit(KERNELS, NODE, &shipped_configs());
        assert!(a.violations.is_empty(), "{:#?}", a.violations);
        assert!(a.report.contains("capacity_ordering"));
    }

    #[test]
    fn capacity_ordering_reproduced_from_miss_arrays_alone() {
        let n = parse_node(NODE).unwrap();
        let get = |k: &str| {
            n.modes
                .iter()
                .find(|(key, ..)| key == k)
                .map(|(_, m, _)| cells_sustained(m, n.miss_threshold))
                .unwrap()
        };
        let (steal, mutex, global, part) = (
            get("rtopex_steal"),
            get("rtopex_mutex"),
            get("global"),
            get("partitioned"),
        );
        assert!(
            steal >= mutex && mutex >= global,
            "{steal} {mutex} {global}"
        );
        // The PR 7 measured table (batched dispatch + NUMA-aware steal).
        assert_eq!((steal, mutex, global, part), (5, 4, 3, 2));
    }

    fn machine_doc(cpu: &str, cores: usize, tier: &str) -> String {
        format!(r#"{{ "machine": {{ "cpu": "{cpu}", "cores": {cores}, "simd_tier": "{tier}" }} }}"#)
    }

    #[test]
    fn cross_machine_baselines_are_refused() {
        let a = machine_doc("Xeon", 1, "avx512");
        let b = machine_doc("EPYC", 64, "avx2");
        let v = audit_machines(&[("BENCH_kernels.json", &a), ("BENCH_node.json", &b)]);
        assert!(v.iter().any(|v| v.class == "machine-mismatch"), "{v:#?}");
    }

    #[test]
    fn same_machine_baselines_pass_and_legacy_files_without_tier_are_tolerated() {
        let a = machine_doc("Xeon", 1, "avx512");
        let legacy = r#"{ "machine": { "cpu": "Xeon", "cores": 1 } }"#;
        assert!(audit_machines(&[("k", &a), ("n", &a), ("s", legacy)]).is_empty());
    }

    #[test]
    fn missing_machine_block_is_flagged() {
        let v = audit_machines(&[("BENCH_kernels.json", "{}")]);
        assert!(v.iter().any(|v| v.class == "machine-fingerprint"), "{v:#?}");
    }

    #[test]
    fn tracked_baselines_share_a_machine() {
        let v = audit_machines(&[
            ("BENCH_kernels.json", KERNELS),
            ("BENCH_node.json", NODE),
            ("BENCH_sim.json", SIM),
        ]);
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn tracked_batched_speedups_clear_the_floor() {
        let b = parse_batched(KERNELS).unwrap();
        assert!(
            !b.is_empty(),
            "tracked kernels baseline must record batched rows"
        );
        assert!(b.iter().all(|(_, s)| *s >= MIN_BATCH_SPEEDUP), "{b:?}");
    }

    #[test]
    fn batched_speedup_below_floor_is_caught() {
        let doc = KERNELS.replace(
            "\"batched\": {",
            "\"batched\": {\n    \"turbo_kX_b4\": { \"per_call_avx2_ns\": 100, \"batched_ns\": 100, \"speedup\": 1.000 },",
        );
        assert_ne!(doc, KERNELS, "tracked baseline must have a batched section");
        let a = audit(&doc, NODE, &shipped_configs());
        assert!(
            a.violations
                .iter()
                .any(|v| v.class == "batching-regression"),
            "{:#?}",
            a.violations
        );
    }

    /// A minimal node doc whose `rtopex_steal` row records
    /// `steal_sustained`; its miss array supports exactly 2.
    fn node_doc(steal_sustained: usize) -> String {
        format!(
            r#"{{
  "steal_path": {{
    "fft": {{ "steal_delta_us": 10.0, "mailbox_delta_us": 20.0 }},
    "decode": {{ "steal_delta_us": 12.0, "mailbox_delta_us": 25.0 }}
  }},
  "sweep": {{
    "config": {{ "miss_threshold": 0.005 }},
    "modes": {{
      "partitioned": {{ "miss": [0.0, 0.1], "cells_sustained": 1 }},
      "global": {{ "miss": [0.0, 0.1], "cells_sustained": 1 }},
      "rtopex_mutex": {{ "miss": [0.0, 0.1], "cells_sustained": 1 }},
      "rtopex_steal": {{ "miss": [0.0, 0.0], "cells_sustained": {steal_sustained} }}
    }}
  }},
  "headline": {{ "steal_ge_mutex": true }}
}}"#
        )
    }

    #[test]
    fn capacity_drift_is_caught() {
        let a = audit(KERNELS, &node_doc(3), &[]);
        assert!(
            a.violations
                .iter()
                .any(|v| v.class == "capacity-drift" && v.msg.contains("`rtopex_steal`")),
            "{:#?}",
            a.violations
        );
        let ok = audit(KERNELS, &node_doc(2), &[]);
        assert!(
            !ok.violations.iter().any(|v| v.class == "capacity-drift"),
            "{:#?}",
            ok.violations
        );
    }

    /// `node_doc` extended with a multihost section whose udp rx cost
    /// and demo verdict are the knobs.
    fn node_doc_with_multihost(udp_rx: f64, demo_ok: bool) -> String {
        let mh = format!(
            r#""multihost": {{
    "period_us": 6000.0,
    "transports": {{
      "inproc": {{ "handoff_p50_us": 50.0, "rx_per_subframe_us": 40.0 }},
      "udp": {{ "handoff_p50_us": 300.0, "rx_per_subframe_us": {udp_rx:.1} }},
      "tcp": {{ "handoff_p50_us": 350.0, "rx_per_subframe_us": 90.0 }}
    }},
    "demo": {{ "workers": 2, "cells": 4, "miss_rate": 0.0, "gaps": 0, "ok": {demo_ok} }}
  }},
  "headline""#
        );
        node_doc(2).replace("\"headline\"", &mh)
    }

    #[test]
    fn multihost_gate_catches_missing_section_and_failed_demo() {
        // The minimal node doc has no multihost section at all.
        let a = audit(KERNELS, &node_doc(2), &[]);
        assert!(
            a.violations.iter().any(|v| v.class == "multihost-missing"),
            "{:#?}",
            a.violations
        );
        // A failed demo verdict must fire the gate …
        let a = audit(KERNELS, &node_doc_with_multihost(100.0, false), &[]);
        assert!(
            a.violations.iter().any(|v| v.class == "multihost-demo"),
            "{:#?}",
            a.violations
        );
        // … and a healthy section must not.
        let a = audit(KERNELS, &node_doc_with_multihost(100.0, true), &[]);
        assert!(
            !a.violations
                .iter()
                .any(|v| v.class.starts_with("multihost")),
            "{:#?}",
            a.violations
        );
    }

    #[test]
    fn multihost_rx_overrun_is_caught() {
        // An rx cost above the cadence period cannot sustain even one
        // cell over that transport.
        let a = audit(KERNELS, &node_doc_with_multihost(999_999.0, true), &[]);
        assert!(
            a.violations.iter().any(|v| v.class == "multihost-overrun"),
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
        let a = audit(KERNELS, NODE, &[bad]);
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
        let a = audit(KERNELS, NODE, &[bad]);
        assert!(
            a.violations.iter().any(|v| v.class == "delta-too-small"),
            "{:#?}",
            a.violations
        );
    }

    #[test]
    fn report_is_valid_json() {
        let a = audit(KERNELS, NODE, &shipped_configs());
        crate::json::Json::parse(&a.report).expect("report must parse");
    }

    const SIM: &str = include_str!("../../../BENCH_sim.json");

    /// A synthetic `BENCH_sim.json` with flat pooling curves: the
    /// partitioned asymptote is held at 0.5 cells/core while the
    /// rtopex-steal one is the knob.
    fn sim_doc(steal_a: f64) -> String {
        let hosts = "[1, 2, 4, 8, 16, 32, 64]";
        let flat = |a: f64| {
            let v: Vec<String> = (0..7).map(|_| format!("{a:.3}")).collect();
            format!("[{}]", v.join(", "))
        };
        format!(
            r#"{{
  "schema": 1, "quick": false,
  "pooling": {{
    "core_budget": 8, "miss_budget": 0.005,
    "modes": {{
      "partitioned": {{ "hosts": {hosts}, "cells_per_core": {part}, "fit_a": 0.500, "fit_b": 0.000 }},
      "rtopex-steal": {{ "hosts": {hosts}, "cells_per_core": {steal}, "fit_a": {steal_a:.3}, "fit_b": 0.000 }}
    }}
  }}
}}"#,
            part = flat(0.5),
            steal = flat(steal_a),
        )
    }

    #[test]
    fn tracked_sim_baseline_passes_the_fleet_gate() {
        let a = audit_sim(SIM, &shipped_fleet_configs());
        assert!(a.violations.is_empty(), "{:#?}", a.violations);
        assert!(a.report.contains("deployments"));
    }

    #[test]
    fn sim_report_is_valid_json() {
        let a = audit_sim(SIM, &shipped_fleet_configs());
        crate::json::Json::parse(&a.report).expect("fleet report must parse");
    }

    #[test]
    fn refit_reproduces_the_recorded_fit() {
        let sim = parse_sim(SIM).unwrap();
        for c in &sim.modes {
            let (a, b) = fit_inverse(&c.hosts, &c.cells_per_core);
            assert!(
                (a - c.fit_a).abs() <= 0.01 && (b - c.fit_b).abs() <= 0.01,
                "{}: refit ({a:.3}, {b:.3}) vs recorded ({:.3}, {:.3})",
                c.name,
                c.fit_a,
                c.fit_b
            );
        }
    }

    #[test]
    fn overcommitted_fleet_deployment_is_caught() {
        // A steal asymptote of 0.25 cells/core caps an 8-core host at 2
        // cells; edge-4 and metro-16 ship 4.
        let a = audit_sim(&sim_doc(0.25), &shipped_fleet_configs());
        let fleet: Vec<_> = a
            .violations
            .iter()
            .filter(|v| v.class == "fleet-unschedulable")
            .collect();
        assert_eq!(fleet.len(), 2, "{:#?}", a.violations);
        assert!(fleet.iter().any(|v| v.msg.contains("edge-4")));
        assert!(fleet.iter().any(|v| v.msg.contains("metro-16")));
    }

    #[test]
    fn doctored_fit_is_caught_by_the_refit() {
        // Widen the recorded asymptote without touching the sweep
        // arrays: the re-fit disagrees and the audit flags the drift.
        let doc = sim_doc(0.25).replace(&format!("\"fit_a\": {:.3}", 0.25), "\"fit_a\": 1.000");
        let a = audit_sim(&doc, &shipped_fleet_configs());
        assert!(
            a.violations.iter().any(|v| v.class == "fleet-drift"),
            "{:#?}",
            a.violations
        );
    }

    #[test]
    fn quick_baseline_is_rejected() {
        let doc = sim_doc(1.0).replace("\"quick\": false", "\"quick\": true");
        let a = audit_sim(&doc, &shipped_fleet_configs());
        assert!(
            a.violations.iter().any(|v| v.class == "quick-baseline"),
            "{:#?}",
            a.violations
        );
    }

    #[test]
    fn missing_mode_curve_is_caught() {
        let a = audit_sim(
            &sim_doc(1.0),
            &[FleetMirror {
                name: "phantom",
                hosts: 4,
                mode: "never-swept",
                cells_per_host: 1,
            }],
        );
        assert!(
            a.violations
                .iter()
                .any(|v| v.class == "fleet-unschedulable" && v.msg.contains("never measured")),
            "{:#?}",
            a.violations
        );
    }
}
