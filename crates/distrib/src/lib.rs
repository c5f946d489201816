//! # rtopex-distrib — the multi-host C-RAN deployment
//!
//! Two binaries turn the single-host cluster into a distributed C-RAN:
//!
//! * **`rtopex-node`** — a compute worker. Listens on a UDP or TCP
//!   fronthaul endpoint, negotiates the stream geometry from the
//!   aggregator's hello, builds a [`rtopex_runtime::CranCluster`] to
//!   match, and drives it with [`CranCluster::run_fed`]. Emits a JSON
//!   report on stdout when the stream closes.
//! * **`rtopex-fronthaul`** — the aggregator (the RAP side of Fig. 1).
//!   Pre-encodes the deterministic workload [`CranCluster::run`] sends
//!   in-process ([`SendPlan`]), splits the cells across one or more
//!   nodes, and streams IQ subframes with the same pacing loop
//!   ([`send_paced`]): the configured cadence plus the per-cell ingest
//!   stagger of the shared 10 GbE port. `--spawn` launches the nodes
//!   itself (sibling `rtopex-node` binary) for the single-command
//!   localhost demo.
//!
//! This crate is the only place the workspace touches real sockets for
//! scheduling work: `rtopex-runtime` sees nothing but the
//! [`rtopex_transport::FronthaulRx`] trait (`cargo xtask layering`
//! enforces that the runtime and core crates stay network-free).
//!
//! [`CranCluster`]: rtopex_runtime::CranCluster
//! [`CranCluster::run`]: rtopex_runtime::CranCluster::run
//! [`CranCluster::run_fed`]: rtopex_runtime::CranCluster::run_fed
//! [`SendPlan`]: rtopex_runtime::SendPlan
//! [`send_paced`]: rtopex_runtime::send_paced

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rtopex_phy::mcs::Mcs;
use rtopex_phy::params::Bandwidth;
use rtopex_runtime::cluster::{ClusterConfig, FedReport, SchedulerMode};
use rtopex_transport::StreamParams;
use std::time::Duration;

/// Receive ring depth a node hands the transport: deep enough to absorb
/// the node's warm-up (pool prepare + calibration) at the dilated demo
/// cadence before drop-oldest kicks in.
pub const NODE_QUEUE_DEPTH: usize = 128;

/// Demo deadline-miss acceptance threshold (matches the Fig. 17 sweep's
/// 0.5 % bar).
pub const MISS_OK: f64 = 0.005;

/// All `Bandwidth` variants, for name and sample-count lookups.
pub const BANDWIDTHS: [Bandwidth; 6] = [
    Bandwidth::Mhz1_4,
    Bandwidth::Mhz3,
    Bandwidth::Mhz5,
    Bandwidth::Mhz10,
    Bandwidth::Mhz15,
    Bandwidth::Mhz20,
];

/// Parses a bandwidth argument ("1.4", "3", "5", "10", "15", "20").
pub fn parse_bandwidth(s: &str) -> Option<Bandwidth> {
    match s {
        "1.4" => Some(Bandwidth::Mhz1_4),
        "3" => Some(Bandwidth::Mhz3),
        "5" => Some(Bandwidth::Mhz5),
        "10" => Some(Bandwidth::Mhz10),
        "15" => Some(Bandwidth::Mhz15),
        "20" => Some(Bandwidth::Mhz20),
        _ => None,
    }
}

/// Recovers the bandwidth from a negotiated samples-per-subframe count.
pub fn bandwidth_for_samples(n: u32) -> Option<Bandwidth> {
    BANDWIDTHS
        .into_iter()
        .find(|b| b.samples_per_subframe() as u32 == n)
}

/// Parses a scheduler-mode argument.
pub fn parse_mode(s: &str) -> Option<SchedulerMode> {
    match s {
        "steal" | "rtopex_steal" => Some(SchedulerMode::RtOpexSteal),
        "mutex" | "rtopex_mutex" => Some(SchedulerMode::RtOpexMutex),
        "global" => Some(SchedulerMode::Global),
        "part" | "partitioned" => Some(SchedulerMode::Partitioned),
        _ => None,
    }
}

/// Parses a transport argument.
pub fn parse_transport(s: &str) -> Option<&'static str> {
    match s {
        "udp" => Some("udp"),
        "tcp" => Some("tcp"),
        _ => None,
    }
}

/// Minimal `--flag value` / `--flag` argument scanner (no CLI dep
/// in-tree). Positional arguments are rejected.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments (after the binary name).
    pub fn from_env() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Builds from an explicit list (tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// The value following `--name`, if present.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.raw.get(i + 1))
            .map(String::as_str)
    }

    /// Whether the bare flag `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    /// The value of `--name` parsed as `T`, or `default`. Exits with a
    /// usage error on an unparseable value rather than silently falling
    /// back.
    pub fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("error: bad value for {name}: {v}");
                std::process::exit(2);
            }),
        }
    }
}

/// The geometry both binaries agree on: everything needed to construct
/// matching [`StreamParams`] and [`ClusterConfig`] values on either end
/// of the wire.
#[derive(Clone, Debug)]
pub struct Geometry {
    /// Channel bandwidth of every cell.
    pub bandwidth: Bandwidth,
    /// Receive antennas per cell.
    pub antennas: usize,
    /// Subframe period.
    pub period: Duration,
    /// Emulated one-way fronthaul latency (sets the Eq. 3 budget).
    pub rtt_half: Duration,
    /// Distinct MCS values in the pre-encoded pool.
    pub mcs_pool: Vec<u8>,
    /// Subframes per cell.
    pub subframes: usize,
}

impl Geometry {
    /// The dilated 5 MHz demo geometry: 6 ms period, 7 ms one-way
    /// latency, so the Eq. 3 budget is `2·6000 − 7000 = 5000 µs`. The
    /// stretched period keeps the queueing structure of the 1 ms system
    /// while leaving 5 MHz cells room to ride out single-millisecond host
    /// stalls.
    pub fn demo(subframes: usize) -> Self {
        Geometry {
            bandwidth: Bandwidth::Mhz5,
            antennas: 2,
            period: Duration::from_micros(6_000),
            rtt_half: Duration::from_micros(7_000),
            mcs_pool: vec![5, 10, 16, 22, 27],
            subframes,
        }
    }

    /// Eq. 3 processing budget: `2·period − rtt_half`.
    pub fn budget(&self) -> Duration {
        2 * self.period - self.rtt_half
    }

    /// Stream parameters advertising `cells` (wire ids) of this geometry.
    pub fn stream_params(&self, cells: Vec<u16>) -> StreamParams {
        StreamParams {
            samples_per_subframe: self.bandwidth.samples_per_subframe() as u32,
            antennas: self.antennas as u8,
            cells,
            period_us: self.period.as_micros() as u32,
            budget_us: self.budget().as_micros() as u32,
            mcs_pool: self.mcs_pool.clone(),
            subframes: self.subframes as u32,
        }
    }

    /// A cluster config for `num_cells` of this geometry, with
    /// [`ClusterConfig::demo`]'s SNR and seed.
    pub fn cluster_config(&self, num_cells: usize, mode: SchedulerMode) -> ClusterConfig {
        ClusterConfig {
            bandwidth: self.bandwidth,
            num_antennas: self.antennas,
            num_cells,
            subframes: self.subframes,
            period: self.period,
            rtt_half: self.rtt_half,
            mode,
            mcs_pool: self.mcs_pool.clone(),
            ..ClusterConfig::demo()
        }
    }

    /// Reconstructs the geometry a hello's [`StreamParams`] describe.
    /// Returns `None` for anything a cluster cannot be built from: a
    /// samples-per-subframe count matching no bandwidth, a budget
    /// exceeding `2·period` (negative `rtt_half`), a zero period (the
    /// release cadence divides by it), an empty MCS pool, or an MCS index
    /// the PHY has no configuration for. The peer chose every one of
    /// these, so each must be a refusal here, not a panic downstream.
    pub fn from_params(p: &StreamParams) -> Option<Self> {
        let bandwidth = bandwidth_for_samples(p.samples_per_subframe)?;
        let pool_ok = !p.mcs_pool.is_empty() && p.mcs_pool.iter().all(|&m| Mcs::new(m).is_some());
        if p.period_us == 0 || !pool_ok {
            return None;
        }
        let period = Duration::from_micros(p.period_us as u64);
        let rtt_half = (2 * period).checked_sub(Duration::from_micros(p.budget_us as u64))?;
        Some(Geometry {
            bandwidth,
            antennas: p.antennas as usize,
            period,
            rtt_half,
            mcs_pool: p.mcs_pool.clone(),
            subframes: p.subframes as usize,
        })
    }
}

/// Escapes a string for embedding in JSON output.
pub fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Extracts `"key": <number>` from a flat JSON report with a plain
/// string scan (no JSON dep in-tree; both binaries emit flat objects).
pub fn json_num(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let tail = text[at..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Renders a node's fed-run report as the flat JSON object the
/// aggregator (and the bench harness) scan with [`json_num`].
pub fn node_report_json(
    transport: &str,
    mode: SchedulerMode,
    geo: &Geometry,
    cells: usize,
    fed: &FedReport,
) -> String {
    let overall = fed.cluster.deadline.overall();
    let total = overall.total().max(1);
    let ok = fed.cluster.miss_rate() <= MISS_OK && fed.cluster.crc_failures == 0;
    format!(
        "{{\n  \"role\": \"node\",\n  \"transport\": \"{}\",\n  \"mode\": \"{}\",\n  \
         \"cells\": {},\n  \"subframes_per_cell\": {},\n  \"period_us\": {},\n  \
         \"budget_us\": {},\n  \"delivered\": {},\n  \"processed\": {},\n  \
         \"dropped\": {},\n  \"shed\": {},\n  \"dropped_mcs\": {},\n  \
         \"dropped_no_slack\": {},\n  \"missed\": {},\n  \"miss_rate\": {:.6},\n  \
         \"gaps\": {},\n  \"stale\": {},\n  \"rx_overruns\": {},\n  \"resyncs\": {},\n  \
         \"bad_frames\": {},\n  \"crc_failures\": {},\n  \"steals\": {},\n  \
         \"pinned\": {},\n  \"elapsed_ms\": {},\n  \"ok\": {}\n}}",
        json_escape(transport),
        mode.name(),
        cells,
        geo.subframes,
        geo.period.as_micros(),
        geo.budget().as_micros(),
        fed.rx.delivered,
        fed.cluster.proc_us.len(),
        fed.cluster.dropped,
        fed.cluster.drops.shed,
        fed.cluster.drops.mcs_outside_pool,
        fed.cluster.drops.no_slack,
        overall.missed,
        overall.missed as f64 / total as f64,
        fed.rx.gaps,
        fed.rx.stale,
        fed.rx.drops,
        fed.rx.resyncs,
        fed.rx.bad_frames,
        fed.cluster.crc_failures,
        fed.cluster.steals,
        fed.cluster.pinned,
        fed.cluster.elapsed.as_millis(),
        ok
    )
}

/// What `rtopex-fronthaul --spawn` reads from its workers' reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpawnVerdict {
    /// Subframes the workers' receive rings published, summed
    /// (`"delivered"`).
    pub delivered: u64,
    /// Of those, subframes the rings recycled unread because a node fell
    /// behind (`"rx_overruns"`): they never reached a scheduler.
    pub rx_overruns: u64,
    /// Subframes sent that reached no worker's scheduler:
    /// `sent − (delivered − rx_overruns)`.
    pub lost: u64,
    /// Deadline misses, summed.
    pub missed: u64,
    /// `missed` over the subframes that reached a scheduler (0 when none
    /// did).
    pub miss_rate: f64,
    /// Sequence gaps, summed.
    pub gaps: u64,
    /// Subframes shed on arrival, summed.
    pub shed: u64,
    /// Subframes dropped because their MCS is outside the pool, summed.
    pub dropped_mcs: u64,
    /// Subframes dropped by a slack check, summed.
    pub dropped_no_slack: u64,
    /// CRC failures, summed.
    pub crc_failures: u64,
    /// The run passes: every worker exited cleanly, every expected
    /// subframe was sent and reached a scheduler, misses stay within
    /// [`MISS_OK`] and no CRC failed.
    pub ok: bool,
}

/// Judges a spawned run from what was `sent` of the `expected`
/// subframes, each worker's [`node_report_json`] (an empty string for a
/// worker that printed none) and whether every worker exited cleanly.
pub fn spawn_verdict(
    sent: u64,
    expected: u64,
    reports: &[String],
    workers_ok: bool,
) -> SpawnVerdict {
    let sum =
        |key: &str| -> u64 { reports.iter().filter_map(|r| json_num(r, key)).sum::<f64>() as u64 };
    let (delivered, rx_overruns, missed) = (sum("delivered"), sum("rx_overruns"), sum("missed"));
    let received = delivered.saturating_sub(rx_overruns);
    let miss_rate = if received > 0 {
        missed as f64 / received as f64
    } else {
        0.0
    };
    let crc_failures = sum("crc_failures");
    let lost = sent.saturating_sub(received);
    SpawnVerdict {
        delivered,
        rx_overruns,
        lost,
        missed,
        miss_rate,
        gaps: sum("gaps"),
        shed: sum("shed"),
        dropped_mcs: sum("dropped_mcs"),
        dropped_no_slack: sum("dropped_no_slack"),
        crc_failures,
        ok: workers_ok
            && sent == expected
            && received == sent
            && miss_rate <= MISS_OK
            && crc_failures == 0,
    }
}

/// Splits `cells` wire ids into `hosts` contiguous chunks (first chunks
/// take the remainder), returning each host's cell-id list.
pub fn partition_cells(cells: usize, hosts: usize) -> Vec<Vec<u16>> {
    let hosts = hosts.max(1);
    let base = cells / hosts;
    let extra = cells % hosts;
    let mut out = Vec::with_capacity(hosts);
    let mut next = 0u16;
    for h in 0..hosts {
        let n = base + usize::from(h < extra);
        out.push((next..next + n as u16).collect());
        next += n as u16;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_roundtrips_through_params() {
        let g = Geometry::demo(120);
        let p = g.stream_params(vec![0, 1, 2]);
        let back = Geometry::from_params(&p).unwrap();
        assert_eq!(back.bandwidth, g.bandwidth);
        assert_eq!(back.period, g.period);
        assert_eq!(back.rtt_half, g.rtt_half);
        assert_eq!(back.budget(), g.budget());
        assert_eq!(back.mcs_pool, g.mcs_pool);
        assert_eq!(back.subframes, 120);
    }

    /// Three hellos that each panicked `rtopex-node` after negotiation:
    /// division by a zero period in `Shared::next_release`, the empty-pool
    /// assert in `CranCluster::new`, `UplinkConfig::new(..).expect(..)` in
    /// `prepare_pool`. All pass `wire::validate_geometry`.
    #[test]
    fn hostile_hellos_are_refused_not_built() {
        let good = Geometry::demo(10).stream_params(vec![0]);
        assert!(Geometry::from_params(&good).is_some());
        let doctor: [fn(&mut StreamParams); 3] = [
            |p| (p.period_us, p.budget_us) = (0, 0),
            |p| p.mcs_pool.clear(),
            |p| p.mcs_pool.push(29),
        ];
        for (what, doctor) in ["zero period", "empty MCS pool", "MCS index 29"]
            .into_iter()
            .zip(doctor)
        {
            let mut p = good.clone();
            doctor(&mut p);
            assert!(Geometry::from_params(&p).is_none(), "{what} accepted");
        }
    }

    #[test]
    fn cell_partition_covers_all_cells_contiguously() {
        assert_eq!(partition_cells(4, 2), vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(partition_cells(5, 2), vec![vec![0, 1, 2], vec![3, 4]]);
        assert_eq!(partition_cells(2, 3), vec![vec![0], vec![1], vec![]]);
    }

    #[test]
    fn json_num_scans_flat_reports() {
        let text = "{ \"miss_rate\": 0.0025,\n \"gaps\": 3, \"neg\": -1.5e2 }";
        assert_eq!(json_num(text, "miss_rate"), Some(0.0025));
        assert_eq!(json_num(text, "gaps"), Some(3.0));
        assert_eq!(json_num(text, "neg"), Some(-150.0));
        assert_eq!(json_num(text, "absent"), None);
    }

    fn worker_report(delivered: u64) -> String {
        format!(
            "{{ \"delivered\": {delivered}, \"missed\": 0, \"gaps\": 0, \"shed\": 0, \"crc_failures\": 0 }}"
        )
    }

    #[test]
    fn spawn_verdict_fails_a_run_that_lost_subframes() {
        let reports = [worker_report(240), worker_report(238)];
        let v = spawn_verdict(480, 480, &reports, true);
        // No miss and no CRC failure among what arrived…
        assert_eq!((v.missed, v.crc_failures), (0, 0));
        assert!(v.miss_rate <= MISS_OK);
        // …but two subframes never reached a node.
        assert_eq!((v.delivered, v.lost), (478, 2));
        assert!(!v.ok);
    }

    #[test]
    fn spawn_verdict_fails_a_run_whose_ring_overran() {
        // Every subframe reached a node's ring, but two were recycled
        // unread there: no scheduler saw them, so they are not misses.
        let report = "{ \"delivered\": 480, \"rx_overruns\": 2, \"missed\": 0, \
                      \"gaps\": 0, \"shed\": 0, \"crc_failures\": 0 }";
        let v = spawn_verdict(480, 480, &[report.to_string()], true);
        assert_eq!(
            (v.delivered, v.rx_overruns, v.lost, v.missed),
            (480, 2, 2, 0)
        );
        assert!(!v.ok);
    }

    #[test]
    fn spawn_verdict_passes_a_clean_run() {
        let reports = [worker_report(240), worker_report(240)];
        let v = spawn_verdict(480, 480, &reports, true);
        assert_eq!((v.delivered, v.lost), (480, 0));
        assert!(v.ok);
        assert!(
            !spawn_verdict(480, 480, &reports, false).ok,
            "a worker failed"
        );
        assert!(!spawn_verdict(480, 500, &reports, true).ok, "short send");
    }

    #[test]
    fn bandwidth_lookup_by_samples() {
        for b in BANDWIDTHS {
            assert_eq!(
                bandwidth_for_samples(b.samples_per_subframe() as u32),
                Some(b)
            );
        }
        assert_eq!(bandwidth_for_samples(7), None);
    }
}
