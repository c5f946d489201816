//! The benchmark's contract in one place: workloads, metrics, units,
//! directions and bounds. `BENCHMARK.json` is rendered from these tables
//! (`rtopex-benchmark --emit-spec`) and a test holds the two equal, so a
//! name cannot exist in one and not the other.

use std::fmt::Write as _;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics, which are never gated.
    pub bound: Option<f64>,
}

/// Seconds of measured live time per run; the five trials share it.
pub const RUN_SECONDS: u64 = 10;

/// Share of attempted operations that may fail before a change counts as
/// a regression. The workloads are built so that none fails; `--aa`
/// reports the worst share seen, and a single run does not fail on it.
pub const MAX_FAILED_SHARE: f64 = 0.005;

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "node_udp_steal_mix",
        why: "Headline: UDP fronthaul into run_fed under RtOpexSteal with a tower-trace MCS mix; every layer is on the path, turbo decode dominates and decode subtasks really migrate",
    },
    Workload {
        name: "node_inproc_part_qpsk",
        why: "Bypasses sockets, migration and multi-block turbo: in-process fronthaul, Partitioned, MCS 5 only, so FFT and demod dominate and a steal-path or UDP change must not move it",
    },
    Workload {
        name: "fh_udp_paced",
        why: "Fronthaul only: paced UDP datagrams (44 per subframe, one syscall each way) into the benchmark's own recv loop; PHY and scheduler do nothing",
    },
    Workload {
        name: "fh_tcp_paced",
        why: "Same session and ring layer used as a length-framed stream with coalesced writes and no loss: a gain for datagrams that costs streams shows here",
    },
    Workload {
        name: "sim_rtopex",
        why: "The simulator substrate (timing wheel, streaming generator, rtopex-core policy, model, workload) under RtOpex; no PHY, no sockets, no threads",
    },
];

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

/// What a user of the system sees. Every workload reports every one of
/// them; README.md says which interval fills each role on which workload.
///
/// All three carry the largest bound the contract allows: on the shared
/// two-core host this was built on, the machine's own speed drifts by more
/// than 10 % over minutes (README.md, noise floor), so nothing tighter
/// could tell a regression from the host. The tail (`sf_p95_us`) swings
/// 20–30 % between runs of one build there and is reported per layer,
/// ungated.
pub const END_TO_END: &[Metric] = &[
    e2e("sf_p50_us", "us", 0.25),
    e2e("sf_cpu_us", "us", 0.25),
    e2e("setup_s", "s", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Single-layer metrics, layer = crate. A traced run prints all of them;
/// a layer the workload never enters reads 0.
pub const PER_LAYER: &[Metric] = &[
    layer("sf_p95_us", "us", Lower),
    layer("lte-phy.subframe_us", "us", Lower),
    layer("lte-phy.fft_us", "us", Lower),
    layer("lte-phy.demod_us", "us", Lower),
    layer("lte-phy.decode_us", "us", Lower),
    layer("lte-phy.decode_batch_us", "us", Lower),
    layer("lte-phy.turbo_iters_per_block", "count", Lower),
    layer("lte-phy.code_blocks_per_sf", "count", Lower),
    layer("lte-phy.crc_fail", "count", Lower),
    layer("transport.quantize_us", "us", Lower),
    layer("transport.seq_observe_ns", "ns", Lower),
    layer("transport.inproc.send_us", "us", Lower),
    layer("transport.inproc.handoff_p50_us", "us", Lower),
    layer("transport-net.wire.write_us", "us", Lower),
    layer("transport-net.wire.parse_us", "us", Lower),
    layer("transport-net.session.ingest_us", "us", Lower),
    layer("transport-net.ring.pop_us", "us", Lower),
    layer("transport-net.frames_per_sf", "count", Lower),
    layer("transport-net.wire_bytes_per_sf", "count", Lower),
    layer("transport-net.udp.send_us", "us", Lower),
    layer("transport-net.udp.handoff_p50_us", "us", Lower),
    layer("transport-net.udp.handoff_p95_us", "us", Lower),
    layer("transport-net.udp.lost", "count", Lower),
    layer("transport-net.tcp.send_us", "us", Lower),
    layer("transport-net.tcp.handoff_p50_us", "us", Lower),
    layer("transport-net.tcp.handoff_p95_us", "us", Lower),
    layer("transport-net.rx.bad_frames", "count", Lower),
    layer("transport-net.unattributed_us", "us", Lower),
    layer("core.steal.push_pop_ns", "ns", Lower),
    layer("core.steal.steal_ns", "ns", Lower),
    layer("core.migration.plan_ns", "ns", Lower),
    layer("runtime.steal.fft_delta_us", "us", Lower),
    layer("runtime.steal.decode_delta_us", "us", Lower),
    layer("runtime.mailbox.decode_delta_us", "us", Lower),
    layer("runtime.steals_per_sf", "count", Higher),
    layer("runtime.declined_steals", "count", Lower),
    layer("runtime.missed", "count", Lower),
    layer("runtime.dropped", "count", Lower),
    layer("runtime.shed", "count", Lower),
    layer("runtime.pinned", "count", Higher),
    layer("runtime.proc_p99_us", "us", Lower),
    layer("runtime.proc_over_1500us_share", "%", Lower),
    layer("runtime.sched_overhead_us", "us", Lower),
    layer("runtime.migration_gain", "ratio", Higher),
    layer("runtime.calibrate_s", "s", Lower),
    layer("workload.trace_ns_per_sf", "ns", Lower),
    layer("workload.mean_mcs", "count", Lower),
    layer("model.task_time_ns", "ns", Lower),
    layer("sim.wheel.push_pop_ns", "ns", Lower),
    layer("sim.gen.task_ns", "ns", Lower),
    layer("sim.rtopex_sf_per_s", "1/s", Higher),
    layer("sim.partitioned_sf_per_s", "1/s", Higher),
    layer("sim.global_sf_per_s", "1/s", Higher),
    layer("sim.fleet_t2_sf_per_s", "1/s", Higher),
    layer("sim.missed", "count", Lower),
    layer("sim.dropped", "count", Lower),
    layer("sim.migrated", "count", Higher),
    layer("gen.late_p50_us", "us", Lower),
    layer("gen.late_p95_us", "us", Lower),
    layer("trace.sf_p50_us", "us", Lower),
    layer("trace.overhead_us", "us", Lower),
    layer("trace.spans", "count", Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn better_str(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

/// The exact text of `BENCHMARK.json`.
pub fn render_benchmark_json() -> String {
    let mut s = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|c| json_str(c)).collect();
    writeln!(s, "  \"command\": [{}],", command.join(", ")).unwrap();
    writeln!(s, "  \"paths\": [\"benchmark\"],").unwrap();
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    writeln!(s, "  \"workloads\": [").unwrap();
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_str(w.name),
            json_str(w.why)
        )
        .unwrap();
    }
    writeln!(s, "  ],").unwrap();
    writeln!(s, "  \"end_to_end\": [").unwrap();
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            json_str(better_str(m.better)),
            m.bound.expect("end-to-end metrics are bounded")
        )
        .unwrap();
    }
    writeln!(s, "  ],").unwrap();
    writeln!(s, "  \"per_layer\": [").unwrap();
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            json_str(better_str(m.better))
        )
        .unwrap();
    }
    writeln!(s, "  ]").unwrap();
    s.push_str("}\n");
    s
}

/// Measured values keyed by metric name, in table order.
pub type Values = Vec<(&'static str, f64)>;

/// The one-line result object the driver reads from the end of stdout.
pub fn render_result(
    table: &[Metric],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            let v = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name))
                .1;
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(v),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A JSON number with every digit measured (Rust's shortest round-trip
/// form); non-finite values cannot be JSON and mean a bug upstream.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for n in WORKLOADS.iter().map(|w| w.name) {
            assert!(valid_name(n), "{n}");
            assert!(seen.insert(n), "duplicate {n}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn table_sizes_and_bounds_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32);
        for m in END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn benchmark_json_is_rendered_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            render_benchmark_json(),
            "regenerate with `rtopex-benchmark --emit-spec > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let table = [e2e("a_us", "us", 0.1), e2e("setup_s", "s", 0.25)];
        let values = vec![("setup_s", 0.8127), ("a_us", 1.2034)];
        assert_eq!(
            render_result(&table, &values, true, 1000, 0),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"a_us\": {\"value\": 1.2034, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
