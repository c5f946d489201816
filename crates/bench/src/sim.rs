//! `rtopex-bench --sim` — emits `BENCH_sim.json`, the tracked pooling
//! baseline: the cells/core vs fleet-size curves from
//! `rtopex_experiments::pooling`, with the fitted `a + b/H` parameters
//! the fleet-level schedulability gate extrapolates from, and the
//! shipped deployments it checks.
//!
//! Simulator throughput is not recorded here: `benchmark/`'s `sim_rtopex`
//! workload measures the engine per scheduler from validated runs, and
//! the one-time wheel-vs-heap comparison is a sentence in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p rtopex-bench -- --sim [--quick] [OUTPUT.json]
//! ```
//!
//! `--quick` shrinks every run to CI scale, where only the schema is
//! being checked; the tracked `BENCH_sim.json` is regenerated full-scale.

use rtopex_experiments::common::Opts;
use rtopex_experiments::pooling::{
    sweep_all, CORE_BUDGET, MISS_BUDGET, RTT_HALF_US, SHIPPED_FLEET_CONFIGS,
};
use std::fmt::Write as _;

fn fmt_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// Runs the simulator benchmark and writes `path`.
pub fn run_bench(quick: bool, path: &str) {
    let opts = Opts {
        quick,
        ..Opts::default()
    };

    eprintln!("pooling sweep ({})…", if quick { "quick" } else { "full" });
    let curves = sweep_all(&opts);

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

    writeln!(body, "  \"pooling\": {{").unwrap();
    writeln!(
        body,
        "    \"core_budget\": {CORE_BUDGET}, \"miss_budget\": {MISS_BUDGET}, \
         \"rtt_half_us\": {RTT_HALF_US},"
    )
    .unwrap();
    writeln!(body, "    \"modes\": {{").unwrap();
    for (i, c) in curves.iter().enumerate() {
        let comma = if i + 1 < curves.len() { "," } else { "" };
        let hosts: Vec<String> = c.hosts.iter().map(|h| h.to_string()).collect();
        let a_max: Vec<String> = c.a_max.iter().map(|a| a.to_string()).collect();
        let cpc: Vec<String> = c
            .a_max
            .iter()
            .map(|&a| fmt_f(a as f64 / CORE_BUDGET as f64))
            .collect();
        writeln!(
            body,
            "      \"{}\": {{ \"hosts\": [{}], \"a_max\": [{}], \
             \"cells_per_core\": [{}], \"fit_a\": {}, \"fit_b\": {} }}{}",
            c.name,
            hosts.join(", "),
            a_max.join(", "),
            cpc.join(", "),
            fmt_f(c.fit.a),
            fmt_f(c.fit.b),
            comma
        )
        .unwrap();
        eprintln!(
            "  {:>14}: a_max {:?}, fit {:.3} + {:.3}/H",
            c.name, c.a_max, c.fit.a, c.fit.b
        );
    }
    writeln!(body, "    }},").unwrap();
    writeln!(body, "    \"shipped\": [").unwrap();
    for (i, d) in SHIPPED_FLEET_CONFIGS.iter().enumerate() {
        let comma = if i + 1 < SHIPPED_FLEET_CONFIGS.len() {
            ","
        } else {
            ""
        };
        writeln!(
            body,
            "      {{ \"name\": \"{}\", \"hosts\": {}, \"mode\": \"{}\", \
             \"cells_per_host\": {} }}{}",
            d.name, d.hosts, d.mode, d.cells_per_host, comma
        )
        .unwrap();
    }
    writeln!(body, "    ]").unwrap();
    writeln!(body, "  }}").unwrap();
    writeln!(body, "}}").unwrap();

    std::fs::write(path, body).expect("write sim baseline");
    let gate_ok = SHIPPED_FLEET_CONFIGS.iter().all(|d| {
        curves
            .iter()
            .find(|c| c.name == d.mode)
            .map(|c| d.cells_per_host <= c.fit.cells_per_host(d.hosts))
            .unwrap_or(false)
    });
    eprintln!(
        "wrote {path}: shipped deployments {}",
        if gate_ok {
            "within capacity"
        } else {
            "OVER capacity"
        }
    );
}
