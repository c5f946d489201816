//! `rtopex-node` — a distributed C-RAN compute worker.
//!
//! Listens for one fronthaul aggregator, adopts the stream geometry from
//! its hello, refuses a pool this host cannot decode within the hello's
//! Eq. 3 budget ([`CranCluster::check_eq3`]), runs the negotiated cells
//! through [`CranCluster::run_fed`], and emits a flat JSON report on
//! stdout when the stream closes.
//!
//! ```text
//! rtopex-node --listen 127.0.0.1:0 [--transport udp|tcp] [--mode steal]
//!             [--accept-timeout-s 60] [--out report.json]
//! ```
//!
//! The first stdout line is `listening on <addr>` (flushed before the
//! accept), so a parent aggregator using `--spawn` with port 0 can read
//! the bound endpoint back.

use rtopex_distrib::{
    node_report_json, parse_mode, parse_transport, Args, Geometry, NODE_QUEUE_DEPTH,
};
use rtopex_runtime::cluster::CranCluster;
use rtopex_transport::FronthaulRx;
use rtopex_transport_net::{TcpRxPending, UdpRxPending};
use std::io::Write as _;
use std::time::Duration;

fn fail(msg: &str) -> ! {
    eprintln!("rtopex-node: {msg}");
    std::process::exit(1);
}

fn main() {
    let args = Args::from_env();
    let Some(listen) = args.value("--listen") else {
        fail("usage: rtopex-node --listen <addr> [--transport udp|tcp] [--mode steal]");
    };
    let Some(transport) = parse_transport(args.value("--transport").unwrap_or("udp")) else {
        fail("--transport must be udp or tcp");
    };
    let Some(mode) = parse_mode(args.value("--mode").unwrap_or("steal")) else {
        fail("--mode must be steal, mutex, global or part");
    };
    let accept_timeout = Duration::from_secs(args.parsed_or("--accept-timeout-s", 60u64));
    let out = args.value("--out").map(str::to_string);

    // Bind, announce the bound address (port 0 resolves here), accept.
    let mut rx: Box<dyn FronthaulRx> = match transport {
        "udp" => {
            let pending = match UdpRxPending::bind(listen) {
                Ok(p) => p,
                Err(e) => fail(&format!("bind {listen}: {e}")),
            };
            match pending.local_addr() {
                Ok(a) => {
                    println!("listening on {a}");
                    let _ = std::io::stdout().flush();
                }
                Err(e) => fail(&format!("local addr: {e}")),
            }
            match pending.accept(accept_timeout, NODE_QUEUE_DEPTH) {
                Ok(rx) => Box::new(rx),
                Err(e) => fail(&format!("accept: {e}")),
            }
        }
        _ => {
            let pending = match TcpRxPending::bind(listen) {
                Ok(p) => p,
                Err(e) => fail(&format!("bind {listen}: {e}")),
            };
            match pending.local_addr() {
                Ok(a) => {
                    println!("listening on {a}");
                    let _ = std::io::stdout().flush();
                }
                Err(e) => fail(&format!("local addr: {e}")),
            }
            match pending.accept(accept_timeout, NODE_QUEUE_DEPTH) {
                Ok(rx) => Box::new(rx),
                Err(e) => fail(&format!("accept: {e}")),
            }
        }
    };

    let params = rx.params().clone();
    let Some(geo) = Geometry::from_params(&params) else {
        fail(&format!(
            "peer geometry unsupported: {} samples/subframe, budget {} µs at period {} µs, MCS pool {:?}",
            params.samples_per_subframe, params.budget_us, params.period_us, params.mcs_pool
        ));
    };
    let cluster = CranCluster::new(geo.cluster_config(params.cells.len(), mode));
    let worst = match cluster.check_eq3() {
        Ok(worst) => worst,
        Err(e) => fail(&format!("pool unschedulable on this host: {e}")),
    };
    eprintln!(
        "rtopex-node: {} cell(s) over {transport}, {:?} @ {} µs period, budget {} µs \
         (worst MCS {} needs {} µs), {} subframes/cell",
        params.cells.len(),
        geo.bandwidth,
        geo.period.as_micros(),
        geo.budget().as_micros(),
        worst.mcs,
        worst.need.as_micros(),
        geo.subframes,
    );

    let fed = cluster.run_fed(&mut *rx);

    let report = node_report_json(transport, mode, &geo, params.cells.len(), &fed);
    println!("{report}");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, &report) {
            fail(&format!("write {path}: {e}"));
        }
    }
}
