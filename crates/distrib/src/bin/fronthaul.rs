//! `rtopex-fronthaul` — the RAP-side aggregator of the distributed
//! C-RAN: streams the deterministic tower-trace workload to one or more
//! `rtopex-node` workers over UDP or TCP.
//!
//! ```text
//! # against already-running nodes:
//! rtopex-fronthaul --cells 4 --hosts "10.0.0.2:9000,10.0.0.3:9000"
//!
//! # single-command localhost demo (spawns the workers itself):
//! rtopex-fronthaul --cells 4 --spawn 2 [--transport udp|tcp] [--quick]
//! ```
//!
//! Cells are split contiguously across hosts; every subframe is released
//! on the global cadence with the per-cell ingest stagger of the shared
//! 10 GbE port, by the same pacing loop `CranCluster::run` feeds its
//! in-process fronthaul with ([`send_paced`]), so the multi-host
//! timeline is the single-host one. With `--spawn`, worker
//! reports are collected and aggregated, and the process exits non-zero
//! if a worker fails, a sent subframe reaches no worker's scheduler
//! (`"lost"`: never delivered, or dropped unread in a node's receive
//! ring) or the workers miss the 0.5 % deadline bar.

use rtopex_distrib::{
    parse_bandwidth, parse_mode, parse_transport, partition_cells, spawn_verdict, Args, Geometry,
};
use rtopex_runtime::cluster::{send_paced, SendPlan};
use rtopex_transport::FronthaulTx;
use rtopex_transport_net::{TcpFronthaulTx, UdpFronthaulTx};
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn fail(msg: &str) -> ! {
    eprintln!("rtopex-fronthaul: {msg}");
    std::process::exit(1);
}

/// A spawned worker: the child process plus its buffered stdout (the
/// `listening on` line has already been consumed).
struct Worker {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

/// Launches a sibling `rtopex-node`, reads back its bound address.
fn spawn_node(transport: &str, mode: &str) -> (Worker, String) {
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("rtopex-node")))
        .unwrap_or_else(|| "rtopex-node".into());
    let mut child = match Command::new(&exe)
        .args([
            "--listen",
            "127.0.0.1:0",
            "--transport",
            transport,
            "--mode",
            mode,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => fail(&format!("spawn {}: {e}", exe.display())),
    };
    let Some(out) = child.stdout.take() else {
        fail("child stdout not captured");
    };
    let mut reader = BufReader::new(out);
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() || !line.starts_with("listening on ") {
        fail(&format!("worker did not announce its address: {line:?}"));
    }
    let addr = line["listening on ".len()..].trim().to_string();
    (
        Worker {
            child,
            stdout: reader,
        },
        addr,
    )
}

fn connect(
    transport: &str,
    addr: &str,
    params: rtopex_transport::StreamParams,
) -> Box<dyn FronthaulTx> {
    match transport {
        "udp" => match UdpFronthaulTx::connect(addr, params) {
            Ok(tx) => Box::new(tx),
            Err(e) => fail(&format!("connect udp {addr}: {e}")),
        },
        _ => match TcpFronthaulTx::connect(addr, params) {
            Ok(tx) => Box::new(tx),
            Err(e) => fail(&format!("connect tcp {addr}: {e}")),
        },
    }
}

fn main() {
    let args = Args::from_env();
    let quick = args.flag("--quick");
    let cells: usize = args.parsed_or("--cells", 4);
    let subframes: usize = args.parsed_or("--subframes", if quick { 120 } else { 400 });
    let warmup = Duration::from_millis(args.parsed_or("--warmup-ms", 2_000u64));
    let Some(transport) = parse_transport(args.value("--transport").unwrap_or("udp")) else {
        fail("--transport must be udp or tcp");
    };
    let mode_arg = args.value("--mode").unwrap_or("steal");
    let Some(mode) = parse_mode(mode_arg) else {
        fail("--mode must be steal, mutex, global or part");
    };
    if cells == 0 || subframes == 0 {
        fail("--cells and --subframes must be positive");
    }

    let mut geo = Geometry::demo(subframes);
    if let Some(bw) = args.value("--bandwidth") {
        match parse_bandwidth(bw) {
            Some(b) => geo.bandwidth = b,
            None => fail("--bandwidth must be one of 1.4, 3, 5, 10, 15, 20"),
        }
    }
    geo.period = Duration::from_micros(args.parsed_or("--period-us", 6_000u64));
    geo.rtt_half = Duration::from_micros(args.parsed_or("--rtt-half-us", 7_000u64));
    if geo.rtt_half > 2 * geo.period {
        fail("--rtt-half-us exceeds 2x period: no processing budget left");
    }

    // Workers: either spawned siblings on loopback or remote addresses.
    let mut spawned: Vec<Worker> = Vec::new();
    // A worker without cells would never get a hello, so at most one
    // worker per cell is used.
    let hosts: Vec<String> = if let Some(list) = args.value("--hosts") {
        let mut hosts: Vec<String> = list.split(',').map(|s| s.trim().to_string()).collect();
        if hosts.len() > cells {
            eprintln!(
                "rtopex-fronthaul: warning: {} hosts for {cells} cell(s); {} get no cells and are not contacted",
                hosts.len(),
                hosts.len() - cells
            );
            hosts.truncate(cells);
        }
        hosts
    } else {
        let n: usize = args.parsed_or("--spawn", 2);
        if n == 0 {
            fail("--spawn needs at least one worker");
        }
        let n = n.min(cells);
        eprintln!("rtopex-fronthaul: spawning {n} local rtopex-node worker(s)…");
        (0..n)
            .map(|_| {
                let (w, addr) = spawn_node(transport, mode_arg);
                spawned.push(w);
                addr
            })
            .collect()
    };
    let partitions = partition_cells(cells, hosts.len());

    // The deterministic workload: the exact pool + per-cell MCS plan
    // `CranCluster::run` sends for this config, and the per-cell
    // delivery stagger of the shared fronthaul port.
    eprintln!(
        "rtopex-fronthaul: encoding pool ({} MCS) for {cells} cell(s), {subframes} subframes…",
        geo.mcs_pool.len()
    );
    let plan = SendPlan::new(&geo.cluster_config(cells, mode));

    // Connect every host (hello negotiates geometry), then give the
    // nodes one warm-up window to calibrate before the cadence starts.
    let mut txs: Vec<(Box<dyn FronthaulTx>, Vec<u16>)> = hosts
        .iter()
        .zip(&partitions)
        .map(|(addr, cells)| {
            (
                connect(transport, addr, geo.stream_params(cells.clone())),
                cells.clone(),
            )
        })
        .collect();
    eprintln!(
        "rtopex-fronthaul: connected {} host(s) over {transport}; warming {} ms…",
        txs.len(),
        warmup.as_millis()
    );
    std::thread::sleep(warmup);

    // Stream: one pacing thread per host, all sharing the same epoch so
    // the cross-host timeline matches the single-host schedule.
    let epoch = Instant::now() + Duration::from_millis(50);
    let sent: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = txs
            .iter_mut()
            .map(|(tx, host_cells)| {
                let plan = &plan;
                // The host's wire ids are the global cell indices.
                let rows: Vec<usize> = host_cells.iter().map(|&c| c as usize).collect();
                s.spawn(move || {
                    let (sent, ended) = send_paced(tx.as_mut(), plan, &rows, epoch);
                    if let Err(e) = ended {
                        eprintln!("rtopex-fronthaul: stream to cells {host_cells:?}: {e}");
                    }
                    sent
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
    });
    let expected = (cells * subframes) as u64;
    eprintln!("rtopex-fronthaul: streamed {sent}/{expected} subframes");

    // Collect worker reports (spawned mode only: remote nodes report on
    // their own stdout).
    let mut reports: Vec<String> = Vec::new();
    let mut workers_ok = true;
    for (i, mut w) in spawned.into_iter().enumerate() {
        let mut rest = String::new();
        let _ = w.stdout.read_to_string(&mut rest);
        let status = w.child.wait();
        let exited_ok = matches!(&status, Ok(st) if st.success());
        if !exited_ok {
            eprintln!("rtopex-fronthaul: worker {i} exited with {status:?}");
            workers_ok = false;
        }
        reports.push(rest);
    }
    // Remote-hosts mode collects no reports: only the send side is
    // visible here.
    let verdict =
        (!reports.is_empty()).then(|| spawn_verdict(sent, expected, &reports, workers_ok));
    let ok = verdict.map_or(sent == expected, |v| v.ok);

    let cpw: Vec<String> = partitions.iter().map(|p| p.len().to_string()).collect();
    println!("{{");
    println!("  \"role\": \"fronthaul\",");
    println!("  \"transport\": \"{transport}\",");
    println!("  \"mode\": \"{}\",", mode.name());
    println!("  \"workers\": {},", hosts.len());
    println!("  \"cells\": {cells},");
    println!("  \"cells_per_worker\": [{}],", cpw.join(", "));
    println!("  \"subframes_per_cell\": {subframes},");
    println!("  \"period_us\": {},", geo.period.as_micros());
    println!("  \"budget_us\": {},", geo.budget().as_micros());
    println!("  \"sent\": {sent},");
    println!("  \"expected\": {expected},");
    if let Some(v) = verdict {
        println!("  \"delivered\": {},", v.delivered);
        println!("  \"rx_overruns\": {},", v.rx_overruns);
        println!("  \"lost\": {},", v.lost);
        println!("  \"missed\": {},", v.missed);
        println!("  \"miss_rate\": {:.6},", v.miss_rate);
        println!("  \"gaps\": {},", v.gaps);
        println!("  \"shed\": {},", v.shed);
        println!("  \"dropped_mcs\": {},", v.dropped_mcs);
        println!("  \"dropped_no_slack\": {},", v.dropped_no_slack);
        println!("  \"crc_failures\": {},", v.crc_failures);
    }
    println!("  \"ok\": {ok}");
    println!("}}");
    if !ok {
        std::process::exit(1);
    }
}
