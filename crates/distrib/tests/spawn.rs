//! The two binaries as processes.
//!
//! * `rtopex-fronthaul --spawn N` with more workers than cells: the extra
//!   workers would never get a hello, wait out their 60 s accept timeout
//!   and fail the run, so the aggregator must spawn one worker per cell.
//! * `rtopex-node` refuses a hello whose Eq. 3 budget its own calibration
//!   says the pool cannot meet.

use rtopex_distrib::Geometry;
use rtopex_transport_net::TcpFronthaulTx;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Waits up to 30 s for `child` to exit, killing it and failing after.
fn wait_30s(child: &mut Child, what: &str) -> ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            return status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("{what} still running after 30 s");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn spawn_more_workers_than_cells_finishes_clean() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rtopex-fronthaul"))
        .args([
            "--cells",
            "1",
            "--spawn",
            "2",
            "--quick",
            "--warmup-ms",
            "200",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rtopex-fronthaul");
    // Well inside the node's 60 s accept timeout.
    let status = wait_30s(&mut child, "rtopex-fronthaul");
    let mut report = String::new();
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut report)
        .expect("read report");
    assert!(status.success(), "{status:?}\n{report}");
    assert!(report.contains("\"workers\": 1,"), "{report}");
    assert!(report.contains("\"ok\": true"), "{report}");
}

#[test]
fn node_refuses_a_pool_it_cannot_decode_within_budget() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rtopex-node"))
        .args(["--transport", "tcp", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rtopex-node");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut line)
        .expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"));
    // The demo's 5 MHz pool with a 10 µs budget: well-formed, so
    // `Geometry::from_params` accepts it, but no MCS decodes that fast.
    let mut params = Geometry::demo(10).stream_params(vec![0]);
    params.budget_us = 10;
    let tx = TcpFronthaulTx::connect(addr, params).expect("hello accepted");
    let status = wait_30s(&mut child, "rtopex-node");
    drop(tx);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert!(!status.success(), "{status:?}\n{stderr}");
    assert!(stderr.contains("unschedulable"), "{stderr}");
}
