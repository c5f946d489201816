//! `rtopex-fronthaul --spawn N` with more workers than cells: the extra
//! workers would never get a hello, wait out their 60 s accept timeout
//! and fail the run, so the aggregator must spawn one worker per cell.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

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
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll rtopex-fronthaul") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("rtopex-fronthaul still running after 30 s");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
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
