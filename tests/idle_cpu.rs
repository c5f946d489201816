//! A node between subframes burns almost no CPU, in steal mode too: its
//! workers spin only while a subframe is live and sleep otherwise (in
//! short naps while the stream runs), and the run ends at its last
//! verdict. One test, alone in its binary, so that no other test's
//! threads are counted in the process CPU time it reads.

#![cfg(target_os = "linux")]

use std::sync::mpsc;
use std::time::{Duration, Instant};

use rtopex::phy::params::Bandwidth;
use rtopex::runtime::{send_paced, ClusterConfig, CranCluster, SchedulerMode, SendPlan};
use rtopex::transport::{
    inproc_pair, FronthaulRx, Recv, RxStats, StreamParams, SubframeBuf, TransportError,
};

/// Subframes sent, one cell, `PERIOD` apart.
const SENT: usize = 25;
const PERIOD: Duration = Duration::from_millis(20);

/// Linux reports `/proc` CPU times in USER_HZ ticks, fixed at 100 per
/// second by the ABI.
const TICK: Duration = Duration::from_millis(10);

/// CPU time this process has used so far: utime + stime from
/// `/proc/self/stat`.
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name may hold spaces; the fields after it do not.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 1..]
        .split_whitespace()
        .collect();
    // Fields 14 and 15 of proc(5); `fields[0]` is field 3.
    let ticks: u32 = fields[11].parse::<u32>().unwrap() + fields[12].parse::<u32>().unwrap();
    TICK * ticks
}

/// Sends the current instant and process CPU time on the cluster's first
/// `recv_into`: its workers are warm from then on, so the window the test
/// measures holds the paced stream and nothing of calibration or warm-up.
struct ReadySignal<R> {
    inner: R,
    ready: Option<mpsc::Sender<(Instant, Duration)>>,
}

impl<R: FronthaulRx> FronthaulRx for ReadySignal<R> {
    fn params(&self) -> &StreamParams {
        self.inner.params()
    }

    fn recv_into(
        &mut self,
        buf: &mut SubframeBuf,
        timeout: Duration,
    ) -> Result<Recv, TransportError> {
        if let Some(ready) = self.ready.take() {
            let _ = ready.send((Instant::now(), process_cpu()));
        }
        self.inner.recv_into(buf, timeout)
    }

    fn stats(&self) -> RxStats {
        self.inner.stats()
    }
}

#[test]
fn steal_mode_idles_without_burning_cpu_and_still_steals() {
    // 5 MHz with MCS 16 and 27: two and three code blocks, so decode
    // subtasks can migrate as well as FFT batches.
    let cfg = ClusterConfig {
        bandwidth: Bandwidth::Mhz5,
        num_cells: 1,
        subframes: SENT,
        period: PERIOD,
        mode: SchedulerMode::RtOpexSteal,
        mcs_pool: vec![16, 27],
        ..ClusterConfig::demo()
    };
    let params = StreamParams {
        samples_per_subframe: cfg.bandwidth.samples_per_subframe() as u32,
        antennas: cfg.num_antennas as u8,
        cells: vec![0],
        period_us: cfg.period.as_micros() as u32,
        budget_us: cfg.budget().as_micros() as u32,
        mcs_pool: cfg.mcs_pool.clone(),
        subframes: SENT as u32,
    };
    let cluster = CranCluster::new(cfg.clone());
    // Calibration is lazy; take it here, outside the measured window.
    cluster.check_eq3().expect("the pool fits a 39 ms budget");
    let (mut tx, rx) = inproc_pair(params, 16);
    let (ready, started) = mpsc::channel();
    let mut rx = ReadySignal {
        inner: rx,
        ready: Some(ready),
    };
    let plan = SendPlan::new(&cfg);
    let sender = std::thread::spawn(move || {
        let (epoch, cpu0) = started.recv().unwrap();
        let (sent, ended) = send_paced(&mut tx, &plan, &[0], epoch);
        ended.unwrap();
        (epoch, cpu0, sent)
    });
    let fed = cluster.run_fed(&mut rx);
    let (cpu1, end) = (process_cpu(), Instant::now());
    let (epoch, cpu0, sent) = sender.join().unwrap();

    let r = &fed.cluster;
    assert_eq!(sent, SENT as u64);
    assert_eq!(
        r.proc_us.len() as u64 + r.dropped,
        sent,
        "every subframe accounted"
    );
    assert!(
        r.steals > 0,
        "no subtask was stolen: the thieves did not wake in time"
    );
    // The run ends at the last verdict: the last subframe arrives about
    // (SENT − 1)·PERIOD after the first and is decided within its budget.
    assert!(
        r.elapsed < PERIOD * SENT as u32 + cfg.budget(),
        "elapsed {:?}: the run outlived its last deadline",
        r.elapsed
    );
    let cpu = cpu1.saturating_sub(cpu0);
    let capacity = (end - epoch) * cfg.total_cores() as u32;
    assert!(
        cpu < capacity / 4,
        "{cpu:?} of CPU over {:?} of wall on {} cores: idle workers spin",
        end - epoch,
        cfg.total_cores()
    );
}
