//! The path every cluster run takes — a fronthaul feeding
//! `CranCluster::run_fed` — under every scheduler mode, through the public
//! API only: the sender paces `mcs_plan` × `encode_pool` with
//! `send_paced` over the in-process transport (i16-quantized, exactly
//! what the wire carries).

use std::sync::mpsc;
use std::time::{Duration, Instant};

use rtopex::phy::params::Bandwidth;
use rtopex::runtime::{send_paced, ClusterConfig, CranCluster, FedReport, SchedulerMode, SendPlan};
use rtopex::transport::{
    inproc_pair, FronthaulRx, FronthaulTx, Recv, RxStats, StreamParams, SubframeBuf, TransportError,
};

/// Subframes per cell the sender really transmits.
const SENT: usize = 40;

fn quick_cfg(mode: SchedulerMode) -> ClusterConfig {
    // 5 MHz with a long period: high-MCS subframes carry several code
    // blocks and helpers have real idle windows, so the RT-OPEX modes
    // have something to migrate.
    ClusterConfig {
        bandwidth: Bandwidth::Mhz5,
        num_cells: 2,
        subframes: SENT,
        period: Duration::from_micros(3_000),
        mode,
        mcs_pool: vec![5, 16, 27],
        ..ClusterConfig::demo()
    }
}

/// The hello a sender of `cells` wire ids would send for `cfg`.
fn stream_params(cfg: &ClusterConfig, cells: Vec<u16>) -> StreamParams {
    StreamParams {
        samples_per_subframe: cfg.bandwidth.samples_per_subframe() as u32,
        antennas: cfg.num_antennas as u8,
        cells,
        period_us: cfg.period.as_micros() as u32,
        budget_us: cfg.budget().as_micros() as u32,
        mcs_pool: cfg.mcs_pool.clone(),
        subframes: cfg.subframes as u32,
    }
}

/// A receiver that tells the sender when the cluster first asks for a
/// subframe: its workers are warm from then on, so a paced stream that
/// starts there meets a ready node instead of a burst of backlog.
struct ReadySignal<R> {
    inner: R,
    ready: Option<mpsc::Sender<Instant>>,
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
            let _ = ready.send(Instant::now());
        }
        self.inner.recv_into(buf, timeout)
    }

    fn stats(&self) -> RxStats {
        self.inner.stats()
    }
}

/// Streams `SENT` subframes per cell, on the cadence, into a fed cluster
/// whose config and hello both claim `claimed` subframes per cell. The
/// send plan always comes from the `SENT`-subframe config: `mcs_plan`
/// materialises `subframes` entries.
fn feed(mode: SchedulerMode, claimed: u32) -> FedReport {
    let plan_cfg = quick_cfg(mode);
    let cfg = ClusterConfig {
        subframes: claimed as usize,
        ..plan_cfg.clone()
    };
    let (mut tx, rx) = inproc_pair(stream_params(&cfg, vec![10, 11]), 16);
    let (ready, started) = mpsc::channel();
    let mut rx = ReadySignal {
        inner: rx,
        ready: Some(ready),
    };
    let sender = std::thread::spawn(move || {
        let plan = SendPlan::new(&plan_cfg);
        let epoch = started.recv().unwrap();
        let (sent, ended) = send_paced(&mut tx, &plan, &[0, 1], epoch);
        ended.unwrap();
        assert_eq!(sent, (2 * SENT) as u64);
    });
    let fed = CranCluster::new(cfg).run_fed(&mut rx);
    sender.join().unwrap();
    fed
}

/// Every delivered subframe must be accounted — processed, dropped at a
/// slack check, or shed at delivery — and nothing the cluster completed
/// may fail CRC.
fn assert_all_accounted(fed: &FedReport, what: &str) {
    let total = (2 * SENT) as u64;
    assert_eq!(fed.rx.delivered, total, "{what}: transport lost subframes");
    assert_eq!(fed.rx.drops, 0, "{what}: transport lost subframes");
    assert_eq!(fed.rx.gaps, 0, "{what}");
    assert_eq!(
        fed.cluster.deadline.total_subframes(),
        total,
        "{what}: every delivered subframe must be accounted"
    );
    assert_eq!(
        fed.cluster.proc_us.len() as u64 + fed.cluster.dropped,
        total,
        "{what}"
    );
    assert!(fed.shed <= fed.cluster.dropped, "{what}");
    assert_eq!(fed.cluster.crc_failures, 0, "{what}: fed decodes corrupted");
}

#[test]
fn fed_run_accounts_for_every_delivered_subframe_in_every_mode() {
    for mode in SchedulerMode::ALL {
        let fed = feed(mode, SENT as u32);
        assert_all_accounted(&fed, mode.name());
        if !mode.migrates() {
            let m = &fed.cluster.migration;
            assert_eq!(fed.cluster.steals, 0, "{}", mode.name());
            assert_eq!(m.fft_migrated + m.decode_migrated, 0, "{}", mode.name());
        }
    }
}

#[test]
fn steal_mode_migrates_fft_batches_from_the_delivery_slot() {
    let fed = feed(SchedulerMode::RtOpexSteal, SENT as u32);
    assert_all_accounted(&fed, "steal");
    let (r, m) = (&fed.cluster, &fed.cluster.migration);
    // Thieves read the antenna batches straight from the job's slot…
    assert!(m.fft_migrated > 0, "no FFT batch migrated");
    // …and every absorbed migration was a thief execution.
    assert!(
        r.steals >= m.fft_migrated + m.decode_migrated,
        "steals {} < absorbed {}",
        r.steals,
        m.fft_migrated + m.decode_migrated
    );
}

#[test]
fn fed_run_sizes_nothing_from_the_claimed_subframe_count() {
    // The count is the peer's: `rtopex-node` copies it from the hello,
    // where 0 means "open-ended" and nothing caps it. Neither extreme may
    // panic or be used as an allocation size — u32::MAX entries per inbox
    // would be hundreds of GB before the first IQ frame.
    for claimed in [0, u32::MAX] {
        let fed = feed(SchedulerMode::RtOpexSteal, claimed);
        assert_all_accounted(&fed, &format!("claimed {claimed}"));
    }
}

#[test]
fn a_subframe_outside_the_mcs_pool_is_dropped_not_decoded() {
    // MCS 6 is no entry of the pool {5, 16, 27}. Decoded under the
    // nearest entry's config (MCS 5) it could only NACK; it must be
    // recorded as a miss + drop instead.
    let cfg = ClusterConfig {
        num_cells: 1,
        ..quick_cfg(SchedulerMode::Partitioned)
    };
    let encoded = |mcs: u8| {
        let one = ClusterConfig {
            mcs_pool: vec![mcs],
            ..cfg.clone()
        };
        CranCluster::encode_pool(&one).swap_remove(0)
    };
    let (five, six) = (encoded(5), encoded(6));
    let (mut tx, mut rx) = inproc_pair(stream_params(&cfg, vec![0]), 8);
    for (seq, (mcs, samples)) in [&five, &six, &five, &six].into_iter().enumerate() {
        tx.send(0, seq as u32, *mcs, samples).unwrap();
    }
    tx.finish().unwrap();
    let r = CranCluster::new(cfg).run_fed(&mut rx).cluster;
    assert_eq!(r.deadline.total_subframes(), 4);
    assert_eq!(r.crc_failures, 0, "MCS 6 decoded under another config");
    assert_eq!(r.dropped, 2);
    assert_eq!(r.proc_us.len(), 2);
}
