//! The path the benchmark's node workloads measure — a fronthaul feeding
//! `CranCluster::run_fed` — under every scheduler mode, through the public
//! API only: the sender transmits `mcs_plan` × `encode_pool` over the
//! in-process transport (i16-quantized, exactly what the wire carries).

use std::time::Duration;

use rtopex::phy::params::Bandwidth;
use rtopex::runtime::{ClusterConfig, CranCluster, FedReport, SchedulerMode};
use rtopex::transport::{inproc_pair, FronthaulTx, StreamParams};

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

/// Streams `SENT` subframes per cell into a fed cluster whose config and
/// hello both claim `claimed` subframes per cell. The send plan always
/// comes from the `SENT`-subframe config: `mcs_plan` materialises
/// `subframes` entries.
fn feed(mode: SchedulerMode, claimed: u32) -> FedReport {
    let plan_cfg = quick_cfg(mode);
    let cfg = ClusterConfig {
        subframes: claimed as usize,
        ..plan_cfg.clone()
    };
    let params = StreamParams {
        samples_per_subframe: cfg.bandwidth.samples_per_subframe() as u32,
        antennas: cfg.num_antennas as u8,
        cells: vec![10, 11],
        period_us: cfg.period.as_micros() as u32,
        budget_us: cfg.budget().as_micros() as u32,
        mcs_pool: cfg.mcs_pool.clone(),
        subframes: claimed,
    };
    // Depth covers the whole run so warm-up cannot overrun the queue.
    let (mut tx, mut rx) = inproc_pair(params.clone(), cfg.num_cells * SENT + 4);
    let sender = std::thread::spawn(move || {
        let plan = CranCluster::mcs_plan(&plan_cfg);
        let pool = CranCluster::encode_pool(&plan_cfg);
        for j in 0..SENT {
            for (c, &cell) in params.cells.iter().enumerate() {
                let (mcs, samples) = &pool[plan[c][j]];
                tx.send(cell, j as u32, *mcs, samples).unwrap();
            }
            std::thread::sleep(plan_cfg.period / 4);
        }
        tx.finish().unwrap();
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
