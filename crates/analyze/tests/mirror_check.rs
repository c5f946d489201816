//! Pins the analyzer's mirrored tables to the shipped constructors.
//!
//! `rtopex-analyze` is dependency-free, so `sched.rs` re-derives the
//! PHY numerology, TBS table, segmentation rule, and shipped scheduler
//! configs instead of importing them. These tests are the only thing
//! that stops the mirrors from drifting: every mirrored value is
//! recomputed here through the real crates (dev-dependencies only) and
//! compared exactly.

use std::time::Duration;

use rtopex_analyze::sched::{self, Bw, Mode};
use rtopex_experiments::cluster_scale;
use rtopex_experiments::Opts;
use rtopex_phy::mcs::Mcs;
use rtopex_phy::params::Bandwidth;
use rtopex_phy::segmentation::Segmentation;
use rtopex_runtime::{ClusterConfig, SchedulerMode};

const PAIRS: [(Bw, Bandwidth); 6] = [
    (Bw::Mhz1_4, Bandwidth::Mhz1_4),
    (Bw::Mhz3, Bandwidth::Mhz3),
    (Bw::Mhz5, Bandwidth::Mhz5),
    (Bw::Mhz10, Bandwidth::Mhz10),
    (Bw::Mhz15, Bandwidth::Mhz15),
    (Bw::Mhz20, Bandwidth::Mhz20),
];

#[test]
fn bandwidth_mirror_matches_phy_numerology() {
    for (bw, real) in PAIRS {
        assert_eq!(bw.fft_size(), real.fft_size(), "{}", bw.label());
        assert_eq!(bw.num_prbs(), real.num_prbs(), "{}", bw.label());
        assert_eq!(
            bw.num_subcarriers(),
            real.num_subcarriers(),
            "{}",
            bw.label()
        );
    }
    assert_eq!(
        sched::SYMBOLS_PER_SUBFRAME,
        rtopex_phy::params::SYMBOLS_PER_SUBFRAME
    );
    assert_eq!(
        sched::MAX_TURBO_ITERS,
        rtopex_phy::mcs::DEFAULT_MAX_TURBO_ITERS
    );
}

#[test]
fn qm_and_tbs_mirrors_match_mcs_table() {
    for mcs in 0..=28u8 {
        let real = Mcs::new(mcs).expect("valid MCS index");
        assert_eq!(sched::qm(mcs), real.modulation_order(), "qm at MCS {mcs}");
        for (bw, _) in PAIRS {
            assert_eq!(
                sched::tbs_bits(mcs, bw.num_prbs()),
                real.transport_block_bits(bw.num_prbs()),
                "TBS at MCS {mcs}, {}",
                bw.label()
            );
        }
    }
}

#[test]
fn block_sizes_mirror_matches_segmentation() {
    for mcs in 0..=28u8 {
        let real = Mcs::new(mcs).expect("valid MCS index");
        for (bw, _) in PAIRS {
            let b = real.transport_block_bits(bw.num_prbs()) + sched::TB_CRC_LEN;
            let seg = Segmentation::compute(b).expect("segmentation");
            assert_eq!(
                sched::block_sizes(b),
                seg.block_sizes(),
                "blocks at MCS {mcs}, {}",
                bw.label()
            );
        }
    }
}

fn mirror(name: &str) -> sched::MirrorConfig {
    sched::shipped_configs()
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no mirrored config `{name}`"))
}

fn assert_cluster_mirror(m: &sched::MirrorConfig, real: &ClusterConfig) {
    assert_eq!(m.bw.fft_size(), real.bandwidth.fft_size(), "{}", m.name);
    assert_eq!(m.cells, real.num_cells, "{}", m.name);
    assert_eq!(
        Duration::from_secs_f64(m.period_us / 1e6),
        real.period,
        "{}",
        m.name
    );
    assert_eq!(
        Duration::from_secs_f64(m.rtt_half_us / 1e6),
        real.rtt_half,
        "{}",
        m.name
    );
    assert_eq!(m.mcs_pool, real.mcs_pool.as_slice(), "{}", m.name);
    assert_eq!(m.delta_us, real.delta_us, "{}", m.name);
    // The Eq. 3 budget must agree with the shipped arithmetic too.
    assert_eq!(
        Duration::from_secs_f64(m.budget_us() / 1e6),
        real.budget(),
        "{}",
        m.name
    );
}

#[test]
fn cluster_demo_mirror_matches_shipped_constructor() {
    let m = mirror("cluster-demo");
    assert_cluster_mirror(&m, &ClusterConfig::demo());
    assert_eq!(m.modes, &[Mode::RtOpexSteal]);
}

#[test]
fn experiments_sweep_mirror_matches_shipped_constructor() {
    let m = mirror("experiments-cluster-sweep");
    let real = cluster_scale::cluster_cfg(&Opts::default(), SchedulerMode::RtOpexSteal, m.cells);
    assert_cluster_mirror(&m, &real);
    assert_eq!(
        m.modes,
        &[
            Mode::Partitioned,
            Mode::Global,
            Mode::RtOpexMutex,
            Mode::RtOpexSteal
        ]
    );
}
