//! Integration: the analytical models and the real PHY must agree on the
//! *mechanisms* — the simulator's validity rests on this bridge.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtopex::model::iters::IterationModel;
use rtopex::phy::channel::{AwgnChannel, ChannelModel};
use rtopex::phy::params::Bandwidth;
use rtopex::phy::uplink::{UplinkConfig, UplinkRx, UplinkTx};

/// Decodes `trials` random subframes; returns (mean iterations, CRC fails).
fn phy_stats(mcs: u8, snr_db: f64, trials: usize, seed: u64) -> (f64, usize) {
    phy_stats_ant(mcs, 2, snr_db, trials, seed)
}

fn phy_stats_ant(mcs: u8, antennas: usize, snr_db: f64, trials: usize, seed: u64) -> (f64, usize) {
    let cfg = UplinkConfig::new(Bandwidth::Mhz1_4, antennas, mcs).expect("config");
    let tx = UplinkTx::new(cfg.clone());
    let rx = UplinkRx::new(cfg.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut iters = 0usize;
    let mut fails = 0usize;
    for _ in 0..trials {
        let payload: Vec<u8> = (0..cfg.transport_block_bytes())
            .map(|_| rng.gen())
            .collect();
        let sf = tx.encode_subframe(&payload).expect("encode");
        let mut chan = AwgnChannel::new(snr_db);
        let rxs = chan.apply(&sf.samples, cfg.num_antennas, &mut rng);
        let out = rx.decode_subframe(&rxs).expect("decode");
        iters += out.max_iterations();
        if !out.crc_ok {
            fails += 1;
        }
    }
    (iters as f64 / trials as f64, fails)
}

#[test]
fn real_decoder_iterations_rise_as_snr_falls() {
    // The mechanism behind Eq. (1)'s L term, straight from the real
    // decoder: colder channels burn more iterations. Single antenna (no
    // MRC gain), 16-QAM near its waterfall.
    let (clean, _) = phy_stats_ant(16, 1, 25.0, 6, 1);
    let (cold, _) = phy_stats_ant(16, 1, 8.0, 6, 1);
    assert!(
        cold > clean,
        "iterations should rise as SNR falls: {clean} → {cold}"
    );
}

#[test]
fn real_decoder_fails_below_requirement_like_the_model() {
    let im = IterationModel::paper_gpp();
    // Far below requirement: both model and PHY must fail CRCs.
    let req = IterationModel::required_snr_db(16);
    let (_, fails) = phy_stats(16, req - 10.0, 4, 2);
    assert_eq!(fails, 4, "PHY should fail hopeless channels");
    assert!(im.crc_fail_prob(16, req - 10.0) > 0.95);
    // Far above: both succeed.
    let (_, fails) = phy_stats(16, req + 12.0, 4, 3);
    assert_eq!(fails, 0, "PHY should pass comfortable channels");
    assert!(im.crc_fail_prob(16, req + 12.0) < 0.05);
}

#[test]
fn real_decode_time_grows_with_mcs_like_eq1() {
    // Eq. (1): higher D·L means longer decode. Measure the real thing:
    // MCS 0 and MCS 27 timed in alternating rounds, each the minimum over
    // its rounds, so one host stall cannot decide the comparison.
    let cell = |mcs: u8| {
        let cfg = UplinkConfig::new(Bandwidth::Mhz1_4, 2, mcs).expect("config");
        let tx = UplinkTx::new(cfg.clone());
        let mut rng = StdRng::seed_from_u64(4);
        let payload: Vec<u8> = (0..cfg.transport_block_bytes())
            .map(|_| rng.gen())
            .collect();
        let sf = tx.encode_subframe(&payload).expect("encode");
        let mut chan = AwgnChannel::new(30.0);
        let rxs = chan.apply(&sf.samples, cfg.num_antennas, &mut rng);
        (UplinkRx::new(cfg), rxs)
    };
    let time_of = |(rx, rxs): &(UplinkRx, Vec<Vec<_>>)| -> f64 {
        let t0 = std::time::Instant::now();
        for _ in 0..3 {
            std::hint::black_box(rx.decode_subframe(rxs).expect("decode"));
        }
        t0.elapsed().as_secs_f64()
    };
    let (mcs0, mcs27) = (cell(0), cell(27));
    let (mut low, mut high) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        low = low.min(time_of(&mcs0));
        high = high.min(time_of(&mcs27));
    }
    assert!(
        high > 1.5 * low,
        "MCS 27 should cost well over MCS 0: {low:.4}s vs {high:.4}s"
    );
}

#[test]
fn subtask_counts_agree_between_model_and_phy() {
    // The Fig. 5 decomposition the scheduler plans with must match what
    // the PHY actually exposes.
    use rtopex::phy::segmentation::Segmentation;
    for mcs in [0u8, 7, 16, 27] {
        let cfg = UplinkConfig::new(Bandwidth::Mhz10, 2, mcs).expect("config");
        let seg = Segmentation::compute(cfg.tbs_bits() + 24).expect("segmentation");
        assert_eq!(cfg.breakdown().decode, seg.num_blocks, "MCS {mcs}");
        assert_eq!(cfg.breakdown().fft, 2 * 14);
        assert_eq!(cfg.breakdown().demod, 12);
    }
}
