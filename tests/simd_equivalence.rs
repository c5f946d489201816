//! SIMD dispatch must never change a decode result.
//!
//! The vectorized PHY kernels (max-log-MAP, soft demapper, MRC, FFT
//! butterflies) are designed to be **bit-exact** across tiers: the AVX2
//! intrinsic paths and the portable lane forms perform the same
//! additions, multiplies by the same constants and the same `max`/`min`
//! reductions in rounding-equivalent order. These property
//! tests drive whole subframes through `decode_subframe_with` under a
//! forced-scalar tier, under every other tier this CPU supports, and
//! under auto dispatch, and require the coded LLRs, the recovered
//! payload, the CRC verdicts and the per-block turbo iteration counts to
//! match exactly.
//!
//! On hardware without AVX2 the tier loop shrinks to the tiers
//! that exist and the test degrades gracefully — the lane-form-vs-
//! reference equivalence is covered by unit tests inside `rtopex-phy`
//! regardless of the machine.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtopex::phy::channel::{AwgnChannel, ChannelModel};
use rtopex::phy::params::Bandwidth;
use rtopex::phy::simd::{self, SimdTier};
use rtopex::phy::uplink::{JobSlab, RxOutput, UplinkConfig, UplinkRx, UplinkTx};
use rtopex::phy::workspace::PhyWorkspace;
use rtopex::phy::Cf32;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests in this binary: `force_tier` is process-global,
/// so concurrent test threads must not interleave tier changes.
/// Poisoning is ignored — the override is valid in any state.
fn tier_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One end-to-end decode under the currently active tier: returns the
/// coded LLRs from the staged pipeline plus the owned output of the
/// workspace decode (the two paths are themselves bit-identical, which
/// `alloc_regression.rs` already enforces).
fn decode_under_current_tier(
    rx: &UplinkRx,
    samples: &[Vec<Cf32>],
    ws: &mut PhyWorkspace,
) -> (Vec<f32>, RxOutput) {
    let (llrs, out) = (
        coded_llrs_under_current_tier(rx, samples),
        rx.decode_subframe_with(samples, ws)
            .expect("workspace decode")
            .to_output(),
    );
    (llrs, out)
}

/// Runs the FFT and demod stages of the staged slab job the runtime ships
/// and returns the coded LLR stream.
fn coded_llrs_under_current_tier(rx: &UplinkRx, samples: &[Vec<Cf32>]) -> Vec<f32> {
    let mut slab = JobSlab::new();
    let mut job = rx.start_job_in(samples, &mut slab).expect("staged job");
    for a in 0..samples.len() {
        job.run_fft_batch_local(a);
    }
    job.finish_fft();
    for i in 0..job.demod_subtask_count() {
        job.run_demod_subtask_local(i);
    }
    job.coded_llrs().to_vec()
}

/// An encoded noisy subframe plus its receiver.
fn make_cell(bw: Bandwidth, mcs: u8, snr_db: f64, seed: u64) -> (UplinkRx, Vec<Vec<Cf32>>) {
    let cfg = UplinkConfig::new(bw, 2, mcs).expect("config");
    let tx = UplinkTx::new(cfg.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let payload: Vec<u8> = (0..cfg.transport_block_bytes())
        .map(|_| rng.gen())
        .collect();
    let sf = tx.encode_subframe(&payload).expect("encode");
    let mut chan = AwgnChannel::new(snr_db);
    let samples = chan.apply(&sf.samples, cfg.num_antennas, &mut rng);
    (UplinkRx::new(cfg), samples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn every_supported_tier_and_auto_dispatch_decode_identically(
        seed in 0u64..1_000,
        mcs in prop::sample::select(vec![5u8, 16, 27]),
        bw in prop::sample::select(vec![Bandwidth::Mhz1_4, Bandwidth::Mhz5]),
        snr_db in prop::sample::select(vec![6.0f64, 12.0, 30.0]),
    ) {
        let _g = tier_guard();
        let (rx, samples) = make_cell(bw, mcs, snr_db, seed);
        let mut ws = PhyWorkspace::new();

        simd::force_tier(Some(SimdTier::Scalar));
        let (llrs_scalar, out_scalar) = decode_under_current_tier(&rx, &samples, &mut ws);

        for tier in simd::supported_tiers().skip(1) {
            simd::force_tier(Some(tier));
            let (llrs, out) = decode_under_current_tier(&rx, &samples, &mut ws);
            prop_assert_eq!(
                &llrs_scalar, &llrs,
                "coded LLRs diverged between scalar and {}", tier.name()
            );
            prop_assert_eq!(&out_scalar.payload, &out.payload);
            prop_assert_eq!(out_scalar.crc_ok, out.crc_ok);
            prop_assert_eq!(&out_scalar.block_crc_ok, &out.block_crc_ok);
            prop_assert_eq!(&out_scalar.block_iterations, &out.block_iterations);
        }

        simd::force_tier(None);
        let (llrs_auto, out_auto) = decode_under_current_tier(&rx, &samples, &mut ws);
        prop_assert_eq!(llrs_scalar, llrs_auto, "coded LLRs diverged under auto dispatch");
        prop_assert_eq!(&out_scalar.payload, &out_auto.payload);
        prop_assert_eq!(out_scalar.crc_ok, out_auto.crc_ok);
        prop_assert_eq!(&out_scalar.block_crc_ok, &out_auto.block_crc_ok);
        prop_assert_eq!(&out_scalar.block_iterations, &out_auto.block_iterations);
    }
}
