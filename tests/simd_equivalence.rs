//! SIMD dispatch must never change a decode result.
//!
//! The vectorized PHY kernels (max-log-MAP, soft demapper, MRC, FFT
//! butterflies) are designed to be **bit-exact** across tiers: the AVX2
//! intrinsic paths and the portable lane forms perform the same
//! additions, multiplies by the same constants and the same `max`/`min`
//! reductions in rounding-equivalent order. These property
//! tests drive whole subframes through the staged `SlabJob`, every
//! subtask run locally, under a forced-scalar tier, under every other tier this CPU supports, and
//! under auto dispatch, and require the coded LLRs, the recovered
//! payload, the CRC verdicts and the per-block turbo iteration counts to
//! match exactly.
//!
//! On hardware without AVX2 the tier loop shrinks to the tiers
//! that exist and the test degrades gracefully — the lane-form-vs-
//! reference equivalence is covered by unit tests inside `rtopex-phy`
//! regardless of the machine.

mod common;

use common::{staged_decode, tier_guard};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtopex::phy::channel::{AwgnChannel, ChannelModel};
use rtopex::phy::params::Bandwidth;
use rtopex::phy::simd::{self, SimdTier};
use rtopex::phy::uplink::{JobSlab, UplinkConfig, UplinkRx, UplinkTx};
use rtopex::phy::Cf32;

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

        simd::force_tier(Some(SimdTier::Scalar));
        let (llrs_scalar, out_scalar) = staged_decode(&rx, &samples, &mut JobSlab::new());

        for tier in simd::supported_tiers().skip(1) {
            simd::force_tier(Some(tier));
            let (llrs, out) = staged_decode(&rx, &samples, &mut JobSlab::new());
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
        let (llrs_auto, out_auto) = staged_decode(&rx, &samples, &mut JobSlab::new());
        prop_assert_eq!(llrs_scalar, llrs_auto, "coded LLRs diverged under auto dispatch");
        prop_assert_eq!(&out_scalar.payload, &out_auto.payload);
        prop_assert_eq!(out_scalar.crc_ok, out_auto.crc_ok);
        prop_assert_eq!(&out_scalar.block_crc_ok, &out_auto.block_crc_ok);
        prop_assert_eq!(&out_scalar.block_iterations, &out_auto.block_iterations);
    }
}
