//! A golden digest of the uplink receiver's output over a fixed grid.
//!
//! One FNV-1a 64 hash covers 1.4 and 5 MHz × MCS {0, 5, 16, 20, 27} ×
//! SNR {2, 6, 12, 30} dB on 2 antennas with fixed seeds: every coded-LLR
//! bit pattern, payload byte, per-block CRC, per-block turbo iteration
//! count and transport-block verdict. The low SNR points make iteration
//! counts vary and let some CRCs fail, so a change that reorders a
//! kernel's arithmetic or reuses a stale buffer moves the digest even
//! where the payload still decodes.
//!
//! The receiver is fed i16-quantized samples (`iq::quantize` then
//! `iq::dequantize`), as a node decodes them off the wire, so the digest
//! does not hang on the host libm's last bit in the channel draw.
//!
//! The digest is computed under every SIMD tier this CPU supports and
//! under auto dispatch, through the staged `SlabJob` stage by stage, and
//! checked against `UplinkRx::decode_subframe` at every grid point.

mod common;

use common::{staged_decode, tier_guard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtopex::phy::channel::{AwgnChannel, ChannelModel};
use rtopex::phy::iq::{dequantize, quantize};
use rtopex::phy::params::Bandwidth;
use rtopex::phy::simd::{self, SimdTier};
use rtopex::phy::uplink::{JobSlab, RxOutput, UplinkConfig, UplinkRx, UplinkTx};
use rtopex::phy::Cf32;

/// The digest of [`grid`], recorded before the serial decoder was folded
/// into the staged job. It must never change: a change here means a
/// decode result changed.
const GOLDEN: u64 = 0x4552_7418_58e0_d7df;

/// FNV-1a 64.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One grid point: its receiver and its quantized received samples.
struct Point {
    rx: UplinkRx,
    samples: Vec<Vec<Cf32>>,
}

/// The fixed grid, in hash order.
fn grid() -> Vec<Point> {
    let mut points = Vec::new();
    for (b, bw) in [Bandwidth::Mhz1_4, Bandwidth::Mhz5].into_iter().enumerate() {
        for mcs in [0u8, 5, 16, 20, 27] {
            for snr_db in [2.0f64, 6.0, 12.0, 30.0] {
                let cfg = UplinkConfig::new(bw, 2, mcs).expect("config");
                let seed = 0xD16E_5700 ^ ((b as u64) << 16) ^ (u64::from(mcs) << 8) ^ snr_db as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let payload: Vec<u8> = (0..cfg.transport_block_bytes())
                    .map(|_| rng.gen())
                    .collect();
                let sf = UplinkTx::new(cfg.clone())
                    .encode_subframe(&payload)
                    .expect("encode");
                let mut chan = AwgnChannel::new(snr_db);
                let samples = chan
                    .apply(&sf.samples, cfg.num_antennas, &mut rng)
                    .into_iter()
                    .map(|ant| {
                        ant.into_iter()
                            .map(|v| {
                                Cf32::new(dequantize(quantize(v.re)), dequantize(quantize(v.im)))
                            })
                            .collect()
                    })
                    .collect();
                points.push(Point {
                    rx: UplinkRx::new(cfg),
                    samples,
                });
            }
        }
    }
    points
}

/// The one-call decode of `p`.
fn one_call(p: &Point) -> RxOutput {
    p.rx.decode_subframe(&p.samples).expect("decode")
}

/// The digest of the whole grid under the current tier. Every point's
/// one-call decode must equal its staged decode.
fn digest(points: &[Point]) -> u64 {
    let mut h = Fnv::new();
    let mut slab = JobSlab::new();
    for (n, p) in points.iter().enumerate() {
        let (llrs, out) = staged_decode(&p.rx, &p.samples, &mut slab);
        let serial = one_call(p);
        assert_eq!(serial.payload, out.payload, "point {n}: payload");
        assert_eq!(serial.crc_ok, out.crc_ok, "point {n}: verdict");
        assert_eq!(
            serial.block_crc_ok, out.block_crc_ok,
            "point {n}: block CRCs"
        );
        assert_eq!(
            serial.block_iterations, out.block_iterations,
            "point {n}: iterations"
        );
        for v in &llrs {
            h.bytes(&v.to_bits().to_le_bytes());
        }
        h.bytes(&out.payload);
        for (&ok, &it) in out.block_crc_ok.iter().zip(&out.block_iterations) {
            h.bytes(&[u8::from(ok)]);
            h.bytes(&(it as u64).to_le_bytes());
        }
        h.bytes(&[u8::from(out.crc_ok)]);
    }
    h.0
}

#[test]
fn every_tier_and_auto_dispatch_decode_the_golden_digest() {
    let _g = tier_guard();
    let points = grid();
    // The grid must exercise failing CRCs and varying iteration counts.
    simd::force_tier(Some(SimdTier::Scalar));
    let outs: Vec<RxOutput> = points.iter().map(one_call).collect();
    assert!(outs.iter().any(|o| !o.crc_ok), "no CRC fails in the grid");
    assert!(outs.iter().any(|o| o.crc_ok), "no CRC passes in the grid");
    assert!(
        outs.iter().any(|o| o.max_iterations() > 1),
        "iteration counts never vary"
    );
    for tier in simd::supported_tiers() {
        simd::force_tier(Some(tier));
        let d = digest(&points);
        assert_eq!(
            d,
            GOLDEN,
            "digest under the {} tier: {d:#018x}",
            tier.name()
        );
    }
    simd::force_tier(None);
    let d = digest(&points);
    assert_eq!(d, GOLDEN, "digest under auto dispatch: {d:#018x}");
}
