//! The fronthaul's IQ sample format: 16-bit fixed point, in one place.
//!
//! [`quantize`] is the reference definition. The send paths call two
//! slice kernels instead, [`quantize_be_into`] (the wire payload) and
//! [`quantize_roundtrip_into`] (what the in-process transport delivers).
//! They are bit-identical to it for every `f32` at every SIMD tier without
//! libm's `roundf`: clamp first, truncate, and compare the exact fraction
//! with ±0.5. Clamping to the integer bounds before rounding equals
//! rounding first, as rounding is monotone. Each kernel has a lane form
//! for scalar CPUs and an AVX2 form that AVX2 and AVX-512 CPUs run.

use crate::complex::Cf32;
#[cfg(target_arch = "x86_64")]
use crate::simd::{self, SimdTier};

/// Fixed-point scale: full-scale i16 corresponds to this float amplitude.
/// Baseband is normalized near unit power, so 8× headroom avoids clipping.
pub const IQ_SCALE: f32 = 4096.0;

/// Quantizes one baseband component to the wire's 16-bit fixed point:
/// rounded half away from zero, clamped to `i16`, NaN → 0.
pub fn quantize(v: f32) -> i16 {
    (v * IQ_SCALE)
        .round()
        .clamp(i16::MIN as f32, i16::MAX as f32) as i16
}

/// Inverse of [`quantize`].
pub fn dequantize(v: i16) -> f32 {
    v as f32 / IQ_SCALE
}

/// Writes `samples` as the wire payload: `quantize(re)`, `quantize(im)`
/// per sample, each big-endian.
///
/// # Panics
/// Panics if `out.len() != 4 * samples.len()`.
pub fn quantize_be_into(samples: &[Cf32], out: &mut [u8]) {
    // analyze: allow(panic): buffer-shape contract; the sender sizes the payload from the same sample count, and the AVX2 form writes through raw pointers
    assert_eq!(out.len(), 4 * samples.len(), "IQ payload length");
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if simd::active_tier() >= SimdTier::Avx2 {
        // SAFETY: the Avx2 tier is only reported after runtime detection
        // succeeded (crate::simd); `out` holds 4 bytes per sample (above).
        #[allow(unsafe_code)]
        unsafe {
            done = avx2::quantize_be(samples, out);
        }
    }
    let out = out[4 * done..].chunks_exact_mut(4);
    for (s, d) in samples[done..].iter().zip(out) {
        d[..2].copy_from_slice(&quantize_lane(s.re).to_be_bytes());
        d[2..].copy_from_slice(&quantize_lane(s.im).to_be_bytes());
    }
}

/// Writes `dequantize(quantize(·))` of every component of `samples` to
/// `out`: exactly what a byte transport delivers.
///
/// # Panics
/// Panics if `out.len() != samples.len()`.
pub fn quantize_roundtrip_into(samples: &[Cf32], out: &mut [Cf32]) {
    // analyze: allow(panic): buffer-shape contract; the stream geometry fixes both lengths, and the AVX2 form writes through raw pointers
    assert_eq!(out.len(), samples.len(), "IQ sample count");
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if simd::active_tier() >= SimdTier::Avx2 {
        // SAFETY: the Avx2 tier is only reported after runtime detection
        // succeeded (crate::simd); `out` is as long as `samples` (above).
        #[allow(unsafe_code)]
        unsafe {
            done = avx2::quantize_roundtrip(samples, out);
        }
    }
    for (s, d) in samples[done..].iter().zip(&mut out[done..]) {
        let (re, im) = (quantize_lane(s.re), quantize_lane(s.im));
        *d = Cf32::new(dequantize(re), dequantize(im));
    }
}

/// The lane form of [`quantize`]: clamp, truncate, then round on the
/// exact fraction `c − trunc(c)`. The saturating cast maps NaN to 0.
#[inline(always)]
fn quantize_lane(v: f32) -> i16 {
    let c = (v * IQ_SCALE).clamp(i16::MIN as f32, i16::MAX as f32);
    let t = c as i32;
    let f = c - t as f32;
    (t + (f >= 0.5) as i32 - (f <= -0.5) as i32) as i16
}

/// Explicit AVX2 form of both kernels: the lane form on eight components
/// per instruction, NaN lanes masked to 0 (`cvttps` reads them as −32768).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #![allow(unsafe_code)]

    use super::IQ_SCALE;
    use crate::complex::Cf32;
    use core::arch::x86_64::*;

    /// `quantize` of eight components, as `i32` lanes.
    #[target_feature(enable = "avx2")]
    fn quantize8(v: __m256) -> __m256i {
        let min = _mm256_set1_ps(i16::MIN as f32);
        let max = _mm256_set1_ps(i16::MAX as f32);
        let x = _mm256_mul_ps(v, _mm256_set1_ps(IQ_SCALE));
        let ordered = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_ORD_Q>(x, x));
        let c = _mm256_min_ps(_mm256_max_ps(x, min), max);
        let t = _mm256_cvttps_epi32(c);
        let f = _mm256_sub_ps(c, _mm256_cvtepi32_ps(t));
        // True compares are −1: subtracting `up` adds one, adding `down`
        // subtracts one.
        let up = _mm256_cmp_ps::<_CMP_GE_OQ>(f, _mm256_set1_ps(0.5));
        let down = _mm256_cmp_ps::<_CMP_LE_OQ>(f, _mm256_set1_ps(-0.5));
        let r = _mm256_sub_epi32(t, _mm256_castps_si256(up));
        let r = _mm256_add_epi32(r, _mm256_castps_si256(down));
        _mm256_and_si256(r, ordered)
    }

    /// Writes every whole eight-sample block of `samples` as big-endian
    /// `i16` I/Q; returns the number of samples done.
    ///
    /// # Safety
    /// `out` must hold 4 bytes per sample; the CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_be(samples: &[Cf32], out: &mut [u8]) -> usize {
        let swap = _mm256_broadcastsi128_si256(_mm_setr_epi8(
            1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14,
        ));
        let blocks = samples.len() / 8;
        for b in 0..blocks {
            // SAFETY: eight in-bounds samples are sixteen contiguous floats
            // (`Cf32` is `repr(C)`), [I0 Q0 … I7 Q7].
            let (lo, hi) = unsafe {
                let p = samples.as_ptr().add(8 * b) as *const f32;
                (_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(8)))
            };
            // packs works per 128-bit half: [lo0-3 hi0-3 | lo4-7 hi4-7].
            let q = _mm256_packs_epi32(quantize8(lo), quantize8(hi));
            let q = _mm256_permute4x64_epi64::<0b11_01_10_00>(q);
            // SAFETY: the block's 32 bytes are in bounds (caller).
            unsafe {
                _mm256_storeu_si256(
                    out.as_mut_ptr().add(32 * b) as *mut __m256i,
                    _mm256_shuffle_epi8(q, swap),
                );
            }
        }
        8 * blocks
    }

    /// Writes `dequantize(quantize(·))` of every whole four-sample block of
    /// `samples`; returns the number of samples done (`i / 4096` and
    /// `i · 2⁻¹²` are the same exact value for every `i16`).
    ///
    /// # Safety
    /// `out` must be as long as `samples`; the CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_roundtrip(samples: &[Cf32], out: &mut [Cf32]) -> usize {
        let inv = _mm256_set1_ps(1.0 / IQ_SCALE);
        let blocks = samples.len() / 4;
        for b in 0..blocks {
            // SAFETY: four in-bounds samples are eight contiguous floats in
            // both slices (`Cf32` is `repr(C)`; `out` is as long, caller).
            unsafe {
                let v = _mm256_loadu_ps(samples.as_ptr().add(4 * b) as *const f32);
                let d = _mm256_mul_ps(_mm256_cvtepi32_ps(quantize8(v)), inv);
                _mm256_storeu_ps(out.as_mut_ptr().add(4 * b) as *mut f32, d);
            }
        }
        4 * blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{force_tier, supported_tiers, test_guard};

    /// SplitMix64: a seeded stream of bit patterns without a dependency.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The edge values first (so the short-length sweep walks them), then
    /// every k/8192 for |k| ≤ 2¹⁷ with both neighbouring bit patterns,
    /// then 1 M seeded random bit patterns.
    fn edge_values() -> Vec<f32> {
        let mut v = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001), // signalling NaN
            f32::from_bits(0xFFC1_2345), // negative NaN with a payload
            f32::from_bits(0x7FFF_FFFF),
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1), // smallest subnormal
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007F_FFFF), // largest subnormal
            f32::from_bits(0x807F_FFFF),
            // The clamp edges: 32767.5 LSB rounds to 32768 and clamps,
            // −32768.5 LSB rounds to −32769 and clamps.
            32767.5 / IQ_SCALE,
            -32768.5 / IQ_SCALE,
            32767.0 / IQ_SCALE,
            -32768.0 / IQ_SCALE,
            32766.5 / IQ_SCALE,
            -32767.5 / IQ_SCALE,
            0.5 / IQ_SCALE,
            -0.5 / IQ_SCALE,
            1.5 / IQ_SCALE,
            -1.5 / IQ_SCALE,
            // Largest f32 below 0.5 LSB: `floor(x + 0.5)` would round it up.
            f32::from_bits((0.5f32 / IQ_SCALE).to_bits() - 1),
            1e30,
            -1e30,
        ];
        for k in -(1i32 << 17)..=(1 << 17) {
            let x = k as f32 / 8192.0;
            v.extend([
                x,
                f32::from_bits(x.to_bits().wrapping_add(1)),
                f32::from_bits(x.to_bits().wrapping_sub(1)),
            ]);
        }
        let mut state = 0x1D5E_ED01;
        v.extend((0..1 << 20).map(|_| f32::from_bits(splitmix(&mut state) as u32)));
        v
    }

    fn pairs(v: &[f32]) -> Vec<Cf32> {
        v.chunks(2)
            .map(|c| Cf32::new(c[0], *c.get(1).unwrap_or(&0.0)))
            .collect()
    }

    /// Both kernels against the reference on `s`, bit for bit, with the
    /// outputs pre-filled so an unwritten lane shows.
    fn check(s: &[Cf32], what: &str) {
        let mut be = vec![0xAAu8; 4 * s.len()];
        quantize_be_into(s, &mut be);
        let mut rt = vec![Cf32::new(f32::NAN, f32::NAN); s.len()];
        quantize_roundtrip_into(s, &mut rt);
        for (i, x) in s.iter().enumerate() {
            let want = [quantize(x.re), quantize(x.im)];
            let got = [
                i16::from_be_bytes([be[4 * i], be[4 * i + 1]]),
                i16::from_be_bytes([be[4 * i + 2], be[4 * i + 3]]),
            ];
            assert_eq!(got, want, "{what}: be, sample {i} = {x:?}");
            assert_eq!(
                [rt[i].re.to_bits(), rt[i].im.to_bits()],
                want.map(|q| dequantize(q).to_bits()),
                "{what}: roundtrip, sample {i} = {x:?}"
            );
        }
    }

    #[test]
    fn kernels_match_reference_at_every_tier() {
        let _g = test_guard();
        let samples = pairs(&edge_values());
        for tier in supported_tiers().map(Some).chain([None]) {
            force_tier(tier);
            for (c, chunk) in samples.chunks(7680).enumerate() {
                check(chunk, &format!("{tier:?} chunk {c} of 7680"));
            }
            // Short lengths at every offset into the edge values, so each
            // lands in the AVX2 blocks and in the lane tail.
            for n in (0..=40).chain([360]) {
                for start in 0..48 {
                    let s = &samples[start..start + n];
                    check(s, &format!("{tier:?} len {n} at {start}"));
                }
            }
        }
        force_tier(None);
    }

    #[test]
    fn known_values() {
        let q = |v: f32| quantize(v / IQ_SCALE);
        assert_eq!(
            [q(0.5), q(-0.5), q(1.5), q(-2.5), q(32767.5), q(-32768.5)],
            [1, -1, 2, -3, i16::MAX, i16::MIN]
        );
        assert_eq!(quantize(f32::NAN), 0);
        assert_eq!(dequantize(quantize(-0.0)).to_bits(), 0.0f32.to_bits());
    }

    /// Every `f32` bit pattern through the lane and AVX2 forms, 2¹⁶ at a
    /// time; `check` names the first mismatch of a failing block. Run with
    /// `cargo test --release -p rtopex-phy -- --ignored iq_`.
    #[test]
    #[ignore]
    fn iq_quantize_is_exact_on_every_f32() {
        let _g = test_guard();
        let tiers: Vec<_> = supported_tiers().collect();
        let mut s = vec![Cf32::ZERO; 1 << 15];
        let (mut be, mut want_be) = (vec![0u8; 1 << 17], vec![0u8; 1 << 17]);
        let (mut rt, mut want_rt) = (vec![0u32; 1 << 16], vec![0u32; 1 << 16]);
        let mut rt_out = vec![Cf32::ZERO; 1 << 15];
        for hi in 0..1u32 << 16 {
            for (j, s) in s.iter_mut().enumerate() {
                let b = hi << 16 | (2 * j as u32);
                *s = Cf32::new(f32::from_bits(b), f32::from_bits(b + 1));
            }
            let want = s.iter().flat_map(|x| [quantize(x.re), quantize(x.im)]);
            for ((b, r), q) in want_be.chunks_exact_mut(2).zip(&mut want_rt).zip(want) {
                b.copy_from_slice(&q.to_be_bytes());
                *r = dequantize(q).to_bits();
            }
            for &tier in &tiers {
                force_tier(Some(tier));
                quantize_be_into(&s, &mut be);
                quantize_roundtrip_into(&s, &mut rt_out);
                let bits = rt_out.iter().flat_map(|x| [x.re.to_bits(), x.im.to_bits()]);
                for (r, b) in rt.iter_mut().zip(bits) {
                    *r = b;
                }
                if be != want_be || rt != want_rt {
                    check(&s, &format!("{tier:?} block {hi:#06x}"));
                }
            }
        }
        force_tier(None);
    }
}
