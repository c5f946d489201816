//! QAM mapping and max-log soft demapping (3GPP TS 36.211 §7.1).
//!
//! Square Gray-mapped constellations — QPSK, 16-QAM, 64-QAM — with the
//! standard LTE bit-to-level formulas. The demapper produces max-log LLRs
//! (`L = ln P(0)/P(1)`) exploiting the I/Q separability of square QAM: each
//! axis is an independent PAM constellation, so demapping is `O(levels)`
//! per axis instead of `O(points)` per symbol.

use crate::complex::Cf32;
#[cfg(target_arch = "x86_64")]
use crate::simd::{self, SimdTier};

/// Supported modulation schemes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// QPSK, 2 bits/symbol.
    Qpsk,
    /// 16-QAM, 4 bits/symbol.
    Qam16,
    /// 64-QAM, 6 bits/symbol.
    Qam64,
}

impl Modulation {
    /// Maps a modulation order `Qm ∈ {2, 4, 6}` to the scheme.
    pub const fn from_order(qm: usize) -> Option<Self> {
        match qm {
            2 => Some(Modulation::Qpsk),
            4 => Some(Modulation::Qam16),
            6 => Some(Modulation::Qam64),
            _ => None,
        }
    }

    /// Bits per symbol (`Qm`).
    pub const fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Bits per axis (half of `Qm`).
    const fn bits_per_axis(self) -> usize {
        self.bits_per_symbol() / 2
    }

    /// Normalization factor so average symbol energy is 1.
    fn norm(self) -> f32 {
        match self {
            Modulation::Qpsk => 1.0 / 2f32.sqrt(),
            Modulation::Qam16 => 1.0 / 10f32.sqrt(),
            Modulation::Qam64 => 1.0 / 42f32.sqrt(),
        }
    }

    /// PAM level (unnormalized, odd integer) for the axis bits, MSB first.
    ///
    /// LTE formulas (36.211 Table 7.1.x):
    /// * QPSK:  `(1−2b)`
    /// * 16-QAM: `(1−2b₀)·(2−(1−2b₁))` → ±1, ±3
    /// * 64-QAM: `(1−2b₀)·(4−(1−2b₁)·(2−(1−2b₂)))` → ±1…±7
    fn axis_level(self, bits: &[u8]) -> f32 {
        let s = |b: u8| 1.0 - 2.0 * b as f32;
        match self {
            Modulation::Qpsk => s(bits[0]),
            Modulation::Qam16 => s(bits[0]) * (2.0 - s(bits[1])),
            Modulation::Qam64 => s(bits[0]) * (4.0 - s(bits[1]) * (2.0 - s(bits[2]))),
        }
    }

    /// All (level, axis-bit-pattern) pairs of the per-axis PAM
    /// constellation, as a fixed-size array plus its used length — the
    /// demapper runs per data symbol and must not allocate.
    fn axis_table(self) -> ([(f32, [u8; 3]); 8], usize) {
        let nb = self.bits_per_axis();
        let mut table = [(0.0f32, [0u8; 3]); 8];
        for (v, entry) in table.iter_mut().enumerate().take(1 << nb) {
            let mut bits = [0u8; 3];
            for i in 0..nb {
                bits[i] = ((v >> (nb - 1 - i)) & 1) as u8;
            }
            *entry = (self.axis_level(&bits[..nb]) * self.norm(), bits);
        }
        (table, 1 << nb)
    }

    /// Maps a bit slice to constellation symbols.
    ///
    /// LTE interleaves axis bits: even-indexed bits of each symbol drive the
    /// I axis, odd-indexed the Q axis (b0,b2,… → I; b1,b3,… → Q).
    ///
    /// # Panics
    /// Panics if `bits.len()` is not a multiple of `Qm`.
    pub fn map(self, bits: &[u8]) -> Vec<Cf32> {
        let qm = self.bits_per_symbol();
        assert_eq!(bits.len() % qm, 0, "bit count must be a multiple of Qm");
        let nb = self.bits_per_axis();
        bits.chunks_exact(qm)
            .map(|chunk| {
                let mut ib = [0u8; 3];
                let mut qb = [0u8; 3];
                for i in 0..nb {
                    ib[i] = chunk[2 * i];
                    qb[i] = chunk[2 * i + 1];
                }
                Cf32::new(
                    self.axis_level(&ib[..nb]) * self.norm(),
                    self.axis_level(&qb[..nb]) * self.norm(),
                )
            })
            // analyze: allow(alloc): TX-side mapper; the RX hot path is demap_maxlog
            .collect()
    }

    /// Max-log soft demapping of equalized symbols into LLRs
    /// (`ln P(0)/P(1)` convention), written into the row `out` in LTE bit
    /// order (`Qm` per symbol; I-axis bit `t` → bit `2t`, Q-axis → `2t + 1`).
    ///
    /// `noise_var` is the post-equalization noise variance shared by the
    /// row's symbols (complex, total across both axes); the per-axis
    /// scale `1/(σ²/2)` is computed once for the row.
    ///
    /// Two forms: a portable lane form, and an AVX2 form that demaps four
    /// symbols (eight axis values) per register and re-interleaves the
    /// LLRs in registers. AVX2 and AVX-512 CPUs run the AVX2 form for every
    /// modulation, which beat the lane form 1.7–1.9× in the measured tier
    /// table (EXPERIMENTS.md, front-end section). Both forms are bit-exact
    /// with each other and with the historical per-symbol scalar loop
    /// (same squared distances, same running minima, same
    /// `(d1 − d0)·inv` scaling).
    ///
    /// # Panics
    /// Panics if `out.len() != symbols.len() × Qm`.
    pub fn demap_maxlog(self, symbols: &[Cf32], noise_var: f32, out: &mut [f32]) {
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(
            out.len(),
            symbols.len() * self.bits_per_symbol(),
            "LLR row length"
        );
        // Per-axis noise variance is half the complex variance.
        let inv = 1.0 / (noise_var.max(1e-12) * 0.5);
        // Entry `v` is the level of axis-bit pattern `v` (MSB first); the
        // kernels read only the first `2^NB`.
        let levels = self.axis_table().0.map(|(level, _)| level);
        match self {
            Modulation::Qpsk => demap::<1>(&levels, symbols, inv, out),
            Modulation::Qam16 => demap::<2>(&levels, symbols, inv, out),
            Modulation::Qam64 => demap::<3>(&levels, symbols, inv, out),
        }
    }
}

/// Demaps a row for `NB` bits per axis: whole four-symbol blocks on the
/// AVX2 form when the CPU has it, the rest on the lane form.
fn demap<const NB: usize>(levels: &[f32; 8], symbols: &[Cf32], inv: f32, out: &mut [f32]) {
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if simd::active_tier() >= SimdTier::Avx2 {
        // SAFETY: the Avx2 tier is only reported after runtime detection
        // succeeded (see crate::simd); `out` holds `2·NB` LLRs per symbol
        // (checked by the caller).
        #[allow(unsafe_code)]
        unsafe {
            done = avx2::demap::<NB>(levels, symbols, inv, out);
        }
    }
    demap_lanes::<NB>(levels, &symbols[done..], inv, &mut out[2 * NB * done..]);
}

/// Portable lane form: each axis value against the `2^NB` PAM levels,
/// folding the squared distances into the per-bit `d0`/`d1` minima
/// selected by the level's bit pattern (a compile-time property, so the
/// loops are branchless).
fn demap_lanes<const NB: usize>(levels: &[f32; 8], symbols: &[Cf32], inv: f32, out: &mut [f32]) {
    for (y, o) in symbols.iter().zip(out.chunks_exact_mut(2 * NB)) {
        for (axis, x) in [y.re, y.im].into_iter().enumerate() {
            let mut d0 = [f32::MAX; NB];
            let mut d1 = [f32::MAX; NB];
            for (v, &level) in levels.iter().enumerate().take(1 << NB) {
                let e = x - level;
                let d = e * e;
                for t in 0..NB {
                    let sel = if (v >> (NB - 1 - t)) & 1 == 0 {
                        &mut d0[t]
                    } else {
                        &mut d1[t]
                    };
                    // `minps` order: the running minimum is never NaN, so
                    // this is `f32::min` and what the AVX2 form computes.
                    *sel = if d < *sel { d } else { *sel };
                }
            }
            for t in 0..NB {
                o[2 * t + axis] = (d1[t] - d0[t]) * inv;
            }
        }
    }
}

/// Explicit AVX2 form: the lane form's level loop and minima over eight
/// axis values per instruction, LLRs re-interleaved into LTE bit order in
/// registers and stored straight into the row.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #![allow(unsafe_code)]

    use crate::complex::Cf32;
    use core::arch::x86_64::*;

    /// Demaps every whole four-symbol block of `symbols`; returns the
    /// number of symbols done.
    ///
    /// # Safety
    /// `out` must hold `2·NB` entries per symbol; the CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn demap<const NB: usize>(
        levels: &[f32; 8],
        symbols: &[Cf32],
        inv: f32,
        out: &mut [f32],
    ) -> usize {
        let inv = _mm256_set1_ps(inv);
        let blocks = symbols.len() / 4;
        for b in 0..blocks {
            // SAFETY: four in-bounds symbols are eight contiguous floats,
            // [I0 Q0 I1 Q1 I2 Q2 I3 Q3].
            let v = unsafe { _mm256_loadu_ps(symbols.as_ptr().add(4 * b) as *const f32) };
            let mut d0 = [_mm256_set1_ps(f32::MAX); NB];
            let mut d1 = [_mm256_set1_ps(f32::MAX); NB];
            for (lvl, &level) in levels.iter().enumerate().take(1 << NB) {
                let e = _mm256_sub_ps(v, _mm256_set1_ps(level));
                let d = _mm256_mul_ps(e, e);
                for t in 0..NB {
                    // `minps(d, m)` is `d < m ? d : m`, the lane form's select.
                    if (lvl >> (NB - 1 - t)) & 1 == 0 {
                        d0[t] = _mm256_min_ps(d, d0[t]);
                    } else {
                        d1[t] = _mm256_min_ps(d, d1[t]);
                    }
                }
            }
            // Row `t` holds bit `t`'s (I, Q) pair of each symbol as one
            // 64-bit lane; symbol `j`'s LLRs are pair `j` of rows 0..NB.
            let r: [__m256d; NB] = core::array::from_fn(|t| {
                _mm256_castps_pd(_mm256_mul_ps(_mm256_sub_ps(d1[t], d0[t]), inv))
            });
            // SAFETY: the block's `8·NB` LLRs are in bounds (caller).
            unsafe {
                let dst = out.as_mut_ptr().add(8 * NB * b) as *mut f64;
                match NB {
                    1 => _mm256_storeu_pd(dst, r[0]),
                    2 => {
                        let lo = _mm256_unpacklo_pd(r[0], r[1]); // a0 b0 | a2 b2
                        let hi = _mm256_unpackhi_pd(r[0], r[1]); // a1 b1 | a3 b3
                        _mm256_storeu_pd(dst, _mm256_permute2f128_pd(lo, hi, 0x20));
                        _mm256_storeu_pd(dst.add(4), _mm256_permute2f128_pd(lo, hi, 0x31));
                    }
                    _ => {
                        // Rotate each row so every output vector is a blend:
                        // [a0 b0 c0 a1] [b1 c1 a2 b2] [c2 a3 b3 c3].
                        let a = _mm256_permute4x64_pd(r[0], 0b01_10_11_00); // a0 a3 a2 a1
                        let b = _mm256_permute4x64_pd(r[1], 0b10_11_00_01); // b1 b0 b3 b2
                        let c = _mm256_permute4x64_pd(r[2], 0b11_00_01_10); // c2 c1 c0 c3
                        _mm256_storeu_pd(dst, blend3(a, b, c));
                        _mm256_storeu_pd(dst.add(4), blend3(b, c, a));
                        _mm256_storeu_pd(dst.add(8), blend3(c, a, b));
                    }
                }
            }
        }
        4 * blocks
    }

    /// `[x0 y1 z2 x3]`.
    #[target_feature(enable = "avx2")]
    fn blend3(x: __m256d, y: __m256d, z: __m256d) -> __m256d {
        _mm256_blend_pd(_mm256_blend_pd(x, y, 0b0010), z, 0b0100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hard(llrs: &[f32]) -> Vec<u8> {
        llrs.iter().map(|&l| (l < 0.0) as u8).collect()
    }

    fn roundtrip(m: Modulation, bits: &[u8]) -> Vec<u8> {
        let syms = m.map(bits);
        let mut llrs = vec![0.0; bits.len()];
        m.demap_maxlog(&syms, 0.01, &mut llrs);
        hard(&llrs)
    }

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 7 + i / 3) % 2) as u8).collect()
    }

    #[test]
    fn qpsk_constellation_points() {
        let s = Modulation::Qpsk.map(&[0, 0, 0, 1, 1, 0, 1, 1]);
        let a = 1.0 / 2f32.sqrt();
        assert!((s[0].re - a).abs() < 1e-6 && (s[0].im - a).abs() < 1e-6);
        assert!((s[1].re - a).abs() < 1e-6 && (s[1].im + a).abs() < 1e-6);
        assert!((s[2].re + a).abs() < 1e-6 && (s[2].im - a).abs() < 1e-6);
        assert!((s[3].re + a).abs() < 1e-6 && (s[3].im + a).abs() < 1e-6);
    }

    #[test]
    fn unit_average_energy() {
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let qm = m.bits_per_symbol();
            // All bit patterns of one symbol, uniformly.
            let mut energy = 0.0f32;
            let count = 1usize << qm;
            for v in 0..count {
                let bits: Vec<u8> = (0..qm).map(|i| ((v >> i) & 1) as u8).collect();
                let s = m.map(&bits);
                energy += s[0].norm_sq();
            }
            let avg = energy / count as f32;
            assert!((avg - 1.0).abs() < 1e-4, "{m:?}: {avg}");
        }
    }

    #[test]
    fn qam64_levels_are_odd_integers() {
        let m = Modulation::Qam64;
        let (table, used) = m.axis_table();
        let mut levels: Vec<i32> = table[..used]
            .iter()
            .map(|(l, _)| (l / m.norm()).round() as i32)
            .collect();
        levels.sort_unstable();
        assert_eq!(levels, vec![-7, -5, -3, -1, 1, 3, 5, 7]);
    }

    #[test]
    fn clean_roundtrip_all_modulations() {
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let bits = pattern(m.bits_per_symbol() * 50);
            assert_eq!(roundtrip(m, &bits), bits, "{m:?}");
        }
    }

    #[test]
    fn llr_magnitude_scales_with_noise() {
        let m = Modulation::Qam16;
        let bits = pattern(4 * 10);
        let syms = m.map(&bits);
        let mut llr_low = vec![0.0; bits.len()];
        let mut llr_high = vec![0.0; bits.len()];
        m.demap_maxlog(&syms, 0.01, &mut llr_low);
        m.demap_maxlog(&syms, 1.0, &mut llr_high);
        for (a, b) in llr_low.iter().zip(&llr_high) {
            assert!(a.abs() > b.abs(), "confidence must drop with noise");
            assert_eq!(a.signum(), b.signum());
        }
    }

    #[test]
    fn from_order_mapping() {
        assert_eq!(Modulation::from_order(2), Some(Modulation::Qpsk));
        assert_eq!(Modulation::from_order(4), Some(Modulation::Qam16));
        assert_eq!(Modulation::from_order(6), Some(Modulation::Qam64));
        assert_eq!(Modulation::from_order(3), None);
    }

    #[test]
    fn gray_mapping_near_decision_boundary() {
        // A symbol right at a decision boundary should give a near-zero LLR
        // for the boundary bit and confident LLRs for the others.
        let m = Modulation::Qam16;
        let norm = 1.0 / 10f32.sqrt();
        // Between levels 1 and 3 on the I axis (boundary at 2·norm).
        let y = [Cf32::new(2.0 * norm, 3.0 * norm)];
        let mut llrs = [0.0; 4];
        m.demap_maxlog(&y, 0.1, &mut llrs);
        // Bit 2 (I-axis inner/outer bit) is ambiguous.
        assert!(llrs[2].abs() < 1e-4, "boundary LLR {}", llrs[2]);
        // Bit 0 (I-axis sign bit) is confidently 0 (positive axis).
        assert!(llrs[0] > 1.0);
    }

    /// The pre-vectorization per-symbol scalar demapper with one noise
    /// variance per symbol, kept verbatim as the reference the one-variance
    /// forms are verified against.
    fn demap_maxlog_reference(
        m: Modulation,
        symbols: &[Cf32],
        noise_var: &[f32],
        out: &mut Vec<f32>,
    ) {
        let (table, used) = m.axis_table();
        let table = &table[..used];
        let nb = m.bits_per_axis();
        let mut axis_llr = [0.0f32; 3];
        for (y, &nv) in symbols.iter().zip(noise_var) {
            let inv = 1.0 / (nv.max(1e-12) * 0.5);
            for (axis, val) in [(0, y.re), (1, y.im)] {
                for (t, slot) in axis_llr.iter_mut().enumerate().take(nb) {
                    let mut d0 = f32::MAX;
                    let mut d1 = f32::MAX;
                    for &(level, bits) in table {
                        let d = (val - level) * (val - level);
                        if bits[t] == 0 {
                            if d < d0 {
                                d0 = d;
                            }
                        } else if d < d1 {
                            d1 = d;
                        }
                    }
                    *slot = (d1 - d0) * inv;
                }
                if axis == 0 {
                    for t in 0..nb {
                        out.push(axis_llr[t]);
                        out.push(0.0);
                    }
                } else {
                    let base = out.len() - 2 * nb;
                    for t in 0..nb {
                        out[base + 2 * t + 1] = axis_llr[t];
                    }
                }
            }
        }
    }

    #[test]
    fn demap_forms_are_bit_exact_vs_reference() {
        use crate::simd::{force_tier, supported_tiers, test_guard};
        let _g = test_guard();
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            // Non-multiple-of-4 symbol counts cover the AVX2 form's tail.
            for nsym in [1usize, 4, 7, 8, 9, 23, 50, 300] {
                let bits = pattern(m.bits_per_symbol() * nsym);
                let syms: Vec<Cf32> = m
                    .map(&bits)
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        *s + Cf32::new((i as f32 * 0.13).sin() * 0.4, (i as f32 * 0.31).cos() * 0.4)
                    })
                    .collect();
                // Includes a variance below the 1e-12 floor, and zero.
                for nv in [0.037f32, 1.7, 1e-14, 0.0] {
                    // The receiver's flat copy of one variance.
                    let mut expect = Vec::new();
                    demap_maxlog_reference(m, &syms, &vec![nv; nsym], &mut expect);
                    let expect: Vec<u32> = expect.iter().map(|l| l.to_bits()).collect();
                    for tier in supported_tiers().map(Some).chain([None]) {
                        force_tier(tier);
                        let mut got = vec![f32::NAN; expect.len()];
                        m.demap_maxlog(&syms, nv, &mut got);
                        let got: Vec<u32> = got.iter().map(|l| l.to_bits()).collect();
                        assert_eq!(got, expect, "{m:?} nsym={nsym} nv={nv} tier={tier:?}");
                    }
                    force_tier(None);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "LLR row length")]
    fn short_llr_row_panics() {
        let syms = Modulation::Qam16.map(&pattern(4 * 8));
        Modulation::Qam16.demap_maxlog(&syms, 0.1, &mut [0.0; 31]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_clean_roundtrip(order in prop::sample::select(vec![2usize, 4, 6]),
                                nsym in 1usize..64, seed in 0u64..1000) {
            let m = Modulation::from_order(order).unwrap();
            let bits: Vec<u8> = (0..nsym * order)
                .map(|i| (((i as u64 + seed).wrapping_mul(0x9E3779B9) >> 13) & 1) as u8)
                .collect();
            prop_assert_eq!(roundtrip(m, &bits), bits);
        }
    }
}
