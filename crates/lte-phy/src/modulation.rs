//! QAM mapping and max-log soft demapping (3GPP TS 36.211 §7.1).
//!
//! Square Gray-mapped constellations — QPSK, 16-QAM, 64-QAM — with the
//! standard LTE bit-to-level formulas. The demapper produces max-log LLRs
//! (`L = ln P(0)/P(1)`) exploiting the I/Q separability of square QAM: each
//! axis is an independent PAM constellation, so demapping is `O(levels)`
//! per axis instead of `O(points)` per symbol.

use crate::complex::Cf32;
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
            // analyze: allow(alloc): TX-side mapper; the RX hot path is demap_maxlog_into
            .collect()
    }

    /// Max-log soft demapping of equalized symbols into LLRs
    /// (`ln P(0)/P(1)` convention), appended to `out`.
    ///
    /// `noise_var[i]` is the post-equalization noise variance of symbol `i`
    /// (complex, total across both axes).
    ///
    /// Blocked lane-form kernel with a runtime-dispatched AVX2 tier: four
    /// symbols (eight PAM axis values) are demapped at a time against the
    /// hoisted per-axis level array, emitting eight LLRs per bit position.
    /// All tiers are bit-exact with each other and with the historical
    /// per-symbol scalar loop (same squared distances, same `min` chains
    /// in the same level order, same `(d1 − d0)·inv` scaling).
    ///
    /// # Panics
    /// Panics if `noise_var.len() != symbols.len()`.
    pub fn demap_maxlog(self, symbols: &[Cf32], noise_var: &[f32], out: &mut Vec<f32>) {
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(symbols.len(), noise_var.len(), "per-symbol noise required");
        let start = out.len();
        out.resize(start + symbols.len() * self.bits_per_symbol(), 0.0);
        let dst = &mut out[start..];
        // Hoist the axis table into a padded level array: entry `v` carries
        // axis-bit pattern `v` (MSB first); unused slots are +∞ so their
        // distances never win a `min`.
        let (table, used) = self.axis_table();
        let mut levels = [f32::INFINITY; 8];
        for (slot, entry) in levels.iter_mut().zip(&table[..used]) {
            *slot = entry.0;
        }
        let tier = simd::active_tier();
        match self {
            Modulation::Qpsk => demap_blocks::<1>(&levels, symbols, noise_var, dst, tier),
            Modulation::Qam16 => demap_blocks::<2>(&levels, symbols, noise_var, dst, tier),
            Modulation::Qam64 => demap_blocks::<3>(&levels, symbols, noise_var, dst, tier),
        }
    }
}

/// Blocked demapper driver for `NB` bits per axis: packs four symbols into
/// an 8-lane axis-value block (`[I₀ Q₀ I₁ Q₁ …]`), runs the per-block
/// kernel for the active tier, and scatters LLRs into the LTE bit order
/// (I-axis bit `t` → symbol bit `2t`, Q-axis → `2t + 1`).
fn demap_blocks<const NB: usize>(
    levels: &[f32; 8],
    symbols: &[Cf32],
    noise_var: &[f32],
    dst: &mut [f32],
    tier: SimdTier,
) {
    let qm = 2 * NB;
    let mut s0 = 0;
    // AVX-512 wide blocks: eight symbols (16 axis values) per iteration.
    // Identical per-lane distance/min chains as the 8-lane forms, so the
    // wide tier stays bit-exact; the tail (< 8 symbols) falls through to
    // the blocked loop below.
    #[cfg(target_arch = "x86_64")]
    if NB >= 2 && tier >= SimdTier::Avx512 {
        while symbols.len() - s0 >= 8 {
            let mut vals = [0.0f32; 16];
            let mut invs = [0.0f32; 16];
            for j in 0..8 {
                let y = symbols[s0 + j];
                vals[2 * j] = y.re;
                vals[2 * j + 1] = y.im;
                let inv = 1.0 / (noise_var[s0 + j].max(1e-12) * 0.5);
                invs[2 * j] = inv;
                invs[2 * j + 1] = inv;
            }
            let mut llrs = [[0.0f32; 16]; NB];
            // SAFETY: the Avx512 tier is only reported after runtime
            // detection succeeded (see crate::simd).
            #[allow(unsafe_code)]
            unsafe {
                avx512::demap_block16::<NB>(levels, &vals, &invs, &mut llrs)
            };
            for j in 0..8 {
                let base = (s0 + j) * qm;
                for (t, row) in llrs.iter().enumerate() {
                    dst[base + 2 * t] = row[2 * j];
                    dst[base + 2 * t + 1] = row[2 * j + 1];
                }
            }
            s0 += 8;
        }
    }
    while s0 < symbols.len() {
        let nsym = (symbols.len() - s0).min(4);
        let mut vals = [0.0f32; 8];
        let mut invs = [0.0f32; 8];
        for j in 0..nsym {
            let y = symbols[s0 + j];
            vals[2 * j] = y.re;
            vals[2 * j + 1] = y.im;
            // Per-axis noise variance is half the complex variance.
            let inv = 1.0 / (noise_var[s0 + j].max(1e-12) * 0.5);
            invs[2 * j] = inv;
            invs[2 * j + 1] = inv;
        }
        let mut llrs = [[0.0f32; 8]; NB];
        // QPSK (NB = 1) has only 2 live levels in the padded 8-level table,
        // and its lane form autovectorizes tightly; the intrinsic tier only
        // wins from 16-QAM up (measured in the `demap_simd` bench group).
        #[cfg(target_arch = "x86_64")]
        let done = if NB >= 2 && tier >= SimdTier::Avx2 {
            // SAFETY: the Avx2 tier is only reported after runtime
            // detection succeeded (see crate::simd).
            #[allow(unsafe_code)]
            unsafe {
                avx2::demap_block::<NB>(levels, &vals, &invs, &mut llrs)
            };
            true
        } else {
            false
        };
        #[cfg(not(target_arch = "x86_64"))]
        let done = {
            let _ = tier;
            false
        };
        if !done {
            demap_block_lanes::<NB>(levels, &vals, &invs, &mut llrs);
        }
        for j in 0..nsym {
            let base = (s0 + j) * qm;
            for (t, row) in llrs.iter().enumerate() {
                dst[base + 2 * t] = row[2 * j];
                dst[base + 2 * t + 1] = row[2 * j + 1];
            }
        }
        s0 += nsym;
    }
}

/// Portable lane-form demap kernel: for each of the `2^NB` PAM levels,
/// compute eight squared distances at once and fold them into the per-bit
/// `d0`/`d1` minima selected by that level's bit pattern (a compile-time
/// property, so the inner loops are branchless).
fn demap_block_lanes<const NB: usize>(
    levels: &[f32; 8],
    vals: &[f32; 8],
    invs: &[f32; 8],
    llrs: &mut [[f32; 8]; NB],
) {
    let mut d0 = [[f32::MAX; 8]; NB];
    let mut d1 = [[f32::MAX; 8]; NB];
    for v in 0..(1usize << NB) {
        let lv = levels[v];
        let mut d = [0.0f32; 8];
        for j in 0..8 {
            let e = vals[j] - lv;
            d[j] = e * e;
        }
        for t in 0..NB {
            let sel = if (v >> (NB - 1 - t)) & 1 == 0 {
                &mut d0[t]
            } else {
                &mut d1[t]
            };
            for j in 0..8 {
                sel[j] = sel[j].min(d[j]);
            }
        }
    }
    for t in 0..NB {
        for j in 0..8 {
            llrs[t][j] = (d1[t][j] - d0[t][j]) * invs[j];
        }
    }
}

/// Explicit AVX2 tier of the block demap kernel — the same level loop and
/// `min` chains as [`demap_block_lanes`], eight lanes per instruction.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #![allow(unsafe_code)]

    use core::arch::x86_64::*;

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn demap_block<const NB: usize>(
        levels: &[f32; 8],
        vals: &[f32; 8],
        invs: &[f32; 8],
        llrs: &mut [[f32; 8]; NB],
    ) {
        // SAFETY: all loads/stores cover exactly 8 contiguous f32s.
        unsafe {
            let v = _mm256_loadu_ps(vals.as_ptr());
            let inv = _mm256_loadu_ps(invs.as_ptr());
            let mut d0 = [_mm256_set1_ps(f32::MAX); NB];
            let mut d1 = [_mm256_set1_ps(f32::MAX); NB];
            for lvl in 0..(1usize << NB) {
                let e = _mm256_sub_ps(v, _mm256_set1_ps(levels[lvl]));
                let d = _mm256_mul_ps(e, e);
                for t in 0..NB {
                    if (lvl >> (NB - 1 - t)) & 1 == 0 {
                        d0[t] = _mm256_min_ps(d0[t], d);
                    } else {
                        d1[t] = _mm256_min_ps(d1[t], d);
                    }
                }
            }
            for t in 0..NB {
                let llr = _mm256_mul_ps(_mm256_sub_ps(d1[t], d0[t]), inv);
                _mm256_storeu_ps(llrs[t].as_mut_ptr(), llr);
            }
        }
    }
}

/// Explicit AVX-512 tier: eight symbols' axis values per register. Same
/// level loop and per-lane `min` chains as the 8-lane forms.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    #![allow(unsafe_code)]

    use core::arch::x86_64::*;

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn demap_block16<const NB: usize>(
        levels: &[f32; 8],
        vals: &[f32; 16],
        invs: &[f32; 16],
        llrs: &mut [[f32; 16]; NB],
    ) {
        // SAFETY: all loads/stores cover exactly 16 contiguous f32s.
        unsafe {
            let v = _mm512_loadu_ps(vals.as_ptr());
            let inv = _mm512_loadu_ps(invs.as_ptr());
            let mut d0 = [_mm512_set1_ps(f32::MAX); NB];
            let mut d1 = [_mm512_set1_ps(f32::MAX); NB];
            for lvl in 0..(1usize << NB) {
                let e = _mm512_sub_ps(v, _mm512_set1_ps(levels[lvl]));
                let d = _mm512_mul_ps(e, e);
                for t in 0..NB {
                    if (lvl >> (NB - 1 - t)) & 1 == 0 {
                        d0[t] = _mm512_min_ps(d0[t], d);
                    } else {
                        d1[t] = _mm512_min_ps(d1[t], d);
                    }
                }
            }
            for t in 0..NB {
                let llr = _mm512_mul_ps(_mm512_sub_ps(d1[t], d0[t]), inv);
                _mm512_storeu_ps(llrs[t].as_mut_ptr(), llr);
            }
        }
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
        let nv = vec![0.01f32; syms.len()];
        let mut llrs = Vec::new();
        m.demap_maxlog(&syms, &nv, &mut llrs);
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
        let mut llr_low = Vec::new();
        let mut llr_high = Vec::new();
        m.demap_maxlog(&syms, &vec![0.01; syms.len()], &mut llr_low);
        m.demap_maxlog(&syms, &vec![1.0; syms.len()], &mut llr_high);
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
        let mut llrs = Vec::new();
        m.demap_maxlog(&y, &[0.1], &mut llrs);
        // Bit 2 (I-axis inner/outer bit) is ambiguous.
        assert!(llrs[2].abs() < 1e-4, "boundary LLR {}", llrs[2]);
        // Bit 0 (I-axis sign bit) is confidently 0 (positive axis).
        assert!(llrs[0] > 1.0);
    }

    /// The pre-vectorization per-symbol scalar demapper, kept verbatim as
    /// the reference the blocked tiers are verified against.
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
    fn blocked_demap_is_bit_exact_vs_reference() {
        use crate::simd::{force_tier, supported_tiers, test_guard};
        let _g = test_guard();
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            // Non-multiple-of-4/-8 symbol counts cover both wide-block tails.
            for nsym in [1usize, 4, 7, 8, 9, 23, 50] {
                let bits = pattern(m.bits_per_symbol() * nsym);
                let syms: Vec<Cf32> = m
                    .map(&bits)
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        *s + Cf32::new((i as f32 * 0.13).sin() * 0.4, (i as f32 * 0.31).cos() * 0.4)
                    })
                    .collect();
                let nv: Vec<f32> = (0..nsym).map(|i| 0.02 + 0.01 * (i % 5) as f32).collect();
                let mut expect = Vec::new();
                demap_maxlog_reference(m, &syms, &nv, &mut expect);
                for tier in supported_tiers() {
                    force_tier(Some(tier));
                    let mut got = Vec::new();
                    m.demap_maxlog(&syms, &nv, &mut got);
                    assert_eq!(got, expect, "{m:?} nsym={nsym} tier={}", tier.name());
                }
                force_tier(None);
            }
        }
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
