//! DMRS-based channel estimation and MRC diversity combining.
//!
//! The paper's **demod task** (Fig. 5) comprises channel estimation,
//! equalization and constellation demapping. Estimation here is least
//! squares against the Zadoff-Chu DMRS on symbols 3 and 10, averaged over
//! the two slots; the two independent estimates also yield a noise-variance
//! estimate. Combining is maximum-ratio across the `N` receive antennas —
//! the source of the `w1·N` antenna term in the paper's Eq. (1), and of the
//! footnote that equalization cost grows with antenna count.

use crate::complex::Cf32;
use crate::params::dmrs_symbols;
use crate::resource_grid::Grid;
use crate::simd::{self, SimdTier};

/// Channel state estimated from one subframe's DMRS.
#[derive(Clone, Debug, Default)]
pub struct ChannelEstimate {
    /// Per-antenna, per-subcarrier channel gains, `h[antenna][subcarrier]`.
    pub h: Vec<Vec<Cf32>>,
    /// Estimated noise variance per complex sample (average over antennas).
    pub noise_var: f32,
}

impl ChannelEstimate {
    /// Number of receive antennas.
    pub fn num_antennas(&self) -> usize {
        self.h.len()
    }

    /// Number of subcarriers.
    pub fn num_subcarriers(&self) -> usize {
        self.h.first().map_or(0, Vec::len)
    }
}

/// Least-squares channel estimation from the two DMRS symbols, into a
/// caller-owned estimate whose per-antenna gain vectors are reused (no
/// allocation once they have capacity).
///
/// `grids` holds one demodulated grid per antenna. Only the subcarriers in
/// `band` carry a reference signal (the PRB allocation); `dmrs_ref` is the
/// known unit-magnitude reference sequence, one entry per band subcarrier.
/// Gains are indexed relative to the band start.
///
/// # Panics
/// Panics if `grids` is empty, the band exceeds the grid, or `dmrs_ref`
/// length mismatches the band width.
pub fn estimate_channel_band_into(
    grids: &[Grid],
    dmrs_ref: &[Cf32],
    band: std::ops::Range<usize>,
    est: &mut ChannelEstimate,
) {
    // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
    assert!(!grids.is_empty(), "at least one antenna required");
    let width = grids[0].bandwidth().num_subcarriers();
    // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
    assert!(band.end <= width, "band exceeds grid width");
    let m = band.len();
    // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
    assert_eq!(dmrs_ref.len(), m, "DMRS reference length");
    let [l1, l2] = dmrs_symbols();

    // Grow-only: keep existing inner vectors (and their capacity) alive.
    if est.h.len() > grids.len() {
        est.h.truncate(grids.len());
    }
    while est.h.len() < grids.len() {
        // analyze: allow(alloc): Vec::new is allocation-free; rows grow on warm-up only
        // analyze: allow(alloc): push into a capacity-retaining estimate buffer; tests/alloc_regression.rs proves zero steady-state allocations
        est.h.push(Vec::new());
    }
    let mut noise_acc = 0.0f64;
    for (grid, ha) in grids.iter().zip(est.h.iter_mut()) {
        let y1 = &grid.symbol(l1)[band.clone()];
        let y2 = &grid.symbol(l2)[band.clone()];
        ha.clear();
        ha.reserve(m);
        // Split-complex lane blocks: the per-subcarrier LS estimates and
        // difference energies vectorize; only the f64 noise accumulation
        // stays scalar (in subcarrier order, so values are unchanged).
        let mut k0 = 0;
        while k0 < m {
            let len = (m - k0).min(8);
            let mut h_re = [0.0f32; 8];
            let mut h_im = [0.0f32; 8];
            let mut dn = [0.0f32; 8];
            for j in 0..len {
                let k = k0 + j;
                // LS estimate: y = h·r + n with |r| = 1 ⇒ ĥ = y·r*.
                let r = dmrs_ref[k];
                let (e1re, e1im) = (
                    y1[k].re * r.re + y1[k].im * r.im,
                    y1[k].im * r.re - y1[k].re * r.im,
                );
                let (e2re, e2im) = (
                    y2[k].re * r.re + y2[k].im * r.im,
                    y2[k].im * r.re - y2[k].re * r.im,
                );
                h_re[j] = (e1re + e2re) * 0.5;
                h_im[j] = (e1im + e2im) * 0.5;
                // (e1 − e2) = n1·r* − n2·r* has variance 2σ².
                let (dre, dim) = (e1re - e2re, e1im - e2im);
                dn[j] = (dre * dre + dim * dim) / 2.0;
            }
            for j in 0..len {
                ha.push(Cf32::new(h_re[j], h_im[j]));
                noise_acc += dn[j] as f64;
            }
            k0 += len;
        }
    }
    est.noise_var = (noise_acc / (grids.len() * m) as f64).max(1e-12) as f32;
}

/// Maximum-ratio combining of one OFDM symbol across antennas.
///
/// `rows[a]` is antenna `a`'s demodulated subcarriers for the symbol.
/// Returns the combined symbol estimates and the per-subcarrier
/// post-combining noise variance (`σ²/Σ|hₐ|²`), ready for the soft demapper.
///
/// # Panics
/// Panics if `rows` length differs from the estimate's antenna count, or a
/// row's width differs from the subcarrier count.
pub fn mrc_combine(rows: &[&[Cf32]], est: &ChannelEstimate) -> (Vec<Cf32>, Vec<f32>) {
    // analyze: allow(alloc): allocating convenience over mrc_combine_into
    let mut combined = Vec::new();
    // analyze: allow(alloc): allocating convenience over mrc_combine_into
    let mut post_var = Vec::new();
    mrc_combine_into(rows, est, &mut combined, &mut post_var);
    (combined, post_var)
}

/// [`mrc_combine`] into caller-owned vectors (cleared and refilled; no
/// allocation once they have capacity). Produces values identical to
/// [`mrc_combine`].
///
/// # Panics
/// Panics if `rows` length differs from the estimate's antenna count, or a
/// row's width differs from the subcarrier count.
pub fn mrc_combine_into(
    rows: &[&[Cf32]],
    est: &ChannelEstimate,
    combined: &mut Vec<Cf32>,
    post_var: &mut Vec<f32>,
) {
    // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
    assert_eq!(rows.len(), est.num_antennas(), "antenna count");
    let m = est.num_subcarriers();
    for row in rows {
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(row.len(), m, "subcarrier count");
    }
    combined.clear();
    combined.reserve(m);
    post_var.clear();
    post_var.reserve(m);
    let tier = simd::active_tier();
    let mut k0 = 0;
    while k0 < m {
        let len = (m - k0).min(8);
        let mut acc_re = [0.0f32; 8];
        let mut acc_im = [0.0f32; 8];
        let mut gain = [0.0f32; 8];
        #[cfg(target_arch = "x86_64")]
        let done = if tier >= SimdTier::Avx2 && len == 8 {
            // The MRC block stays 8-wide under Avx512 too: per-antenna rows
            // are short and the deinterleave dominates, so a 16-lane form
            // does not pay (measured in the `mrc` bench group).
            // SAFETY: the Avx2 tier is only reported after runtime
            // detection succeeded (see crate::simd).
            #[allow(unsafe_code)]
            unsafe {
                avx2::mrc_block(rows, &est.h, k0, &mut acc_re, &mut acc_im, &mut gain)
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
            // Split-complex (SoA) lane accumulation — same per-subcarrier
            // arithmetic as the AVX2 tier and the historical per-k loop
            // (`x − (−y)` ≡ `x + y` in IEEE 754, so expanding the complex
            // conjugate multiply is value-preserving).
            for (a, row) in rows.iter().enumerate() {
                let h = &est.h[a][k0..k0 + len];
                let r = &row[k0..k0 + len];
                for j in 0..len {
                    acc_re[j] += h[j].re * r[j].re + h[j].im * r[j].im;
                    acc_im[j] += h[j].re * r[j].im - h[j].im * r[j].re;
                    gain[j] += h[j].re * h[j].re + h[j].im * h[j].im;
                }
            }
        }
        for j in 0..len {
            let g = gain[j].max(1e-9);
            let inv = 1.0 / g;
            combined.push(Cf32::new(acc_re[j] * inv, acc_im[j] * inv));
            post_var.push(est.noise_var / g);
        }
        k0 += len;
    }
}

/// Explicit AVX2 tier of the MRC accumulation: deinterleaves eight complex
/// subcarriers per antenna into split-complex registers and accumulates
/// `Σ h*·r` and `Σ |h|²` with the exact operation sequence of the lane
/// form, hence bit-exact with it.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #![allow(unsafe_code)]

    use crate::complex::Cf32;
    use core::arch::x86_64::*;

    /// Deinterleaves 8 consecutive `Cf32` (16 floats) into (re, im) lanes
    /// in subcarrier order.
    ///
    /// # Safety
    /// `ptr` must point at 8 valid `Cf32` values; the CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn load_split(ptr: *const Cf32) -> (__m256, __m256) {
        // SAFETY: caller guarantees 16 readable f32s at `ptr`.
        unsafe {
            let p = ptr as *const f32;
            let v0 = _mm256_loadu_ps(p); // r0 i0 r1 i1 | r2 i2 r3 i3
            let v1 = _mm256_loadu_ps(p.add(8)); // r4 i4 r5 i5 | r6 i6 r7 i7
            let lo = _mm256_permute2f128_ps(v0, v1, 0x20); // r0 i0 r1 i1 | r4 i4 r5 i5
            let hi = _mm256_permute2f128_ps(v0, v1, 0x31); // r2 i2 r3 i3 | r6 i6 r7 i7
            let re = _mm256_shuffle_ps(lo, hi, 0b10_00_10_00); // r0 r1 r2 r3 | r4..r7
            let im = _mm256_shuffle_ps(lo, hi, 0b11_01_11_01); // i0 i1 i2 i3 | i4..i7
            (re, im)
        }
    }

    /// # Safety
    /// Every row and `h[a]` must have at least `k0 + 8` entries; the CPU
    /// must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mrc_block(
        rows: &[&[Cf32]],
        h: &[Vec<Cf32>],
        k0: usize,
        acc_re: &mut [f32; 8],
        acc_im: &mut [f32; 8],
        gain: &mut [f32; 8],
    ) {
        let mut num_re = _mm256_setzero_ps();
        let mut num_im = _mm256_setzero_ps();
        let mut g = _mm256_setzero_ps();
        for (a, row) in rows.iter().enumerate() {
            // SAFETY: caller guarantees k0 + 8 in-bounds complex entries.
            let ((hre, him), (rre, rim)) = unsafe {
                (
                    load_split(h[a].as_ptr().add(k0)),
                    load_split(row.as_ptr().add(k0)),
                )
            };
            num_re = _mm256_add_ps(
                num_re,
                _mm256_add_ps(_mm256_mul_ps(hre, rre), _mm256_mul_ps(him, rim)),
            );
            num_im = _mm256_add_ps(
                num_im,
                _mm256_sub_ps(_mm256_mul_ps(hre, rim), _mm256_mul_ps(him, rre)),
            );
            g = _mm256_add_ps(
                g,
                _mm256_add_ps(_mm256_mul_ps(hre, hre), _mm256_mul_ps(him, him)),
            );
        }
        // SAFETY: the output arrays are 8 contiguous f32s each.
        unsafe {
            _mm256_storeu_ps(acc_re.as_mut_ptr(), num_re);
            _mm256_storeu_ps(acc_im.as_mut_ptr(), num_im);
            _mm256_storeu_ps(gain.as_mut_ptr(), g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::complex_gaussian;
    use crate::params::{Bandwidth, SYMBOLS_PER_SUBFRAME};
    use crate::zadoff_chu::dmrs_sequence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Full-width estimate into a fresh [`ChannelEstimate`].
    fn estimate(grids: &[Grid], dmrs_ref: &[Cf32]) -> ChannelEstimate {
        let mut est = ChannelEstimate::default();
        let m = grids[0].bandwidth().num_subcarriers();
        estimate_channel_band_into(grids, dmrs_ref, 0..m, &mut est);
        est
    }

    /// Builds per-antenna grids: each RE is `h[a] · x(l, k) + noise`, with
    /// DMRS on symbols 3/10.
    fn make_grids(
        bw: Bandwidth,
        hs: &[Cf32],
        sigma: f32,
        rng: &mut StdRng,
    ) -> (Vec<Grid>, Vec<Cf32>, Vec<Vec<Cf32>>) {
        let m = bw.num_subcarriers();
        let dmrs = dmrs_sequence(0, m);
        // Data: deterministic unit-power symbols.
        let data: Vec<Vec<Cf32>> = (0..SYMBOLS_PER_SUBFRAME)
            .map(|l| {
                (0..m)
                    .map(|k| Cf32::from_phase((l * 997 + k * 31) as f32 * 0.071))
                    .collect()
            })
            .collect();
        let grids = hs
            .iter()
            .map(|&h| {
                let mut g = Grid::new(bw);
                for l in 0..SYMBOLS_PER_SUBFRAME {
                    let src: &[Cf32] = if crate::params::is_dmrs_symbol(l) {
                        &dmrs
                    } else {
                        &data[l]
                    };
                    for (k, v) in g.symbol_mut(l).iter_mut().enumerate() {
                        *v = h * src[k] + complex_gaussian(rng).scale(sigma);
                    }
                }
                g
            })
            .collect();
        (grids, dmrs, data)
    }

    #[test]
    fn noiseless_estimate_recovers_channel() {
        let mut rng = StdRng::seed_from_u64(1);
        let hs = [Cf32::new(0.8, -0.6), Cf32::new(-0.3, 1.1)];
        let (grids, dmrs, _) = make_grids(Bandwidth::Mhz1_4, &hs, 0.0, &mut rng);
        let est = estimate(&grids, &dmrs);
        assert_eq!(est.num_antennas(), 2);
        for (a, &h_true) in hs.iter().enumerate() {
            for k in 0..est.num_subcarriers() {
                assert!((est.h[a][k] - h_true).abs() < 1e-3, "ant {a} sc {k}");
            }
        }
        assert!(est.noise_var < 1e-6);
    }

    #[test]
    fn noise_variance_estimate_is_calibrated() {
        let mut rng = StdRng::seed_from_u64(2);
        let sigma = 0.3f32; // per-axis? no: total complex std
        let (grids, dmrs, _) = make_grids(Bandwidth::Mhz5, &[Cf32::ONE], sigma, &mut rng);
        let est = estimate(&grids, &dmrs);
        let expected = sigma * sigma; // complex_gaussian(·).scale(σ) has var σ²
        assert!(
            (est.noise_var - expected).abs() < 0.2 * expected,
            "est {} vs {}",
            est.noise_var,
            expected
        );
    }

    #[test]
    fn mrc_recovers_data_noiseless() {
        let mut rng = StdRng::seed_from_u64(3);
        let hs = [Cf32::new(1.2, 0.4), Cf32::new(-0.5, 0.9)];
        let (grids, dmrs, data) = make_grids(Bandwidth::Mhz1_4, &hs, 0.0, &mut rng);
        let est = estimate(&grids, &dmrs);
        let l = 5; // a data symbol
        let rows: Vec<&[Cf32]> = grids.iter().map(|g| g.symbol(l)).collect();
        let (xhat, _) = mrc_combine(&rows, &est);
        for (a, b) in xhat.iter().zip(&data[l]) {
            assert!((*a - *b).abs() < 1e-2);
        }
    }

    #[test]
    fn mrc_gain_improves_with_antennas() {
        // Post-combining noise variance with 2 equal-gain antennas is half
        // that of a single antenna.
        let mut rng = StdRng::seed_from_u64(4);
        let (g1, dmrs, _) = make_grids(Bandwidth::Mhz1_4, &[Cf32::ONE], 0.1, &mut rng);
        let (g2, _, _) = make_grids(Bandwidth::Mhz1_4, &[Cf32::ONE, Cf32::ONE], 0.1, &mut rng);
        let e1 = estimate(&g1, &dmrs);
        let e2 = estimate(&g2, &dmrs);
        let r1: Vec<&[Cf32]> = g1.iter().map(|g| g.symbol(0)).collect();
        let r2: Vec<&[Cf32]> = g2.iter().map(|g| g.symbol(0)).collect();
        let (_, v1) = mrc_combine(&r1, &e1);
        let (_, v2) = mrc_combine(&r2, &e2);
        let m1: f32 = v1.iter().sum::<f32>() / v1.len() as f32;
        let m2: f32 = v2.iter().sum::<f32>() / v2.len() as f32;
        assert!(m2 < 0.7 * m1, "v1 {m1}, v2 {m2}");
    }

    #[test]
    fn deep_fade_on_one_antenna_is_tolerated() {
        let mut rng = StdRng::seed_from_u64(5);
        let hs = [Cf32::new(1e-4, 0.0), Cf32::new(1.0, 0.0)]; // antenna 0 dead
        let (grids, dmrs, data) = make_grids(Bandwidth::Mhz1_4, &hs, 0.01, &mut rng);
        let est = estimate(&grids, &dmrs);
        let rows: Vec<&[Cf32]> = grids.iter().map(|g| g.symbol(1)).collect();
        let (xhat, _) = mrc_combine(&rows, &est);
        let err: f32 = xhat
            .iter()
            .zip(&data[1])
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f32::max);
        assert!(err < 0.2, "max err {err}");
    }

    #[test]
    fn blocked_mrc_is_bit_exact_vs_reference() {
        use crate::simd::{force_tier, test_guard, SimdTier};
        let _g = test_guard();
        let mut rng = StdRng::seed_from_u64(9);
        // Deliberately non-multiple-of-8 widths to cover the lane tail.
        for m in [1usize, 8, 13, 72] {
            for nant in [1usize, 2, 4] {
                let h: Vec<Vec<Cf32>> = (0..nant)
                    .map(|_| (0..m).map(|_| complex_gaussian(&mut rng)).collect())
                    .collect();
                let data: Vec<Vec<Cf32>> = (0..nant)
                    .map(|_| (0..m).map(|_| complex_gaussian(&mut rng)).collect())
                    .collect();
                let est = ChannelEstimate { h, noise_var: 0.07 };
                let rows: Vec<&[Cf32]> = data.iter().map(Vec::as_slice).collect();
                // Reference: the historical per-subcarrier Cf32 loop.
                let mut exp_c = Vec::new();
                let mut exp_v = Vec::new();
                for k in 0..m {
                    let mut num = Cf32::ZERO;
                    let mut gain = 0.0f32;
                    for (a, row) in rows.iter().enumerate() {
                        let hk = est.h[a][k];
                        num += hk.conj() * row[k];
                        gain += hk.norm_sq();
                    }
                    let g = gain.max(1e-9);
                    exp_c.push(num.scale(1.0 / g));
                    exp_v.push(est.noise_var / g);
                }
                for tier in [None, Some(SimdTier::Scalar)] {
                    force_tier(tier);
                    let (c, v) = mrc_combine(&rows, &est);
                    assert_eq!(c, exp_c, "m={m} nant={nant} tier={tier:?}");
                    assert_eq!(v, exp_v, "m={m} nant={nant} tier={tier:?}");
                }
                force_tier(None);
            }
        }
    }

    #[test]
    #[should_panic(expected = "antenna count")]
    fn antenna_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let (grids, dmrs, _) = make_grids(Bandwidth::Mhz1_4, &[Cf32::ONE], 0.0, &mut rng);
        let est = estimate(&grids, &dmrs);
        let rows: Vec<&[Cf32]> = vec![grids[0].symbol(0), grids[0].symbol(1)];
        mrc_combine(&rows, &est);
    }
}
