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
#[cfg(target_arch = "x86_64")]
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
/// row's or gain vector's width differs from the subcarrier count.
pub fn mrc_combine(rows: &[&[Cf32]], est: &ChannelEstimate) -> (Vec<Cf32>, Vec<f32>) {
    let m = est.num_subcarriers();
    // analyze: allow(alloc): allocating convenience over mrc_combine_into
    let mut combined = vec![Cf32::ZERO; m];
    // analyze: allow(alloc): allocating convenience over mrc_combine_into
    let mut post_var = vec![0.0; m];
    mrc_combine_into(rows, est, &mut combined, &mut post_var);
    (combined, post_var)
}

/// [`mrc_combine`] into caller-owned rows of the subcarrier count `m`,
/// returning `Σ post_var` summed in subcarrier order — the demapper's
/// mean noise variance times `m`. Produces values identical to
/// [`mrc_combine`].
///
/// # Panics
/// Panics if `rows` length differs from the estimate's antenna count, or a
/// row's or gain vector's width differs from the subcarrier count, or an
/// output row is shorter than it.
pub fn mrc_combine_into(
    rows: &[&[Cf32]],
    est: &ChannelEstimate,
    combined: &mut [Cf32],
    post_var: &mut [f32],
) -> f32 {
    // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
    assert_eq!(rows.len(), est.num_antennas(), "antenna count");
    let m = est.num_subcarriers();
    for (row, h) in rows.iter().zip(&est.h) {
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(row.len(), m, "subcarrier count");
        // analyze: allow(panic): buffer-shape contract; the intrinsic kernel reads every gain vector through raw pointers up to `m`
        assert_eq!(h.len(), m, "channel estimate width");
    }
    let (combined, post_var) = (&mut combined[..m], &mut post_var[..m]);
    let mut k0 = 0;
    let mut var_sum = 0.0f32;
    #[cfg(target_arch = "x86_64")]
    if simd::active_tier() >= SimdTier::Avx2 {
        // SAFETY: the Avx2 tier is only reported after runtime detection
        // succeeded (see crate::simd); every row, gain vector and output
        // holds `m` entries (checked above).
        #[allow(unsafe_code)]
        unsafe {
            (k0, var_sum) = avx2::mrc(rows, est, combined, post_var);
        }
    }
    // Split-complex (SoA) lane blocks: the same per-subcarrier arithmetic
    // as the AVX2 blocks and the historical per-k loop (`x − (−y)` ≡
    // `x + y` in IEEE 754, so expanding the conjugate multiply is
    // value-preserving). On the AVX2 tier this is only the `m mod 8` tail.
    while k0 < m {
        let len = (m - k0).min(8);
        let mut acc_re = [0.0f32; 8];
        let mut acc_im = [0.0f32; 8];
        let mut gain = [0.0f32; 8];
        for (row, h) in rows.iter().zip(&est.h) {
            let (h, r) = (&h[k0..k0 + len], &row[k0..k0 + len]);
            for j in 0..len {
                acc_re[j] += h[j].re * r[j].re + h[j].im * r[j].im;
                acc_im[j] += h[j].re * r[j].im - h[j].im * r[j].re;
                gain[j] += h[j].re * h[j].re + h[j].im * h[j].im;
            }
        }
        for j in 0..len {
            let g = gain[j].max(1e-9);
            let inv = 1.0 / g;
            combined[k0 + j] = Cf32::new(acc_re[j] * inv, acc_im[j] * inv);
            post_var[k0 + j] = est.noise_var / g;
            var_sum += post_var[k0 + j];
        }
        k0 += len;
    }
    var_sum
}

/// Explicit AVX2 tier of MRC: deinterleaves eight complex subcarriers per
/// antenna into split-complex registers, accumulates `Σ h*·r` and `Σ |h|²`
/// and finishes the block in registers (`max(g, 1e-9)`, `1/g`, both
/// products, `σ²/g`, re-interleave) with the exact operation sequence of
/// the lane form, hence bit-exact with it.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #![allow(unsafe_code)]

    use super::ChannelEstimate;
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

    /// Combines every whole 8-subcarrier block of the symbol into
    /// `combined` and `post_var`; returns the first subcarrier left for
    /// the lane tail and the in-order sum of the variances written.
    ///
    /// # Safety
    /// Every row, `est.h[a]`, `combined` and `post_var` must hold at least
    /// `post_var.len()` entries; the CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mrc(
        rows: &[&[Cf32]],
        est: &ChannelEstimate,
        combined: &mut [Cf32],
        post_var: &mut [f32],
    ) -> (usize, f32) {
        let m = post_var.len();
        let (floor, one, nv) = (
            _mm256_set1_ps(1e-9),
            _mm256_set1_ps(1.0),
            _mm256_set1_ps(est.noise_var),
        );
        let mut var_sum = 0.0f32;
        let mut k0 = 0;
        while k0 + 8 <= m {
            let mut num_re = _mm256_setzero_ps();
            let mut num_im = _mm256_setzero_ps();
            let mut g = _mm256_setzero_ps();
            for (row, h) in rows.iter().zip(&est.h) {
                // SAFETY: caller guarantees k0 + 8 in-bounds complex entries.
                let ((hre, him), (rre, rim)) = unsafe {
                    (
                        load_split(h.as_ptr().add(k0)),
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
            // `maxps` returns its second operand when the first is NaN,
            // as `f32::max` returns the non-NaN floor.
            let g = _mm256_max_ps(g, floor);
            let inv = _mm256_div_ps(one, g);
            let (re, im) = (_mm256_mul_ps(num_re, inv), _mm256_mul_ps(num_im, inv));
            let lo = _mm256_unpacklo_ps(re, im); // r0 i0 r1 i1 | r4 i4 r5 i5
            let hi = _mm256_unpackhi_ps(re, im); // r2 i2 r3 i3 | r6 i6 r7 i7
                                                 // SAFETY: caller guarantees k0 + 8 writable entries in both
                                                 // outputs (16 floats of `combined`).
            unsafe {
                let out = combined.as_mut_ptr().add(k0) as *mut f32;
                _mm256_storeu_ps(out, _mm256_permute2f128_ps(lo, hi, 0x20));
                _mm256_storeu_ps(out.add(8), _mm256_permute2f128_ps(lo, hi, 0x31));
                _mm256_storeu_ps(post_var.as_mut_ptr().add(k0), _mm256_div_ps(nv, g));
            }
            // In subcarrier order, as the lane form sums.
            for &v in &post_var[k0..k0 + 8] {
                var_sum += v;
            }
            k0 += 8;
        }
        (k0, var_sum)
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

    /// The push-based MRC the slice form replaced (lane blocks through
    /// `[f32; 8]` arrays, then `Vec::push`), kept as its oracle.
    fn mrc_combine_push(rows: &[&[Cf32]], est: &ChannelEstimate) -> (Vec<Cf32>, Vec<f32>) {
        let m = est.num_subcarriers();
        let (mut combined, mut post_var) = (Vec::new(), Vec::new());
        let mut k0 = 0;
        while k0 < m {
            let len = (m - k0).min(8);
            let mut acc_re = [0.0f32; 8];
            let mut acc_im = [0.0f32; 8];
            let mut gain = [0.0f32; 8];
            for (a, row) in rows.iter().enumerate() {
                let h = &est.h[a][k0..k0 + len];
                let r = &row[k0..k0 + len];
                for j in 0..len {
                    acc_re[j] += h[j].re * r[j].re + h[j].im * r[j].im;
                    acc_im[j] += h[j].re * r[j].im - h[j].im * r[j].re;
                    gain[j] += h[j].re * h[j].re + h[j].im * h[j].im;
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
        (combined, post_var)
    }

    fn random_estimate(
        m: usize,
        nant: usize,
        rng: &mut StdRng,
    ) -> (ChannelEstimate, Vec<Vec<Cf32>>) {
        let mut draw = || -> Vec<Vec<Cf32>> {
            (0..nant)
                .map(|_| (0..m).map(|_| complex_gaussian(rng)).collect())
                .collect()
        };
        let mut h = draw();
        // A deep fade on the first subcarriers drives the 1e-9 gain floor.
        for ha in h.iter_mut() {
            for v in ha.iter_mut().take(3) {
                *v = v.scale(1e-6);
            }
        }
        (ChannelEstimate { h, noise_var: 0.07 }, draw())
    }

    #[test]
    fn blocked_mrc_is_bit_exact_vs_reference() {
        use crate::simd::{force_tier, supported_tiers, test_guard};
        let _g = test_guard();
        let mut rng = StdRng::seed_from_u64(9);
        // Deliberately non-multiple-of-8 widths to cover the lane tail.
        for m in [1usize, 8, 13, 72, 300, 1200] {
            for nant in [1usize, 2, 4, 8] {
                let (est, data) = random_estimate(m, nant, &mut rng);
                let rows: Vec<&[Cf32]> = data.iter().map(Vec::as_slice).collect();
                // The push-based oracle agrees with the historical
                // per-subcarrier Cf32 loop…
                let (exp_c, exp_v) = mrc_combine_push(&rows, &est);
                for k in 0..m {
                    let mut num = Cf32::ZERO;
                    let mut gain = 0.0f32;
                    for (a, row) in rows.iter().enumerate() {
                        num += est.h[a][k].conj() * row[k];
                        gain += est.h[a][k].norm_sq();
                    }
                    let g = gain.max(1e-9);
                    assert_eq!(
                        (exp_c[k], exp_v[k]),
                        (num.scale(1.0 / g), est.noise_var / g)
                    );
                }
                // …and every tier matches the oracle bit for bit, into
                // outputs poisoned with NaN so an unwritten lane shows.
                let exp_sum = exp_v.iter().sum::<f32>();
                let cbits = |c: &[Cf32]| -> Vec<(u32, u32)> {
                    c.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
                };
                let vbits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
                for tier in supported_tiers().map(Some).chain([None]) {
                    force_tier(tier);
                    let mut c = vec![Cf32::new(f32::NAN, f32::NAN); m];
                    let mut v = vec![f32::NAN; m];
                    let sum = mrc_combine_into(&rows, &est, &mut c, &mut v);
                    let what = format!("m={m} nant={nant} tier={tier:?}");
                    assert_eq!(cbits(&c), cbits(&exp_c), "{what}");
                    assert_eq!(vbits(&v), vbits(&exp_v), "{what}");
                    assert_eq!(sum.to_bits(), exp_sum.to_bits(), "{what}");
                }
                force_tier(None);
            }
        }
    }

    /// MRC against a channel estimate whose second gain vector holds 8
    /// entries instead of `m`: every forced tier must refuse it, then the
    /// auto-dispatched call panics for the `should_panic` harness.
    fn short_gain_vector_panics_on_every_tier(m: usize) {
        use crate::simd::{force_tier, supported_tiers, test_guard};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut rng = StdRng::seed_from_u64(10);
        let (mut est, data) = random_estimate(m, 2, &mut rng);
        est.h[1].truncate(8);
        let rows: Vec<&[Cf32]> = data.iter().map(Vec::as_slice).collect();
        {
            let _g = test_guard();
            for tier in supported_tiers() {
                force_tier(Some(tier));
                let err = catch_unwind(AssertUnwindSafe(|| mrc_combine(&rows, &est)))
                    .expect_err("a short gain vector must be refused");
                let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(msg.contains("channel estimate width"), "{tier:?}: {msg}");
            }
            force_tier(None);
        }
        mrc_combine(&rows, &est);
    }

    #[test]
    #[should_panic(expected = "channel estimate width")]
    fn short_gain_vector_panics_m72() {
        short_gain_vector_panics_on_every_tier(72);
    }

    #[test]
    #[should_panic(expected = "channel estimate width")]
    fn short_gain_vector_panics_m300() {
        short_gain_vector_panics_on_every_tier(300);
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
