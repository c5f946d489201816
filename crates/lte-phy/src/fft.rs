//! Mixed-radix FFT/IFFT and DFT transform precoding.
//!
//! LTE needs transforms of two kinds of sizes: power-of-two (and `1536 =
//! 2⁹·3`) OFDM FFTs, and `12·N_PRB`-point DFTs for SC-FDMA transform
//! precoding (e.g. 600 points for 50 PRBs). This module implements an
//! **iterative** mixed-radix Stockham autosort kernel over arbitrary
//! factorizations — no recursion, no per-call heap allocation, and no
//! digit-reversal pass. Prime factors degrade to an `O(n·r)` stage, so the
//! transform is correct for *any* size and fast for the sizes LTE uses.
//!
//! The per-size [`FftPlan`] precomputes the factorization and a single
//! root-of-unity table; plans are cheap to clone and safe to share. The
//! steady-state entry points are [`FftPlan::forward_with`] /
//! [`FftPlan::inverse_with`], which ping-pong between the caller's buffer
//! and a caller-owned scratch vector; [`FftPlan::forward`] /
//! [`FftPlan::inverse`] are allocating conveniences. [`plan`] returns a
//! process-wide cached `Arc<FftPlan>` so hot paths build each size once.

use crate::complex::Cf32;
use crate::simd::{self, SimdTier};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A precomputed transform plan for a fixed size `n`.
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    /// `twiddles[j] = e^{-2πi·j/n}` for `j ∈ [0, n)`.
    twiddles: Vec<Cf32>,
    /// Prime factorization of `n`, smallest factors first.
    factors: Vec<usize>,
}

/// Returns the prime factorization of `n` (smallest first). `n ≥ 1`.
fn factorize(mut n: usize) -> Vec<usize> {
    // analyze: allow(alloc): runs once per FFT size at plan construction
    let mut f = Vec::new();
    let mut d = 2;
    while d * d <= n {
        while n.is_multiple_of(d) {
            f.push(d);
            n /= d;
        }
        d += 1;
    }
    if n > 1 {
        f.push(n);
    }
    f
}

/// Process-wide plan cache, one shared immutable plan per size.
static PLAN_CACHE: OnceLock<Mutex<HashMap<usize, Arc<FftPlan>>>> = OnceLock::new();

/// Returns the shared plan for size `n`, building it on first use.
///
/// Every component that transforms a given size (OFDM processors, DFT
/// precoders, tests) resolves through this cache, so twiddle tables are
/// computed once per process rather than once per constructor call.
///
/// # Panics
/// Panics if `n == 0`.
pub fn plan(n: usize) -> Arc<FftPlan> {
    let cache = PLAN_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    // analyze: allow(panic): poison implies a prior panic already failed the run
    let mut map = cache.lock().expect("plan cache poisoned");
    Arc::clone(map.entry(n).or_insert_with(|| Arc::new(FftPlan::new(n))))
}

impl FftPlan {
    /// Builds a plan for `n`-point transforms.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT size must be positive");
        let twiddles = (0..n)
            .map(|j| Cf32::from_phase(-2.0 * std::f32::consts::PI * j as f32 / n as f32))
            // analyze: allow(alloc): runs once per FFT size at plan construction
            .collect();
        FftPlan {
            n,
            twiddles,
            factors: factorize(n),
        }
    }

    /// The transform size this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; a plan has size ≥ 1.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Forward DFT: `X[k] = Σ x[j]·e^{-2πi jk/n}` (no normalization).
    ///
    /// Allocating convenience over [`FftPlan::forward_with`].
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Cf32]) {
        // analyze: allow(alloc): allocating convenience; hot callers use forward_scratch
        let mut scratch = vec![Cf32::ZERO; self.n];
        self.forward_scratch(data, &mut scratch);
    }

    /// Inverse DFT with `1/n` normalization, so `inverse(forward(x)) = x`.
    ///
    /// Allocating convenience over [`FftPlan::inverse_with`].
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Cf32]) {
        // analyze: allow(alloc): allocating convenience; hot callers use inverse_scratch
        let mut scratch = vec![Cf32::ZERO; self.n];
        self.inverse_scratch(data, &mut scratch);
    }

    /// Forward DFT using a caller-owned scratch vector, resized as needed.
    /// After warm-up the call performs no heap allocation.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn forward_with(&self, data: &mut [Cf32], scratch: &mut Vec<Cf32>) {
        scratch.resize(self.n, Cf32::ZERO);
        self.forward_scratch(data, &mut scratch[..]);
    }

    /// Inverse DFT using a caller-owned scratch vector, resized as needed.
    /// After warm-up the call performs no heap allocation.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn inverse_with(&self, data: &mut [Cf32], scratch: &mut Vec<Cf32>) {
        scratch.resize(self.n, Cf32::ZERO);
        self.inverse_scratch(data, &mut scratch[..]);
    }

    /// Forward DFT with an exact-size scratch slice (the zero-allocation
    /// primitive; `scratch` contents are clobbered).
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()` or `scratch.len() != self.len()`.
    pub fn forward_scratch(&self, data: &mut [Cf32], scratch: &mut [Cf32]) {
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(data.len(), self.n, "buffer length must equal plan size");
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(scratch.len(), self.n, "scratch length must equal plan size");
        self.stockham(data, scratch);
    }

    /// Inverse DFT with an exact-size scratch slice (the zero-allocation
    /// primitive; `scratch` contents are clobbered).
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()` or `scratch.len() != self.len()`.
    pub fn inverse_scratch(&self, data: &mut [Cf32], scratch: &mut [Cf32]) {
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(data.len(), self.n, "buffer length must equal plan size");
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(scratch.len(), self.n, "scratch length must equal plan size");
        for v in data.iter_mut() {
            *v = v.conj();
        }
        self.stockham(data, scratch);
        let s = 1.0 / self.n as f32;
        for v in data.iter_mut() {
            *v = v.conj().scale(s);
        }
    }

    /// Iterative Stockham autosort mixed-radix kernel. One pass per prime
    /// factor, ping-ponging between `data` and `scratch`; the result always
    /// ends up back in `data`.
    ///
    /// Stage invariant: with `n_cur` the remaining sub-transform length and
    /// `s` the accumulated stride (`s · n_cur · …` spans `n`), each stage of
    /// radix `r` (`m = n_cur / r`) computes
    ///
    /// ```text
    /// y[q + s·(r·p + j)] = ( Σᵢ x[q + s·(p + m·i)] · W_r^{ij} ) · W_{n_cur}^{p·j}
    /// ```
    ///
    /// for `p ∈ [0,m)`, `q ∈ [0,s)`, `j ∈ [0,r)`; then `n_cur ← m`, `s ← s·r`.
    ///
    /// Radix 2, 3 and 5 stages use dedicated butterflies (constant
    /// rotations instead of the `O(r²)` twiddle-table accumulation), each
    /// with an intrinsic form once the accumulated stride covers a whole
    /// vector; other prime factors fall back to the generic stage.
    fn stockham(&self, data: &mut [Cf32], scratch: &mut [Cf32]) {
        let n = self.n;
        if n == 1 {
            return;
        }
        let tw = &self.twiddles;
        let tier = simd::active_tier();
        let mut n_cur = n;
        let mut s = 1usize;
        let mut in_data = true;
        for &r in &self.factors {
            let m = n_cur / r;
            let (src, dst): (&[Cf32], &mut [Cf32]) = if in_data {
                (data, scratch)
            } else {
                (scratch, data)
            };
            let wn_stride = n / n_cur;
            // Stride-aligned stages dispatch to the intrinsic tiers; the
            // per-element op sequence is identical in every form, so the
            // tiers stay bit-exact (see the avx2/avx512 module docs).
            #[cfg(target_arch = "x86_64")]
            let vectorized = {
                #[allow(unsafe_code)]
                match r {
                    2 if tier >= SimdTier::Avx512 && s.is_multiple_of(8) => {
                        // SAFETY: the Avx512 tier is only reported by `crate::simd`
                        // after avx512f/avx512bw detection; `s % 8 == 0` guarantees
                        // the 8-complex zmm loads stay in bounds.
                        unsafe { avx512::radix2_stage(src, dst, tw, m, s, wn_stride) };
                        true
                    }
                    2 if tier >= SimdTier::Avx2 && s.is_multiple_of(4) => {
                        // SAFETY: the Avx2 tier is only reported after feature
                        // detection; `s % 4 == 0` keeps the 4-complex loads in bounds.
                        unsafe { avx2::radix2_stage(src, dst, tw, m, s, wn_stride) };
                        true
                    }
                    3 if tier >= SimdTier::Avx2 && s.is_multiple_of(4) => {
                        // SAFETY: as above — detected AVX2 plus stride-aligned loads.
                        unsafe { avx2::radix3_stage(src, dst, tw, m, s, n_cur, wn_stride) };
                        true
                    }
                    5 if tier >= SimdTier::Avx2 && s.is_multiple_of(4) => {
                        // SAFETY: as above — detected AVX2 plus stride-aligned loads.
                        unsafe { avx2::radix5_stage(src, dst, tw, m, s, n_cur, wn_stride) };
                        true
                    }
                    _ => false,
                }
            };
            #[cfg(not(target_arch = "x86_64"))]
            let vectorized = {
                let _ = tier;
                false
            };
            if !vectorized {
                match r {
                    2 => radix2_lanes(src, dst, tw, m, s, wn_stride),
                    3 => radix3_lanes(src, dst, tw, m, s, n_cur, wn_stride),
                    5 => radix5_lanes(src, dst, tw, m, s, n_cur, wn_stride),
                    _ => {
                        let wr_stride = n / r;
                        for j in 0..r {
                            for p in 0..m {
                                let wp = tw[(p * j) % n_cur * wn_stride];
                                for q in 0..s {
                                    let mut acc = Cf32::ZERO;
                                    for i in 0..r {
                                        let w = tw[(i * j) % r * wr_stride];
                                        acc += w * src[q + s * (p + m * i)];
                                    }
                                    dst[q + s * (r * p + j)] = acc * wp;
                                }
                            }
                        }
                    }
                }
            }
            n_cur = m;
            s *= r;
            in_data = !in_data;
        }
        if !in_data {
            data.copy_from_slice(scratch);
        }
    }
}

/// `cos(2π/3)` — the radix-3 rotation's real part.
const C3: f32 = -0.5;
/// `sin(2π/3)`.
const S3: f32 = 0.866_025_4;
/// `cos(2π/5)`.
const C51: f32 = 0.309_017;
/// `cos(4π/5)`.
const C52: f32 = -0.809_017;
/// `sin(2π/5)`.
const S51: f32 = 0.951_056_5;
/// `sin(4π/5)`.
const S52: f32 = 0.587_785_25;

/// Portable radix-2 butterfly stage (the lane-form reference the intrinsic
/// stages mirror term for term).
fn radix2_lanes(src: &[Cf32], dst: &mut [Cf32], tw: &[Cf32], m: usize, s: usize, wn_stride: usize) {
    for p in 0..m {
        let wp = tw[p * wn_stride];
        for q in 0..s {
            let x0 = src[q + s * p];
            let x1 = src[q + s * (p + m)];
            dst[q + s * 2 * p] = x0 + x1;
            dst[q + s * (2 * p + 1)] = (x0 - x1) * wp;
        }
    }
}

/// Portable dedicated radix-3 butterfly: `W₃ = C3 ∓ i·S3` folded into two
/// real rotations (6 real multiplies per butterfly vs the generic stage's
/// 9 table-lookup complex multiplies plus index modulos).
fn radix3_lanes(
    src: &[Cf32],
    dst: &mut [Cf32],
    tw: &[Cf32],
    m: usize,
    s: usize,
    n_cur: usize,
    wn_stride: usize,
) {
    for p in 0..m {
        let w1 = tw[p * wn_stride];
        let w2 = tw[(2 * p) % n_cur * wn_stride];
        for q in 0..s {
            let x0 = src[q + s * p];
            let x1 = src[q + s * (p + m)];
            let x2 = src[q + s * (p + 2 * m)];
            let t = x1 + x2;
            let u = x1 - x2;
            let z = Cf32::new(x0.re + C3 * t.re, x0.im + C3 * t.im);
            let w = Cf32::new(S3 * u.im, -(S3 * u.re));
            dst[q + s * 3 * p] = x0 + t;
            dst[q + s * (3 * p + 1)] = (z + w) * w1;
            dst[q + s * (3 * p + 2)] = (z - w) * w2;
        }
    }
}

/// Portable dedicated radix-5 butterfly (Winograd-style real rotations:
/// 16 real multiplies per butterfly vs the generic stage's 25 table-lookup
/// complex multiplies).
fn radix5_lanes(
    src: &[Cf32],
    dst: &mut [Cf32],
    tw: &[Cf32],
    m: usize,
    s: usize,
    n_cur: usize,
    wn_stride: usize,
) {
    for p in 0..m {
        let w1 = tw[p * wn_stride];
        let w2 = tw[(2 * p) % n_cur * wn_stride];
        let w3 = tw[(3 * p) % n_cur * wn_stride];
        let w4 = tw[(4 * p) % n_cur * wn_stride];
        for q in 0..s {
            let x0 = src[q + s * p];
            let x1 = src[q + s * (p + m)];
            let x2 = src[q + s * (p + 2 * m)];
            let x3 = src[q + s * (p + 3 * m)];
            let x4 = src[q + s * (p + 4 * m)];
            let t1 = x1 + x4;
            let t2 = x2 + x3;
            let t3 = x1 - x4;
            let t4 = x2 - x3;
            let m1 = Cf32::new(
                x0.re + C51 * t1.re + C52 * t2.re,
                x0.im + C51 * t1.im + C52 * t2.im,
            );
            let m2 = Cf32::new(
                x0.re + C52 * t1.re + C51 * t2.re,
                x0.im + C52 * t1.im + C51 * t2.im,
            );
            let v1 = Cf32::new(S51 * t3.im + S52 * t4.im, -(S51 * t3.re + S52 * t4.re));
            let v2 = Cf32::new(S52 * t3.im - S51 * t4.im, -(S52 * t3.re - S51 * t4.re));
            dst[q + s * 5 * p] = x0 + t1 + t2;
            dst[q + s * (5 * p + 1)] = (m1 + v1) * w1;
            dst[q + s * (5 * p + 2)] = (m2 + v2) * w2;
            dst[q + s * (5 * p + 3)] = (m2 - v2) * w3;
            dst[q + s * (5 * p + 4)] = (m1 - v1) * w4;
        }
    }
}

/// AVX2 radix-2 butterfly stage operating on 4 interleaved complex values
/// per vector. The arithmetic per element — complex add, subtract, and the
/// `(re·wr − im·wi, re·wi + im·wr)` twiddle multiply — matches the scalar
/// `Cf32` operators term for term (the only reordering is the commuted final
/// addition of the imaginary part), so stage output is bit-identical to the
/// scalar loop.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #![allow(unsafe_code)]

    use crate::complex::Cf32;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    /// # Safety
    /// Caller must have verified AVX2 support at runtime. Requires
    /// `s % 4 == 0`, `src.len() >= 2 * m * s`, and `dst.len() >= 2 * m * s`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn radix2_stage(
        src: &[Cf32],
        dst: &mut [Cf32],
        tw: &[Cf32],
        m: usize,
        s: usize,
        wn_stride: usize,
    ) {
        debug_assert!(s.is_multiple_of(4));
        debug_assert!(src.len() >= 2 * m * s && dst.len() >= 2 * m * s);
        let sp = src.as_ptr() as *const f32;
        let dp = dst.as_mut_ptr() as *mut f32;
        for p in 0..m {
            let wp = tw[p * wn_stride];
            let wr = _mm256_set1_ps(wp.re);
            let wi = _mm256_set1_ps(wp.im);
            let a = s * p;
            let b = s * (p + m);
            let lo = s * 2 * p;
            let hi = s * (2 * p + 1);
            let mut q = 0usize;
            while q < s {
                // SAFETY: q + 4 <= s, so all four-complex (8-float) loads and
                // stores below stay inside the slices per the length bounds.
                unsafe {
                    let x0 = _mm256_loadu_ps(sp.add(2 * (a + q)));
                    let x1 = _mm256_loadu_ps(sp.add(2 * (b + q)));
                    let sum = _mm256_add_ps(x0, x1);
                    let d = _mm256_sub_ps(x0, x1);
                    // (re·wr − im·wi, im·wr + re·wi): multiply the lanes by
                    // wr, the pair-swapped lanes by wi, then addsub merges
                    // the even (subtract) and odd (add) results.
                    let t1 = _mm256_mul_ps(d, wr);
                    let dsw = _mm256_permute_ps(d, 0b10_11_00_01);
                    let t2 = _mm256_mul_ps(dsw, wi);
                    let prod = _mm256_addsub_ps(t1, t2);
                    _mm256_storeu_ps(dp.add(2 * (lo + q)), sum);
                    _mm256_storeu_ps(dp.add(2 * (hi + q)), prod);
                }
                q += 4;
            }
        }
    }

    /// Swaps the re/im halves of each complex pair.
    #[inline(always)]
    fn swap_pairs(v: __m256) -> __m256 {
        // SAFETY: pure register permute, no memory access; only reachable
        // from `avx2`-gated callers.
        unsafe { _mm256_permute_ps(v, 0b10_11_00_01) }
    }

    /// Flips the sign of the imaginary (odd) lanes: `(re, im) → (re, −im)`.
    /// An XOR of the sign bit, so exact for every input.
    #[inline(always)]
    fn negate_im(v: __m256) -> __m256 {
        // SAFETY: pure register ops; only reachable from avx2-gated callers.
        unsafe {
            let mask = _mm256_set_ps(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0);
            _mm256_xor_ps(v, mask)
        }
    }

    /// Complex multiply of 4 packed complex lanes by the broadcast twiddle
    /// `(wr, wi)`: `(re·wr − im·wi, im·wr + re·wi)` — the same term order as
    /// `Cf32`'s operator up to the exactly-commutative final addition.
    #[inline(always)]
    fn cmul(v: __m256, wr: __m256, wi: __m256) -> __m256 {
        // SAFETY: pure register ops; only reachable from avx2-gated callers.
        unsafe { _mm256_addsub_ps(_mm256_mul_ps(v, wr), _mm256_mul_ps(swap_pairs(v), wi)) }
    }

    /// AVX2 dedicated radix-3 butterfly stage: term-for-term the vector
    /// form of `radix3_lanes` (same constants, same op order per element),
    /// so the two are bit-exact.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support at runtime. Requires
    /// `s % 4 == 0` and both slices at least `3 * m * s` long.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn radix3_stage(
        src: &[Cf32],
        dst: &mut [Cf32],
        tw: &[Cf32],
        m: usize,
        s: usize,
        n_cur: usize,
        wn_stride: usize,
    ) {
        debug_assert!(s.is_multiple_of(4));
        debug_assert!(src.len() >= 3 * m * s && dst.len() >= 3 * m * s);
        let sp = src.as_ptr() as *const f32;
        let dp = dst.as_mut_ptr() as *mut f32;
        let c3 = _mm256_set1_ps(super::C3);
        let s3 = _mm256_set1_ps(super::S3);
        for p in 0..m {
            let w1 = tw[p * wn_stride];
            let w2 = tw[(2 * p) % n_cur * wn_stride];
            let (w1r, w1i) = (_mm256_set1_ps(w1.re), _mm256_set1_ps(w1.im));
            let (w2r, w2i) = (_mm256_set1_ps(w2.re), _mm256_set1_ps(w2.im));
            let (a0, a1, a2) = (s * p, s * (p + m), s * (p + 2 * m));
            let (o0, o1, o2) = (s * 3 * p, s * (3 * p + 1), s * (3 * p + 2));
            let mut q = 0usize;
            while q < s {
                // SAFETY: q + 4 <= s keeps every 8-float load/store in range.
                unsafe {
                    let x0 = _mm256_loadu_ps(sp.add(2 * (a0 + q)));
                    let x1 = _mm256_loadu_ps(sp.add(2 * (a1 + q)));
                    let x2 = _mm256_loadu_ps(sp.add(2 * (a2 + q)));
                    let t = _mm256_add_ps(x1, x2);
                    let u = _mm256_sub_ps(x1, x2);
                    // z = x0 + C3·t ; w = (S3·u.im, −S3·u.re)
                    let z = _mm256_add_ps(x0, _mm256_mul_ps(t, c3));
                    let w = negate_im(_mm256_mul_ps(swap_pairs(u), s3));
                    _mm256_storeu_ps(dp.add(2 * (o0 + q)), _mm256_add_ps(x0, t));
                    _mm256_storeu_ps(dp.add(2 * (o1 + q)), cmul(_mm256_add_ps(z, w), w1r, w1i));
                    _mm256_storeu_ps(dp.add(2 * (o2 + q)), cmul(_mm256_sub_ps(z, w), w2r, w2i));
                }
                q += 4;
            }
        }
    }

    /// AVX2 dedicated radix-5 butterfly stage: the vector form of
    /// `radix5_lanes`, bit-exact with it.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support at runtime. Requires
    /// `s % 4 == 0` and both slices at least `5 * m * s` long.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn radix5_stage(
        src: &[Cf32],
        dst: &mut [Cf32],
        tw: &[Cf32],
        m: usize,
        s: usize,
        n_cur: usize,
        wn_stride: usize,
    ) {
        debug_assert!(s.is_multiple_of(4));
        debug_assert!(src.len() >= 5 * m * s && dst.len() >= 5 * m * s);
        let sp = src.as_ptr() as *const f32;
        let dp = dst.as_mut_ptr() as *mut f32;
        let c51 = _mm256_set1_ps(super::C51);
        let c52 = _mm256_set1_ps(super::C52);
        let s51 = _mm256_set1_ps(super::S51);
        let s52 = _mm256_set1_ps(super::S52);
        for p in 0..m {
            let wp: [Cf32; 4] = [
                tw[p * wn_stride],
                tw[(2 * p) % n_cur * wn_stride],
                tw[(3 * p) % n_cur * wn_stride],
                tw[(4 * p) % n_cur * wn_stride],
            ];
            let a = [
                s * p,
                s * (p + m),
                s * (p + 2 * m),
                s * (p + 3 * m),
                s * (p + 4 * m),
            ];
            let o = [
                s * 5 * p,
                s * (5 * p + 1),
                s * (5 * p + 2),
                s * (5 * p + 3),
                s * (5 * p + 4),
            ];
            let mut q = 0usize;
            while q < s {
                // SAFETY: q + 4 <= s keeps every 8-float load/store in range.
                unsafe {
                    let x0 = _mm256_loadu_ps(sp.add(2 * (a[0] + q)));
                    let x1 = _mm256_loadu_ps(sp.add(2 * (a[1] + q)));
                    let x2 = _mm256_loadu_ps(sp.add(2 * (a[2] + q)));
                    let x3 = _mm256_loadu_ps(sp.add(2 * (a[3] + q)));
                    let x4 = _mm256_loadu_ps(sp.add(2 * (a[4] + q)));
                    let t1 = _mm256_add_ps(x1, x4);
                    let t2 = _mm256_add_ps(x2, x3);
                    let t3 = _mm256_sub_ps(x1, x4);
                    let t4 = _mm256_sub_ps(x2, x3);
                    let m1 = _mm256_add_ps(
                        _mm256_add_ps(x0, _mm256_mul_ps(t1, c51)),
                        _mm256_mul_ps(t2, c52),
                    );
                    let m2 = _mm256_add_ps(
                        _mm256_add_ps(x0, _mm256_mul_ps(t1, c52)),
                        _mm256_mul_ps(t2, c51),
                    );
                    let t3s = swap_pairs(t3);
                    let t4s = swap_pairs(t4);
                    let v1 = negate_im(_mm256_add_ps(
                        _mm256_mul_ps(t3s, s51),
                        _mm256_mul_ps(t4s, s52),
                    ));
                    let v2 = negate_im(_mm256_sub_ps(
                        _mm256_mul_ps(t3s, s52),
                        _mm256_mul_ps(t4s, s51),
                    ));
                    let y0 = _mm256_add_ps(_mm256_add_ps(x0, t1), t2);
                    _mm256_storeu_ps(dp.add(2 * (o[0] + q)), y0);
                    let pairs = [
                        (_mm256_add_ps(m1, v1), o[1], wp[0]),
                        (_mm256_add_ps(m2, v2), o[2], wp[1]),
                        (_mm256_sub_ps(m2, v2), o[3], wp[2]),
                        (_mm256_sub_ps(m1, v1), o[4], wp[3]),
                    ];
                    for (y, off, w) in pairs {
                        let prod = cmul(y, _mm256_set1_ps(w.re), _mm256_set1_ps(w.im));
                        _mm256_storeu_ps(dp.add(2 * (off + q)), prod);
                    }
                }
                q += 4;
            }
        }
    }
}

/// AVX-512 radix-2 butterfly stage: 8 interleaved complex values per
/// vector. Per-element arithmetic matches the AVX2/scalar forms exactly —
/// the `addsub` is emulated as an even-lane sign flip followed by an add,
/// which is the identical IEEE operation (`a − b ≡ a + (−b)`), so the tier
/// stays bit-exact.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    #![allow(unsafe_code)]

    use crate::complex::Cf32;
    use core::arch::x86_64::*;

    /// # Safety
    /// Caller must have verified AVX-512F support at runtime. Requires
    /// `s % 8 == 0`, `src.len() >= 2 * m * s`, and `dst.len() >= 2 * m * s`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn radix2_stage(
        src: &[Cf32],
        dst: &mut [Cf32],
        tw: &[Cf32],
        m: usize,
        s: usize,
        wn_stride: usize,
    ) {
        debug_assert!(s.is_multiple_of(8));
        debug_assert!(src.len() >= 2 * m * s && dst.len() >= 2 * m * s);
        let sp = src.as_ptr() as *const f32;
        let dp = dst.as_mut_ptr() as *mut f32;
        // −0.0 in even (real) lanes: XOR then add emulates addsub exactly.
        let even_neg = _mm512_set_ps(
            0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0,
        );
        for p in 0..m {
            let wp = tw[p * wn_stride];
            let wr = _mm512_set1_ps(wp.re);
            let wi = _mm512_set1_ps(wp.im);
            let a = s * p;
            let b = s * (p + m);
            let lo = s * 2 * p;
            let hi = s * (2 * p + 1);
            let mut q = 0usize;
            while q < s {
                // SAFETY: q + 8 <= s, so all eight-complex (16-float) loads
                // and stores stay inside the slices per the length bounds.
                unsafe {
                    let x0 = _mm512_loadu_ps(sp.add(2 * (a + q)));
                    let x1 = _mm512_loadu_ps(sp.add(2 * (b + q)));
                    let sum = _mm512_add_ps(x0, x1);
                    let d = _mm512_sub_ps(x0, x1);
                    let t1 = _mm512_mul_ps(d, wr);
                    let dsw = _mm512_permute_ps(d, 0b10_11_00_01);
                    let t2 = _mm512_mul_ps(dsw, wi);
                    let prod = _mm512_add_ps(t1, _mm512_xor_ps(t2, even_neg));
                    _mm512_storeu_ps(dp.add(2 * (lo + q)), sum);
                    _mm512_storeu_ps(dp.add(2 * (hi + q)), prod);
                }
                q += 8;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_dft(x: &[Cf32]) -> Vec<Cf32> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Cf32::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    let w = Cf32::from_phase(
                        -2.0 * std::f32::consts::PI * (j * k % n) as f32 / n as f32,
                    );
                    acc += w * v;
                }
                acc
            })
            .collect()
    }

    fn max_err(a: &[Cf32], b: &[Cf32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f32::max)
    }

    fn ramp(n: usize) -> Vec<Cf32> {
        (0..n)
            .map(|i| Cf32::new((i % 17) as f32 - 8.0, ((i * 3) % 11) as f32 - 5.0))
            .collect()
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let plan = FftPlan::new(64);
        let mut x = vec![Cf32::ZERO; 64];
        x[0] = Cf32::ONE;
        plan.forward(&mut x);
        for v in x {
            assert!((v.re - 1.0).abs() < 1e-4 && v.im.abs() < 1e-4);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 600; // LTE 50-PRB DFT-precoding size
        let plan = FftPlan::new(n);
        let k0 = 42;
        let mut x: Vec<Cf32> = (0..n)
            .map(|j| Cf32::from_phase(2.0 * std::f32::consts::PI * (j * k0) as f32 / n as f32))
            .collect();
        plan.forward(&mut x);
        for (k, v) in x.iter().enumerate() {
            if k == k0 {
                assert!((v.abs() - n as f32).abs() < 0.05 * n as f32);
            } else {
                assert!(v.abs() < 0.01 * n as f32, "leakage at bin {k}: {}", v.abs());
            }
        }
    }

    #[test]
    fn matches_naive_for_mixed_sizes() {
        for n in [1, 2, 3, 4, 5, 6, 8, 12, 15, 20, 30, 36, 60, 72, 128, 144] {
            let x = ramp(n);
            let mut y = x.clone();
            FftPlan::new(n).forward(&mut y);
            let z = naive_dft(&x);
            assert!(max_err(&y, &z) < 1e-2 * n as f32, "size {n}");
        }
    }

    #[test]
    fn matches_naive_for_prime_sizes() {
        for n in [7, 11, 13, 17, 23, 31] {
            let x = ramp(n);
            let mut y = x.clone();
            FftPlan::new(n).forward(&mut y);
            let z = naive_dft(&x);
            assert!(max_err(&y, &z) < 1e-3 * n as f32, "prime size {n}");
        }
    }

    #[test]
    fn lte_sizes_roundtrip() {
        for n in [128, 256, 512, 600, 1024, 1536, 2048, 900, 1200] {
            let x = ramp(n);
            let mut y = x.clone();
            let plan = FftPlan::new(n);
            plan.forward(&mut y);
            plan.inverse(&mut y);
            assert!(max_err(&x, &y) < 2e-3, "size {n}");
        }
    }

    #[test]
    fn scratch_path_matches_allocating_path() {
        for n in [1usize, 2, 12, 128, 600, 1536] {
            let x = ramp(n);
            let mut a = x.clone();
            FftPlan::new(n).forward(&mut a);
            let mut b = x.clone();
            let mut scratch = Vec::new();
            let plan = plan(n);
            plan.forward_with(&mut b, &mut scratch);
            assert_eq!(a, b, "size {n}");
            // And the cached-plan inverse round-trips through the same scratch.
            plan.inverse_with(&mut b, &mut scratch);
            assert!(max_err(&x, &b) < 2e-3, "size {n}");
        }
    }

    #[test]
    fn every_supported_tier_is_bit_exact_vs_scalar() {
        use crate::simd::{self, SimdTier};
        let _g = simd::test_guard();
        // Sizes with radix-2/3/5 stages at s >= 4 (the vectorized cases)
        // plus odd/mixed sizes that exercise the fallback under all tiers.
        for tier in simd::supported_tiers().filter(|&t| t != SimdTier::Scalar) {
            for n in [8usize, 16, 128, 256, 600, 900, 1024, 1200, 1536, 2048] {
                let x = ramp(n);
                let plan = FftPlan::new(n);
                simd::force_tier(Some(SimdTier::Scalar));
                let mut a = x.clone();
                plan.forward(&mut a);
                simd::force_tier(Some(tier));
                let mut b = x.clone();
                plan.forward(&mut b);
                assert_eq!(a, b, "forward size {n} tier {}", tier.name());
                plan.inverse(&mut b);
                simd::force_tier(Some(SimdTier::Scalar));
                plan.inverse(&mut a);
                assert_eq!(a, b, "inverse size {n} tier {}", tier.name());
            }
        }
        simd::force_tier(None);
    }

    #[test]
    fn plan_cache_returns_shared_plan() {
        let a = plan(640);
        let b = plan(640);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 640);
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 1024;
        let x = ramp(n);
        let time_energy: f32 = x.iter().map(|v| v.norm_sq()).sum();
        let mut y = x;
        FftPlan::new(n).forward(&mut y);
        let freq_energy: f32 = y.iter().map(|v| v.norm_sq()).sum::<f32>() / n as f32;
        assert!((time_energy - freq_energy).abs() < 1e-2 * time_energy);
    }

    #[test]
    fn linearity() {
        let n = 60;
        let a = ramp(n);
        let b: Vec<Cf32> = a.iter().map(|v| v.conj() + Cf32::new(0.5, 1.0)).collect();
        let plan = FftPlan::new(n);
        let mut fa = a.clone();
        plan.forward(&mut fa);
        let mut fb = b.clone();
        plan.forward(&mut fb);
        let mut fsum: Vec<Cf32> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        plan.forward(&mut fsum);
        let expect: Vec<Cf32> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&fsum, &expect) < 1e-2);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_length_panics() {
        FftPlan::new(16).forward(&mut [Cf32::ZERO; 8]);
    }

    #[test]
    #[should_panic(expected = "scratch length")]
    fn wrong_scratch_length_panics() {
        FftPlan::new(16).forward_scratch(&mut [Cf32::ZERO; 16], &mut [Cf32::ZERO; 8]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_roundtrip(n in 1usize..200, seed in 0u64..1000) {
            let x: Vec<Cf32> = (0..n).map(|i| {
                let a = ((i as u64 + seed) * 2654435761 % 1000) as f32 / 500.0 - 1.0;
                let b = ((i as u64 * 7 + seed) * 40503 % 1000) as f32 / 500.0 - 1.0;
                Cf32::new(a, b)
            }).collect();
            let plan = FftPlan::new(n);
            let mut y = x.clone();
            plan.forward(&mut y);
            plan.inverse(&mut y);
            let err = x.iter().zip(&y).map(|(a, b)| (*a - *b).abs()).fold(0.0f32, f32::max);
            prop_assert!(err < 5e-3, "n={n} err={err}");
        }
    }
}
