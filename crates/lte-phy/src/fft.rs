//! Mixed-radix FFT/IFFT and DFT transform precoding.
//!
//! LTE needs transforms of two kinds of sizes: power-of-two (and `1536 =
//! 2⁹·3`) OFDM FFTs, and `12·N_PRB`-point DFTs for SC-FDMA transform
//! precoding (e.g. 300 points for 25 PRBs). This module implements an
//! **iterative** Stockham autosort kernel over a per-size stage plan:
//! radix 4 while 4 divides the remaining length, then radix 2, 3 and 5,
//! and an `O(n·r)` stage for any other prime factor, so the transform is
//! correct for *any* size and fast for the sizes LTE uses. There is no
//! recursion, no per-call heap allocation and no digit-reversal pass.
//!
//! The per-size [`FftPlan`] precomputes the stage list, each stage with its
//! own contiguous twiddle table; plans are cheap to clone and safe to
//! share. The steady-state entry points are [`FftPlan::forward_with`] /
//! [`FftPlan::inverse_with`], which ping-pong between the caller's buffer
//! and a caller-owned scratch vector; [`FftPlan::forward`] /
//! [`FftPlan::inverse`] are allocating conveniences. [`plan`] returns a
//! process-wide cached `Arc<FftPlan>` so hot paths build each size once.
//!
//! The radix-2/3/4/5 butterflies are written once, generic over the
//! complex arithmetic. The lane forms run them on one [`Cf32`] at a time;
//! the AVX2 tier, which AVX-512 CPUs also run, on four interleaved
//! complex values per register: four `q` per vector once the stride is a
//! multiple of 4, and four butterfly groups per vector in the stride-1
//! radix-4 first stage. Both run the same IEEE operation per component
//! and no FMA, so the tiers are bit-exact with each other.

use crate::complex::Cf32;
use crate::registry::Registry;
use crate::simd::{self, SimdTier};
use std::ops::{Add, Mul, Sub};
use std::sync::Arc;

/// A precomputed transform plan for a fixed size `n`.
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    /// The Stockham passes, first to last.
    stages: Vec<Stage>,
}

/// One Stockham pass: radix `r` over `m` butterfly groups at accumulated
/// stride `s`, where `n_cur = r·m` is the remaining sub-transform length
/// and `n_cur·s = n`.
#[derive(Clone, Debug)]
struct Stage {
    r: usize,
    m: usize,
    s: usize,
    /// `tw[(j − 1)·m + p] = W_{n_cur}^{p·j}` for `j ∈ [1, r)`, `p ∈ [0, m)`;
    /// a generic (prime `r > 5`) stage appends `W_r^k` for `k ∈ [0, r)`.
    tw: Vec<Cf32>,
}

/// The stage radices of `n ≥ 1`: 4 while 4 divides what remains, then
/// the remaining prime factors, smallest first.
fn radices(mut n: usize) -> Vec<usize> {
    // analyze: allow(alloc): runs once per FFT size at plan construction
    let mut f = Vec::new();
    while n.is_multiple_of(4) {
        f.push(4);
        n /= 4;
    }
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

/// Process-wide plan registry, one shared immutable plan per size.
static PLANS: Registry<usize, FftPlan> = Registry::new();

/// Returns the shared plan for size `n`, building it on first use.
///
/// Every component that transforms a given size (OFDM processors, DFT
/// precoders, tests) resolves through the registry, so twiddle tables are
/// computed once per process rather than once per constructor call.
///
/// # Panics
/// Panics if `n == 0`.
pub fn plan(n: usize) -> Arc<FftPlan> {
    PLANS.get_or_build(n, || FftPlan::new(n))
}

impl FftPlan {
    /// Builds a plan for `n`-point transforms.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT size must be positive");
        // Rounded from f64, so every twiddle is exact to half an f32 ulp.
        let w = |k: usize, len: usize| {
            let phase = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
            Cf32::new(phase.cos() as f32, phase.sin() as f32)
        };
        let (mut n_cur, mut s) = (n, 1);
        let stages = radices(n)
            .into_iter()
            .map(|r| {
                let m = n_cur / r;
                let table = (1..r).flat_map(|j| (0..m).map(move |p| w(p * j, r * m)));
                // Only the generic stage reads the radix's own roots.
                let roots = if r > 5 { r } else { 0 };
                // analyze: allow(alloc): runs once per FFT size at plan construction
                let tw = table.chain((0..roots).map(|k| w(k, r))).collect();
                let stage = Stage { r, m, s, tw };
                (n_cur, s) = (m, s * r);
                stage
            })
            // analyze: allow(alloc): runs once per FFT size at plan construction
            .collect();
        FftPlan { n, stages }
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

    /// Iterative Stockham autosort kernel. One pass per stage, ping-ponging
    /// between `data` and `scratch`; the result always ends up back in
    /// `data`. A stage of radix `r` (`n_cur = r·m`, stride `s`) computes
    ///
    /// ```text
    /// y[q + s·(r·p + j)] = ( Σᵢ x[q + s·(p + m·i)] · W_r^{ij} ) · W_{n_cur}^{p·j}
    /// ```
    ///
    /// for `p ∈ [0,m)`, `q ∈ [0,s)`, `j ∈ [0,r)`, reading `W_{n_cur}^{p·j}`
    /// from the stage's own table. Radix 2, 3, 4 and 5 use dedicated
    /// butterflies (constant rotations instead of the generic stage's
    /// `O(r²)` accumulation).
    fn stockham(&self, data: &mut [Cf32], scratch: &mut [Cf32]) {
        let tier = simd::active_tier();
        let mut in_data = true;
        for st in &self.stages {
            let (src, dst): (&[Cf32], &mut [Cf32]) = if in_data {
                (data, scratch)
            } else {
                (scratch, data)
            };
            #[allow(unsafe_code)]
            match tier {
                #[cfg(target_arch = "x86_64")]
                SimdTier::Avx2 => {
                    // SAFETY: the tier is only reported by `crate::simd`
                    // after runtime AVX2 detection; `forward_scratch` and
                    // `inverse_scratch` checked both buffers hold `n = r·m·s`.
                    unsafe { avx2::stage(st, src, dst) }
                }
                _ => st.lanes(src, dst),
            }
            in_data = !in_data;
        }
        if !in_data {
            data.copy_from_slice(scratch);
        }
    }
}

impl Stage {
    /// The portable lane form of this stage.
    fn lanes(&self, src: &[Cf32], dst: &mut [Cf32]) {
        let (m, s, tw) = (self.m, self.s, &self.tw[..]);
        match self.r {
            2 => lane_stage(src, dst, tw, m, s, bfly2),
            3 => lane_stage(src, dst, tw, m, s, bfly3),
            4 => lane_stage(src, dst, tw, m, s, bfly4),
            5 => lane_stage(src, dst, tw, m, s, bfly5),
            r => generic_lanes(src, dst, tw, r, m, s),
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

/// The complex arithmetic the butterflies are written in: one [`Cf32`] in
/// the lane forms, four interleaved values in an AVX2 register. Each
/// operation is the same IEEE operation per component in both (no FMA),
/// so a butterfly written once over this trait is bit-exact across tiers.
trait Complex: Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> {
    /// Every component times `c`.
    fn times(self, c: f32) -> Self;
    /// Times `−i`: `(re, im) → (im, −re)`.
    fn neg_i(self) -> Self;
}

impl Complex for Cf32 {
    #[inline(always)]
    fn times(self, c: f32) -> Self {
        self.scale(c)
    }
    #[inline(always)]
    fn neg_i(self) -> Self {
        Cf32::new(self.im, -self.re)
    }
}

/// Radix-2 butterfly.
#[inline(always)]
fn bfly2<T: Complex>([x0, x1]: [T; 2]) -> [T; 2] {
    [x0 + x1, x0 - x1]
}

/// Radix-3 butterfly: `W₃ = C3 ∓ i·S3` folded into two real rotations
/// (6 real multiplies vs the generic stage's 9 complex multiplies).
#[inline(always)]
fn bfly3<T: Complex>([x0, x1, x2]: [T; 3]) -> [T; 3] {
    let (t, u) = (x1 + x2, x1 - x2);
    let z = x0 + t.times(C3);
    let w = u.times(S3).neg_i();
    [x0 + t, z + w, z - w]
}

/// Radix-4 butterfly: adds, subtracts and one exact `−i` rotation.
#[inline(always)]
fn bfly4<T: Complex>([x0, x1, x2, x3]: [T; 4]) -> [T; 4] {
    let (a, b, c, d) = (x0 + x2, x0 - x2, x1 + x3, (x1 - x3).neg_i());
    [a + c, b + d, a - c, b - d]
}

/// Radix-5 butterfly, Winograd-style real rotations (16 real multiplies vs
/// the generic stage's 25 complex multiplies).
#[inline(always)]
fn bfly5<T: Complex>([x0, x1, x2, x3, x4]: [T; 5]) -> [T; 5] {
    let (t1, t2, t3, t4) = (x1 + x4, x2 + x3, x1 - x4, x2 - x3);
    let m1 = x0 + t1.times(C51) + t2.times(C52);
    let m2 = x0 + t1.times(C52) + t2.times(C51);
    let v1 = (t3.times(S51) + t4.times(S52)).neg_i();
    let v2 = (t3.times(S52) - t4.times(S51)).neg_i();
    [x0 + t1 + t2, m1 + v1, m2 + v2, m2 - v2, m1 - v1]
}

/// Lane form of a radix-`R` stage with a dedicated butterfly.
fn lane_stage<const R: usize>(
    src: &[Cf32],
    dst: &mut [Cf32],
    tw: &[Cf32],
    m: usize,
    s: usize,
    bfly: impl Fn([Cf32; R]) -> [Cf32; R],
) {
    for (p, y) in dst.chunks_exact_mut(R * s).enumerate() {
        for q in 0..s {
            let out = bfly(std::array::from_fn(|i| src[s * (p + m * i) + q]));
            for (j, v) in out.into_iter().enumerate() {
                y[s * j + q] = if j == 0 { v } else { v * tw[(j - 1) * m + p] };
            }
        }
    }
}

/// The generic prime-radix stage: an `O(r²)` DFT per butterfly over the
/// stage's root table `W_r^k`.
fn generic_lanes(src: &[Cf32], dst: &mut [Cf32], tw: &[Cf32], r: usize, m: usize, s: usize) {
    let (tw, roots) = tw.split_at((r - 1) * m);
    for (p, y) in dst.chunks_exact_mut(r * s).enumerate() {
        for (j, yj) in y.chunks_exact_mut(s).enumerate() {
            for (q, out) in yj.iter_mut().enumerate() {
                let mut acc = Cf32::ZERO;
                for i in 0..r {
                    acc += roots[i * j % r] * src[s * (p + m * i) + q];
                }
                *out = if j == 0 {
                    acc
                } else {
                    acc * tw[(j - 1) * m + p]
                };
            }
        }
    }
}

/// AVX2 stage forms: the shared butterflies over `V`, four interleaved
/// complex values per register. Radix 2–5 stages at stride `4 | s` take
/// four `q` per vector; the stride-1 radix-4 first stage takes four
/// butterfly groups `p` per vector. Every other stage runs its lane form.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #![allow(unsafe_code)]

    use super::{bfly2, bfly3, bfly4, bfly5, Complex, Stage};
    use crate::complex::Cf32;
    use core::arch::x86_64::*;
    use std::ops::{Add, Mul, Sub};

    /// Runs one stage with AVX2.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support at runtime. Requires both
    /// slices to hold `r·m·s` values.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn stage(st: &Stage, src: &[Cf32], dst: &mut [Cf32]) {
        let (m, s, tw) = (st.m, st.s, &st.tw[..]);
        debug_assert!(src.len() == st.r * m * s && dst.len() == src.len());
        // SAFETY: AVX2 is enabled here, both slices hold `r·m·s` values per
        // the caller contract and the stage table holds `(r − 1)·m`
        // twiddles, and each arm's guard is its form's shape requirement.
        unsafe {
            match st.r {
                4 if s == 1 && m >= 4 => radix4_first(src, dst, tw, m),
                _ if !s.is_multiple_of(4) => st.lanes(src, dst),
                2 => stride_stage(src, dst, tw, m, s, bfly2),
                3 => stride_stage(src, dst, tw, m, s, bfly3),
                4 => stride_stage(src, dst, tw, m, s, bfly4),
                5 => stride_stage(src, dst, tw, m, s, bfly5),
                _ => st.lanes(src, dst),
            }
        }
    }

    /// Four interleaved complex values `(re, im, re, im, …)`. Only built
    /// inside the `avx2`-gated stage functions below.
    #[derive(Clone, Copy)]
    struct V(__m256);

    impl V {
        /// Loads four complex values from `p`.
        ///
        /// # Safety
        /// AVX2 detected; `p` valid for 8 `f32` reads.
        #[inline(always)]
        unsafe fn load(p: *const f32) -> V {
            // SAFETY: forwarded to the caller.
            V(unsafe { _mm256_loadu_ps(p) })
        }

        /// The twiddle `w` in all four lanes.
        #[inline(always)]
        fn splat(w: Cf32) -> V {
            // SAFETY: register-only; see the type's note.
            V(unsafe { _mm256_setr_ps(w.re, w.im, w.re, w.im, w.re, w.im, w.re, w.im) })
        }
    }

    impl Add for V {
        type Output = V;
        #[inline(always)]
        fn add(self, o: V) -> V {
            // SAFETY: register-only; see the type's note.
            V(unsafe { _mm256_add_ps(self.0, o.0) })
        }
    }

    impl Sub for V {
        type Output = V;
        #[inline(always)]
        fn sub(self, o: V) -> V {
            // SAFETY: register-only; see the type's note.
            V(unsafe { _mm256_sub_ps(self.0, o.0) })
        }
    }

    impl Mul for V {
        type Output = V;
        /// Lane-wise complex product `(re·wr − im·wi, im·wr + re·wi)`: the
        /// products of `Cf32`'s operator, with the exactly-commutative
        /// final addition swapped.
        #[inline(always)]
        fn mul(self, w: V) -> V {
            // SAFETY: register-only; see the type's note.
            unsafe {
                let re = _mm256_mul_ps(self.0, _mm256_moveldup_ps(w.0));
                let im = _mm256_mul_ps(
                    _mm256_permute_ps(self.0, 0b10_11_00_01),
                    _mm256_movehdup_ps(w.0),
                );
                V(_mm256_addsub_ps(re, im))
            }
        }
    }

    impl Complex for V {
        #[inline(always)]
        fn times(self, c: f32) -> V {
            // SAFETY: register-only; see the type's note.
            V(unsafe { _mm256_mul_ps(self.0, _mm256_set1_ps(c)) })
        }
        /// Swap each pair, then flip the new imaginary sign bit (exact).
        #[inline(always)]
        fn neg_i(self) -> V {
            // SAFETY: register-only; see the type's note.
            unsafe {
                let sign = _mm256_setr_ps(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
                V(_mm256_xor_ps(
                    _mm256_permute_ps(self.0, 0b10_11_00_01),
                    sign,
                ))
            }
        }
    }

    /// A radix-`R` stage at stride `4 | s`: four `q` per vector, one
    /// broadcast twiddle per output row.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support at runtime. Requires
    /// `s % 4 == 0`, both slices at least `R·m·s` long and `tw` at least
    /// `(R − 1)·m` long.
    #[target_feature(enable = "avx2")]
    unsafe fn stride_stage<const R: usize>(
        src: &[Cf32],
        dst: &mut [Cf32],
        tw: &[Cf32],
        m: usize,
        s: usize,
        bfly: impl Fn([V; R]) -> [V; R],
    ) {
        debug_assert!(s.is_multiple_of(4) && src.len() >= R * m * s && dst.len() >= R * m * s);
        let (sp, dp) = (src.as_ptr() as *const f32, dst.as_mut_ptr() as *mut f32);
        for p in 0..m {
            let w: [V; R] = std::array::from_fn(|j| {
                V::splat(if j == 0 {
                    Cf32::ONE
                } else {
                    tw[(j - 1) * m + p]
                })
            });
            for q in (0..s).step_by(4) {
                // SAFETY: q + 4 ≤ s, so every 8-float load at
                // `s·(p + m·i) + q` and store at `s·(R·p + j) + q` stays
                // inside the `R·m·s` values of each slice.
                unsafe {
                    let out = bfly(std::array::from_fn(|i| {
                        V::load(sp.add(2 * (s * (p + m * i) + q)))
                    }));
                    for (j, y) in out.into_iter().enumerate() {
                        let y = if j == 0 { y } else { y * w[j] };
                        _mm256_storeu_ps(dp.add(2 * (s * (R * p + j) + q)), y.0);
                    }
                }
            }
        }
    }

    /// The stride-1 radix-4 first stage, vectorised over `p`: four
    /// butterfly groups per iteration with their twiddles loaded straight
    /// from the stage table, the 4 × 4 complex result transposed into
    /// place. When `4 ∤ m` the last block overlaps the one before it and
    /// rewrites equal values.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support at runtime. Requires `m ≥ 4`,
    /// `src` and `dst` at least `4·m` long and `tw` at least `3·m` long.
    #[target_feature(enable = "avx2")]
    unsafe fn radix4_first(src: &[Cf32], dst: &mut [Cf32], tw: &[Cf32], m: usize) {
        debug_assert!(m >= 4 && src.len() >= 4 * m && dst.len() >= 4 * m && tw.len() >= 3 * m);
        let (sp, wp) = (src.as_ptr() as *const f32, tw.as_ptr() as *const f32);
        let dp = dst.as_mut_ptr() as *mut f64;
        let mut p = 0;
        while p < m {
            p = p.min(m - 4);
            // SAFETY: p + 4 ≤ m, so the loads at `i·m + p` (i < 4) and
            // `(j − 1)·m + p` (j ≤ 3) and the 16 values stored from `4·p`
            // stay inside the slices per the length bounds.
            unsafe {
                let [y0, y1, y2, y3] =
                    bfly4(std::array::from_fn(|i| V::load(sp.add(2 * (i * m + p)))));
                let w = |j: usize| V::load(wp.add(2 * ((j - 1) * m + p)));
                let [y0, y1, y2, y3] =
                    [y0, y1 * w(1), y2 * w(2), y3 * w(3)].map(|v| _mm256_castps_pd(v.0));
                // y_j holds output j of groups p..p+4; group k's four
                // outputs are row k of the transpose.
                let (t0, t1) = (_mm256_unpacklo_pd(y0, y1), _mm256_unpackhi_pd(y0, y1));
                let (t2, t3) = (_mm256_unpacklo_pd(y2, y3), _mm256_unpackhi_pd(y2, y3));
                let out = dp.add(4 * p);
                _mm256_storeu_pd(out, _mm256_permute2f128_pd(t0, t2, 0x20));
                _mm256_storeu_pd(out.add(4), _mm256_permute2f128_pd(t1, t3, 0x20));
                _mm256_storeu_pd(out.add(8), _mm256_permute2f128_pd(t0, t2, 0x31));
                _mm256_storeu_pd(out.add(12), _mm256_permute2f128_pd(t1, t3, 0x31));
            }
            p += 4;
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

    /// Deterministic pseudo-random input in `[−1, 1)²`.
    fn noise(n: usize) -> Vec<Cf32> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ n as u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 40) as f32 / (1u32 << 23) as f32 - 1.0
        };
        (0..n).map(|_| Cf32::new(next(), next())).collect()
    }

    /// `X[k] = Σⱼ x[j]·e^{sign·2πi·jk/n}` in f64.
    fn dft_f64(x: &[Cf32], sign: f64) -> Vec<(f64, f64)> {
        let n = x.len();
        let roots: Vec<(f64, f64)> = (0..n)
            .map(|k| (sign * 2.0 * std::f64::consts::PI * k as f64 / n as f64).sin_cos())
            .collect();
        (0..n)
            .map(|k| {
                x.iter().enumerate().fold((0.0, 0.0), |(re, im), (j, v)| {
                    let (s, c) = roots[j * k % n];
                    let (a, b) = (f64::from(v.re), f64::from(v.im));
                    (re + a * c - b * s, im + a * s + b * c)
                })
            })
            .collect()
    }

    /// Forward and inverse at every LTE OFDM and DFT-precoding size against
    /// an f64 reference, as the normwise relative error `‖ŷ − y‖/‖y‖`.
    ///
    /// The bound is Higham's for an FFT in floating point (*Accuracy and
    /// Stability of Numerical Algorithms*, 2nd ed., Thm. 24.2): `log₂n · η`
    /// to first order, `η = μ + γ₄(√2 + μ)` per radix-2 level, `γ₄ =
    /// 4u/(1 − 4u)`, `u = 2⁻²⁴`, and `μ ≤ u` the twiddle error, since the
    /// tables are rounded from f64. That makes `η ≈ 6.7u < 4e-7`. A radix-4
    /// stage is two radix-2 levels with an exact `−i`; a radix-3 or -5
    /// butterfly takes no more rounding steps per output than the
    /// `log₂3` or `log₂5` levels it stands for, so `⌈log₂n⌉ · 4e-7` bounds
    /// every size here. A round trip cannot see a kernel that computes the
    /// conjugate transform throughout, nor can the tier comparison; this
    /// test can.
    #[test]
    fn lte_sizes_match_f64_reference() {
        for n in [
            72, 128, 180, 256, 300, 512, 600, 900, 1024, 1200, 1536, 2048,
        ] {
            let bound = (n as f64).log2().ceil() * 4e-7;
            let plan = FftPlan::new(n);
            let x = noise(n);
            for (sign, scale) in [(-1.0, 1.0), (1.0, 1.0 / n as f64)] {
                let mut y = x.clone();
                if sign < 0.0 {
                    plan.forward(&mut y);
                } else {
                    plan.inverse(&mut y);
                }
                let (mut diff, mut norm) = (0.0, 0.0);
                for (v, (re, im)) in y.iter().zip(dft_f64(&x, sign)) {
                    let (re, im) = (re * scale, im * scale);
                    diff += (f64::from(v.re) - re).powi(2) + (f64::from(v.im) - im).powi(2);
                    norm += re * re + im * im;
                }
                let err = (diff / norm).sqrt();
                assert!(
                    err < bound,
                    "size {n} sign {sign}: error {err:.2e} ≥ {bound:.2e}"
                );
            }
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
            for n in [
                8usize, 16, 128, 256, 300, 512, 600, 900, 1024, 1200, 1536, 2048,
            ] {
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
