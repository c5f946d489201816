//! Iterative max-log-MAP turbo decoder with CRC-based early termination.
//!
//! Each full iteration runs both constituent max-log-MAP (BCJR) decoders
//! and exchanges extrinsic information through the QPP interleaver. After
//! every iteration the hard decision is offered to an early-stop predicate
//! (the per-code-block CRC24B in the uplink chain); a pass ends decoding.
//!
//! The number of iterations actually executed — `L ∈ [1, Lm]` — is exactly
//! the `L` term of the paper's processing-time model (Eq. 1): good channels
//! stop after one pass, bad channels burn the full budget. This is the
//! physical origin of the execution-time variability RT-OPEX exploits.

use super::{Qpp, NUM_STATES, TAIL_STEPS, TRELLIS};
use crate::simd::{self, SimdTier};

/// LLR convention: `L = ln(P(bit = 0) / P(bit = 1))`.
/// Log-domain "minus infinity" for unreachable states.
const NEG_INF: f32 = -1.0e30;

/// Extrinsic scaling factor — the standard max-log-MAP correction
/// (compensates the max approximation's overconfidence).
const EXTRINSIC_SCALE: f32 = 0.75;

/// Clamp on extrinsic LLRs to keep the iteration numerically stable.
const EXTRINSIC_CLAMP: f32 = 64.0;

/// Result of a turbo decode.
#[derive(Clone, Debug)]
pub struct TurboDecodeResult {
    /// Hard-decision information bits (length `K`).
    pub bits: Vec<u8>,
    /// Number of full iterations executed, `1..=max_iters`.
    pub iterations: usize,
    /// Whether the early-stop predicate accepted the output.
    pub converged: bool,
}

/// Decoder for a fixed block size `K` (owns the interleaver and scratch).
#[derive(Clone, Debug)]
pub struct TurboDecoder {
    qpp: Qpp,
}

/// Reusable scratch for [`TurboDecoder::decode_with`].
///
/// Holds every intermediate buffer a decode needs — the flattened α/β
/// metric rows, interleaved systematic copy, extrinsic exchanges, posteriors
/// and hard decisions. Buffers grow to the largest block size seen and are
/// then reused, so steady-state decoding performs no heap allocation even
/// when consecutive code blocks have different sizes.
#[derive(Clone, Debug, Default)]
pub struct TurboWorkspace {
    alpha: Vec<f32>,
    sys2: Vec<f32>,
    le21: Vec<f32>,
    le12: Vec<f32>,
    a2: Vec<f32>,
    le21_il: Vec<f32>,
    l1: Vec<f32>,
    l2: Vec<f32>,
    l2_nat: Vec<f32>,
    /// Hard-decision bits from the most recent decode (length `K`).
    pub bits: Vec<u8>,
}

fn reserve_to<T>(v: &mut Vec<T>, n: usize) {
    v.reserve(n.saturating_sub(v.len()));
}

impl TurboWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-grows every buffer for block size `k`, so a subsequent decode of
    /// any block size `≤ k` allocates nothing.
    pub fn warm(&mut self, k: usize) {
        reserve_to(&mut self.alpha, (k + 1) * NUM_STATES);
        for v in [
            &mut self.sys2,
            &mut self.le21,
            &mut self.le12,
            &mut self.a2,
            &mut self.le21_il,
            &mut self.l1,
            &mut self.l2,
            &mut self.l2_nat,
        ] {
            reserve_to(v, k);
        }
        reserve_to(&mut self.bits, k);
    }
}

/// Half branch metric for bit hypothesis `u` given LLR `l`
/// (`L = ln P(0)/P(1)`; hypothesis 0 earns `+l/2`, hypothesis 1 `-l/2`).
#[inline]
fn half_metric(u: u8, l: f32) -> f32 {
    if u == 0 {
        0.5 * l
    } else {
        -0.5 * l
    }
}

/// Per-transition permutation/sign tables derived from [`TRELLIS`] at
/// compile time — the "gather masks" of the lane-form recursions.
///
/// The LTE trellis is a *permutation* per input bit (each state has exactly
/// one predecessor under `u = 0` and one under `u = 1`), so both recursions
/// become 8-lane shuffles:
///
/// * forward: `α'[ns] = max_u( α[prev[u][ns]] + γ_u(prev[u][ns]) )`,
/// * backward: `β'[s] = max_u( γ_u(s) + β[next[u][s]] )`,
///
/// with the branch metric in sign-vector form
/// `γ_u(s) = ±hu + sign[u][s]·hp` (`+hu` for `u = 0`, `−hu` for `u = 1`;
/// the sign is `+1` when the transition's parity bit is 0, else `−1`).
struct LaneTables {
    /// `prev[u][ns]` — the unique state `s` with `next[s][u] == ns`.
    prev: [[usize; NUM_STATES]; 2],
    /// Parity sign of the transition `prev[u][ns] → ns` (gathered order).
    sign_prev: [[f32; NUM_STATES]; 2],
    /// `next[u][s]` — successor state ([`TRELLIS::next`] transposed).
    next: [[usize; NUM_STATES]; 2],
    /// Parity sign of the transition `s → next[u][s]` (source order).
    sign_next: [[f32; NUM_STATES]; 2],
}

const fn build_lane_tables() -> LaneTables {
    let mut prev = [[0usize; NUM_STATES]; 2];
    let mut sign_prev = [[0.0f32; NUM_STATES]; 2];
    let mut next = [[0usize; NUM_STATES]; 2];
    let mut sign_next = [[0.0f32; NUM_STATES]; 2];
    let mut u = 0;
    while u < 2 {
        let mut s = 0;
        while s < NUM_STATES {
            let ns = TRELLIS.next[s][u] as usize;
            let sign = if TRELLIS.parity[s][u] == 0 { 1.0 } else { -1.0 };
            next[u][s] = ns;
            sign_next[u][s] = sign;
            prev[u][ns] = s;
            sign_prev[u][ns] = sign;
            s += 1;
        }
        u += 1;
    }
    LaneTables {
        prev,
        sign_prev,
        next,
        sign_next,
    }
}

/// The lane tables for the LTE trellis (compile-time constant, so the
/// scalar tier's gathers compile to shuffles too).
const LANES: LaneTables = build_lane_tables();

/// Horizontal max over 8 lanes with the fixed pairwise reduction tree the
/// AVX2 tier uses (`max` is order-independent for the finite, non-NaN
/// metrics here; the fixed tree keeps the two tiers literally identical).
#[inline]
fn hmax8(v: [f32; 8]) -> f32 {
    let a = [
        v[0].max(v[4]),
        v[1].max(v[5]),
        v[2].max(v[6]),
        v[3].max(v[7]),
    ];
    let b = [a[0].max(a[2]), a[1].max(a[3])];
    b[0].max(b[1])
}

/// Tail metric propagation: beta from the known zero end state back through
/// the three termination steps, yielding beta at step `K`. Each state has
/// exactly one termination branch per step, so this is scalar and tiny.
fn tail_betas(sys_tail: &[f32; TAIL_STEPS], par_tail: &[f32; TAIL_STEPS]) -> [f32; NUM_STATES] {
    let mut beta_end = [NEG_INF; NUM_STATES];
    beta_end[0] = 0.0;
    for t in (0..TAIL_STEPS).rev() {
        let mut prev = [NEG_INF; NUM_STATES];
        for s in 0..NUM_STATES {
            let u = TRELLIS.term_input[s];
            let p = TRELLIS.parity[s][u as usize];
            let ns = TRELLIS.next[s][u as usize] as usize;
            let g = half_metric(u, sys_tail[t]) + half_metric(p, par_tail[t]);
            prev[s] = g + beta_end[ns];
        }
        beta_end = prev;
    }
    beta_end
}

/// One constituent max-log-MAP pass (runtime-dispatched).
///
/// * `sys`, `par`, `apriori` — length-`K` LLRs,
/// * `sys_tail`, `par_tail` — termination LLRs,
/// * `out` — length-`K` posterior LLRs,
/// * `alpha` — caller-owned metric storage, grown to `(K+1)·NUM_STATES`
///   (flattened rows; reused across calls).
///
/// Every tier runs [`map_schedule`] over its own [`Row`] form with the
/// identical lane-form operations (add, multiply by ±1, `max`), so the
/// AVX2 tier is bit-exact vs the scalar tier — and both match the
/// historical per-state/per-input scalar loop: unreachable-state skips
/// are replaced by unconditional arithmetic on `NEG_INF`, which absorbs
/// any finite branch metric (`−10³⁰ + γ` rounds back to `−10³⁰` for
/// `|γ| ≪ ulp(10³⁰)/2 ≈ 3.7·10²²`), so dead lanes never win a `max`.
// The argument list mirrors the historical scalar signature plus the tier;
// bundling it into a struct would obscure the BCJR call sites.
#[allow(clippy::too_many_arguments)]
fn map_decode(
    sys: &[f32],
    sys_tail: &[f32; TAIL_STEPS],
    par: &[f32],
    par_tail: &[f32; TAIL_STEPS],
    apriori: &[f32],
    out: &mut [f32],
    alpha: &mut Vec<f32>,
    tier: SimdTier,
) {
    #[cfg(target_arch = "x86_64")]
    if tier >= SimdTier::Avx2 {
        // SAFETY: the Avx2 tier is only ever reported by `crate::simd`
        // after `is_x86_feature_detected!("avx2")` succeeded.
        #[allow(unsafe_code)]
        unsafe {
            avx2::map_decode(sys, sys_tail, par, par_tail, apriori, out, alpha)
        };
        return;
    }
    let _ = tier;
    map_schedule::<[f32; NUM_STATES]>(sys, sys_tail, par, par_tail, apriori, out, alpha);
}

/// One row of the 8 state metrics, the unit [`map_schedule`] is written
/// in: `[f32; 8]` in the lane form (compile-time gathers that LLVM turns
/// into shuffles on any vector ISA), one `__m256` in the AVX2 tier. Each
/// method performs the same IEEE operations in the same order in both.
/// `g = (hu, hp)` is a step's half branch metrics.
trait Row: Copy {
    fn load(row: &[f32; NUM_STATES]) -> Self;
    fn store(self, row: &mut [f32; NUM_STATES]);
    /// Forward step: `α'[ns] = max_u(α[prev[u][ns]] + γ_u(prev[u][ns]))`.
    fn alpha_step(self, g: (f32, f32)) -> Self;
    /// `(gb0, gb1)` with `gb_u[s] = γ_u(s) + β[next[u][s]]`; their lane
    /// max is the previous β row.
    fn gamma_beta(self, g: (f32, f32)) -> (Self, Self);
    fn max(self, other: Self) -> Self;
    /// Posterior LLR at this α row: `hmax8(α + gb0) − hmax8(α + gb1)`.
    fn llr(self, gb0: Self, gb1: Self) -> f32;
}

impl Row for [f32; NUM_STATES] {
    #[inline(always)]
    fn load(row: &[f32; NUM_STATES]) -> Self {
        *row
    }
    #[inline(always)]
    fn store(self, row: &mut [f32; NUM_STATES]) {
        *row = self;
    }
    #[inline(always)]
    fn alpha_step(self, (hu, hp): (f32, f32)) -> Self {
        std::array::from_fn(|ns| {
            let c0 = self[LANES.prev[0][ns]] + (hu + LANES.sign_prev[0][ns] * hp);
            let c1 = self[LANES.prev[1][ns]] + (LANES.sign_prev[1][ns] * hp - hu);
            c0.max(c1)
        })
    }
    #[inline(always)]
    fn gamma_beta(self, (hu, hp): (f32, f32)) -> (Self, Self) {
        (
            std::array::from_fn(|s| (hu + LANES.sign_next[0][s] * hp) + self[LANES.next[0][s]]),
            std::array::from_fn(|s| (LANES.sign_next[1][s] * hp - hu) + self[LANES.next[1][s]]),
        )
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        std::array::from_fn(|s| self[s].max(other[s]))
    }
    #[inline(always)]
    fn llr(self, gb0: Self, gb1: Self) -> f32 {
        hmax8(std::array::from_fn(|s| self[s] + gb0[s]))
            - hmax8(std::array::from_fn(|s| self[s] + gb1[s]))
    }
}

/// One constituent MAP pass ([`map_decode`]'s arguments) on the
/// two-ended schedule, written once over [`Row`]:
///
/// 1. The α recursion runs up from step 0 and the β recursion down from
///    step `K` in one loop — two independent dependency chains — until
///    they meet at `h = K/2`, storing α rows `0..h` and β rows `h+1..=K`
///    in the one `(K+1)`-row buffer.
/// 2. Both go on outward: the forward sweep emits LLRs `h..K` from the
///    stored β rows, the backward sweep LLRs `0..h` from the stored α rows.
///
/// Every α, β and LLR comes from the same inputs through the same
/// operations as in a forward-then-backward pass, so the output is
/// bit-identical to one, with half the serial latency.
#[inline(always)]
fn map_schedule<R: Row>(
    sys: &[f32],
    sys_tail: &[f32; TAIL_STEPS],
    par: &[f32],
    par_tail: &[f32; TAIL_STEPS],
    apriori: &[f32],
    out: &mut [f32],
    alpha: &mut Vec<f32>,
) {
    let k = sys.len();
    debug_assert!(par.len() == k && apriori.len() == k && out.len() == k);
    // Grow-only: every row is written before it is read.
    if alpha.len() < (k + 1) * NUM_STATES {
        alpha.resize((k + 1) * NUM_STATES, 0.0);
    }
    let rows = alpha.as_chunks_mut::<NUM_STATES>().0;
    let g = |i: usize| (0.5 * (sys[i] + apriori[i]), 0.5 * par[i]);
    let h = k / 2;
    // α row 0: the trellis starts in state 0.
    let mut a = R::load(&std::array::from_fn(|s| if s == 0 { 0.0 } else { NEG_INF }));
    let mut b = R::load(&tail_betas(sys_tail, par_tail));
    // With odd K the last iteration of each phase has no α/backward half.
    for t in 0..k - h {
        let i = k - 1 - t;
        b.store(&mut rows[i + 1]);
        let (gb0, gb1) = b.gamma_beta(g(i));
        b = gb0.max(gb1);
        if t < h {
            a.store(&mut rows[t]);
            a = a.alpha_step(g(t));
        }
    }
    for t in 0..k - h {
        let i = h + t;
        let (gb0, gb1) = R::load(&rows[i + 1]).gamma_beta(g(i));
        out[i] = a.llr(gb0, gb1);
        a = a.alpha_step(g(i));
        if t < h {
            let j = h - 1 - t;
            let (gb0, gb1) = b.gamma_beta(g(j));
            out[j] = R::load(&rows[j]).llr(gb0, gb1);
            b = gb0.max(gb1);
        }
    }
}

/// Explicit AVX2 tier: [`map_schedule`] over one `__m256` per row, the
/// trellis permutations as `vpermps` and a paired LLR reduction that
/// shares shuffles between `best0` and `best1`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #![allow(unsafe_code)]

    use super::{map_schedule, Row, LANES, NUM_STATES, TAIL_STEPS};
    use core::arch::x86_64::*;

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn map_decode(
        sys: &[f32],
        sys_tail: &[f32; TAIL_STEPS],
        par: &[f32],
        par_tail: &[f32; TAIL_STEPS],
        apriori: &[f32],
        out: &mut [f32],
        alpha: &mut Vec<f32>,
    ) {
        map_schedule::<V>(sys, sys_tail, par, par_tail, apriori, out, alpha);
    }

    /// One row's 8 state metrics. Only built inside the `avx2`-gated
    /// [`map_decode`].
    #[derive(Clone, Copy)]
    struct V(__m256);

    /// A lane-table permutation as a `vpermps` index.
    #[inline(always)]
    fn idx(p: &[usize; NUM_STATES]) -> __m256i {
        let p: [i32; NUM_STATES] = std::array::from_fn(|s| p[s] as i32);
        // SAFETY: `p` holds 8 `i32`s; AVX2 per `V`.
        unsafe { _mm256_loadu_si256(p.as_ptr().cast()) }
    }

    impl Row for V {
        #[inline(always)]
        fn load(row: &[f32; NUM_STATES]) -> V {
            // SAFETY: `row` holds 8 floats; AVX2 per `V`.
            V(unsafe { _mm256_loadu_ps(row.as_ptr()) })
        }
        #[inline(always)]
        fn store(self, row: &mut [f32; NUM_STATES]) {
            // SAFETY: `row` holds 8 floats; AVX2 per `V`.
            unsafe { _mm256_storeu_ps(row.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn alpha_step(self, (hu, hp): (f32, f32)) -> V {
            // SAFETY: register-only; see `V`.
            unsafe {
                let (hu, hp) = (_mm256_set1_ps(hu), _mm256_set1_ps(hp));
                let g0 = _mm256_add_ps(hu, _mm256_mul_ps(V::load(&LANES.sign_prev[0]).0, hp));
                let g1 = _mm256_sub_ps(_mm256_mul_ps(V::load(&LANES.sign_prev[1]).0, hp), hu);
                let a0 = _mm256_permutevar8x32_ps(self.0, idx(&LANES.prev[0]));
                let a1 = _mm256_permutevar8x32_ps(self.0, idx(&LANES.prev[1]));
                V(_mm256_max_ps(_mm256_add_ps(a0, g0), _mm256_add_ps(a1, g1)))
            }
        }
        #[inline(always)]
        fn gamma_beta(self, (hu, hp): (f32, f32)) -> (V, V) {
            let s0 = V::load(&LANES.sign_next[0]).0;
            let s1 = V::load(&LANES.sign_next[1]).0;
            // SAFETY: register-only; see `V`.
            unsafe {
                let (hu, hp) = (_mm256_set1_ps(hu), _mm256_set1_ps(hp));
                let b0 = _mm256_permutevar8x32_ps(self.0, idx(&LANES.next[0]));
                let b1 = _mm256_permutevar8x32_ps(self.0, idx(&LANES.next[1]));
                (
                    V(_mm256_add_ps(_mm256_add_ps(hu, _mm256_mul_ps(s0, hp)), b0)),
                    V(_mm256_add_ps(_mm256_sub_ps(_mm256_mul_ps(s1, hp), hu), b1)),
                )
            }
        }
        #[inline(always)]
        fn max(self, other: V) -> V {
            // SAFETY: register-only; see `V`.
            V(unsafe { _mm256_max_ps(self.0, other.0) })
        }
        /// Paired horizontal max: after the three shuffle/max rounds,
        /// lane 0 holds hmax(m0) and lane 4 holds hmax(m1), with the exact
        /// reduction tree of `hmax8`.
        #[inline(always)]
        fn llr(self, gb0: V, gb1: V) -> f32 {
            // SAFETY: register-only; see `V`.
            unsafe {
                let m0 = _mm256_add_ps(self.0, gb0.0);
                let m1 = _mm256_add_ps(self.0, gb1.0);
                let lo = _mm256_permute2f128_ps(m0, m1, 0x20);
                let hi = _mm256_permute2f128_ps(m0, m1, 0x31);
                let a = _mm256_max_ps(lo, hi);
                let b = _mm256_max_ps(a, _mm256_shuffle_ps(a, a, 0b0100_1110));
                let c = _mm256_max_ps(b, _mm256_shuffle_ps(b, b, 0b1011_0001));
                _mm_cvtss_f32(_mm256_castps256_ps128(c))
                    - _mm_cvtss_f32(_mm256_extractf128_ps(c, 1))
            }
        }
    }
}

impl TurboDecoder {
    /// Creates a decoder for block size `k`.
    pub fn new(k: usize) -> Self {
        TurboDecoder { qpp: Qpp::new(k) }
    }

    /// Creates a decoder reusing an existing interleaver.
    pub fn with_qpp(qpp: Qpp) -> Self {
        TurboDecoder { qpp }
    }

    /// The block size `K`.
    pub fn k(&self) -> usize {
        self.qpp.len()
    }

    /// Decodes soft LLRs for the three streams (`d0`, `d1`, `d2`, each of
    /// length `K + 4` as produced by de-rate-matching), running at most
    /// `max_iters` iterations and stopping early as soon as `early_stop`
    /// accepts the hard-decision bits.
    ///
    /// # Panics
    /// Panics if any stream length differs from `K + 4` or `max_iters == 0`.
    pub fn decode(
        &self,
        d0: &[f32],
        d1: &[f32],
        d2: &[f32],
        max_iters: usize,
        early_stop: impl Fn(&[u8]) -> bool,
    ) -> TurboDecodeResult {
        let mut ws = TurboWorkspace::new();
        let (iterations, converged) = self.decode_with(d0, d1, d2, max_iters, early_stop, &mut ws);
        TurboDecodeResult {
            bits: ws.bits,
            iterations,
            converged,
        }
    }

    /// [`TurboDecoder::decode`] with caller-owned scratch: all intermediate
    /// buffers live in `ws` and are reused across calls, so a warmed
    /// workspace makes steady-state decoding allocation-free. Hard-decision
    /// bits are left in `ws.bits`; returns `(iterations, converged)`.
    /// Produces values identical to [`TurboDecoder::decode`].
    ///
    /// # Panics
    /// Panics if any stream length differs from `K + 4` or `max_iters == 0`.
    pub fn decode_with(
        &self,
        d0: &[f32],
        d1: &[f32],
        d2: &[f32],
        max_iters: usize,
        early_stop: impl Fn(&[u8]) -> bool,
        ws: &mut TurboWorkspace,
    ) -> (usize, bool) {
        let k = self.k();
        // analyze: allow(panic): decoder config contract; zero iterations can only come from a miscomputed MCS table
        assert!(max_iters > 0, "max_iters must be positive");
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(d0.len(), k + 4, "d0 length");
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(d1.len(), k + 4, "d1 length");
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(d2.len(), k + 4, "d2 length");

        let sys = &d0[..k];
        let par1 = &d1[..k];
        let par2 = &d2[..k];
        // Tail demultiplexing — mirrors TurboEncoder::encode.
        let xt1 = [d0[k], d0[k + 1], d0[k + 2]];
        let zt1 = [d1[k], d1[k + 1], d1[k + 2]];
        let xt2 = [d0[k + 3], d1[k + 3], d2[k + 3]];
        let zt2 = [d2[k], d2[k + 1], d2[k + 2]];

        let TurboWorkspace {
            alpha,
            sys2,
            le21, // extrinsic DEC2 → DEC1
            le12,
            a2,
            le21_il,
            l1,
            l2,
            l2_nat,
            bits,
        } = ws;

        // Resolve the SIMD tier once per decode, not per constituent pass.
        let tier = simd::active_tier();

        self.qpp.interleave_into(sys, sys2);
        le21.clear();
        le21.resize(k, 0.0);
        l1.clear();
        l1.resize(k, 0.0);
        l2.clear();
        l2.resize(k, 0.0);
        bits.clear();
        bits.resize(k, 0);

        for it in 1..=max_iters {
            // DEC1 on natural order.
            map_decode(sys, &xt1, par1, &zt1, le21, l1, alpha, tier);
            le12.clear();
            le12.extend((0..k).map(|i| clamp_scale(l1[i] - sys[i] - le21[i])));

            // DEC2 on interleaved order.
            self.qpp.interleave_into(le12, a2);
            map_decode(sys2, &xt2, par2, &zt2, a2, l2, alpha, tier);
            le21_il.clear();
            le21_il.extend((0..k).map(|i| clamp_scale(l2[i] - sys2[i] - a2[i])));
            self.qpp.deinterleave_into(le21_il, le21);

            // Hard decision from DEC2's posteriors, in natural order.
            self.qpp.deinterleave_into(l2, l2_nat);
            for (b, &l) in bits.iter_mut().zip(l2_nat.iter()) {
                *b = (l < 0.0) as u8;
            }
            if early_stop(bits) {
                return (it, true);
            }
        }
        (max_iters, false)
    }
}

#[inline]
fn clamp_scale(l: f32) -> f32 {
    (l * EXTRINSIC_SCALE).clamp(-EXTRINSIC_CLAMP, EXTRINSIC_CLAMP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::CRC24B;
    use crate::turbo::TurboEncoder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..2u8)).collect()
    }

    /// BPSK-modulates a bit stream and adds AWGN at the given Es/N0 (dB),
    /// returning channel LLRs in the `ln P(0)/P(1)` convention.
    fn channel_llrs(bits: &[u8], snr_db: f32, rng: &mut StdRng) -> Vec<f32> {
        let sigma = (10f32.powf(-snr_db / 10.0) / 2.0).sqrt();
        bits.iter()
            .map(|&b| {
                let s = 1.0 - 2.0 * b as f32;
                let g: f32 = {
                    // Box-Muller.
                    let u1: f32 = rng.gen_range(1e-9..1.0);
                    let u2: f32 = rng.gen_range(0.0..1.0);
                    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
                };
                let y = s + sigma * g;
                2.0 * y / (sigma * sigma)
            })
            .collect()
    }

    fn run_once(
        k: usize,
        snr_db: f32,
        seed: u64,
        max_iters: usize,
    ) -> (bool, usize, Vec<u8>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = bits(k - 24, seed);
        CRC24B.attach(&mut data);
        assert_eq!(data.len(), k);
        let enc = TurboEncoder::new(k);
        let cw = enc.encode(&data);
        let d0 = channel_llrs(&cw.d0, snr_db, &mut rng);
        let d1 = channel_llrs(&cw.d1, snr_db, &mut rng);
        let d2 = channel_llrs(&cw.d2, snr_db, &mut rng);
        let dec = TurboDecoder::with_qpp(enc.qpp().clone());
        let res = dec.decode(&d0, &d1, &d2, max_iters, |b| CRC24B.check(b));
        (res.converged, res.iterations, res.bits, data)
    }

    #[test]
    fn decodes_clean_channel_in_one_iteration() {
        let (ok, iters, out, data) = run_once(104, 20.0, 42, 4);
        assert!(ok);
        assert_eq!(iters, 1);
        assert_eq!(out, data);
    }

    #[test]
    fn decodes_moderate_noise() {
        // Es/N0 = 0 dB ≙ Eb/N0 ≈ 4.8 dB at rate 1/3 — comfortable for turbo.
        let mut converged = 0;
        for seed in 0..10 {
            let (ok, _, out, data) = run_once(512, 0.0, seed, 6);
            if ok {
                assert_eq!(out, data);
                converged += 1;
            }
        }
        assert!(converged >= 9, "only {converged}/10 converged");
    }

    #[test]
    fn iteration_count_increases_with_noise() {
        let mut iters_clean = 0usize;
        let mut iters_noisy = 0usize;
        let trials = 8;
        for seed in 0..trials {
            iters_clean += run_once(512, 6.0, seed, 8).1;
            // Es/N0 = −3 dB ⇒ Eb/N0 ≈ 1.8 dB at rate 1/3: near the
            // waterfall, where extra iterations are actually needed.
            iters_noisy += run_once(512, -3.0, seed, 8).1;
        }
        assert!(
            iters_noisy > iters_clean,
            "noisy {iters_noisy} vs clean {iters_clean}"
        );
    }

    #[test]
    fn hopeless_channel_hits_iteration_cap() {
        let (ok, iters, _, _) = run_once(256, -12.0, 5, 4);
        assert!(!ok);
        assert_eq!(iters, 4);
    }

    #[test]
    fn early_stop_predicate_controls_latency() {
        // With a predicate that never accepts, all iterations run.
        let k = 104;
        let data = bits(k, 3);
        let enc = TurboEncoder::new(k);
        let cw = enc.encode(&data);
        let to_llr =
            |v: &[u8]| -> Vec<f32> { v.iter().map(|&b| 8.0 * (1.0 - 2.0 * b as f32)).collect() };
        let dec = TurboDecoder::with_qpp(enc.qpp().clone());
        let res = dec.decode(&to_llr(&cw.d0), &to_llr(&cw.d1), &to_llr(&cw.d2), 5, |_| {
            false
        });
        assert_eq!(res.iterations, 5);
        assert!(!res.converged);
        assert_eq!(res.bits, data, "bits still correct on a clean channel");
    }

    #[test]
    fn large_block_clean_roundtrip() {
        let (ok, iters, out, data) = run_once(6144, 10.0, 9, 4);
        assert!(ok);
        assert_eq!(iters, 1);
        assert_eq!(out, data);
    }

    #[test]
    fn map_decode_prefers_strong_systematic() {
        // Strongly biased systematic LLRs dominate a weak parity signal.
        let k = 40;
        let data = vec![0u8; k];
        let enc = TurboEncoder::new(k);
        let cw = enc.encode(&data);
        let d0: Vec<f32> = cw.d0.iter().map(|_| 10.0).collect(); // all say "0"
        let d1: Vec<f32> = cw.d1.iter().map(|_| 0.1).collect();
        let d2: Vec<f32> = cw.d2.iter().map(|_| 0.1).collect();
        let dec = TurboDecoder::with_qpp(enc.qpp().clone());
        let res = dec.decode(&d0, &d1, &d2, 2, |b| b.iter().all(|&x| x == 0));
        assert!(res.converged);
    }

    #[test]
    #[should_panic(expected = "max_iters")]
    fn zero_iters_panics() {
        let dec = TurboDecoder::new(40);
        dec.decode(&[0.0; 44], &[0.0; 44], &[0.0; 44], 0, |_| true);
    }

    /// The pre-vectorization per-state/per-input scalar MAP pass, kept
    /// verbatim as the reference the lane-form tiers are verified against.
    fn map_decode_reference(
        sys: &[f32],
        sys_tail: &[f32; TAIL_STEPS],
        par: &[f32],
        par_tail: &[f32; TAIL_STEPS],
        apriori: &[f32],
        out: &mut [f32],
        alpha: &mut Vec<f32>,
    ) {
        let k = sys.len();
        alpha.clear();
        alpha.resize((k + 1) * NUM_STATES, NEG_INF);
        alpha[0] = 0.0;
        for i in 0..k {
            let hu = 0.5 * (sys[i] + apriori[i]);
            let hp = 0.5 * par[i];
            let g = [[hu + hp, hu - hp], [hp - hu, -hu - hp]];
            let (cur, nxt) = alpha[i * NUM_STATES..(i + 2) * NUM_STATES].split_at_mut(NUM_STATES);
            for s in 0..NUM_STATES {
                let a = cur[s];
                if a <= NEG_INF {
                    continue;
                }
                for u in 0..2usize {
                    let p = TRELLIS.parity[s][u] as usize;
                    let ns = TRELLIS.next[s][u] as usize;
                    nxt[ns] = nxt[ns].max(a + g[u][p]);
                }
            }
        }
        let mut beta = tail_betas(sys_tail, par_tail);
        for i in (0..k).rev() {
            let hu = 0.5 * (sys[i] + apriori[i]);
            let hp = 0.5 * par[i];
            let g = [[hu + hp, hu - hp], [hp - hu, -hu - hp]];
            let mut best0 = NEG_INF;
            let mut best1 = NEG_INF;
            let mut new_beta = [NEG_INF; NUM_STATES];
            let arow = &alpha[i * NUM_STATES..(i + 1) * NUM_STATES];
            for s in 0..NUM_STATES {
                let a = arow[s];
                for u in 0..2usize {
                    let p = TRELLIS.parity[s][u] as usize;
                    let ns = TRELLIS.next[s][u] as usize;
                    let b = beta[ns];
                    let gb = g[u][p] + b;
                    new_beta[s] = new_beta[s].max(gb);
                    if a <= NEG_INF || b <= NEG_INF {
                        continue;
                    }
                    let m = a + gb;
                    if u == 0 {
                        best0 = best0.max(m);
                    } else {
                        best1 = best1.max(m);
                    }
                }
            }
            out[i] = best0 - best1;
            beta = new_beta;
        }
    }

    fn random_llrs(n: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-20.0f32..20.0)).collect()
    }

    /// One random MAP-pass input set plus its reference output.
    #[allow(clippy::type_complexity)]
    fn map_case(
        k: usize,
        seed: u64,
    ) -> (Vec<f32>, [f32; 3], Vec<f32>, [f32; 3], Vec<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sys = random_llrs(k, &mut rng);
        let par = random_llrs(k, &mut rng);
        let apriori = random_llrs(k, &mut rng);
        let st: [f32; 3] = std::array::from_fn(|_| rng.gen_range(-20.0f32..20.0));
        let pt: [f32; 3] = std::array::from_fn(|_| rng.gen_range(-20.0f32..20.0));
        let mut expect = vec![0.0f32; k];
        let mut alpha = Vec::new();
        map_decode_reference(&sys, &st, &par, &pt, &apriori, &mut expect, &mut alpha);
        (sys, st, par, pt, apriori, expect)
    }

    /// `f32` bit patterns, so `±0.0` and NaN payloads compare exactly.
    fn bits_of(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `(K, seed)` of the MAP-pass bit-exactness checks: K = 1, 2, 3 (the
    /// schedule's first phase empty or one step long), odd K (the last
    /// step of each phase one-sided) and LTE sizes up to the largest.
    const MAP_SIZES: [(usize, u64); 10] = [
        (1, 1),
        (2, 2),
        (3, 3),
        (40, 4),
        (41, 5),
        (104, 6),
        (105, 7),
        (512, 8),
        (2048, 9),
        (6144, 10),
    ];

    /// A metric buffer whose every row is NaN, larger than any case: a
    /// row read before the schedule wrote it would show in the output.
    fn poisoned_alpha() -> Vec<f32> {
        vec![f32::NAN; 2 * 6145 * NUM_STATES]
    }

    #[test]
    fn lane_form_is_bit_exact_vs_reference() {
        let mut alpha = poisoned_alpha();
        for (k, seed) in MAP_SIZES {
            let (sys, st, par, pt, apriori, expect) = map_case(k, seed);
            let mut got = vec![0.0f32; k];
            map_decode(
                &sys,
                &st,
                &par,
                &pt,
                &apriori,
                &mut got,
                &mut alpha,
                SimdTier::Scalar,
            );
            assert_eq!(bits_of(&got), bits_of(&expect), "k={k} seed={seed}");
        }
    }

    #[test]
    fn intrinsic_tiers_are_bit_exact_vs_lane_form() {
        for tier in simd::supported_tiers().filter(|&t| t != SimdTier::Scalar) {
            let mut alpha = poisoned_alpha();
            for (k, seed) in MAP_SIZES {
                let (sys, st, par, pt, apriori, _) = map_case(k, seed);
                let mut lanes = vec![0.0f32; k];
                let mut intr = vec![0.0f32; k];
                map_decode(
                    &sys,
                    &st,
                    &par,
                    &pt,
                    &apriori,
                    &mut lanes,
                    &mut alpha,
                    SimdTier::Scalar,
                );
                map_decode(&sys, &st, &par, &pt, &apriori, &mut intr, &mut alpha, tier);
                assert_eq!(
                    bits_of(&intr),
                    bits_of(&lanes),
                    "k={k} seed={seed} tier={}",
                    tier.name()
                );
            }
        }
    }
}
