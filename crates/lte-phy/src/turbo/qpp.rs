//! Quadratic permutation polynomial (QPP) interleaver.
//!
//! The LTE turbo interleaver permutes a block of `K` bits with
//! `π(i) = (f1·i + f2·i²) mod K`. 3GPP TS 36.212 Table 5.1.3-3 fixes
//! `(f1, f2)` per block size; this reproduction instead **derives** valid
//! coefficients algorithmically (substitution documented in DESIGN.md):
//! by Takeshita's sufficient condition, `π` is a permutation whenever
//! `gcd(f1, K) = 1` and `f2` is divisible by every prime factor of `K`.
//! Each constructed permutation is verified bijective, so the interleaver
//! is correct by construction; only the exact constants differ from the
//! standard (irrelevant without over-the-air interoperability). A few
//! well-known standard pairs are kept as anchors and covered by tests.

/// Known 36.212 coefficient pairs, used when they match the requested size.
const STANDARD_PAIRS: [(usize, u64, u64); 4] =
    [(40, 3, 10), (64, 7, 16), (1024, 31, 64), (6144, 263, 480)];

/// A QPP interleaver for block size `K`.
#[derive(Clone, Debug)]
pub struct Qpp {
    k: usize,
    perm: Vec<u32>,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Product of the distinct prime factors of `n`.
fn radical(mut n: u64) -> u64 {
    let mut rad = 1;
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            rad *= d;
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += 1;
    }
    if n > 1 {
        rad *= n;
    }
    rad
}

/// Evaluates `(f1·i + f2·i²) mod k` without overflow for `k ≤ 2^20`.
fn eval(f1: u64, f2: u64, i: u64, k: u64) -> u64 {
    // Reduce aggressively; k ≤ 6144 in LTE, i < k, so products fit in u64.
    (f1 % k * (i % k) + f2 % k * (i % k) % k * (i % k)) % k
}

/// Checks bijectivity of `π(i) = f1·i + f2·i² (mod k)` directly.
fn is_permutation(f1: u64, f2: u64, k: usize) -> bool {
    let mut seen = vec![false; k];
    for i in 0..k as u64 {
        let p = eval(f1, f2, i, k as u64) as usize;
        if seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

impl Qpp {
    /// Builds the interleaver for block size `k` (`k ≥ 2`).
    ///
    /// # Panics
    /// Panics if `k < 2` — LTE's smallest block is 40 bits, so a tiny `k`
    /// indicates a caller bug, not a runtime condition.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "QPP block size must be at least 2");
        let (f1, f2) = Self::coefficients(k);
        let perm: Vec<u32> = (0..k as u64)
            .map(|i| eval(f1, f2, i, k as u64) as u32)
            .collect();
        Qpp { k, perm }
    }

    /// Finds valid `(f1, f2)` for block size `k`.
    fn coefficients(k: usize) -> (u64, u64) {
        for &(kk, f1, f2) in &STANDARD_PAIRS {
            if kk == k {
                debug_assert!(is_permutation(f1, f2, k));
                return (f1, f2);
            }
        }
        let rad = radical(k as u64);
        // f1: smallest odd integer ≥ 3 coprime to K.
        let mut f1 = 3u64;
        while gcd(f1, k as u64) != 1 {
            f1 += 2;
        }
        // f2: smallest multiple of the radical that yields a permutation.
        let mut t = 1u64;
        loop {
            let f2 = rad * t;
            if is_permutation(f1, f2, k) {
                return (f1, f2);
            }
            t += 1;
            assert!(
                t < 1_000,
                "no QPP coefficients found for K={k} (should be unreachable)"
            );
        }
    }

    /// Block size `K`.
    pub fn len(&self) -> usize {
        self.k
    }

    /// Always false (`K ≥ 2`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `π(i)` — the interleaved position of input index `i`.
    #[inline]
    pub fn map(&self, i: usize) -> usize {
        self.perm[i] as usize
    }

    /// Produces `out[i] = input[π(i)]` — the interleaved sequence as the
    /// second constituent encoder reads it (`c'_i = c_{π(i)}`, 36.212).
    ///
    /// # Panics
    /// Panics if `input.len() != K`.
    pub fn interleave<T: Copy>(&self, input: &[T]) -> Vec<T> {
        let mut out = Vec::new();
        self.interleave_into(input, &mut out);
        out
    }

    /// [`Qpp::interleave`] into a caller-owned vector (cleared and refilled;
    /// no allocation once `out` has capacity `K`).
    ///
    /// # Panics
    /// Panics if `input.len() != K`.
    pub fn interleave_into<T: Copy>(&self, input: &[T], out: &mut Vec<T>) {
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(input.len(), self.k, "interleave length mismatch");
        out.clear();
        out.extend(self.perm.iter().map(|&p| input[p as usize]));
    }

    /// Inverse of [`Qpp::interleave`], `out[π(i)] = input[i]`, into a
    /// caller-owned vector (cleared and refilled; no allocation once `out`
    /// has capacity `K`).
    ///
    /// # Panics
    /// Panics if `input.len() != K`.
    pub fn deinterleave_into<T: Copy + Default>(&self, input: &[T], out: &mut Vec<T>) {
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(input.len(), self.k, "deinterleave length mismatch");
        out.clear();
        out.resize(self.k, T::default());
        for (i, &p) in self.perm.iter().enumerate() {
            out[p as usize] = input[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segmentation::{is_valid_k, next_valid_k, MAX_CODE_BLOCK};
    use proptest::prelude::*;

    #[test]
    fn standard_pairs_are_permutations() {
        for &(k, f1, f2) in &STANDARD_PAIRS {
            assert!(is_permutation(f1, f2, k), "K={k}");
        }
    }

    #[test]
    fn all_lte_block_sizes_construct() {
        // Every valid LTE interleaver size must yield a bijective QPP.
        let mut k = 40;
        while k <= MAX_CODE_BLOCK {
            assert!(is_valid_k(k));
            let q = Qpp::new(k);
            assert_eq!(q.len(), k);
            k = match next_valid_k(k + 1) {
                Some(n) => n,
                None => break,
            };
        }
    }

    #[test]
    fn interleave_deinterleave_roundtrip() {
        let q = Qpp::new(512);
        let data: Vec<u16> = (0..512).map(|i| i as u16).collect();
        let il = q.interleave(&data);
        let mut back = Vec::new();
        q.deinterleave_into(&il, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn interleave_moves_data() {
        // Sanity: the permutation is not the identity for realistic sizes.
        let q = Qpp::new(1024);
        let moved = (0..1024).filter(|&i| q.map(i) != i).count();
        assert!(moved > 1000, "only {moved} indices moved");
    }

    #[test]
    fn f2_divisible_by_radical() {
        for k in [40, 104, 512, 1056, 2048, 6144] {
            let (f1, f2) = Qpp::coefficients(k);
            assert_eq!(gcd(f1, k as u64), 1);
            assert_eq!(f2 % radical(k as u64), 0);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        Qpp::new(40).interleave(&[0u8; 39]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_bijective(k in 2usize..2000) {
            let q = Qpp::new(k);
            let mut seen = vec![false; k];
            for i in 0..k {
                let p = q.map(i);
                prop_assert!(!seen[p]);
                seen[p] = true;
            }
        }
    }
}
