//! Gold-sequence scrambling (3GPP TS 36.211 §7.2).
//!
//! LTE scrambles the rate-matched bit stream with a length-31 Gold sequence
//! seeded from the cell/UE identity and subframe number. The descrambler
//! operates on LLRs by sign-flipping, so it sits in the paper's *decode*
//! task together with the rate dematcher and turbo decoder — fused into the
//! de-rate-matching walk ([`crate::ratematch::RateMatcher::de_rate_match_into`]).

/// Offset `Nc` discarded from the head of the Gold sequence.
const NC: usize = 1600;

/// A pseudo-random scrambling sequence generator.
#[derive(Clone, Debug)]
pub struct Scrambler {
    /// The sequence as f32 sign masks: `c(n) << 31`.
    masks: Vec<u32>,
}

/// Builds the standard `c_init` for PUSCH: `n_rnti·2¹⁴ + ns·2⁹ + cell_id`
/// (simplified to the fields that matter for sequence diversity here).
pub fn pusch_c_init(n_rnti: u16, subframe: u8, cell_id: u16) -> u32 {
    (n_rnti as u32) << 14 | ((2 * subframe as u32) & 0x1F) << 9 | (cell_id as u32 & 0x1FF)
}

impl Scrambler {
    /// Generates `len` bits of the Gold sequence for seed `c_init`.
    pub fn new(c_init: u32, len: usize) -> Self {
        // x1: fixed init 000...001; feedback x1(n+31) = x1(n+3) ⊕ x1(n).
        // x2: init = c_init;       feedback x2(n+31) = x2(n+3) ⊕ x2(n+2) ⊕ x2(n+1) ⊕ x2(n).
        let total = NC + len;
        let mut x1 = vec![0u8; total + 31];
        let mut x2 = vec![0u8; total + 31];
        x1[0] = 1;
        for i in 0..31 {
            x2[i] = ((c_init >> i) & 1) as u8;
        }
        for n in 0..total {
            x1[n + 31] = x1[n + 3] ^ x1[n];
            x2[n + 31] = x2[n + 3] ^ x2[n + 2] ^ x2[n + 1] ^ x2[n];
        }
        let masks = (0..len)
            .map(|n| u32::from(x1[n + NC] ^ x2[n + NC]) << 31)
            .collect();
        Scrambler { masks }
    }

    /// Sequence length.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// True if the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// The sequence as f32 sign-bit masks (`c(n) << 31`): descrambling an
    /// LLR is `f32::from_bits(l.to_bits() ^ mask)`, which is `−l` where
    /// the sequence bit is 1 (`L(b⊕1) = −L(b)`) for every value, ±0.0
    /// included, without a branch.
    pub fn masks(&self) -> &[u32] {
        &self.masks
    }

    /// Scrambles a bit slice in place (`b ⊕ c`).
    ///
    /// # Panics
    /// Panics if `bits` is longer than the generated sequence.
    pub fn scramble_bits(&self, bits: &mut [u8]) {
        assert!(bits.len() <= self.masks.len(), "sequence too short");
        for (b, &m) in bits.iter_mut().zip(&self.masks) {
            *b ^= (m >> 31) as u8;
        }
    }
}

#[cfg(test)]
impl Scrambler {
    /// The sequence bits.
    fn bits(&self) -> Vec<u8> {
        self.masks.iter().map(|&m| (m >> 31) as u8).collect()
    }

    /// The branchy LLR descrambler the decode path used before the sign
    /// masks were fused into de-rate-matching, kept as the oracle: flips
    /// the sign where the sequence bit (from `offset`) is 1.
    pub(crate) fn descramble_llrs_at(&self, offset: usize, llrs: &mut [f32]) {
        for (l, c) in llrs.iter_mut().zip(self.bits().into_iter().skip(offset)) {
            if c == 1 {
                *l = -*l;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scramble_twice_is_identity() {
        let s = Scrambler::new(0x1234, 1000);
        let orig: Vec<u8> = (0..1000).map(|i| (i % 2) as u8).collect();
        let mut b = orig.clone();
        s.scramble_bits(&mut b);
        assert_ne!(b, orig, "scrambling must change the stream");
        s.scramble_bits(&mut b);
        assert_eq!(b, orig);
    }

    #[test]
    fn sequence_is_balanced() {
        // Gold sequences are nearly balanced: ~50% ones.
        let s = Scrambler::new(0xBEEF, 100_000);
        let ones: usize = s.bits().iter().map(|&b| b as usize).sum();
        let frac = ones as f64 / 100_000.0;
        assert!((frac - 0.5).abs() < 0.01, "ones fraction {frac}");
    }

    #[test]
    fn different_seeds_give_different_sequences() {
        let a = Scrambler::new(1, 512);
        let b = Scrambler::new(2, 512);
        let agree = a
            .bits()
            .iter()
            .zip(b.bits())
            .filter(|(x, y)| **x == *y)
            .count();
        assert!(agree < 320, "sequences too similar: {agree}/512 agree");
    }

    #[test]
    fn llr_descramble_matches_bit_scramble() {
        let s = Scrambler::new(77, 256);
        let bits: Vec<u8> = (0..256).map(|i| ((i * 5 + 1) % 2) as u8).collect();
        let mut tx = bits.clone();
        s.scramble_bits(&mut tx);
        // Perfect channel: LLR = +4 for 0, −4 for 1 (of the scrambled bit).
        let llrs: Vec<f32> = tx
            .iter()
            .map(|&b| if b == 0 { 4.0 } else { -4.0 })
            .collect();
        let mut branchy = llrs.clone();
        s.descramble_llrs_at(0, &mut branchy);
        for ((l, &m), (o, &b)) in llrs.iter().zip(s.masks()).zip(branchy.iter().zip(&bits)) {
            let masked = f32::from_bits(l.to_bits() ^ m);
            assert_eq!((masked < 0.0) as u8, b);
            assert_eq!(masked.to_bits(), o.to_bits());
        }
    }

    #[test]
    fn sign_mask_equals_negation_for_every_class_of_value() {
        // ±0.0, subnormals, infinities and NaN payloads: the XOR flips the
        // sign bit exactly where `-l` does, and leaves `l` alone elsewhere.
        let values = [
            0.0f32,
            -0.0,
            f32::MIN_POSITIVE / 2.0,
            -1.5,
            64.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7FC0_1234),
        ];
        for &l in &values {
            for (mask, want) in [(1u32 << 31, -l), (0, l)] {
                assert_eq!(f32::from_bits(l.to_bits() ^ mask).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn sliced_descramble_equals_full() {
        let s = Scrambler::new(99, 300);
        let mut full: Vec<f32> = (0..300).map(|i| i as f32 - 150.0).collect();
        let mut sliced = full.clone();
        s.descramble_llrs_at(0, &mut full);
        s.descramble_llrs_at(0, &mut sliced[..100]);
        s.descramble_llrs_at(100, &mut sliced[100..250]);
        s.descramble_llrs_at(250, &mut sliced[250..]);
        assert_eq!(full, sliced);
    }

    #[test]
    fn autocorrelation_is_low() {
        let s = Scrambler::new(0xACE, 4096);
        let b = s.bits();
        for shift in [1usize, 7, 63, 500] {
            let agree = (0..b.len() - shift)
                .filter(|&i| b[i] == b[i + shift])
                .count();
            let frac = agree as f64 / (b.len() - shift) as f64;
            assert!((frac - 0.5).abs() < 0.05, "shift {shift}: {frac}");
        }
    }

    #[test]
    fn c_init_packs_fields() {
        let c = pusch_c_init(0x003D, 5, 101);
        assert_eq!(c >> 14, 0x003D);
        assert_eq!(c & 0x1FF, 101);
    }
}
