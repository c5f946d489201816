//! Rate matching for turbo-coded transport channels (36.212 §5.1.4.1).
//!
//! Each of the three turbo output streams passes through a 32-column
//! sub-block interleaver; the interleaved systematic stream followed by the
//! bit-interlaced parity streams forms the **circular buffer**, from which
//! exactly `E` bits are read (wrapping, skipping the `<NULL>` padding) for
//! transmission. De-rate-matching reverses the walk, *accumulating* LLRs at
//! repeated positions (chase combining) and leaving punctured positions at
//! LLR 0 (erasure).

use crate::turbo::{stream_len, TurboCodeword};

/// Number of columns of the sub-block interleaver.
const COLS: usize = 32;

/// The inter-column permutation pattern of 36.212 Table 5.1.4-1.
const PERM: [usize; COLS] = [
    0, 16, 8, 24, 4, 20, 12, 28, 2, 18, 10, 26, 6, 22, 14, 30, 1, 17, 9, 25, 5, 21, 13, 29, 3, 19,
    11, 27, 7, 23, 15, 31,
];

/// Identifies one of the three turbo streams inside the circular buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// `<NULL>` padding bit — never transmitted.
    Null,
    /// Bit `idx` of stream `stream`.
    Bit { stream: u8, idx: u32 },
}

/// Rate matcher for turbo codewords of a fixed block size `K`.
#[derive(Clone, Debug)]
pub struct RateMatcher {
    /// Stream length `D = K + 4`.
    d: usize,
    /// Rows of the sub-block interleaver, `R = ⌈D/32⌉`.
    rows: usize,
    /// Map: circular-buffer position → stream slot.
    w_map: Vec<Slot>,
}

impl RateMatcher {
    /// Creates a rate matcher for turbo block size `k`.
    pub fn new(k: usize) -> Self {
        let d = stream_len(k);
        let rows = d.div_ceil(COLS);
        let kpi = rows * COLS;
        let nd = kpi - d; // NULL padding at the head of each stream
        let mut w_map = Vec::with_capacity(3 * kpi);
        // v0: interleaved systematic stream.
        for j in 0..kpi {
            w_map.push(Self::slot(j, rows, nd, 0, 0));
        }
        // Interlaced v1 (parity 1) and v2 (parity 2, extra +1 rotation).
        for j in 0..kpi {
            w_map.push(Self::slot(j, rows, nd, 1, 0));
            w_map.push(Self::slot(j, rows, nd, 2, 1));
        }
        RateMatcher { d, rows, w_map }
    }

    /// Resolves sub-block-interleaver output position `j` of a stream to a
    /// [`Slot`]. `shift` is 1 for the third stream (36.212's `+1` rotation).
    fn slot(j: usize, rows: usize, nd: usize, stream: u8, shift: usize) -> Slot {
        let kpi = rows * COLS;
        let col = j / rows;
        let row = j % rows;
        let y_idx = (row * COLS + PERM[col] + shift) % kpi;
        if y_idx < nd {
            Slot::Null
        } else {
            Slot::Bit {
                stream,
                idx: (y_idx - nd) as u32,
            }
        }
    }

    /// Circular-buffer length `Kw = 3·R·32`.
    pub fn buffer_len(&self) -> usize {
        self.w_map.len()
    }

    /// Redundancy-version-0 start offset `k0 = 2R` (36.212 §5.1.4.1.2:
    /// `R·(2·⌈Ncb/(8R)⌉·rv + 2)` at `rv = 0`). Only rv 0 is transmitted.
    pub fn k0(&self) -> usize {
        2 * self.rows
    }

    /// Selects `e` bits from the codeword's circular buffer.
    ///
    /// # Panics
    /// Panics if the codeword block size differs from this matcher's, or if
    /// `e == 0`.
    pub fn rate_match(&self, cw: &TurboCodeword, e: usize) -> Vec<u8> {
        assert_eq!(cw.d0.len(), self.d, "codeword size mismatch");
        assert!(e > 0, "cannot select zero bits");
        let ncb = self.buffer_len();
        let mut out = Vec::with_capacity(e);
        let mut k = self.k0();
        while out.len() < e {
            if let Slot::Bit { stream, idx } = self.w_map[k] {
                let bit = match stream {
                    0 => cw.d0[idx as usize],
                    1 => cw.d1[idx as usize],
                    _ => cw.d2[idx as usize],
                };
                out.push(bit);
            }
            k = (k + 1) % ncb;
        }
        out
    }

    /// Reverses the selection walk over `llrs` (length `E`) into
    /// caller-owned per-stream vectors `(d0, d1, d2)` (cleared, resized to
    /// `D = K + 4`, refilled; no allocation once they have capacity),
    /// accumulating repeated transmissions. Punctured (never-sent)
    /// positions stay at 0.
    pub fn de_rate_match_into(
        &self,
        llrs: &[f32],
        d0: &mut Vec<f32>,
        d1: &mut Vec<f32>,
        d2: &mut Vec<f32>,
    ) {
        let ncb = self.buffer_len();
        for v in [&mut *d0, &mut *d1, &mut *d2] {
            v.clear();
            v.resize(self.d, 0.0);
        }
        let mut k = self.k0();
        let mut taken = 0usize;
        while taken < llrs.len() {
            if let Slot::Bit { stream, idx } = self.w_map[k] {
                let tgt = match stream {
                    0 => &mut d0[idx as usize],
                    1 => &mut d1[idx as usize],
                    _ => &mut d2[idx as usize],
                };
                *tgt += llrs[taken];
                taken += 1;
            }
            k = (k + 1) % ncb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::turbo::TurboEncoder;
    use proptest::prelude::*;

    fn de_rate_match(rm: &RateMatcher, llrs: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (mut d0, mut d1, mut d2) = (Vec::new(), Vec::new(), Vec::new());
        rm.de_rate_match_into(llrs, &mut d0, &mut d1, &mut d2);
        (d0, d1, d2)
    }

    fn bits(n: usize, seed: u64) -> Vec<u8> {
        (0..n)
            .map(|i| {
                (((i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(seed)
                    >> 40)
                    & 1) as u8
            })
            .collect()
    }

    #[test]
    fn perm_is_a_permutation_of_columns() {
        let mut seen = [false; COLS];
        for &p in &PERM {
            assert!(!seen[p]);
            seen[p] = true;
        }
    }

    #[test]
    fn every_codeword_bit_appears_in_buffer() {
        let rm = RateMatcher::new(40);
        let mut counts = [[0usize; 64]; 3];
        for slot in &rm.w_map {
            if let Slot::Bit { stream, idx } = slot {
                counts[*stream as usize][*idx as usize] += 1;
            }
        }
        for s in 0..3 {
            for i in 0..44 {
                assert_eq!(counts[s][i], 1, "stream {s} bit {i}");
            }
        }
    }

    #[test]
    fn full_buffer_readout_contains_all_bits() {
        let k = 104;
        let enc = TurboEncoder::new(k);
        let cw = enc.encode(&bits(k, 1));
        let rm = RateMatcher::new(k);
        let non_null = rm
            .w_map
            .iter()
            .filter(|s| matches!(s, Slot::Bit { .. }))
            .count();
        assert_eq!(non_null, 3 * (k + 4));
        let out = rm.rate_match(&cw, non_null);
        let ones_in = cw
            .d0
            .iter()
            .chain(&cw.d1)
            .chain(&cw.d2)
            .filter(|&&b| b == 1)
            .count();
        let ones_out = out.iter().filter(|&&b| b == 1).count();
        assert_eq!(ones_in, ones_out);
    }

    #[test]
    fn puncturing_then_soft_combine_roundtrip() {
        // Rate-match to fewer bits than the buffer, de-rate-match perfect
        // LLRs, and confirm transmitted positions carry the right signs.
        let k = 512;
        let enc = TurboEncoder::new(k);
        let cw = enc.encode(&bits(k, 9));
        let rm = RateMatcher::new(k);
        let e = 2 * (k + 4); // some puncturing (rate 1/2 instead of 1/3)
        let tx = rm.rate_match(&cw, e);
        let llrs: Vec<f32> = tx
            .iter()
            .map(|&b| if b == 0 { 5.0 } else { -5.0 })
            .collect();
        let (d0, d1, d2) = de_rate_match(&rm, &llrs);
        let check = |llr: &[f32], bits: &[u8], name: &str| {
            for (i, (&l, &b)) in llr.iter().zip(bits).enumerate() {
                if l != 0.0 {
                    let hard = (l < 0.0) as u8;
                    assert_eq!(hard, b, "{name}[{i}]");
                }
            }
        };
        check(&d0, &cw.d0, "d0");
        check(&d1, &cw.d1, "d1");
        check(&d2, &cw.d2, "d2");
    }

    #[test]
    fn repetition_accumulates_llrs() {
        let k = 40;
        let enc = TurboEncoder::new(k);
        let cw = enc.encode(&bits(k, 2));
        let rm = RateMatcher::new(k);
        let ncb_bits = 3 * (k + 4);
        let e = 2 * ncb_bits; // every bit sent exactly twice
        let tx = rm.rate_match(&cw, e);
        let llrs: Vec<f32> = tx
            .iter()
            .map(|&b| if b == 0 { 1.0 } else { -1.0 })
            .collect();
        let (d0, _, _) = de_rate_match(&rm, &llrs);
        for (&l, &b) in d0.iter().zip(&cw.d0) {
            assert_eq!(l, if b == 0 { 2.0 } else { -2.0 });
        }
    }

    #[test]
    fn systematic_bits_survive_heavy_puncturing() {
        // rv0 starts just past the NULL head of the systematic section, so
        // with E = D the output is dominated by systematic bits.
        let k = 1024;
        let enc = TurboEncoder::new(k);
        let data = bits(k, 3);
        let cw = enc.encode(&data);
        let rm = RateMatcher::new(k);
        let tx = rm.rate_match(&cw, k);
        // Count agreement with some systematic bits: walk the map again.
        let mut sys_count = 0usize;
        let ncb = rm.buffer_len();
        let mut pos = rm.k0();
        let mut taken = 0;
        while taken < k {
            if let Slot::Bit { stream, idx } = rm.w_map[pos] {
                if stream == 0 {
                    assert_eq!(tx[taken], cw.d0[idx as usize]);
                    sys_count += 1;
                }
                taken += 1;
            }
            pos = (pos + 1) % ncb;
        }
        assert!(sys_count > k * 8 / 10, "only {sys_count} systematic bits");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_de_rate_match_preserves_energy(k_sel in 0usize..6, e_mult in 1usize..4) {
            let ks = [40usize, 104, 512, 1056, 2048, 6144];
            let k = ks[k_sel];
            let enc = TurboEncoder::new(k);
            let cw = enc.encode(&bits(k, k as u64));
            let rm = RateMatcher::new(k);
            let e = e_mult * (k + 4);
            let tx = rm.rate_match(&cw, e);
            prop_assert_eq!(tx.len(), e);
            let llrs: Vec<f32> = tx.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
            let (d0, d1, d2) = de_rate_match(&rm, &llrs);
            let total: f32 = d0.iter().chain(&d1).chain(&d2).map(|l| l.abs()).sum();
            // Chase combining preserves total LLR magnitude.
            prop_assert!((total - e as f32).abs() < 1e-3 * e as f32);
        }
    }
}
