//! Rate matching for turbo-coded transport channels (36.212 §5.1.4.1).
//!
//! Each of the three turbo output streams passes through a 32-column
//! sub-block interleaver; the interleaved systematic stream followed by the
//! bit-interlaced parity streams forms the **circular buffer**, from which
//! exactly `E` bits are read (wrapping, skipping the `<NULL>` padding) for
//! transmission. De-rate-matching reverses the walk, *accumulating* LLRs at
//! repeated positions (chase combining) and leaving punctured positions at
//! LLR 0 (erasure). Both directions read one table, resolved at
//! construction: the buffer's transmitted positions in read order.

use crate::turbo::{stream_len, TurboCodeword};

/// Number of columns of the sub-block interleaver.
const COLS: usize = 32;

/// The inter-column permutation pattern of 36.212 Table 5.1.4-1.
const PERM: [usize; COLS] = [
    0, 16, 8, 24, 4, 20, 12, 28, 2, 18, 10, 26, 6, 22, 14, 30, 1, 17, 9, 25, 5, 21, 13, 29, 3, 19,
    11, 27, 7, 23, 15, 31,
];

/// Rate matcher for turbo codewords of a fixed block size `K`.
#[derive(Clone, Debug)]
pub struct RateMatcher {
    /// Stream length `D = K + 4`.
    d: usize,
    /// The circular buffer resolved once: its `3·D` transmitted positions
    /// in read order from `k0`, `<NULL>` skipped, each the index
    /// `stream·D + idx` into the flat `[d0|d1|d2]` streams. `E` bits read
    /// the table cyclically.
    order: Vec<u32>,
}

/// The circular buffer of 36.212 §5.1.4.1 for stream length `d`: the
/// interleaved systematic stream, then the bit-interlaced parity streams,
/// each position the flat index `stream·D + idx` of the bit it carries,
/// or `None` for `<NULL>` padding.
fn circular_buffer(d: usize) -> Vec<Option<u32>> {
    let rows = d.div_ceil(COLS);
    let kpi = rows * COLS;
    // `nd` NULLs pad the head of each stream. `slot` resolves
    // sub-block-interleaver output `j` of `stream`; the third stream takes
    // 36.212's extra `+1` rotation.
    let nd = kpi - d;
    let slot = |j: usize, stream: usize| {
        let y = ((j % rows) * COLS + PERM[j / rows] + usize::from(stream == 2)) % kpi;
        (y >= nd).then(|| (stream * d + y - nd) as u32)
    };
    (0..kpi)
        .map(|j| slot(j, 0))
        .chain((0..kpi).flat_map(|j| [slot(j, 1), slot(j, 2)]))
        .collect()
}

/// Redundancy-version-0 start offset `k0 = 2R` (36.212 §5.1.4.1.2:
/// `R·(2·⌈Ncb/(8R)⌉·rv + 2)` at `rv = 0`). Only rv 0 is transmitted.
fn k0(d: usize) -> usize {
    2 * d.div_ceil(COLS)
}

impl RateMatcher {
    /// Creates a rate matcher for turbo block size `k`.
    pub fn new(k: usize) -> Self {
        let d = stream_len(k);
        let buffer = circular_buffer(d);
        let (before, from_k0) = buffer.split_at(k0(d));
        let order = from_k0.iter().chain(before).flatten().copied().collect();
        RateMatcher { d, order }
    }

    /// Selects `e` bits from the codeword's circular buffer.
    ///
    /// # Panics
    /// Panics if the codeword block size differs from this matcher's, or if
    /// `e == 0`.
    pub fn rate_match(&self, cw: &TurboCodeword, e: usize) -> Vec<u8> {
        assert_eq!(cw.d0.len(), self.d, "codeword size mismatch");
        assert!(e > 0, "cannot select zero bits");
        let streams = [&cw.d0, &cw.d1, &cw.d2];
        let bit = |&p: &u32| streams[p as usize / self.d][p as usize % self.d];
        self.order.iter().cycle().take(e).map(bit).collect()
    }

    /// Descrambles a code block's `E` coded LLRs with their scrambling
    /// sign masks (the block's slice of
    /// [`crate::scramble::Scrambler::masks`]) and reverses the selection
    /// walk, in one pass, into the caller-owned flat `[d0|d1|d2]` streams
    /// `out` (cleared, resized to `3·(K + 4)`, refilled; no allocation once
    /// it has capacity). Repeated transmissions accumulate in transmission
    /// order; punctured positions stay at 0.
    ///
    /// The walk is a modulo- and branch-free scatter-add: positions come
    /// from the table, and descrambling is a sign-bit XOR.
    pub fn de_rate_match_into(&self, llrs: &[f32], masks: &[u32], out: &mut Vec<f32>) {
        debug_assert_eq!(llrs.len(), masks.len());
        out.clear();
        out.resize(3 * self.d, 0.0);
        let n = self.order.len();
        for (llrs, masks) in llrs.chunks(n).zip(masks.chunks(n)) {
            for ((&p, &l), &m) in self.order.iter().zip(llrs).zip(masks) {
                out[p as usize] += f32::from_bits(l.to_bits() ^ m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scramble::Scrambler;
    use crate::turbo::TurboEncoder;
    use proptest::prelude::*;

    /// De-rate-matches without scrambling; returns `[d0|d1|d2]`.
    fn de_rate_match(rm: &RateMatcher, llrs: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        rm.de_rate_match_into(llrs, &vec![0; llrs.len()], &mut out);
        out
    }

    /// The de-rate-matching the decode path ran before the read-order
    /// table, kept as the oracle: a descrambled copy of the block (the
    /// branchy sign flip), then the modulo walk over the circular buffer
    /// from `k0`, skipping `<NULL>`.
    fn de_rate_match_walk(k: usize, llrs: &[f32], s: &Scrambler, offset: usize) -> Vec<f32> {
        let d = stream_len(k);
        let buffer = circular_buffer(d);
        let mut block = llrs.to_vec();
        s.descramble_llrs_at(offset, &mut block);
        let mut out = vec![0.0f32; 3 * d];
        let mut pos = k0(d);
        let mut taken = 0;
        while taken < block.len() {
            if let Some(p) = buffer[pos] {
                out[p as usize] += block[taken];
                taken += 1;
            }
            pos = (pos + 1) % buffer.len();
        }
        out
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
    fn every_codeword_bit_appears_once_in_read_order() {
        for k in [40usize, 104, 6144] {
            let rm = RateMatcher::new(k);
            let mut counts = vec![0usize; 3 * (k + 4)];
            for &p in &rm.order {
                counts[p as usize] += 1;
            }
            assert!(counts.iter().all(|&c| c == 1), "k={k}");
        }
    }

    #[test]
    fn full_buffer_readout_contains_all_bits() {
        let k = 104;
        let enc = TurboEncoder::new(k);
        let cw = enc.encode(&bits(k, 1));
        let rm = RateMatcher::new(k);
        let non_null = circular_buffer(k + 4).iter().flatten().count();
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
        let streams = de_rate_match(&rm, &llrs);
        for (name, (llr, bits)) in ["d0", "d1", "d2"]
            .iter()
            .zip(streams.chunks(k + 4).zip([&cw.d0, &cw.d1, &cw.d2]))
        {
            for (i, (&l, &b)) in llr.iter().zip(bits).enumerate() {
                if l != 0.0 {
                    let hard = (l < 0.0) as u8;
                    assert_eq!(hard, b, "{name}[{i}]");
                }
            }
        }
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
        let d0 = &de_rate_match(&rm, &llrs)[..k + 4];
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
        let mut sys_count = 0usize;
        for (&b, &p) in tx.iter().zip(&rm.order) {
            if (p as usize) < k + 4 {
                assert_eq!(b, cw.d0[p as usize]);
                sys_count += 1;
            }
        }
        assert!(sys_count > k * 8 / 10, "only {sys_count} systematic bits");
    }

    #[test]
    fn table_walk_is_bit_exact_vs_modulo_walk() {
        // Every LTE block size the 5 MHz configurations use plus the
        // extremes; E below D, exactly 3·D, and above 3·D (repetition
        // across the wrap); LLRs with ±0.0 among them, so a first pass
        // that stored instead of adding (−0.0 where 0.0 + −0.0 = +0.0)
        // would show.
        for k in [40usize, 2240, 3584, 4416, 4672, 5376, 6144] {
            let d = k + 4;
            let rm = RateMatcher::new(k);
            for e in [d / 2 + 1, 3 * d, 7 * d + 5] {
                let llrs: Vec<f32> = (0..e)
                    .map(|i| match i % 9 {
                        0 => 0.0,
                        4 => -0.0,
                        _ => ((i * 2_654_435_761) % 1000) as f32 / 37.0 - 13.5,
                    })
                    .collect();
                let offset = 101;
                let s = Scrambler::new(0x5EED ^ k as u32, offset + e);
                let mut got = Vec::new();
                rm.de_rate_match_into(&llrs, &s.masks()[offset..offset + e], &mut got);
                let want = de_rate_match_walk(k, &llrs, &s, offset);
                let as_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(as_bits(&got), as_bits(&want), "k={k} e={e}");
            }
        }
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
            let total: f32 = de_rate_match(&rm, &llrs).iter().map(|l| l.abs()).sum();
            // Chase combining preserves total LLR magnitude.
            prop_assert!((total - e as f32).abs() < 1e-3 * e as f32);
        }
    }
}
