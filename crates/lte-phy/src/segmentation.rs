//! Code-block segmentation (3GPP TS 36.212 §5.1.2).
//!
//! A transport block larger than the maximum turbo-interleaver size
//! `Z = 6144` is split into `C` code blocks, each of a *valid* interleaver
//! size `K`, with filler bits padding the front of the first block and a
//! CRC24B appended to every block when `C > 1`.
//!
//! The per-code-block structure is what makes the paper's **decode task
//! parallelizable**: each code block can be turbo-decoded (and CRC-checked)
//! independently — at MCS 27 / 50 PRBs a subframe carries 6 code blocks,
//! i.e. 6 decode subtasks available for RT-OPEX migration.

use crate::crc::CRC24B;
use crate::error::PhyError;

/// Maximum code-block (turbo interleaver) size.
pub const MAX_CODE_BLOCK: usize = 6144;

/// Length of the per-code-block CRC attached when `C > 1`.
pub const BLOCK_CRC_LEN: usize = 24;

/// Returns the smallest valid turbo-interleaver size `K ≥ want`, or `None`
/// if `want` exceeds [`MAX_CODE_BLOCK`].
///
/// Valid sizes (36.212 Table 5.1.3-3): 40..=512 step 8, 528..=1024 step 16,
/// 1056..=2048 step 32, 2112..=6144 step 64.
pub fn next_valid_k(want: usize) -> Option<usize> {
    if want > MAX_CODE_BLOCK {
        return None;
    }
    let k = if want <= 512 {
        40.max(want.div_ceil(8) * 8)
    } else if want <= 1024 {
        want.div_ceil(16) * 16
    } else if want <= 2048 {
        want.div_ceil(32) * 32
    } else {
        want.div_ceil(64) * 64
    };
    Some(k)
}

/// Returns the largest valid turbo-interleaver size `K < k`, or `None` if
/// `k <= 40`.
pub fn prev_valid_k(k: usize) -> Option<usize> {
    if k <= 40 {
        return None;
    }
    let want = k - 1;
    let p = if want <= 512 {
        40.max(want / 8 * 8)
    } else if want <= 1024 {
        (want / 16 * 16).max(512)
    } else if want <= 2048 {
        (want / 32 * 32).max(1024)
    } else {
        (want / 64 * 64).max(2048)
    };
    Some(p)
}

/// Returns `true` if `k` is a valid turbo-interleaver size.
#[cfg(test)]
pub(crate) fn is_valid_k(k: usize) -> bool {
    next_valid_k(k) == Some(k)
}

/// The segmentation of one transport block into code blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segmentation {
    /// Number of code blocks `C`.
    pub num_blocks: usize,
    /// Larger block size `K⁺`.
    pub k_plus: usize,
    /// Smaller block size `K⁻` (0 when unused).
    pub k_minus: usize,
    /// Number of blocks of size `K⁺`.
    pub c_plus: usize,
    /// Number of blocks of size `K⁻`.
    pub c_minus: usize,
    /// Number of filler bits prepended to the first block.
    pub filler: usize,
    /// Input size `B` this segmentation was computed for (bits, incl. TB CRC).
    pub input_bits: usize,
}

impl Segmentation {
    /// Computes the segmentation for a transport block of `b` bits
    /// (including the transport-block CRC24A).
    pub fn compute(b: usize) -> Result<Self, PhyError> {
        if b == 0 {
            return Err(PhyError::UnsupportedBlockSize { bits: 0 });
        }
        let (c, b_prime) = if b <= MAX_CODE_BLOCK {
            (1, b)
        } else {
            let c = b.div_ceil(MAX_CODE_BLOCK - BLOCK_CRC_LEN);
            (c, b + c * BLOCK_CRC_LEN)
        };
        let k_plus =
            next_valid_k(b_prime.div_ceil(c)).ok_or(PhyError::UnsupportedBlockSize { bits: b })?;
        let (k_minus, c_minus, c_plus) = if c == 1 {
            (0, 0, 1)
        } else {
            match prev_valid_k(k_plus) {
                Some(k_minus) => {
                    let delta = k_plus - k_minus;
                    let c_minus = (c * k_plus - b_prime) / delta;
                    (k_minus, c_minus, c - c_minus)
                }
                None => (0, 0, c),
            }
        };
        let filler = c_plus * k_plus + c_minus * k_minus - b_prime;
        Ok(Segmentation {
            num_blocks: c,
            k_plus,
            k_minus,
            c_plus,
            c_minus,
            filler,
            input_bits: b,
        })
    }

    /// Sizes of the `C` code blocks in transmission order
    /// (`K⁻` blocks first, per 36.212).
    pub fn block_sizes(&self) -> Vec<usize> {
        (0..self.num_blocks).map(|r| self.block_size(r)).collect()
    }

    /// Size of code block `r` in transmission order (`K⁻` blocks first).
    ///
    /// # Panics
    /// Panics if `r >= num_blocks`.
    pub fn block_size(&self, r: usize) -> usize {
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert!(r < self.num_blocks, "code block index out of range");
        if r < self.c_minus {
            self.k_minus
        } else {
            self.k_plus
        }
    }

    /// Splits `tb` (the transport block bits including its CRC24A, length
    /// [`Self::input_bits`]) into code blocks: filler zeros are prepended to
    /// the first block, and a CRC24B is appended to each block when `C > 1`.
    pub fn segment(&self, tb: &[u8]) -> Result<Vec<Vec<u8>>, PhyError> {
        if tb.len() != self.input_bits {
            return Err(PhyError::LengthMismatch {
                what: "transport block",
                expected: self.input_bits,
                actual: tb.len(),
            });
        }
        let crc = self.num_blocks > 1;
        let mut blocks = Vec::with_capacity(self.num_blocks);
        let mut pos = 0usize;
        for (r, k) in self.block_sizes().into_iter().enumerate() {
            let payload = if crc { k - BLOCK_CRC_LEN } else { k };
            let mut blk = Vec::with_capacity(k);
            if r == 0 {
                blk.extend(std::iter::repeat_n(0u8, self.filler));
            }
            let take = payload - blk.len();
            blk.extend_from_slice(&tb[pos..pos + take]);
            pos += take;
            if crc {
                CRC24B.attach(&mut blk);
            }
            debug_assert_eq!(blk.len(), k);
            blocks.push(blk);
        }
        debug_assert_eq!(pos, tb.len());
        Ok(blocks)
    }

    /// Reassembles decoded code blocks into the caller-owned `tb` (cleared
    /// and refilled; no allocation once it has capacity): the transport
    /// block bits, still including the transport-block CRC24A. Per-block
    /// CRC24B outcomes are the decoder's, which checks them as it
    /// terminates.
    pub fn desegment_into(&self, blocks: &[Vec<u8>], tb: &mut Vec<u8>) -> Result<(), PhyError> {
        if blocks.len() != self.num_blocks {
            return Err(PhyError::LengthMismatch {
                what: "code blocks",
                expected: self.num_blocks,
                actual: blocks.len(),
            });
        }
        let crc = self.num_blocks > 1;
        tb.clear();
        tb.reserve(self.input_bits);
        for (r, blk) in blocks.iter().enumerate() {
            let k = self.block_size(r);
            if blk.len() != k {
                return Err(PhyError::LengthMismatch {
                    what: "code block",
                    expected: k,
                    actual: blk.len(),
                });
            }
            let payload_end = if crc { k - BLOCK_CRC_LEN } else { k };
            let start = if r == 0 { self.filler } else { 0 };
            tb.extend_from_slice(&blk[start..payload_end]);
        }
        debug_assert_eq!(tb.len(), self.input_bits);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The transport block and each block's CRC24B outcome (all `true`
    /// when `C == 1`, where no per-block CRC exists).
    fn desegment(seg: &Segmentation, blocks: &[Vec<u8>]) -> (Vec<u8>, Vec<bool>) {
        let mut tb = Vec::new();
        seg.desegment_into(blocks, &mut tb).unwrap();
        let crc = seg.num_blocks > 1;
        let oks = blocks.iter().map(|b| !crc || CRC24B.check(b)).collect();
        (tb, oks)
    }

    fn bits(n: usize, seed: u64) -> Vec<u8> {
        (0..n)
            .map(|i| (((i as u64).wrapping_mul(2654435761).wrapping_add(seed) >> 7) & 1) as u8)
            .collect()
    }

    #[test]
    fn valid_k_lattice() {
        assert!(is_valid_k(40));
        assert!(is_valid_k(512));
        assert!(is_valid_k(528));
        assert!(is_valid_k(1024));
        assert!(is_valid_k(1056));
        assert!(is_valid_k(2048));
        assert!(is_valid_k(2112));
        assert!(is_valid_k(6144));
        assert!(!is_valid_k(41));
        assert!(!is_valid_k(520)); // between 512 and 528
        assert!(!is_valid_k(2080)); // between 2048 and 2112
    }

    #[test]
    fn next_prev_are_adjacent() {
        let mut k = 40;
        while k < MAX_CODE_BLOCK {
            let n = next_valid_k(k + 1).unwrap();
            assert_eq!(prev_valid_k(n), Some(k), "around {k}");
            k = n;
        }
    }

    #[test]
    fn small_tb_single_block_no_crc() {
        let seg = Segmentation::compute(1000).unwrap();
        assert_eq!(seg.num_blocks, 1);
        assert_eq!(seg.k_plus, next_valid_k(1000).unwrap());
        assert_eq!(seg.filler, seg.k_plus - 1000);
    }

    #[test]
    fn mcs27_50prb_has_six_blocks() {
        // Paper §2.2: "at MCS 27, LTE utilizes 6 code-blocks".
        // TBS(MCS27, 50 PRB) = 31704, +24 CRC = 31728.
        let seg = Segmentation::compute(31704 + 24).unwrap();
        assert_eq!(seg.num_blocks, 6);
        let total: usize = seg.block_sizes().iter().sum();
        assert_eq!(total, seg.input_bits + 6 * BLOCK_CRC_LEN + seg.filler);
    }

    #[test]
    fn segment_desegment_roundtrip_small() {
        let tb = bits(800, 3);
        let seg = Segmentation::compute(800).unwrap();
        let blocks = seg.segment(&tb).unwrap();
        let (out, oks) = desegment(&seg, &blocks);
        assert_eq!(out, tb);
        assert!(oks.iter().all(|&x| x));
    }

    #[test]
    fn segment_desegment_roundtrip_large() {
        let tb = bits(31728, 99);
        let seg = Segmentation::compute(tb.len()).unwrap();
        let blocks = seg.segment(&tb).unwrap();
        assert_eq!(blocks.len(), 6);
        let (out, oks) = desegment(&seg, &blocks);
        assert_eq!(out, tb);
        assert!(oks.iter().all(|&x| x));
    }

    #[test]
    fn corrupted_block_fails_its_crc_only() {
        let tb = bits(20000, 1);
        let seg = Segmentation::compute(tb.len()).unwrap();
        let mut blocks = seg.segment(&tb).unwrap();
        blocks[1][17] ^= 1;
        let (_, oks) = desegment(&seg, &blocks);
        assert!(!oks[1]);
        assert!(oks.iter().enumerate().all(|(i, &ok)| ok || i == 1));
    }

    #[test]
    fn zero_bits_rejected() {
        assert!(Segmentation::compute(0).is_err());
    }

    #[test]
    fn block_sizes_are_valid_k() {
        for b in [40, 100, 6144, 6145, 10000, 31728, 50000] {
            let seg = Segmentation::compute(b).unwrap();
            for k in seg.block_sizes() {
                assert!(is_valid_k(k), "B={b} K={k}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_roundtrip(b in 40usize..40000, seed in 0u64..100) {
            let tb = bits(b, seed);
            let seg = Segmentation::compute(b).unwrap();
            let blocks = seg.segment(&tb).unwrap();
            let (out, oks) = desegment(&seg, &blocks);
            prop_assert_eq!(out, tb);
            prop_assert!(oks.iter().all(|&x| x));
        }

        #[test]
        fn prop_accounting(b in 40usize..40000) {
            let seg = Segmentation::compute(b).unwrap();
            let sizes = seg.block_sizes();
            prop_assert_eq!(sizes.len(), seg.num_blocks);
            let crc_bits = if seg.num_blocks > 1 { seg.num_blocks * BLOCK_CRC_LEN } else { 0 };
            let total: usize = sizes.iter().sum();
            prop_assert_eq!(total, b + crc_bits + seg.filler);
            // Filler is always smaller than the K-granularity.
            prop_assert!(seg.filler < 64 * seg.num_blocks);
        }
    }
}
