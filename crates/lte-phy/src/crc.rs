//! Cyclic redundancy checks from 3GPP TS 36.212 §5.1.1.
//!
//! LTE attaches CRC24A to the transport block and CRC24B to each code block
//! when a transport block is segmented. The checks operate on *bit*
//! sequences (one bit per `u8`, value 0 or 1), matching how the rest of the
//! coding chain passes data around.
//!
//! The decoder uses the per-code-block CRC both for error detection and —
//! crucially for this reproduction — for **early termination** of turbo
//! iterations, which is the paper's source of data-dependent processing
//! time (the `L` term in Eq. (1)).

/// A CRC polynomial of length `LEN` bits.
///
/// `poly` holds the generator coefficients below the leading `x^LEN` term
/// (the leading 1 is implicit), matching the conventional hex notation.
#[derive(Clone, Copy, Debug)]
pub struct Crc {
    /// Generator polynomial without the implicit leading term.
    pub poly: u32,
    /// CRC length in bits (9 to 32).
    pub len: u32,
    /// `table[t]`: the register `t << (len − 8)` after eight zero-input
    /// steps — one input byte's effect on the register's top byte.
    table: &'static [u32; 256],
}

/// One input bit through the MSB-first shift register, all-zero initial
/// state as specified by 36.212.
const fn bit_step(poly: u32, len: u32, reg: u32, bit: u32) -> u32 {
    let feedback = (reg >> (len - 1) & 1) ^ bit;
    let shifted = (reg << 1) & (u32::MAX >> (32 - len));
    if feedback != 0 {
        shifted ^ poly
    } else {
        shifted
    }
}

/// The byte-at-a-time table of the `len`-bit CRC with generator `poly`.
const fn byte_table(poly: u32, len: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut t = 0;
    while t < 256 {
        let mut reg = (t as u32) << (len - 8);
        let mut i = 0;
        while i < 8 {
            reg = bit_step(poly, len, reg, 0);
            i += 1;
        }
        table[t] = reg;
        t += 1;
    }
    table
}

/// CRC24A — attached to the transport block (gCRC24A, 0x864CFB).
pub const CRC24A: Crc = Crc {
    poly: 0x864CFB,
    len: 24,
    table: &byte_table(0x864CFB, 24),
};

/// CRC24B — attached to each code block after segmentation (gCRC24B, 0x800063).
pub const CRC24B: Crc = Crc {
    poly: 0x800063,
    len: 24,
    table: &byte_table(0x800063, 24),
};

impl Crc {
    /// Computes the CRC of `bits` (each element 0 or 1), MSB-first, with
    /// all-zero initial state as specified by 36.212.
    ///
    /// Eight bits per step: each group of eight is packed into a byte,
    /// XORed into the register's top byte and shifted through the table;
    /// a tail shorter than eight runs one bit per step.
    pub fn compute(&self, bits: &[u8]) -> u32 {
        debug_assert!(bits.iter().all(|&b| b <= 1), "inputs must be single bits");
        let (poly, len) = (self.poly, self.len);
        let low = u32::MAX >> (40 - len); // the bits below the top byte
        let chunks = bits.chunks_exact(8);
        let tail = chunks.remainder();
        let reg = chunks.fold(0u32, |reg, c| {
            let byte = c.iter().fold(0u32, |acc, &b| acc << 1 | u32::from(b));
            (reg & low) << 8 ^ self.table[(reg >> (len - 8) ^ byte) as usize]
        });
        tail.iter()
            .fold(reg, |reg, &b| bit_step(poly, len, reg, u32::from(b)))
    }

    /// Appends the CRC parity bits (MSB first) of `bits` to `bits`.
    pub fn attach(&self, bits: &mut Vec<u8>) {
        let r = self.compute(bits);
        for i in (0..self.len).rev() {
            bits.push(((r >> i) & 1) as u8);
        }
    }

    /// Checks a bit sequence that has the CRC attached at the end.
    ///
    /// Returns `false` if the sequence is shorter than the CRC itself.
    pub fn check(&self, bits_with_crc: &[u8]) -> bool {
        let n = self.len as usize;
        if bits_with_crc.len() < n {
            return false;
        }
        // The defining property: the CRC of the whole codeword is zero.
        self.compute(bits_with_crc) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-bit-per-step register loop `compute` ran before the byte
    /// table, kept as the oracle.
    fn compute_bitwise(crc: &Crc, bits: &[u8]) -> u32 {
        bits.iter()
            .fold(0, |reg, &b| bit_step(crc.poly, crc.len, reg, u32::from(b)))
    }

    #[test]
    fn attach_then_check_passes() {
        let mut bits: Vec<u8> = (0..123).map(|i| ((i * 7 + 3) % 2) as u8).collect();
        CRC24A.attach(&mut bits);
        assert!(CRC24A.check(&bits));
    }

    #[test]
    fn single_bit_error_is_detected() {
        let mut bits: Vec<u8> = (0..64).map(|i| (i % 2) as u8).collect();
        CRC24B.attach(&mut bits);
        for i in 0..bits.len() {
            let mut corrupted = bits.clone();
            corrupted[i] ^= 1;
            assert!(!CRC24B.check(&corrupted), "undetected flip at {i}");
        }
    }

    #[test]
    fn burst_errors_up_to_crc_len_detected() {
        // A CRC of length L detects all burst errors of length ≤ L.
        let mut bits: Vec<u8> = (0..200).map(|i| ((i / 3) % 2) as u8).collect();
        CRC24B.attach(&mut bits);
        for start in (0..bits.len() - 24).step_by(7) {
            let mut corrupted = bits.clone();
            for b in corrupted[start..start + 24].iter_mut() {
                *b ^= 1;
            }
            assert!(!CRC24B.check(&corrupted));
        }
    }

    #[test]
    fn empty_payload_crc_is_zero() {
        assert_eq!(CRC24A.compute(&[]), 0);
        assert!(!CRC24A.check(&[])); // too short to contain a CRC
    }

    #[test]
    fn both_lte_data_polynomials_roundtrip() {
        for crc in [CRC24A, CRC24B] {
            let mut bits: Vec<u8> = (0..91).map(|i| ((i * 13 + 1) % 2) as u8).collect();
            crc.attach(&mut bits);
            assert!(crc.check(&bits), "poly {:#x}", crc.poly);
        }
    }

    proptest! {
        #[test]
        fn prop_byte_table_equals_bitwise(
            bits in proptest::collection::vec(0u8..2, 0..6200),
        ) {
            // Any length, not only multiples of 8: the tail runs bitwise.
            for crc in [CRC24A, CRC24B] {
                prop_assert_eq!(crc.compute(&bits), compute_bitwise(&crc, &bits));
            }
        }

        #[test]
        fn prop_roundtrip(payload in proptest::collection::vec(0u8..2, 1..512)) {
            let mut bits = payload.clone();
            CRC24A.attach(&mut bits);
            prop_assert!(CRC24A.check(&bits));
            prop_assert_eq!(&bits[..payload.len()], &payload[..]);
        }

        #[test]
        fn prop_flip_detected(payload in proptest::collection::vec(0u8..2, 1..256), idx in any::<prop::sample::Index>()) {
            let mut bits = payload;
            CRC24B.attach(&mut bits);
            let i = idx.index(bits.len());
            bits[i] ^= 1;
            prop_assert!(!CRC24B.check(&bits));
        }
    }
}
