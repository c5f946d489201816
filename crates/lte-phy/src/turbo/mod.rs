//! LTE turbo codec: rate-1/3 parallel-concatenated convolutional code.
//!
//! Two identical 8-state recursive systematic convolutional (RSC)
//! constituent encoders with transfer function `G(D) = [1, g1(D)/g0(D)]`,
//! `g0 = 1 + D² + D³` (13 octal) and `g1 = 1 + D + D³` (15 octal), joined
//! by a quadratic permutation polynomial (QPP) interleaver, exactly as in
//! 3GPP TS 36.212 §5.1.3.2.
//!
//! Decoding is iterative max-log-MAP with CRC-based early termination —
//! the source of the variable iteration count `L ∈ [1, Lm]` in the paper's
//! processing-time model (Eq. 1).
//!
//! Tail-bit multiplexing into the three output streams uses a documented
//! internal layout (encoder and decoder agree; see `DESIGN.md`), since
//! over-the-air interoperability is not a goal of this reproduction.

pub mod decoder;
pub mod encoder;
pub mod qpp;

pub use decoder::{TurboDecodeResult, TurboDecoder, TurboWorkspace};
pub use encoder::{TurboCodeword, TurboEncoder};
pub use qpp::Qpp;

/// Number of trellis states of each constituent encoder.
pub const NUM_STATES: usize = 8;

/// Tail (termination) steps per constituent encoder.
pub const TAIL_STEPS: usize = 3;

/// Stream length produced for an input of `K` bits: `K + 4`
/// (12 tail bits multiplexed over 3 streams, 4 each).
pub const fn stream_len(k: usize) -> usize {
    k + 4
}

/// The 8-state RSC trellis (g0 = 13, g1 = 15 octal).
///
/// State encoding: `s = a_{t-1}·4 + a_{t-2}·2 + a_{t-3}`, where `a` is the
/// post-feedback register input sequence.
#[derive(Clone, Copy, Debug)]
pub struct Trellis {
    /// `next[s][u]` — successor state on input bit `u`.
    pub next: [[u8; 2]; NUM_STATES],
    /// `parity[s][u]` — parity output bit on input `u` from state `s`.
    pub parity: [[u8; 2]; NUM_STATES],
    /// `term_input[s]` — input bit that drives the feedback to zero
    /// (used for trellis termination).
    pub term_input: [u8; NUM_STATES],
}

impl Trellis {
    /// Builds the LTE constituent-code trellis.
    pub const fn lte() -> Self {
        let mut next = [[0u8; 2]; NUM_STATES];
        let mut parity = [[0u8; 2]; NUM_STATES];
        let mut term_input = [0u8; NUM_STATES];
        let mut s = 0;
        while s < NUM_STATES {
            let s0 = ((s >> 2) & 1) as u8;
            let s1 = ((s >> 1) & 1) as u8;
            let s2 = (s & 1) as u8;
            let mut u = 0;
            while u < 2 {
                let a = (u as u8) ^ s1 ^ s2; // feedback (g0 = 1 + D² + D³)
                let z = a ^ s0 ^ s2; // parity (g1 = 1 + D + D³)
                next[s][u] = (a << 2) | (s0 << 1) | s1;
                parity[s][u] = z;
                u += 1;
            }
            term_input[s] = s1 ^ s2; // makes the feedback a = 0
            s += 1;
        }
        Trellis {
            next,
            parity,
            term_input,
        }
    }
}

/// The shared LTE trellis instance.
pub const TRELLIS: Trellis = Trellis::lte();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trellis_is_a_permutation_per_input() {
        for u in 0..2 {
            let mut seen = [false; NUM_STATES];
            for s in 0..NUM_STATES {
                let n = TRELLIS.next[s][u] as usize;
                assert!(n < NUM_STATES);
                assert!(!seen[n], "input {u}: state {n} reached twice");
                seen[n] = true;
            }
        }
    }

    #[test]
    fn termination_reaches_zero_in_three_steps() {
        for start in 0..NUM_STATES {
            let mut s = start;
            for _ in 0..TAIL_STEPS {
                let u = TRELLIS.term_input[s] as usize;
                s = TRELLIS.next[s][u] as usize;
            }
            assert_eq!(s, 0, "termination failed from state {start}");
        }
    }

    #[test]
    fn zero_state_zero_input_stays_put() {
        assert_eq!(TRELLIS.next[0][0], 0);
        assert_eq!(TRELLIS.parity[0][0], 0);
    }

    #[test]
    fn impulse_response_is_recursive() {
        // A single 1 into the zero state must never return to state 0 under
        // zero input (infinite impulse response of the recursive code); the
        // state instead cycles with the feedback polynomial's period, 7.
        let start = TRELLIS.next[0][1] as usize;
        assert_ne!(start, 0);
        let mut s = start;
        for step in 1..=7 {
            s = TRELLIS.next[s][0] as usize;
            assert_ne!(s, 0, "returned to zero at step {step}");
            if step < 7 {
                assert_ne!(s, start, "period shorter than 7 at step {step}");
            }
        }
        assert_eq!(s, start, "period of 1+D²+D³ must be 7");
    }
}
