//! # rtopex-phy — LTE-style uplink PHY substrate
//!
//! A self-contained, from-scratch implementation of the LTE uplink (PUSCH)
//! physical-layer processing chain used by the RT-OPEX reproduction in place
//! of the OpenAirInterface PHY library the paper integrated with.
//!
//! The chain follows §2 of the paper. On the transmit (test-vector) side:
//!
//! ```text
//! payload bits → CRC24A → code-block segmentation (+CRC24B) → turbo encode
//!   → rate matching → scrambling → QAM mapping → DFT precoding
//!   → resource-grid mapping (+DMRS) → IFFT/CP → IQ samples → channel
//! ```
//!
//! and on the receive side (the part whose execution time the schedulers
//! care about), split into the three sequential tasks of the paper's Fig. 5:
//!
//! * **FFT** — CP removal + FFT per OFDM symbol per antenna (the staged
//!   decode schedules and migrates one antenna's 14 symbols as a subtask),
//! * **Demod** — channel estimation, equalization, DFT de-precoding,
//!   soft demapping (subtask = one OFDM symbol group),
//! * **Decode** — descrambling, de-rate-matching, iterative turbo decoding,
//!   CRC checks (subtask = one code block).
//!
//! The implementation favours clarity and robustness over micro-optimized
//! DSP: every block is real (a genuine max-log-MAP turbo decoder with
//! CRC-based early termination, a mixed-radix FFT, an MMSE equalizer…), so
//! the *data-dependent processing-time variability* the paper's scheduler
//! exploits arises natively rather than being faked.
//!
//! Deviations from the 3GPP specifications (exact TBS table columns, QPP
//! interleaver constants) are deliberate, documented substitutions — see
//! `DESIGN.md` at the repository root.
//!
//! ## Quick example
//!
//! ```
//! use rtopex_phy::uplink::{UplinkConfig, UplinkTx, UplinkRx};
//! use rtopex_phy::channel::{AwgnChannel, ChannelModel};
//! use rand::SeedableRng;
//!
//! let cfg = UplinkConfig::new(rtopex_phy::params::Bandwidth::Mhz1_4, 2, 16).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let tx = UplinkTx::new(cfg.clone());
//! let payload = vec![0xA5u8; cfg.transport_block_bytes()];
//! let subframe = tx.encode_subframe(&payload).unwrap();
//! let mut chan = AwgnChannel::new(30.0);
//! let rx_samples = chan.apply(&subframe.samples, cfg.num_antennas, &mut rng);
//! let rx = UplinkRx::new(cfg);
//! let out = rx.decode_subframe(&rx_samples).unwrap();
//! assert!(out.crc_ok);
//! assert_eq!(out.payload, payload);
//! ```

#![warn(missing_docs)]
// Unsafe is denied everywhere except the explicitly-allowed SIMD kernel
// modules, whose `core::arch` loads/stores need it (see `simd`).
#![deny(unsafe_code)]
// Inside those modules, every unsafe operation must sit in an explicit
// `unsafe {}` block with its own `// SAFETY:` comment (enforced by
// `cargo xtask lint`) — an `unsafe fn` signature alone licenses nothing.
#![deny(unsafe_op_in_unsafe_fn)]
// DSP recurrences (shift registers, trellis states, per-subcarrier loops)
// read most clearly with explicit indices; the iterator rewrites clippy
// suggests obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod channel;
pub mod complex;
pub mod crc;
pub mod equalizer;
pub mod error;
pub mod fft;
pub mod iq;
pub mod mcs;
pub mod modulation;
pub mod params;
pub mod ratematch;
mod registry;
pub mod resource_grid;
pub mod scramble;
pub mod segmentation;
pub mod simd;
pub mod tasks;
pub mod turbo;
pub mod uplink;
pub mod workspace;
pub mod zadoff_chu;

pub use complex::Cf32;
pub use error::PhyError;
