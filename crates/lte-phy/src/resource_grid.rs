//! OFDM resource grid and (de)modulation between grid and time domain.
//!
//! A subframe grid holds 14 OFDM symbols × `12·N_PRB` subcarriers. The
//! transmit path maps each symbol row onto centered FFT bins, runs an IFFT
//! and prepends the cyclic prefix; the receive path removes the CP and runs
//! the forward FFT — this *is* the paper's per-antenna-symbol **FFT
//! subtask** (Fig. 4(a), Fig. 5).

use crate::complex::Cf32;
use crate::fft::{self, FftPlan};
use crate::params::{Bandwidth, SYMBOLS_PER_SUBFRAME};
use std::sync::Arc;

/// One antenna's subframe resource grid (14 × `num_subcarriers`).
#[derive(Clone, Debug)]
pub struct Grid {
    bw: Bandwidth,
    data: Vec<Cf32>,
}

impl Grid {
    /// Creates an all-zero grid for the bandwidth.
    pub fn new(bw: Bandwidth) -> Self {
        Grid {
            bw,
            // analyze: allow(alloc): slab construction; runs once per config change and tests/alloc_regression.rs proves the steady state is alloc-free
            data: vec![Cf32::ZERO; SYMBOLS_PER_SUBFRAME * bw.num_subcarriers()],
        }
    }

    /// The grid's bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bw
    }

    /// Immutable view of one OFDM symbol's subcarriers.
    ///
    /// # Panics
    /// Panics if `l >= 14`.
    pub fn symbol(&self, l: usize) -> &[Cf32] {
        let m = self.bw.num_subcarriers();
        &self.data[l * m..(l + 1) * m]
    }

    /// Mutable view of one OFDM symbol's subcarriers.
    ///
    /// # Panics
    /// Panics if `l >= 14`.
    pub fn symbol_mut(&mut self, l: usize) -> &mut [Cf32] {
        let m = self.bw.num_subcarriers();
        &mut self.data[l * m..(l + 1) * m]
    }
}

/// OFDM modulator/demodulator for a fixed bandwidth (shares the cached
/// FFT plan for that size).
#[derive(Clone, Debug)]
pub struct OfdmProcessor {
    bw: Bandwidth,
    plan: Arc<FftPlan>,
}

impl OfdmProcessor {
    /// Creates a processor for the bandwidth.
    pub fn new(bw: Bandwidth) -> Self {
        OfdmProcessor {
            bw,
            plan: fft::plan(bw.fft_size()),
        }
    }

    /// The bandwidth this processor was built for.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bw
    }

    /// FFT bin index of subcarrier `k` (allocation centered on DC).
    fn bin(&self, k: usize) -> usize {
        let n = self.bw.fft_size();
        let m = self.bw.num_subcarriers();
        (n + k - m / 2) % n
    }

    /// Modulates a full grid into `samples_per_subframe` time samples
    /// (IFFT + cyclic prefix per symbol), normalized to ≈ unit mean power
    /// for a unit-power grid.
    pub fn modulate(&self, grid: &Grid) -> Vec<Cf32> {
        let n = self.bw.fft_size();
        let m = self.bw.num_subcarriers();
        let scale = n as f32 / (m as f32).sqrt();
        let mut out = Vec::with_capacity(self.bw.samples_per_subframe());
        let mut freq = vec![Cf32::ZERO; n];
        let mut scratch = vec![Cf32::ZERO; n];
        for l in 0..SYMBOLS_PER_SUBFRAME {
            freq.iter_mut().for_each(|v| *v = Cf32::ZERO);
            for (k, &v) in grid.symbol(l).iter().enumerate() {
                freq[self.bin(k)] = v;
            }
            self.plan.inverse_scratch(&mut freq, &mut scratch);
            for v in freq.iter_mut() {
                *v = v.scale(scale);
            }
            let cp = self.bw.cp_len(l);
            out.extend_from_slice(&freq[n - cp..]);
            out.extend_from_slice(&freq);
        }
        debug_assert_eq!(out.len(), self.bw.samples_per_subframe());
        out
    }

    /// Demodulates **one** OFDM symbol from a subframe's time samples — CP
    /// removal + forward FFT + subcarrier extraction, the work of one FFT
    /// subtask row — into `out` (length `num_subcarriers`), using
    /// caller-owned scratch buffers so steady-state calls perform no heap
    /// allocation.
    ///
    /// # Panics
    /// Panics if `samples` is shorter than a subframe, `l >= 14`, or
    /// `out.len() != num_subcarriers`.
    pub fn demod_symbol_into(
        &self,
        samples: &[Cf32],
        l: usize,
        out: &mut [Cf32],
        time_buf: &mut Vec<Cf32>,
        fft_scratch: &mut Vec<Cf32>,
    ) {
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert!(
            samples.len() >= self.bw.samples_per_subframe(),
            "subframe samples required"
        );
        let n = self.bw.fft_size();
        let m = self.bw.num_subcarriers();
        // analyze: allow(panic): buffer-shape contract; a mismatch means the job was built against a different config — decode garbage or fail loudly, and loud wins
        assert_eq!(out.len(), m, "output length must equal subcarrier count");
        let start = self.bw.symbol_offset(l) + self.bw.cp_len(l);
        time_buf.clear();
        time_buf.extend_from_slice(&samples[start..start + n]);
        self.plan.forward_with(time_buf, fft_scratch);
        let scale = (m as f32).sqrt() / n as f32;
        for (k, o) in out.iter_mut().enumerate() {
            *o = time_buf[self.bin(k)].scale(scale);
        }
    }

    /// Demodulates all 14 symbols into a [`Grid`] (test oracle).
    #[cfg(test)]
    pub(crate) fn demodulate(&self, samples: &[Cf32]) -> Grid {
        let mut grid = Grid::new(self.bw);
        let (mut time, mut scratch) = (Vec::new(), Vec::new());
        for l in 0..SYMBOLS_PER_SUBFRAME {
            self.demod_symbol_into(samples, l, grid.symbol_mut(l), &mut time, &mut scratch);
        }
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::mean_power;

    fn filled_grid(bw: Bandwidth) -> Grid {
        let mut g = Grid::new(bw);
        for l in 0..SYMBOLS_PER_SUBFRAME {
            for (k, v) in g.symbol_mut(l).iter_mut().enumerate() {
                *v = Cf32::from_phase((l * 31 + k * 7) as f32 * 0.13);
            }
        }
        g
    }

    #[test]
    fn modulate_demodulate_roundtrip_10mhz() {
        let bw = Bandwidth::Mhz10;
        let proc_ = OfdmProcessor::new(bw);
        let grid = filled_grid(bw);
        let samples = proc_.modulate(&grid);
        assert_eq!(samples.len(), 15_360);
        let back = proc_.demodulate(&samples);
        for l in 0..SYMBOLS_PER_SUBFRAME {
            for (a, b) in grid.symbol(l).iter().zip(back.symbol(l)) {
                assert!((*a - *b).abs() < 1e-2, "symbol {l}");
            }
        }
    }

    #[test]
    fn roundtrip_all_bandwidths() {
        for bw in [Bandwidth::Mhz1_4, Bandwidth::Mhz5, Bandwidth::Mhz15] {
            let proc_ = OfdmProcessor::new(bw);
            let grid = filled_grid(bw);
            let samples = proc_.modulate(&grid);
            let back = proc_.demodulate(&samples);
            let err: f32 = (0..SYMBOLS_PER_SUBFRAME)
                .flat_map(|l| {
                    grid.symbol(l)
                        .iter()
                        .zip(back.symbol(l))
                        .map(|(a, b)| (*a - *b).abs())
                        .collect::<Vec<_>>()
                })
                .fold(0.0, f32::max);
            assert!(err < 2e-2, "{}: max err {err}", bw.label());
        }
    }

    #[test]
    fn time_signal_has_unit_mean_power() {
        let bw = Bandwidth::Mhz10;
        let proc_ = OfdmProcessor::new(bw);
        let samples = proc_.modulate(&filled_grid(bw));
        let p = mean_power(&samples);
        // CP repeats signal energy, so power stays ≈ 1 (within a few %).
        assert!((p - 1.0).abs() < 0.1, "mean power {p}");
    }

    #[test]
    fn cyclic_prefix_is_a_copy_of_the_tail() {
        let bw = Bandwidth::Mhz5;
        let proc_ = OfdmProcessor::new(bw);
        let samples = proc_.modulate(&filled_grid(bw));
        for l in 0..SYMBOLS_PER_SUBFRAME {
            let start = bw.symbol_offset(l);
            let cp = bw.cp_len(l);
            let n = bw.fft_size();
            for i in 0..cp {
                let a = samples[start + i];
                let b = samples[start + cp + n - cp + i];
                assert!((a - b).abs() < 1e-5, "symbol {l} cp sample {i}");
            }
        }
    }

    #[test]
    fn empty_grid_produces_silence() {
        let proc_ = OfdmProcessor::new(Bandwidth::Mhz1_4);
        let samples = proc_.modulate(&Grid::new(Bandwidth::Mhz1_4));
        assert!(samples.iter().all(|s| s.abs() < 1e-6));
    }
}
