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

    /// All 14 symbol rows back to back: the layout of one antenna's FFT
    /// batch.
    pub(crate) fn rows_mut(&mut self) -> &mut [Cf32] {
        &mut self.data
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
        let half = m / 2;
        for l in 0..SYMBOLS_PER_SUBFRAME {
            // Centered on DC: the lower half of the allocation sits in the
            // top bins, the upper half from bin 0.
            let sym = grid.symbol(l);
            freq.fill(Cf32::ZERO);
            freq[n - half..].copy_from_slice(&sym[..half]);
            freq[..m - half].copy_from_slice(&sym[half..]);
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
        // Subcarriers 0..m/2 are bins n − m/2..n, the rest bins 0..m − m/2.
        let (lo, hi) = out.split_at_mut(m / 2);
        for (o, v) in lo.iter_mut().zip(&time_buf[n - m / 2..]) {
            *o = v.scale(scale);
        }
        for (o, v) in hi.iter_mut().zip(&time_buf[..m - m / 2]) {
            *o = v.scale(scale);
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

    impl OfdmProcessor {
        /// FFT bin of subcarrier `k`, one `%` per subcarrier: the mapping
        /// the split copies replaced, kept as their oracle.
        fn bin(&self, k: usize) -> usize {
            let n = self.bw.fft_size();
            let m = self.bw.num_subcarriers();
            (n + k - m / 2) % n
        }
    }

    fn bits(v: &[Cf32]) -> Vec<(u32, u32)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    #[test]
    fn split_extraction_is_bit_exact_vs_bin_map() {
        use crate::simd::{force_tier, supported_tiers, test_guard};
        let _g = test_guard();
        for bw in Bandwidth::ALL {
            let proc_ = OfdmProcessor::new(bw);
            let samples = proc_.modulate(&filled_grid(bw));
            let (n, m) = (bw.fft_size(), bw.num_subcarriers());
            let scale = (m as f32).sqrt() / n as f32;
            let (mut time, mut scratch) = (Vec::new(), Vec::new());
            let mut out = vec![Cf32::new(f32::NAN, f32::NAN); m];
            for tier in supported_tiers().map(Some).chain([None]) {
                force_tier(tier);
                for l in 0..SYMBOLS_PER_SUBFRAME {
                    out.fill(Cf32::new(f32::NAN, f32::NAN));
                    proc_.demod_symbol_into(&samples, l, &mut out, &mut time, &mut scratch);
                    // `time` still holds the symbol's FFT output.
                    let want: Vec<Cf32> = (0..m).map(|k| time[proc_.bin(k)].scale(scale)).collect();
                    let what = format!("{} symbol {l} tier {tier:?}", bw.label());
                    assert_eq!(bits(&out), bits(&want), "{what}");
                }
            }
            force_tier(None);
        }
    }

    #[test]
    fn split_mapping_is_bit_exact_vs_bin_map() {
        for bw in Bandwidth::ALL {
            let proc_ = OfdmProcessor::new(bw);
            let grid = filled_grid(bw);
            let n = bw.fft_size();
            let scale = n as f32 / (bw.num_subcarriers() as f32).sqrt();
            let mut want = Vec::new();
            for l in 0..SYMBOLS_PER_SUBFRAME {
                let mut freq = vec![Cf32::ZERO; n];
                for (k, &v) in grid.symbol(l).iter().enumerate() {
                    freq[proc_.bin(k)] = v;
                }
                proc_.plan.inverse(&mut freq);
                let freq: Vec<Cf32> = freq.iter().map(|v| v.scale(scale)).collect();
                want.extend_from_slice(&freq[n - bw.cp_len(l)..]);
                want.extend_from_slice(&freq);
            }
            assert_eq!(bits(&proc_.modulate(&grid)), bits(&want), "{}", bw.label());
        }
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
