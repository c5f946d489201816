//! LTE numerology: bandwidths, resource-grid dimensions, sampling rates.
//!
//! Normal cyclic prefix, FDD frame structure. All values follow the standard
//! LTE numerology (3GPP TS 36.211); the paper's experiments use the 10 MHz
//! configuration (50 PRBs, 15.36 Msps, 15360 samples per 1 ms subframe).

/// Number of OFDM symbols in a subframe (normal cyclic prefix, 2 slots × 7).
pub const SYMBOLS_PER_SUBFRAME: usize = 14;

/// Number of OFDM symbols per slot (normal cyclic prefix).
pub const SYMBOLS_PER_SLOT: usize = 7;

/// Number of subcarriers in a physical resource block.
pub const SUBCARRIERS_PER_PRB: usize = 12;

/// Index (within each slot) of the OFDM symbol carrying the uplink DMRS.
pub const DMRS_SYMBOL_IN_SLOT: usize = 3;

/// Supported LTE channel bandwidths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Bandwidth {
    /// 1.4 MHz — 6 PRBs, 128-point FFT.
    Mhz1_4,
    /// 3 MHz — 15 PRBs, 256-point FFT.
    Mhz3,
    /// 5 MHz — 25 PRBs, 512-point FFT.
    Mhz5,
    /// 10 MHz — 50 PRBs, 1024-point FFT (the paper's configuration).
    Mhz10,
    /// 15 MHz — 75 PRBs, 1536-point FFT.
    Mhz15,
    /// 20 MHz — 100 PRBs, 2048-point FFT.
    Mhz20,
}

impl Bandwidth {
    /// All supported bandwidths, narrowest first.
    pub const ALL: [Bandwidth; 6] = [
        Bandwidth::Mhz1_4,
        Bandwidth::Mhz3,
        Bandwidth::Mhz5,
        Bandwidth::Mhz10,
        Bandwidth::Mhz15,
        Bandwidth::Mhz20,
    ];

    /// Number of physical resource blocks.
    pub const fn num_prbs(self) -> usize {
        match self {
            Bandwidth::Mhz1_4 => 6,
            Bandwidth::Mhz3 => 15,
            Bandwidth::Mhz5 => 25,
            Bandwidth::Mhz10 => 50,
            Bandwidth::Mhz15 => 75,
            Bandwidth::Mhz20 => 100,
        }
    }

    /// FFT size (samples per OFDM symbol body).
    pub const fn fft_size(self) -> usize {
        match self {
            Bandwidth::Mhz1_4 => 128,
            Bandwidth::Mhz3 => 256,
            Bandwidth::Mhz5 => 512,
            Bandwidth::Mhz10 => 1024,
            Bandwidth::Mhz15 => 1536,
            Bandwidth::Mhz20 => 2048,
        }
    }

    /// Number of occupied data subcarriers (12 per PRB).
    pub const fn num_subcarriers(self) -> usize {
        self.num_prbs() * SUBCARRIERS_PER_PRB
    }

    /// Sampling rate in samples per second (`fft_size × 15 kHz`).
    pub const fn sample_rate_hz(self) -> u64 {
        self.fft_size() as u64 * 15_000
    }

    /// Cyclic-prefix length in samples for the first symbol of each slot.
    pub const fn cp_first(self) -> usize {
        self.fft_size() * 160 / 2048
    }

    /// Cyclic-prefix length in samples for symbols 1–6 of each slot.
    pub const fn cp_other(self) -> usize {
        self.fft_size() * 144 / 2048
    }

    /// Cyclic-prefix length of symbol `l ∈ [0, 13]` of a subframe.
    pub const fn cp_len(self, symbol: usize) -> usize {
        if symbol.is_multiple_of(SYMBOLS_PER_SLOT) {
            self.cp_first()
        } else {
            self.cp_other()
        }
    }

    /// Total IQ samples in one 1 ms subframe (per antenna).
    pub const fn samples_per_subframe(self) -> usize {
        // Two slots of (cp_first + fft) + 6 × (cp_other + fft).
        2 * (self.cp_first() + self.fft_size() + 6 * (self.cp_other() + self.fft_size()))
    }

    /// Sample offset of the start (CP included) of symbol `l ∈ [0,13]`.
    pub const fn symbol_offset(self, symbol: usize) -> usize {
        let slot = symbol / SYMBOLS_PER_SLOT;
        let l = symbol % SYMBOLS_PER_SLOT;
        let slot_len = self.samples_per_subframe() / 2;
        let mut off = slot * slot_len;
        if l > 0 {
            off += self.cp_first() + self.fft_size();
            off += (l - 1) * (self.cp_other() + self.fft_size());
        }
        off
    }

    /// Total resource elements in one subframe across all PRBs
    /// (the paper's "8400 REs" figure for 10 MHz).
    pub const fn total_res(self) -> usize {
        self.num_subcarriers() * SYMBOLS_PER_SUBFRAME
    }

    /// Resource elements usable for data in a PUSCH subframe: everything
    /// except the two DMRS symbols (one per slot).
    pub const fn data_res(self) -> usize {
        self.num_subcarriers() * (SYMBOLS_PER_SUBFRAME - 2)
    }

    /// Human-readable label such as `"10MHz"`.
    pub const fn label(self) -> &'static str {
        match self {
            Bandwidth::Mhz1_4 => "1.4MHz",
            Bandwidth::Mhz3 => "3MHz",
            Bandwidth::Mhz5 => "5MHz",
            Bandwidth::Mhz10 => "10MHz",
            Bandwidth::Mhz15 => "15MHz",
            Bandwidth::Mhz20 => "20MHz",
        }
    }
}

/// Indices (within a subframe) of the OFDM symbols that carry DMRS.
pub const fn dmrs_symbols() -> [usize; 2] {
    [DMRS_SYMBOL_IN_SLOT, SYMBOLS_PER_SLOT + DMRS_SYMBOL_IN_SLOT]
}

/// Returns `true` if subframe symbol `l` is a DMRS symbol.
pub const fn is_dmrs_symbol(l: usize) -> bool {
    l % SYMBOLS_PER_SLOT == DMRS_SYMBOL_IN_SLOT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_mhz_matches_paper_numbers() {
        let bw = Bandwidth::Mhz10;
        assert_eq!(bw.num_prbs(), 50);
        assert_eq!(bw.fft_size(), 1024);
        assert_eq!(bw.sample_rate_hz(), 15_360_000);
        assert_eq!(bw.samples_per_subframe(), 15_360);
        assert_eq!(bw.total_res(), 8_400); // the paper's RE count
        assert_eq!(bw.num_subcarriers(), 600);
    }

    #[test]
    fn five_mhz_sampling() {
        let bw = Bandwidth::Mhz5;
        assert_eq!(bw.sample_rate_hz(), 7_680_000);
        assert_eq!(bw.samples_per_subframe(), 7_680);
    }

    #[test]
    fn cp_lengths_scale_with_fft() {
        assert_eq!(Bandwidth::Mhz20.cp_first(), 160);
        assert_eq!(Bandwidth::Mhz20.cp_other(), 144);
        assert_eq!(Bandwidth::Mhz10.cp_first(), 80);
        assert_eq!(Bandwidth::Mhz10.cp_other(), 72);
    }

    #[test]
    fn symbol_offsets_are_increasing_and_cover_subframe() {
        for bw in Bandwidth::ALL {
            let mut prev_end = 0usize;
            for l in 0..SYMBOLS_PER_SUBFRAME {
                let off = bw.symbol_offset(l);
                assert_eq!(off, prev_end, "symbol {l} of {}", bw.label());
                prev_end = off + bw.cp_len(l) + bw.fft_size();
            }
            assert_eq!(prev_end, bw.samples_per_subframe());
        }
    }

    #[test]
    fn dmrs_symbols_are_3_and_10() {
        assert_eq!(dmrs_symbols(), [3, 10]);
        assert!(is_dmrs_symbol(3));
        assert!(is_dmrs_symbol(10));
        assert!(!is_dmrs_symbol(0));
        assert!(!is_dmrs_symbol(7));
    }

    #[test]
    fn data_res_excludes_two_symbols() {
        assert_eq!(Bandwidth::Mhz10.data_res(), 600 * 12);
    }
}
