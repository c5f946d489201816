//! The paper's task/subtask decomposition of subframe processing (Fig. 5).
//!
//! A subframe decode is three **sequential tasks** — FFT, Demod, Decode —
//! each of which splits into **independent subtasks** that may execute
//! concurrently (and, under RT-OPEX, migrate to idle cores). All subtasks
//! of a task must complete before the next task starts (the precedence
//! constraint of §2.2).

/// The three sequential tasks of uplink subframe processing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskKind {
    /// CP removal + FFT, parallel over antenna-symbols.
    Fft,
    /// Channel estimation, equalization, demapping, parallel over symbols.
    Demod,
    /// Descrambling, de-rate-matching, turbo decode, parallel over code blocks.
    Decode,
}

impl TaskKind {
    /// Short label used in experiment output ("fft" / "demod" / "decode").
    pub const fn label(self) -> &'static str {
        match self {
            TaskKind::Fft => "fft",
            TaskKind::Demod => "demod",
            TaskKind::Decode => "decode",
        }
    }
}

/// How many independent subtasks each task of a subframe decode offers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskBreakdown {
    /// FFT subtasks: one per (antenna, OFDM symbol) = `N × 14`.
    pub fft: usize,
    /// Demod subtasks: one per data OFDM symbol = 12 (normal CP).
    pub demod: usize,
    /// Decode subtasks: one per code block = `C` (1–13 depending on MCS).
    pub decode: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(TaskKind::Fft.label(), "fft");
        assert_eq!(TaskKind::Demod.label(), "demod");
        assert_eq!(TaskKind::Decode.label(), "decode");
    }
}
