//! The simulator's events and their total order: time, then kind
//! priority, then insertion sequence. The [`TimingWheel`] keeps them.
//!
//! [`TimingWheel`]: crate::wheel::TimingWheel

use rtopex_core::time::Nanos;
use std::cmp::Ordering;

/// Events the engines schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A core finished (or dropped) its current task.
    TaskDone {
        /// Core index.
        core: usize,
    },
    /// A subframe was released by the transport.
    Release {
        /// Basestation index.
        bs: usize,
        /// Subframe index within the basestation.
        index: u64,
    },
    /// A core's in-flight task reaches its next stage boundary.
    StageBoundary {
        /// Core index.
        core: usize,
    },
}

impl EventKind {
    /// Same-timestamp ordering: completions free resources before new
    /// arrivals claim them; stage boundaries run last so they observe the
    /// post-arrival core states.
    pub(crate) fn priority(&self) -> u8 {
        match self {
            EventKind::TaskDone { .. } => 0,
            EventKind::Release { .. } => 1,
            EventKind::StageBoundary { .. } => 2,
        }
    }
}

/// A scheduled event plus its total-order key `(at, prio, seq)`. The
/// timing wheel re-files entries between levels, so it carries the full
/// key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Entry {
    pub(crate) at: Nanos,
    pub(crate) prio: u8,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert to pop earliest first.
        other
            .at
            .cmp(&self.at)
            .then(other.prio.cmp(&self.prio))
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
