//! A hierarchical timing wheel tuned to the 1 ms subframe cadence.
//!
//! A `BinaryHeap` of every pending event pays `O(log n)` per operation
//! with a comparison-heavy inner loop; at fleet scale (64 hosts × dozens
//! of cells) the queue holds thousands of events and the heap becomes the
//! simulator's bottleneck. Nearly all events, however, land within a few
//! milliseconds of *now* — releases repeat every 1 ms and stage
//! boundaries sit a few hundred µs out — so a classic
//! hashed-hierarchical timing wheel (Varghese & Lauck) gives amortized
//! `O(1)` push/pop:
//!
//! * **slot** — 2¹² ns ≈ 4.1 µs of simulated time;
//! * **level 0** — 512 slots ≈ 2.1 ms: the working set (releases, stage
//!   boundaries, task completions);
//! * **level 1** — 512 buckets of 512 slots each ≈ 1.07 s: rare
//!   far-future events (e.g. a spare core's "never" release sentinel
//!   stays out of the way here);
//! * **overflow** — an unsorted `Vec` beyond ≈ 1.07 s, scanned only in
//!   the (practically never hit) case that everything nearer is empty.
//!
//! Events within the *current* slot sit in a tiny [`BinaryHeap`] ordered
//! by the full `(time, kind-priority, sequence)` key, so pop order —
//! including FIFO tie-breaking — is exactly a single heap's; this
//! module's tests keep that heap as the ordering oracle.
//!
//! Two invariants make the equivalence argument go through:
//!
//! 1. every pending event with `slot ≤ cur_slot` lives in the active
//!    heap; level-0/1/overflow only ever hold strictly-later slots, so
//!    the active heap's minimum is the global minimum;
//! 2. level-1 buckets and the overflow are re-filed whenever the wheel
//!    advances to a new granule (bucket span), so a far-future event can
//!    never be overtaken by a nearer one that was filed later.
//!
//! All steady-state operations are allocation-free: slot vectors, the
//! active heap, and the cascade scratch buffer are reused; `mem::swap`
//! (never `mem::take` on the buckets) preserves their capacity.

use crate::event::{Entry, EventKind};
use rtopex_core::time::Nanos;
use std::collections::BinaryHeap;

/// log₂ of the slot width in ns (2¹² ns ≈ 4.1 µs).
const SLOT_SHIFT: u32 = 12;
/// log₂ of the slots per level (512).
const GRANULE_SHIFT: u32 = 9;
/// Slots (and buckets) per level.
const SLOTS: usize = 1 << GRANULE_SHIFT;
/// Mask for an index within a level.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;

/// Occupancy bitmap over one 512-entry level.
type Occupancy = [u64; SLOTS / 64];

fn set_bit(map: &mut Occupancy, i: usize) {
    map[i >> 6] |= 1 << (i & 63);
}

fn clear_bit(map: &mut Occupancy, i: usize) {
    map[i >> 6] &= !(1 << (i & 63));
}

/// First set bit at index ≥ `start`, if any.
fn next_set_from(map: &Occupancy, start: usize) -> Option<usize> {
    if start >= SLOTS {
        return None;
    }
    let mut w = start >> 6;
    let mut bits = map[w] & (!0u64 << (start & 63));
    loop {
        if bits != 0 {
            return Some((w << 6) + bits.trailing_zeros() as usize);
        }
        w += 1;
        if w == map.len() {
            return None;
        }
        bits = map[w];
    }
}

/// First set bit in circular order starting at `start` (mod 512).
fn next_set_circular(map: &Occupancy, start: usize) -> Option<usize> {
    let start = start % SLOTS;
    next_set_from(map, start).or_else(|| next_set_from(map, 0))
}

/// Hierarchical timing wheel with a single heap's exact pop order.
#[derive(Debug)]
pub struct TimingWheel {
    /// The slot currently being drained (absolute slot index).
    cur_slot: u64,
    /// Monotone insertion sequence for FIFO tie-breaking.
    seq: u64,
    /// Pending events across all levels.
    count: usize,
    /// Events in slots ≤ `cur_slot`, ordered by the full key.
    cur: BinaryHeap<Entry>,
    /// Level 0: one vector per slot of the current granule.
    l0: Vec<Vec<Entry>>,
    l0_occ: Occupancy,
    /// Level 1: one bucket per granule within the ≈ 1.07 s horizon.
    l1: Vec<Vec<Entry>>,
    l1_occ: Occupancy,
    /// Events beyond the level-1 horizon.
    overflow: Vec<Entry>,
    /// Reusable cascade buffer (capacity survives across cascades).
    scratch: Vec<Entry>,
}

impl Default for TimingWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimingWheel {
    /// Creates an empty wheel positioned at time zero, with slot and
    /// cascade buffers prewarmed so the steady-state loop never
    /// allocates.
    pub fn new() -> Self {
        TimingWheel {
            cur_slot: 0,
            seq: 0,
            count: 0,
            cur: BinaryHeap::with_capacity(256),
            l0: (0..SLOTS).map(|_| Vec::with_capacity(16)).collect(),
            l0_occ: [0; SLOTS / 64],
            l1: (0..SLOTS).map(|_| Vec::with_capacity(8)).collect(),
            l1_occ: [0; SLOTS / 64],
            overflow: Vec::new(),
            scratch: Vec::with_capacity(64),
        }
    }

    /// Schedules `kind` at time `at`.
    pub fn push(&mut self, at: Nanos, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.count += 1;
        self.place(Entry {
            at,
            prio: kind.priority(),
            seq,
            kind,
        });
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(Nanos, EventKind)> {
        if !self.refill() {
            return None;
        }
        self.count -= 1;
        self.cur.pop().map(|e| (e.at, e.kind))
    }

    /// Timestamp of the earliest pending event (advances the wheel's
    /// position lazily; pop order is unaffected).
    pub fn peek_time(&mut self) -> Option<Nanos> {
        if !self.refill() {
            return None;
        }
        self.cur.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Files an entry into the level its slot falls in. Re-filing on
    /// cascade reuses the entry's original `seq`, so FIFO order among
    /// same-key events survives any number of moves between levels.
    fn place(&mut self, e: Entry) {
        let slot = e.at.0 >> SLOT_SHIFT;
        if slot <= self.cur_slot {
            // Current (or, defensively, past) slot: straight into the
            // active heap, which orders by the full (at, prio, seq) key.
            self.cur.push(e);
            return;
        }
        let g = slot >> GRANULE_SHIFT;
        let gc = self.cur_slot >> GRANULE_SHIFT;
        if g == gc {
            let idx = (slot & SLOT_MASK) as usize;
            self.l0[idx].push(e);
            set_bit(&mut self.l0_occ, idx);
        } else if g - gc <= SLOT_MASK {
            // Within the level-1 horizon. Bucket indices are granule
            // mod 512; the window (gc, gc+511] maps injectively, so a
            // bucket never mixes granules (see the push-time argument
            // in DESIGN.md).
            let idx = (g & SLOT_MASK) as usize;
            self.l1[idx].push(e);
            set_bit(&mut self.l1_occ, idx);
        } else {
            self.overflow.push(e);
        }
    }

    /// Ensures the active heap holds the global minimum; returns false
    /// when the wheel is empty.
    fn refill(&mut self) -> bool {
        while self.cur.is_empty() {
            if !self.advance_once() {
                return false;
            }
        }
        true
    }

    /// Advances the wheel position one step: next occupied level-0
    /// slot, else cascade the next level-1 bucket, else drain the
    /// overflow. Returns false when nothing is pending anywhere.
    fn advance_once(&mut self) -> bool {
        // Level 0: jump to the next occupied slot in this granule.
        let cur_idx = (self.cur_slot & SLOT_MASK) as usize;
        if let Some(idx) = next_set_from(&self.l0_occ, cur_idx + 1) {
            clear_bit(&mut self.l0_occ, idx);
            self.cur_slot = (self.cur_slot & !SLOT_MASK) | idx as u64;
            // Disjoint-field borrows: drain the slot buffer (capacity
            // kept) while feeding the active heap.
            for e in self.l0[idx].drain(..) {
                self.cur.push(e);
            }
            return true;
        }

        // Level 1: cascade the bucket holding the nearest granule. The
        // circular scan from gc+1 finds the minimum granule because
        // pending level-1 granules all lie in (gc, gc+511].
        let gc = self.cur_slot >> GRANULE_SHIFT;
        let start = (gc as usize & SLOT_MASK as usize) + 1;
        if let Some(idx) = next_set_circular(&self.l1_occ, start) {
            clear_bit(&mut self.l1_occ, idx);
            let d = (idx as u64).wrapping_sub(gc + 1) & SLOT_MASK;
            let g_new = gc + 1 + d;
            self.cur_slot = g_new << GRANULE_SHIFT;
            let mut batch = std::mem::take(&mut self.scratch);
            std::mem::swap(&mut batch, &mut self.l1[idx]);
            for e in batch.drain(..) {
                self.place(e);
            }
            self.scratch = batch;
            // Invariant 2: the granule advanced, so overflow entries may
            // now fall inside the level-1 window — re-file them before
            // anything pops, or a nearer overflow event could be
            // overtaken.
            if !self.overflow.is_empty() {
                self.refile_overflow();
            }
            return true;
        }

        // Overflow: jump straight to the earliest far-future event and
        // re-file everything relative to the new position.
        if let Some(min_at) = self.overflow.iter().map(|e| e.at).min() {
            self.cur_slot = min_at.0 >> SLOT_SHIFT;
            self.refile_overflow();
            return true;
        }
        false
    }

    /// Re-files every overflow entry against the current position;
    /// still-too-far entries land back in the overflow.
    fn refile_overflow(&mut self) {
        let mut batch = std::mem::take(&mut self.scratch);
        std::mem::swap(&mut batch, &mut self.overflow);
        for e in batch.drain(..) {
            self.place(e);
        }
        self.scratch = batch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The ordering oracle: one heap of every pending event, keyed like
    /// the wheel's entries.
    #[derive(Default)]
    struct EventQueue {
        heap: BinaryHeap<Entry>,
        seq: u64,
    }

    impl EventQueue {
        fn push(&mut self, at: Nanos, kind: EventKind) {
            self.heap.push(Entry {
                at,
                prio: kind.priority(),
                seq: self.seq,
                kind,
            });
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(Nanos, EventKind)> {
            self.heap.pop().map(|e| (e.at, e.kind))
        }
    }

    fn granule_time(g: u64, extra_ns: u64) -> Nanos {
        Nanos((g << (SLOT_SHIFT + GRANULE_SHIFT)) + extra_ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut w = TimingWheel::new();
        w.push(Nanos::from_us(30), EventKind::TaskDone { core: 0 });
        w.push(Nanos::from_us(10), EventKind::TaskDone { core: 1 });
        w.push(Nanos::from_us(20), EventKind::TaskDone { core: 2 });
        let order: Vec<u64> = std::iter::from_fn(|| w.pop().map(|(t, _)| t.0)).collect();
        assert_eq!(order, vec![10_000, 20_000, 30_000]);
    }

    #[test]
    fn same_time_done_before_release_before_stage() {
        let mut w = TimingWheel::new();
        let t = Nanos::from_us(5);
        w.push(t, EventKind::StageBoundary { core: 0 });
        w.push(t, EventKind::Release { bs: 0, index: 0 });
        w.push(t, EventKind::TaskDone { core: 0 });
        assert!(matches!(w.pop().unwrap().1, EventKind::TaskDone { .. }));
        assert!(matches!(w.pop().unwrap().1, EventKind::Release { .. }));
        assert!(matches!(
            w.pop().unwrap().1,
            EventKind::StageBoundary { .. }
        ));
    }

    #[test]
    fn fifo_within_same_time_and_kind() {
        let mut w = TimingWheel::new();
        let t = Nanos::from_us(5);
        for bs in 0..4 {
            w.push(t, EventKind::Release { bs, index: 0 });
        }
        for want in 0..4 {
            match w.pop().unwrap().1 {
                EventKind::Release { bs, .. } => assert_eq!(bs, want),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn len_and_empty() {
        let mut w = TimingWheel::new();
        assert!(w.is_empty());
        w.push(Nanos::ZERO, EventKind::TaskDone { core: 0 });
        assert_eq!(w.len(), 1);
        w.pop();
        assert!(w.is_empty());
        assert!(w.pop().is_none());
    }

    #[test]
    fn peek_matches_pop() {
        let mut w = TimingWheel::new();
        for us in [900u64, 5, 4_000, 37] {
            w.push(Nanos::from_us(us), EventKind::TaskDone { core: 0 });
        }
        while let Some(t) = w.peek_time() {
            let (popped, _) = w.pop().unwrap();
            assert_eq!(popped, t);
        }
        assert!(w.is_empty());
    }

    #[test]
    fn crosses_slots_granules_and_overflow() {
        let mut w = TimingWheel::new();
        // Current slot, later level-0 slot, level-1 granule, overflow.
        let times = [
            Nanos(100),           // slot 0
            Nanos::from_us(500),  // level 0
            Nanos::from_ms(3),    // level 1 (granule 1)
            granule_time(600, 7), // overflow (granule > 511)
            Nanos::from_ms(900),  // level 1, far granule
        ];
        for (i, &t) in times.iter().enumerate() {
            w.push(t, EventKind::TaskDone { core: i });
        }
        let mut sorted: Vec<Nanos> = times.to_vec();
        sorted.sort();
        let popped: Vec<Nanos> = std::iter::from_fn(|| w.pop().map(|(t, _)| t)).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn overflow_is_refiled_when_the_wheel_advances() {
        // The nasty interleaving: a far event X (overflow at push time)
        // must still pop *after* a nearer event W pushed much later,
        // once the wheel has advanced far enough that X fits level 1.
        let mut w = TimingWheel::new();
        let x = granule_time(600, 0); // overflow while gc = 0
        let z = granule_time(400, 0); // level 1
        w.push(x, EventKind::TaskDone { core: 0 });
        w.push(z, EventKind::TaskDone { core: 1 });
        // Pop Z: the wheel advances to granule 400 and must re-file X
        // (600 − 400 = 200 ≤ 511 → level 1).
        assert_eq!(w.pop().unwrap().0, z);
        // Now push W between Z and X.
        let wt = granule_time(450, 0);
        w.push(wt, EventKind::TaskDone { core: 2 });
        assert_eq!(w.pop().unwrap().0, wt);
        assert_eq!(w.pop().unwrap().0, x);
        assert!(w.is_empty());
    }

    /// The load-bearing property: for any interleaving of pushes and
    /// pops with non-time-travelling pushes, the wheel's pop sequence —
    /// times, kinds, and tie-break order — is bit-identical to one
    /// heap's.
    #[test]
    fn randomized_equivalence_with_event_queue() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
            let mut wheel = TimingWheel::new();
            let mut heap = EventQueue::default();
            let mut now = Nanos::ZERO;
            for step in 0..2_000 {
                if rng.gen_bool(0.6) || wheel.is_empty() {
                    // Mostly near-future (the engine's regime), with
                    // occasional granule-crossing and overflow pushes.
                    let off: u64 = match rng.gen_range(0..10) {
                        0..=6 => rng.gen_range(0..3_000_000),    // ≤ 3 ms
                        7 | 8 => rng.gen_range(0..(1u64 << 26)), // ≤ 67 ms
                        _ => rng.gen_range(0..(1u64 << 34)),     // ≤ 17 s
                    };
                    // Coin-flip exact ties to exercise FIFO order.
                    let at = if rng.gen_bool(0.2) {
                        now
                    } else {
                        Nanos(now.0 + off)
                    };
                    let kind = match rng.gen_range(0..3) {
                        0 => EventKind::TaskDone { core: step },
                        1 => EventKind::Release {
                            bs: step,
                            index: seed,
                        },
                        _ => EventKind::StageBoundary { core: step },
                    };
                    wheel.push(at, kind);
                    heap.push(at, kind);
                } else {
                    let a = wheel.pop();
                    let b = heap.pop();
                    assert_eq!(a, b, "seed {seed} step {step}");
                    if let Some((t, _)) = a {
                        now = t;
                    }
                }
                assert_eq!(wheel.len(), heap.heap.len());
            }
            loop {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "drain, seed {seed}");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
