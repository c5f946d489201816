//! Counting-allocator regression: the steady-state event loop allocates
//! nothing.
//!
//! The engine claims an allocation-free per-event hot path: after the
//! wheel slots, core queues, and metrics have grown to their working
//! size, simulating further subframes must not touch the heap at all.
//! This is the dynamic witness behind the `on_event` purity seed in
//! `rtopex-analyze` — the static pass proves no alloc *call* is
//! reachable from the hot loop, this test proves the runtime actually
//! performs zero.
//!
//! A single `#[test]` drives the engine under every scheduler through
//! `run_until` so the global allocation counter is never polluted by a
//! concurrent test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rtopex_core::global::QueuePolicy;
use rtopex_core::time::Nanos;
use rtopex_sim::engine::Engine;
use rtopex_sim::{SchedulerKind, SimConfig};
use rtopex_workload::Scenario;

/// Wraps the system allocator and counts every allocation and
/// reallocation (frees are irrelevant to the regression).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn cfg(sched: SchedulerKind) -> SimConfig {
    let mut s = Scenario::smoke_test();
    // 1 ms cadence: 600 subframes per cell spans the 200 ms warm-up plus
    // the 300 ms measured window with margin.
    s.subframes = 600;
    let mut c = SimConfig::from_scenario(&s, 500);
    c.scheduler = sched;
    // Sample recording is the one legitimately allocating metric
    // (unbounded Vec push); the hot-loop guarantee is scoped to the
    // fleet/bench configuration, which always runs with it off.
    c.record_samples = false;
    c
}

const WARM_UP: Nanos = Nanos::from_ms(200);
const MEASURE_END: Nanos = Nanos::from_ms(500);

/// Runs `step` after warm-up and returns the allocations it performed.
fn measure(name: &str, mut step: impl FnMut()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    step();
    let n = ALLOCS.load(Ordering::Relaxed) - before;
    eprintln!("{name}: {n} allocations over the steady-state window");
    n
}

#[test]
fn steady_state_event_loop_never_allocates() {
    // The partitioned family shares one policy; exercise all three of its
    // modes because whole-task placement and migration are the busiest
    // event paths. The global dispatcher is the other policy.
    for (name, sched) in [
        ("partitioned", SchedulerKind::Partitioned),
        ("semi-partitioned", SchedulerKind::SemiPartitioned),
        ("rtopex", SchedulerKind::RtOpex { delta_us: 20 }),
        (
            "global-edf",
            SchedulerKind::Global {
                cores: 8,
                policy: QueuePolicy::Edf,
            },
        ),
    ] {
        let c = cfg(sched);
        let mut engine = Engine::new(&c);
        engine.run_until(WARM_UP);
        let n = measure(name, || engine.run_until(MEASURE_END));
        assert_eq!(n, 0, "{name}: steady-state event loop allocated");
        // The run must still complete and account for every subframe.
        let report = engine.into_report();
        assert_eq!(
            report.deadline.total_subframes(),
            (c.num_bs * c.subframes) as u64,
            "{name}"
        );
    }
}
