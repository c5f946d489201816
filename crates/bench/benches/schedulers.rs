//! Scheduler benchmarks: the simulator's throughput per scheduler and the
//! cost of the decisions the paper's runtime takes on its critical path —
//! Algorithm 1 planning and queue operations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rtopex_core::global::{GlobalQueue, QueuePolicy};
use rtopex_core::migration::plan_migration_into;
use rtopex_core::task::{StageProfile, SubframeTask, TaskProfile};
use rtopex_core::time::Nanos;
use rtopex_sim::{run, SchedulerKind, SimConfig};
use rtopex_workload::Scenario;
use std::time::Duration;

fn small_scenario() -> Scenario {
    let mut s = Scenario::smoke_test();
    s.subframes = 1_000;
    s
}

fn bench_sim_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_engine");
    g.measurement_time(Duration::from_secs(4)).sample_size(10);
    let scenario = small_scenario();
    let subframes = (scenario.num_bs * scenario.subframes) as u64;
    for (name, sched) in [
        ("partitioned", SchedulerKind::Partitioned),
        (
            "global8",
            SchedulerKind::Global {
                cores: 8,
                policy: QueuePolicy::Edf,
            },
        ),
        ("rtopex", SchedulerKind::RtOpex { delta_us: 20 }),
    ] {
        let mut cfg = SimConfig::from_scenario(&scenario, 500);
        cfg.scheduler = sched;
        g.throughput(Throughput::Elements(subframes));
        g.bench_function(name, |b| b.iter(|| run(&cfg)));
    }
    g.finish();
}

fn bench_migration_planning(c: &mut Criterion) {
    let mut g = c.benchmark_group("algorithm1");
    g.measurement_time(Duration::from_secs(2)).sample_size(50);
    for hosts in [1usize, 4, 15] {
        let free: Vec<(usize, Nanos)> = (0..hosts)
            .map(|h| (h, Nanos::from_us(200 + 100 * h as u64)))
            .collect();
        let mut plan = Vec::with_capacity(hosts);
        g.bench_with_input(BenchmarkId::new("plan", hosts), &hosts, |b, _| {
            b.iter(|| {
                plan_migration_into(6, Nanos::from_us(117), Nanos::from_us(20), &free, &mut plan)
            })
        });
    }
    g.finish();
}

fn task(deadline_us: u64) -> SubframeTask {
    let stage = StageProfile {
        subtasks: 2,
        subtask: Nanos::from_us(100),
    };
    SubframeTask {
        bs_id: 0,
        subframe_index: 0,
        release: Nanos::ZERO,
        deadline: Nanos::from_us(deadline_us),
        mcs: 16,
        crc_ok: true,
        profile: TaskProfile {
            fft: stage,
            demod: Nanos::from_us(400),
            decode: stage,
            platform_extra: Nanos::ZERO,
        },
    }
}

fn bench_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_primitives");
    g.measurement_time(Duration::from_secs(2)).sample_size(50);
    g.bench_function("global_queue_push_pop_edf", |b| {
        b.iter(|| {
            let mut q = GlobalQueue::new(QueuePolicy::Edf, 64);
            for i in 0..32u64 {
                q.push(task(1_500 + (i * 37) % 500));
            }
            let mut out = 0u64;
            while let Some(t) = q.pop() {
                out += t.deadline.0;
            }
            out
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sim_engines,
    bench_migration_planning,
    bench_queue
);
criterion_main!(benches);
