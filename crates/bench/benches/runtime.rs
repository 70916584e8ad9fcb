//! Criterion benches for the counting-network runtime: shared-counter
//! throughput under thread contention, a single `AtomicUsize` versus
//! bitonic counting networks of growing width. The networks trade a
//! longer per-op path (`depth + 1` RMWs) for spreading contention across
//! `O(w lg²w)` balancers — the crossover is the point of EXPERIMENTS.md
//! E19, and `snet-bench/src/bin/baselines.rs` records the same
//! scenarios as committed `results/baselines/counter_*.json` files for
//! `snetctl bench diff`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use snet_runtime::CountingNetwork;
use std::sync::atomic::{AtomicU64, Ordering};

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 20_000;

/// All threads hammering one cache line: the structure the counting
/// network is built to beat.
fn bench_single_atomic(c: &mut Criterion) {
    let mut g = c.benchmark_group("counter_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements((THREADS * OPS_PER_THREAD) as u64));
    g.bench_function("single_atomic", |b| {
        b.iter(|| {
            let shared = AtomicU64::new(0);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        for _ in 0..OPS_PER_THREAD {
                            shared.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            shared.load(Ordering::Relaxed)
        });
    });
    g.finish();
}

/// Bitonic counting networks: per-op path grows as `lg w (lg w + 1)/2 +
/// 1` RMWs, contention per balancer shrinks as the width spreads load.
fn bench_counting_networks(c: &mut Criterion) {
    let mut g = c.benchmark_group("counter_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements((THREADS * OPS_PER_THREAD) as u64));
    for width in [4usize, 8, 16] {
        g.bench_with_input(BenchmarkId::new("bitonic", width), &width, |b, &w| {
            b.iter(|| {
                let net = CountingNetwork::bitonic(w);
                std::thread::scope(|s| {
                    for _ in 0..THREADS {
                        s.spawn(|| {
                            for _ in 0..OPS_PER_THREAD {
                                net.traverse();
                            }
                        });
                    }
                });
                net.total()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_single_atomic, bench_counting_networks);
criterion_main!(benches);
