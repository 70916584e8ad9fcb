//! Criterion benches for the compiled verification engine: compilation
//! cost, per-pass pipeline cost over the sorter zoo,
//! compiled-vs-interpreted scalar evaluation (the interpreter rows are the
//! deliberate baseline the IR is measured against), and exhaustive 0-1
//! checking (the compiled 64-lane sharded checker at 1–8 threads).
//!
//! `snet-bench/src/bin/baselines.rs` runs the check, scalar and pass
//! scenarios once and records them as the committed
//! `results/baselines/engine_*.json` and `ir_passes_*.json` files.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use snet_bench::Workload;
use snet_core::ir::{
    check_zero_one_sharded, Executor, Pass, PassManager, Program, RedundantElim, Relayer,
};
use snet_core::network::ComparatorNetwork;
use snet_sorters::{
    bitonic_shuffle, brick_wall, odd_even_mergesort, periodic_balanced, pratt_network,
};

fn bench_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_compile");
    for l in [6usize, 8, 10] {
        let n = 1usize << l;
        let net = bitonic_shuffle(n).to_network();
        g.throughput(Throughput::Elements(net.size() as u64));
        g.bench_with_input(BenchmarkId::new("bitonic_shuffle", n), &n, |b, _| {
            b.iter(|| Executor::compile(&net));
        });
    }
    g.finish();
}

/// The sorter zoo the pass pipeline is exercised over.
fn zoo(n: usize) -> Vec<(&'static str, ComparatorNetwork)> {
    vec![
        ("bitonic_shuffle", bitonic_shuffle(n).to_network()),
        ("odd_even", odd_even_mergesort(n)),
        ("pratt", pratt_network(n)),
        ("periodic", periodic_balanced(n)),
        ("brick_wall", brick_wall(n)),
    ]
}

fn bench_passes(c: &mut Criterion) {
    // Pipeline cost per pass: the canonical pipeline on the raw program,
    // then each optimizing pass on a canonically-normalized base. Depth
    // and size before/after are reported once per network on stderr (the
    // committed numbers come from the baselines binary).
    let mut g = c.benchmark_group("ir_passes");
    let n = 64usize;
    for (name, net) in zoo(n) {
        let raw = Program::from_network(&net);
        g.bench_with_input(BenchmarkId::new("canonical", name), &name, |b, _| {
            b.iter(|| {
                let mut p = raw.clone();
                PassManager::canonical().run(&mut p);
                p
            });
        });
        let mut base = raw.clone();
        let records = PassManager::optimizing().run(&mut base);
        for r in &records {
            eprintln!(
                "[{name}] {}: ops {}→{}, size {}→{}, depth {}→{}",
                r.name,
                r.ops_before,
                r.ops_after,
                r.size_before,
                r.size_after,
                r.depth_before,
                r.depth_after
            );
        }
        let mut canon = raw.clone();
        PassManager::canonical().run(&mut canon);
        g.bench_with_input(BenchmarkId::new("redundant_elim", name), &name, |b, _| {
            b.iter(|| {
                let mut p = canon.clone();
                RedundantElim::default().run(&mut p);
                p
            });
        });
        g.bench_with_input(BenchmarkId::new("relayer", name), &name, |b, _| {
            b.iter(|| {
                let mut p = canon.clone();
                Relayer.run(&mut p);
                p
            });
        });
    }
    g.finish();
}

fn bench_scalar(c: &mut Criterion) {
    // The shuffle form routes every level, so this isolates what
    // compile-time route absorption buys a single evaluation.
    let mut g = c.benchmark_group("scalar_evaluate");
    for l in [8usize, 10] {
        let n = 1usize << l;
        let net = bitonic_shuffle(n).to_network();
        let compiled = Executor::compile(&net);
        let mut w = Workload::new(11);
        let input = w.permutation(n);
        g.throughput(Throughput::Elements(net.size() as u64));
        g.bench_with_input(BenchmarkId::new("interpreter", n), &n, |b, _| {
            b.iter(|| net.evaluate(&input));
        });
        g.bench_with_input(BenchmarkId::new("compiled", n), &n, |b, _| {
            let mut values = input.clone();
            let mut scratch = Vec::new();
            b.iter(|| {
                values.copy_from_slice(&input);
                compiled.run_scalar_in_place(&mut values, &mut scratch);
            });
        });
    }
    g.finish();
}

fn bench_exhaustive(c: &mut Criterion) {
    // The headline scenario: full 2ⁿ 0-1 verification by the compiled
    // sharded checker. Bitonic is power-of-two-only, so the 2²⁰-input
    // row uses the 20-wire brick wall.
    let mut g = c.benchmark_group("exhaustive_01_check");
    g.sample_size(10);
    let nets =
        [("bitonic_shuffle", bitonic_shuffle(16).to_network()), ("brick_wall", brick_wall(20))];
    for (name, net) in &nets {
        let n = net.wires();
        g.throughput(Throughput::Elements(1u64 << n));
        for threads in [1usize, 2, 4, 8] {
            g.bench_with_input(
                BenchmarkId::new(format!("{name}_sharded_t{threads}"), n),
                &n,
                |b, _| {
                    b.iter(|| check_zero_one_sharded(net, threads));
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_compile, bench_passes, bench_scalar, bench_exhaustive);
criterion_main!(benches);
