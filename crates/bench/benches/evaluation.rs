//! Criterion benches for network evaluation: single-input (interpreter
//! baseline vs the compiled IR, asserted identical up front), batched with
//! a reused scratch buffer, and the comparison-tracing evaluator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use snet_bench::Workload;
use snet_core::ir::Executor;
use snet_core::trace::ComparisonTrace;
use snet_sorters::{bitonic_circuit, odd_even_mergesort};

fn bench_single(c: &mut Criterion) {
    let mut g = c.benchmark_group("evaluate_single");
    for l in [6usize, 8, 10, 12] {
        let n = 1usize << l;
        let net = bitonic_circuit(n);
        let exec = Executor::compile(&net);
        let mut w = Workload::new(1);
        let input = w.permutation(n);
        assert_eq!(net.evaluate(&input), exec.evaluate(&input), "IR must match interpreter");
        g.throughput(Throughput::Elements(net.size() as u64));
        g.bench_with_input(BenchmarkId::new("interpreter", n), &n, |b, _| {
            b.iter(|| net.evaluate(&input));
        });
        g.bench_with_input(BenchmarkId::new("compiled_ir", n), &n, |b, _| {
            let mut values = input.clone();
            let mut scratch = Vec::new();
            b.iter(|| {
                values.copy_from_slice(&input);
                exec.run_scalar_in_place(&mut values, &mut scratch);
            });
        });
    }
    g.finish();
}

fn bench_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("evaluate_batch_256_inputs");
    for l in [6usize, 8, 10] {
        let n = 1usize << l;
        let net = odd_even_mergesort(n);
        let mut w = Workload::new(2);
        let inputs = w.permutations(n, 256);
        g.throughput(Throughput::Elements(256));
        g.bench_with_input(BenchmarkId::new("odd_even", n), &n, |b, _| {
            b.iter(|| Executor::compile(&net).evaluate_batch(&inputs));
        });
    }
    g.finish();
}

fn bench_traced(c: &mut Criterion) {
    let mut g = c.benchmark_group("evaluate_traced");
    for l in [6usize, 8, 10] {
        let n = 1usize << l;
        let net = bitonic_circuit(n);
        let mut w = Workload::new(3);
        let input = w.permutation(n);
        g.bench_with_input(BenchmarkId::new("trace_record", n), &n, |b, _| {
            b.iter(|| ComparisonTrace::record(&net, &input));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_single, bench_batch, bench_traced);
criterion_main!(benches);
