//! Criterion benches for the lower-bound engine: Lemma 4.1 on one block,
//! Theorem 4.1 across blocks, and witness extraction. These back the
//! "adversary cost" column of EXPERIMENTS.md. A block costs O(n·lg n):
//! its tree is built one bucketing pass per level, and the wire-indexed
//! Lemma 4.1 engine spends O(|Γ|) per node, plus one renaming pass over
//! Δ₁'s wires when the matching offset is nonzero, then materializes the
//! set family once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snet_adversary::{lemma41, refute, theorem41};
use snet_pattern::{Pattern, Symbol};
use snet_sorters::bitonic_shuffle;
use snet_topology::ReverseDelta;

fn bench_lemma41(c: &mut Criterion) {
    let mut g = c.benchmark_group("lemma41_butterfly");
    for l in [6usize, 8, 10, 12] {
        let n = 1usize << l;
        let delta = ReverseDelta::butterfly(l);
        let p = Pattern::uniform(n, Symbol::M(0));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| lemma41(&delta, &p, l));
        });
    }
    g.finish();
}

fn bench_theorem41(c: &mut Criterion) {
    let mut g = c.benchmark_group("theorem41_bitonic");
    g.sample_size(10);
    for l in [6usize, 8, 10] {
        let n = 1usize << l;
        let ird = bitonic_shuffle(n).to_iterated_reverse_delta();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| theorem41(&ird, l));
        });
    }
    g.finish();
}

fn bench_witness(c: &mut Criterion) {
    let mut g = c.benchmark_group("witness_refute");
    for l in [6usize, 8, 10] {
        let n = 1usize << l;
        let ird = bitonic_shuffle(n).to_iterated_reverse_delta();
        // Refute the deepest refutable prefix: all blocks but the last.
        let prefix = snet_topology::IteratedReverseDelta::new(
            ird.blocks()[..ird.block_count() - 1].to_vec(),
            None,
        );
        let out = theorem41(&prefix, l);
        let net = prefix.to_network();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| refute(&net, &out.input_pattern).unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_lemma41, bench_theorem41, bench_witness);
criterion_main!(benches);
