//! Criterion benches for the depth-optimal search engine: full
//! iterative-deepening runs (the end-to-end number that gates n = 8
//! feasibility), single-budget refutation rounds, and the per-layer
//! compiled 0-1 set application that forms the DFS inner loop.
//!
//! `snet-bench/src/bin/baselines.rs` runs the same scenarios once and
//! records states/sec and transposition hit rates as the committed
//! `results/baselines/search_*.json` files and
//! `results/search_frontier.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use snet_core::prelude::{CompiledLayer, ZeroOneSet};
use snet_search::{search, Layer, MoveSet, SearchConfig, SearchMode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// End-to-end searches: floor-to-optimum iterative deepening including
/// verification of the witness. Throughput is nodes visited per run,
/// measured once up front (single-threaded runs are deterministic).
fn bench_search_full(c: &mut Criterion) {
    let mut g = c.benchmark_group("search");
    g.sample_size(10);
    for (label, n, mode) in [
        ("unrestricted", 5usize, SearchMode::Unrestricted),
        ("unrestricted", 6, SearchMode::Unrestricted),
        ("shuffle-legal", 4, SearchMode::ShuffleLegal),
    ] {
        let mut cfg = SearchConfig::new(n, mode);
        cfg.threads = 1;
        let nodes = search(&cfg).totals.nodes;
        g.throughput(Throughput::Elements(nodes));
        g.bench_with_input(BenchmarkId::new(label, n), &cfg, |b, cfg| {
            b.iter(|| search(cfg));
        });
    }
    g.finish();
}

/// An event-counting sink with no I/O: isolates the cost of the obs
/// emission path itself (buffering, draining, attribute formatting)
/// from any file-writing cost.
struct NullSink(AtomicU64);

impl snet_obs::Sink for NullSink {
    fn event(&self, _e: &snet_obs::Event) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Telemetry overhead: the identical search with no sink installed (the
/// production default — every emit is one relaxed load and an early
/// return) versus a null sink observing every event. The no-sink variant
/// must track `search/unrestricted/6` within the <2% acceptance budget;
/// the sink variant bounds the worst case for traced runs.
fn bench_search_instrumentation(c: &mut Criterion) {
    let mut g = c.benchmark_group("search_obs_overhead");
    g.sample_size(10);
    let mut cfg = SearchConfig::new(6, SearchMode::Unrestricted);
    cfg.threads = 1;
    let nodes = search(&cfg).totals.nodes;
    g.throughput(Throughput::Elements(nodes));
    g.bench_with_input(BenchmarkId::new("no_sink", 6), &cfg, |b, cfg| {
        b.iter(|| search(cfg));
    });
    g.bench_with_input(BenchmarkId::new("null_sink", 6), &cfg, |b, cfg| {
        let sink = Arc::new(NullSink(AtomicU64::new(0)));
        let handle = snet_obs::install_sink(sink);
        b.iter(|| search(cfg));
        snet_obs::remove_sink(handle);
    });
    g.bench_with_input(BenchmarkId::new("flight_recorder", 6), &cfg, |b, cfg| {
        // Always-on path in snetctl: every event is serialized into the
        // per-thread flight ring, no sink, no I/O. The CI perf gate holds
        // this within 5% of no_sink.
        snet_obs::enable_flight();
        b.iter(|| search(cfg));
        snet_obs::disable_flight();
    });
    g.finish();
}

/// The DFS inner loop in isolation: applying one compiled layer to a
/// reachable 0-1 set (masked word shifts, no per-vector iteration).
fn bench_layer_application(c: &mut Criterion) {
    let mut g = c.benchmark_group("search_layer_apply");
    for n in [8usize, 12, 16] {
        let moves = MoveSet::unrestricted(n);
        let layer: &Layer = &moves.moves[moves.moves.len() / 2];
        let compiled = CompiledLayer::compile(n, None, &layer.elements);
        let state = ZeroOneSet::full(n);
        let mut dst = state.clone();
        let mut scratch = state.clone();
        g.throughput(Throughput::Elements(1u64 << n));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| compiled.apply(&state, &mut dst, &mut scratch));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_search_full, bench_search_instrumentation, bench_layer_application);
criterion_main!(benches);
