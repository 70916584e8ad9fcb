//! The compiled intermediate representation and its pass pipeline — the
//! single canonical execution substrate of the workspace.
//!
//! Module map:
//!
//! * [`program`] — [`Program`]: the flat IR (`(a, b, kind)` ops grouped
//!   into levels, `origins` provenance, final `output_map` gather) lowered
//!   from either Section 1 model with every route absorbed into the slot
//!   numbering, plus the scalar / traced / 64-lane backends, each one loop
//!   over the ops.
//! * [`passes`] — [`PassManager`] and the four passes: [`NormalizeCmpRev`]
//!   and [`StripPassSwap`] (together the *canonical* pipeline), plus
//!   [`RedundantElim`] and [`Relayer`] in the *optimizing* pipeline.
//! * [`exec`] — [`Executor`]: one compiled handle over the scalar,
//!   64-lane 0-1, sharded-verification, and batched map-reduce backends.
//!   Every crate in the workspace evaluates through this.
//! * `image` — the first level's image packed into 64-lane blocks, which
//!   [`Executor::check_zero_one`] checks in place of most of the `2ⁿ`
//!   inputs.
//! * [`canon`] — [`CanonicalHash`]: SHA-256 content addressing over the
//!   canonical form, the key of the `snet-store` artifact cache, and
//!   [`Canonical`], a hash that keeps its canonical program for the
//!   [`Executor`] a cache miss runs.
//!
//! The interpreters in [`crate::network`] and [`crate::register`] remain
//! the *reference semantics*; the differential suites assert the IR is
//! bit-identical to them.

pub mod canon;
pub mod exec;
mod image;
pub mod passes;
pub mod program;

pub use canon::{Canonical, CanonicalHash};
pub use exec::{check_zero_one_sharded, default_engine_threads, evaluate, Executor};
pub use passes::{
    exhaustive_fired_masks, NormalizeCmpRev, Pass, PassManager, PassRecord, RedundantElim, Relayer,
    StripPassSwap,
};
pub use program::{Op, Origin, Program};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Element, ElementKind};
    use crate::network::{ComparatorNetwork, Level};
    use crate::perm::Permutation;
    use crate::register::RegisterNetwork;
    use crate::sortcheck::{check_zero_one_exhaustive, SortCheck};
    use rand::{Rng, SeedableRng};

    fn brick_wall(n: usize) -> ComparatorNetwork {
        let mut net = ComparatorNetwork::empty(n);
        for round in 0..n {
            let start = round % 2;
            let elements = (start..n.saturating_sub(1))
                .step_by(2)
                .map(|i| Element::cmp(i as u32, i as u32 + 1))
                .collect();
            net.push_elements(elements).unwrap();
        }
        net
    }

    /// A network exercising every construct lowering and the pipeline
    /// absorb: routes, Swap, CmpRev, Pass.
    fn gnarly(n: usize, seed: u64) -> ComparatorNetwork {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut levels = Vec::new();
        for _ in 0..6 {
            let route =
                if rng.gen_bool(0.6) { Some(Permutation::random(n, &mut rng)) } else { None };
            let mut wires: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                wires.swap(i, rng.gen_range(0..=i));
            }
            let mut elements = Vec::new();
            for pair in wires.chunks(2) {
                if pair.len() < 2 || rng.gen_bool(0.25) {
                    continue;
                }
                let kind = match rng.gen_range(0..4u32) {
                    0 => ElementKind::Cmp,
                    1 => ElementKind::CmpRev,
                    2 => ElementKind::Swap,
                    _ => ElementKind::Pass,
                };
                elements.push(Element { a: pair[0], b: pair[1], kind });
            }
            levels.push(Level { route, elements });
        }
        ComparatorNetwork::new(n, levels).unwrap()
    }

    fn all_pipelines() -> Vec<(&'static str, PassManager)> {
        vec![
            ("empty", PassManager::empty()),
            ("canonical", PassManager::canonical()),
            ("optimizing", PassManager::optimizing()),
            // Deliberately weird orders: each pass must be standalone-sound.
            ("strip-first", PassManager::empty().with(StripPassSwap).with(NormalizeCmpRev)),
            (
                "relayer-early",
                PassManager::empty()
                    .with(Relayer)
                    .with(NormalizeCmpRev)
                    .with(StripPassSwap)
                    .with(Relayer),
            ),
            ("redundant-on-raw", PassManager::empty().with(RedundantElim { exhaustive_limit: 12 })),
        ]
    }

    #[test]
    fn every_pipeline_preserves_interpreter_semantics() {
        for seed in 0..15u64 {
            let n = 9;
            let net = gnarly(n, seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xbeef);
            let inputs: Vec<Vec<u32>> =
                (0..40).map(|_| Permutation::random(n, &mut rng).images().to_vec()).collect();
            for (name, pm) in all_pipelines() {
                let exec = Executor::compile_with(&net, &pm);
                exec.program().validate().unwrap_or_else(|e| panic!("{name}: {e}"));
                for input in &inputs {
                    assert_eq!(
                        exec.evaluate(input),
                        net.evaluate(input),
                        "pipeline {name} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn passes_never_increase_depth_or_size() {
        for seed in 0..15u64 {
            let net = gnarly(9, seed);
            for (name, pm) in all_pipelines() {
                let mut prog = Program::from_network(&net);
                for rec in pm.run(&mut prog) {
                    assert!(
                        rec.depth_after <= rec.depth_before,
                        "{name}/{}: depth {} -> {}",
                        rec.name,
                        rec.depth_before,
                        rec.depth_after
                    );
                    assert!(
                        rec.size_after <= rec.size_before,
                        "{name}/{}: size {} -> {}",
                        rec.name,
                        rec.size_before,
                        rec.size_after
                    );
                }
            }
        }
    }

    #[test]
    fn canonical_pipeline_produces_flat_pure_cmp_program() {
        let net = gnarly(8, 3);
        let exec = Executor::compile(&net);
        let prog = exec.program();
        let comparators = net
            .levels()
            .iter()
            .flat_map(|l| &l.elements)
            .filter(|e| e.kind.is_comparator())
            .count();
        assert_eq!(exec.op_count(), comparators, "all and only comparators survive");
        for op in prog.ops() {
            assert_eq!(op.kind, ElementKind::Cmp, "CmpRev normalized away");
            assert!(op.a != op.b && (op.a as usize) < 8 && (op.b as usize) < 8);
        }
        let mut seen = prog.output_map().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..8u32).collect::<Vec<_>>(), "gather is a permutation");
    }

    #[test]
    fn raising_round_trips_through_every_pipeline() {
        // `Program::to_network` must replay the source mapping for every
        // pass pipeline, the empty one included (behavioural identity,
        // gather level included).
        for seed in 0..10u64 {
            let n = 9;
            let net = gnarly(n, seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xace);
            for (name, pm) in all_pipelines() {
                let mut prog = Program::from_network(&net);
                pm.run(&mut prog);
                let raised = prog.to_network();
                for _ in 0..25 {
                    let input: Vec<u32> = Permutation::random(n, &mut rng).images().to_vec();
                    assert_eq!(
                        raised.evaluate(&input),
                        net.evaluate(&input),
                        "pipeline {name} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn compiled_lanes_match_scalar_on_01_inputs() {
        for seed in 0..10u64 {
            let n = 9;
            let net = gnarly(n, seed);
            let exec = Executor::compile(&net);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xfeed);
            let lanes: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let mut out = lanes.clone();
            exec.run_01x64_in_place(&mut out, &mut Vec::new());
            // Cross-check every lane against scalar evaluation.
            for i in 0..64 {
                let input: Vec<u32> = (0..n).map(|w| ((lanes[w] >> i) & 1) as u32).collect();
                let expect = net.evaluate(&input);
                for w in 0..n {
                    assert_eq!((out[w] >> i) & 1, expect[w] as u64, "seed {seed} lane {i}");
                }
            }
        }
    }

    #[test]
    fn traced_replay_matches_interpreter_events() {
        for seed in 0..15u64 {
            let n = 8;
            let net = gnarly(n, seed);
            let exec = Executor::compile(&net);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabcd);
            for _ in 0..10 {
                let input = Permutation::random(n, &mut rng).images().to_vec();
                let mut want = Vec::new();
                let out_ref = net.evaluate_traced(&input, |e| want.push(e));
                let mut got = Vec::new();
                let out_ir = exec.evaluate_traced(&input, |e| got.push(e));
                assert_eq!(out_ir, out_ref, "seed {seed}");
                assert_eq!(got, want, "seed {seed}: event streams must be identical");
            }
        }
    }

    #[test]
    fn register_model_lowers_through_same_ir() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for seed in 0..10u64 {
            let net = gnarly(8, seed);
            let reg = RegisterNetwork::from_network(&net);
            let exec = Executor::compile_register(&reg);
            for _ in 0..20 {
                let input = Permutation::random(8, &mut rng).images().to_vec();
                assert_eq!(exec.evaluate(&input), reg.evaluate(&input), "seed {seed}");
            }
        }
    }

    #[test]
    fn sharded_matches_sequential_verdict_and_counterexample() {
        for n in 2..=10usize {
            let full = brick_wall(n);
            for threads in [1, 2, 8] {
                assert_eq!(
                    check_zero_one_sharded(&full, threads),
                    check_zero_one_exhaustive(&full),
                    "sorter n={n} threads={threads}"
                );
            }
            let truncated = ComparatorNetwork::new(n, full.levels()[..n / 2].to_vec()).unwrap();
            for threads in [1, 2, 8] {
                assert_eq!(
                    check_zero_one_sharded(&truncated, threads),
                    check_zero_one_exhaustive(&truncated),
                    "truncated n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn sharded_path_exercises_real_threads() {
        // n = 17 > the single-thread cutoff, so shards genuinely go
        // through the worker pool; truncating late levels plants the first
        // counterexample deep in the space.
        let n = 17;
        let full = brick_wall(n);
        let depth = full.depth();
        let truncated = ComparatorNetwork::new(n, full.levels()[..depth - 2].to_vec()).unwrap();
        let seq = check_zero_one_exhaustive(&truncated);
        for threads in [2, 8] {
            assert_eq!(check_zero_one_sharded(&truncated, threads), seq, "threads={threads}");
        }
        assert_eq!(check_zero_one_sharded(&full, 4), SortCheck::AllSorted { tested: 1u64 << n });
    }

    #[test]
    fn pack_block_matches_naive_packing() {
        let exec = Executor::compile(&brick_wall(8));
        let mut slots = vec![0u64; 8];
        for base in [0u64, 64, 128, 192] {
            exec.pack_block(base, &mut slots);
            for (w, &slot) in slots.iter().enumerate() {
                for i in 0..64u64 {
                    let expect = ((base + i) >> w) & 1;
                    assert_eq!((slot >> i) & 1, expect, "base {base} wire {w} lane {i}");
                }
            }
        }
    }

    #[test]
    fn fired_tracking_matches_firing_semantics() {
        // Cmp fires iff a > b; on the duplicated comparator the second
        // never fires.
        let mut net = ComparatorNetwork::empty(2);
        net.push_elements(vec![Element::cmp(0, 1)]).unwrap();
        net.push_elements(vec![Element::cmp(0, 1)]).unwrap();
        let exec = Executor::compile(&net);
        let mut fired = vec![0u64; exec.op_count()];
        let mut slots = vec![0u64; 2];
        exec.pack_block(0, &mut slots);
        exec.run_01x64_fired(&mut slots, 0b1111, &mut fired);
        assert_ne!(fired[0], 0, "first comparator fires on input 01");
        assert_eq!(fired[1], 0, "second comparator can never fire");
    }

    #[test]
    fn fired_masks_respect_cmprev_direction_on_raw_program() {
        // CmpRev(0,1) fires on a=0, b=1 (input index 2, i.e. lane 2).
        let mut net = ComparatorNetwork::empty(2);
        net.push_elements(vec![Element::cmp_rev(0, 1)]).unwrap();
        let fired = exhaustive_fired_masks(&Program::from_network(&net));
        assert_eq!(fired, vec![1 << 2]);
    }

    #[test]
    fn redundant_elim_strips_duplicates_and_preserves_sorting() {
        let mut net = ComparatorNetwork::empty(6);
        for round in 0..6 {
            let start = round % 2;
            let elements: Vec<Element> =
                (start..5).step_by(2).map(|i| Element::cmp(i as u32, i as u32 + 1)).collect();
            net.push_elements(elements.clone()).unwrap();
            net.push_elements(elements).unwrap(); // duplicate: half is dead
        }
        let plain = Executor::compile(&net);
        let opt = Executor::compile_with(&net, &PassManager::optimizing());
        assert!(opt.op_count() <= plain.op_count() - 6, "duplicates eliminated");
        assert!(opt.check_zero_one(1).is_sorting());
        assert_eq!(opt.count_unsorted_01(), 0);
    }

    #[test]
    fn structural_dedup_works_above_exhaustive_limit() {
        let mut net = ComparatorNetwork::empty(4);
        net.push_elements(vec![Element::cmp(0, 1)]).unwrap();
        net.push_elements(vec![Element::cmp(0, 1)]).unwrap();
        net.push_elements(vec![Element::cmp(2, 3)]).unwrap();
        let mut prog = Program::from_network(&net);
        PassManager::empty()
            .with(RedundantElim { exhaustive_limit: 0 }) // force structural path
            .run(&mut prog);
        assert_eq!(prog.size(), 2, "adjacent duplicate dropped structurally");
        assert_eq!(prog.evaluate(&[3, 1, 0, 2]), net.evaluate(&[3, 1, 0, 2]));
    }

    #[test]
    fn relayer_packs_independent_ops_into_one_level() {
        // Three comparators on disjoint wires spread over three levels
        // should re-pack into one.
        let mut net = ComparatorNetwork::empty(6);
        net.push_elements(vec![Element::cmp(0, 1)]).unwrap();
        net.push_elements(vec![Element::cmp(2, 3)]).unwrap();
        net.push_elements(vec![Element::cmp(4, 5)]).unwrap();
        let exec = Executor::compile_with(&net, &PassManager::optimizing());
        assert_eq!(exec.program().depth(), 1);
        assert_eq!(exec.program().comparator_depth(), 1);
        assert_eq!(exec.evaluate(&[5, 4, 3, 2, 1, 0]), vec![4, 5, 2, 3, 0, 1]);
    }

    #[test]
    fn batch_and_map_reduce_match_scalar() {
        let net = brick_wall(8);
        let exec = Executor::compile(&net);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let inputs: Vec<Vec<u32>> =
            (0..257).map(|_| Permutation::random(8, &mut rng).images().to_vec()).collect();
        let outs = exec.evaluate_batch(&inputs);
        for (input, out) in inputs.iter().zip(&outs) {
            assert_eq!(*out, net.evaluate(input));
        }
        let seq =
            inputs.iter().filter(|i| crate::sortcheck::is_sorted(&net.evaluate(i))).count() as u64;
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(exec.count_sorted(&inputs, threads), seq, "threads={threads}");
        }
        // Chunk-order determinism of map_reduce partials.
        let partials = exec.map_reduce_outputs(
            &inputs[..10],
            3,
            |i, _| vec![i],
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        let all: Vec<usize> = partials.into_iter().flatten().collect();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        // An empty batch evaluates to nothing and counts zero.
        assert!(exec.evaluate_batch::<u32>(&[]).is_empty());
        assert_eq!(exec.count_sorted(&[], 4), 0);
        // A network that sorts nothing leaves random inputs unsorted.
        let identity = Executor::compile(&ComparatorNetwork::empty(8));
        assert!(identity.count_sorted(&inputs, 4) < 5);
    }

    #[test]
    fn empty_and_tiny_networks() {
        let empty = ComparatorNetwork::empty(0);
        assert_eq!(check_zero_one_sharded(&empty, 4), SortCheck::AllSorted { tested: 1 });
        let one = ComparatorNetwork::empty(1);
        assert_eq!(check_zero_one_sharded(&one, 4), SortCheck::AllSorted { tested: 2 });
        for pm in [PassManager::empty(), PassManager::canonical(), PassManager::optimizing()] {
            let exec = Executor::compile_with(&ComparatorNetwork::empty(3), &pm);
            assert_eq!(exec.evaluate(&[3, 1, 2]), vec![3, 1, 2]);
        }
    }

    #[test]
    fn pass_records_account_for_eliminations() {
        let net = gnarly(8, 5);
        let exec = Executor::compile_with(&net, &PassManager::optimizing());
        let records = exec.pass_records();
        assert_eq!(records.len(), 4);
        let total_ops = Program::from_network(&net).op_count();
        let eliminated: usize = records.iter().map(PassRecord::ops_eliminated).sum();
        assert_eq!(total_ops - eliminated, exec.op_count());
        for rec in records {
            assert!(rec.ops_after <= rec.ops_before, "{}", rec.name);
        }
    }

    #[test]
    fn first_unsorted_01_matches_sequential_checker() {
        let n = 6;
        let full = brick_wall(n);
        assert_eq!(Executor::compile(&full).first_unsorted_01(), None);
        let truncated = ComparatorNetwork::new(n, full.levels()[..2].to_vec()).unwrap();
        let idx = Executor::compile(&truncated).first_unsorted_01().expect("cannot sort");
        match check_zero_one_exhaustive(&truncated) {
            SortCheck::Counterexample { input, .. } => {
                let expect: u64 = input.iter().enumerate().map(|(w, &b)| (b as u64) << w).sum();
                assert_eq!(idx, expect);
            }
            _ => panic!("expected counterexample"),
        }
    }
}
