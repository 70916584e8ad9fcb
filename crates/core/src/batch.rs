//! Tests of batched and parallel evaluation through [`crate::ir::Executor`].
//!
//! The experiment harness evaluates one network over thousands of inputs
//! by compiling it once and calling
//! [`evaluate_batch`](crate::ir::Executor::evaluate_batch),
//! [`count_sorted`](crate::ir::Executor::count_sorted) or
//! [`map_reduce_outputs`](crate::ir::Executor::map_reduce_outputs). These
//! tests pin those entry points against the scalar interpreter.

#[cfg(test)]
mod tests {
    use crate::element::Element;
    use crate::ir::Executor;
    use crate::network::ComparatorNetwork;
    use crate::perm::Permutation;
    use rand::SeedableRng;

    fn brick_wall(n: usize) -> ComparatorNetwork {
        let mut net = ComparatorNetwork::empty(n);
        for round in 0..n {
            let start = round % 2;
            let elements =
                (start..n - 1).step_by(2).map(|i| Element::cmp(i as u32, i as u32 + 1)).collect();
            net.push_elements(elements).unwrap();
        }
        net
    }

    fn random_inputs(n: usize, count: usize, seed: u64) -> Vec<Vec<u32>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..count).map(|_| Permutation::random(n, &mut rng).images().to_vec()).collect()
    }

    #[test]
    fn batch_matches_scalar() {
        let net = brick_wall(8);
        let inputs = random_inputs(8, 40, 1);
        let outs = Executor::compile(&net).evaluate_batch(&inputs);
        for (input, out) in inputs.iter().zip(&outs) {
            assert_eq!(*out, net.evaluate(input));
        }
    }

    #[test]
    fn parallel_count_matches_sequential() {
        let net = brick_wall(8);
        let exec = Executor::compile(&net);
        let inputs = random_inputs(8, 257, 2);
        let seq = inputs.iter().filter(|i| crate::sortcheck::is_sorted(&net.evaluate(i))).count();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(exec.count_sorted(&inputs, threads), seq as u64);
        }
    }

    #[test]
    fn parallel_on_non_sorting_network() {
        let exec = Executor::compile(&ComparatorNetwork::empty(6));
        let inputs = random_inputs(6, 500, 3);
        let c = exec.count_sorted(&inputs, 4);
        assert!(c < 20, "identity rarely sorts, got {c}");
    }

    #[test]
    fn map_reduce_chunk_order_is_deterministic() {
        let exec = Executor::compile(&brick_wall(4));
        let inputs = random_inputs(4, 10, 4);
        // Collect the input indices seen per chunk; ensures indices are global.
        let partials = exec.map_reduce_outputs(
            &inputs,
            3,
            |i, _| vec![i],
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        let all: Vec<usize> = partials.into_iter().flatten().collect();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch() {
        let exec = Executor::compile(&brick_wall(4));
        assert_eq!(exec.count_sorted(&[], 4), 0);
        assert!(exec.evaluate_batch::<u32>(&[]).is_empty());
    }
}
