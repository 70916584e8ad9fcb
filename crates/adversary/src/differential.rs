//! Differential tests: the wire-indexed Lemma 4.1 engine and the runs on
//! top of it against the reference engine of [`crate::reference`], over
//! seeded inputs. Every output field must match exactly — refined
//! patterns (so the `X`-band numbers and evictions), set families,
//! audits, tracer frontiers, Theorem 4.1 block statistics and adaptive
//! transcripts.

use crate::adaptive::AdaptiveRun;
use crate::lemma41::{
    lemma41_forest, lemma41_with, AdversaryConfig, Lemma41Output, OffsetPolicy, SetChoice,
};
use crate::reference;
use crate::theorem41::{theorem41_with, Theorem41Output};
use crate::truncated::TruncatedNetwork;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snet_core::element::{ElementKind, WireId};
use snet_pattern::pattern::Pattern;
use snet_pattern::symbol::Symbol;
use snet_topology::random::{
    random_iterated, random_reverse_delta, random_shuffle_network, RandomDeltaConfig, SplitStyle,
};
use snet_topology::{IteratedReverseDelta, RdNode};

const POLICIES: [OffsetPolicy; 3] =
    [OffsetPolicy::ArgMin, OffsetPolicy::FirstFeasible, OffsetPolicy::AlwaysZero];
const CHOICES: [SetChoice; 2] = [SetChoice::Largest, SetChoice::FirstNonempty];

fn configs(k: usize) -> impl Iterator<Item = AdversaryConfig> {
    POLICIES.into_iter().flat_map(move |offset| {
        CHOICES.into_iter().map(move |set_choice| AdversaryConfig { k, offset, set_choice })
    })
}

fn assert_same_lemma(got: &Lemma41Output, want: &Lemma41Output, ctx: &str) {
    assert_eq!(got.refined, want.refined, "{ctx}: refined pattern");
    assert_eq!(got.family, want.family, "{ctx}: set family");
    assert_eq!(got.audit, want.audit, "{ctx}: audit");
    assert_eq!(got.tracer.frontier(), want.tracer.frontier(), "{ctx}: tracer frontier");
    for w in 0..got.tracer.len() as WireId {
        assert_eq!(got.tracer.origin_at(w), want.tracer.origin_at(w), "{ctx}: token on {w}");
    }
}

fn assert_same_theorem(got: &Theorem41Output, want: &Theorem41Output, ctx: &str) {
    assert_eq!(got.input_pattern, want.input_pattern, "{ctx}: input pattern");
    assert_eq!(got.d_set, want.d_set, "{ctx}: D");
    assert_eq!(got.blocks, want.blocks, "{ctx}: block statistics");
    assert_eq!(got.audits, want.audits, "{ctx}: audits");
}

/// A Lemma 4.1 input pattern: `M_0` with density `m`, the rest split
/// between `S_0` and `L_0`.
fn random_pattern(n: usize, m: f64, rng: &mut StdRng) -> Pattern {
    let syms = (0..n)
        .map(|_| match (rng.gen_bool(m), rng.gen_bool(0.5)) {
            (true, _) => Symbol::M(0),
            (false, true) => Symbol::S(0),
            (false, false) => Symbol::L(0),
        })
        .collect();
    Pattern::from_symbols(syms)
}

/// Theorem 4.1 under `cfg`, and Lemma 4.1 on every block from a fully
/// `M_0` pattern and from a random one.
fn compare_on(ird: &IteratedReverseDelta, cfg: &AdversaryConfig, rng: &mut StdRng, ctx: &str) {
    let got = theorem41_with(ird, cfg);
    let want = reference::theorem41_with(ird, cfg);
    assert_same_theorem(&got, &want, &format!("{ctx} {cfg:?}"));
    let n = ird.wires();
    for (bi, block) in ird.blocks().iter().enumerate() {
        for p in [Pattern::uniform(n, Symbol::M(0)), random_pattern(n, 0.7, rng)] {
            let got = lemma41_with(&block.rdn, &p, cfg);
            let want = reference::lemma41_with(&block.rdn, &p, cfg);
            assert_same_lemma(&got, &want, &format!("{ctx} {cfg:?} block {bi}"));
        }
    }
}

#[test]
fn shuffle_networks_match_the_reference_engine() {
    let mut rng = StdRng::seed_from_u64(4101);
    for l in 2..=10usize {
        let n = 1usize << l;
        for d in [l, 2 * l + 1, 4 * l] {
            for density in [1.0, 0.6] {
                let sn = random_shuffle_network(n, d, density, &mut rng);
                let ird = sn.to_iterated_reverse_delta();
                let ctx = format!("n={n} d={d} density={density}");
                if n <= 256 {
                    for k in [2, l, l + 3] {
                        for cfg in configs(k) {
                            compare_on(&ird, &cfg, &mut rng, &ctx);
                        }
                    }
                } else {
                    compare_on(&ird, &AdversaryConfig::paper(n), &mut rng, &ctx);
                }
            }
        }
    }
}

#[test]
fn random_reverse_deltas_match_the_reference_engine() {
    let mut rng = StdRng::seed_from_u64(4102);
    for split in [SplitStyle::BitSplit, SplitStyle::FreeSplit] {
        for l in 1..=7usize {
            for trial in 0..3 {
                let cfg = RandomDeltaConfig {
                    split,
                    comparator_density: [1.0, 0.8, 0.5][trial],
                    reverse_bias: 0.4,
                    swap_density: 0.5,
                };
                // With pre-routes between blocks, and one block alone.
                let ird = random_iterated(3, l, &cfg, true, &mut rng);
                let single = IteratedReverseDelta::new(
                    vec![snet_topology::Block {
                        pre_route: None,
                        rdn: random_reverse_delta(l, &cfg, &mut rng),
                    }],
                    None,
                );
                for k in [1, 2, l.max(2)] {
                    for adv in configs(k) {
                        let ctx = format!("{split:?} l={l} trial={trial}");
                        compare_on(&ird, &adv, &mut rng, &ctx);
                        compare_on(&single, &adv, &mut rng, &ctx);
                    }
                }
            }
        }
    }
}

#[test]
fn truncated_forests_match_the_reference_engine() {
    let mut rng = StdRng::seed_from_u64(4103);
    for l in 1..=8usize {
        let n = 1usize << l;
        for f in 1..=l {
            let tn = TruncatedNetwork::random(n, f, 2, &mut rng);
            for forest in tn.forests() {
                let roots: Vec<&RdNode> = forest.iter().collect();
                // Every tree, and (where there are several) every other one;
                // `M_0` only on the trees run.
                let every_other: Vec<&RdNode> = roots.iter().step_by(2).copied().collect();
                for k in [2, 3, l + 1] {
                    for subset in [&roots, &every_other] {
                        let mut p = random_pattern(n, 0.8, &mut rng);
                        let run: Vec<WireId> =
                            subset.iter().flat_map(|root| root.wires()).copied().collect();
                        for w in 0..n as WireId {
                            if !run.contains(&w) {
                                p.set(w, Symbol::L(0));
                            }
                        }
                        let got = lemma41_forest(subset, &p, k, f);
                        let want = reference::lemma41_forest(subset, &p, k, f);
                        let ctx = format!("n={n} f={f} k={k} trees={}", subset.len());
                        assert_same_lemma(&got, &want, &ctx);
                    }
                }
            }
        }
    }
}

#[test]
fn adaptive_games_match_the_reference_engine() {
    let mut rng = StdRng::seed_from_u64(4104);
    let kinds = [ElementKind::Cmp, ElementKind::CmpRev, ElementKind::Swap, ElementKind::Pass];
    for trial in 0..60 {
        let l = rng.gen_range(1..=6usize);
        let n = 1usize << l;
        let k = rng.gen_range(1..=l + 1);
        let mut got = AdaptiveRun::new(n, k);
        let mut want = reference::AdaptiveRun::new(n, k);
        let mut bias = 0usize;
        for stage in 0..rng.gen_range(1..=4 * l) {
            // Stage choices keyed off the outcomes so far.
            let ops: Vec<ElementKind> =
                (0..n / 2).map(|_| kinds[(rng.gen_range(0..4usize) + bias) % 4]).collect();
            let outcomes = got.submit_stage(&ops);
            assert_eq!(outcomes, want.submit_stage(&ops), "trial {trial} stage {stage}");
            bias = outcomes.iter().filter(|o| o.first_smaller).count();
        }
        let (got, want) = (got.finish(), want.finish());
        assert_eq!(got.input_pattern, want.input_pattern, "trial {trial}: input pattern");
        assert_eq!(got.d_set, want.d_set, "trial {trial}: D");
        assert_eq!(got.fixed_network, want.fixed_network, "trial {trial}: network");
        assert_eq!(got.refutation, want.refutation, "trial {trial}: refutation");
    }
}
