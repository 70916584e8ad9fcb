//! **E11 — the adaptive model (Section 5).**
//!
//! Claim: the lower bound survives when each level's labeling may depend on
//! all previous comparison outcomes. We play the interactive game against
//! several builder strategies and report the surviving set size and whether
//! the final self-verifying refutation (which also replays every revealed
//! outcome) checks out.

use crate::common::{emit, ExpConfig};
use crate::{sweep, Table};
use rand::{Rng, SeedableRng};
use snet_adversary::adaptive::{AdaptiveRun, CmpOutcome};
use snet_core::element::ElementKind;

fn play(
    n: usize,
    k: usize,
    stages: usize,
    mut strategy: impl FnMut(usize, &[CmpOutcome]) -> Vec<ElementKind>,
) -> (usize, bool) {
    let mut run = AdaptiveRun::new(n, k);
    let mut last: Vec<CmpOutcome> = Vec::new();
    for s in 0..stages {
        let ops = strategy(s, &last);
        last = run.submit_stage(&ops);
    }
    let out = run.finish();
    (out.d_set.len(), out.refutation.is_some())
}

/// Runs E11 and prints/saves its table.
pub fn run(cfg: &ExpConfig) {
    let l = if cfg.full { 8 } else { 6 };
    let n = 1usize << l;
    let strategies = ["oblivious-plus", "alternating", "outcome-chasing", "random-adaptive"];
    let mut points = Vec::new();
    for s in strategies {
        for blocks in [1usize, 2, 3] {
            points.push((s, blocks));
        }
    }
    let seed = cfg.seed;
    let rows = sweep(points, cfg.threads, |&(strategy, blocks)| {
        let stages = blocks * l;
        let (d, refuted) = match strategy {
            "oblivious-plus" => play(n, l, stages, |_, _| vec![ElementKind::Cmp; n / 2]),
            "alternating" => play(n, l, stages, |s, _| {
                vec![if s % 2 == 0 { ElementKind::Cmp } else { ElementKind::CmpRev }; n / 2]
            }),
            "outcome-chasing" => play(n, l, stages, |s, last| {
                (0..n / 2)
                    .map(|kk| {
                        let flip = last
                            .iter()
                            .find(|o| o.pair == kk)
                            .map(|o| o.first_smaller)
                            .unwrap_or(s % 2 == 0);
                        if flip {
                            ElementKind::CmpRev
                        } else {
                            ElementKind::Cmp
                        }
                    })
                    .collect()
            }),
            _ => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ blocks as u64);
                play(n, l, stages, move |_, last| {
                    let bias = last.iter().filter(|o| o.first_smaller).count();
                    (0..n / 2)
                        .map(|_| match (rng.gen_range(0..4usize) + bias) % 4 {
                            0 => ElementKind::Cmp,
                            1 => ElementKind::CmpRev,
                            2 => ElementKind::Swap,
                            _ => ElementKind::Pass,
                        })
                        .collect()
                })
            }
        };
        vec![
            n.to_string(),
            strategy.to_string(),
            blocks.to_string(),
            d.to_string(),
            if refuted { "refuted+replayed" } else { "-" }.to_string(),
        ]
    });

    let mut table = Table::new(
        "E11 — adaptive builders vs the adversary (outcomes revealed per level)",
        &["n", "builder strategy", "blocks", "|D| final", "verdict"],
    );
    for r in rows {
        table.row(r);
    }
    emit(&table, "e11_adaptive.csv");
}
