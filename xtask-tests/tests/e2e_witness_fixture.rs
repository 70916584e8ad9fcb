//! Pinned Theorem 4.1 outcomes on seeded shuffle networks.
//!
//! For each network the table records, per block, the surviving set size
//! `|D|`, the chosen set index `i₀` and the retained mass `|B''|`, plus the
//! witness file `snetctl refute -o` writes for it: its length and its
//! SHA-256 (through [`CanonicalHash::of_label`]). Every choice the
//! adversary makes — matching offsets, evictions, `X` bands, the surviving
//! set — feeds these numbers, so a change to the Lemma 4.1 engine or the
//! reverse delta construction that alters any output fails here.

use rand::SeedableRng;
use snet_adversary::{refute, theorem41};
use snet_core::ir::CanonicalHash;
use snet_topology::random::random_shuffle_network;

/// One pinned network: `random_shuffle_network(n, d, density)` from
/// `seed`, refuted with `k = lg n`.
struct Pin {
    n: usize,
    d: usize,
    density: f64,
    seed: u64,
    /// `(d_size, chosen_index, retained_mass)` per block.
    blocks: &'static [(usize, u32, usize)],
    /// Length and digest of the pretty-printed witness JSON.
    witness: (usize, &'static str),
}

const PINS: &[Pin] = &[
    Pin {
        n: 16,
        d: 4,
        density: 1.0,
        seed: 1604,
        blocks: &[(4, 1, 16)],
        witness: (597, "a51719f5af4d393de75d11fe9191dc9d38ad8ec4e78fdc7b00ae27c254f91c5f"),
    },
    Pin {
        n: 16,
        d: 16,
        density: 1.0,
        seed: 1616,
        blocks: &[(5, 1, 16), (3, 0, 5), (3, 0, 3), (3, 0, 3)],
        witness: (597, "e25bee1605a66ad1212f52730e4c6ba0da14285c2b3c0c7a4b48bf0f40d12ef7"),
    },
    Pin {
        n: 16,
        d: 4,
        density: 0.75,
        seed: 1611,
        blocks: &[(7, 1, 16)],
        witness: (597, "57915199cef8e2941d0bca10ac51252c5a306d5c93aa583290733f950bccacd6"),
    },
    Pin {
        n: 16,
        d: 16,
        density: 0.75,
        seed: 1623,
        blocks: &[(5, 2, 16), (3, 2, 5), (3, 0, 3), (2, 0, 3)],
        witness: (599, "0d536fa6bdeaaf351c9d8dd4c3f1470d3ed0d9ff663b918050b911af3322455c"),
    },
    Pin {
        n: 256,
        d: 8,
        density: 1.0,
        seed: 25608,
        blocks: &[(13, 31, 256)],
        witness: (8904, "bb66f039e7ab6de67a9eb58466782b1cfb1a480fd9a7ec8f1ee1143c1903e23c"),
    },
    Pin {
        n: 256,
        d: 32,
        density: 1.0,
        seed: 25632,
        blocks: &[(18, 12, 256), (15, 0, 18), (9, 0, 15), (6, 1, 9)],
        witness: (8905, "dc8de414cf6e1bf7874533bf9f6ee3bba97b72d048adf37825bd84ef596cb259"),
    },
    Pin {
        n: 256,
        d: 8,
        density: 0.75,
        seed: 25615,
        blocks: &[(14, 8, 256)],
        witness: (8904, "bb92ce7e3e02115a7654d6e5fb08e09bb6ece7af87b181a3adcca628f482154f"),
    },
    Pin {
        n: 256,
        d: 32,
        density: 0.75,
        seed: 25639,
        blocks: &[(18, 19, 256), (15, 0, 18), (8, 1, 15), (7, 0, 8)],
        witness: (8904, "254eee431dcc2ecdcf7e0c5918983a38d49b0f4cd5b5a2b59e043dce51dd2a7e"),
    },
    Pin {
        n: 1024,
        d: 10,
        density: 1.0,
        seed: 102410,
        blocks: &[(23, 58, 1024)],
        witness: (36649, "17f975086fdbf2cacd5c392589872c2c23995ec49e4270c2ec545b78c752d463"),
    },
    Pin {
        n: 1024,
        d: 40,
        density: 1.0,
        seed: 102440,
        blocks: &[(22, 46, 1024), (22, 0, 22), (13, 1, 22), (13, 0, 13)],
        witness: (36649, "2c43f36ce887a464daa57b6009c80921bef4cc8f56bb1d4acb11080363c5badc"),
    },
    Pin {
        n: 1024,
        d: 10,
        density: 0.75,
        seed: 102417,
        blocks: &[(32, 34, 1024)],
        witness: (36650, "d426633fed1fcaf4451aeb35d80cd9d56a88e0ce563b22aaf42f599ab4cfd26c"),
    },
    Pin {
        n: 1024,
        d: 40,
        density: 0.75,
        seed: 102447,
        blocks: &[(25, 58, 1024), (17, 0, 25), (17, 0, 17), (15, 0, 17)],
        witness: (36650, "d1cbbc95f53ddd93b6758848b171004d500c0874fde9d3bc93147bfc1b94b253"),
    },
];

#[test]
fn seeded_shuffle_networks_keep_their_witnesses_and_block_statistics() {
    let mut drift = Vec::new();
    for pin in PINS {
        let l = pin.n.trailing_zeros() as usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(pin.seed);
        let ird =
            random_shuffle_network(pin.n, pin.d, pin.density, &mut rng).to_iterated_reverse_delta();
        let run = theorem41(&ird, l);
        let blocks: Vec<(usize, u32, usize)> =
            run.blocks.iter().map(|b| (b.d_size, b.chosen_index, b.retained_mass)).collect();
        let witness = refute(&ird.to_network(), &run.input_pattern)
            .expect("every pinned network is refutable");
        // The bytes `snetctl refute -o` writes.
        let json = serde_json::to_string_pretty(&witness).expect("witness serializes");
        let digest = CanonicalHash::of_label(&json).to_hex();
        if blocks != pin.blocks || (json.len(), digest.as_str()) != pin.witness {
            drift.push(format!(
                "n={} d={} density={} seed={}: blocks {blocks:?} witness ({}, {digest:?})",
                pin.n,
                pin.d,
                pin.density,
                pin.seed,
                json.len()
            ));
        }
    }
    assert!(drift.is_empty(), "adversary outputs moved:\n{}", drift.join("\n"));
}
