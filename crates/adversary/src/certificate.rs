//! Portable proof certificates.
//!
//! A [`LowerBoundCertificate`] packages everything a third party needs to
//! check a refutation *without trusting this crate's adversary*: the
//! network, the final input pattern, the claimed noncolliding `[M_0]`-set,
//! and the witness pair. [`LowerBoundCertificate::check`] validates it
//! using only the base semantics (evaluation + comparison tracing +
//! pattern refinement):
//!
//! 1. structural: the set is exactly the pattern's `[M_0]`-set, size ≥ 2;
//! 2. the witness pair is a valid Corollary 4.1.1 instance
//!    ([`SortingRefutation::verify`] — five independent conditions);
//! 3. noncollision evidence: under `samples` random refinements of the
//!    pattern, no two set wires ever have their values compared (for
//!    `n ≤ 8`, [`LowerBoundCertificate::check_exhaustive`] upgrades this
//!    to a proof over *all* refinements).
//!
//! Certificates serialize to JSON (used by `snetctl certify` / `audit`).

use crate::witness::{refute, SortingRefutation};
use crate::Theorem41Output;
use serde::{Deserialize, Serialize};
use snet_core::element::WireId;
use snet_core::network::ComparatorNetwork;
use snet_core::trace::ComparisonTrace;
use snet_pattern::collision::is_noncolliding_exact;
use snet_pattern::{Pattern, Symbol};

/// A self-contained, independently checkable refutation bundle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LowerBoundCertificate {
    /// The network being refuted (validated on deserialize).
    pub network: ComparatorNetwork,
    /// The final input pattern, encoded as one symbol tag per wire:
    /// 0 = `S_0`, 1 = `M_0`, 2 = `L_0`.
    pub pattern_tags: Vec<u8>,
    /// The claimed mutually-uncompared wire set (must equal the pattern's
    /// `[M_0]`-set).
    pub d_set: Vec<WireId>,
    /// The witness pair.
    pub witness: WitnessPart,
}

/// The witness component of a certificate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WitnessPart {
    /// First input.
    pub input_a: Vec<u32>,
    /// Second input (adjacent transposition of the first).
    pub input_b: Vec<u32>,
    /// The smaller exchanged value.
    pub m: u32,
    /// Wires carrying `m`, `m+1` in `input_a`.
    pub wire_pair: (WireId, WireId),
}

impl LowerBoundCertificate {
    /// Assembles a certificate from an adversary run over `net`.
    /// Fails if `|D| < 2` (nothing to certify).
    pub fn from_run(net: &ComparatorNetwork, out: &Theorem41Output) -> Result<Self, String> {
        let r = refute(net, &out.input_pattern).map_err(|e| e.to_string())?;
        r.verify(net).map_err(|e| format!("refutation invalid: {e}"))?;
        Self::from_witness(net, out, r)
    }

    /// Assembles a certificate from an adversary run over `net` and the
    /// witness `r` already built from it and verified against `net`.
    pub fn from_witness(
        net: &ComparatorNetwork,
        out: &Theorem41Output,
        r: SortingRefutation,
    ) -> Result<Self, String> {
        let pattern_tags = out
            .input_pattern
            .symbols()
            .iter()
            .map(|&s| match s {
                Symbol::S(0) => Ok(0u8),
                Symbol::M(0) => Ok(1),
                Symbol::L(0) => Ok(2),
                other => Err(format!("unexpected symbol {other} in final pattern")),
            })
            .collect::<Result<_, _>>()?;
        Ok(LowerBoundCertificate {
            network: net.clone(),
            pattern_tags,
            d_set: out.d_set.clone(),
            witness: WitnessPart {
                input_a: r.input_a,
                input_b: r.input_b,
                m: r.m,
                wire_pair: r.wire_pair,
            },
        })
    }

    fn pattern(&self) -> Result<Pattern, String> {
        self.pattern_tags
            .iter()
            .map(|&t| match t {
                0 => Ok(Symbol::S(0)),
                1 => Ok(Symbol::M(0)),
                2 => Ok(Symbol::L(0)),
                other => Err(format!("bad pattern tag {other}")),
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Pattern::from_symbols)
    }

    fn refutation(&self) -> SortingRefutation {
        let exec = snet_core::ir::Executor::compile(&self.network);
        SortingRefutation {
            input_a: self.witness.input_a.clone(),
            input_b: self.witness.input_b.clone(),
            m: self.witness.m,
            wire_pair: self.witness.wire_pair,
            output_a: exec.evaluate(&self.witness.input_a),
            output_b: exec.evaluate(&self.witness.input_b),
        }
    }

    /// Checks the certificate with sampled noncollision evidence
    /// (`samples` random refinements of the pattern; use a few hundred).
    pub fn check(&self, samples: usize, seed: u64) -> Result<(), String> {
        let mut span = snet_obs::span("adversary.check_certificate")
            .attr("wires", self.network.wires())
            .attr("d_size", self.d_set.len())
            .attr("samples", samples);
        let r = self.check_inner(samples, seed);
        span.add_attr("ok", r.is_ok());
        r
    }

    fn check_inner(&self, samples: usize, seed: u64) -> Result<(), String> {
        use rand::{Rng, SeedableRng};
        let n = self.network.wires();
        if self.pattern_tags.len() != n {
            return Err("pattern width mismatch".into());
        }
        let pattern = self.pattern()?;
        let d = pattern.symbol_set(Symbol::M(0));
        if d != self.d_set {
            return Err("d_set is not the pattern's [M_0]-set".into());
        }
        if d.len() < 2 {
            return Err("certificate needs |D| >= 2".into());
        }
        // Witness must check out against the actual network.
        self.refutation().verify(&self.network).map_err(|e| format!("witness: {e}"))?;
        // The witness inputs must refine the pattern.
        if !pattern.refines_to_input(&self.witness.input_a) {
            return Err("input_a does not refine the pattern".into());
        }
        // Sampled noncollision over random refinements.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for s in 0..samples {
            let tie: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
            let input = pattern.to_input_with(|w| tie[w as usize]);
            let trace = ComparisonTrace::record(&self.network, &input);
            for (i, &a) in d.iter().enumerate() {
                for &b in &d[i + 1..] {
                    if trace.compared(input[a as usize], input[b as usize]) {
                        return Err(format!("sample {s}: wires {a},{b} compared"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Upgrades the noncollision evidence to a proof by enumerating *all*
    /// refinements (`n ≤ 8` only).
    pub fn check_exhaustive(&self) -> Result<(), String> {
        self.check(16, 0)?;
        let pattern = self.pattern()?;
        if !is_noncolliding_exact(&self.network, &pattern, &self.d_set) {
            return Err("exhaustive check: D collides under some refinement".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theorem41::theorem41;
    use rand::SeedableRng;
    use snet_topology::random::{random_iterated, RandomDeltaConfig, SplitStyle};
    use snet_topology::{Block, IteratedReverseDelta, ReverseDelta};

    fn sample_cert(l: usize) -> (LowerBoundCertificate, ComparatorNetwork) {
        let ird = IteratedReverseDelta::new(
            vec![Block { pre_route: None, rdn: ReverseDelta::butterfly(l) }],
            None,
        );
        let out = theorem41(&ird, l);
        let net = ird.to_network();
        (LowerBoundCertificate::from_run(&net, &out).unwrap(), net)
    }

    #[test]
    fn roundtrip_and_check() {
        let (cert, _) = sample_cert(3);
        cert.check(200, 7).unwrap();
        cert.check_exhaustive().unwrap();
        // JSON round trip.
        let json = serde_json::to_string(&cert).unwrap();
        let back: LowerBoundCertificate = serde_json::from_str(&json).unwrap();
        back.check(50, 9).unwrap();
    }

    #[test]
    fn tampered_certificates_rejected() {
        let (cert, _) = sample_cert(3);

        let mut bad = cert.clone();
        bad.d_set.pop();
        assert!(bad.check(20, 0).is_err(), "d_set must match the pattern");

        let mut bad = cert.clone();
        bad.witness.m += 1;
        assert!(bad.check(20, 0).is_err(), "wrong m");

        let mut bad = cert.clone();
        // Claim an extra wire is in D by retagging it.
        if let Some(w) = (0..bad.pattern_tags.len()).find(|&w| bad.pattern_tags[w] != 1) {
            bad.pattern_tags[w] = 1;
            assert!(bad.check(200, 0).is_err(), "inflated D must fail some check");
        }

        let mut bad = cert.clone();
        bad.witness.input_b = bad.witness.input_a.clone();
        assert!(bad.check(20, 0).is_err(), "degenerate witness pair");
    }

    #[test]
    fn larger_instance_sampled_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        let cfg = RandomDeltaConfig {
            split: SplitStyle::BitSplit,
            comparator_density: 1.0,
            reverse_bias: 0.5,
            swap_density: 0.0,
        };
        let ird = random_iterated(3, 6, &cfg, true, &mut rng);
        let out = theorem41(&ird, 6);
        assert!(out.d_set.len() >= 2);
        let net = ird.to_network();
        let cert = LowerBoundCertificate::from_run(&net, &out).unwrap();
        cert.check(150, 3).unwrap();
    }

    #[test]
    fn from_run_requires_refutable_output() {
        // Full bitonic: |D| = 1, no certificate.
        let ird = snet_sorters::bitonic_shuffle(8).to_iterated_reverse_delta();
        let out = theorem41(&ird, 3);
        let net = ird.to_network();
        assert!(LowerBoundCertificate::from_run(&net, &out).is_err());
    }
}
