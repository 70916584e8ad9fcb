//! **E15 — the bound's reach over hypercubic networks.**
//!
//! The paper frames its result among "sorting networks based on hypercubic
//! networks". Any normal hypercube block that uses each dimension exactly
//! once — in *any* order — is a reverse delta network (root split = the
//! block's last dimension), so the adversary covers every iterated
//! distinct-dimension schedule, not just the shuffle's descending order.
//! We refute random networks under descending, ascending, and random
//! per-block dimension orders, with and without free inter-block routes.

use crate::common::{emit, ExpConfig};
use crate::{sweep, Table};
use rand::SeedableRng;
use snet_adversary::{refute, theorem41};
use snet_core::perm::Permutation;
use snet_topology::hypercube::{iterated_from_schedules, schedules, DimensionBlock};

/// Runs E15 and prints/saves its table.
pub fn run(cfg: &ExpConfig) {
    let l = if cfg.full { 10 } else { 8 };
    let n = 1usize << l;
    let mut points = Vec::new();
    for schedule in ["descending", "ascending", "random-per-block"] {
        for routes in [false, true] {
            points.push((schedule, routes));
        }
    }
    let seed = cfg.seed;
    let rows = sweep(points, cfg.threads, |&(schedule, routes)| {
        let mut rng =
            rand::rngs::StdRng::seed_from_u64(seed ^ schedule.len() as u64 ^ (routes as u64) << 7);
        let d = l; // lg n blocks = lg²n comparator levels
        let blocks: Vec<DimensionBlock> = (0..d)
            .map(|_| {
                let bits = match schedule {
                    "descending" => schedules::descending(l),
                    "ascending" => schedules::ascending(l),
                    _ => schedules::random(l, &mut rng),
                };
                DimensionBlock::random(n, bits, &mut rng)
            })
            .collect();
        let route_perms: Vec<Permutation> =
            (0..d.saturating_sub(1)).map(|_| Permutation::random(n, &mut rng)).collect();
        let ird =
            iterated_from_schedules(n, &blocks, if routes { Some(&route_perms) } else { None });
        let out = theorem41(&ird, l);
        let verified = if out.d_set.len() >= 2 {
            let net = ird.to_network();
            let r = refute(&net, &out.input_pattern).expect("witness");
            r.verify(&net).is_ok().to_string()
        } else {
            "-".into()
        };
        vec![
            n.to_string(),
            schedule.to_string(),
            routes.to_string(),
            d.to_string(),
            out.blocks_survived().to_string(),
            out.d_set.len().to_string(),
            verified,
        ]
    });

    let mut table = Table::new(
        "E15 — adversary vs hypercube dimension schedules (lg n blocks = lg²n levels)",
        &["n", "schedule", "free routes", "blocks", "survived", "|D| final", "witness verified"],
    );
    for r in rows {
        table.row(r);
    }
    emit(&table, "e15_hypercube.csv");
}
