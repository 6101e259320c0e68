//! Farms of WSA boards whose fault-free passes take the packed fast
//! path, against the same farms forced onto the cycle simulator: the
//! lattice and every machine-report figure must agree across shard
//! counts, a 2×2 board grid, serialized and overlapped exchange, and
//! both boundaries — and through the recovery session, whose
//! checkpoint barriers encode every pass.

use lattice_core::{Rule, Shape, Window};
use lattice_farm::{FarmRecoveryConfig, LatticeFarm, ShardEngine};
use lattice_gas::{init, HppRule};

/// HPP without the block kernel (see `evolve_block`'s `None` default):
/// every board pass it drives runs on the cycle simulator.
struct CyclePath<'r>(&'r HppRule);

impl Rule for CyclePath<'_> {
    type S = u8;
    fn update(&self, w: &Window<u8>) -> u8 {
        self.0.update(w)
    }
}

#[test]
fn fast_farms_match_cycle_farms_exactly() {
    let (rows, cols) = (20usize, 36usize);
    let g = init::random_hpp(Shape::grid2(rows, cols).unwrap(), 0.4, 11).unwrap();
    let rule = HppRule::new();
    let layouts = [(1usize, 1usize), (1, 2), (1, 3), (1, 4), (2, 2)];
    for (gr, gc) in layouts {
        for overlap in [false, true] {
            for periodic in [false, true] {
                let farm = LatticeFarm::new(gr * gc, ShardEngine::Wsa { width: 3 }, 3)
                    .with_grid(gr, gc)
                    .with_overlap(overlap)
                    .with_periodic(periodic);
                let case = format!("{gr}x{gc} overlap={overlap} periodic={periodic}");
                // Eight generations at depth 3: two full passes and a
                // shallower final one.
                let fast = farm.run(&rule, &g, 4, 8).unwrap();
                let cycle = farm.run(&CyclePath(&rule), &g, 4, 8).unwrap();
                assert_eq!(fast.grid(), cycle.grid(), "{case}");
                assert_eq!(format!("{fast:?}"), format!("{cycle:?}"), "{case}");

                let cfg = FarmRecoveryConfig::default();
                let ok = |_: &_, _: &_| Ok(());
                let fast = farm.run_with_recovery(&rule, &g, 0, 7, None, &cfg, ok).unwrap();
                let cycle =
                    farm.run_with_recovery(&CyclePath(&rule), &g, 0, 7, None, &cfg, ok).unwrap();
                assert_eq!(format!("{fast:?}"), format!("{cycle:?}"), "recovery {case}");
            }
        }
    }
}
