//! The packed fast path of `Pipeline::run_opts` against the cycle
//! simulator. A fault-free HPP pass evolves its lattice with the rule's
//! bit-plane kernel and derives its costs from geometry; it must report
//! exactly what streaming every site through the stages measures — the
//! same lattice bit for bit and the same `EngineReport` in every field,
//! tick count included.

use lattice_core::{Rule, Shape, Window};
use lattice_engines_sim::{Pipeline, RunOptions};
use lattice_gas::{init, HppRule, OBSTACLE_BIT};
use proptest::prelude::*;

/// HPP without the block kernel: it forwards `update` only, so
/// `evolve_block` keeps its `None` default and every pass it drives
/// runs on the cycle simulator.
struct CyclePath<'r>(&'r HppRule);

impl Rule for CyclePath<'_> {
    type S = u8;
    fn update(&self, w: &Window<u8>) -> u8 {
        self.0.update(w)
    }
}

/// Any width up to 200, weighted toward word edges: multiples of 64
/// and the columns either side of them.
fn cols() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=200,
        1usize..=200,
        Just(63),
        Just(64),
        Just(65),
        Just(127),
        Just(128),
        Just(129),
        Just(192)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fast_path_reports_exactly_what_the_cycle_simulator_measures(
        rows in 1usize..=40,
        cols in cols(),
        width in 1usize..=6,
        depth in 1usize..=6,
        t0 in 0u64..1_000_000,
        origin in (any::<usize>(), any::<usize>()),
        density in 0.05f64..0.9,
        seed in 0u64..1000,
        walls in prop_oneof![Just(0usize), Just(0), Just(0), 1usize..4],
    ) {
        let shape = Shape::grid2(rows, cols).unwrap();
        let mut g = init::random_hpp(shape, density, seed).unwrap();
        for k in 0..walls {
            let at = (seed as usize * 31 + k * 17) % g.len();
            g.set_linear(at, g.get_linear(at) | OBSTACLE_BIT);
        }
        let rule = HppRule::new();
        let pipe = Pipeline::wide(width, depth);
        let opts = RunOptions { origin, ..RunOptions::default() };
        let fast = pipe.run_opts(&rule, &g, t0, opts).unwrap();
        let cycle = pipe.run_opts(&CyclePath(&rule), &g, t0, opts).unwrap();
        prop_assert_eq!(&fast.grid, &cycle.grid);
        prop_assert_eq!(format!("{fast:?}"), format!("{cycle:?}"));
        prop_assert_eq!(fast.ticks, pipe.schedule_ticks(shape));
        // The kernel served every clean grid and declined every walled
        // one, which therefore fell back to the cycle simulator.
        let kernel = rule.evolve_block(&g, t0, origin, depth as u64);
        prop_assert_eq!(kernel.is_some(), walls == 0);
    }
}
