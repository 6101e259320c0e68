//! Site states and local update rules.
//!
//! The paper's computational model (§1, §3): *iterative, defined on a
//! regular lattice, uniform in space and time, local, simple at each
//! point*. A [`Rule`] captures exactly the data dependency of equation
//! (§3): `v(a, t+1) = f(N(a), t)` with `N(a)` contained in the radius-1
//! Moore window around `a`.

use crate::grid::Grid;
use crate::window::Window;

/// A site value: small, copyable, with a fixed bit width.
///
/// The bit width is the paper's `D` — "the number of bits required to
/// represent the state of a lattice site" — and is what the bandwidth
/// accounting in `lattice-vlsi` and `lattice-engines-sim` charges per site
/// moved across a chip boundary.
pub trait State: Copy + Default + PartialEq + Eq + std::fmt::Debug + Send + Sync + 'static {
    /// Bits needed to represent one site (the paper's `D`).
    const BITS: u32;

    /// The state encoded as a raw little-endian word, for traffic
    /// accounting and packing. Only the low [`State::BITS`] bits may be
    /// nonzero.
    fn to_word(self) -> u64;

    /// Inverse of [`State::to_word`]. Implementations must ignore bits
    /// above [`State::BITS`].
    fn from_word(w: u64) -> Self;
}

impl State for u8 {
    const BITS: u32 = 8;
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w as u8
    }
}

impl State for u16 {
    const BITS: u32 = 16;
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w as u16
    }
}

impl State for u32 {
    const BITS: u32 = 32;
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w as u32
    }
}

impl State for bool {
    const BITS: u32 = 1;
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w & 1 != 0
    }
}

/// A uniform, local, radius-1 update rule.
///
/// Implementations must be pure functions of the window contents and the
/// window's coordinate/time metadata: the architectural simulators evaluate
/// the same rule at different wall-clock moments and in different spatial
/// orders than the reference engine, and bit-exact agreement is a test
/// invariant. Rules needing randomness (e.g. FHP two-body collisions) must
/// derive it deterministically from `(coordinate, time, seed)` — see
/// `lattice_gas::prng`.
pub trait Rule: Sync {
    /// The site state this rule operates on.
    type S: State;

    /// Computes `v(a, t+1)` from the Moore window centered at `a`.
    fn update(&self, w: &Window<Self::S>) -> Self::S;

    /// Human-readable rule name (for reports and harness output).
    fn name(&self) -> &str {
        "anonymous-rule"
    }

    /// Evolves a whole block `steps` generations at once, under the
    /// null boundary (fill `S::default()`), with the block's `(0, 0)` at
    /// global coordinate `origin` and its first update at generation
    /// `t0` — the result must equal `steps` per-window updates exactly
    /// (`lattice_core::evolve(grid, self, Boundary::null(), t0, steps)`
    /// with windows stamped at `origin`-shifted coordinates).
    ///
    /// A bulk kernel (bit-planes, multi-spin coding) lets the engine
    /// simulators evolve state without stepping every window, keeping
    /// their machine accounting separate. `None` — the default, and the
    /// answer for inputs a kernel does not cover — sends the caller back
    /// to per-window evaluation.
    fn evolve_block(
        &self,
        grid: &Grid<Self::S>,
        t0: u64,
        origin: (usize, usize),
        steps: u64,
    ) -> Option<Grid<Self::S>> {
        let _ = (grid, t0, origin, steps);
        None
    }
}

impl<R: Rule + ?Sized> Rule for &R {
    type S = R::S;
    fn update(&self, w: &Window<Self::S>) -> Self::S {
        (**self).update(w)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn evolve_block(
        &self,
        grid: &Grid<Self::S>,
        t0: u64,
        origin: (usize, usize),
        steps: u64,
    ) -> Option<Grid<Self::S>> {
        (**self).evolve_block(grid, t0, origin, steps)
    }
}

/// The identity rule: every site keeps its value. Useful as an engine
/// sanity check and as a do-nothing placeholder in harnesses.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityRule<S: State>(std::marker::PhantomData<S>);

impl<S: State> IdentityRule<S> {
    /// Creates the identity rule.
    pub fn new() -> Self {
        IdentityRule(std::marker::PhantomData)
    }
}

impl<S: State> Rule for IdentityRule<S> {
    type S = S;
    fn update(&self, w: &Window<S>) -> S {
        w.center()
    }
    fn name(&self) -> &str {
        "identity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_word_roundtrip() {
        assert_eq!(u8::from_word(0x1ff), 0xff);
        assert_eq!(u16::from_word(0xabcd).to_word(), 0xabcd);
        assert!(!bool::from_word(2));
        assert!(bool::from_word(3));
        assert_eq!(u32::BITS, 32);
        assert_eq!(<bool as State>::BITS, 1);
    }

    #[test]
    fn references_forward_the_block_kernel() {
        use crate::Shape;
        struct Bulk;
        impl Rule for Bulk {
            type S = u8;
            fn update(&self, w: &Window<u8>) -> u8 {
                w.center()
            }
            fn evolve_block(
                &self,
                grid: &Grid<u8>,
                _: u64,
                _: (usize, usize),
                _: u64,
            ) -> Option<Grid<u8>> {
                Some(grid.clone())
            }
        }
        let g: Grid<u8> = Grid::new(Shape::grid2(2, 3).unwrap());
        assert!(Rule::evolve_block(&&Bulk, &g, 0, (0, 0), 1).is_some());
        assert!(Rule::evolve_block(&&&Bulk, &g, 0, (0, 0), 1).is_some());
        assert!(IdentityRule::<u8>::new().evolve_block(&g, 0, (0, 0), 1).is_none());
    }

    #[test]
    fn identity_rule_returns_center() {
        use crate::{Coord, Shape};
        let shape = Shape::grid2(3, 3).unwrap();
        let mut cells = [0u8; crate::window::WINDOW_MAX];
        cells[crate::window::center_index(2)] = 42;
        let w = Window::from_cells(shape.rank(), Coord::c2(1, 1), 0, cells);
        assert_eq!(IdentityRule::new().update(&w), 42);
        assert_eq!(IdentityRule::<u8>::new().name(), "identity");
    }
}
