//! Bit-parallel ("multi-spin coded") gas kernels.
//!
//! The paper's software baseline — what a 1987 host could do without a
//! lattice engine — was multi-spin coding: pack the same channel bit of
//! 64 sites into one machine word and evaluate the collision rule as
//! boolean algebra on whole words. One word-op then advances 64 sites,
//! which is exactly the argument §1 makes for why "the performance of
//! such machines is limited … by the communication bandwidth … and by
//! the memory capacity", not raw ALU throughput.
//!
//! [`HppBitLattice`] implements the HPP gas this way, bit-exactly equal
//! to the table-driven [`HppRule`] under periodic or null boundaries
//! (HPP is deterministic, so exact equivalence is testable). Packing and
//! unpacking move eight sites per word operation, so the kernel can sit
//! behind [`HppRule`]'s `evolve_block` and serve the engine simulators'
//! fault-free passes. The collision
//! formula: with channels `e, n, w, s`,
//!
//! ```text
//! swap = e & w & !n & !s  |  n & s & !e & !w
//! e' = e ^ swap,  n' = n ^ swap,  w' = w ^ swap,  s' = s ^ swap
//! ```
//!
//! (a head-on pair on one axis toggles both axes; anything else passes).
//!
//! [`HppRule`]: crate::hpp::HppRule

use crate::hpp::{HppDir, HPP_MASK};
use lattice_core::{Boundary, Grid, LatticeError, Shape};

/// Bit `i` of each byte of a `u64`.
const LOW_BITS: u64 = 0x0101_0101_0101_0101;

/// Gathers bit 0 of each of the 8 bytes of a word into one byte (byte
/// `i` → bit `i`): the partial products land on distinct bits 56..63.
const GATHER: u64 = 0x0102_0408_1020_4080;

/// `SPREAD[b]` has bit `i` of `b` in bit 0 of byte `i` — [`GATHER`]'s
/// inverse.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 8 {
            if b >> i & 1 != 0 {
                table[b] |= 1 << (8 * i);
            }
            i += 1;
        }
        b += 1;
    }
    table
};

/// An HPP lattice stored as four channel bit-planes, 64 sites per word,
/// packed along rows, under either periodic boundaries or the null
/// boundary (particles leaving the lattice vanish, none enter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HppBitLattice {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    periodic: bool,
    /// `planes[ch][row * words_per_row + w]`.
    planes: [Vec<u64>; 4],
}

impl HppBitLattice {
    /// Packs a byte-per-site HPP grid (2-D) into bit-planes, with
    /// periodic boundaries.
    pub fn from_grid(grid: &Grid<u8>) -> Result<Self, LatticeError> {
        Self::with_boundary(grid, Boundary::Periodic)
    }

    /// Packs a byte-per-site HPP grid (2-D) into bit-planes under
    /// `boundary`: periodic, or the null boundary `Fixed(0)` — the
    /// engines' stream boundary. A nonzero fill is rejected.
    pub fn with_boundary(grid: &Grid<u8>, boundary: Boundary<u8>) -> Result<Self, LatticeError> {
        let periodic = match boundary {
            Boundary::Periodic => true,
            Boundary::Fixed(0) => false,
            Boundary::Fixed(fill) => {
                return Err(LatticeError::InvalidConfig(format!(
                    "the bit-parallel kernel needs an empty null fill, not {fill:#04x}"
                )))
            }
        };
        let shape = grid.shape();
        if shape.rank() != 2 {
            return Err(LatticeError::BadRank { rank: shape.rank() });
        }
        let (rows, cols) = (shape.rows(), shape.cols());
        let wpr = cols.div_ceil(64);
        let mut planes = [
            vec![0u64; rows * wpr],
            vec![0u64; rows * wpr],
            vec![0u64; rows * wpr],
            vec![0u64; rows * wpr],
        ];
        for (r, row) in grid.as_slice().chunks_exact(cols).enumerate() {
            for (w, sites) in row.chunks(64).enumerate() {
                for (g, bytes) in sites.chunks(8).enumerate() {
                    let mut word = [0u8; 8];
                    word[..bytes.len()].copy_from_slice(bytes);
                    let x = u64::from_le_bytes(word);
                    if x & !(LOW_BITS * u64::from(HPP_MASK)) != 0 {
                        let at = bytes.iter().position(|&s| s & !HPP_MASK != 0).unwrap_or(0);
                        let (c, s) = (w * 64 + g * 8 + at, bytes[at]);
                        return Err(LatticeError::InvalidConfig(format!(
                            "site ({r},{c}) = {s:#04x} has non-HPP bits (obstacles are \
                             not supported by the bit-parallel kernel)"
                        )));
                    }
                    for (ch, plane) in planes.iter_mut().enumerate() {
                        let bits = (x >> ch & LOW_BITS).wrapping_mul(GATHER) >> 56;
                        plane[r * wpr + w] |= bits << (8 * g);
                    }
                }
            }
        }
        Ok(HppBitLattice { rows, cols, words_per_row: wpr, periodic, planes })
    }

    /// Unpacks to a byte-per-site grid.
    pub fn to_grid(&self) -> Grid<u8> {
        let shape = Shape::grid2(self.rows, self.cols).expect("valid dimensions");
        let wpr = self.words_per_row;
        let mut grid = Grid::new(shape);
        for (r, row) in grid.as_mut_slice().chunks_exact_mut(self.cols).enumerate() {
            for (w, sites) in row.chunks_mut(64).enumerate() {
                let words = self.planes.each_ref().map(|p| p[r * wpr + w]);
                for (g, bytes) in sites.chunks_mut(8).enumerate() {
                    let mut x = 0u64;
                    for (ch, word) in words.iter().enumerate() {
                        x |= SPREAD[(word >> (8 * g) & 0xff) as usize] << ch;
                    }
                    bytes.copy_from_slice(&x.to_le_bytes()[..bytes.len()]);
                }
            }
        }
        grid
    }

    /// Lattice rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Lattice columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Applies the collision step in place: word-parallel boolean
    /// algebra, no per-site branching.
    pub fn collide(&mut self) {
        let n_words = self.rows * self.words_per_row;
        // Mask off the ragged tail of each row so phantom sites beyond
        // `cols` never collide into existence.
        let tail_bits = self.cols % 64;
        let tail_mask: u64 = if tail_bits == 0 { u64::MAX } else { (1u64 << tail_bits) - 1 };
        for i in 0..n_words {
            let e = self.planes[HppDir::E as usize][i];
            let n = self.planes[HppDir::N as usize][i];
            let w = self.planes[HppDir::W as usize][i];
            let s = self.planes[HppDir::S as usize][i];
            let swap = (e & w & !n & !s) | (n & s & !e & !w);
            let mask = if (i + 1) % self.words_per_row == 0 { tail_mask } else { u64::MAX };
            let swap = swap & mask;
            self.planes[HppDir::E as usize][i] = e ^ swap;
            self.planes[HppDir::N as usize][i] = n ^ swap;
            self.planes[HppDir::W as usize][i] = w ^ swap;
            self.planes[HppDir::S as usize][i] = s ^ swap;
        }
    }

    /// Shifts one row's bit-plane left or right by one site
    /// (word-chained carries), wrapping the edge site around when
    /// `wrap` and dropping it otherwise.
    fn shift_row(row: &mut [u64], cols: usize, east: bool, wrap: bool) {
        let wpr = row.len();
        let tail_bits = cols % 64;
        let last_bit = if tail_bits == 0 { 63 } else { tail_bits - 1 };
        if east {
            // Sites move toward higher column index.
            let mut carry = if wrap { row[wpr - 1] >> last_bit & 1 } else { 0 };
            for w in row.iter_mut() {
                let new_carry = *w >> 63 & 1;
                *w = (*w << 1) | carry;
                carry = new_carry;
            }
        } else {
            let first = row[0] & 1;
            for w in 0..wpr {
                let next_in = if w + 1 < wpr { row[w + 1] & 1 } else { 0 };
                row[w] = (row[w] >> 1) | (next_in << 63);
            }
            if wrap {
                // Wrap the first column's bit into the last column.
                row[wpr - 1] |= first << last_bit;
            }
        }
        // Clear phantom bits above the tail.
        if tail_bits != 0 {
            row[wpr - 1] &= (1u64 << tail_bits) - 1;
        }
    }

    /// Applies the streaming step: E/W planes shift along rows, N/S
    /// planes move whole rows, wrapping at the edges on a torus and
    /// losing the particles that leave under the null boundary.
    pub fn stream(&mut self) {
        let wpr = self.words_per_row;
        let periodic = self.periodic;
        for r in 0..self.rows {
            let span = r * wpr..(r + 1) * wpr;
            Self::shift_row(
                &mut self.planes[HppDir::E as usize][span.clone()],
                self.cols,
                true,
                periodic,
            );
            Self::shift_row(&mut self.planes[HppDir::W as usize][span], self.cols, false, periodic);
        }
        // N movers go to row - 1 (the plane moves up), S movers to
        // row + 1 (down).
        let north = &mut self.planes[HppDir::N as usize];
        let len = north.len();
        if periodic {
            north.rotate_left(wpr);
        } else {
            north.copy_within(wpr.., 0);
            north[len - wpr..].fill(0);
        }
        let south = &mut self.planes[HppDir::S as usize];
        if periodic {
            south.rotate_right(wpr);
        } else {
            south.copy_within(..len - wpr, wpr);
            south[..wpr].fill(0);
        }
    }

    /// One full generation: collide then stream (matching
    /// [`crate::hpp::HppRule`]'s fused update order).
    pub fn step(&mut self) {
        self.collide();
        self.stream();
    }

    /// Evolves `steps` generations.
    pub fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Total particle count.
    pub fn mass(&self) -> u64 {
        self.planes.iter().flat_map(|p| p.iter()).map(|w| w.count_ones() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpp::HppRule;
    use crate::init;
    use lattice_core::{evolve, Coord};

    #[test]
    fn pack_unpack_roundtrip() {
        for (rows, cols) in [(1usize, 1usize), (4, 7), (2, 8), (8, 64), (3, 65), (5, 130), (2, 199)]
        {
            let shape = Shape::grid2(rows, cols).unwrap();
            let g = init::random_hpp(shape, 0.4, 9).unwrap();
            let packed = HppBitLattice::from_grid(&g).unwrap();
            assert_eq!(packed.to_grid(), g, "{rows}x{cols}");
        }
    }

    #[test]
    fn null_boundary_matches_reference_exactly() {
        for (rows, cols, steps) in
            [(1usize, 1usize, 3u64), (8, 16, 10), (6, 64, 7), (5, 65, 5), (10, 130, 4), (3, 3, 12)]
        {
            let shape = Shape::grid2(rows, cols).unwrap();
            let g = init::random_hpp(shape, 0.45, rows as u64 * 17 + cols as u64).unwrap();
            let reference = evolve(&g, &HppRule::new(), Boundary::null(), 0, steps);
            let mut packed = HppBitLattice::with_boundary(&g, Boundary::null()).unwrap();
            packed.run(steps);
            assert_eq!(packed.to_grid(), reference, "{rows}x{cols} steps={steps}");
        }
        let g = init::random_hpp(Shape::grid2(2, 2).unwrap(), 0.5, 1).unwrap();
        assert!(HppBitLattice::with_boundary(&g, Boundary::Fixed(1)).is_err());
    }

    #[test]
    fn rejects_non_hpp_bits() {
        let shape = Shape::grid2(2, 2).unwrap();
        let mut g = Grid::new(shape);
        g.set_linear(0, crate::OBSTACLE_BIT);
        assert!(HppBitLattice::from_grid(&g).is_err());
        // A stray bit in the ragged tail of a later word is found too.
        let mut g = Grid::new(Shape::grid2(2, 75).unwrap());
        g.set(Coord::c2(1, 73), 0x10);
        let err = HppBitLattice::from_grid(&g).unwrap_err().to_string();
        assert!(err.contains("(1,73)"), "{err}");
        let g1: Grid<u8> = Grid::new(Shape::line(4).unwrap());
        assert!(HppBitLattice::from_grid(&g1).is_err());
    }

    #[test]
    fn bit_parallel_matches_reference_exactly() {
        for (rows, cols, steps) in
            [(8usize, 16usize, 10u64), (6, 64, 7), (5, 65, 5), (10, 130, 4), (3, 3, 12)]
        {
            let shape = Shape::grid2(rows, cols).unwrap();
            let g = init::random_hpp(shape, 0.45, rows as u64 * 31 + cols as u64).unwrap();
            let reference = evolve(&g, &HppRule::new(), Boundary::Periodic, 0, steps);
            let mut packed = HppBitLattice::from_grid(&g).unwrap();
            packed.run(steps);
            assert_eq!(packed.to_grid(), reference, "{rows}x{cols} steps={steps}");
        }
    }

    #[test]
    fn collision_formula_by_cases() {
        let shape = Shape::grid2(1, 4).unwrap();
        // Head-on E+W, head-on N+S, pass-through 3-body, single.
        let g = Grid::from_vec(shape, vec![0b0101, 0b1010, 0b0111, 0b0001]).unwrap();
        let mut packed = HppBitLattice::from_grid(&g).unwrap();
        packed.collide();
        assert_eq!(packed.to_grid().as_slice(), &[0b1010, 0b0101, 0b0111, 0b0001]);
    }

    #[test]
    fn streaming_wraps_both_axes() {
        let shape = Shape::grid2(3, 70).unwrap(); // crosses a word boundary
        let mut g = Grid::new(shape);
        g.set(Coord::c2(0, 69), HppDir::E.bit()); // wraps to column 0
        g.set(Coord::c2(0, 0), HppDir::N.bit()); // wraps to row 2
        g.set(Coord::c2(2, 63), HppDir::S.bit()); // wraps to row 0
        g.set(Coord::c2(1, 64), HppDir::W.bit()); // crosses word down to 63
        let mut packed = HppBitLattice::from_grid(&g).unwrap();
        packed.stream();
        let out = packed.to_grid();
        assert_eq!(out.get(Coord::c2(0, 0)), HppDir::E.bit());
        assert_eq!(out.get(Coord::c2(0, 63)), HppDir::S.bit());
        assert_eq!(out.get(Coord::c2(2, 0)), HppDir::N.bit());
        assert_eq!(out.get(Coord::c2(1, 63)), HppDir::W.bit());
        assert_eq!(packed.mass(), 4);
    }

    #[test]
    fn mass_conserved_over_long_runs() {
        let shape = Shape::grid2(32, 100).unwrap();
        let g = init::random_hpp(shape, 0.3, 77).unwrap();
        let mut packed = HppBitLattice::from_grid(&g).unwrap();
        let m0 = packed.mass();
        packed.run(200);
        assert_eq!(packed.mass(), m0);
    }
}
