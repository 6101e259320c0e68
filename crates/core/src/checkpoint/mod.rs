//! Lattice checkpoints: compact, self-describing grid snapshots.
//!
//! The paper's host "machine for support" owns the lattice between
//! engine passes; long lattice-gas runs (thousands of generations at
//! §2's "huge lattices") need periodic snapshots. The format is a small
//! run-length encoding over the raster stream — gas lattices are sparse
//! or locally uniform, so RLE does well — with a header carrying the
//! format version, the shape, the generation number, and the site
//! bit-width for validation on load.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "LGCK" | version u16 | rank u8 | bits u8 | runs u32 |
//! dims [u64; rank] | time u64 | runs × (count u32, value u64)
//! ```
//!
//! The `runs` count makes the image length explicit: `load` knows the
//! exact byte length the header implies and rejects anything shorter
//! (truncated) or longer (trailing bytes) before touching the payload,
//! and rejects a `version` beyond what this build writes — so future or
//! torn images fail with a structured [`LatticeError::Corrupted`]
//! reason instead of relying on a checksum alone. Durable storage with
//! CRC-64 footers and crash-safe commits lives in [`store`].

pub mod store;

use crate::coord::Shape;
use crate::grid::Grid;
use crate::rule::State;
use crate::units::Ticks;
use crate::LatticeError;

const MAGIC: &[u8; 4] = b"LGCK";

/// On-disk format version written by [`save`]; [`load`] rejects images
/// stamped with a newer version.
pub const FORMAT_VERSION: u16 = 2;

/// Bytes in the fixed part of the header (before the dims).
const FIXED_HEADER: usize = 4 + 2 + 1 + 1 + 4;
/// Bytes per RLE run: count `u32` + value `u64`.
const RUN_BYTES: usize = 12;

/// Serializes a grid (with its generation stamp) to bytes.
pub fn save<S: State>(grid: &Grid<S>, time: Ticks) -> Vec<u8> {
    encode(grid.shape(), time, || std::iter::once(grid.as_slice()))
}

/// Serializes the `rows`×`cols` block of the 2-D `grid` whose top-left
/// site is `(row0, col0)`: byte-identical to [`save`] of that block
/// copied out into its own grid, but read straight from the lattice's
/// row slices — the farm's per-shard checkpoint barrier.
pub fn save_block<S: State>(
    grid: &Grid<S>,
    (row0, col0): (usize, usize),
    (rows, cols): (usize, usize),
    time: Ticks,
) -> Result<Vec<u8>, LatticeError> {
    let outer = grid.shape();
    if outer.rank() != 2 {
        return Err(LatticeError::BadRank { rank: outer.rank() });
    }
    if row0 + rows > outer.rows() || col0 + cols > outer.cols() {
        return Err(LatticeError::InvalidConfig(format!(
            "block {rows}x{cols} at ({row0},{col0}) overruns the {}x{} lattice",
            outer.rows(),
            outer.cols()
        )));
    }
    let shape = Shape::grid2(rows, cols)?;
    let stride = outer.cols();
    let data = grid.as_slice();
    Ok(encode(shape, time, || {
        (row0..row0 + rows).map(move |r| &data[r * stride + col0..r * stride + col0 + cols])
    }))
}

/// The one encoder behind [`save`] and [`save_block`]: `slices()`
/// yields the raster stream in pieces (runs continue across piece
/// boundaries). One pass counts the runs, a second writes them into a
/// buffer sized exactly for the image.
fn encode<'a, S: State, I: Iterator<Item = &'a [S]>>(
    shape: Shape,
    time: Ticks,
    slices: impl Fn() -> I,
) -> Vec<u8> {
    let mut run_count = 0usize;
    for_each_run(slices(), |_, _| run_count += 1);
    let mut out = Vec::with_capacity(FIXED_HEADER + shape.rank() * 8 + 8 + run_count * RUN_BYTES);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(shape.rank() as u8);
    out.push(S::BITS as u8);
    out.extend_from_slice(&(run_count as u32).to_le_bytes());
    for &d in shape.dims() {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    out.extend_from_slice(&time.get().to_le_bytes());
    for_each_run(slices(), |count, value| {
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    });
    out
}

/// Calls `emit(count, value)` for every maximal run of equal words in
/// the concatenated `slices`, splitting runs longer than `u32::MAX`.
fn for_each_run<'a, S: State>(
    slices: impl Iterator<Item = &'a [S]>,
    mut emit: impl FnMut(u32, u64),
) {
    let (mut count, mut value) = (0u32, 0u64);
    for &site in slices.flatten() {
        let v = site.to_word();
        if count > 0 && v == value && count < u32::MAX {
            count += 1;
        } else {
            if count > 0 {
                emit(count, value);
            }
            (count, value) = (1, v);
        }
    }
    if count > 0 {
        emit(count, value);
    }
}

/// Deserializes a checkpoint, returning the grid and its generation.
///
/// Rejects malformed input with [`LatticeError::Corrupted`] — never
/// panics and never returns a partially-filled grid — so a checkpoint
/// pulled from unreliable storage can be probed safely. Distinct
/// structured reasons cover bad magic, future format versions,
/// truncated images, and trailing bytes.
pub fn load<S: State>(bytes: &[u8]) -> Result<(Grid<S>, Ticks), LatticeError> {
    let err = |msg: &str| LatticeError::Corrupted { site: "checkpoint".into(), detail: msg.into() };
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], LatticeError> {
        if *pos + n > bytes.len() {
            return Err(err("truncated"));
        }
        let s = &bytes[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    if take(&mut pos, 4)? != MAGIC {
        return Err(err("bad magic"));
    }
    let mut vb = [0u8; 2];
    vb.copy_from_slice(take(&mut pos, 2)?);
    let version = u16::from_le_bytes(vb);
    if version > FORMAT_VERSION {
        return Err(err(&format!(
            "future format version {version} (this build reads <= {FORMAT_VERSION})"
        )));
    }
    if version < FORMAT_VERSION {
        return Err(err(&format!("obsolete format version {version}")));
    }
    let rank = take(&mut pos, 1)?[0] as usize;
    let bits = take(&mut pos, 1)?[0] as u32;
    if bits != S::BITS {
        return Err(err(&format!("site width {} does not match expected {}", bits, S::BITS)));
    }
    if rank == 0 || rank > crate::MAX_DIMS {
        return Err(err(&format!("rank {rank} unsupported")));
    }
    let mut rb = [0u8; 4];
    rb.copy_from_slice(take(&mut pos, 4)?);
    let run_count = u32::from_le_bytes(rb) as usize;

    // The header implies the exact image length; check it up front so a
    // truncated or padded image is rejected by structure, not by
    // running off the end of (or leaving slack in) the run stream.
    let expect = FIXED_HEADER + rank * 8 + 8 + run_count * RUN_BYTES;
    if bytes.len() < expect {
        return Err(err(&format!("truncated: {} bytes, header implies {expect}", bytes.len())));
    }
    if bytes.len() > expect {
        return Err(err(&format!("trailing bytes: {} past declared length {expect}", bytes.len())));
    }

    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        let mut b = [0u8; 8];
        b.copy_from_slice(take(&mut pos, 8)?);
        dims.push(u64::from_le_bytes(b) as usize);
    }
    let shape = Shape::new(&dims)?;
    let mut tb = [0u8; 8];
    tb.copy_from_slice(take(&mut pos, 8)?);
    let time = Ticks::new(u64::from_le_bytes(tb));

    // Every run covers at most u32::MAX sites, so the declared run
    // count bounds the coverable lattice.
    let max_coverable = run_count as u128 * u32::MAX as u128;
    if shape.len() as u128 > max_coverable {
        return Err(err("declared lattice larger than the run stream can cover"));
    }

    // `data` grows only by runs actually decoded, never from the
    // header's dims: a flipped dims bit can declare a lattice far larger
    // than the image holds, and preallocating it would abort the
    // process instead of failing the "stops short" check below.
    let mut data: Vec<S> = Vec::new();
    for _ in 0..run_count {
        let mut cb = [0u8; 4];
        cb.copy_from_slice(take(&mut pos, 4)?);
        let count = u32::from_le_bytes(cb) as usize;
        let mut wb = [0u8; 8];
        wb.copy_from_slice(take(&mut pos, 8)?);
        let value = S::from_word(u64::from_le_bytes(wb));
        if count == 0 || data.len() + count > shape.len() {
            return Err(err("run overflows the lattice"));
        }
        data.resize(data.len() + count, value);
    }
    if data.len() != shape.len() {
        return Err(err("run stream stops short of the lattice"));
    }
    Ok((Grid::from_vec(shape, data)?, time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::Coord;

    /// Byte offset of the first RLE run for a rank-`r` image.
    fn runs_at(rank: usize) -> usize {
        FIXED_HEADER + rank * 8 + 8
    }

    #[test]
    fn roundtrip_2d() {
        let shape = Shape::grid2(7, 13).unwrap();
        let g = Grid::from_fn(shape, |c| ((c.row() * 13 + c.col()) % 5) as u8);
        let bytes = save(&g, Ticks::new(42));
        let (back, t) = load::<u8>(&bytes).unwrap();
        assert_eq!(back, g);
        assert_eq!(t, Ticks::new(42));
    }

    #[test]
    fn roundtrip_1d_and_3d() {
        let g1 = Grid::from_fn(Shape::line(100).unwrap(), |c| c.col() % 7 == 0);
        let (b1, _) = load::<bool>(&save(&g1, Ticks::ZERO)).unwrap();
        assert_eq!(b1, g1);
        let g3 = Grid::from_fn(Shape::grid3(3, 4, 5).unwrap(), |c| {
            (c.get(0) * 20 + c.get(1) * 5 + c.get(2)) as u16
        });
        let (b3, t) = load::<u16>(&save(&g3, Ticks::new(9))).unwrap();
        assert_eq!(b3, g3);
        assert_eq!(t.get(), 9);
    }

    #[test]
    fn uniform_grid_compresses_well() {
        let shape = Shape::grid2(100, 100).unwrap();
        let g: Grid<u8> = Grid::filled(shape, 7);
        let bytes = save(&g, Ticks::ZERO);
        // Header + one run: far below 10_000 raw bytes.
        assert!(bytes.len() < 64, "{} bytes", bytes.len());
        let (back, _) = load::<u8>(&bytes).unwrap();
        assert_eq!(back.get(Coord::c2(99, 99)), 7);
    }

    #[test]
    fn corrupted_inputs_are_rejected() {
        let g: Grid<u8> = Grid::new(Shape::grid2(4, 4).unwrap());
        let good = save(&g, Ticks::ONE);
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(load::<u8>(&bad).is_err());
        // Truncated.
        assert!(load::<u8>(&good[..good.len() - 3]).is_err());
        // Wrong site type.
        assert!(load::<u16>(&good).is_err());
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(load::<u8>(&long).is_err());
        // Run overflow: corrupt the first run count to a huge value.
        let mut over = good.clone();
        let at = runs_at(2);
        over[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(load::<u8>(&over).is_err());
    }

    #[test]
    fn future_version_rejected_with_structured_reason() {
        let g: Grid<u8> = Grid::new(Shape::grid2(2, 2).unwrap());
        let mut bytes = save(&g, Ticks::ZERO);
        bytes[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        match load::<u8>(&bytes) {
            Err(LatticeError::Corrupted { detail, .. }) => {
                assert!(detail.contains("future format version"), "{detail}");
            }
            other => panic!("expected structured rejection, got {other:?}"),
        }
        // The previous generation's magic is likewise rejected up front.
        let mut old = save(&g, Ticks::ZERO);
        old[..4].copy_from_slice(b"LGC1");
        assert!(load::<u8>(&old).is_err());
    }

    #[test]
    fn declared_length_is_validated_before_decode() {
        let g: Grid<u8> = Grid::new(Shape::grid2(4, 4).unwrap());
        let mut bytes = save(&g, Ticks::ZERO);
        // Claim one more run than the image carries: structured
        // "truncated" with the implied length, not a decode overrun.
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        match load::<u8>(&bytes) {
            Err(LatticeError::Corrupted { detail, .. }) => {
                assert!(detail.contains("truncated"), "{detail}");
            }
            other => panic!("expected truncation rejection, got {other:?}"),
        }
    }

    #[test]
    fn empty_runs_rejected() {
        let g: Grid<u8> = Grid::new(Shape::line(4).unwrap());
        let mut bytes = save(&g, Ticks::ZERO);
        let at = runs_at(1);
        bytes[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(load::<u8>(&bytes).is_err());
    }
    /// Images written by the encoder before it streamed from row
    /// slices, pinned byte for byte: runs that cross row boundaries,
    /// 1-bit and 16-bit sites, rank 1 and 3, and a sparse 33×70
    /// lattice (length and CRC-64).
    #[test]
    fn encoder_output_is_pinned_to_golden_bytes() {
        let g = Grid::from_fn(Shape::grid2(3, 5).unwrap(), |c| ((c.row() * 5 + c.col()) / 4) as u8);
        let golden: &[u8] = &[
            76, 71, 67, 75, 2, 0, 2, 8, 4, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0,
            42, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 1, 0, 0, 0, 0,
            0, 0, 0, 4, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(save(&g, Ticks::new(42)), golden);
        assert_eq!(save_block(&g, (0, 0), (3, 5), Ticks::new(42)).unwrap(), golden);

        let g1 = Grid::from_fn(Shape::line(10).unwrap(), |c| c.col() % 4 < 2);
        let golden1: &[u8] = &[
            76, 71, 67, 75, 2, 0, 1, 1, 5, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0,
            0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0,
            1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0,
            0, 0, 0,
        ];
        assert_eq!(save(&g1, Ticks::new(7)), golden1);

        let g3 =
            Grid::from_fn(Shape::grid3(2, 2, 2).unwrap(), |c| (c.get(0) * 300 + c.get(2)) as u16);
        let golden3: &[u8] = &[
            76, 71, 67, 75, 2, 0, 3, 16, 8, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0,
            0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1,
            0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 44, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 45, 1, 0, 0, 0,
            0, 0, 0, 1, 0, 0, 0, 44, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 45, 1, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(save(&g3, Ticks::ZERO), golden3);

        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let sparse = Grid::from_fn(Shape::grid2(33, 70).unwrap(), |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(5) {
                (x >> 8) as u8 & 0x0f
            } else {
                0
            }
        });
        let bytes = save(&sparse, Ticks::new(1 << 40));
        assert_eq!((bytes.len(), store::crc64(&bytes)), (8904, 0xf4f2_4c55_0323_6812));
    }

    #[test]
    fn save_block_matches_save_of_the_copied_block() {
        let outer = Shape::grid2(9, 13).unwrap();
        let g = Grid::from_fn(outer, |c| ((c.row() * 7 + c.col() * 3) % 4 / 3) as u8);
        for (r0, c0, rows, cols) in [(0, 0, 9, 13), (2, 3, 4, 5), (8, 12, 1, 1), (1, 0, 7, 13)] {
            let block = Grid::from_fn(Shape::grid2(rows, cols).unwrap(), |c| {
                g.get(Coord::c2(r0 + c.row(), c0 + c.col()))
            });
            let t = Ticks::new(11);
            assert_eq!(save_block(&g, (r0, c0), (rows, cols), t).unwrap(), save(&block, t));
        }
        assert!(save_block(&g, (5, 0), (5, 13), Ticks::ZERO).is_err());
        assert!(save_block(&g, (0, 10), (1, 4), Ticks::ZERO).is_err());
        let line: Grid<u8> = Grid::new(Shape::line(4).unwrap());
        assert!(save_block(&line, (0, 0), (1, 4), Ticks::ZERO).is_err());
    }

    #[test]
    fn a_forged_huge_shape_is_rejected_without_allocating_it() {
        // Four runs may cover up to 4 × u32::MAX sites, so dims of
        // 131071 × 131072 pass the coverage guard; preallocating that
        // many 16-bit sites (34 GB) from the header would abort.
        let g = Grid::from_vec(Shape::grid2(2, 2).unwrap(), vec![1u16, 2, 3, 4]).unwrap();
        let mut bytes = save(&g, Ticks::ZERO);
        bytes[12..20].copy_from_slice(&131_071u64.to_le_bytes());
        bytes[20..28].copy_from_slice(&131_072u64.to_le_bytes());
        match load::<u16>(&bytes) {
            Err(LatticeError::Corrupted { detail, .. }) => {
                assert!(detail.contains("stops short"), "{detail}");
            }
            other => panic!("expected a structured rejection, got {other:?}"),
        }
    }
}
