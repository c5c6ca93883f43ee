use crate::FrameError;

/// A single 8-bit sample plane (luma or one chroma component).
///
/// Rows are stored contiguously with no padding (`stride == width`). Edge
/// reads are clamped, matching the edge-extension behaviour codecs rely on
/// for motion compensation near frame borders; a reference plane read many
/// times is border-extended once instead (see [`crate::PaddedPlane`]).
///
/// # Example
///
/// ```
/// use vtx_frame::Plane;
///
/// let mut p = Plane::new(16, 16);
/// p.set(3, 4, 200);
/// assert_eq!(p.get(3, 4), 200);
/// // out-of-range access clamps to the nearest edge sample
/// assert_eq!(p.get_clamped(-5, 4), p.get(0, 4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plane {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Plane {
    /// Creates a plane of the given size filled with mid-gray (128).
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be nonzero");
        Plane {
            width,
            height,
            data: vec![128; width * height],
        }
    }

    /// Creates a plane from raw row-major samples.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::BufferSizeMismatch`] if `data.len() != width * height`
    /// and [`FrameError::InvalidDimensions`] for zero-sized geometry.
    pub(crate) fn from_raw(width: usize, height: usize, data: Vec<u8>) -> Result<Self, FrameError> {
        if width == 0 || height == 0 {
            return Err(FrameError::InvalidDimensions { width, height });
        }
        if data.len() != width * height {
            return Err(FrameError::BufferSizeMismatch {
                expected: width * height,
                actual: data.len(),
            });
        }
        Ok(Plane {
            width,
            height,
            data,
        })
    }

    /// Plane width in samples.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in samples.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Immutable view of the raw samples in row-major order.
    #[inline]
    pub fn samples(&self) -> &[u8] {
        &self.data
    }

    /// Mutable view of the raw samples in row-major order.
    #[inline]
    pub fn samples_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Reads the sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds; use [`Plane::get_clamped`] for
    /// edge-extended reads.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Writes the sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = v;
    }

    /// Reads the sample at `(x, y)`, clamping coordinates to the plane edges.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Borrows one full row of samples.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row(&self, y: usize) -> &[u8] {
        let start = y * self.width;
        &self.data[start..start + self.width]
    }

    /// Fills the whole plane with a constant value.
    pub fn fill(&mut self, v: u8) {
        self.data.fill(v);
    }

    /// `(x, y)` as in-bounds coordinates if the `bw x bh` block there lies
    /// wholly inside the plane, so that reading it needs no edge extension.
    #[inline]
    pub fn interior(&self, x: isize, y: isize, bw: usize, bh: usize) -> Option<(usize, usize)> {
        let (ux, uy) = (usize::try_from(x).ok()?, usize::try_from(y).ok()?);
        (ux + bw <= self.width && uy + bh <= self.height).then_some((ux, uy))
    }

    /// Copies a `bw x bh` block with its top-left corner at `(x, y)` into `dst`
    /// (row-major), edge-extending reads that fall outside the plane.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() < bw * bh`.
    pub fn copy_block_clamped(&self, x: isize, y: isize, bw: usize, bh: usize, dst: &mut [u8]) {
        assert!(dst.len() >= bw * bh, "destination block too small");
        if let Some((x, y)) = self.interior(x, y, bw, bh) {
            copy_rows(&self.data, y * self.width + x, self.width, bw, bh, dst);
            return;
        }
        // Edge extension by spans: the samples of a row that fall left of
        // the plane repeat its first sample, those right of it its last, and
        // the rest are one contiguous run — the same split for every row.
        let left = x.saturating_neg().clamp(0, bw as isize) as usize;
        let right = (x + bw as isize - self.width as isize).clamp(0, bw as isize) as usize;
        let mid = bw - left - right;
        let sx = x.clamp(0, self.width as isize) as usize;
        for by in 0..bh {
            let row = self.row((y + by as isize).clamp(0, self.height as isize - 1) as usize);
            let dst = &mut dst[by * bw..(by + 1) * bw];
            // An empty `fill` is still a call: skip it.
            if left > 0 {
                dst[..left].fill(row[0]);
            }
            dst[left..left + mid].copy_from_slice(&row[sx..sx + mid]);
            if right > 0 {
                dst[left + mid..].fill(row[self.width - 1]);
            }
        }
    }

    /// Writes a `bw x bh` row-major block at `(x, y)`, clipping writes that
    /// fall outside the plane.
    pub fn write_block(&mut self, x: usize, y: usize, bw: usize, bh: usize, src: &[u8]) {
        debug_assert!(src.len() >= bw * bh);
        let w = bw.min(self.width.saturating_sub(x));
        if w == 0 {
            return; // wholly right of the plane: `start` below may be past the end
        }
        let h = bh.min(self.height.saturating_sub(y));
        if w == bw {
            write_rows(src, bw, h, &mut self.data, y * self.width + x, self.width);
            return;
        }
        for by in 0..h {
            let start = (y + by) * self.width + x;
            self.data[start..start + w].copy_from_slice(&src[by * bw..by * bw + w]);
        }
    }

    /// Sum of squared differences against another plane of identical geometry.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::GeometryMismatch`] when the planes differ in size.
    pub(crate) fn sse(&self, other: &Plane) -> Result<u64, FrameError> {
        if self.width != other.width || self.height != other.height {
            return Err(FrameError::GeometryMismatch);
        }
        Ok(sum_squared_diffs(&self.data, &other.data))
    }

    /// Sample variance of a `bw x bh` block at `(x, y)` (clamped reads),
    /// scaled by the block area (i.e. `sum((v - mean)^2)`).
    pub fn block_variance(&self, x: isize, y: isize, bw: usize, bh: usize) -> u32 {
        let (mut sum, mut sq) = (0u64, 0u64);
        if let Some((x, y)) = self.interior(x, y, bw, bh) {
            for by in 0..bh {
                for run in self.row(y + by)[x..x + bw].chunks(SQUARES_PER_U32) {
                    let (s, q) = run.iter().fold((0u32, 0u32), |(s, q), &v| {
                        let v = u32::from(v);
                        (s + v, q + v * v)
                    });
                    sum += u64::from(s);
                    sq += u64::from(q);
                }
            }
        } else {
            for by in 0..bh {
                for bx in 0..bw {
                    let v = u64::from(self.get_clamped(x + bx as isize, y + by as isize));
                    sum += v;
                    sq += v * v;
                }
            }
        }
        let mean_sq = (sum * sum) / (bw * bh) as u64;
        (sq - mean_sq.min(sq)) as u32
    }
}

/// The most squares of 8-bit samples or sample differences (each at most
/// 255², 65,025) that a `u32` partial sum holds: 66,051, rounded down to a
/// power of two. Frame passes sum runs this long in `u32` lanes, which
/// vectorise, and widen each run's total once.
const SQUARES_PER_U32: usize = 1 << 16;
/// The most 8-bit absolute differences (each at most 255) that a `u32`
/// partial sum holds: 16,843,009, rounded down to a power of two.
const ABS_DIFFS_PER_U32: usize = 1 << 24;

const _: () = assert!(SQUARES_PER_U32 as u64 * 255 * 255 <= u32::MAX as u64);
const _: () = assert!(ABS_DIFFS_PER_U32 as u64 * 255 <= u32::MAX as u64);

/// `sum((a - b)^2)` over two equal-length sample runs.
fn sum_squared_diffs(a: &[u8], b: &[u8]) -> u64 {
    a.chunks(SQUARES_PER_U32)
        .zip(b.chunks(SQUARES_PER_U32))
        .map(|(a, b)| {
            let run: u32 = a
                .iter()
                .zip(b)
                .map(|(&a, &b)| {
                    let d = u32::from(a.abs_diff(b));
                    d * d
                })
                .sum();
            u64::from(run)
        })
        .sum()
}

/// `sum(|a - b|)` over two equal-length sample runs.
pub(crate) fn sum_abs_diffs(a: &[u8], b: &[u8]) -> u64 {
    a.chunks(ABS_DIFFS_PER_U32)
        .zip(b.chunks(ABS_DIFFS_PER_U32))
        .map(|(a, b)| {
            let run: u32 = a
                .iter()
                .zip(b)
                .map(|(&a, &b)| u32::from(a.abs_diff(b)))
                .sum();
            u64::from(run)
        })
        .sum()
}

/// Copies `bh` rows of `bw` samples into `dst` (row-major), row `r` from
/// `src[start + r * stride..]`. The codec's row widths — 4, 8 and 16, and 9
/// and 17 with a half-pel tap — each get a copy of their own, where a row
/// is a fixed-size move instead of a `memcpy` call.
#[inline]
pub(crate) fn copy_rows(
    src: &[u8],
    start: usize,
    stride: usize,
    bw: usize,
    bh: usize,
    dst: &mut [u8],
) {
    match bw {
        4 => copy_rows_of::<4>(src, start, stride, bh, dst),
        8 => copy_rows_of::<8>(src, start, stride, bh, dst),
        9 => copy_rows_of::<9>(src, start, stride, bh, dst),
        16 => copy_rows_of::<16>(src, start, stride, bh, dst),
        17 => copy_rows_of::<17>(src, start, stride, bh, dst),
        _ => {
            for (r, out) in dst[..bw * bh].chunks_exact_mut(bw).enumerate() {
                let from = start + r * stride;
                out.copy_from_slice(&src[from..from + bw]);
            }
        }
    }
}

#[inline]
fn copy_rows_of<const W: usize>(
    src: &[u8],
    start: usize,
    stride: usize,
    bh: usize,
    dst: &mut [u8],
) {
    for (r, out) in dst.as_chunks_mut::<W>().0[..bh].iter_mut().enumerate() {
        *out = *src[start + r * stride..]
            .first_chunk::<W>()
            .expect("block row inside the plane");
    }
}

/// The mirror of [`copy_rows`]: `bh` rows of `bw` samples from `src`
/// (row-major) to `dst[start + r * stride..]`.
#[inline]
fn write_rows(src: &[u8], bw: usize, bh: usize, dst: &mut [u8], start: usize, stride: usize) {
    match bw {
        4 => write_rows_of::<4>(src, bh, dst, start, stride),
        8 => write_rows_of::<8>(src, bh, dst, start, stride),
        16 => write_rows_of::<16>(src, bh, dst, start, stride),
        _ => {
            for (r, row) in src[..bw * bh].chunks_exact(bw).enumerate() {
                let to = start + r * stride;
                dst[to..to + bw].copy_from_slice(row);
            }
        }
    }
}

#[inline]
fn write_rows_of<const W: usize>(
    src: &[u8],
    bh: usize,
    dst: &mut [u8],
    start: usize,
    stride: usize,
) {
    for (r, row) in src.as_chunks::<W>().0[..bh].iter().enumerate() {
        *dst[start + r * stride..]
            .first_chunk_mut::<W>()
            .expect("block row inside the plane") = *row;
    }
}

/// The bodies the fixed-shape row moves and the `u32`-lane passes replaced,
/// kept as their oracles.
#[cfg(test)]
mod oracle {
    use super::Plane;

    /// `copy_block_clamped` as edge-extending spans on every row, inside
    /// the plane or not.
    pub(super) fn copy_block_clamped(
        p: &Plane,
        x: isize,
        y: isize,
        bw: usize,
        bh: usize,
        dst: &mut [u8],
    ) {
        let left = x.saturating_neg().clamp(0, bw as isize) as usize;
        let right = (x + bw as isize - p.width() as isize).clamp(0, bw as isize) as usize;
        let mid = bw - left - right;
        let sx = x.clamp(0, p.width() as isize) as usize;
        for by in 0..bh {
            let row = p.row((y + by as isize).clamp(0, p.height() as isize - 1) as usize);
            let dst = &mut dst[by * bw..(by + 1) * bw];
            dst[..left].fill(row[0]);
            dst[left..left + mid].copy_from_slice(&row[sx..sx + mid]);
            dst[left + mid..].fill(row[p.width() - 1]);
        }
    }

    /// `write_block` as a clipped slice copy per row.
    pub(super) fn write_block(p: &mut Plane, x: usize, y: usize, bw: usize, bh: usize, src: &[u8]) {
        let w = bw.min(p.width().saturating_sub(x));
        if w == 0 {
            return;
        }
        let h = bh.min(p.height().saturating_sub(y));
        let width = p.width();
        for by in 0..h {
            let start = (y + by) * width + x;
            p.samples_mut()[start..start + w].copy_from_slice(&src[by * bw..by * bw + w]);
        }
    }

    /// `sse` accumulating each squared difference in `u64`.
    pub(super) fn sse(a: &Plane, b: &Plane) -> u64 {
        let mut acc = 0u64;
        for (a, b) in a.samples().iter().zip(b.samples()) {
            let d = i32::from(*a) - i32::from(*b);
            acc += (d * d) as u64;
        }
        acc
    }

    /// `block_variance` with a `u32` sum and a `u64` sum of squares fed
    /// sample by sample.
    pub(super) fn block_variance(p: &Plane, x: isize, y: isize, bw: usize, bh: usize) -> u32 {
        let mut sum = 0u32;
        let mut sq = 0u64;
        for by in 0..bh {
            for bx in 0..bw {
                let v = u32::from(p.get_clamped(x + bx as isize, y + by as isize));
                sum += v;
                sq += u64::from(v * v);
            }
        }
        let n = (bw * bh) as u64;
        let mean_sq = (u64::from(sum) * u64::from(sum)) / n;
        (sq - mean_sq.min(sq)) as u32
    }

    /// `sum(|a - b|)` in `u64`, sample by sample: `mean_abs_luma_diff`'s
    /// numerator before it was summed in `u32` lanes.
    pub(super) fn sum_abs_diffs(a: &[u8], b: &[u8]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(a, b)| u64::from(a.abs_diff(*b)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_fills_midgray() {
        let p = Plane::new(4, 3);
        assert!(p.samples().iter().all(|&v| v == 128));
        assert_eq!(p.samples().len(), 12);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dims_panic() {
        let _ = Plane::new(0, 4);
    }

    #[test]
    fn from_raw_validates() {
        assert!(Plane::from_raw(2, 2, vec![0; 4]).is_ok());
        assert_eq!(
            Plane::from_raw(2, 2, vec![0; 5]),
            Err(FrameError::BufferSizeMismatch {
                expected: 4,
                actual: 5
            })
        );
        assert!(matches!(
            Plane::from_raw(0, 2, vec![]),
            Err(FrameError::InvalidDimensions { .. })
        ));
    }

    #[test]
    fn clamped_reads_extend_edges() {
        let mut p = Plane::new(4, 4);
        p.set(0, 0, 10);
        p.set(3, 3, 99);
        assert_eq!(p.get_clamped(-100, -100), 10);
        assert_eq!(p.get_clamped(100, 100), 99);
    }

    #[test]
    fn block_copy_roundtrip() {
        let mut p = Plane::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                p.set(x, y, (y * 8 + x) as u8);
            }
        }
        let mut blk = [0u8; 16];
        p.copy_block_clamped(2, 2, 4, 4, &mut blk);
        assert_eq!(blk[0], p.get(2, 2));
        assert_eq!(blk[15], p.get(5, 5));

        let mut q = Plane::new(8, 8);
        q.write_block(2, 2, 4, 4, &blk);
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(q.get(2 + x, 2 + y), p.get(2 + x, 2 + y));
            }
        }
    }

    #[test]
    fn write_block_clips_at_edges() {
        let mut p = Plane::new(4, 4);
        let blk = [7u8; 16];
        p.write_block(2, 2, 4, 4, &blk);
        assert_eq!(p.get(3, 3), 7);
        assert_eq!(p.get(1, 1), 128);
    }

    #[test]
    fn sse_zero_for_identical() {
        let p = Plane::new(6, 6);
        assert_eq!(p.sse(&p).unwrap(), 0);
        let q = Plane::new(6, 7);
        assert_eq!(p.sse(&q), Err(FrameError::GeometryMismatch));
    }

    #[test]
    fn variance_flat_block_is_zero_fixed() {
        let p = Plane::new(16, 16);
        assert_eq!(p.block_variance(0, 0, 16, 16), 0);
        let mut q = Plane::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                q.set(x, y, if (x + y) % 2 == 0 { 0 } else { 255 });
            }
        }
        assert!(q.block_variance(0, 0, 16, 16) > 1000);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use vtx_rng::Xoshiro256pp;

    /// write_block followed by copy_block_clamped is the identity for
    /// in-bounds blocks of any geometry.
    #[test]
    fn block_write_read_roundtrip() {
        let mut rng = Xoshiro256pp::new(0x9147E);
        for _ in 0..256 {
            let w = 8 + rng.next_range(32) as usize;
            let h = 8 + rng.next_range(32) as usize;
            let bx = rng.next_range(8) as usize;
            let by = rng.next_range(8) as usize;
            let fill: [u8; 16] = std::array::from_fn(|_| rng.next_u8());
            let mut p = Plane::new(w.max(bx + 4), h.max(by + 4));
            p.write_block(bx, by, 4, 4, &fill);
            let mut out = [0u8; 16];
            p.copy_block_clamped(bx as isize, by as isize, 4, 4, &mut out);
            assert_eq!(out, fill, "{w}x{h} block at ({bx}, {by})");
        }
    }

    /// A block copy equals sample-by-sample clamped reads wherever the
    /// block sits — wholly outside on each side, straddling each edge and
    /// corner, wholly inside — including blocks wider or taller than the
    /// plane and planes one sample wide or tall.
    #[test]
    fn block_copy_matches_clamped_reads_everywhere() {
        let mut rng = Xoshiro256pp::new(0xB10C);
        for (w, h, bw, bh) in [
            (20, 14, 6, 5),
            (5, 4, 8, 3),
            (6, 3, 4, 7),
            (3, 3, 9, 9),
            (1, 9, 4, 4),
            (9, 1, 4, 4),
            (1, 1, 3, 2),
        ] {
            let mut p = Plane::new(w, h);
            p.samples_mut().fill_with(|| rng.next_u8());
            let mut out = vec![0u8; bw * bh];
            for y in -(bh as isize) - 2..h as isize + 3 {
                for x in -(bw as isize) - 2..w as isize + 3 {
                    p.copy_block_clamped(x, y, bw, bh, &mut out);
                    for (i, &got) in out.iter().enumerate() {
                        let want = p.get_clamped(x + (i % bw) as isize, y + (i / bw) as isize);
                        assert_eq!(got, want, "{w}x{h} plane, {bw}x{bh} block ({x}, {y}) #{i}");
                    }
                }
            }
        }
    }

    /// Row-wise `write_block` clips exactly as sample-by-sample writes do:
    /// partly or wholly past the right and bottom edges, `x` beyond the
    /// width, blocks larger than the plane.
    #[test]
    fn block_write_clips_like_per_sample_writes() {
        for (w, h, bw, bh) in [(8, 6, 4, 4), (3, 2, 5, 4), (1, 5, 3, 3)] {
            let src: Vec<u8> = (0..bw * bh).map(|i| i as u8 + 1).collect();
            for y in 0..h + 3 {
                for x in 0..w + 3 {
                    let mut got = Plane::new(w, h);
                    got.write_block(x, y, bw, bh, &src);
                    let mut want = Plane::new(w, h);
                    for (i, &v) in src.iter().enumerate() {
                        let (px, py) = (x + i % bw, y + i / bw);
                        if px < w && py < h {
                            want.set(px, py, v);
                        }
                    }
                    assert_eq!(got, want, "{w}x{h} plane, {bw}x{bh} block ({x}, {y})");
                }
            }
        }
    }

    /// The interior row path of `block_variance` and its clamped path are
    /// one definition: sum of squares minus squared sum over the area.
    #[test]
    fn block_variance_matches_the_per_sample_definition() {
        let mut rng = Xoshiro256pp::new(0x7A21);
        let mut p = Plane::new(24, 20);
        p.samples_mut().fill_with(|| rng.next_u8());
        for y in -5..22isize {
            for x in -5..26isize {
                let (mut sum, mut sq) = (0u64, 0u64);
                for i in 0..16 * 8 {
                    let v = u64::from(p.get_clamped(x + i % 16, y + i / 16));
                    sum += v;
                    sq += v * v;
                }
                let want = (sq - sum * sum / 128) as u32;
                assert_eq!(p.block_variance(x, y, 16, 8), want, "block ({x}, {y})");
            }
        }
    }

    /// Fixed-width row copies against the span path they replaced, on
    /// random planes, for every width the codec reads (and two it does
    /// not), at every origin from wholly outside to wholly inside.
    #[test]
    fn block_copies_equal_the_span_oracle() {
        let mut rng = Xoshiro256pp::new(0xF1_0ED);
        for (w, h) in [(40, 36), (17, 9), (4, 20)] {
            let mut p = Plane::new(w, h);
            p.samples_mut().fill_with(|| rng.next_u8());
            for (bw, bh) in [(4, 4), (8, 8), (9, 9), (16, 16), (17, 17), (5, 5), (16, 3)] {
                let (mut got, mut want) = (vec![0; bw * bh], vec![0; bw * bh]);
                for y in -(bh as isize) - 1..=(h as isize + 1) {
                    for x in -(bw as isize) - 1..=(w as isize + 1) {
                        p.copy_block_clamped(x, y, bw, bh, &mut got);
                        oracle::copy_block_clamped(&p, x, y, bw, bh, &mut want);
                        assert_eq!(got, want, "{w}x{h} plane, {bw}x{bh} block ({x}, {y})");
                    }
                }
            }
        }
    }

    /// Fixed-width row writes against the clipped slice path: inside the
    /// plane, at its edges, and clipped right, below, or both.
    #[test]
    fn block_writes_equal_the_clipped_oracle() {
        let mut rng = Xoshiro256pp::new(0x3E17E);
        for (w, h) in [(40, 36), (17, 9), (4, 20)] {
            let mut base = Plane::new(w, h);
            base.samples_mut().fill_with(|| rng.next_u8());
            for (bw, bh) in [(4, 4), (8, 8), (16, 16), (9, 9), (5, 3)] {
                let src: Vec<u8> = (0..bw * bh).map(|_| rng.next_u8()).collect();
                for y in 0..h + 2 {
                    for x in 0..w + 2 {
                        let (mut got, mut want) = (base.clone(), base.clone());
                        got.write_block(x, y, bw, bh, &src);
                        oracle::write_block(&mut want, x, y, bw, bh, &src);
                        assert_eq!(got, want, "{w}x{h} plane, {bw}x{bh} block ({x}, {y})");
                    }
                }
            }
        }
    }

    /// `sse` in `u32` runs against the sample-by-sample `u64` sum: random
    /// planes, and the largest difference over two runs and a tail, where a
    /// run widened one run late would overflow.
    #[test]
    fn sse_equals_the_per_sample_sum() {
        let mut rng = Xoshiro256pp::new(0x55E);
        let mut a = Plane::new(37, 23);
        let mut b = Plane::new(37, 23);
        a.samples_mut().fill_with(|| rng.next_u8());
        b.samples_mut().fill_with(|| rng.next_u8());
        assert_eq!(a.sse(&b), Ok(oracle::sse(&a, &b)));

        let (w, h) = (512, 2 * SQUARES_PER_U32 / 512 + 3);
        let mut bright = Plane::new(w, h);
        bright.fill(255);
        let mut dark = Plane::new(w, h);
        dark.fill(0);
        let want = (w * h) as u64 * 255 * 255;
        assert_eq!(oracle::sse(&bright, &dark), want);
        assert_eq!(bright.sse(&dark), Ok(want));
        assert_eq!(dark.sse(&bright), Ok(want));
    }

    /// The absolute-difference sum behind `Frame::mean_abs_luma_diff`, in
    /// `u32` runs, against the sample-by-sample `u64` sum: random samples,
    /// and the largest difference over one run and a tail.
    #[test]
    fn abs_diff_sum_equals_the_per_sample_sum() {
        let mut rng = Xoshiro256pp::new(0xAB5);
        let a: Vec<u8> = (0..5000).map(|_| rng.next_u8()).collect();
        let b: Vec<u8> = (0..5000).map(|_| rng.next_u8()).collect();
        assert_eq!(sum_abs_diffs(&a, &b), oracle::sum_abs_diffs(&a, &b));

        // One run plus enough tail that a single `u32` would overflow.
        let n = ABS_DIFFS_PER_U32 + (1 << 17);
        let (bright, dark) = (vec![255u8; n], vec![0u8; n]);
        assert_eq!(sum_abs_diffs(&bright, &dark), n as u64 * 255);
    }

    /// `block_variance` in `u32` runs per row against the sample-by-sample
    /// definition, inside the plane and across its edges, and on a row
    /// longer than one run of the largest squares.
    #[test]
    fn block_variance_equals_the_per_sample_oracle() {
        let mut rng = Xoshiro256pp::new(0xB7A2);
        let mut p = Plane::new(40, 36);
        p.samples_mut().fill_with(|| rng.next_u8());
        for (bw, bh) in [(16, 16), (8, 8), (4, 4), (16, 8)] {
            for y in -4..40isize {
                for x in -4..44isize {
                    assert_eq!(
                        p.block_variance(x, y, bw, bh),
                        oracle::block_variance(&p, x, y, bw, bh),
                        "{bw}x{bh} block ({x}, {y})"
                    );
                }
            }
        }

        // One long row of 255 with every 64th sample 0: the squares of one
        // run fit its `u32`, those of the whole row would not.
        let w = SQUARES_PER_U32 + 2048;
        let mut long = Plane::new(w, 1);
        for (i, v) in long.samples_mut().iter_mut().enumerate() {
            *v = if i % 64 == 0 { 0 } else { 255 };
        }
        let bright = (w - w / 64) as u64;
        assert!(bright * 255 * 255 > u64::from(u32::MAX));
        let (sum, sq) = (bright * 255, bright * 255 * 255);
        let want = (sq - sum * sum / w as u64) as u32;
        assert_eq!(long.block_variance(0, 0, w, 1), want);
    }

    /// Clamped reads always return a value present in the plane.
    #[test]
    fn clamped_read_in_range() {
        let mut rng = Xoshiro256pp::new(0xC1A39);
        for _ in 0..256 {
            let x = rng.next_i64_in(-100, 100) as isize;
            let y = rng.next_i64_in(-100, 100) as isize;
            let seed = rng.next_u8();
            let mut p = Plane::new(16, 12);
            p.fill(seed);
            assert_eq!(p.get_clamped(x, y), seed, "({x}, {y})");
        }
    }
}
