use crate::FrameError;

/// A single 8-bit sample plane (luma or one chroma component).
///
/// Rows are stored contiguously with no padding (`stride == width`). Edge
/// reads are clamped, matching the edge-extension behaviour codecs rely on
/// for motion compensation near frame borders.
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
    pub fn from_raw(width: usize, height: usize, data: Vec<u8>) -> Result<Self, FrameError> {
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

    /// Mutably borrows one full row of samples.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [u8] {
        let start = y * self.width;
        &mut self.data[start..start + self.width]
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
        // Edge extension by spans: the samples of a row that fall left of
        // the plane repeat its first sample, those right of it its last, and
        // the rest are one contiguous run — the same split for every row.
        // A block inside the plane is the case with nothing to repeat.
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
    pub fn sse(&self, other: &Plane) -> Result<u64, FrameError> {
        if self.width != other.width || self.height != other.height {
            return Err(FrameError::GeometryMismatch);
        }
        let mut acc = 0u64;
        for (a, b) in self.data.iter().zip(other.data.iter()) {
            let d = i32::from(*a) - i32::from(*b);
            acc += (d * d) as u64;
        }
        Ok(acc)
    }

    /// Sample variance of a `bw x bh` block at `(x, y)` (clamped reads),
    /// scaled by the block area (i.e. `sum((v - mean)^2)`).
    pub fn block_variance(&self, x: isize, y: isize, bw: usize, bh: usize) -> u32 {
        let mut sum = 0u32;
        let mut sq = 0u64;
        let mut add = |v: u8| {
            let v = u32::from(v);
            sum += v;
            sq += u64::from(v * v);
        };
        if let Some((x, y)) = self.interior(x, y, bw, bh) {
            for by in 0..bh {
                self.row(y + by)[x..x + bw].iter().for_each(|&v| add(v));
            }
        } else {
            for by in 0..bh {
                for bx in 0..bw {
                    add(self.get_clamped(x + bx as isize, y + by as isize));
                }
            }
        }
        let n = (bw * bh) as u64;
        let mean_sq = (u64::from(sum) * u64::from(sum)) / n;
        (sq - mean_sq.min(sq)) as u32
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
