use crate::plane::copy_rows;
use crate::Plane;

/// A [`Plane`] stored with a border of `pad` samples on every side, each a
/// copy of the nearest edge sample — what x264's `x264_frame_expand_border`
/// builds around a reference frame.
///
/// Block reads take their origin clamped into the border and read in place:
/// a `bw x bh` block at `(x, y)` is exactly what
/// [`Plane::copy_block_clamped`] returns at the same origin, as long as
/// `bw` and `bh` are at most `pad + 1`. Inside the border that is what the
/// border holds; a block wholly past it reads only edge replicas, and so
/// does the block at the border's rim that it is clamped to.
///
/// # Example
///
/// ```
/// use vtx_frame::{PaddedPlane, Plane};
///
/// let mut p = Plane::new(8, 8);
/// p.set(0, 0, 7);
/// let padded = PaddedPlane::new(&p, 4);
/// let mut blk = [0u8; 4];
/// padded.copy_block(-100, -3, 2, 2, &mut blk);
/// assert_eq!(blk, [7, 7, 7, 7]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaddedPlane {
    width: usize,
    height: usize,
    pad: usize,
    stride: usize,
    data: Vec<u8>,
}

/// A block of a [`PaddedPlane`], read in place.
#[derive(Debug, Clone, Copy)]
pub struct Block<'a> {
    samples: &'a [u8],
    stride: usize,
    width: usize,
}

impl<'a> Block<'a> {
    /// Row `r` of the block: its `bw` samples.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a row of the block.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [u8] {
        &self.samples[r * self.stride..][..self.width]
    }
}

impl PaddedPlane {
    /// Copies `plane` into a plane with a replicated border of `pad`
    /// samples on every side.
    pub fn new(plane: &Plane, pad: usize) -> Self {
        let (width, height) = (plane.width(), plane.height());
        let stride = width + 2 * pad;
        let mut data = Vec::with_capacity(stride * (height + 2 * pad));
        // Each row extended left and right, then the first and last of
        // those repeated above and below.
        for y in 0..height {
            let row = plane.row(y);
            data.extend(std::iter::repeat_n(row[0], pad));
            data.extend_from_slice(row);
            data.extend(std::iter::repeat_n(row[width - 1], pad));
            if y == 0 {
                for _ in 0..pad {
                    data.extend_from_within(..stride);
                }
            }
        }
        let last = data.len() - stride;
        for _ in 0..pad {
            data.extend_from_within(last..last + stride);
        }
        PaddedPlane {
            width,
            height,
            pad,
            stride,
            data,
        }
    }

    /// Width of the plane inside the border.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height of the plane inside the border.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The `bw x bh` block at plane coordinates `(x, y)`, read in place.
    ///
    /// # Panics
    ///
    /// Panics if `bw` or `bh` exceeds `pad + 1`: past that, clamping the
    /// origin into the border would change what the block reads.
    #[inline]
    pub fn block(&self, x: isize, y: isize, bw: usize, bh: usize) -> Block<'_> {
        assert!(
            bw <= self.pad + 1 && bh <= self.pad + 1,
            "{bw}x{bh} block wider than the {} border allows",
            self.pad
        );
        let pad = self.pad as isize;
        let px = (x.clamp(-pad, (self.width + self.pad - bw) as isize) + pad) as usize;
        let py = (y.clamp(-pad, (self.height + self.pad - bh) as isize) + pad) as usize;
        Block {
            samples: &self.data[py * self.stride + px..],
            stride: self.stride,
            width: bw,
        }
    }

    /// Copies the `bw x bh` block at `(x, y)` into `dst` (row-major): the
    /// samples [`Plane::copy_block_clamped`] gives on the unpadded plane.
    ///
    /// # Panics
    ///
    /// Panics as [`PaddedPlane::block`] does, or if `dst.len() < bw * bh`.
    #[inline]
    pub fn copy_block(&self, x: isize, y: isize, bw: usize, bh: usize, dst: &mut [u8]) {
        let block = self.block(x, y, bw, bh);
        copy_rows(block.samples, 0, block.stride, bw, bh, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtx_rng::Xoshiro256pp;

    fn random_plane(w: usize, h: usize, seed: u64) -> Plane {
        let mut rng = Xoshiro256pp::new(seed);
        let mut p = Plane::new(w, h);
        p.samples_mut().fill_with(|| rng.next_u8());
        p
    }

    /// Every block the border admits, at every origin from wholly past the
    /// border on one side to wholly past it on the other, reads what the
    /// clamped copy reads — on planes narrower and shorter than the border.
    #[test]
    fn blocks_equal_clamped_reads_at_every_origin() {
        for (w, h, pad) in [(24, 16, 5), (3, 2, 4), (1, 7, 3), (6, 1, 2)] {
            let p = random_plane(w, h, (w * 31 + h) as u64);
            let padded = PaddedPlane::new(&p, pad);
            for (bw, bh) in [(1, 1), (pad + 1, pad + 1), (pad, 2), (2, pad + 1)] {
                let (mut got, mut want) = (vec![0; bw * bh], vec![0; bw * bh]);
                let reach = (2 * pad + bw.max(bh)) as isize;
                for y in -reach..h as isize + reach {
                    for x in -reach..w as isize + reach {
                        padded.copy_block(x, y, bw, bh, &mut got);
                        p.copy_block_clamped(x, y, bw, bh, &mut want);
                        assert_eq!(got, want, "{w}x{h} pad {pad}, {bw}x{bh} at ({x}, {y})");
                        let rows: Vec<u8> = (0..bh)
                            .flat_map(|r| padded.block(x, y, bw, bh).row(r).to_vec())
                            .collect();
                        assert_eq!(rows, want, "rows of {bw}x{bh} at ({x}, {y})");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "wider than the 3 border allows")]
    fn a_block_wider_than_the_border_allows_panics() {
        let padded = PaddedPlane::new(&Plane::new(8, 8), 3);
        let _ = padded.block(0, 0, 5, 1);
    }
}
