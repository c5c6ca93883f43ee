//! Intra prediction (spatial redundancy elimination, §II-A of the paper).
//!
//! 16x16 prediction offers DC / vertical / horizontal / plane modes; 4x4
//! prediction offers DC / vertical / horizontal / diagonal-down-left /
//! diagonal-down-right. Prediction always reads the *reconstructed*
//! neighbours (what the decoder will have), never the source.

use vtx_frame::Plane;

use crate::transform::satd16x16;

/// Intra 16x16 luma prediction mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intra16Mode {
    /// Average of available neighbours.
    Dc,
    /// Copy the row above.
    Vertical,
    /// Copy the column to the left.
    Horizontal,
    /// First-order plane fit of the border samples.
    Plane,
}

impl Intra16Mode {
    /// All modes, in coded order.
    pub const ALL: [Intra16Mode; 4] = [
        Intra16Mode::Dc,
        Intra16Mode::Vertical,
        Intra16Mode::Horizontal,
        Intra16Mode::Plane,
    ];

    /// Coded index of the mode.
    pub fn index(self) -> u32 {
        match self {
            Intra16Mode::Dc => 0,
            Intra16Mode::Vertical => 1,
            Intra16Mode::Horizontal => 2,
            Intra16Mode::Plane => 3,
        }
    }

    /// Mode for a coded index.
    pub fn from_index(i: u32) -> Option<Self> {
        Self::ALL.get(i as usize).copied()
    }
}

/// Intra 4x4 luma prediction mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intra4Mode {
    /// Average of available neighbours.
    Dc,
    /// Copy the row above.
    Vertical,
    /// Copy the column to the left.
    Horizontal,
    /// Diagonal down-left (H.264 mode 3): 45-degree edges from the top row.
    DiagDownLeft,
    /// Diagonal down-right (H.264 mode 4): 45-degree edges through the corner.
    DiagDownRight,
}

impl Intra4Mode {
    /// All modes, in coded order.
    pub const ALL: [Intra4Mode; 5] = [
        Intra4Mode::Dc,
        Intra4Mode::Vertical,
        Intra4Mode::Horizontal,
        Intra4Mode::DiagDownLeft,
        Intra4Mode::DiagDownRight,
    ];

    /// Coded index of the mode.
    pub fn index(self) -> u32 {
        match self {
            Intra4Mode::Dc => 0,
            Intra4Mode::Vertical => 1,
            Intra4Mode::Horizontal => 2,
            Intra4Mode::DiagDownLeft => 3,
            Intra4Mode::DiagDownRight => 4,
        }
    }

    /// Mode for a coded index.
    pub fn from_index(i: u32) -> Option<Self> {
        Self::ALL.get(i as usize).copied()
    }
}

/// Predicts a 16x16 luma block at pixel `(x, y)` from reconstructed
/// neighbours in `recon`.
pub fn predict16(recon: &Plane, x: usize, y: usize, mode: Intra16Mode) -> [u8; 256] {
    let top_avail = y > 0;
    let left_avail = x > 0;
    let mut out = [0u8; 256];
    match mode {
        Intra16Mode::Dc => {
            let dc = dc_value(recon, x, y, 16, top_avail, left_avail);
            out.fill(dc);
        }
        Intra16Mode::Vertical => {
            for col in 0..16 {
                let v = if top_avail {
                    recon.get_clamped((x + col) as isize, y as isize - 1)
                } else {
                    128
                };
                for row in 0..16 {
                    out[row * 16 + col] = v;
                }
            }
        }
        Intra16Mode::Horizontal => {
            for row in 0..16 {
                let v = if left_avail {
                    recon.get_clamped(x as isize - 1, (y + row) as isize)
                } else {
                    128
                };
                for col in 0..16 {
                    out[row * 16 + col] = v;
                }
            }
        }
        Intra16Mode::Plane => {
            if !top_avail || !left_avail {
                let dc = dc_value(recon, x, y, 16, top_avail, left_avail);
                out.fill(dc);
            } else {
                // Simplified plane fit: gradients from the border samples.
                let tl = i32::from(recon.get_clamped(x as isize - 1, y as isize - 1));
                let tr = i32::from(recon.get_clamped(x as isize + 15, y as isize - 1));
                let bl = i32::from(recon.get_clamped(x as isize - 1, y as isize + 15));
                let gh = (tr - tl) as f32 / 15.0;
                let gv = (bl - tl) as f32 / 15.0;
                for row in 0..16 {
                    for col in 0..16 {
                        let v = tl as f32 + gh * (col as f32 + 1.0) + gv * (row as f32 + 1.0);
                        out[row * 16 + col] = v.clamp(0.0, 255.0) as u8;
                    }
                }
            }
        }
    }
    out
}

/// Predicts a 4x4 luma block at pixel `(x, y)` from reconstructed neighbours.
pub fn predict4(recon: &Plane, x: usize, y: usize, mode: Intra4Mode) -> [u8; 16] {
    let top_avail = y > 0;
    let left_avail = x > 0;
    let mut out = [0u8; 16];
    match mode {
        Intra4Mode::Dc => {
            let dc = dc_value(recon, x, y, 4, top_avail, left_avail);
            out.fill(dc);
        }
        Intra4Mode::Vertical => {
            for col in 0..4 {
                let v = if top_avail {
                    recon.get_clamped((x + col) as isize, y as isize - 1)
                } else {
                    128
                };
                for row in 0..4 {
                    out[row * 4 + col] = v;
                }
            }
        }
        Intra4Mode::Horizontal => {
            for row in 0..4 {
                let v = if left_avail {
                    recon.get_clamped(x as isize - 1, (y + row) as isize)
                } else {
                    128
                };
                for col in 0..4 {
                    out[row * 4 + col] = v;
                }
            }
        }
        Intra4Mode::DiagDownLeft => {
            if !top_avail {
                out.fill(dc_value(recon, x, y, 4, top_avail, left_avail));
            } else {
                // Above samples extended to the top-right (clamped reads
                // edge-extend when the neighbours don't exist).
                let a: [i32; 8] = std::array::from_fn(|i| {
                    i32::from(recon.get_clamped((x + i) as isize, y as isize - 1))
                });
                for r in 0..4 {
                    for c in 0..4 {
                        let i = r + c;
                        let v = if i < 6 {
                            (a[i] + 2 * a[i + 1] + a[i + 2] + 2) >> 2
                        } else {
                            (a[6] + 3 * a[7] + 2) >> 2
                        };
                        out[r * 4 + c] = v as u8;
                    }
                }
            }
        }
        Intra4Mode::DiagDownRight => {
            if !top_avail || !left_avail {
                out.fill(dc_value(recon, x, y, 4, top_avail, left_avail));
            } else {
                // Border b[0..9]: left column bottom-to-top, the corner,
                // then the above row left-to-right.
                let mut b = [0i32; 9];
                for (i, v) in b.iter_mut().take(4).enumerate() {
                    *v = i32::from(recon.get_clamped(x as isize - 1, (y + 3 - i) as isize));
                }
                b[4] = i32::from(recon.get_clamped(x as isize - 1, y as isize - 1));
                for i in 0..4 {
                    b[5 + i] = i32::from(recon.get_clamped((x + i) as isize, y as isize - 1));
                }
                for r in 0..4 {
                    for c in 0..4 {
                        let d = 4 + c as i32 - r as i32; // diagonal index into b
                        let i = d as usize;
                        out[r * 4 + c] = ((b[i - 1] + 2 * b[i] + b[i + 1] + 2) >> 2) as u8;
                    }
                }
            }
        }
    }
    out
}

/// DC prediction for an 8x8 chroma block at chroma coordinates `(cx, cy)`.
pub fn predict_chroma_dc(recon: &Plane, cx: usize, cy: usize) -> [u8; 64] {
    let dc = dc_value(recon, cx, cy, 8, cy > 0, cx > 0);
    [dc; 64]
}

fn dc_value(
    recon: &Plane,
    x: usize,
    y: usize,
    size: usize,
    top_avail: bool,
    left_avail: bool,
) -> u8 {
    let mut sum = 0u32;
    let mut n = 0u32;
    if top_avail {
        for col in 0..size {
            sum += u32::from(recon.get_clamped((x + col) as isize, y as isize - 1));
        }
        n += size as u32;
    }
    if left_avail {
        for row in 0..size {
            sum += u32::from(recon.get_clamped(x as isize - 1, (y + row) as isize));
        }
        n += size as u32;
    }
    match (sum + n / 2).checked_div(n) {
        Some(avg) => avg as u8,
        None => 128,
    }
}

/// Chooses the cheapest 16x16 intra mode by SATD against the source block.
/// Returns the mode, its prediction, and its cost.
pub fn decide16(
    src: &[u8; 256],
    recon: &Plane,
    x: usize,
    y: usize,
) -> (Intra16Mode, [u8; 256], u32) {
    let mut best = (Intra16Mode::Dc, [0u8; 256], u32::MAX);
    for mode in Intra16Mode::ALL {
        let pred = predict16(recon, x, y, mode);
        let cost = satd16x16(src, &pred);
        if cost < best.2 {
            best = (mode, pred, cost);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_plane() -> Plane {
        let mut p = Plane::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                p.set(x, y, (x * 2 + y) as u8);
            }
        }
        p
    }

    #[test]
    fn dc_without_neighbours_is_midgray() {
        let p = gradient_plane();
        let pred = predict16(&p, 0, 0, Intra16Mode::Dc);
        assert!(pred.iter().all(|&v| v == 128));
    }

    #[test]
    fn vertical_copies_top_row() {
        let p = gradient_plane();
        let pred = predict16(&p, 16, 16, Intra16Mode::Vertical);
        for col in 0..16 {
            let top = p.get(16 + col, 15);
            for row in 0..16 {
                assert_eq!(pred[row * 16 + col], top);
            }
        }
    }

    #[test]
    fn horizontal_copies_left_col() {
        let p = gradient_plane();
        let pred = predict4(&p, 8, 8, Intra4Mode::Horizontal);
        for row in 0..4 {
            let left = p.get(7, 8 + row);
            for col in 0..4 {
                assert_eq!(pred[row * 4 + col], left);
            }
        }
    }

    #[test]
    fn plane_mode_tracks_gradient() {
        let p = gradient_plane();
        let pred = predict16(&p, 16, 16, Intra16Mode::Plane);
        // On a perfect linear ramp, the plane prediction should be close.
        let mut max_err = 0i32;
        for row in 0..16 {
            for col in 0..16 {
                let actual = i32::from(p.get(16 + col, 16 + row));
                let e = (i32::from(pred[row * 16 + col]) - actual).abs();
                max_err = max_err.max(e);
            }
        }
        assert!(max_err <= 4, "max_err {max_err}");
    }

    #[test]
    fn decide_picks_plane_on_ramp() {
        let p = gradient_plane();
        let mut src = [0u8; 256];
        for row in 0..16 {
            for col in 0..16 {
                src[row * 16 + col] = p.get(16 + col, 16 + row);
            }
        }
        let (mode, _, cost) = decide16(&src, &p, 16, 16);
        assert_eq!(mode, Intra16Mode::Plane);
        let dc_pred = predict16(&p, 16, 16, Intra16Mode::Dc);
        assert!(cost < satd16x16(&src, &dc_pred));
    }

    #[test]
    fn diag_down_left_follows_top_diagonal() {
        // A hard diagonal edge in the top row propagates down-left.
        let mut p = Plane::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                p.set(x, y, if x + y < 12 { 40 } else { 200 });
            }
        }
        let pred = predict4(&p, 8, 8, Intra4Mode::DiagDownLeft);
        // Along a 45-degree diagonal, predicted values are constant.
        assert_eq!(pred[2], pred[4 + 1]);
        assert_eq!(pred[4 + 1], pred[2 * 4]);
    }

    #[test]
    fn diag_down_right_is_constant_on_diagonals() {
        let mut p = Plane::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                p.set(x, y, ((x * 13 + y * 31) % 200) as u8);
            }
        }
        let pred = predict4(&p, 8, 8, Intra4Mode::DiagDownRight);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(
                    pred[r * 4 + c],
                    pred[(r + 1) * 4 + c + 1],
                    "({r},{c}) diagonal constancy"
                );
            }
        }
    }

    #[test]
    fn diagonal_modes_fall_back_to_dc_without_neighbours() {
        let p = Plane::new(16, 16);
        let ddl = predict4(&p, 4, 0, Intra4Mode::DiagDownLeft);
        assert!(ddl.iter().all(|&v| v == ddl[0]));
        let ddr = predict4(&p, 0, 4, Intra4Mode::DiagDownRight);
        assert!(ddr.iter().all(|&v| v == ddr[0]));
    }

    #[test]
    fn mode_index_roundtrip() {
        for m in Intra16Mode::ALL {
            assert_eq!(Intra16Mode::from_index(m.index()), Some(m));
        }
        for m in Intra4Mode::ALL {
            assert_eq!(Intra4Mode::from_index(m.index()), Some(m));
        }
        assert_eq!(Intra16Mode::from_index(9), None);
        assert_eq!(Intra4Mode::from_index(5), None);
    }

    #[test]
    fn chroma_dc_is_flat() {
        let p = gradient_plane();
        let pred = predict_chroma_dc(&p, 8, 8);
        assert!(pred.iter().all(|&v| v == pred[0]));
    }
}
