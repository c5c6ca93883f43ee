//! Objective quality metrics.
//!
//! The paper reports transcoded video quality as global PSNR in decibels,
//! which is what [`psnr`] computes (combined over Y, U and V with their
//! natural sample weights, the same convention FFmpeg's `-psnr` uses for its
//! "average" figure).

use crate::{Frame, FrameError};

/// PSNR cap used when two signals are bit-identical (MSE = 0).
pub const PSNR_CAP_DB: f64 = 100.0;

/// Mean squared error between two frames over all three planes.
///
/// # Errors
///
/// Returns [`FrameError::GeometryMismatch`] when the frames differ in size.
///
/// # Example
///
/// ```
/// use vtx_frame::{Frame, quality};
///
/// let a = Frame::new(16, 16);
/// let b = Frame::new(16, 16);
/// assert_eq!(quality::mse(&a, &b)?, 0.0);
/// # Ok::<(), vtx_frame::FrameError>(())
/// ```
pub fn mse(a: &Frame, b: &Frame) -> Result<f64, FrameError> {
    let sse = a.y().sse(b.y())? + a.u().sse(b.u())? + a.v().sse(b.v())?;
    Ok(sse as f64 / a.total_samples() as f64)
}

/// Global PSNR in dB between two frames, capped at [`PSNR_CAP_DB`] for
/// identical content.
///
/// # Errors
///
/// Returns [`FrameError::GeometryMismatch`] when the frames differ in size.
pub fn psnr(a: &Frame, b: &Frame) -> Result<f64, FrameError> {
    let m = mse(a, b)?;
    Ok(psnr_from_mse(m))
}

/// Converts an MSE value to PSNR in dB for 8-bit content.
#[inline]
pub fn psnr_from_mse(mse: f64) -> f64 {
    if mse <= 0.0 {
        return PSNR_CAP_DB;
    }
    (10.0 * (255.0f64 * 255.0 / mse).log10()).min(PSNR_CAP_DB)
}

/// Average PSNR across a sequence of (reference, distorted) frame pairs,
/// computed from pooled MSE (the standard way to aggregate sequence PSNR).
///
/// # Errors
///
/// Returns [`FrameError::GeometryMismatch`] on any geometry mismatch and for
/// an empty or length-mismatched pairing.
pub fn sequence_psnr(reference: &[Frame], distorted: &[Frame]) -> Result<f64, FrameError> {
    if reference.is_empty() || reference.len() != distorted.len() {
        return Err(FrameError::GeometryMismatch);
    }
    let mut total = 0.0;
    for (a, b) in reference.iter().zip(distorted) {
        total += mse(a, b)?;
    }
    Ok(psnr_from_mse(total / reference.len() as f64))
}

/// Structural similarity (SSIM) between two luma planes, computed over
/// 8x8 windows with the standard constants — the perceptual companion to
/// PSNR that modern encoder evaluations report alongside bitrate.
///
/// Returns the mean SSIM over all full windows, in `[-1, 1]` (1 = identical).
///
/// # Errors
///
/// Returns [`FrameError::GeometryMismatch`] when the frames differ in size
/// or are smaller than one 8x8 window.
pub fn ssim_luma(a: &Frame, b: &Frame) -> Result<f64, FrameError> {
    if a.width() != b.width() || a.height() != b.height() {
        return Err(FrameError::GeometryMismatch);
    }
    if a.width() < 8 || a.height() < 8 {
        return Err(FrameError::GeometryMismatch);
    }
    const C1: f64 = 6.5025; // (0.01 * 255)^2
    const C2: f64 = 58.5225; // (0.03 * 255)^2

    let mut total = 0.0;
    let mut windows = 0u64;
    for wy in (0..a.height() - 7).step_by(8) {
        for wx in (0..a.width() - 7).step_by(8) {
            let (mut sa, mut sb, mut saa, mut sbb, mut sab) = (0f64, 0f64, 0f64, 0f64, 0f64);
            for y in wy..wy + 8 {
                for x in wx..wx + 8 {
                    let pa = f64::from(a.y().get(x, y));
                    let pb = f64::from(b.y().get(x, y));
                    sa += pa;
                    sb += pb;
                    saa += pa * pa;
                    sbb += pb * pb;
                    sab += pa * pb;
                }
            }
            let n = 64.0;
            let ma = sa / n;
            let mb = sb / n;
            let va = (saa - sa * ma).max(0.0) / (n - 1.0);
            let vb = (sbb - sb * mb).max(0.0) / (n - 1.0);
            let cov = (sab - sa * mb) / (n - 1.0);
            let ssim = ((2.0 * ma * mb + C1) * (2.0 * cov + C2))
                / ((ma * ma + mb * mb + C1) * (va + vb + C2));
            total += ssim;
            windows += 1;
        }
    }
    Ok(total / windows as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_frames_hit_cap() {
        let f = Frame::new(32, 32);
        assert_eq!(psnr(&f, &f).unwrap(), PSNR_CAP_DB);
    }

    #[test]
    fn known_mse_psnr() {
        // Uniform difference of 5 => MSE 25 => PSNR = 10*log10(65025/25) ~ 34.15 dB
        let a = Frame::new(16, 16);
        let mut b = Frame::new(16, 16);
        b.y_mut().fill(133);
        b.u_mut().fill(133);
        b.v_mut().fill(133);
        let p = psnr(&a, &b).unwrap();
        assert!((p - 34.1514).abs() < 0.01, "got {p}");
    }

    #[test]
    fn psnr_monotone_in_distortion() {
        let a = Frame::new(16, 16);
        let mut slightly = a.clone();
        slightly.y_mut().fill(130);
        let mut badly = a.clone();
        badly.y_mut().fill(180);
        assert!(psnr(&a, &slightly).unwrap() > psnr(&a, &badly).unwrap());
    }

    #[test]
    fn sequence_psnr_pools_mse() {
        let a = Frame::new(16, 16);
        let mut b = a.clone();
        b.y_mut().fill(133);
        let seq = sequence_psnr(&[a.clone(), a.clone()], &[a.clone(), b.clone()]).unwrap();
        let single = psnr(&a, &b).unwrap();
        // pooled MSE is half the single-frame MSE => +3.01 dB
        assert!((seq - single - 3.0103).abs() < 0.01);
    }

    #[test]
    fn sequence_psnr_rejects_empty_and_mismatch() {
        let f = Frame::new(16, 16);
        assert!(sequence_psnr(&[], &[]).is_err());
        assert!(sequence_psnr(std::slice::from_ref(&f), &[]).is_err());
    }

    #[test]
    fn ssim_identical_is_one() {
        let mut f = Frame::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                f.y_mut().set(x, y, ((x * 7 + y * 3) % 251) as u8);
            }
        }
        let s = ssim_luma(&f, &f).unwrap();
        assert!((s - 1.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn ssim_orders_distortions_like_psnr() {
        let mut f = Frame::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                f.y_mut().set(x, y, ((x * 5 + y * 11) % 230) as u8);
            }
        }
        let mut mild = f.clone();
        for v in mild.y_mut().samples_mut() {
            *v = v.saturating_add(3);
        }
        let mut harsh = f.clone();
        for (i, v) in harsh.y_mut().samples_mut().iter_mut().enumerate() {
            *v = v.wrapping_add((i % 61) as u8);
        }
        let s_mild = ssim_luma(&f, &mild).unwrap();
        let s_harsh = ssim_luma(&f, &harsh).unwrap();
        assert!(s_mild > s_harsh, "{s_mild} vs {s_harsh}");
        assert!(s_harsh < 0.99);
    }

    #[test]
    fn ssim_rejects_tiny_or_mismatched() {
        let a = Frame::new(4, 4);
        assert!(ssim_luma(&a, &a).is_err());
        let b = Frame::new(32, 32);
        let c = Frame::new(16, 16);
        assert!(ssim_luma(&b, &c).is_err());
    }

    #[test]
    fn geometry_mismatch_propagates() {
        let a = Frame::new(16, 16);
        let b = Frame::new(32, 32);
        assert_eq!(psnr(&a, &b), Err(FrameError::GeometryMismatch));
    }
}
