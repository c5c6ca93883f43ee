//! Deterministic synthetic video generator — the stand-in for the vbench clips.
//!
//! The published vbench property that drives encoder behaviour is *entropy*
//! (motion magnitude and scene-transition frequency). `ContentProfile` maps
//! that scalar onto concrete content knobs: number and speed of moving
//! objects, global pan, texture amplitude/frequency, sensor-style noise, and
//! scene-cut cadence. The generated frames therefore stress the encoder the
//! same way the real clips do: low-entropy clips are dominated by skip
//! macroblocks and trivial motion, high-entropy clips force wide motion
//! searches, frequent intra refreshes, and dense residual coding.
//!
//! Everything is seeded; identical `(spec, seed)` inputs produce identical
//! videos on every platform.

use vtx_rng::Xoshiro256pp;

use crate::{Frame, Video, VideoSpec};

/// Concrete content parameters derived from a vbench entropy score.
#[derive(Debug, Clone, PartialEq)]
struct ContentProfile {
    /// Number of independently moving foreground objects.
    pub(crate) object_count: usize,
    /// Peak object speed in simulated pixels per frame.
    pub(crate) motion_px: f64,
    /// Global pan speed in simulated pixels per frame.
    pub(crate) pan_px: f64,
    /// Peak-to-peak amplitude of the background texture.
    pub(crate) texture_amp: f64,
    /// Spatial frequency of the background texture (radians per pixel).
    pub(crate) texture_freq: f64,
    /// Amplitude of per-pixel uniform noise.
    pub(crate) noise_amp: f64,
    /// Frames between hard scene cuts (`None` = no cuts).
    pub(crate) cut_period: Option<u32>,
}

impl ContentProfile {
    /// Derives content knobs from a vbench entropy score (0.2..=7.7).
    ///
    /// The mapping is monotone: more entropy means more objects, faster
    /// motion, busier texture, more noise, and more frequent cuts.
    fn from_entropy(entropy: f64) -> Self {
        let e = entropy.clamp(0.0, 8.0);
        ContentProfile {
            object_count: 1 + (e * 1.4) as usize,
            motion_px: 0.2 + e * 1.2,
            pan_px: if e >= 3.0 { 0.3 + (e - 3.0) * 0.3 } else { 0.0 },
            texture_amp: 8.0 + e * 9.0,
            texture_freq: 0.18 + e * 0.07,
            // Complexity comes mostly from motion and scene transitions
            // (vbench's definition), with only mild sensor noise.
            noise_amp: e * 0.45,
            cut_period: if e >= 2.5 {
                // e = 2.5 -> a cut roughly every 20 frames; e = 7.7 -> every ~6.
                Some(((50.0 / e) as u32).max(5))
            } else {
                None
            },
        }
    }
}

#[derive(Debug, Clone)]
struct MovingObject {
    x: f64,
    y: f64,
    vx: f64,
    vy: f64,
    w: f64,
    h: f64,
    luma: f64,
    tint_u: f64,
    tint_v: f64,
    tex_phase: f64,
}

#[derive(Debug)]
struct Scene {
    objects: Vec<MovingObject>,
    bg_phase_x: f64,
    bg_phase_y: f64,
    bg_base: f64,
    pan_dir: (f64, f64),
}

impl Scene {
    fn random(rng: &mut Xoshiro256pp, profile: &ContentProfile, w: f64, h: f64) -> Self {
        let mut objects = Vec::with_capacity(profile.object_count);
        for _ in 0..profile.object_count {
            let speed = profile.motion_px * rng.next_f64_in(0.4, 1.0);
            let dir = rng.next_f64_in(0.0, std::f64::consts::TAU);
            objects.push(MovingObject {
                x: rng.next_f64_in(0.0, w),
                y: rng.next_f64_in(0.0, h),
                vx: speed * dir.cos(),
                vy: speed * dir.sin(),
                w: rng.next_f64_in(w * 0.08, w * 0.3),
                h: rng.next_f64_in(h * 0.08, h * 0.3),
                luma: rng.next_f64_in(40.0, 220.0),
                tint_u: rng.next_f64_in(-40.0, 40.0),
                tint_v: rng.next_f64_in(-40.0, 40.0),
                tex_phase: rng.next_f64_in(0.0, std::f64::consts::TAU),
            });
        }
        let pan_dir = rng.next_f64_in(0.0, std::f64::consts::TAU);
        Scene {
            objects,
            bg_phase_x: rng.next_f64_in(0.0, std::f64::consts::TAU),
            bg_phase_y: rng.next_f64_in(0.0, std::f64::consts::TAU),
            bg_base: rng.next_f64_in(90.0, 160.0),
            pan_dir: (pan_dir.cos(), pan_dir.sin()),
        }
    }

    fn advance(&mut self, w: f64, h: f64) {
        for o in &mut self.objects {
            o.x += o.vx;
            o.y += o.vy;
            if o.x < -o.w {
                o.x = w;
            } else if o.x > w {
                o.x = -o.w;
            }
            if o.y < -o.h {
                o.y = h;
            } else if o.y > h {
                o.y = -o.h;
            }
        }
    }
}

/// Stable FNV-1a hash of the short name so each catalog video gets distinct
/// (but reproducible) content for the same user seed.
fn name_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Generates the synthetic clip for a catalog entry.
///
/// The output geometry is `spec.sim_width x spec.sim_height` with
/// `spec.sim_frames` frames; content complexity follows
/// `ContentProfile::from_entropy(spec.entropy)`.
///
/// # Example
///
/// ```
/// use vtx_frame::{synth, vbench};
///
/// let spec = vbench::by_name("desktop").unwrap();
/// let a = synth::generate(&spec, 7);
/// let b = synth::generate(&spec, 7);
/// assert_eq!(a.frames, b.frames); // fully deterministic
/// ```
pub fn generate(spec: &VideoSpec, seed: u64) -> Video {
    let profile = ContentProfile::from_entropy(spec.entropy);
    generate_with_profile(spec, &profile, seed)
}

/// Like [`generate`] but with an explicit, possibly hand-tuned profile.
fn generate_with_profile(spec: &VideoSpec, profile: &ContentProfile, seed: u64) -> Video {
    generate_by(spec, profile, seed, render_frame)
}

type RenderFn = fn(usize, usize, &Scene, (f64, f64), &ContentProfile, &mut Xoshiro256pp) -> Frame;

fn generate_by(spec: &VideoSpec, profile: &ContentProfile, seed: u64, render: RenderFn) -> Video {
    let w = spec.sim_width as usize;
    let h = spec.sim_height as usize;
    let mut rng = Xoshiro256pp::new(seed ^ name_hash(&spec.short_name));
    let mut scene = Scene::random(&mut rng, profile, w as f64, h as f64);
    let mut pan = (0.0f64, 0.0f64);

    let mut frames = Vec::with_capacity(spec.sim_frames as usize);
    for t in 0..spec.sim_frames {
        if let Some(period) = profile.cut_period {
            if t > 0 && t % period == 0 {
                scene = Scene::random(&mut rng, profile, w as f64, h as f64);
                pan = (0.0, 0.0);
            }
        }
        frames.push(render(w, h, &scene, pan, profile, &mut rng));
        pan.0 += profile.pan_px * scene.pan_dir.0;
        pan.1 += profile.pan_px * scene.pan_dir.1;
        scene.advance(w as f64, h as f64);
    }
    Video::new(spec.clone(), frames)
}

/// Renders one frame. Every libm call depends on one coordinate only, so
/// each is evaluated once per column or row (per object for the object
/// textures) and the pixel loops add table entries; argument expressions,
/// per-pixel sums and the noise draw order are those of the per-pixel
/// definition (`oracle::render_frame`), so clips are bit-identical to it.
fn render_frame(
    w: usize,
    h: usize,
    scene: &Scene,
    pan: (f64, f64),
    profile: &ContentProfile,
    rng: &mut Xoshiro256pp,
) -> Frame {
    let mut frame = Frame::new(w, h);
    let fx = profile.texture_freq;
    let fy = profile.texture_freq * 0.83;

    let bg_sin_x: Vec<f64> = (0..w)
        .map(|x| ((x as f64 + pan.0) * fx + scene.bg_phase_x).sin())
        .collect();
    // Row-major per object: sin of the object texture at column x, where the
    // column lies inside the object (other entries are never read).
    let mut obj_sin_x = vec![0.0f64; scene.objects.len() * w];
    for (o, row) in scene.objects.iter().zip(obj_sin_x.chunks_exact_mut(w)) {
        for (x, s) in row.iter_mut().enumerate() {
            let dx = x as f64 - o.x;
            if dx >= 0.0 && dx < o.w {
                *s = (dx * fx * 1.7 + o.tex_phase).sin();
            }
        }
    }
    // Objects whose vertical extent covers the current row, in scene order,
    // each with its texture's cosine at that row.
    let mut in_row: Vec<(usize, f64)> = Vec::with_capacity(scene.objects.len());

    for y in 0..h {
        let wy = (y as f64 + pan.1) * fy + scene.bg_phase_y;
        let sin_y = wy.sin();
        in_row.clear();
        for (i, o) in scene.objects.iter().enumerate() {
            let dy = y as f64 - o.y;
            if dy >= 0.0 && dy < o.h {
                in_row.push((i, (dy * fy * 1.9 + o.tex_phase).cos()));
            }
        }
        for x in 0..w {
            let mut v = scene.bg_base + profile.texture_amp * 0.5 * (bg_sin_x[x] + sin_y);
            for &(i, cos_y) in &in_row {
                let o = &scene.objects[i];
                let dx = x as f64 - o.x;
                if dx >= 0.0 && dx < o.w {
                    v = o.luma + profile.texture_amp * 0.4 * (obj_sin_x[i * w + x] + cos_y);
                }
            }
            if profile.noise_amp > 0.0 {
                v += rng.next_f64_in_inclusive(-profile.noise_amp, profile.noise_amp);
            }
            frame.y_mut().set(x, y, v.clamp(0.0, 255.0) as u8);
        }
    }

    // Chroma at quarter resolution: slow gradients plus object tints.
    let cw = w / 2;
    let ch = h / 2;
    let bg_u: Vec<f64> = (0..cw)
        .map(|x| 128.0 + 14.0 * (((x * 2) as f64 + pan.0) * fx * 0.21 + scene.bg_phase_x).sin())
        .collect();
    for y in 0..ch {
        let py = (y * 2) as f64;
        let bg_v = 128.0 + 14.0 * ((py + pan.1) * fy * 0.19 + scene.bg_phase_y).cos();
        for (x, &bg_u) in bg_u.iter().enumerate() {
            let px = (x * 2) as f64;
            let mut u = bg_u;
            let mut vv = bg_v;
            for o in &scene.objects {
                let dx = px - o.x;
                let dy = py - o.y;
                if dx >= 0.0 && dx < o.w && dy >= 0.0 && dy < o.h {
                    u = 128.0 + o.tint_u;
                    vv = 128.0 + o.tint_v;
                }
            }
            frame.u_mut().set(x, y, u.clamp(0.0, 255.0) as u8);
            frame.v_mut().set(x, y, vv.clamp(0.0, 255.0) as u8);
        }
    }
    frame
}

/// The per-pixel definition [`render_frame`] is tested against.
#[cfg(test)]
mod oracle {
    use super::*;

    pub(super) fn render_frame(
        w: usize,
        h: usize,
        scene: &Scene,
        pan: (f64, f64),
        profile: &ContentProfile,
        rng: &mut Xoshiro256pp,
    ) -> Frame {
        let mut frame = Frame::new(w, h);
        let fx = profile.texture_freq;
        let fy = profile.texture_freq * 0.83;

        for y in 0..h {
            let wy = (y as f64 + pan.1) * fy + scene.bg_phase_y;
            let sin_y = wy.sin();
            for x in 0..w {
                let wx = (x as f64 + pan.0) * fx + scene.bg_phase_x;
                let mut v = scene.bg_base + profile.texture_amp * 0.5 * (wx.sin() + sin_y);
                for o in &scene.objects {
                    let dx = x as f64 - o.x;
                    let dy = y as f64 - o.y;
                    if dx >= 0.0 && dx < o.w && dy >= 0.0 && dy < o.h {
                        v = o.luma
                            + profile.texture_amp
                                * 0.4
                                * ((dx * fx * 1.7 + o.tex_phase).sin()
                                    + (dy * fy * 1.9 + o.tex_phase).cos());
                    }
                }
                if profile.noise_amp > 0.0 {
                    v += rng.next_f64_in_inclusive(-profile.noise_amp, profile.noise_amp);
                }
                frame.y_mut().set(x, y, v.clamp(0.0, 255.0) as u8);
            }
        }

        // Chroma at quarter resolution: slow gradients plus object tints.
        let cw = w / 2;
        let ch = h / 2;
        for y in 0..ch {
            for x in 0..cw {
                let px = (x * 2) as f64;
                let py = (y * 2) as f64;
                let mut u = 128.0 + 14.0 * ((px + pan.0) * fx * 0.21 + scene.bg_phase_x).sin();
                let mut vv = 128.0 + 14.0 * ((py + pan.1) * fy * 0.19 + scene.bg_phase_y).cos();
                for o in &scene.objects {
                    let dx = px - o.x;
                    let dy = py - o.y;
                    if dx >= 0.0 && dx < o.w && dy >= 0.0 && dy < o.h {
                        u = 128.0 + o.tint_u;
                        vv = 128.0 + o.tint_v;
                    }
                }
                frame.u_mut().set(x, y, u.clamp(0.0, 255.0) as u8);
                frame.v_mut().set(x, y, vv.clamp(0.0, 255.0) as u8);
            }
        }
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vbench;

    #[test]
    fn profile_mapping_is_monotone() {
        let lo = ContentProfile::from_entropy(0.2);
        let hi = ContentProfile::from_entropy(7.7);
        assert!(hi.object_count > lo.object_count);
        assert!(hi.motion_px > lo.motion_px);
        assert!(hi.texture_amp > lo.texture_amp);
        assert!(hi.noise_amp > lo.noise_amp);
        assert!(lo.cut_period.is_none());
        assert!(hi.cut_period.is_some());
    }

    #[test]
    fn table_renderer_equals_per_pixel_oracle() {
        // No cuts (`desktop`, entropy 0.2), a cut every 8 frames (`girl`,
        // 5.9) and the catalog's shortest period, 6 (`hall`, 7.7).
        for name in ["desktop", "girl", "hall"] {
            let spec = vbench::by_name(name).unwrap();
            let profile = ContentProfile::from_entropy(spec.entropy);
            for seed in [3, 42] {
                let want = generate_by(&spec, &profile, seed, oracle::render_frame);
                assert_eq!(
                    generate(&spec, seed).frames,
                    want.frames,
                    "{name} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let spec = vbench::by_name("cricket").unwrap();
        let a = generate(&spec, 123);
        let b = generate(&spec, 123);
        assert_eq!(a.frames, b.frames);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = vbench::by_name("cricket").unwrap();
        let a = generate(&spec, 1);
        let b = generate(&spec, 2);
        assert_ne!(a.frames[0], b.frames[0]);
    }

    #[test]
    fn different_names_differ_for_same_seed() {
        let s1 = vbench::by_name("game2").unwrap();
        let s2 = vbench::by_name("girl").unwrap();
        // Same geometry class (720p30), same seed; content must still differ.
        let a = generate(&s1, 9);
        let b = generate(&s2, 9);
        assert_ne!(a.frames[0].y().samples(), b.frames[0].y().samples());
    }

    #[test]
    fn high_entropy_means_more_temporal_change() {
        let calm = generate(&vbench::by_name("desktop").unwrap(), 5);
        let busy = generate(&vbench::by_name("holi").unwrap(), 5);
        let calm_diff = calm.frames[1].mean_abs_luma_diff(&calm.frames[0]).unwrap();
        let busy_diff = busy.frames[1].mean_abs_luma_diff(&busy.frames[0]).unwrap();
        assert!(
            busy_diff > calm_diff * 2.0,
            "busy {busy_diff} vs calm {calm_diff}"
        );
    }

    #[test]
    fn scene_cut_produces_discontinuity() {
        let spec = vbench::by_name("hall").unwrap(); // entropy 7.7 -> frequent cuts
        let profile = ContentProfile::from_entropy(spec.entropy);
        let period = profile.cut_period.unwrap() as usize;
        let v = generate(&spec, 11);
        if period < v.frames.len() {
            let at_cut = v.frames[period]
                .mean_abs_luma_diff(&v.frames[period - 1])
                .unwrap();
            let steady = v.frames[period - 1]
                .mean_abs_luma_diff(&v.frames[period - 2])
                .unwrap();
            assert!(at_cut > steady, "cut {at_cut} vs steady {steady}");
        }
    }
}
