//! Segment-granular dispatch: a catalog job fans out into per-(segment,
//! rung) units.
//!
//! The paper's serving workload is segmented ABR delivery, not whole-clip
//! transcodes: a source clip is cut at GOP boundaries into ~2-second
//! segments and every segment is transcoded to each rung of a bitrate
//! ladder. [`SegmentPlan::expand`] performs that decomposition — each
//! catalog job becomes `segments × rungs` dispatch units that flow through
//! the existing admission/dispatch/chaos/obs machinery as ordinary jobs
//! with dense ids (so exactly-once conservation, retries and requeues all
//! apply per *segment*, not per clip). A catalog job is complete only when
//! every one of its units completed — i.e. when its manifest can be
//! assembled from all rung segments ([`SegmentPlan::stats`],
//! [`SegmentPlan::manifests`]).
//!
//! [`SegmentPlan::materialize`] is the byte-deterministic packaging path
//! shared by the simulated and real drivers: it encodes each (video, rung)
//! with forced IDRs at the cut points and muxes the result into CMAF
//! init/media segments via `vtx-container`. Because the encoded bytes
//! depend only on (seed, plan), both drivers emit identical artifacts for
//! the same seed.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use vtx_codec::{encode_video, instr};
use vtx_container::package::{master_playlist, media_playlist, package_stream};
use vtx_container::segment::segment_points;
use vtx_container::{manifest, Ladder};
use vtx_core::CoreError;
use vtx_frame::vbench;
use vtx_frame::{synth, VideoSpec};
use vtx_sched::TranscodeTask;
use vtx_trace::layout::CodeLayout;
use vtx_trace::Profiler;
use vtx_uarch::config::UarchConfig;

use crate::error::ServeError;
use crate::report::SegmentStats;
use crate::service::{EventRecord, ServeConfig};
use crate::workload::JobSpec;

/// How to decompose catalog jobs into dispatch units.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentOptions {
    /// Target segment duration in milliseconds (cut points land on whole
    /// GOPs of `fps * target_ms / 1000` frames).
    pub target_ms: u32,
    /// The ABR ladder every segment of every parent fans out across.
    pub ladder: Ladder,
}

impl Default for SegmentOptions {
    fn default() -> Self {
        SegmentOptions {
            target_ms: 2_000,
            ladder: Ladder::standard(),
        }
    }
}

/// One catalog job of the plan, with its resolved segment geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParentInfo {
    /// The catalog job's original id.
    pub(crate) id: u64,
    /// vbench short name, the allocation every unit's task shares.
    pub(crate) video: Arc<str>,
    /// Reference-frame count inherited by every unit.
    pub(crate) refs: u8,
    /// Frame width at plan geometry.
    pub(crate) width: u32,
    /// Frame height at plan geometry.
    pub(crate) height: u32,
    /// Clip length in frames at plan geometry.
    pub(crate) frames: u32,
    /// Frame rate.
    pub(crate) fps: u32,
    /// Segment start frames (`[0, g, 2g, …]`).
    pub(crate) points: Vec<u32>,
}

/// Where one dispatch unit sits in the (parent, segment, rung) grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitMeta {
    /// Index into [`SegmentPlan::parents`].
    pub(crate) parent: usize,
    /// The parent catalog job's original id.
    pub parent_job: u64,
    /// Segment index within the clip.
    pub seg: usize,
    /// Rung index within the ladder.
    pub rung: usize,
    /// First frame of the segment.
    pub(crate) start_frame: u32,
    /// Frames in this segment.
    pub(crate) frames: u32,
    /// Frames in the whole clip (the unit costs `frames / total_frames`
    /// of the whole-clip service time).
    pub(crate) total_frames: u32,
}

/// A fully-expanded segment plan: the unit trace plus everything needed to
/// account, package and manifest it afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentPlan {
    /// Catalog jobs in input order.
    pub parents: Vec<ParentInfo>,
    /// Per-unit grid coordinates, indexed by dense unit id.
    pub meta: Vec<UnitMeta>,
    /// The dispatch units (ordinary [`JobSpec`]s with dense ids).
    pub units: Vec<JobSpec>,
    /// The ladder the plan fanned out across.
    pub ladder: Ladder,
    /// Target segment duration the cut points were derived from.
    pub target_ms: u32,
}

impl SegmentPlan {
    /// Decomposes catalog jobs into per-(segment, rung) dispatch units.
    ///
    /// Every parent fans out across the whole ladder at thumbnail geometry
    /// (`thumbnail_spec`). Units inherit the parent's arrival, priority,
    /// deadline and timeout; the task swaps in the rung's preset and CRF
    /// (refs stay the parent's). Unit ids are dense positions in the
    /// returned trace, so the expanded plan is itself a valid workload for
    /// both drivers.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::EmptyWorkload`] for no parents and
    /// [`ServeError::UnknownVideo`] for out-of-catalog names.
    pub fn expand(parents: &[JobSpec], opts: &SegmentOptions) -> Result<SegmentPlan, ServeError> {
        if parents.is_empty() {
            return Err(ServeError::EmptyWorkload);
        }
        if opts.ladder.rungs.is_empty() {
            return Err(ServeError::EmptyWorkload);
        }
        let mut infos = Vec::with_capacity(parents.len());
        let mut meta = Vec::new();
        let mut units = Vec::new();
        // Each distinct video is resolved once, and its first name is the
        // one every parent and unit of that video shares.
        let mut resolved: Vec<(Arc<str>, VideoSpec)> = Vec::new();
        for (pi, p) in parents.iter().enumerate() {
            let known = resolved.iter().position(|(v, _)| **v == *p.task.video);
            let (video, spec) = match known {
                Some(k) => &resolved[k],
                None => {
                    resolved.push((p.task.video.clone(), thumbnail_spec(&p.task.video)?));
                    resolved.last().expect("just pushed")
                }
            };
            let frames = spec.sim_frames;
            let points = segment_points(frames, spec.fps, opts.target_ms);
            for (si, &start) in points.iter().enumerate() {
                let end = points.get(si + 1).copied().unwrap_or(frames);
                for (ri, rung) in opts.ladder.rungs.iter().enumerate() {
                    units.push(JobSpec {
                        id: units.len() as u64,
                        arrival_us: p.arrival_us,
                        task: TranscodeTask {
                            video: video.clone(),
                            crf: rung.crf,
                            refs: p.task.refs,
                            preset: rung.preset,
                        },
                        priority: p.priority,
                        deadline_us: p.deadline_us,
                        timeout_us: p.timeout_us,
                    });
                    meta.push(UnitMeta {
                        parent: pi,
                        parent_job: p.id,
                        seg: si,
                        rung: ri,
                        start_frame: start,
                        frames: end - start,
                        total_frames: frames,
                    });
                }
            }
            infos.push(ParentInfo {
                id: p.id,
                video: video.clone(),
                refs: p.task.refs,
                width: spec.sim_width,
                height: spec.sim_height,
                frames,
                fps: spec.fps,
                points,
            });
        }
        Ok(SegmentPlan {
            parents: infos,
            meta,
            units,
            ladder: opts.ladder.clone(),
            target_ms: opts.target_ms,
        })
    }

    /// Fills all four per-unit tables of `cfg` from this plan:
    /// [`ServeConfig::unit_frames`], `unit_rungs`, `unit_segs` and
    /// `unit_bytes`.
    pub fn fill_unit_tables(&self, cfg: &mut ServeConfig) {
        cfg.unit_frames = self.unit_frames();
        cfg.unit_rungs = self.unit_rungs();
        cfg.unit_segs = self.unit_segs();
        cfg.unit_bytes = self.artifact_bytes();
    }

    /// Per-unit `(frames, total_frames)` for
    /// [`crate::service::ServeConfig::unit_frames`], indexed by unit id.
    pub fn unit_frames(&self) -> Vec<(u32, u32)> {
        self.meta
            .iter()
            .map(|m| (m.frames, m.total_frames))
            .collect()
    }

    /// Per-unit ladder rung index (0 = `hi`) for
    /// [`crate::service::ServeConfig::unit_rungs`], indexed by unit id.
    pub fn unit_rungs(&self) -> Vec<u8> {
        self.meta.iter().map(|m| m.rung as u8).collect()
    }

    /// Per-unit segment index for
    /// [`crate::service::ServeConfig::unit_segs`], indexed by unit id.
    pub fn unit_segs(&self) -> Vec<u32> {
        self.meta.iter().map(|m| m.seg as u32).collect()
    }

    /// Per-unit encoded-artifact size estimate in bytes, for
    /// [`crate::service::ServeConfig::unit_bytes`].
    ///
    /// # Errors
    ///
    /// None today: the geometry was resolved by [`SegmentPlan::expand`],
    /// which is where an out-of-catalog name is refused.
    pub fn unit_bytes(&self) -> Result<Vec<u64>, ServeError> {
        Ok(self.artifact_bytes())
    }

    /// Per-unit encoded-artifact size estimate in bytes, for cache
    /// occupancy accounting: raw YUV420 bytes of the segment divided by a
    /// CRF-driven compression factor. Deterministic in the plan alone, so
    /// both drivers account occupancy identically.
    fn artifact_bytes(&self) -> Vec<u64> {
        self.meta
            .iter()
            .map(|m| {
                let p = &self.parents[m.parent];
                let crf = u64::from(self.ladder.rungs[m.rung].crf);
                let raw = u64::from(m.frames) * u64::from(p.width) * u64::from(p.height) * 3 / 2;
                (raw / (crf + 4)).max(1)
            })
            .collect()
    }

    /// Unit ids that completed, read from the event log alone.
    fn completed_units(&self, log: &[EventRecord]) -> BTreeSet<u64> {
        log.iter()
            .filter_map(|e| match e {
                EventRecord::Complete { id, .. } if (*id as usize) < self.meta.len() => Some(*id),
                _ => None,
            })
            .collect()
    }

    /// Parent indices whose every (segment, rung) unit completed — the
    /// jobs whose manifest is assemblable.
    pub fn complete_parents(&self, log: &[EventRecord]) -> Vec<usize> {
        let done = self.completed_units(log);
        let rungs = self.ladder.rungs.len() as u64;
        let mut left: Vec<u64> = self
            .parents
            .iter()
            .map(|p| p.points.len() as u64 * rungs)
            .collect();
        for &id in &done {
            left[self.meta[id as usize].parent] -= 1;
        }
        (0..self.parents.len())
            .filter(|&pi| left[pi] == 0)
            .collect()
    }

    /// Segment-granular accounting from the event log.
    pub fn stats(&self, log: &[EventRecord]) -> SegmentStats {
        let done = self.completed_units(log);
        let mut per_rung: Vec<(String, u64, u64)> = self
            .ladder
            .rungs
            .iter()
            .map(|r| (r.name.clone(), 0, 0))
            .collect();
        let max_segs = self
            .parents
            .iter()
            .map(|p| p.points.len())
            .max()
            .unwrap_or(0);
        let mut per_segment = vec![(0u64, 0u64); max_segs];
        for (id, m) in self.meta.iter().enumerate() {
            let complete = done.contains(&(id as u64));
            per_rung[m.rung].1 += 1;
            per_segment[m.seg].0 += 1;
            if complete {
                per_rung[m.rung].2 += 1;
                per_segment[m.seg].1 += 1;
            }
        }
        let complete = self.rungs_complete(&done);
        let degraded = complete
            .iter()
            .filter(|c| !c.is_empty() && c.len() < self.ladder.rungs.len())
            .count() as u64;
        SegmentStats {
            parents: self.parents.len() as u64,
            parents_complete: self.complete_parents(log).len() as u64,
            parents_degraded: degraded,
            units: self.meta.len() as u64,
            units_complete: done.len() as u64,
            per_rung,
            per_segment,
        }
    }

    /// Per-parent list of rung indices whose every segment unit completed.
    fn rungs_complete(&self, done: &BTreeSet<u64>) -> Vec<Vec<usize>> {
        let mut left: Vec<Vec<u64>> = self
            .parents
            .iter()
            .map(|p| vec![p.points.len() as u64; self.ladder.rungs.len()])
            .collect();
        for &id in done {
            let m = &self.meta[id as usize];
            left[m.parent][m.rung] -= 1;
        }
        left.into_iter()
            .map(|rungs| (0..rungs.len()).filter(|&ri| rungs[ri] == 0).collect())
            .collect()
    }

    /// Builds a ladder restricted to `rungs` (indices into the plan's
    /// ladder, ascending).
    fn sub_ladder(&self, rungs: &[usize]) -> Ladder {
        Ladder {
            rungs: rungs
                .iter()
                .map(|&ri| self.ladder.rungs[ri].clone())
                .collect(),
        }
    }

    /// Assembles manifests for every complete parent: `(path, text)` pairs
    /// under `job{id}/` — one master playlist plus one media playlist per
    /// rung. Incomplete parents get nothing: a missing unit means the
    /// manifest cannot reference its segment.
    pub fn manifests(&self, log: &[EventRecord]) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for pi in self.complete_parents(log) {
            let p = &self.parents[pi];
            out.push((
                format!("job{}/master.m3u8", p.id),
                manifest::render_master(&master_playlist(&self.ladder)),
            ));
            for rung in &self.ladder.rungs {
                out.push((
                    format!("job{}/{}/media.m3u8", p.id, rung.name),
                    manifest::render_media(&media_playlist(&rung.name, &p.points, p.frames, p.fps)),
                ));
            }
        }
        out
    }

    /// Partial-manifest delivery: every parent with at least one fully
    /// completed rung gets a manifest. Fully complete parents get the
    /// normal master; partially complete parents get a master restricted
    /// to the rungs that finished, marked with the degraded tag
    /// ([`vtx_container::manifest::DEGRADED_TAG`]) — the ladder-aware
    /// shedding payoff: an overloaded fleet that dropped the `hi` rung
    /// still ships a playable (if degraded) rendition set.
    pub fn manifests_partial(&self, log: &[EventRecord]) -> Vec<(String, String)> {
        let done = self.completed_units(log);
        let complete = self.rungs_complete(&done);
        let mut out = Vec::new();
        for (p, rungs) in self.parents.iter().zip(&complete) {
            if rungs.is_empty() {
                continue;
            }
            let master = master_playlist(&self.sub_ladder(rungs));
            let body = if rungs.len() == self.ladder.rungs.len() {
                manifest::render_master(&master)
            } else {
                manifest::render_master_degraded(&master)
            };
            out.push((format!("job{}/master.m3u8", p.id), body));
            for &ri in rungs {
                let rung = &self.ladder.rungs[ri];
                out.push((
                    format!("job{}/{}/media.m3u8", p.id, rung.name),
                    manifest::render_media(&media_playlist(&rung.name, &p.points, p.frames, p.fps)),
                ));
            }
        }
        out
    }

    /// Encodes and muxes the actual segments for every parent rung whose
    /// units all completed: `(path, bytes)` pairs under `job{id}/{rung}/`
    /// (init.mp4 plus one .m4s per segment). Fully complete parents get
    /// every rung (as before); partially complete parents get exactly the
    /// rungs their degraded manifest references. Each (video, refs, rung)
    /// is encoded once with forced IDRs at the cut points and packaged via
    /// `vtx-container`; everything is a pure function of (seed, plan), so
    /// the simulated and real drivers produce byte-identical artifacts.
    ///
    /// # Errors
    ///
    /// Propagates encoder and packaging failures.
    pub fn materialize(
        &self,
        seed: u64,
        log: &[EventRecord],
    ) -> Result<Vec<(String, Vec<u8>)>, ServeError> {
        let kernels = instr::kernel_table();
        let done = self.completed_units(log);
        let complete = self.rungs_complete(&done);
        let mut videos: BTreeMap<&str, vtx_frame::Video> = BTreeMap::new();
        let mut cache: BTreeMap<(Arc<str>, u8, usize), vtx_container::Packaged> = BTreeMap::new();
        let mut out = Vec::new();
        for (p, rungs) in self.parents.iter().zip(&complete) {
            if rungs.is_empty() {
                continue;
            }
            if !videos.contains_key(&*p.video) {
                let spec = thumbnail_spec(&p.video)?;
                videos.insert(&p.video, synth::generate(&spec, seed));
            }
            for &ri in rungs {
                let rung = &self.ladder.rungs[ri];
                let key = (p.video.clone(), p.refs, ri);
                if !cache.contains_key(&key) {
                    let cfg = rung
                        .preset
                        .config()
                        .with_crf(f64::from(rung.crf))
                        .with_refs(p.refs)
                        .with_force_kf(p.points[1..].to_vec());
                    let mut prof = Profiler::new(
                        &UarchConfig::baseline(),
                        kernels,
                        CodeLayout::default_order(kernels),
                    )
                    .map_err(CoreError::from)?;
                    // Packaging is artifact production, not measurement:
                    // sample sparsely, like the mezzanine encode.
                    prof.set_sample_shift(6);
                    let encoded = encode_video(&videos[&*p.video], &cfg, &mut prof)
                        .map_err(CoreError::from)?;
                    cache.insert(
                        key.clone(),
                        package_stream(&encoded.bitstream.data, &p.points)?,
                    );
                }
                let packaged = &cache[&key];
                out.push((
                    format!("job{}/{}/init.mp4", p.id, rung.name),
                    packaged.init.clone(),
                ));
                for (si, seg) in packaged.media.iter().enumerate() {
                    out.push((
                        format!("job{}/{}/seg{si}.m4s", p.id, rung.name),
                        seg.clone(),
                    ));
                }
            }
        }
        Ok(out)
    }
}

/// Resolves a catalog video at thumbnail geometry (64×48, 6 frames): the
/// size every segment plan and every real-executor transcode runs at, so a
/// run finishes in seconds.
pub(crate) fn thumbnail_spec(video: &str) -> Result<VideoSpec, ServeError> {
    let mut spec = vbench::by_name(video).ok_or_else(|| ServeError::UnknownVideo {
        name: video.to_string(),
    })?;
    spec.sim_width = 64;
    spec.sim_height = 48;
    spec.sim_frames = 6;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtx_codec::Preset;

    use crate::workload::Priority;

    fn parent(id: u64, video: &str) -> JobSpec {
        JobSpec {
            id,
            arrival_us: id * 1_000,
            task: TranscodeTask::new(video, 23, 2, Preset::Medium),
            priority: Priority::Standard,
            deadline_us: id * 1_000 + 5_000_000,
            timeout_us: 8_000_000,
        }
    }

    fn tiny_plan() -> SegmentPlan {
        // 6 frames at ~100 ms targets → 2–3 segments per clip.
        let opts = SegmentOptions {
            target_ms: 100,
            ..SegmentOptions::default()
        };
        SegmentPlan::expand(&[parent(0, "desktop"), parent(1, "cat")], &opts).unwrap()
    }

    #[test]
    fn expand_covers_the_grid() {
        let plan = tiny_plan();
        assert_eq!(plan.parents.len(), 2);
        let units_expected: usize = plan
            .parents
            .iter()
            .map(|p| p.points.len() * plan.ladder.rungs.len())
            .collect::<Vec<_>>()
            .iter()
            .sum();
        assert!(plan.parents.iter().all(|p| p.points.len() >= 2));
        assert_eq!(plan.units.len(), units_expected);
        assert_eq!(plan.meta.len(), plan.units.len());
        // Dense ids, inherited envelope, rung task fields.
        for (i, u) in plan.units.iter().enumerate() {
            assert_eq!(u.id, i as u64);
            let m = &plan.meta[i];
            let p = &plan.parents[m.parent];
            assert_eq!(u.task.video, p.video);
            assert_eq!(u.task.refs, p.refs);
            assert_eq!(u.task.crf, plan.ladder.rungs[m.rung].crf);
        }
        // Unit frames cover each parent's clip exactly, per rung.
        let per_parent: u32 = plan
            .meta
            .iter()
            .filter(|m| m.parent == 0 && m.rung == 0)
            .map(|m| m.frames)
            .sum();
        assert_eq!(per_parent, plan.parents[0].frames);
    }

    #[test]
    fn units_of_one_video_share_one_name_whatever_the_parents_did() {
        use crate::workload::{parse_trace, render_trace};
        // Parsed parents own one allocation each; the plan still ends up
        // with one per distinct video, shared by parents and units alike.
        let parents: Vec<JobSpec> = ["desktop", "cat", "desktop", "bike", "cat"]
            .iter()
            .enumerate()
            .map(|(i, v)| parent(i as u64, v))
            .collect();
        assert!(!Arc::ptr_eq(&parents[0].task.video, &parents[2].task.video));
        let plan = SegmentPlan::expand(&parents, &SegmentOptions::default()).unwrap();
        let mut names: Vec<&Arc<str>> = Vec::new();
        let in_plan = plan.parents.iter().map(|p| &p.video);
        for v in in_plan.chain(plan.units.iter().map(|u| &u.task.video)) {
            match names.iter().copied().find(|n| ***n == **v) {
                Some(n) => assert!(Arc::ptr_eq(n, v), "{v}"),
                None => names.push(v),
            }
        }
        assert_eq!(names.len(), 3);
        assert_eq!(parse_trace(&render_trace(&plan.units)).unwrap(), plan.units);
    }

    #[test]
    fn unit_bytes_come_from_the_geometry_expand_resolved() {
        let plan = SegmentPlan::expand(
            &[parent(0, "desktop"), parent(1, "cat")],
            &SegmentOptions::default(),
        )
        .unwrap();
        let bytes = plan.unit_bytes().unwrap();
        for (m, &b) in plan.meta.iter().zip(&bytes) {
            let spec = thumbnail_spec(&plan.parents[m.parent].video).unwrap();
            let raw =
                u64::from(m.frames) * u64::from(spec.sim_width) * u64::from(spec.sim_height) * 3
                    / 2;
            let crf = u64::from(plan.ladder.rungs[m.rung].crf);
            assert_eq!(b, (raw / (crf + 4)).max(1));
        }
        let err = SegmentPlan::expand(&[parent(0, "nope")], &SegmentOptions::default());
        assert!(matches!(err, Err(ServeError::UnknownVideo { .. })));
    }

    #[test]
    fn stats_gate_parents_on_all_units() {
        let plan = tiny_plan();
        // Complete every unit except the last one of parent 1.
        let log: Vec<EventRecord> = plan
            .units
            .iter()
            .take(plan.units.len() - 1)
            .map(|u| EventRecord::Complete {
                t: 1,
                id: u.id,
                server: 0,
                sojourn_us: 1,
                violation: false,
            })
            .collect();
        let s = plan.stats(&log);
        assert_eq!(s.parents, 2);
        assert_eq!(s.parents_complete, 1);
        assert_eq!(s.units, plan.units.len() as u64);
        assert_eq!(s.units_complete, plan.units.len() as u64 - 1);
        let rung_units: u64 = s.per_rung.iter().map(|r| r.1).sum();
        assert_eq!(rung_units, s.units);
        let seg_units: u64 = s.per_segment.iter().map(|s| s.0).sum();
        assert_eq!(seg_units, s.units);
        // Manifests only for the complete parent.
        let m = plan.manifests(&log);
        assert!(m.iter().all(|(p, _)| p.starts_with("job0/")));
        assert_eq!(m.len(), 1 + plan.ladder.rungs.len());
        assert!(m[0].0.ends_with("master.m3u8"));
    }

    #[test]
    fn partial_manifests_mark_degraded_rungs() {
        let plan = tiny_plan();
        // Complete everything except parent 1's rung 0 (hi) units.
        let log: Vec<EventRecord> = plan
            .units
            .iter()
            .zip(&plan.meta)
            .filter(|(_, m)| !(m.parent == 1 && m.rung == 0))
            .map(|(u, _)| EventRecord::Complete {
                t: 1,
                id: u.id,
                server: 0,
                sojourn_us: 1,
                violation: false,
            })
            .collect();
        let s = plan.stats(&log);
        assert_eq!(s.parents_complete, 1);
        assert_eq!(s.parents_degraded, 1);
        // Strict manifests: only the complete parent.
        assert!(plan
            .manifests(&log)
            .iter()
            .all(|(p, _)| p.starts_with("job0/")));
        // Partial manifests: both parents; job1's master is degraded and
        // omits the missing hi rung but still parses.
        let partial = plan.manifests_partial(&log);
        let job1_master = partial
            .iter()
            .find(|(p, _)| p == "job1/master.m3u8")
            .map(|(_, b)| b)
            .unwrap();
        assert!(job1_master.contains(vtx_container::manifest::DEGRADED_TAG));
        assert!(!job1_master.contains("NAME=\"hi\""));
        let (m, degraded) = vtx_container::manifest::parse_master_flagged(job1_master).unwrap();
        assert!(degraded);
        assert_eq!(m.variants.len(), plan.ladder.rungs.len() - 1);
        let job0_master = partial
            .iter()
            .find(|(p, _)| p == "job0/master.m3u8")
            .map(|(_, b)| b)
            .unwrap();
        assert!(!job0_master.contains(vtx_container::manifest::DEGRADED_TAG));
        // No media playlist for the shed rung.
        assert!(!partial.iter().any(|(p, _)| p == "job1/hi/media.m3u8"));
        assert!(partial.iter().any(|(p, _)| p == "job1/mid/media.m3u8"));
        // Materialize covers exactly the manifested rungs.
        let arts = plan.materialize(42, &log).unwrap();
        assert!(!arts.iter().any(|(p, _)| p.starts_with("job1/hi/")));
        assert!(arts.iter().any(|(p, _)| p.starts_with("job1/mid/")));
        assert!(arts.iter().any(|(p, _)| p.starts_with("job0/hi/")));
    }

    #[test]
    fn unit_tables_line_up() {
        let plan = tiny_plan();
        let rungs = plan.unit_rungs();
        let segs = plan.unit_segs();
        let bytes = plan.unit_bytes().unwrap();
        assert_eq!(rungs.len(), plan.units.len());
        assert_eq!(segs.len(), plan.units.len());
        assert_eq!(bytes.len(), plan.units.len());
        for (i, m) in plan.meta.iter().enumerate() {
            assert_eq!(rungs[i] as usize, m.rung);
            assert_eq!(segs[i] as usize, m.seg);
            assert!(bytes[i] >= 1);
        }
        // Higher-quality rungs (lower CRF) estimate bigger artifacts for
        // the same segment geometry.
        let hi = plan
            .meta
            .iter()
            .position(|m| m.parent == 0 && m.seg == 0 && m.rung == 0)
            .unwrap();
        let lo = plan
            .meta
            .iter()
            .position(|m| m.parent == 0 && m.seg == 0 && m.rung == 2)
            .unwrap();
        assert!(bytes[hi] > bytes[lo]);
    }

    #[test]
    fn unit_frames_scale_table() {
        let plan = tiny_plan();
        let uf = plan.unit_frames();
        assert_eq!(uf.len(), plan.units.len());
        assert!(uf.iter().all(|&(f, t)| f >= 1 && f <= t));
    }

    #[test]
    fn unknown_video_is_structured() {
        let err =
            SegmentPlan::expand(&[parent(0, "nope")], &SegmentOptions::default()).unwrap_err();
        assert!(matches!(err, ServeError::UnknownVideo { .. }));
    }

    use crate::chaos::ChaosConfig;
    use crate::fleet::Fleet;
    use crate::policy::policy_by_name;
    use crate::service::ServeConfig;
    use crate::sim::{simulate_trace, SimOutcome};

    fn run_plan(plan: &SegmentPlan, seed: u64, chaos: Option<ChaosConfig>) -> SimOutcome {
        let cfg = ServeConfig {
            unit_frames: plan.unit_frames(),
            chaos: chaos.unwrap_or_default(),
            ..ServeConfig::default()
        };
        simulate_trace(
            &plan.units,
            seed,
            Fleet::sized(8).unwrap(),
            policy_by_name("smart", seed).unwrap(),
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn segmented_sim_is_deterministic_and_manifests_assemble() {
        let plan = tiny_plan();
        let a = run_plan(&plan, 42, None);
        let b = run_plan(&plan, 42, None);
        assert_eq!(a.report.render(), b.report.render());
        let lines = |o: &SimOutcome| {
            o.event_log
                .iter()
                .map(EventRecord::render)
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(&a), lines(&b), "event logs byte-identical");
        // Clean run: every unit completes, so every manifest assembles.
        let stats = plan.stats(&a.event_log);
        assert_eq!(stats.parents_complete, stats.parents);
        assert_eq!(stats.units_complete, stats.units);
        assert_eq!(
            plan.manifests(&a.event_log),
            plan.manifests(&b.event_log),
            "manifests byte-identical"
        );
        // Unit service time is a strict fraction of the whole clip's.
        assert!(a.report.completed == plan.units.len() as u64);
    }

    #[test]
    fn chaos_requeues_individual_units_and_conserves() {
        // Many parents so units are in flight when the crashes fire.
        let parents: Vec<JobSpec> = (0..12)
            .map(|i| parent(i, if i % 2 == 0 { "desktop" } else { "cat" }))
            .collect();
        let opts = SegmentOptions {
            target_ms: 100,
            ..SegmentOptions::default()
        };
        let plan = SegmentPlan::expand(&parents, &opts).unwrap();
        let horizon = plan.units.iter().map(|u| u.arrival_us).max().unwrap();
        let out = run_plan(
            &plan,
            42,
            Some(ChaosConfig::kill_two_straggle_one(42, 8, horizon.max(1))),
        );
        // Exactly-once accounting proven from the trace alone.
        let stats = out.obs.tracker().check_conservation().unwrap();
        assert_eq!(stats.arrived, out.report.offered);
        assert_eq!(stats.completed, out.report.completed);
        // Each unit completes at most once.
        let mut seen = BTreeSet::new();
        let mut requeued = BTreeSet::new();
        for e in &out.event_log {
            match e {
                EventRecord::Complete { id, .. } => {
                    assert!(seen.insert(*id), "unit {id} completed twice")
                }
                EventRecord::Requeue { id, .. } => {
                    requeued.insert(*id);
                }
                _ => {}
            }
        }
        assert_eq!(
            out.report.faults.requeued > 0,
            !requeued.is_empty(),
            "report and log agree on requeues"
        );
        // Requeue granularity is the unit, not the parent: any parent with
        // a requeued unit also has units that were never requeued.
        for &id in &requeued {
            let p = plan.meta[id as usize].parent;
            let siblings = plan
                .meta
                .iter()
                .enumerate()
                .filter(|(_, m)| m.parent == p)
                .count();
            let requeued_here = plan
                .meta
                .iter()
                .enumerate()
                .filter(|(i, m)| m.parent == p && requeued.contains(&(*i as u64)))
                .count();
            assert!(
                requeued_here < siblings,
                "parent {p}: whole job requeued, not individual segments"
            );
        }
        assert!(
            out.report.faults.requeued > 0,
            "crash plan must actually lose in-flight units"
        );
    }
}
