//! Virtual-address bookkeeping for the codec's working buffers.
//!
//! Cache simulation needs addresses. Real heap addresses vary run to run, so
//! every buffer the codec touches is registered with the profiler's
//! deterministic virtual allocator; this module computes per-pixel virtual
//! addresses from those bases.
//!
//! # Scaled addressing
//!
//! Synthetic clips are executed at a reduced resolution (1/8 linear) so the
//! 816-point parameter sweep stays tractable, but cache behaviour depends on
//! *working-set size*. Addresses are therefore emitted in the **nominal**
//! resolution's address space: simulated pixel `(x, y)` maps to
//! `base + (y * scale) * (width * scale) + x * scale`. The executed trace is
//! a uniform spatial sample of the full-resolution trace — every 8th row and
//! column — so reference frames, reconstruction buffers and search windows
//! occupy their real footprints in the simulated hierarchy while the event
//! count stays at simulation scale.

use vtx_trace::Profiler;

/// Virtual address map for one encode or decode session.
#[derive(Debug, Clone)]
pub(crate) struct CodecBufs {
    /// Base of the raw source video region (encoder only).
    pub(crate) src: u64,
    /// One reconstructed-frame buffer per reference slot (newest-first pool).
    pub(crate) ref_pool: Vec<u64>,
    /// Residual/coefficient scratch (macroblock-sized working set).
    pub(crate) scratch: u64,
    /// Output (or input) bitstream bytes.
    pub(crate) bitstream: u64,
    /// Quantization / context tables.
    pub(crate) tables: u64,
    width: u64,
    height: u64,
    scale: u64,
    y_bytes: u64,
    c_bytes: u64,
}

impl CodecBufs {
    /// Registers all buffers for a session over `frames` source frames of
    /// simulated size `width x height`, with a reconstruction pool of
    /// `ref_slots` frames, emitting addresses at `scale`x the simulated
    /// geometry (see the module docs).
    pub(crate) fn new(
        prof: &mut Profiler,
        width: usize,
        height: usize,
        frames: usize,
        ref_slots: usize,
        scale: u32,
    ) -> Self {
        let scale = u64::from(scale.max(1));
        let y_bytes = (width as u64 * scale) * (height as u64 * scale);
        let c_bytes = y_bytes / 4;
        let frame_bytes = y_bytes + 2 * c_bytes;
        let src = prof.alloc("src_video", frame_bytes * frames as u64);
        let ref_pool = (0..ref_slots.max(1))
            .map(|i| prof.alloc(&format!("ref_frame_{i}"), frame_bytes))
            .collect();
        let scratch = prof.alloc("mb_scratch", 4096);
        let bitstream = prof.alloc("bitstream", frame_bytes * frames as u64 / 2);
        let tables = prof.alloc("coder_tables", 16 * 1024);
        CodecBufs {
            src,
            ref_pool,
            scratch,
            bitstream,
            tables,
            width: width as u64,
            height: height as u64,
            scale,
            y_bytes,
            c_bytes,
        }
    }

    /// The address scale factor (nominal / simulated linear resolution).
    pub(crate) fn scale(&self) -> u64 {
        self.scale
    }

    /// Nominal luma row stride in bytes.
    fn stride(&self) -> u64 {
        self.width * self.scale
    }

    /// Bytes in one (nominal-scale) frame across all three planes.
    fn frame_bytes(&self) -> u64 {
        self.y_bytes + 2 * self.c_bytes
    }

    /// Address of a luma row (simulated row index) in a source frame.
    pub(crate) fn src_luma_row(&self, frame: usize, y: usize) -> u64 {
        self.src + frame as u64 * self.frame_bytes() + y as u64 * self.scale * self.stride()
    }

    /// Address of a luma sample (simulated coordinates) in a pool slot.
    pub(crate) fn ref_luma(&self, slot: usize, x: usize, y: usize) -> u64 {
        self.ref_pool[slot % self.ref_pool.len()]
            + y as u64 * self.scale * self.stride()
            + x as u64 * self.scale
    }

    /// Address of a chroma sample (`plane` 0 = U, 1 = V; simulated chroma
    /// coordinates) in a pool slot.
    pub(crate) fn ref_chroma(&self, slot: usize, plane: usize, x: usize, y: usize) -> u64 {
        self.ref_pool[slot % self.ref_pool.len()]
            + self.y_bytes
            + plane as u64 * self.c_bytes
            + y as u64 * self.scale * (self.stride() / 2)
            + x as u64 * self.scale
    }

    /// Simulated luma width in samples.
    pub(crate) fn width(&self) -> u64 {
        self.width
    }

    /// Simulated luma height in samples.
    pub(crate) fn height(&self) -> u64 {
        self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtx_trace::layout::CodeLayout;
    use vtx_uarch::config::UarchConfig;

    fn prof() -> Profiler {
        let kernels = crate::instr::kernel_table();
        Profiler::new(
            &UarchConfig::baseline(),
            kernels,
            CodeLayout::default_order(kernels),
        )
        .unwrap()
    }

    #[test]
    fn addresses_are_disjoint_per_ref_slot() {
        let mut p = prof();
        let b = CodecBufs::new(&mut p, 64, 48, 4, 3, 1);
        assert_eq!(b.ref_pool.len(), 3);
        let fb = b.frame_bytes();
        assert_eq!(fb, 64 * 48 * 3 / 2);
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    let a = b.ref_luma(i, 0, 0);
                    let c = b.ref_luma(j, 0, 0);
                    assert!(a.abs_diff(c) >= fb);
                }
            }
        }
    }

    #[test]
    fn chroma_behind_luma() {
        let mut p = prof();
        let b = CodecBufs::new(&mut p, 64, 48, 1, 1, 1);
        assert_eq!(b.ref_chroma(0, 0, 0, 0), b.ref_luma(0, 0, 0) + 64 * 48);
        assert_eq!(
            b.ref_chroma(0, 1, 0, 0),
            b.ref_chroma(0, 0, 0, 0) + 64 * 48 / 4
        );
    }

    #[test]
    fn row_addresses_stride_by_width() {
        let mut p = prof();
        let b = CodecBufs::new(&mut p, 64, 48, 2, 1, 1);
        assert_eq!(b.src_luma_row(0, 1) - b.src_luma_row(0, 0), 64);
        assert_eq!(b.src_luma_row(1, 0) - b.src_luma_row(0, 0), b.frame_bytes());
    }

    #[test]
    fn scaled_addressing_expands_working_set() {
        let mut p = prof();
        let b = CodecBufs::new(&mut p, 160, 96, 1, 1, 8);
        // Nominal 1280 x 768 luma.
        assert_eq!(b.frame_bytes(), 1280 * 768 * 3 / 2);
        assert_eq!(b.stride(), 1280);
        // Consecutive simulated rows are 8 nominal rows apart.
        assert_eq!(b.ref_luma(0, 0, 1) - b.ref_luma(0, 0, 0), 8 * 1280);
        // Consecutive simulated columns are 8 bytes apart.
        assert_eq!(b.ref_luma(0, 1, 0) - b.ref_luma(0, 0, 0), 8);
        assert_eq!(b.scale(), 8);
    }
}
