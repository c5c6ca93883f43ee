//! A profiler's model thread ends with the profiler, finished or not.
//!
//! Alone in its test binary so that no other test's threads come and go
//! while this one counts.

use std::time::{Duration, Instant};

use vtx_trace::layout::CodeLayout;
use vtx_trace::{KernelDesc, Profiler};
use vtx_uarch::config::UarchConfig;

const KERNELS: &[KernelDesc] = &[KernelDesc::new("k", 256)];

#[cfg(target_os = "linux")]
#[test]
fn dropped_unfinished_profilers_leave_no_thread_behind() {
    let tasks = || std::fs::read_dir("/proc/self/task").unwrap().count();
    let before = tasks();
    for _ in 0..100 {
        let mut p = Profiler::new(
            &UarchConfig::baseline(),
            KERNELS,
            CodeLayout::default_order(KERNELS),
        )
        .unwrap();
        // More than a batch: the model thread has work when `p` drops.
        p.kernel(0, 4, 8, 0);
        for line in 0..5_000 {
            p.load(0x1000_0000 + line * 64);
        }
        drop(p);
    }
    // A joined thread can stay listed for the moment the kernel takes to
    // release it after waking the joiner; a leaked one stays.
    let deadline = Instant::now() + Duration::from_millis(50);
    while tasks() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(tasks(), before);
}
