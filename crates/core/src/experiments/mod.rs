//! Experiment drivers — one per table/figure of the paper's evaluation.
//!
//! | Paper artifact | Driver |
//! |---|---|
//! | Figure 2 (speed/quality/size triangle) | [`triangle`] |
//! | Figures 3–5 (crf × refs sweep) | [`sweep`] |
//! | Figure 6 (presets) | [`presets`] |
//! | Figure 7 (across videos) | [`videos`] |
//! | Figure 8 (AutoFDO / Graphite) | [`compiler_opts`] |
//! | Figure 9 + Tables III/IV (schedulers) | [`scheduler`] |
//! | All of §IV-A in one call | [`full_report`] |
//! | §V adaptive-streaming guidance (extension) | [`pareto`] |

pub mod compiler_opts;
pub mod full_report;
pub mod pareto;
pub mod presets;
pub mod scheduler;
pub mod sweep;
pub mod triangle;
pub mod videos;

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Mutex;

use crate::CoreError;

/// Runs `f` over `items` on all available cores, preserving input order.
pub(crate) fn parallel_map<I, O, F>(items: Vec<I>, f: F) -> Result<Vec<O>, CoreError>
where
    I: Send,
    O: Send,
    F: Fn(I) -> Result<O, CoreError> + Sync,
{
    let n = items.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    let queue: Mutex<VecDeque<(usize, I)>> = Mutex::new(items.into_iter().enumerate().collect());
    let (tx, rx) = mpsc::channel::<(usize, Result<O, CoreError>)>();

    // A panicking worker re-panics here once every thread has been joined.
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let queue = &queue;
            let f = &f;
            scope.spawn(move || loop {
                let job = queue.lock().expect("queue poisoned").pop_front();
                let Some((idx, item)) = job else { break };
                let out = f(item);
                if tx.send((idx, out)).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);

    let mut slots: Vec<Option<Result<O, CoreError>>> = (0..n).map(|_| None).collect();
    for (idx, out) in rx {
        slots[idx] = Some(out);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every job produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect(), |i: i32| Ok(i * 2)).unwrap();
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_propagates_errors() {
        let out = parallel_map(vec![1, 2, 3], |i: i32| {
            if i == 2 {
                Err(CoreError::UnknownVideo { name: "x".into() })
            } else {
                Ok(i)
            }
        });
        assert!(out.is_err());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), Ok).unwrap();
        assert!(out.is_empty());
    }
}
