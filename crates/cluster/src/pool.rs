//! Real parallel execution with per-unit timing.
//!
//! This is where the join work actually happens. [`dispatch`] runs `n`
//! units of work on `threads` OS threads under dynamic (work-queue) or
//! static (pre-chunked) scheduling — mirroring the Spark-vs-OpenMP-static
//! contrast the paper analyses — and records each unit's wall-clock
//! cost so the [`crate::sim`] replay can scale the run to any cluster
//! size.
//!
//! There is one dispatch core. A unit appends any number of results to
//! its worker's buffer (a task is a unit that appends exactly one); the
//! driver stitches the buffers back in unit order, so the concatenated
//! output is identical to running the units serially. Every unit runs
//! once under `catch_unwind`: a panicking unit has its partial output
//! rolled back and is reported as a [`TaskFailure`] instead of
//! unwinding the driver. Recovery is the caller's policy (sparklet
//! recomputes lost partitions, ISP-MC restarts the query).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// How units are handed to worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleMode {
    /// Shared counter; each worker grabs the next unprocessed unit.
    Dynamic,
    /// Contiguous chunks assigned up front (OpenMP `schedule(static)`).
    Static,
}

/// Measured timing of one unit.
#[derive(Debug, Clone, Copy)]
pub struct TaskTiming {
    /// Unit index in the input order.
    pub index: usize,
    /// Worker thread that ran the unit.
    pub worker: usize,
    /// Wall-clock seconds the unit took.
    pub secs: f64,
}

/// One unit that panicked. The panic payload is flattened to its
/// message so failures stay `Send + Clone` and printable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// Unit index in the input order.
    pub index: usize,
    /// The panic message.
    pub message: String,
}

/// What a [`dispatch`] produced.
#[derive(Debug)]
pub struct Dispatched<R> {
    /// Concatenated output of every successful unit, in unit order.
    /// A failed unit contributes nothing — its partial output is
    /// rolled back, never leaked.
    pub out: Vec<R>,
    /// Timings of successful units, in unit order.
    pub timings: Vec<TaskTiming>,
    /// Units that panicked, in unit order.
    pub failures: Vec<TaskFailure>,
    /// Scoped-worker counters (zero when the units ran inline on the
    /// calling thread, where counts land in the caller's cells) plus
    /// per-worker busy/wait accounting. The pool never folds these
    /// counters into the calling thread; callers that want them there
    /// call `obs::add_thread(&exec.worker_counters)`.
    pub exec: obs::ExecStats,
}

impl<R> Dispatched<R> {
    /// Re-raises the first failure's panic message on the calling
    /// thread — for callers with no recovery logic, where a panicking
    /// unit is a bug in the closure.
    pub fn or_raise(self) -> Self {
        if let Some(failure) = self.failures.first() {
            std::panic::panic_any(failure.message.clone());
        }
        self
    }
}

#[inline]
fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str().into()
    } else {
        "task panicked".into()
    }
}

/// One worker's share of a dispatch: its output buffer, the
/// `(unit, segment length, secs)` of every successful unit in increasing
/// unit order, its failures and its accounting.
struct WorkerOut<R> {
    buf: Vec<R>,
    segs: Vec<(usize, usize, f64)>,
    failures: Vec<TaskFailure>,
    stats: obs::WorkerStats,
    counters: obs::Counters,
}

/// The loop every worker runs: pick units by schedule mode, run each
/// once under `catch_unwind`, and roll back the partial output of a
/// failed unit so the stitch contract holds.
fn run_worker<R, F>(
    w: usize,
    n: usize,
    threads: usize,
    mode: ScheduleMode,
    next: &AtomicUsize,
    f: &F,
) -> WorkerOut<R>
where
    F: Fn(usize, &mut Vec<R>),
{
    let wall0 = Instant::now();
    let mut busy_ns: u64 = 0;
    let mut buf: Vec<R> = Vec::new();
    let mut segs = Vec::with_capacity(n / threads + 1);
    let mut failures = Vec::new();
    let mut run = |i: usize| {
        let before = buf.len();
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| f(i, &mut buf)));
        let elapsed = t0.elapsed();
        busy_ns = busy_ns.saturating_add(elapsed.as_nanos().min(u64::MAX as u128) as u64);
        obs::morsel();
        match outcome {
            Ok(()) => segs.push((i, buf.len() - before, elapsed.as_secs_f64())),
            Err(payload) => {
                buf.truncate(before);
                failures.push(TaskFailure {
                    index: i,
                    message: panic_message(payload.as_ref()),
                });
            }
        }
    };
    match mode {
        ScheduleMode::Dynamic => loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            run(i);
        },
        ScheduleMode::Static => (w * n / threads..(w + 1) * n / threads).for_each(&mut run),
    }
    // The inline worker has no queue to wait on.
    let wait_ns = if threads == 1 {
        0
    } else {
        elapsed_ns(wall0).saturating_sub(busy_ns)
    };
    WorkerOut {
        stats: obs::WorkerStats {
            worker: w,
            items: (segs.len() + failures.len()) as u64,
            busy_ns,
            wait_ns,
        },
        buf,
        segs,
        failures,
        counters: obs::Counters::default(),
    }
}

/// Runs units `0..n` once each on `threads` workers under `mode`,
/// `f(unit, out)` appending each unit's output to its worker's buffer,
/// and returns the output of every successful unit concatenated in
/// unit order.
///
/// Output and failures are bit-identical at any thread count and
/// schedule mode; scheduling only decides *who* runs a unit. With
/// `threads == 1` the units run inline on the calling thread.
pub fn dispatch<R, F>(n: usize, threads: usize, mode: ScheduleMode, f: F) -> Dispatched<R>
where
    R: Send,
    F: Fn(usize, &mut Vec<R>) + Sync,
{
    let threads = threads.max(1);
    let mut done = Dispatched {
        out: Vec::new(),
        timings: Vec::with_capacity(n),
        failures: Vec::new(),
        exec: obs::ExecStats::default(),
    };
    if n == 0 {
        return done;
    }
    let next = AtomicUsize::new(0);
    let workers: Vec<WorkerOut<R>> = if threads == 1 {
        vec![run_worker(0, n, threads, mode, &next, &f)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let (next, f) = (&next, &f);
                    scope.spawn(move || {
                        let mut out = run_worker(w, n, threads, mode, next, f);
                        // Fresh scoped threads start with zeroed cells,
                        // so the drain is exactly this worker's counts.
                        out.counters = obs::take_thread();
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(out) => out,
                    // Units cannot unwind past `catch_unwind`; a join
                    // error means the runtime itself failed.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    };

    // Stitch: each worker's units are strictly increasing, so its buffer
    // is already ordered internally; a merge over `(unit → worker,
    // segment length)` drains every buffer front to back without
    // cloning any element. Failed units recorded no segment.
    let mut order: Vec<(usize, usize, usize)> = Vec::with_capacity(n);
    let mut bufs = Vec::with_capacity(workers.len());
    for (w, wo) in workers.into_iter().enumerate() {
        for &(index, len, secs) in &wo.segs {
            order.push((index, w, len));
            done.timings.push(TaskTiming {
                index,
                worker: w,
                secs,
            });
        }
        done.failures.extend(wo.failures);
        done.exec.workers.push(wo.stats);
        done.exec.worker_counters = done.exec.worker_counters.plus(&wo.counters);
        bufs.push(wo.buf);
    }
    done.timings.sort_by_key(|t| t.index);
    done.failures.sort_by_key(|fl| fl.index);
    if bufs.len() == 1 {
        // A lone worker ran every unit in order: its buffer is the output.
        done.out = bufs.swap_remove(0);
        return done;
    }
    order.sort_unstable_by_key(|&(index, _, _)| index);
    let mut iters: Vec<std::vec::IntoIter<R>> = bufs.into_iter().map(Vec::into_iter).collect();
    done.out = Vec::with_capacity(order.iter().map(|&(_, _, len)| len).sum());
    for (_, w, len) in order {
        done.out.extend(iters[w].by_ref().take(len));
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` over `items` as tasks: one unit per item, one result
    /// per unit, failures re-raised.
    fn tasks<T: Sync, R: Send>(
        items: &[T],
        threads: usize,
        mode: ScheduleMode,
        f: impl Fn(&T) -> R + Sync,
    ) -> (Vec<R>, Vec<TaskTiming>) {
        let run = dispatch(items.len(), threads, mode, |i, out| out.push(f(&items[i]))).or_raise();
        (run.out, run.timings)
    }

    /// Runs `f` over morsels of `items`, failures re-raised.
    fn morsels<T: Sync, R: Send>(
        morsels: &[&[T]],
        threads: usize,
        mode: ScheduleMode,
        f: impl Fn(&[T], &mut Vec<R>) + Sync,
    ) -> (Vec<R>, Vec<TaskTiming>) {
        let run = dispatch(morsels.len(), threads, mode, |i, out| f(morsels[i], out)).or_raise();
        (run.out, run.timings)
    }

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for mode in [ScheduleMode::Dynamic, ScheduleMode::Static] {
            let (results, timings) = tasks(&items, 4, mode, |&x| x * 2);
            assert_eq!(results, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(timings.len(), 1000);
            assert!(timings.iter().all(|t| t.secs >= 0.0));
            // Timings are in index order after stitching.
            assert!(timings.windows(2).all(|w| w[0].index < w[1].index));
        }
    }

    #[test]
    fn static_mode_assigns_contiguous_chunks() {
        let items: Vec<usize> = (0..100).collect();
        let (_, timings) = tasks(&items, 4, ScheduleMode::Static, |&x| x);
        // Worker of item i must be i*4/100.
        for t in &timings {
            assert_eq!(t.worker, (t.index * 4) / 100);
        }
    }

    #[test]
    fn dynamic_mode_uses_multiple_workers() {
        let items: Vec<u64> = (0..400).collect();
        // The worker that takes unit 0 holds it until some other unit
        // has started, which only another worker can do. Without the
        // hold, cheap units let the first worker drain the whole queue
        // before the rest are scheduled. The deadline turns a scheduler
        // that never hands out a second unit into a failed assertion
        // instead of a hang.
        let other_started = std::sync::atomic::AtomicBool::new(false);
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        let (_, timings) = tasks(&items, 4, ScheduleMode::Dynamic, |&x| {
            if x == 0 {
                while !other_started.load(Ordering::Acquire) && Instant::now() < deadline {
                    std::hint::spin_loop();
                    std::thread::yield_now();
                }
            } else {
                other_started.store(true, Ordering::Release);
            }
            x
        });
        let workers: std::collections::HashSet<usize> = timings.iter().map(|t| t.worker).collect();
        assert!(workers.len() > 1, "expected >1 worker, got {workers:?}");
    }

    #[test]
    fn empty_and_single_item() {
        let (r, t) = tasks(&Vec::<u8>::new(), 4, ScheduleMode::Dynamic, |&x| x);
        assert!(r.is_empty() && t.is_empty());
        let (r, t) = tasks(&[7u8], 8, ScheduleMode::Static, |&x| x + 1);
        assert_eq!(r, vec![8]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn one_thread_runs_inline() {
        let caller = std::thread::current().id();
        let (r, t) = tasks(&[1, 2, 3], 1, ScheduleMode::Dynamic, |&x| {
            assert_eq!(std::thread::current().id(), caller);
            x * 10
        });
        assert_eq!(r, vec![10, 20, 30]);
        assert!(t.iter().all(|x| x.worker == 0));
    }

    fn chunked(items: &[u64], size: usize) -> Vec<&[u64]> {
        items.chunks(size).collect()
    }

    #[test]
    fn morsels_concatenate_in_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().flat_map(|&x| [x * 2, x * 2 + 1]).collect();
        for mode in [ScheduleMode::Dynamic, ScheduleMode::Static] {
            for threads in [1, 3, 8] {
                for size in [1, 7, 128] {
                    let ms = chunked(&items, size);
                    let (out, timings) = morsels(&ms, threads, mode, |m, buf| {
                        for &x in m {
                            buf.push(x * 2);
                            buf.push(x * 2 + 1);
                        }
                    });
                    assert_eq!(out, serial, "mode={mode:?} threads={threads} size={size}");
                    assert_eq!(timings.len(), ms.len());
                    assert!(timings.windows(2).all(|w| w[0].index < w[1].index));
                }
            }
        }
    }

    #[test]
    fn morsels_with_uneven_output_counts() {
        // Each morsel emits a different number of results (including 0).
        let items: Vec<u64> = (0..101).collect();
        let ms = chunked(&items, 13);
        let (out, _) = morsels(&ms, 4, ScheduleMode::Dynamic, |m, buf| {
            for &x in m {
                for _ in 0..(x % 3) {
                    buf.push(x);
                }
            }
        });
        let serial: Vec<u64> = items
            .iter()
            .flat_map(|&x| std::iter::repeat_n(x, (x % 3) as usize))
            .collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn morsels_empty_input() {
        let run = dispatch::<u8, _>(0, 4, ScheduleMode::Static, |_, _| {});
        assert!(run.out.is_empty() && run.timings.is_empty() && run.failures.is_empty());
    }

    /// Runs `f` with panic output suppressed — expected injected panics
    /// would otherwise spam the test log through the default hook.
    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(hook);
        r
    }

    #[test]
    fn faulted_tasks_without_faults_match_plain() {
        let items: Vec<u64> = (0..300).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        for mode in [ScheduleMode::Dynamic, ScheduleMode::Static] {
            for threads in [1, 2, 7] {
                let run = dispatch(items.len(), threads, mode, |i, out| out.push(items[i] * 3));
                assert!(run.failures.is_empty());
                assert_eq!(run.out, expected);
                assert_eq!(run.timings.len(), items.len());
            }
        }
    }

    #[test]
    fn faulted_tasks_exhausted_attempts_reported() {
        let items: Vec<u64> = (0..50).collect();
        let run = quiet_panics(|| {
            dispatch(items.len(), 4, ScheduleMode::Static, |i, out| {
                if i == 17 {
                    std::panic::panic_any("always dies".to_string());
                }
                out.push(items[i]);
            })
        });
        assert_eq!(run.failures.len(), 1);
        assert_eq!(run.failures[0].index, 17);
        assert_eq!(run.failures[0].message, "always dies");
        // The failed task leaves a gap: every other result, in order.
        let expected: Vec<u64> = items.iter().copied().filter(|&x| x != 17).collect();
        assert_eq!(run.out, expected);
        assert!(run.timings.iter().all(|t| t.index != 17));
    }

    #[test]
    fn faulted_morsels_roll_back_partial_output() {
        let items: Vec<u64> = (0..400).collect();
        let ms = chunked(&items, 16);
        // Every morsel except the failed ones (i % 4 == 1), in order.
        let survivors: Vec<u64> = items
            .iter()
            .filter(|&&x| (x / 16) % 4 != 1)
            .map(|&x| x * 2)
            .collect();
        for threads in [1, 2, 7] {
            let run = quiet_panics(|| {
                dispatch(ms.len(), threads, ScheduleMode::Dynamic, |i, buf| {
                    for &x in ms[i] {
                        buf.push(x * 2);
                    }
                    // Panic *after* appending output: the failed
                    // morsel's partial segment must be discarded.
                    if i % 4 == 1 {
                        std::panic::panic_any(format!("mid-morsel {i}"));
                    }
                })
            });
            let failed: Vec<usize> = run.failures.iter().map(|f| f.index).collect();
            let expected: Vec<usize> = (0..ms.len()).filter(|i| i % 4 == 1).collect();
            assert_eq!(failed, expected, "threads={threads}");
            assert_eq!(run.out, survivors, "threads={threads}");
        }
    }

    #[test]
    fn faulted_morsels_failed_morsel_leaks_nothing() {
        let items: Vec<u64> = (0..100).collect();
        let ms = chunked(&items, 10);
        let run = quiet_panics(|| {
            dispatch(ms.len(), 3, ScheduleMode::Static, |i, buf| {
                buf.extend_from_slice(ms[i]);
                if i == 5 {
                    std::panic::panic_any("fragment lost".to_string());
                }
            })
        });
        assert_eq!(run.failures.len(), 1);
        assert_eq!(run.failures[0].index, 5);
        // Output is every morsel except the failed one, still in order.
        let expected: Vec<u64> = items
            .iter()
            .copied()
            .filter(|&x| !(50..60).contains(&x))
            .collect();
        assert_eq!(run.out, expected);
    }

    #[test]
    fn morsels_static_assigns_contiguous_chunks() {
        let items: Vec<u64> = (0..100).collect();
        let ms = chunked(&items, 1);
        let (_, timings) = morsels(&ms, 4, ScheduleMode::Static, |m, buf| {
            buf.extend_from_slice(m);
        });
        for t in &timings {
            assert_eq!(t.worker, (t.index * 4) / 100);
        }
    }

    #[test]
    fn single_attempt_panic_is_reported_once_and_reraised() {
        let items: Vec<u64> = (0..40).collect();
        for threads in [1, 4] {
            let run = quiet_panics(|| {
                dispatch(items.len(), threads, ScheduleMode::Dynamic, |i, out| {
                    out.push(items[i]);
                    if i == 9 {
                        std::panic::panic_any(format!("unit {i} failed"));
                    }
                })
            });
            // The panicking unit left no row, and is reported exactly
            // once with its message.
            assert!(!run.out.contains(&9), "threads={threads}");
            assert_eq!(run.out.len(), items.len() - 1, "threads={threads}");
            assert_eq!(
                run.failures,
                vec![TaskFailure {
                    index: 9,
                    message: "unit 9 failed".into(),
                }],
                "threads={threads}"
            );
            // A caller with no recovery re-raises that message.
            let payload = quiet_panics(|| {
                catch_unwind(AssertUnwindSafe(|| run.or_raise())).expect_err("must re-raise")
            });
            assert_eq!(panic_message(payload.as_ref()), "unit 9 failed");
        }
    }

    #[test]
    fn worker_counters_stay_off_the_calling_thread() {
        let items: Vec<u64> = (0..64).collect();
        std::thread::spawn(move || {
            for threads in [1, 3] {
                let before = obs::thread_snapshot();
                let run = dispatch(items.len(), threads, ScheduleMode::Dynamic, |i, out| {
                    out.push(items[i])
                });
                let caller = obs::thread_snapshot().minus(&before);
                // Every unit counts once, either inline on the caller or
                // in the scoped workers' drained counters — never both.
                assert_eq!(
                    caller.morsels_executed + run.exec.worker_counters.morsels_executed,
                    64,
                    "threads={threads}"
                );
                if threads > 1 {
                    assert_eq!(caller.morsels_executed, 0);
                }
                assert_eq!(run.exec.workers.len(), threads);
            }
        })
        .join()
        .unwrap();
    }
}
