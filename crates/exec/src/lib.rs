//! Deterministic thread fan-out executors for the GPRS reproduction.
//!
//! Every parallel stage of the pipeline — sweep points and cluster
//! shard workers in `gprs-core`, solver sweeps in `gprs-ctmc`, simulator
//! replication waves in `gprs-des`/`gprs-sim` — rides the same small
//! set of executors, so there is exactly one place that decides how
//! work maps onto threads and one determinism contract to audit:
//!
//! * [`par_map_tasks`] — the **ordered work-queue executor** for *few
//!   heavy tasks* (sweep points, cluster load points, simulator
//!   replications). Tasks are handed to workers through an atomic
//!   index queue, each runs exactly once, and results come back **in
//!   task order** — so as long as the task closure is deterministic
//!   per index, the returned vector is bit-identical for any thread
//!   count.
//! * [`par_map_tasks_catching`] — the **non-propagating** variant for
//!   fault-isolated fan-outs (campaign runners, batch services): each
//!   task's panic is caught and returned as a typed [`TaskPanic`] in
//!   that task's slot while every sibling task still runs to
//!   completion — one poisoned item never aborts the batch.
//! * [`par_map_ranges`] / [`par_map_chunks_mut`] — contiguous-range
//!   splitters for *many cheap items* (solver state vectors); they run
//!   inline below a minimum work size.
//! * [`par_map_vec`] — order-preserving map over owned items in
//!   contiguous batches.
//! * [`num_threads`] / [`chunk_ranges`] — the worker-count convention
//!   (`RAYON_NUM_THREADS`, falling back to the machine width) and the
//!   deterministic range splitter behind the helpers above.
//!
//! The crate is dependency-free and uses scoped `std::thread` workers
//! (the build container has no crates.io access, so rayon is not
//! available; the API is shaped so a rayon-backed implementation could
//! be swapped in without touching callers).
//!
//! # Determinism contract
//!
//! All executors guarantee: (1) results are returned in input order,
//! (2) each task/item is processed exactly once by exactly one worker,
//! and (3) no executor injects any source of nondeterminism (no
//! time-based decisions, no racy accumulation). Therefore `f`
//! deterministic per index ⇒ output bit-identical for any thread
//! count, including 1. The whole workspace's "seq-vs-par equality"
//! tests rest on this contract.
//!
//! # Example
//!
//! ```
//! use gprs_exec::{num_threads, par_map_tasks};
//!
//! // Eight independent "heavy" tasks, fanned out over the machine.
//! let squares = par_map_tasks(8, num_threads(), |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod pool;

pub use pool::{with_worker_pool, PoolHandle};

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Work below this many items is run inline rather than fanned out (the
/// range/chunk executors only; [`par_map_tasks`] always fans out —
/// its tasks are heavy by contract).
pub const MIN_PARALLEL_WORK: usize = 4096;

/// The worker count used when callers do not specify one: the
/// `RAYON_NUM_THREADS` environment variable when set to a positive
/// integer, otherwise the machine's available parallelism.
pub fn num_threads() -> usize {
    match std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Splits `0..n` into at most `chunks` contiguous ranges of near-equal
/// length (deterministic for given `n` and `chunks`).
pub fn chunk_ranges(n: usize, chunks: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, n);
    let size = n.div_ceil(chunks);
    (0..n.div_ceil(size))
        .map(|c| c * size..((c + 1) * size).min(n))
        .collect()
}

/// Runs `f` over contiguous ranges covering `0..n` on up to `threads`
/// workers, returning the per-range results in range order (so the
/// concatenation is deterministic regardless of how many workers ran).
pub fn par_map_ranges<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if threads <= 1 || n < MIN_PARALLEL_WORK {
        return vec![f(0..n)];
    }
    let ranges = chunk_ranges(n, threads);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = ranges.into_iter().map(|r| s.spawn(move || f(r))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    })
}

/// Runs `f(i)` for every task index `0..n` across up to `threads`
/// workers through an atomic work queue, returning the results **in
/// task order**.
///
/// Where [`par_map_ranges`] splits *many cheap items* into contiguous
/// ranges (and runs inline below [`MIN_PARALLEL_WORK`] items), this is
/// the executor for *few heavy tasks* — sweep points, cluster load
/// points, simulator replications — where even `n = 7`
/// deserves fan-out and task costs are uneven enough that a work queue
/// beats fixed chunking. Each task runs exactly once on exactly one
/// worker, so as long as `f` is deterministic per index, the returned
/// vector is bit-identical for any thread count.
///
/// Delegates to the same work-queue core as
/// [`par_map_tasks_catching`]; the only difference is the panic
/// policy — this wrapper *propagates* (and stops issuing new tasks the
/// moment one dies), the catching variant isolates.
///
/// # Panics
///
/// Propagates panics from `f`, re-raised with the failing task index
/// attached (`"task {i} panicked: {original message}"`). A panicking
/// task poisons the queue so the other workers stop picking up new
/// tasks; when several tasks panic concurrently, the lowest task index
/// wins deterministically.
pub fn par_map_tasks<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let (completed, panics) = run_task_queue(n, threads, &f, PanicPolicy::Poison);
    if let Some((index, payload)) = panics.into_iter().min_by_key(|(i, _)| *i) {
        raise_task_panic(index, payload);
    }
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in completed {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every queued task is processed"))
        .collect()
}

/// A panic caught and *contained* by [`par_map_tasks_catching`]: the
/// failing task's index, its panic message, and the original payload
/// (so callers relying on typed payloads can still downcast or
/// re-raise).
pub struct TaskPanic {
    /// Index of the task whose closure panicked.
    pub index: usize,
    /// The panic message: string payloads verbatim, other payload types
    /// as `"<non-string panic payload>"`.
    pub message: String,
    payload: Box<dyn std::any::Any + Send>,
}

impl TaskPanic {
    fn new(index: usize, payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        TaskPanic {
            index,
            message,
            payload,
        }
    }

    /// The original panic payload, for callers that carry typed panic
    /// values.
    pub fn into_payload(self) -> Box<dyn std::any::Any + Send> {
        self.payload
    }

    /// Re-raises the contained panic with the task index attached,
    /// exactly as [`par_map_tasks`] would have.
    pub fn resume(self) -> ! {
        raise_task_panic(self.index, self.payload)
    }
}

impl std::fmt::Debug for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskPanic")
            .field("index", &self.index)
            .field("message", &self.message)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// The fault-isolated sibling of [`par_map_tasks`]: runs `f(i)` for
/// every task index `0..n` over the same ordered work queue, but a
/// panicking task yields `Err(TaskPanic)` **in its own slot** instead
/// of aborting the fan-out — every other task still runs to completion
/// and returns `Ok` in task order. This is the executor for batch
/// services (campaign runners) where one poisoned item must not cost
/// the batch.
///
/// The determinism contract is unchanged: each task runs exactly once,
/// results come back in task order, and — `f` deterministic per
/// index — the `Ok` results are bit-identical for any thread count
/// (including which tasks are `Err`).
pub fn par_map_tasks_catching<R, F>(n: usize, threads: usize, f: F) -> Vec<Result<R, TaskPanic>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let (completed, panics) = run_task_queue(n, threads, &f, PanicPolicy::Contain);
    let mut slots: Vec<Option<Result<R, TaskPanic>>> = (0..n).map(|_| None).collect();
    for (i, r) in completed {
        slots[i] = Some(Ok(r));
    }
    for (i, p) in panics {
        slots[i] = Some(Err(TaskPanic::new(i, p)));
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every queued task is processed or contained"))
        .collect()
}

/// What the work-queue core does when a task panics.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PanicPolicy {
    /// Record the panic, poison the queue so workers stop picking up
    /// new tasks, and let the caller re-raise (the [`par_map_tasks`]
    /// contract).
    Poison,
    /// Record the panic in the task's slot and keep draining the queue
    /// (the [`par_map_tasks_catching`] contract).
    Contain,
}

/// A panic caught inside a task: `(task index, original payload)`.
type CaughtPanic = (usize, Box<dyn std::any::Any + Send>);

/// The shared work-queue core of both task executors: completed
/// `(index, result)` pairs plus every caught panic. Under
/// [`PanicPolicy::Poison`] tasks past the first panic may be skipped
/// (their indices appear in neither list); under
/// [`PanicPolicy::Contain`] every index lands in exactly one list.
fn run_task_queue<R, F>(
    n: usize,
    threads: usize,
    f: &F,
    policy: PanicPolicy,
) -> (Vec<(usize, R)>, Vec<CaughtPanic>)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let threads = threads.clamp(1, n);
    if threads <= 1 {
        let mut completed = Vec::with_capacity(n);
        let mut panics = Vec::new();
        for i in 0..n {
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(r) => completed.push((i, r)),
                Err(p) => {
                    panics.push((i, p));
                    if policy == PanicPolicy::Poison {
                        break;
                    }
                }
            }
        }
        return (completed, panics);
    }
    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let outcomes: Vec<WorkerOutcome<R>> = std::thread::scope(|s| {
        let next = &next;
        let poisoned = &poisoned;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut local = Vec::new();
                    let mut died: Vec<CaughtPanic> = Vec::new();
                    while !poisoned.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(i))) {
                            Ok(r) => local.push((i, r)),
                            Err(p) => {
                                died.push((i, p));
                                if policy == PanicPolicy::Poison {
                                    poisoned.store(true, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }
                    }
                    (local, died)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked outside the task closure"))
            .collect()
    });
    let mut completed = Vec::with_capacity(n);
    let mut panics = Vec::new();
    for (local, died) in outcomes {
        completed.extend(local);
        panics.extend(died);
    }
    (completed, panics)
}

/// What one work-queue worker brings home: completed `(index, result)`
/// pairs, plus the tasks that panicked under it.
type WorkerOutcome<R> = (Vec<(usize, R)>, Vec<CaughtPanic>);

/// Re-raises a task panic with the failing task index attached. String
/// payloads (the overwhelmingly common case) are reformatted as
/// `"task {i} panicked: {message}"`; any other payload type is resumed
/// verbatim so callers relying on typed payloads still see them.
fn raise_task_panic(i: usize, payload: Box<dyn std::any::Any + Send>) -> ! {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        resume_unwind(payload);
    };
    std::panic::panic_any(format!("task {i} panicked: {msg}"));
}

/// Splits `data` into up to `threads` contiguous chunks and runs
/// `f(start_offset, chunk)` on each concurrently, returning per-chunk
/// results in order.
pub fn par_map_chunks_mut<T, R, F>(data: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let len = data.len();
    if len == 0 {
        return Vec::new();
    }
    if threads <= 1 || len < MIN_PARALLEL_WORK {
        return vec![f(0, data)];
    }
    let chunk = len.div_ceil(threads.min(len));
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = data
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, ch)| s.spawn(move || f(ci * chunk, ch)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    })
}

/// Applies `f` to each element of `items` on up to `threads` workers,
/// preserving order. Items are grouped into at most `threads` contiguous
/// batches, one worker per batch.
pub fn par_map_vec<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let len = items.len();
    if threads <= 1 || len <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = len.div_ceil(threads.min(len));
    let mut groups: Vec<Vec<T>> = Vec::with_capacity(len.div_ceil(chunk));
    let mut it = items.into_iter();
    loop {
        let group: Vec<T> = it.by_ref().take(chunk).collect();
        if group.is_empty() {
            break;
        }
        groups.push(group);
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = groups
            .into_iter()
            .map(|group| s.spawn(move || group.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for (n, c) in [(10, 3), (1, 5), (7, 7), (100, 1), (5, 10)] {
            let ranges = chunk_ranges(n, c);
            let mut covered = 0;
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            for r in &ranges {
                covered += r.len();
            }
            assert_eq!(covered, n);
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, n);
        }
        assert!(chunk_ranges(0, 4).is_empty());
    }

    #[test]
    fn par_map_ranges_is_deterministic() {
        let a = par_map_ranges(10_000, 4, |r| r.map(|i| i as u64).sum::<u64>());
        let b = par_map_ranges(10_000, 4, |r| r.map(|i| i as u64).sum::<u64>());
        assert_eq!(a, b);
        let total: u64 = a.into_iter().sum();
        assert_eq!(total, 10_000 * 9_999 / 2);
    }

    #[test]
    fn par_map_tasks_preserves_order_for_any_thread_count() {
        let reference: Vec<u64> = (0..23).map(|i| (i as u64) * (i as u64) + 7).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let got = par_map_tasks(23, threads, |i| (i as u64) * (i as u64) + 7);
            assert_eq!(got, reference, "threads {threads}");
        }
        assert!(par_map_tasks(0, 4, |i| i).is_empty());
        // Unlike par_map_ranges, tiny task counts still fan out (no
        // minimum-work cutoff): 2 tasks on 2 threads must both run.
        assert_eq!(par_map_tasks(2, 2, |i| i + 1), vec![1, 2]);
    }

    #[test]
    fn par_map_chunks_mut_touches_every_item_once() {
        let mut data: Vec<u64> = (0..10_000).collect();
        let sums = par_map_chunks_mut(&mut data, 4, |off, chunk| {
            let mut s = 0u64;
            for (t, x) in chunk.iter_mut().enumerate() {
                assert_eq!(*x, (off + t) as u64);
                *x += 1;
                s += *x;
            }
            s
        });
        let total: u64 = sums.into_iter().sum();
        assert_eq!(total, (1..=10_000u64).sum::<u64>());
        assert_eq!(data[0], 1);
        assert_eq!(data[9_999], 10_000);
    }

    #[test]
    fn par_map_vec_preserves_order() {
        let items: Vec<u32> = (0..97).collect();
        for threads in [1usize, 2, 5, 16] {
            let got = par_map_vec(items.clone(), threads, |x| x * 3);
            let want: Vec<u32> = items.iter().map(|x| x * 3).collect();
            assert_eq!(got, want, "threads {threads}");
        }
        assert!(par_map_vec(Vec::<u32>::new(), 4, |x| x).is_empty());
    }

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    /// Runs `f`, catching its panic and returning the string payload.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = catch_unwind(f).expect_err("closure should panic");
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            panic!("non-string panic payload");
        }
    }

    #[test]
    fn poisoned_task_reports_which_task_died() {
        // One poisoned solve in a fan-out must name the task that died,
        // at any thread count (including the inline path).
        for threads in [1usize, 2, 8] {
            let msg = panic_message(|| {
                let _ = par_map_tasks(16, threads, |i| {
                    if i == 11 {
                        panic!("solver exploded on point {i}");
                    }
                    i * 2
                });
            });
            assert!(
                msg.contains("task 11 panicked: solver exploded on point 11"),
                "threads {threads}: {msg}"
            );
        }
    }

    #[test]
    fn concurrent_panics_pick_lowest_task_deterministically() {
        // Every task panics; the re-raised panic must name a specific
        // task, and task 0 is always grabbed first by some worker.
        for threads in [1usize, 4] {
            let msg = panic_message(|| {
                let _ = par_map_tasks(8, threads, |i| -> usize { panic!("boom {i}") });
            });
            assert!(msg.starts_with("task 0 panicked: boom 0"), "{msg}");
        }
    }

    #[test]
    fn non_string_panic_payloads_are_resumed_verbatim() {
        #[derive(Debug, PartialEq)]
        struct Code(u32);
        let payload = catch_unwind(|| {
            let _ = par_map_tasks(4, 2, |i| {
                if i == 2 {
                    std::panic::panic_any(Code(42));
                }
                i
            });
        })
        .expect_err("should panic");
        assert_eq!(payload.downcast_ref::<Code>(), Some(&Code(42)));
    }

    #[test]
    fn catching_mode_isolates_panics_to_their_own_slot() {
        for threads in [1, 2, 8] {
            let out = par_map_tasks_catching(16, threads, |i| {
                if i % 5 == 3 {
                    panic!("item {i} poisoned");
                }
                i * i
            });
            assert_eq!(out.len(), 16);
            for (i, slot) in out.iter().enumerate() {
                if i % 5 == 3 {
                    let err = slot.as_ref().expect_err("poisoned slot must be Err");
                    assert_eq!(err.index, i);
                    assert_eq!(err.message, format!("item {i} poisoned"));
                } else {
                    assert_eq!(slot.as_ref().unwrap(), &(i * i), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn catching_mode_drains_every_task_even_when_all_panic() {
        let out = par_map_tasks_catching(8, 4, |i| -> usize { panic!("boom {i}") });
        assert_eq!(out.len(), 8);
        for (i, slot) in out.into_iter().enumerate() {
            let err = slot.expect_err("every slot must be Err");
            assert_eq!(err.index, i);
            assert_eq!(err.message, format!("boom {i}"));
            assert_eq!(err.to_string(), format!("task {i} panicked: boom {i}"));
        }
    }

    #[test]
    fn caught_panic_retains_typed_payload_and_resumes_verbatim() {
        #[derive(Debug, PartialEq)]
        struct Code(u32);
        let out = par_map_tasks_catching(4, 2, |i| {
            if i == 2 {
                std::panic::panic_any(Code(42));
            }
            i
        });
        let err = out
            .into_iter()
            .nth(2)
            .unwrap()
            .expect_err("task 2 panicked");
        assert_eq!(err.message, "<non-string panic payload>");
        let payload =
            catch_unwind(AssertUnwindSafe(|| err.resume())).expect_err("resume re-raises");
        assert_eq!(payload.downcast_ref::<Code>(), Some(&Code(42)));
    }

    #[test]
    fn range_executor_preserves_panic_payload() {
        let msg = panic_message(|| {
            let _ = par_map_ranges(MIN_PARALLEL_WORK * 2, 4, |r| {
                if r.contains(&MIN_PARALLEL_WORK) {
                    panic!("range worker died");
                }
                r.len()
            });
        });
        assert!(msg.contains("range worker died"), "{msg}");
    }
}
