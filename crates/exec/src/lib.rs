//! Deterministic thread fan-out for the GPRS reproduction.
//!
//! Every parallel stage of the pipeline — sweep chunks, a cluster's
//! final cell solves and ext03/ext04 reference solves in `gprs-core` /
//! `gprs-experiments`, campaign items in `gprs-campaign`, simulator
//! replication waves in `gprs-des`/`gprs-sim` — runs on one job queue,
//! so there is exactly one place that decides how work maps onto
//! threads and one determinism contract to audit:
//!
//! * [`with_worker_pool`] — the **worker pool**: one worker per element
//!   of a caller-supplied state vector, each owning its element for the
//!   whole scope, the calling thread serving as worker 0. Batches go
//!   out load-balanced ([`PoolHandle::run_queue`]): whichever worker
//!   frees up first takes the next job. A panicking job is contained
//!   in its own slot as a [`TaskPanic`].
//! * [`par_map_tasks`] — the **stateless** form for *few heavy tasks*
//!   (simulator replications): one `run_queue` batch over a pool of
//!   `threads` empty states, results **in task order**, the
//!   lowest-index panic re-raised after the batch.
//! * [`num_threads`] — the worker-count convention: `RAYON_NUM_THREADS`
//!   when set to a positive integer, otherwise the machine width.
//!
//! The crate is dependency-free and uses scoped `std::thread` workers
//! (rayon is not a dependency; the API is shaped so a rayon-backed
//! implementation could be swapped in without touching callers).
//!
//! # Determinism contract
//!
//! Results are returned in submission order, each job runs exactly once
//! on exactly one worker, and the executor injects no source of
//! nondeterminism (no time-based decisions, no racy accumulation).
//! Therefore `f` deterministic per index ⇒ output bit-identical for any
//! thread count, including 1. The whole workspace's "seq-vs-par
//! equality" tests rest on this contract.
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
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod pool;

pub use pool::{with_worker_pool, PoolHandle};

use std::panic::resume_unwind;

/// The worker count used when callers do not specify one, from the
/// `RAYON_NUM_THREADS` environment variable: a positive integer is that
/// count; unset or `0` is the machine's available parallelism. Any
/// other value (`four`, `-1`, `2x`) also gets the machine width, with
/// one warning on stderr per process naming the value and the count
/// used.
pub fn num_threads() -> usize {
    let value = std::env::var_os("RAYON_NUM_THREADS").map(|v| v.to_string_lossy().into_owned());
    let machine = || {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    };
    match requested_threads(value.as_deref()) {
        Ok(Some(n)) => n,
        Ok(None) => machine(),
        Err(()) => {
            let n = machine();
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: RAYON_NUM_THREADS={:?} is not a non-negative integer; using {n} threads",
                    value.as_deref().unwrap_or_default()
                );
            });
            n
        }
    }
}

/// The parse behind [`num_threads`]: `Ok(None)` for unset or `0` (the
/// machine width), `Ok(Some(n))` for a positive integer `n`, `Err` for
/// anything else. Surrounding whitespace is ignored.
fn requested_threads(value: Option<&str>) -> Result<Option<usize>, ()> {
    match value.map(|v| v.trim().parse::<usize>()) {
        None | Some(Ok(0)) => Ok(None),
        Some(Ok(n)) => Ok(Some(n)),
        Some(Err(_)) => Err(()),
    }
}

/// Runs `f(i)` for every task index `0..n` across up to `threads`
/// workers, returning the results **in task order**.
///
/// This is [`with_worker_pool`] with no per-worker state: one
/// [`run_queue`](PoolHandle::run_queue) batch over
/// `threads.clamp(1, n)` workers, the calling thread among them. It is
/// the executor for *few heavy tasks* (simulator replications), where
/// even `n = 7` deserves fan-out and task costs are uneven enough that
/// a work queue beats fixed chunking. Each task runs exactly once on
/// exactly one worker, so as long as `f` is deterministic per index,
/// the returned vector is bit-identical for any thread count.
///
/// # Panics
///
/// Propagates panics from `f` once every task has run, re-raised with
/// the failing task index attached (`"task {i} panicked: {original
/// message}"`; non-string payloads are resumed verbatim). When several
/// tasks panic, the lowest task index wins deterministically.
pub fn par_map_tasks<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    with_worker_pool(
        vec![(); threads.clamp(1, n)],
        |_, _, i| f(i),
        |pool| pool.run_queue((0..n).collect()),
    )
    .into_iter()
    .collect::<Result<_, _>>()
    .unwrap_or_else(|panic: TaskPanic| panic.resume())
}

/// A panic caught and *contained* by the worker pool: the failing job's
/// index in its batch, its panic message, and the original payload (so
/// callers relying on typed payloads can still downcast or re-raise).
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
    /// exactly as [`par_map_tasks`] does. String payloads (the
    /// overwhelmingly common case) are reformatted as
    /// `"task {i} panicked: {message}"`; any other payload type is
    /// resumed verbatim so callers relying on typed payloads still see
    /// them.
    pub fn resume(self) -> ! {
        if self.payload.is::<&str>() || self.payload.is::<String>() {
            std::panic::panic_any(self.to_string());
        }
        resume_unwind(self.payload)
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn par_map_tasks_preserves_order_for_any_thread_count() {
        let reference: Vec<u64> = (0..23).map(|i| (i as u64) * (i as u64) + 7).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let got = par_map_tasks(23, threads, |i| (i as u64) * (i as u64) + 7);
            assert_eq!(got, reference, "threads {threads}");
        }
        assert!(par_map_tasks(0, 4, |i| i).is_empty());
        // Tiny task counts still fan out (no minimum-work cutoff): 2
        // tasks on 2 threads must both run.
        assert_eq!(par_map_tasks(2, 2, |i| i + 1), vec![1, 2]);
    }

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn thread_count_parse_is_strict() {
        for machine in [None, Some("0"), Some(" 0 "), Some("00")] {
            assert_eq!(requested_threads(machine), Ok(None), "{machine:?}");
        }
        for (value, n) in [("1", 1), ("4", 4), (" 8\n", 8), ("+3", 3)] {
            assert_eq!(requested_threads(Some(value)), Ok(Some(n)), "{value:?}");
        }
        for garbage in ["four", "-1", "2x", "", " ", "1.5", "0x4", "4 4"] {
            assert_eq!(requested_threads(Some(garbage)), Err(()), "{garbage:?}");
        }
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
    fn caught_panic_retains_typed_payload_and_resumes_verbatim() {
        #[derive(Debug, PartialEq)]
        struct Code(u32);
        let out = with_worker_pool(
            vec![(); 2],
            |_, _, i: usize| {
                if i == 2 {
                    std::panic::panic_any(Code(42));
                }
                i
            },
            |pool| pool.run_queue((0..4).collect()),
        );
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
}
