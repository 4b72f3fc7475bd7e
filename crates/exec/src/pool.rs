//! Persistent worker pool: scoped threads that live across calls, each
//! owning caller-supplied mutable state — the workspace's one job
//! queue.
//!
//! Workers are spawned **once** per [`with_worker_pool`] scope and stay
//! parked on a condvar between batches, and each worker exclusively
//! owns one element of the caller's state vector (a shard's generator
//! templates, a sweep worker's template) for the whole scope — no
//! mutex, no re-warming. The caller's thread serves as worker 0 instead
//! of idling while the others work, so `k` workers run on exactly `k`
//! threads. [`par_map_tasks`](crate::par_map_tasks) is the stateless
//! one-batch form.
//!
//! Two dispatch flavours cover the pipeline's needs:
//!
//! * [`PoolHandle::run_on`] — **directed**: each job names the worker
//!   that must run it. This is the sharded fixed point's round
//!   primitive (a shard's cells can only be solved by the worker that
//!   owns their templates).
//! * [`PoolHandle::run_queue`] — **load-balanced**: jobs go into a
//!   shared queue and whichever worker frees up first takes the next
//!   one.
//!
//! # Determinism contract
//!
//! The crate-wide contract holds: results come back **in job order**,
//! every job runs exactly once on exactly one worker, and the pool
//! injects no nondeterminism. `run_queue` results are therefore
//! bit-identical for any worker count **provided** the work function's
//! output does not depend on which worker state serves a job (the
//! chunked-sweep warm-start contract: chunk heads run cold). `run_on`
//! pins the worker per job, so its results are reproducible by
//! construction.
//!
//! # Panic policy
//!
//! A panicking job is contained: its slot carries a [`TaskPanic`]
//! (index = position in the submitted batch) while every sibling job
//! still runs. The worker survives and keeps serving later jobs; its
//! state is whatever the panicking job left behind, so callers that
//! reuse state across jobs must reset it on the next job (as chunked
//! sweeps do) or treat a poisoned slot as fatal and
//! [`TaskPanic::resume`].

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::TaskPanic;

/// A caught panic payload in flight from a worker.
type Payload = Box<dyn std::any::Any + Send>;

/// The queue half the workers share: per-worker directed lanes plus one
/// load-balanced lane, guarded by a single mutex (jobs are heavy by
/// contract, so the lock is cold).
struct QueueState<Req> {
    directed: Vec<VecDeque<(usize, Req)>>,
    anywhere: VecDeque<(usize, Req)>,
    closed: bool,
}

struct Shared<Req> {
    queue: Mutex<QueueState<Req>>,
    ready: Condvar,
}

impl<Req> Shared<Req> {
    #[allow(
        clippy::expect_used,
        reason = "no code panics while holding the lock: jobs run after it is released"
    )]
    fn lock(&self) -> MutexGuard<'_, QueueState<Req>> {
        self.queue.lock().expect("worker pool queue poisoned")
    }

    /// Parks a worker on the condvar until the queue changes.
    #[allow(
        clippy::expect_used,
        reason = "no code panics while holding the lock: jobs run after it is released"
    )]
    fn wait<'g>(&self, guard: MutexGuard<'g, QueueState<Req>>) -> MutexGuard<'g, QueueState<Req>> {
        self.ready.wait(guard).expect("worker pool queue poisoned")
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// The spawned half of a pool with two or more workers: the shared
/// queue and the channel the spawned workers report on.
struct Spawned<'a, Req, Resp> {
    shared: &'a Shared<Req>,
    results: mpsc::Receiver<(usize, Result<Resp, Payload>)>,
}

/// The caller's handle onto a live [`with_worker_pool`] scope: submits
/// job batches and collects their results in order. One batch runs at a
/// time (`&mut self`), matching the round-based protocols built on it.
///
/// The caller's thread is worker 0: it runs worker 0's jobs against
/// its state while the spawned workers run theirs, so a pool of `k`
/// states keeps `k` threads busy, never `k + 1`.
pub struct PoolHandle<'a, S, Req, Resp> {
    state: &'a mut S,
    work: &'a (dyn Fn(usize, &mut S, Req) -> Resp + Sync),
    workers: usize,
    /// `None` for a single worker: every job runs inline.
    spawned: Option<Spawned<'a, Req, Resp>>,
}

impl<S, Req, Resp> PoolHandle<'_, S, Req, Resp> {
    /// Number of workers (= length of the state vector).
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Runs one job as worker 0 on the caller's thread.
    fn run_here(&mut self, seq: usize, req: Req) -> Result<Resp, TaskPanic> {
        let (work, state) = (self.work, &mut *self.state);
        catch_unwind(AssertUnwindSafe(|| work(0, state, req))).map_err(|p| TaskPanic::new(seq, p))
    }

    /// Runs one directed batch: each `(worker, job)` pair executes on
    /// exactly that worker, against its owned state. Results return in
    /// submission order (slot `i` belongs to `jobs[i]`), panics
    /// contained per slot.
    ///
    /// # Panics
    ///
    /// If a job names a worker index out of range.
    pub fn run_on(&mut self, jobs: Vec<(usize, Req)>) -> Vec<Result<Resp, TaskPanic>> {
        let workers = self.workers;
        // Validate before taking the lock: panicking while holding it
        // would poison the workers' queue.
        for (w, _) in &jobs {
            assert!(
                *w < workers,
                "worker index {w} out of range ({workers} workers)"
            );
        }
        let mut slots: Vec<Option<Result<Resp, TaskPanic>>> =
            (0..jobs.len()).map(|_| None).collect();
        // Worker 0's jobs stay on this thread; the rest go out first so
        // the spawned workers start while this thread runs its own.
        let mut own = Vec::new();
        let mut sent = 0;
        if let Some(spawned) = &self.spawned {
            {
                let mut q = spawned.shared.lock();
                for (seq, (w, req)) in jobs.into_iter().enumerate() {
                    if w == 0 {
                        own.push((seq, req));
                    } else {
                        q.directed[w].push_back((seq, req));
                        sent += 1;
                    }
                }
            }
            if sent > 0 {
                spawned.shared.ready.notify_all();
            }
        } else {
            own.extend(
                jobs.into_iter()
                    .enumerate()
                    .map(|(seq, (_, req))| (seq, req)),
            );
        }
        for (seq, req) in own {
            slots[seq] = Some(self.run_here(seq, req));
        }
        self.collect(&mut slots, sent);
        finish(slots)
    }

    /// Runs one load-balanced batch: jobs drain from a shared queue to
    /// whichever worker frees up first, the caller's thread included.
    /// Results return in submission order, panics contained per slot.
    pub fn run_queue(&mut self, jobs: Vec<Req>) -> Vec<Result<Resp, TaskPanic>> {
        let n = jobs.len();
        let mut slots: Vec<Option<Result<Resp, TaskPanic>>> = (0..n).map(|_| None).collect();
        let Some(spawned) = &self.spawned else {
            for (seq, req) in jobs.into_iter().enumerate() {
                slots[seq] = Some(self.run_here(seq, req));
            }
            return finish(slots);
        };
        let shared = spawned.shared;
        {
            let mut q = shared.lock();
            for (seq, req) in jobs.into_iter().enumerate() {
                q.anywhere.push_back((seq, req));
            }
        }
        shared.ready.notify_all();
        let mut ran_here = 0;
        loop {
            let job = shared.lock().anywhere.pop_front();
            let Some((seq, req)) = job else { break };
            slots[seq] = Some(self.run_here(seq, req));
            ran_here += 1;
        }
        self.collect(&mut slots, n - ran_here);
        finish(slots)
    }

    /// Collects `count` results from the spawned workers into their
    /// submission slots.
    #[allow(
        clippy::expect_used,
        reason = "workers outlive the handle and catch every job panic, so each sent job reports"
    )]
    fn collect(&self, slots: &mut [Option<Result<Resp, TaskPanic>>], count: usize) {
        let Some(spawned) = &self.spawned else { return };
        for _ in 0..count {
            let (seq, out) = spawned
                .results
                .recv()
                .expect("worker pool hung up mid-batch");
            slots[seq] = Some(out.map_err(|p| TaskPanic::new(seq, p)));
        }
    }
}

/// Unwraps a batch's filled slots.
#[allow(
    clippy::expect_used,
    reason = "run_on and run_queue fill every slot before finishing a batch"
)]
fn finish<Resp>(slots: Vec<Option<Result<Resp, TaskPanic>>>) -> Vec<Result<Resp, TaskPanic>> {
    slots
        .into_iter()
        .map(|s| s.expect("every submitted job reports exactly once"))
        .collect()
}

/// Runs a pool with one worker per element of `states`, each owning
/// its element for the whole scope: the caller's thread is worker 0,
/// and one persistent thread is spawned per further element. Runs
/// `body` with a [`PoolHandle`] to submit job batches, then shuts the
/// spawned workers down and returns `body`'s result.
///
/// `work(worker_index, &mut state, job)` is fixed for the pool's
/// lifetime (it may borrow the caller's frame — the workers are scoped
/// threads), and is the only code that ever touches a worker's state.
/// With a single state nothing is spawned: worker count 1 degenerates
/// to a plain sequential loop, exactly like the other executors in
/// this crate.
///
/// # Panics
///
/// If `states` is empty. Panics from `body` propagate after the workers
/// shut down cleanly; panics inside `work` are contained per job slot
/// (see [`PoolHandle::run_on`]).
pub fn with_worker_pool<S, Req, Resp, W, B, R>(states: Vec<S>, work: W, body: B) -> R
where
    S: Send,
    Req: Send,
    Resp: Send,
    W: Fn(usize, &mut S, Req) -> Resp + Sync,
    B: for<'h> FnOnce(&mut PoolHandle<'h, S, Req, Resp>) -> R,
{
    let workers = states.len();
    let mut states = states.into_iter();
    let Some(mut state0) = states.next() else {
        panic!("worker pool needs at least one state");
    };
    if workers == 1 {
        let mut handle = PoolHandle {
            state: &mut state0,
            work: &work,
            workers,
            spawned: None,
        };
        return body(&mut handle);
    }

    let shared = Shared {
        queue: Mutex::new(QueueState {
            directed: (0..workers).map(|_| VecDeque::new()).collect(),
            anywhere: VecDeque::new(),
            closed: false,
        }),
        ready: Condvar::new(),
    };
    let (tx, rx) = mpsc::channel();

    std::thread::scope(|s| {
        for (w, mut state) in (1..workers).zip(states) {
            let shared = &shared;
            let work = &work;
            let tx = tx.clone();
            s.spawn(move || loop {
                let job = {
                    let mut q = shared.lock();
                    loop {
                        if let Some(j) = q.directed[w].pop_front() {
                            break Some(j);
                        }
                        if let Some(j) = q.anywhere.pop_front() {
                            break Some(j);
                        }
                        if q.closed {
                            break None;
                        }
                        q = shared.wait(q);
                    }
                };
                let Some((seq, req)) = job else { return };
                let out = catch_unwind(AssertUnwindSafe(|| work(w, &mut state, req)));
                if tx.send((seq, out)).is_err() {
                    return; // handle dropped mid-batch: shutting down
                }
            });
        }
        drop(tx);

        let mut handle = PoolHandle {
            state: &mut state0,
            work: &work,
            workers,
            spawned: Some(Spawned {
                shared: &shared,
                results: rx,
            }),
        };
        let out = catch_unwind(AssertUnwindSafe(|| body(&mut handle)));
        drop(handle);
        // Wake the parked workers into their shutdown path *before* the
        // scope joins them — otherwise a panicking body would deadlock.
        shared.close();
        match out {
            Ok(r) => r,
            Err(p) => resume_unwind(p),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_jobs_run_on_their_named_worker() {
        // Each worker owns a distinct tag; every job must come back
        // stamped by exactly the worker it was sent to.
        let states: Vec<u64> = vec![100, 200, 300];
        let out = with_worker_pool(
            states,
            |w, tag, job: u64| (*tag, w, job),
            |pool| {
                assert_eq!(pool.worker_count(), 3);
                pool.run_on(vec![(2, 7), (0, 8), (1, 9), (2, 10)])
            },
        );
        let got: Vec<_> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(
            got,
            vec![(300, 2, 7), (100, 0, 8), (200, 1, 9), (300, 2, 10)]
        );
    }

    #[test]
    fn worker_zero_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = with_worker_pool(
            vec![(); 3],
            |w, _, _: ()| (w, std::thread::current().id() == caller),
            |pool| pool.run_on((0..3).map(|w| (w, ())).collect()),
        );
        let got: Vec<_> = on_caller.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, vec![(0, true), (1, false), (2, false)]);
    }

    #[test]
    fn worker_state_persists_across_batches() {
        // The whole point of the pool: per-worker state survives from
        // one run_on round to the next (warm templates, shard buffers).
        let sums = with_worker_pool(
            vec![0u64, 0u64],
            |_, acc, add: u64| {
                *acc += add;
                *acc
            },
            |pool| {
                pool.run_on(vec![(0, 5), (1, 7)]);
                pool.run_on(vec![(0, 1), (1, 2)]);
                pool.run_on(vec![(0, 0), (1, 0)])
                    .into_iter()
                    .map(|r| r.unwrap())
                    .collect::<Vec<_>>()
            },
        );
        assert_eq!(sums, vec![6, 9]);
    }

    #[test]
    fn queue_results_come_back_in_submission_order() {
        for workers in [1usize, 2, 4, 8] {
            let states = vec![(); workers];
            let got = with_worker_pool(
                states,
                |_, _, i: usize| i * i,
                |pool| pool.run_queue((0..33).collect()),
            );
            let got: Vec<_> = got.into_iter().map(|r| r.unwrap()).collect();
            let want: Vec<_> = (0..33).map(|i| i * i).collect();
            assert_eq!(got, want, "workers {workers}");
        }
    }

    #[test]
    fn panics_are_contained_per_slot_and_workers_survive() {
        for workers in [1usize, 3] {
            let out = with_worker_pool(
                vec![0u32; workers],
                |_, hits, i: usize| {
                    *hits += 1;
                    if i == 2 {
                        panic!("job {i} poisoned");
                    }
                    i
                },
                |pool| {
                    let first = pool.run_queue(vec![0, 1, 2, 3]);
                    // The worker that caught the panic must still serve.
                    let second = pool.run_queue(vec![4, 5]);
                    (first, second)
                },
            );
            let (first, second) = out;
            assert_eq!(first.len(), 4);
            let err = first[2].as_ref().expect_err("job 2 must be contained");
            assert_eq!(err.index, 2);
            assert_eq!(err.message, "job 2 poisoned");
            for (i, slot) in first.iter().enumerate() {
                if i != 2 {
                    assert_eq!(*slot.as_ref().unwrap(), i, "workers {workers}");
                }
            }
            let second: Vec<_> = second.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(second, vec![4, 5]);
        }
    }

    #[test]
    fn body_panic_shuts_workers_down_cleanly() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_worker_pool(
                vec![(), ()],
                |_, _, i: usize| i,
                |pool| {
                    let _ = pool.run_queue(vec![1, 2, 3]);
                    panic!("body died");
                },
            )
        }))
        .expect_err("body panic must propagate");
        let msg = caught.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "body died");
    }

    #[test]
    fn single_worker_runs_inline_and_matches_threaded_results() {
        let run = |workers: usize| {
            with_worker_pool(
                vec![0u64; workers],
                |_, _, i: u64| i * 3 + 1,
                |pool| {
                    pool.run_queue((0..17).collect())
                        .into_iter()
                        .map(|r| r.unwrap())
                        .collect::<Vec<_>>()
                },
            )
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    #[should_panic(expected = "worker index 3 out of range")]
    fn directed_job_to_missing_worker_panics() {
        with_worker_pool(
            vec![(), ()],
            |_, _, i: usize| i,
            |pool| pool.run_on(vec![(3, 1)]),
        );
    }
}
