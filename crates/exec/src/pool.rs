//! Persistent worker pool: scoped threads that live across calls, each
//! owning caller-supplied mutable state — the workspace's one job
//! queue.
//!
//! Workers are spawned **once** per [`with_worker_pool`] scope and stay
//! parked on a condvar between batches, and each worker exclusively
//! owns one element of the caller's state vector (a sweep worker's
//! template, say) for the whole scope — no mutex, no re-warming. The
//! caller's thread serves as worker 0 instead of idling while the
//! others work, so `k` workers run on exactly `k` threads.
//! [`par_map_tasks`](crate::par_map_tasks) is the stateless one-batch
//! form.
//!
//! Jobs are dispatched **load-balanced** by [`PoolHandle::run_queue`]:
//! they go into one shared queue and whichever worker frees up first
//! takes the next one.
//!
//! # Determinism contract
//!
//! The crate-wide contract holds: results come back **in job order**,
//! every job runs exactly once on exactly one worker, and the pool
//! injects no nondeterminism. Results are therefore bit-identical for
//! any worker count **provided** the work function's output does not
//! depend on which worker state serves a job: chunked sweeps start
//! each chunk cold, and a cluster's final pass carries each cell's
//! fresh template in the job itself.
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

/// The queue half the workers share: the submitted jobs, each tagged
/// with its batch slot, guarded by a single mutex (jobs are heavy by
/// contract, so the lock is cold).
struct QueueState<Req> {
    jobs: VecDeque<(usize, Req)>,
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
/// time (`&mut self`); the worker states persist from one batch to the
/// next.
///
/// The caller's thread is worker 0: it drains the queue against its
/// state alongside the spawned workers, so a pool of `k` states keeps
/// `k` threads busy, never `k + 1`.
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
                q.jobs.push_back((seq, req));
            }
        }
        shared.ready.notify_all();
        let mut ran_here = 0;
        loop {
            let job = shared.lock().jobs.pop_front();
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
    reason = "run_queue fills every slot before finishing a batch"
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
/// (see [`PoolHandle::run_queue`]).
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
            jobs: VecDeque::new(),
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
                        if let Some(j) = q.jobs.pop_front() {
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
    fn worker_zero_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let served = with_worker_pool(
            vec![(); 3],
            |w, _, _: usize| (w, std::thread::current().id() == caller),
            |pool| {
                assert_eq!(pool.worker_count(), 3);
                pool.run_queue((0..24).collect())
            },
        );
        for slot in served {
            let (w, on_caller) = slot.unwrap();
            assert!(w < 3);
            assert_eq!(on_caller, w == 0, "worker {w}");
        }
    }

    #[test]
    fn worker_state_persists_across_batches() {
        // Per-worker state survives from one batch to the next: each
        // worker's running sum ends at what that worker was served, and
        // the sums add up to everything submitted.
        let served = with_worker_pool(
            vec![0u64; 2],
            |w, acc, add: u64| {
                *acc += add;
                (w, *acc)
            },
            |pool| {
                let mut served = pool.run_queue((1..=10).collect());
                served.extend(pool.run_queue((11..=20).collect()));
                served
            },
        );
        let mut last = [0u64; 2];
        let mut mine = [0u64; 2];
        for (add, slot) in (1..=20).zip(served) {
            let (w, acc) = slot.unwrap();
            mine[w] += add;
            assert_eq!(acc, mine[w], "worker {w} after job {add}");
            last[w] = acc;
        }
        assert_eq!(last[0] + last[1], (1..=20).sum::<u64>());
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
}
