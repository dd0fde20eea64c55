//! Deterministic scatter-gather parallelism for inside an experiment.
//!
//! The experiment registry (`ic-bench`) already fans whole experiments
//! out across `--jobs` threads with deterministic output; this crate
//! extends that contract *into* an experiment: policy sweeps, ramp
//! schedules, and ablation grids decompose into a fixed task list up
//! front, workers pull tasks from work-stealing deques, and the results
//! are reassembled in submission order. Because the decomposition is
//! fixed before any worker starts and each task derives its randomness
//! by counter-splitting [`SimRng`] (`SimRng::stream(seed, index)` — a
//! pure function of the task index), the gathered output is
//! **byte-identical for any worker count**, including 1.
//!
//! What the pool guarantees: result order and per-task RNG streams are
//! independent of scheduling. What the caller must uphold: each task is
//! a pure function of its inputs (no shared mutable state, no
//! wall-clock reads inside the task body).
//!
//! # Example
//!
//! ```
//! use ic_par::ParPool;
//!
//! let squares = ParPool::with_workers(4).scatter_gather(
//!     (0u64..100).collect(),
//!     |_, x| x * x,
//! );
//! assert_eq!(squares[7], 49); // submission order, whatever ran first
//! ```

use ic_obs::flight::{shared_flight, FlightRecorder};
use ic_sim::rng::SimRng;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Mutex;
use std::sync::OnceLock;

/// The environment variable overriding the default worker count.
pub const WORKERS_ENV: &str = "IC_PAR_WORKERS";

/// Tasks run outside every deque lock, so a poisoned deque means a
/// panic inside the pool's own bookkeeping.
const POISONED: &str = "ic-par deque lock poisoned";

/// A deterministic scatter-gather pool: a worker count and nothing
/// else. Threads are scoped to each [`scatter_gather`] call, so pools
/// are free to construct, nest, and drop.
///
/// [`scatter_gather`]: ParPool::scatter_gather
#[derive(Debug, Clone, Copy)]
pub struct ParPool {
    workers: usize,
}

impl ParPool {
    /// A pool with exactly `workers` workers (clamped to at least 1).
    pub fn with_workers(workers: usize) -> Self {
        ParPool {
            workers: workers.max(1),
        }
    }

    /// The default pool: `IC_PAR_WORKERS` if set, otherwise the
    /// machine's available parallelism. The environment is read once
    /// per process.
    pub fn from_env() -> Self {
        static WORKERS: OnceLock<usize> = OnceLock::new();
        let workers = *WORKERS.get_or_init(|| {
            std::env::var(WORKERS_ENV)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                })
        });
        ParPool { workers }
    }

    /// The worker count this pool fans out to.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `run(index, task)` for every task and returns the results
    /// **in submission order**, whatever order workers finished in.
    ///
    /// The task list is decomposed up front into one contiguous chunk
    /// per worker (fixed decomposition — no racing on a shared
    /// counter); each worker drains its own deque from the front and,
    /// when empty, steals from the back of the next non-empty
    /// neighbour, so a skewed task (one slow policy run in a sweep) does
    /// not idle the other workers.
    ///
    /// Tasks needing randomness should derive it as
    /// `SimRng::stream(seed, index)` (see [`task_rngs`]) so the stream
    /// is a function of the task, not of the worker that ran it.
    pub fn scatter_gather<T, R, F>(&self, tasks: Vec<T>, run: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = tasks.len();
        let workers = self.workers.min(n);
        if workers <= 1 {
            return tasks
                .into_iter()
                .enumerate()
                .map(|(i, t)| run(i, t))
                .collect();
        }

        // Fixed up-front decomposition: worker w owns the contiguous
        // index range [w·n/workers, (w+1)·n/workers).
        let mut deques: Vec<Mutex<VecDeque<(usize, T)>>> = Vec::with_capacity(workers);
        {
            let mut tasks = tasks.into_iter().enumerate();
            for w in 0..workers {
                let end = (w + 1) * n / workers;
                let start = w * n / workers;
                let chunk: VecDeque<(usize, T)> = tasks.by_ref().take(end - start).collect();
                deques.push(Mutex::new(chunk));
            }
        }
        let deques = &deques;
        let run = &run;

        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut pieces: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            // Own work first (front), then steal from a
                            // victim's back. The own-deque guard must be
                            // dropped before any victim is locked: two
                            // idle workers each holding their own lock
                            // while waiting on the other's deadlock.
                            let own = deques[w].lock().expect(POISONED).pop_front();
                            let next = own.or_else(|| {
                                (1..workers).find_map(|d| {
                                    deques[(w + d) % workers].lock().expect(POISONED).pop_back()
                                })
                            });
                            match next {
                                Some((i, task)) => local.push((i, run(i, task))),
                                None => break,
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ic-par worker panicked"))
                .collect()
        });
        for (i, r) in pieces.drain(..).flatten() {
            debug_assert!(slots[i].is_none(), "task {i} ran twice");
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every task produces a result"))
            .collect()
    }

    /// [`scatter_gather`](Self::scatter_gather) with per-task flight
    /// recording: each task gets a fresh [`FlightRecorder`] of
    /// `capacity` records (level-filtered via `IC_OBS_LEVEL`) and its
    /// finished recorder rides back with its result — **in submission
    /// order**, like the results themselves. Callers typically
    /// [`absorb`](FlightRecorder::absorb) the recorders into one main
    /// recorder in that order, which is what makes the merged trace
    /// byte-identical for any worker count.
    ///
    /// The recorder handle is task-local (`Rc`, not `Arc`): tasks must
    /// not leak clones of it past their own return, which the
    /// `Rc::try_unwrap` below enforces.
    pub fn scatter_gather_traced<T, R, F>(
        &self,
        tasks: Vec<T>,
        capacity: usize,
        run: F,
    ) -> Vec<(R, FlightRecorder)>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T, &ic_obs::flight::FlightHandle) -> R + Sync,
    {
        self.scatter_gather(tasks, |i, task| {
            let flight = shared_flight(capacity);
            if let Some(level) = ic_obs::flight::TraceLevel::from_env() {
                flight.borrow_mut().set_min_level(level);
            }
            let result = run(i, task, &flight);
            let recorder = Rc::try_unwrap(flight)
                .expect("task leaked its FlightHandle")
                .into_inner();
            (result, recorder)
        })
    }
}

/// The process-default pool (see [`ParPool::from_env`]).
pub fn pool() -> ParPool {
    ParPool::from_env()
}

/// One counter-split RNG per task of an `n`-task decomposition:
/// `task_rngs(seed, n)[i]` equals `SimRng::stream(seed, i)` and is
/// independent of every sibling, so pre-dealing the generators (or
/// deriving them lazily inside each task) gives identical streams.
pub fn task_rngs(seed: u64, n: usize) -> Vec<SimRng> {
    (0..n as u64).map(|i| SimRng::stream(seed, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately skewed workload: task 0 spins far longer than the
    /// rest, so without stealing the first worker's chunk dominates.
    fn skewed(i: usize, x: u64) -> u64 {
        let spins = if i == 0 { 200_000 } else { 200 };
        let mut acc = x;
        for _ in 0..spins {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        acc
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let tasks: Vec<u64> = (0..50).collect();
        let serial: Vec<u64> = tasks
            .iter()
            .enumerate()
            .map(|(i, &x)| skewed(i, x))
            .collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = ParPool::with_workers(workers).scatter_gather(tasks.clone(), skewed);
            assert_eq!(got, serial, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_singleton_task_lists() {
        let pool = ParPool::with_workers(4);
        assert!(pool.scatter_gather(Vec::<u8>::new(), |_, x| x).is_empty());
        assert_eq!(pool.scatter_gather(vec![9u8], |i, x| (i, x)), [(0, 9u8)]);
    }

    #[test]
    fn per_task_streams_are_independent_of_worker_count() {
        let draw = |_i: usize, rng: SimRng| {
            let mut rng = rng;
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        let serial = ParPool::with_workers(1).scatter_gather(task_rngs(7, 24), draw);
        let parallel = ParPool::with_workers(6).scatter_gather(task_rngs(7, 24), draw);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn nested_scatter_gather_does_not_deadlock() {
        let outer = ParPool::with_workers(3);
        let sums = outer.scatter_gather((0u64..6).collect(), |_, base| {
            ParPool::with_workers(2)
                .scatter_gather((0u64..10).collect(), move |_, x| base * 10 + x)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(sums[2], (0..10).map(|x| 20 + x).sum::<u64>());
    }

    #[test]
    fn workers_running_dry_together_do_not_deadlock() {
        // With two workers and two tasks, both workers often run dry at
        // the same moment and each tries to steal from the other. A
        // worker that still held its own deque's lock while locking the
        // victim's would wait on its peer forever (lock-order
        // inversion). A no-progress watchdog turns that hang into a
        // test failure.
        use std::sync::mpsc::{channel, RecvTimeoutError};

        const CALLS: usize = 50_000;
        const REPORT_EVERY: usize = 1_000;
        let (tx, rx) = channel();
        let stress = std::thread::spawn(move || {
            let pool = ParPool::with_workers(2);
            for call in 1..=CALLS {
                assert_eq!(pool.scatter_gather(vec![1u8, 2], |_, x| x), [1, 2]);
                if call % REPORT_EVERY == 0 {
                    tx.send(call).expect("watchdog is listening");
                }
            }
        });
        let mut done = 0;
        while done < CALLS {
            match rx.recv_timeout(std::time::Duration::from_secs(10)) {
                Ok(call) => done = call,
                Err(RecvTimeoutError::Timeout) => {
                    panic!("scatter_gather stalled after {done} calls")
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        stress.join().expect("stress thread panicked");
    }

    #[test]
    fn worker_count_is_clamped_to_one() {
        assert_eq!(ParPool::with_workers(0).workers(), 1);
        let out = ParPool::with_workers(0).scatter_gather(vec![1, 2, 3], |_, x| x * 2);
        assert_eq!(out, [2, 4, 6]);
    }

    #[test]
    fn traced_scatter_gather_is_worker_count_invariant() {
        use ic_obs::flight::FlightRecorder;
        use ic_obs::flight::TraceLevel;
        use ic_sim::time::SimTime;

        let run = |i: usize, x: u64, flight: &ic_obs::flight::FlightHandle| {
            let mut f = flight.borrow_mut();
            let tok = f
                .open_at(SimTime::ZERO, "task", "run", TraceLevel::Info, vec![])
                .unwrap();
            f.close_at(tok, SimTime::from_secs(x + 1));
            drop(f);
            skewed(i, x)
        };
        let merge = |parts: Vec<(u64, FlightRecorder)>| {
            let mut main = FlightRecorder::new(1 << 12);
            for (i, (_, rec)) in parts.into_iter().enumerate() {
                main.absorb(rec, &format!("task{i}"));
            }
            main.to_chrome_trace()
        };
        let tasks: Vec<u64> = (0..20).collect();
        let serial = merge(ParPool::with_workers(1).scatter_gather_traced(tasks.clone(), 256, run));
        for workers in [2, 7] {
            let parallel = merge(ParPool::with_workers(workers).scatter_gather_traced(
                tasks.clone(),
                256,
                run,
            ));
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn task_rngs_match_direct_streams() {
        let dealt = task_rngs(99, 5);
        for (i, rng) in dealt.into_iter().enumerate() {
            let mut a = rng;
            let mut b = SimRng::stream(99, i as u64);
            for _ in 0..4 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }
}
