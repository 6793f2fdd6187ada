//! Parallel multi-session execution: many independent KCM sessions
//! against one compiled program.
//!
//! The paper's KCM is a single back-end processor serving one workstation
//! (§1). A production deployment wants many concurrent users per consulted
//! program, which requires first-class isolated machine instances — the
//! direction BinProlog's first-class logic engines took. [`SessionPool`]
//! provides exactly that: the compiled [`CodeImage`] is shared immutably
//! across `std::thread` workers (the whole machine stack is `Send`), while
//! every session owns its registers, caches, heap zones and trail.
//!
//! Determinism is a hard requirement here — the evaluation tables must not
//! change because they ran in parallel. Sessions are fully isolated, each
//! job's result lands at its job index, and all rendering happens after
//! the fan-in, so a pool with 1 worker and a pool with N workers produce
//! byte-identical output.
//!
//! # Examples
//!
//! ```
//! use kcm_system::{Kcm, QueryJob, SessionPool};
//!
//! # fn main() -> Result<(), kcm_system::KcmError> {
//! let mut kcm = Kcm::new();
//! kcm.load("app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).")?;
//! let pool = SessionPool::new(4);
//! let jobs: Vec<QueryJob> = (1..=8)
//!     .map(|n| QueryJob::first_solution(format!("app(X, Y, [{n}])")))
//!     .collect();
//! let results = pool.run_queries(&kcm, &jobs)?;
//! assert_eq!(results.len(), 8);
//! assert!(results.iter().all(|r| r.outcome.as_ref().unwrap().success));
//! # Ok(())
//! # }
//! ```

use crate::{prepare_query, Kcm, KcmError, MachineConfig, Outcome, QueryOpts};
use kcm_arch::SymbolTable;
use kcm_compiler::CodeImage;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// One query to run as an independent session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryJob {
    /// The query text, as accepted by [`Kcm::query`].
    pub query: String,
    /// Per-query options (enumeration, step deadline, tracing).
    pub opts: QueryOpts,
}

impl QueryJob {
    /// A job that stops at the first solution.
    pub fn first_solution(query: impl Into<String>) -> QueryJob {
        QueryJob::with_opts(query, QueryOpts::first())
    }

    /// A job that enumerates every solution.
    pub fn all_solutions(query: impl Into<String>) -> QueryJob {
        QueryJob::with_opts(query, QueryOpts::all())
    }

    /// A job with explicit [`QueryOpts`].
    pub fn with_opts(query: impl Into<String>, opts: QueryOpts) -> QueryJob {
        QueryJob {
            query: query.into(),
            opts,
        }
    }
}

/// The result of one pooled session, tagged with its job index.
#[derive(Debug)]
pub struct SessionResult {
    /// Index of the job in the submitted slice (== session id).
    pub session: usize,
    /// The query that ran.
    pub query: String,
    /// The session's outcome: per-session [`RunStats`](crate::RunStats)
    /// live inside; [`RunStats::merged`](crate::RunStats::merged) and
    /// [`Profile::merged`](crate::Profile::merged) sum them in job order.
    pub outcome: Result<Outcome, KcmError>,
}

/// A pool of worker threads running independent KCM sessions.
///
/// The pool itself is cheap: workers are spawned per batch (scoped
/// threads fed from a channel job queue), so a `SessionPool` is just a
/// worker-count policy that can be stored, copied and compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionPool {
    workers: usize,
}

impl SessionPool {
    /// A pool with `workers` worker threads (clamped to at least 1).
    pub fn new(workers: usize) -> SessionPool {
        SessionPool {
            workers: workers.max(1),
        }
    }

    /// A pool sized to the host's available parallelism.
    pub fn with_available_parallelism() -> SessionPool {
        SessionPool::new(
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
        )
    }

    /// A pool sized from the `KCM_WORKERS` environment variable when set
    /// (reproducible timing-table runs pin it to 1), otherwise from the
    /// host's available parallelism.
    pub fn from_env() -> SessionPool {
        match std::env::var("KCM_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) => SessionPool::new(n),
            None => SessionPool::with_available_parallelism(),
        }
    }

    /// The worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item on the pool's workers and returns the
    /// results **in item order**, regardless of which worker finished
    /// first. The generic fan-out under every pooled runner: `f` must be
    /// pure per item for the order guarantee to make the output
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` (the scope joins its workers).
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let workers = self.workers.min(items.len());
        // Channel-fed job queue: workers pull the next index as they free
        // up, so long and short sessions interleave without a scheduler.
        let (job_tx, job_rx) = mpsc::channel::<usize>();
        for i in 0..items.len() {
            job_tx.send(i).expect("queue open");
        }
        drop(job_tx);
        let job_rx = Mutex::new(job_rx);
        let (res_tx, res_rx) = mpsc::channel::<(usize, U)>();
        let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let res_tx = res_tx.clone();
                let job_rx = &job_rx;
                let f = &f;
                scope.spawn(move || loop {
                    // Take the lock only to pop the next index; run the
                    // session outside it.
                    let next = { job_rx.lock().expect("queue lock").recv() };
                    let Ok(i) = next else { break };
                    if res_tx.send((i, f(&items[i]))).is_err() {
                        break;
                    }
                });
            }
            drop(res_tx);
            // Fan-in on the caller thread, results landing at their index.
            for (i, result) in res_rx {
                slots[i] = Some(result);
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every job produced a result"))
            .collect()
    }

    /// Runs every job as an independent session against the consulted
    /// program of `kcm`, fanning out across the pool. Results return in
    /// job order with per-session statistics.
    ///
    /// # Errors
    ///
    /// Returns [`KcmError::NoProgram`] if nothing has been consulted.
    /// Per-session errors (parse errors in one query, machine faults) are
    /// reported in that session's [`SessionResult`] without affecting the
    /// other sessions.
    pub fn run_queries(
        &self,
        kcm: &Kcm,
        jobs: &[QueryJob],
    ) -> Result<Vec<SessionResult>, KcmError> {
        if kcm.image().is_none() {
            return Err(KcmError::NoProgram);
        }
        let outcomes = self.map(jobs, |job| kcm.query(&job.query, &job.opts));
        Ok(outcomes
            .into_iter()
            .zip(jobs)
            .enumerate()
            .map(|(session, (outcome, job))| SessionResult {
                session,
                query: job.query.clone(),
                outcome,
            })
            .collect())
    }
}

impl Default for SessionPool {
    fn default() -> SessionPool {
        SessionPool::from_env()
    }
}

/// One isolated session: [`prepare_query`] against the shared image,
/// then one run on the fresh machine, in one unbounded quantum. Only the
/// `Arc` on the program image is shared. Public for callers that run a
/// query against a published program without a `Kcm`, such as the
/// registry's clients and benchmark harnesses.
///
/// # Errors
///
/// Query parse/compile errors or a machine fault.
pub fn run_session(
    image: &Arc<CodeImage>,
    symbols: &SymbolTable,
    config: &MachineConfig,
    job: &QueryJob,
) -> Result<Outcome, KcmError> {
    prepare_query(image, symbols, config, &job.query, &job.opts)?.run(job.opts.enumerate_all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunStats;

    fn consulted() -> Kcm {
        let mut kcm = Kcm::new();
        kcm.load(
            "p(1). p(2). p(3).
             double(X, Y) :- Y is X * 2.",
        )
        .expect("consult");
        kcm
    }

    #[test]
    fn pool_is_send_and_machine_stack_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<crate::Machine>();
        assert_send::<Kcm>();
        assert_send::<SessionPool>();
        assert_send::<SessionResult>();
    }

    #[test]
    fn empty_job_list_is_fine() {
        let pool = SessionPool::new(4);
        assert!(pool.run_queries(&consulted(), &[]).expect("run").is_empty());
    }

    #[test]
    fn results_come_back_in_job_order() {
        let kcm = consulted();
        let pool = SessionPool::new(4);
        let jobs: Vec<QueryJob> = (1..=20)
            .map(|n| QueryJob::first_solution(format!("double({n}, Y)")))
            .collect();
        let results = pool.run_queries(&kcm, &jobs).expect("run");
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.session, i);
            let o = r.outcome.as_ref().expect("ok");
            let (_, term) = &o.solutions[0][0];
            assert_eq!(term.to_string(), ((i as i64 + 1) * 2).to_string());
        }
    }

    #[test]
    fn one_worker_matches_many_workers() {
        let kcm = consulted();
        let jobs: Vec<QueryJob> = (0..12)
            .map(|n| {
                if n % 2 == 0 {
                    QueryJob::all_solutions("p(X)".to_owned())
                } else {
                    QueryJob::first_solution(format!("double({n}, Y)"))
                }
            })
            .collect();
        let serial = SessionPool::new(1)
            .run_queries(&kcm, &jobs)
            .expect("serial");
        let parallel = SessionPool::new(4)
            .run_queries(&kcm, &jobs)
            .expect("parallel");
        for (a, b) in serial.iter().zip(&parallel) {
            let (oa, ob) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
            assert_eq!(oa.solutions, ob.solutions);
            assert_eq!(oa.stats, ob.stats);
            assert_eq!(oa.output, ob.output);
        }
    }

    #[test]
    fn per_session_errors_do_not_poison_the_batch() {
        let kcm = consulted();
        let pool = SessionPool::new(2);
        let jobs = vec![
            QueryJob::first_solution("p(X)"),
            QueryJob::first_solution("p(("), // parse error
            QueryJob::first_solution("p(3)"),
        ];
        let results = pool.run_queries(&kcm, &jobs).expect("run");
        assert!(results[0].outcome.is_ok());
        assert!(matches!(results[1].outcome, Err(KcmError::Parse(_))));
        assert!(results[2].outcome.as_ref().unwrap().success);
    }

    #[test]
    fn no_program_is_a_batch_error() {
        let pool = SessionPool::new(2);
        let jobs = vec![QueryJob::first_solution("p(X)")];
        assert!(matches!(
            pool.run_queries(&Kcm::new(), &jobs),
            Err(KcmError::NoProgram)
        ));
    }

    #[test]
    fn merged_stats_sum_counters_and_keep_sessions_intact() {
        let kcm = consulted();
        let pool = SessionPool::new(3);
        let jobs: Vec<QueryJob> = (1..=5)
            .map(|n| QueryJob::first_solution(format!("double({n}, Y)")))
            .collect();
        let results = pool.run_queries(&kcm, &jobs).expect("run");
        let merged = RunStats::merged(results.iter().map(|r| &r.outcome.as_ref().unwrap().stats));
        let sum: u64 = results
            .iter()
            .map(|r| r.outcome.as_ref().unwrap().stats.cycles)
            .sum();
        assert_eq!(merged.cycles, sum);
        let inf: u64 = results
            .iter()
            .map(|r| r.outcome.as_ref().unwrap().stats.inferences)
            .sum();
        assert_eq!(merged.inferences, inf);
        assert!(merged.cycles > 0);
    }

    #[test]
    fn worker_count_clamps_and_env_parses() {
        assert_eq!(SessionPool::new(0).workers(), 1);
        assert!(SessionPool::with_available_parallelism().workers() >= 1);
    }
}
