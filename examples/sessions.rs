//! Parallel multi-session execution: N independent queries against one
//! consulted program on a `SessionPool`, with per-session and merged
//! statistics.
//!
//! ```text
//! cargo run --example sessions
//! KCM_WORKERS=1 cargo run --example sessions   # same bytes, one thread
//! ```

use kcm_system::{Kcm, QueryJob, RunStats, SessionPool};

fn main() -> Result<(), kcm_system::KcmError> {
    let mut kcm = Kcm::new();
    kcm.load(
        "app([], L, L).
         app([H|T], L, [H|R]) :- app(T, L, R).
         nrev([], []).
         nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).",
    )?;

    let pool = SessionPool::from_env();
    println!("pool: {} worker(s)", pool.workers());

    // Eight sessions: split [1,2,3] every way, then a few nrevs.
    let mut jobs: Vec<QueryJob> = vec![QueryJob::all_solutions("app(X, Y, [1,2,3])")];
    for n in [4usize, 8, 16] {
        let list: Vec<String> = (1..=n).map(|i| i.to_string()).collect();
        jobs.push(QueryJob::first_solution(format!(
            "nrev([{}], R)",
            list.join(",")
        )));
    }

    let results = pool.run_queries(&kcm, &jobs)?;
    let merged = RunStats::merged(
        results
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok().map(|o| &o.stats)),
    );
    for r in &results {
        let o = r.outcome.as_ref().expect("session ok");
        println!(
            "session {}: {:<22} {} solution(s), {} inferences, {} cycles",
            r.session,
            r.query,
            o.solutions.len(),
            o.stats.inferences,
            o.stats.cycles
        );
        for s in &o.solutions {
            let bindings: Vec<String> = s.iter().map(|(v, t)| format!("{v} = {t}")).collect();
            println!("    {}", bindings.join(", "));
        }
    }
    println!(
        "merged: {} inferences in {} machine cycles across {} sessions",
        merged.inferences,
        merged.cycles,
        results.len()
    );
    Ok(())
}
