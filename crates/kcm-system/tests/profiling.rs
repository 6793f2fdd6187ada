//! Regression tests for per-run statistics on session reuse, and for the
//! determinism of merged pool profiles.
//!
//! The delta-accounting bug this pins down: `Machine::run` used to copy
//! the *cumulative* memory/prefetch counters into every run's stats, so
//! any session that ran more than one query reported inflated cache
//! traffic from the second query on.

use kcm_system::{Kcm, Outcome, Profile, QueryJob, QueryOpts, RunStats, SessionPool};

const NREV: &str = "app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).
                    nrev([],[]). nrev([H|T],R) :- nrev(T,RT), app(RT,[H],R).";
const NREV_Q: &str = "nrev([1,2,3,4,5,6,7,8,9,10], R)";

fn fresh_baseline() -> (RunStats, Profile) {
    let mut kcm = Kcm::new();
    kcm.load(NREV).expect("consult");
    let o = kcm.query(NREV_Q, &QueryOpts::first()).expect("run");
    assert!(o.success);
    (o.stats, o.profile)
}

#[test]
fn reused_kcm_session_matches_fresh_sessions_exactly() {
    let (base_stats, base_profile) = fresh_baseline();
    let mut kcm = Kcm::new();
    kcm.load(NREV).expect("consult");
    for i in 0..3 {
        let o = kcm.query(NREV_Q, &QueryOpts::first()).expect("run");
        assert!(o.success);
        assert_eq!(o.stats, base_stats, "run {i}: per-run stats drifted");
        assert_eq!(o.stats.mem, base_stats.mem, "run {i}: MemStats drifted");
        assert_eq!(
            o.stats.prefetch, base_stats.prefetch,
            "run {i}: PrefetchStats drifted"
        );
        assert_eq!(o.profile, base_profile, "run {i}: profile drifted");
    }
}

#[test]
fn reused_pool_worker_matches_fresh_sessions_exactly() {
    let (base_stats, base_profile) = fresh_baseline();
    let mut kcm = Kcm::new();
    kcm.load(NREV).expect("consult");
    // One worker, four identical jobs: the single worker session runs
    // them back to back, which is exactly the reuse the delta bug hit.
    let jobs = vec![QueryJob::first_solution(NREV_Q); 4];
    let results = SessionPool::new(1).run_queries(&kcm, &jobs).expect("run");
    for r in &results {
        let o = r.outcome.as_ref().expect("ok");
        assert_eq!(o.stats, base_stats, "session {}: stats drifted", r.session);
        assert_eq!(
            o.profile, base_profile,
            "session {}: profile drifted",
            r.session
        );
    }
}

#[test]
fn merged_pool_profile_is_identical_at_any_worker_count() {
    let mut kcm = Kcm::new();
    kcm.load(NREV).expect("consult");
    let jobs: Vec<QueryJob> = (1..=10)
        .map(|n| QueryJob::first_solution(format!("nrev([{n},2,3,4,5], R)")))
        .collect();
    let mut reference: Option<(RunStats, Profile)> = None;
    for workers in [1usize, 2, 4, 8] {
        let results = SessionPool::new(workers)
            .run_queries(&kcm, &jobs)
            .expect("run");
        assert_eq!(results.len(), jobs.len());
        let outcomes: Vec<&Outcome> = results
            .iter()
            .map(|r| r.outcome.as_ref().expect("ok"))
            .collect();
        let merged = RunStats::merged(outcomes.iter().map(|o| &o.stats));
        let profile = Profile::merged(outcomes.iter().map(|o| &o.profile));
        match &reference {
            None => reference = Some((merged, profile)),
            Some((ref_stats, ref_profile)) => {
                assert_eq!(
                    &merged, ref_stats,
                    "{workers} workers: merged stats drifted"
                );
                assert_eq!(
                    &profile, ref_profile,
                    "{workers} workers: merged profile drifted"
                );
            }
        }
    }
    let (_, profile) = reference.expect("at least one run");
    assert!(profile.retired_total() > 0);
    assert!(profile.mwac.total() > 0);
}
