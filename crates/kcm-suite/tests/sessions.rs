//! A drained session must account exactly like a one-shot enumerate-all
//! run: for every suite program, both drivers and both tiers, the same
//! solutions, the same output and the same `RunStats`, every counter
//! included. Both drivers in kcm-cpu share one slice step; this pins the
//! invariant that step must keep on real workloads.

use kcm_suite::programs;
use kcm_system::{Kcm, QueryOpts, Tier};

#[test]
fn drained_sessions_account_like_one_shot_runs_over_the_suite() {
    for p in programs::suite() {
        let mut kcm = Kcm::new();
        kcm.load(p.source)
            .unwrap_or_else(|e| panic!("{}: load: {e}", p.name));
        for query in [p.query, p.starred_query] {
            for tier in [Tier::Cycle, Tier::Native] {
                let case = format!("{} `{query}` on {tier:?}", p.name);
                let opts = QueryOpts::all().with_tier(tier);
                let oracle = kcm
                    .query(query, &opts)
                    .unwrap_or_else(|e| panic!("{case}: run: {e}"));
                let mut session = kcm
                    .solutions(query, &opts)
                    .unwrap_or_else(|e| panic!("{case}: open: {e}"));
                let mut streamed = Vec::new();
                while let Some(step) = session
                    .next_step()
                    .unwrap_or_else(|e| panic!("{case}: pull: {e}"))
                {
                    streamed.push(step.solution);
                }
                assert_eq!(streamed, oracle.solutions, "{case}: solutions");
                assert_eq!(session.output(), oracle.output, "{case}: output");
                assert_eq!(*session.totals(), oracle.stats, "{case}: stats");
            }
        }
    }
}
