//! Golden trace windows: the macrocode monitor's last 32 executed
//! instructions ([`QueryOpts::with_trace`]) of every suite program's
//! `main` query, pinned to the committed file `golden_trace.txt` next to
//! this test, one line per window entry, oldest first.
//!
//! The window is recorded around the one instruction loop both tiers
//! share, so both tiers must reproduce the same file: the native tier
//! retires the same instructions at the same addresses as the cycle
//! tier, it only charges no cycles for them. A traced run steps one
//! instruction at a time, and each traced query must also answer and
//! count exactly as the same query run untraced.
//!
//! A change meant to alter the code layout or the trace format edits the
//! committed file; the failure message prints the full current
//! rendering for that.

use kcm_suite::{golden, programs};
use kcm_system::{Kcm, QueryOpts, Tier};
use std::fmt::Write;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_trace.txt");

const DEPTH: usize = 32;

fn current(tier: Tier) -> String {
    let mut out = String::new();
    for p in programs::suite() {
        let mut kcm = Kcm::new();
        kcm.load(p.source)
            .unwrap_or_else(|e| panic!("{}: consult: {e}", p.name));
        let opts = QueryOpts {
            enumerate_all: p.enumerate,
            ..QueryOpts::default()
        }
        .with_tier(tier);
        let run = |opts: &QueryOpts| {
            kcm.query(p.query, opts)
                .unwrap_or_else(|e| panic!("{}: query: {e}", p.name))
        };
        let (outcome, plain) = (run(&opts.clone().with_trace(DEPTH)), run(&opts));
        assert_eq!(outcome.trace.len(), DEPTH, "{}: a full window", p.name);
        let observed = |o: &kcm_system::Outcome| {
            format!("{:?}", (&o.solutions, &o.output, &o.stats, &o.profile))
        };
        assert_eq!(
            observed(&outcome),
            observed(&plain),
            "{}: tracing changed the run",
            p.name
        );
        for (i, entry) in outcome.trace.iter().enumerate() {
            let _ = writeln!(out, "{}.trace.{i} {entry}", p.name);
        }
    }
    out
}

#[test]
fn cycle_tier_trace_windows_match_the_golden_file() {
    golden::assert_matches(GOLDEN_PATH, &current(Tier::Cycle));
}

#[test]
fn native_tier_trace_windows_match_the_golden_file() {
    golden::assert_matches(GOLDEN_PATH, &current(Tier::Native));
}
