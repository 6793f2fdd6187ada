//! Golden cycle-tier counters: the full [`RunStats`] of every suite
//! program's `main` query, pinned to the committed file
//! `golden_runstats.txt` next to this test, and of a second run of the
//! same query on the same prepared machine, pinned to
//! `golden_runstats_rerun.txt`. The rerun starts with warm caches, mapped
//! pages and the first run's heap, so it pins the counters of a reused
//! machine as well as those of a fresh one.
//!
//! `tests/reproduction.rs` asserts only bands around the paper's
//! figures, so a change that moved code by one word — and with it the
//! code-cache behaviour — could shift cycle counts without failing. This
//! test fails on any difference in any counter: cycles, instructions,
//! inferences, choice-point and trail activity, cache hits and misses,
//! page faults and the prefetch pipeline.
//!
//! The same golden file pins the suite run one instruction per quantum:
//! pausing and resuming the machine is host-only, so no counter may move.
//!
//! A change meant to alter the cost model or the code layout edits the
//! committed file; the failure message prints the full current
//! rendering for that.

use kcm_suite::{golden, programs};
use kcm_system::{Kcm, Quantum, QueryOpts, RunStats};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_runstats.txt");
const RERUN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden_runstats_rerun.txt"
);

/// One line per counter, `program.field value`, so a diff names exactly
/// what moved.
fn render(name: &str, success: bool, s: &RunStats) -> String {
    format!("{name}.success {success}\n") + &golden::runstats(name, s)
}

fn opts(p: &programs::BenchProgram) -> QueryOpts {
    QueryOpts {
        enumerate_all: p.enumerate,
        ..QueryOpts::default()
    }
}

fn loaded(p: &programs::BenchProgram) -> Kcm {
    let mut kcm = Kcm::new();
    kcm.load(p.source)
        .unwrap_or_else(|e| panic!("{}: consult: {e}", p.name));
    kcm
}

fn current() -> String {
    let mut out = String::new();
    for p in programs::suite() {
        let outcome = loaded(&p)
            .query(p.query, &opts(&p))
            .unwrap_or_else(|e| panic!("{}: query: {e}", p.name));
        out.push_str(&render(p.name, outcome.success, &outcome.stats));
    }
    out
}

/// Each query prepared once and run twice: the first run must render
/// exactly as [`current`] does; the second run is returned.
fn rerun() -> (String, String) {
    let (mut first, mut second) = (String::new(), String::new());
    for p in programs::suite() {
        let mut prepared = loaded(&p)
            .prepare(p.query, &opts(&p))
            .unwrap_or_else(|e| panic!("{}: prepare: {e}", p.name));
        for out in [&mut first, &mut second] {
            let outcome = prepared
                .run(p.enumerate)
                .unwrap_or_else(|e| panic!("{}: run: {e}", p.name));
            out.push_str(&render(p.name, outcome.success, &outcome.stats));
        }
    }
    (first, second)
}

/// Each query run one instruction per quantum, paused after every step.
fn quantum_stepped() -> String {
    let mut out = String::new();
    for p in programs::suite() {
        let mut prepared = loaded(&p)
            .prepare(p.query, &opts(&p))
            .unwrap_or_else(|e| panic!("{}: prepare: {e}", p.name));
        prepared
            .begin_run(p.enumerate)
            .unwrap_or_else(|e| panic!("{}: arm: {e}", p.name));
        let outcome = loop {
            match prepared.run_quantum(1) {
                Ok(Quantum::Paused) => {}
                Ok(Quantum::Done(outcome)) => break outcome,
                Err(e) => panic!("{}: run: {e}", p.name),
            }
        };
        out.push_str(&render(p.name, outcome.success, &outcome.stats));
    }
    out
}

#[test]
fn suite_runstats_match_the_golden_file() {
    golden::assert_matches(GOLDEN_PATH, &current());
}

#[test]
fn runs_paused_after_every_instruction_match_the_golden_file() {
    golden::assert_matches(GOLDEN_PATH, &quantum_stepped());
}

#[test]
fn second_runs_on_a_prepared_machine_match_the_golden_file() {
    let (first, second) = rerun();
    golden::assert_matches(GOLDEN_PATH, &first);
    golden::assert_matches(RERUN_PATH, &second);
}
