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
//! A change meant to alter the cost model or the code layout edits the
//! committed file; the failure message prints the full current
//! rendering for that.

use kcm_suite::programs;
use kcm_system::{Kcm, QueryOpts, RunStats};
use std::fmt::Write;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_runstats.txt");
const RERUN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden_runstats_rerun.txt"
);

/// One line per counter, `program.field value`, so a diff names exactly
/// what moved.
fn render(name: &str, success: bool, s: &RunStats) -> String {
    let fields: [(&str, String); 22] = [
        ("success", success.to_string()),
        ("cycle_ns", s.cycle_ns.to_string()),
        ("cycles", s.cycles.to_string()),
        ("instructions", s.instructions.to_string()),
        ("inferences", s.inferences.to_string()),
        ("choice_points", s.choice_points.to_string()),
        ("shallow_entries", s.shallow_entries.to_string()),
        ("shallow_fails", s.shallow_fails.to_string()),
        ("deep_fails", s.deep_fails.to_string()),
        ("trail_pushes", s.trail_pushes.to_string()),
        ("deref_links", s.deref_links.to_string()),
        ("zone_growths", s.zone_growths.to_string()),
        ("mem.dcache_hits", s.mem.dcache_hits.to_string()),
        ("mem.dcache_misses", s.mem.dcache_misses.to_string()),
        ("mem.dcache_writebacks", s.mem.dcache_writebacks.to_string()),
        ("mem.icache_hits", s.mem.icache_hits.to_string()),
        ("mem.icache_misses", s.mem.icache_misses.to_string()),
        ("mem.data_page_faults", s.mem.data_page_faults.to_string()),
        ("mem.code_page_faults", s.mem.code_page_faults.to_string()),
        ("prefetch.issued", s.prefetch.issued.to_string()),
        ("prefetch.breaks", s.prefetch.breaks.to_string()),
        ("prefetch.sequential", s.prefetch.sequential.to_string()),
    ];
    let mut out = String::new();
    for (field, value) in fields {
        let _ = writeln!(out, "{name}.{field} {value}");
    }
    out
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

fn assert_golden(path: &str, now: &str) {
    let golden = std::fs::read_to_string(path).expect("read the golden file");
    let diffs: Vec<String> = golden
        .lines()
        .zip(now.lines())
        .filter(|(g, n)| g != n)
        .map(|(g, n)| format!("  golden {g}\n  now    {n}"))
        .collect();
    assert!(
        diffs.is_empty() && golden.lines().count() == now.lines().count(),
        "cycle-tier RunStats drifted from {path}:\n{}\n\ncurrent rendering:\n{now}",
        diffs.join("\n")
    );
}

#[test]
fn suite_runstats_match_the_golden_file() {
    assert_golden(GOLDEN_PATH, &current());
}

#[test]
fn second_runs_on_a_prepared_machine_match_the_golden_file() {
    let (first, second) = rerun();
    assert_golden(GOLDEN_PATH, &first);
    assert_golden(RERUN_PATH, &second);
}
