//! Golden cycle-tier counters: the full [`RunStats`] of every suite
//! program's `main` query, pinned to the committed file
//! `golden_runstats.txt` next to this test.
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

fn current() -> String {
    let mut out = String::new();
    for p in programs::suite() {
        let mut kcm = Kcm::new();
        kcm.load(p.source)
            .unwrap_or_else(|e| panic!("{}: consult: {e}", p.name));
        let opts = QueryOpts {
            enumerate_all: p.enumerate,
            ..QueryOpts::default()
        };
        let outcome = kcm
            .query(p.query, &opts)
            .unwrap_or_else(|e| panic!("{}: query: {e}", p.name));
        out.push_str(&render(p.name, outcome.success, &outcome.stats));
    }
    out
}

#[test]
fn suite_runstats_match_the_golden_file() {
    let now = current();
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("read the golden file");
    let diffs: Vec<String> = golden
        .lines()
        .zip(now.lines())
        .filter(|(g, n)| g != n)
        .map(|(g, n)| format!("  golden {g}\n  now    {n}"))
        .collect();
    assert!(
        diffs.is_empty() && golden.lines().count() == now.lines().count(),
        "cycle-tier RunStats drifted from {GOLDEN_PATH}:\n{}\n\ncurrent rendering:\n{now}",
        diffs.join("\n")
    );
}
