//! Golden-file pins: counters rendered one per line, `subject.field
//! value`, and compared line by line with a committed file, so a diff
//! names exactly what moved.
//!
//! The cycle-tier pins under `tests/` (suite `RunStats`, reruns on a
//! prepared machine, profiles, corpus cases, hash-switch costs) share
//! this rendering. A pin has no rewrite mode: a change meant to move a
//! counter edits the committed file, and the failure message prints the
//! full current rendering for that.

use kcm_system::{InstrClass, Outcome, Profile, RunStats};
use std::fmt::Write;

fn lines<const N: usize>(name: &str, fields: [(&str, u64); N]) -> String {
    let mut out = String::new();
    for (field, value) in fields {
        let _ = writeln!(out, "{name}.{field} {value}");
    }
    out
}

/// All 21 counters of `s`: clock, cycles, instruction and inference
/// counts, choice-point and trail activity, cache, page-fault and
/// prefetch counters.
pub fn runstats(name: &str, s: &RunStats) -> String {
    format!("{name}.cycle_ns {}\n", s.cycle_ns)
        + &lines(
            name,
            [
                ("cycles", s.cycles),
                ("instructions", s.instructions),
                ("inferences", s.inferences),
                ("choice_points", s.choice_points),
                ("shallow_entries", s.shallow_entries),
                ("shallow_fails", s.shallow_fails),
                ("deep_fails", s.deep_fails),
                ("trail_pushes", s.trail_pushes),
                ("deref_links", s.deref_links),
                ("zone_growths", s.zone_growths),
                ("mem.dcache_hits", s.mem.dcache_hits),
                ("mem.dcache_misses", s.mem.dcache_misses),
                ("mem.dcache_writebacks", s.mem.dcache_writebacks),
                ("mem.icache_hits", s.mem.icache_hits),
                ("mem.icache_misses", s.mem.icache_misses),
                ("mem.data_page_faults", s.mem.data_page_faults),
                ("mem.code_page_faults", s.mem.code_page_faults),
                ("prefetch.issued", s.prefetch.issued),
                ("prefetch.breaks", s.prefetch.breaks),
                ("prefetch.sequential", s.prefetch.sequential),
            ],
        )
}

/// The four switch-dispatch counters of `p`: charged table probes,
/// hits, misses and second-level dispatches.
pub fn switches(name: &str, p: &Profile) -> String {
    let s = &p.switches;
    lines(
        name,
        [
            ("switches.probes", s.probes),
            ("switches.hits", s.hits),
            ("switches.misses", s.misses),
            ("switches.depth2", s.depth2),
        ],
    )
}

/// Every counter of `o`'s profile — retired instructions and cycles per
/// class, MWAC dispatch outcomes, switch dispatch, trail checks and the
/// dereference-chain histogram — with its backtracks, trail pushes and
/// zone growths, which are run totals, read from `o`'s stats under the
/// keys the profile once counted them under.
pub fn profile(name: &str, o: &Outcome) -> String {
    let (p, s) = (&o.profile, &o.stats);
    let mut out = String::new();
    for class in InstrClass::ALL {
        let c = p.class(class);
        let class = class.name();
        let _ = writeln!(out, "{name}.class.{class}.retired {}", c.retired);
        let _ = writeln!(out, "{name}.class.{class}.cycles {}", c.cycles);
    }
    let m = &p.mwac;
    out += &lines(
        name,
        [
            ("mwac.bind_left", m.bind_left),
            ("mwac.bind_right", m.bind_right),
            ("mwac.compare_constants", m.compare_constants),
            ("mwac.descend_list", m.descend_list),
            ("mwac.descend_struct", m.descend_struct),
            ("mwac.clash", m.clash),
        ],
    );
    out += &switches(name, p);
    out += &lines(
        name,
        [
            ("shallow_backtracks", s.shallow_fails),
            ("deep_backtracks", s.deep_fails),
            ("trail_checks", p.trail_checks),
            ("trail_pushes", s.trail_pushes),
        ],
    );
    for (links, &count) in p.deref_hist.iter().enumerate() {
        let _ = writeln!(out, "{name}.deref_hist.{links} {count}");
    }
    out + &lines(name, [("zone_grow_traps", s.zone_growths)])
}

/// Asserts that `now` renders exactly the committed file at `path`.
///
/// # Panics
///
/// On any differing, missing or extra line; the message lists the
/// differences and then the full current rendering.
pub fn assert_matches(path: &str, now: &str) {
    assert_lines(path, &read(path, now), now);
}

/// Like [`assert_matches`], against only the lines of the file under
/// `name` (those starting `name.`).
///
/// # Panics
///
/// As [`assert_matches`]; also when the file has no line under `name`.
pub fn assert_matches_subject(path: &str, name: &str, now: &str) {
    let prefix = format!("{name}.");
    let golden: String = read(path, now)
        .lines()
        .filter(|l| l.starts_with(&prefix))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_lines(path, &golden, now);
}

fn read(path: &str, now: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {path}: {e}\n\ncurrent rendering:\n{now}"))
}

fn assert_lines(path: &str, golden: &str, now: &str) {
    let diffs: Vec<String> = golden
        .lines()
        .zip(now.lines())
        .filter(|(g, n)| g != n)
        .map(|(g, n)| format!("  golden {g}\n  now    {n}"))
        .collect();
    assert!(
        diffs.is_empty() && golden.lines().count() == now.lines().count(),
        "counters drifted from {path}:\n{}\n\ncurrent rendering:\n{now}",
        diffs.join("\n")
    );
}
