//! Golden cycle-tier profiles: for every suite program's `main` query,
//! run with `profile` on, every counter of the hardware-mechanism
//! [`Profile`](kcm_system::Profile), the run's backtracks, trail pushes
//! and zone growths, and the per-predicate cycle attribution
//! ([`PreparedQuery::profile`]), pinned to the committed file
//! `golden_profile.txt` next to this test. The query is prepared once
//! and run twice, so the file pins a fresh machine (`first`) and a
//! reused one (`rerun`); the per-predicate attribution of the rerun
//! covers both runs.
//!
//! `golden_runstats.rs` pins the run totals. This pin splits them: per
//! instruction class, per MWAC case, per switch outcome, per
//! dereference-chain length and per predicate, so a host change that
//! moved cycles between two opcodes or two predicates fails here too.

use kcm_suite::{golden, programs};
use kcm_system::{Kcm, MachineConfig, Outcome, PreparedQuery, QueryOpts};
use std::fmt::Write;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_profile.txt");

fn render(name: &str, outcome: &Outcome, prepared: &PreparedQuery) -> String {
    let mut out = golden::profile(name, outcome);
    for (pred, cycles) in prepared.profile() {
        let _ = writeln!(out, "{name}.pred.{pred} {cycles}");
    }
    out
}

fn current() -> String {
    let mut out = String::new();
    for p in programs::suite() {
        let mut kcm = Kcm::with_config(MachineConfig {
            profile: true,
            ..MachineConfig::default()
        });
        kcm.load(p.source)
            .unwrap_or_else(|e| panic!("{}: consult: {e}", p.name));
        let opts = QueryOpts {
            enumerate_all: p.enumerate,
            ..QueryOpts::default()
        };
        let mut prepared = kcm
            .prepare(p.query, &opts)
            .unwrap_or_else(|e| panic!("{}: prepare: {e}", p.name));
        for run in ["first", "rerun"] {
            let outcome = prepared
                .run(p.enumerate)
                .unwrap_or_else(|e| panic!("{}: run: {e}", p.name));
            out += &render(&format!("{}.{run}", p.name), &outcome, &prepared);
        }
    }
    out
}

#[test]
fn suite_profiles_match_the_golden_file() {
    golden::assert_matches(GOLDEN_PATH, &current());
}
