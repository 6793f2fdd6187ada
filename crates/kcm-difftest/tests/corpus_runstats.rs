//! Golden cycle-tier counters for the regression corpus: for every case,
//! the success flag (or the error class) and the full [`RunStats`] of the
//! cycle-tier run the oracle's reference engine makes, pinned to the
//! committed file `corpus_runstats.txt` next to this test.
//!
//! The oracle compares solutions, output, inferences and error classes,
//! never cycles (TESTING.md), so a host fast path that shifted a cache
//! counter on one corpus program would pass the difftest. This test fails
//! on any difference in any counter, including those of runs that end in
//! an error: the counters are read off the machine after the fault.
//!
//! A change meant to alter the cost model or the code layout edits the
//! committed file; the failure message prints the full current rendering
//! for that.

use kcm_cpu::{Machine, RunStats};
use kcm_difftest::corpus::{CorpusCase, CORPUS};
use kcm_difftest::oracle::STEP_BUDGET;
use kcm_suite::golden;
use kcm_system::{error_class, Kcm, KcmError, QueryOpts};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus_runstats.txt");

/// One line per counter, `case.field value`, so a diff names exactly what
/// moved. The first line is `case.success <bool>` or `case.error <class>`.
fn render(name: &str, head: &str, s: &RunStats) -> String {
    format!("{name}.{head}\n") + &golden::runstats(name, s)
}

/// Runs `case` as the oracle's cycle-tier reference engine does (default
/// configuration, the oracle's step budget) and renders the outcome with
/// the run's counters, which the machine reports even after a fault.
fn run_case(case: &CorpusCase) -> String {
    let mut kcm = Kcm::new();
    kcm.load(case.source)
        .unwrap_or_else(|e| panic!("{}: consult: {e}", case.name));
    let opts = QueryOpts {
        enumerate_all: case.enumerate,
        ..QueryOpts::default()
    }
    .with_step_budget(STEP_BUDGET);
    let goal = kcm_prolog::read_term(case.query)
        .unwrap_or_else(|e| panic!("{}: query parse: {e}", case.name));
    let mut symbols = kcm.symbols().clone();
    let image = kcm.image().expect("consulted");
    let (qimage, vars) = kcm_compiler::compile_query(image, &goal, &mut symbols)
        .unwrap_or_else(|e| panic!("{}: query compile: {e:?}", case.name));
    let mut config = kcm.config().clone();
    opts.apply(&mut config);
    let mut machine = Machine::new(qimage, symbols, config);
    let before = machine.lifetime_stats();
    let result = machine.run_query(&vars, case.enumerate);
    let stats = machine.lifetime_stats().delta_since(&before);
    let head = match &result {
        Ok(outcome) => {
            // The same run through the public pipeline reports the same
            // counters, so this pin covers `Kcm::query` too.
            let public = kcm.query(case.query, &opts).expect("same outcome");
            assert_eq!(public.stats, stats, "{}: Kcm::query diverged", case.name);
            format!("success {}", outcome.success)
        }
        Err(e) => format!("error {}", error_class(&KcmError::Machine(e.clone()))),
    };
    render(case.name, &head, &stats)
}

#[test]
fn corpus_runstats_match_the_golden_file() {
    let now: String = CORPUS.iter().map(run_case).collect();
    golden::assert_matches(GOLDEN_PATH, &now);
}
