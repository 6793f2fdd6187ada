//! Tier-1 differential tests: corpus replay, a small fixed-seed fuzz run,
//! and the shrinker acceptance test against an intentionally faulty
//! engine.

use kcm_difftest::corpus;
use kcm_difftest::gen::GProgram;
use kcm_difftest::oracle::{compare, standard_engines, Engine, KcmEngine, Verdict};
use kcm_difftest::shrink::shrink;
use kcm_system::{KcmError, Outcome, ProgramSource, QueryOpts};
use kcm_testkit::cases_seeded;

#[test]
fn corpus_replays_clean_on_all_engines() {
    let engines = standard_engines();
    let failures = corpus::replay(&engines);
    assert!(
        failures.is_empty(),
        "{} corpus case(s) failed:\n{}",
        failures.len(),
        failures
            .iter()
            .map(|(n, r)| format!("--- {n} ---\n{r}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn fixed_seed_fuzz_smoke() {
    // A slice of the big fuzz run small enough for debug-mode `cargo
    // test`; the `difftest` binary covers 10k cases in release.
    let engines = standard_engines();
    cases_seeded(0x6b63_6d64, 40, |rng| {
        let p = GProgram::generate(rng);
        match compare(&engines, &p.source(), &p.query_text(), true) {
            Verdict::Agree | Verdict::Skip(_) => {}
            Verdict::Diverge(d) => panic!("{}", d.render()),
        }
    });
}

#[test]
fn generated_programs_compile_on_the_reference_engine() {
    // The grammar promises well-formed programs: parse and compile errors
    // are generator bugs (runtime errors like instantiation are fine and
    // the oracle compares them by class).
    cases_seeded(0x6b63_6d65, 60, |rng| {
        let p = GProgram::generate(rng);
        let src = p.source();
        let clauses =
            kcm_prolog::read_program(&src).unwrap_or_else(|e| panic!("parse error: {e}\n{src}"));
        let mut symbols = kcm_arch::SymbolTable::new();
        kcm_compiler::compile_program(&clauses, &mut symbols)
            .unwrap_or_else(|e| panic!("compile error: {e:?}\n{src}"));
    });
}

/// A deliberately broken engine: it wraps the real KCM simulator but drops
/// the final solution whenever a query has two or more — the kind of
/// off-by-one a buggy trust-path `cut` would cause.
struct DropsLastSolution(KcmEngine);

impl Engine for DropsLastSolution {
    fn name(&self) -> String {
        "kcm(drops-last-solution)".to_owned()
    }

    fn run_case(
        &self,
        source: ProgramSource<'_>,
        query: &str,
        opts: &QueryOpts,
    ) -> Result<Outcome, KcmError> {
        let mut outcome = self.0.run_case(source, query, opts)?;
        if outcome.solutions.len() >= 2 {
            outcome.solutions.pop();
        }
        Ok(outcome)
    }
}

#[test]
fn shrinker_reduces_injected_fault_to_three_clauses_or_fewer() {
    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(KcmEngine::new()),
        Box::new(DropsLastSolution(KcmEngine::new())),
    ];
    // A deliberately bloated program: only the member-shape predicate
    // matters to the fault; everything else is shrinkable padding.
    let program = bloated_fixture();
    // Sanity: the faulty roster diverges on the fixture before shrinking.
    assert!(
        matches!(
            compare(&engines, &program.source(), &program.query_text(), true),
            Verdict::Diverge(_)
        ),
        "fixture must diverge under the faulty engine"
    );
    let (small, stats) = shrink(&engines, &program, true);
    assert!(
        stats.accepted > 0,
        "shrinker should make progress on the bloated fixture"
    );
    assert!(
        small.clauses.len() <= 3,
        "expected <= 3 clauses after shrinking, got {}:\n{}",
        small.clauses.len(),
        small.source()
    );
    // And the shrunken program still reproduces the divergence.
    assert!(matches!(
        compare(&engines, &small.source(), &small.query_text(), true),
        Verdict::Diverge(_)
    ));
}

/// The bloated fixture as a [`GProgram`] so the shrinker can chew on it:
/// p0 = member-shape (multi-solution, which triggers the fault), p1 =
/// padding facts, p2 = a padding rule over p1.
fn bloated_fixture() -> GProgram {
    use kcm_difftest::gen::{GClause, GGoal, GTerm};
    let cons = |h: GTerm, t: GTerm| GTerm::Cons(Box::new(h), Box::new(t));
    GProgram {
        clauses: vec![
            // p0([X|_], X).
            GClause {
                pred: 0,
                args: vec![cons(GTerm::Var(2), GTerm::Var(1)), GTerm::Var(2)],
                body: Vec::new(),
            },
            // p0([_|T], X) :- p0(T, X).
            GClause {
                pred: 0,
                args: vec![cons(GTerm::Var(0), GTerm::Var(1)), GTerm::Var(2)],
                body: vec![GGoal::Call(0, vec![GTerm::Var(1), GTerm::Var(2)])],
            },
            // p1(1). p1(2).
            GClause {
                pred: 1,
                args: vec![GTerm::Int(1)],
                body: Vec::new(),
            },
            GClause {
                pred: 1,
                args: vec![GTerm::Int(2)],
                body: Vec::new(),
            },
            // p2(f(A), A) :- p1(A).
            GClause {
                pred: 2,
                args: vec![GTerm::Struct(0, vec![GTerm::Var(0)]), GTerm::Var(0)],
                body: vec![GGoal::Call(1, vec![GTerm::Var(0)])],
            },
        ],
        // ?- p0([a,b,c], X), p2(Y, Z).
        query: vec![
            GGoal::Call(
                0,
                vec![
                    GTerm::list(vec![GTerm::Atom(0), GTerm::Atom(1), GTerm::Atom(2)]),
                    GTerm::Var(0),
                ],
            ),
            GGoal::Call(2, vec![GTerm::Var(1), GTerm::Var(2)]),
        ],
    }
}

/// Applies a fixed op sequence (two asserts, two retracts) to `kcm`
/// incrementally and returns the textually flattened equivalent source.
fn apply_updates(kcm: &mut kcm_system::Kcm, base: &str) -> String {
    kcm.assertz("f(k_fresh, v0)").expect("assert new key");
    kcm.assertz("f(k5, v_dup)").expect("assert duplicate key");
    assert!(kcm.retract("f(k7, v7)").expect("retract middle"));
    assert!(kcm.retract("f(k0, v0)").expect("retract first"));
    base.replace("f(k7, v7).\n", "").replace("f(k0, v0).\n", "")
        + "f(k_fresh, v0).\nf(k5, v_dup).\n"
}

#[test]
fn incremental_updates_agree_with_fresh_consult_on_every_engine() {
    // The differential form of the assert/retract oracle: flatten the
    // op sequence to source text, require the whole engine roster to
    // agree on the flattened program, and require the incremental Kcm
    // to produce the same solutions as a fresh consult of it — so the
    // in-place switch-table patching is checked against every engine,
    // not just against the reference simulator.
    let base: String = (0..200)
        .map(|i| format!("f(k{i}, v{}).\n", i % 13))
        .collect();
    let mut incremental = kcm_system::Kcm::new();
    incremental.load(&base).expect("consult base");
    let flattened = apply_updates(&mut incremental, &base);

    let mut fresh = kcm_system::Kcm::new();
    fresh.load(&flattened).expect("consult flattened");

    let engines = standard_engines();
    for query in [
        "f(K, V)",       // full enumeration: order must survive the patching
        "f(k5, V)",      // duplicate key: original then appended clause
        "f(k_fresh, V)", // key that exists only post-assert
        "f(k7, V)",      // retracted pair: first-level switch must miss
        "f(K, v0)",      // second-argument scan across the gap
    ] {
        match compare(&engines, &flattened, query, true) {
            Verdict::Agree => {}
            Verdict::Skip(why) => panic!("{query}: skipped: {why}"),
            Verdict::Diverge(d) => panic!("{query}: {}", d.render()),
        }
        let a = incremental.solve_all(query).expect("incremental query");
        let b = fresh.solve_all(query).expect("fresh query");
        let render = |answers: &[kcm_system::Answer]| -> Vec<String> {
            answers.iter().map(|s| format!("{s:?}")).collect()
        };
        assert_eq!(render(&a), render(&b), "{query}: incremental diverged");
    }

    // A rule cannot be patched in: asserting one relinks `f/2` from the
    // clause source the in-place updates above maintained, which must
    // rebuild the same predicate a fresh consult does.
    let rule = "f(K, V) :- K = k_rule, V = v_rule";
    incremental.assertz(rule).expect("assert rule");
    fresh.load(&format!("{rule}.")).expect("consult rule");
    let a = incremental.solve_all("f(K, V)").expect("incremental query");
    let b = fresh.solve_all("f(K, V)").expect("fresh query");
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "relink from the held source diverged"
    );
}

#[test]
fn incremental_equivalence_at_one_hundred_thousand_facts() {
    // The acceptance-scale equivalence run: 10^5 facts, the same fixed
    // op sequence, point lookups and value-group scans compared against
    // a full reconsult. Enumeration of all 10^5 answers is covered at
    // 200 facts above; here the point is that in-place patching of a
    // hash table this wide stays equivalent.
    const N: usize = 100_000;
    let base: String = (0..N).map(|i| format!("f(k{i}, v{}).\n", i % 97)).collect();
    let mut incremental = kcm_system::Kcm::new();
    incremental.load(&base).expect("consult base");
    let flattened = apply_updates(&mut incremental, &base);

    let mut fresh = kcm_system::Kcm::new();
    fresh.load(&flattened).expect("consult flattened");

    for query in [
        "f(k5, V)",
        "f(k_fresh, V)",
        "f(k7, V)",
        "f(k0, V)",
        "f(k99999, V)",
        "f(k50000, V)",
        "f(K, v_dup)",
    ] {
        let a = incremental.solve_all(query).expect("incremental query");
        let b = fresh.solve_all(query).expect("fresh query");
        let render = |answers: &[kcm_system::Answer]| -> Vec<String> {
            answers.iter().map(|s| format!("{s:?}")).collect()
        };
        assert_eq!(render(&a), render(&b), "{query}: incremental diverged");
    }
}
