//! Suspendable sessions: the cursor path must agree with the
//! materializing `all()` path byte-for-byte — same solutions, same order,
//! same output, same `RunStats` — on both tiers. These are the
//! fast deterministic checks; the difftest enumeration oracle fuzzes the
//! same property across generated programs.

use kcm_system::{Kcm, KcmError, MachineError, QueryOpts, Tier};

const FAMILY: &str = "
    parent(tom, bob).
    parent(tom, liz).
    parent(bob, ann).
    parent(bob, pat).
    parent(pat, jim).
    anc(X, Y) :- parent(X, Y).
    anc(X, Z) :- parent(X, Y), anc(Y, Z).
";

fn consulted(src: &str) -> Kcm {
    let mut kcm = Kcm::new();
    kcm.load(src).expect("consult");
    kcm
}

fn render(solution: &[(String, kcm_prolog::Term)]) -> String {
    solution
        .iter()
        .map(|(n, t)| format!("{n}={t}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn assert_session_matches_all(src: &str, query: &str, tier: Tier) {
    let kcm = consulted(src);
    let opts = QueryOpts {
        tier,
        ..QueryOpts::all()
    };
    let oracle = kcm.query(query, &opts).expect("all() run");

    let mut session = kcm.solutions(query, &opts).expect("open session");
    let mut streamed = Vec::new();
    while let Some(step) = session.next_step().expect("next_step") {
        streamed.push(step.solution);
    }
    assert!(session.exhausted());
    // The exhaustion slice's work (the final failing search) is part of
    // the totals even though it produced no solution. Every counter must
    // match, cycles and the memory and prefetch counters included.
    assert_eq!(*session.totals(), oracle.stats);
    assert_eq!(session.output(), oracle.output);
    assert_eq!(streamed.len(), oracle.solutions.len());
    for (got, want) in streamed.iter().zip(oracle.solutions.iter()) {
        assert_eq!(render(got), render(want));
    }
    assert_eq!(session.pulled(), oracle.solutions.len() as u64);
    // Pulling past exhaustion is a clean no-op.
    assert!(session.next_step().expect("post-exhaustion pull").is_none());
}

#[test]
fn session_matches_all_cycle_tier() {
    assert_session_matches_all(FAMILY, "anc(tom, D)", Tier::Cycle);
}

#[test]
fn session_matches_all_native_tier() {
    assert_session_matches_all(FAMILY, "anc(tom, D)", Tier::Native);
}

#[test]
fn session_with_output_matches_all_both_tiers() {
    // write/1 during the search: slice output must concatenate to the
    // one-shot run's output, including output after the last solution.
    let src = "
        n(1). n(2). n(3).
        p(X) :- n(X), write(X), nl.
    ";
    assert_session_matches_all(src, "p(X)", Tier::Cycle);
    assert_session_matches_all(src, "p(X)", Tier::Native);
}

#[test]
fn session_no_solutions() {
    let kcm = consulted(FAMILY);
    let mut session = kcm
        .solutions("anc(jim, D)", &QueryOpts::all())
        .expect("open session");
    assert!(session.next_step().expect("first pull").is_none());
    assert!(session.exhausted());
    assert_eq!(session.pulled(), 0);
}

#[test]
fn session_iterator_streams_in_order() {
    let kcm = consulted("d(0). d(1). d(2). d(3).");
    let opts = QueryOpts {
        tier: Tier::Native,
        ..QueryOpts::all()
    };
    let got: Vec<String> = kcm
        .solutions("d(X)", &opts)
        .expect("open session")
        .map(|s| render(&s.expect("solution")))
        .collect();
    assert_eq!(got, ["X=0", "X=1", "X=2", "X=3"]);
}

#[test]
fn session_early_stop_is_bounded() {
    // A 10^4-solution generator: pull three answers and drop the session.
    // Nothing is materialized, so this must be quick and the first pulls
    // must not depend on the enumeration's total size.
    let kcm = consulted("d(0). d(1). d(2). d(3). d(4). d(5). d(6). d(7). d(8). d(9).");
    let opts = QueryOpts {
        tier: Tier::Native,
        ..QueryOpts::all()
    };
    let mut session = kcm
        .solutions("d(A), d(B), d(C), d(D)", &opts)
        .expect("open session");
    for want in ["A=0,B=0,C=0,D=0", "A=0,B=0,C=0,D=1", "A=0,B=0,C=0,D=2"] {
        let step = session.next_step().expect("pull").expect("solution");
        assert_eq!(render(&step.solution), want);
    }
    assert!(!session.exhausted());
}

#[test]
fn a_session_whose_output_is_taken_holds_one_batch_of_it() {
    // A 10^4-answer generator writing one 5-byte line per answer, pulled
    // in batches of 100 with the output taken after each: the session
    // never holds more than one batch's output, and the taken output
    // concatenates to the one-shot run's.
    const BATCH: usize = 100;
    const LINE: usize = "0123\n".len();
    let kcm = consulted(
        "d(0). d(1). d(2). d(3). d(4). d(5). d(6). d(7). d(8). d(9).
         w :- d(A), d(B), d(C), d(D), write(A), write(B), write(C), write(D), nl.",
    );
    let opts = QueryOpts {
        tier: Tier::Native,
        ..QueryOpts::all()
    };
    let oracle = kcm.query("w", &opts).expect("all() run");
    let mut session = kcm.solutions("w", &opts).expect("open session");
    let (mut answers, mut taken) = (0, String::new());
    while !session.exhausted() {
        for _ in 0..BATCH {
            if session.next_step().expect("pull").is_none() {
                break;
            }
            answers += 1;
        }
        let held = session.output().len();
        assert!(held <= BATCH * LINE, "{held} bytes held after a batch");
        taken.push_str(&session.take_output());
        assert_eq!(session.output(), "");
    }
    assert_eq!(answers, 10_000);
    assert_eq!(taken.len(), 10_000 * LINE);
    assert_eq!(taken, oracle.output);
}

#[test]
fn session_budget_slice_kills_cleanly() {
    // An infinite search after the first solution: a per-slice step
    // budget must kill the second pull, and the session must be cleanly
    // dead afterwards (no resume, no panic).
    let src = "
        loop :- loop.
        p(1).
        p(X) :- loop, p(X).
    ";
    let kcm = consulted(src);
    let opts = QueryOpts {
        tier: Tier::Native,
        step_budget: Some(10_000),
        ..QueryOpts::all()
    };
    let mut session = kcm.solutions("p(X)", &opts).expect("open session");
    let first = session.next_step().expect("first pull").expect("solution");
    assert_eq!(render(&first.solution), "X=1");
    match session.next_step() {
        Err(KcmError::Machine(MachineError::BudgetExhausted { .. })) => {}
        other => panic!("expected budget exhaustion, got {other:?}"),
    }
    assert!(session.exhausted());
    assert!(session.next_step().expect("dead session pull").is_none());
}

#[test]
fn session_budget_is_per_slice_not_total() {
    // Each pull gets a fresh step-budget window: a budget too small for
    // the whole enumeration but big enough for any single inter-solution
    // gap must stream every answer.
    let kcm = consulted("d(0). d(1). d(2). d(3). d(4). d(5). d(6). d(7). d(8). d(9).");
    let all = kcm
        .query("d(A), d(B)", &QueryOpts::all())
        .expect("oracle")
        .stats
        .instructions;
    let opts = QueryOpts {
        tier: Tier::Native,
        // Far below the whole run, comfortably above one slice.
        step_budget: Some(all / 10),
        ..QueryOpts::all()
    };
    let count = kcm
        .solutions("d(A), d(B)", &opts)
        .expect("open session")
        .inspect(|s| assert!(s.is_ok(), "solution: {s:?}"))
        .count();
    assert_eq!(count, 100);
}
