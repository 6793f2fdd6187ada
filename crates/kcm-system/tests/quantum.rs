//! Pausing is host-only. A one-shot run or a cursor pull stepped one
//! instruction per quantum must report exactly what it reports in one
//! unbounded quantum: the same answers, output, every `RunStats` counter
//! (cycles and memory counters included), `Profile` and trace window,
//! and a step budget that trips at the same step. Budgets 1, 9 and 10,000 cover a
//! trip on the first instruction, a trip mid-clause and a run that either
//! ends or trips far into a loop; both tiers, one-shot runs (first
//! solution and enumerate-all) and cursor pulls.

use kcm_system::{Kcm, KcmError, MachineError, Outcome, Quantum, QueryOpts, RunStats, Tier};

const PROGRAM: &str = "
    app([], L, L).
    app([H|T], L, [H|R]) :- app(T, L, R).
    noisy(X) :- app(X, _, [a, b, c]), write(X), nl.
    loop :- loop.
";

/// An enumeration that writes output, a longer enumeration, and a loop
/// only the budget stops.
const QUERIES: &[&str] = &["noisy(X)", "app(X, Y, [1, 2, 3, 4, 5, 6, 7, 8])", "loop"];

const BUDGETS: &[u64] = &[1, 9, 10_000];

const TIERS: &[Tier] = &[Tier::Cycle, Tier::Native];

fn consulted() -> Kcm {
    let mut kcm = Kcm::new();
    kcm.load(PROGRAM).expect("consult");
    kcm
}

fn opts(tier: Tier, enumerate_all: bool, budget: u64) -> QueryOpts {
    QueryOpts {
        enumerate_all,
        tier,
        ..QueryOpts::default()
    }
    .with_step_budget(budget)
}

/// Trace depths: none, and a window (the trace push the instruction
/// loop makes only when tracing).
const TRACES: &[usize] = &[0, 8];

/// The budget trip's step count, if `result` is one.
fn trip<T>(result: &Result<T, KcmError>) -> Option<u64> {
    match result {
        Err(KcmError::Machine(MachineError::BudgetExhausted { steps })) => Some(*steps),
        _ => None,
    }
}

/// A one-shot run in one unbounded quantum, or in quanta of `quantum`.
fn one_shot(
    kcm: &Kcm,
    query: &str,
    opts: &QueryOpts,
    quantum: Option<u64>,
) -> Result<Outcome, KcmError> {
    let Some(q) = quantum else {
        return kcm.query(query, opts);
    };
    let mut prepared = kcm.prepare(query, opts)?;
    prepared.begin_run(opts.enumerate_all)?;
    loop {
        if let Quantum::Done(outcome) = prepared.run_quantum(q)? {
            return Ok(outcome);
        }
    }
}

/// What one pull reported: its answer (rendered) or exhaustion, its
/// counters and its output.
type Pull = (Option<String>, RunStats, String);

/// Every pull of a cursor until exhaustion or an error, in one unbounded
/// quantum each, or in quanta of `quantum`; then the session's totals.
fn pulls(
    kcm: &Kcm,
    query: &str,
    opts: &QueryOpts,
    quantum: Option<u64>,
) -> (Vec<Result<Pull, KcmError>>, RunStats) {
    let mut session = kcm.solutions(query, opts).expect("open");
    let mut out = Vec::new();
    loop {
        let step = match quantum {
            None => session.next_step(),
            Some(q) => loop {
                match session.next_step_quantum(q) {
                    Ok(Quantum::Paused) => {}
                    Ok(Quantum::Done(step)) => break Ok(step),
                    Err(e) => break Err(e),
                }
            },
        };
        match step {
            Ok(Some(step)) => out.push(Ok((
                Some(format!("{:?}", step.solution)),
                step.stats,
                step.output,
            ))),
            Ok(None) => break,
            Err(e) => {
                out.push(Err(e));
                break;
            }
        }
    }
    (out, *session.totals())
}

#[test]
fn one_shot_runs_report_and_trip_the_same_under_quantum_1() {
    let kcm = consulted();
    let mut trips = 0;
    for (&tier, &trace) in TIERS
        .iter()
        .flat_map(|t| TRACES.iter().map(move |d| (t, d)))
    {
        for enumerate_all in [false, true] {
            for &query in QUERIES {
                for &budget in BUDGETS {
                    let opts = opts(tier, enumerate_all, budget).with_trace(trace);
                    let case = format!(
                        "{tier:?} trace={trace} {query} all={enumerate_all} budget={budget}"
                    );
                    let whole = one_shot(&kcm, query, &opts, None);
                    let stepped = one_shot(&kcm, query, &opts, Some(1));
                    match (&whole, &stepped) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a.success, b.success, "{case}");
                            assert_eq!(format!("{:?}", a.solutions), format!("{:?}", b.solutions));
                            assert_eq!(a.output, b.output, "{case}");
                            assert_eq!(a.stats, b.stats, "{case}");
                            assert_eq!(a.profile, b.profile, "{case}");
                            assert_eq!(a.trace, b.trace, "{case}");
                            assert_eq!(a.trace.len(), trace.min(a.stats.instructions as usize));
                        }
                        _ => {
                            let steps = trip(&whole).unwrap_or_else(|| panic!("{case}: {whole:?}"));
                            assert_eq!(trip(&stepped), Some(steps), "{case}: {stepped:?}");
                            if budget < 10_000 {
                                assert_eq!(steps, budget + 1, "{case}");
                            }
                            trips += 1;
                        }
                    }
                }
            }
        }
    }
    // Every query trips budgets 1 and 9; only the loop trips 10,000.
    assert_eq!(
        trips,
        TIERS.len() * TRACES.len() * 2 * (QUERIES.len() * 2 + 1)
    );
}

#[test]
fn cursor_pulls_report_and_trip_the_same_under_quantum_1() {
    let kcm = consulted();
    let mut trips = 0;
    for &tier in TIERS {
        for &query in QUERIES {
            for &budget in BUDGETS {
                let opts = opts(tier, true, budget);
                let case = format!("{tier:?} {query} budget={budget}");
                let (whole, whole_totals) = pulls(&kcm, query, &opts, None);
                let (stepped, stepped_totals) = pulls(&kcm, query, &opts, Some(1));
                assert_eq!(whole.len(), stepped.len(), "{case}");
                for (a, b) in whole.iter().zip(&stepped) {
                    match (a, b) {
                        (Ok(a), Ok(b)) => assert_eq!(a, b, "{case}"),
                        _ => {
                            let steps = trip(a).unwrap_or_else(|| panic!("{case}: {a:?}"));
                            assert_eq!(trip(b), Some(steps), "{case}: {b:?}");
                            trips += 1;
                        }
                    }
                }
                assert_eq!(whole_totals, stepped_totals, "{case}");
            }
        }
    }
    // The budget is per pull: the enumerations' pulls fit in 10,000
    // steps, so only the loop trips it.
    assert_eq!(trips, TIERS.len() * (QUERIES.len() * 2 + 1));
}
