//! Differential tests: the KCM machine, the PLM model and the
//! Quintus-class software WAM must compute identical answers on the whole
//! PLM suite and on targeted programs — the machine models may differ in
//! cycles, never in semantics. Configuration ablations (shallow
//! backtracking off, unsectioned cache, aligned stack bases, static
//! literals off) must be observationally equivalent too.

use kcm_repro::kcm_mem::MemConfig;
use kcm_repro::kcm_suite::programs;
use kcm_repro::kcm_suite::runner::{run_program, Variant};
use kcm_repro::kcm_system::{Kcm, KcmEngine, MachineConfig, Outcome, QueryOpts};
use kcm_repro::wam_baseline::BaselineModel;

fn solutions_text(o: &Outcome) -> Vec<String> {
    o.solutions
        .iter()
        .map(|s| {
            s.iter()
                .map(|(n, t)| format!("{n}={t}"))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

#[test]
fn suite_answers_agree_across_machines() {
    for p in programs::suite() {
        let opts = QueryOpts {
            enumerate_all: p.enumerate,
            ..QueryOpts::default()
        };
        let kcm = run_program(&KcmEngine::new(), &p, Variant::Timed)
            .unwrap_or_else(|e| panic!("{}: kcm: {e}", p.name));
        let plm = plm::model()
            .run(p.source, p.query, &opts)
            .unwrap_or_else(|e| panic!("{}: plm: {e}", p.name));
        let swam = swam::model()
            .run(p.source, p.query, &opts)
            .unwrap_or_else(|e| panic!("{}: swam: {e}", p.name));
        assert_eq!(kcm.outcome.success, plm.success, "{}", p.name);
        assert_eq!(kcm.outcome.success, swam.success, "{}", p.name);
        assert_eq!(kcm.outcome.output, plm.output, "{}", p.name);
        assert_eq!(kcm.outcome.output, swam.output, "{}", p.name);
        // Inference counts agree too: the abstract execution is identical.
        assert_eq!(
            kcm.outcome.stats.inferences, plm.stats.inferences,
            "{}: inference counts differ",
            p.name
        );
    }
}

#[test]
fn enumeration_order_agrees_across_machines() {
    let src = "
        edge(a, b). edge(b, c). edge(a, d). edge(d, c).
        path(X, X, [X]).
        path(X, Z, [X|P]) :- edge(X, Y), path(Y, Z, P).
    ";
    let q = "path(a, c, P)";
    let model = BaselineModel::standard_wam("ref", 100.0);
    let base = model.run(src, q, &QueryOpts::all()).expect("baseline");
    let mut kcm = Kcm::new();
    kcm.load(src).expect("consult");
    let k = kcm.query(q, &QueryOpts::all()).expect("kcm");
    assert_eq!(solutions_text(&k), solutions_text(&base));
    assert_eq!(solutions_text(&k), ["P=[a,b,c]", "P=[a,d,c]"]);
}

fn run_with(cfg: MachineConfig, src: &str, q: &str) -> Vec<String> {
    let mut kcm = Kcm::with_config(cfg);
    kcm.load(src).expect("consult");
    solutions_text(&kcm.query(q, &QueryOpts::all()).expect("run"))
}

#[test]
fn machine_ablations_preserve_semantics() {
    let src = "
        qsort([], []).
        qsort([X|L], R) :- part(L, X, A, B), qsort(A, SA), qsort(B, SB),
                           app(SA, [X|SB], R).
        part([], _, [], []).
        part([X|L], Y, [X|A], B) :- X =< Y, !, part(L, Y, A, B).
        part([X|L], Y, A, [X|B]) :- part(L, Y, A, B).
        app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).
    ";
    let q = "qsort([3,1,4,1,5,9,2,6], S)";
    let reference = run_with(MachineConfig::default(), src, q);
    assert_eq!(reference, ["S=[1,1,2,3,4,5,6,9]"]);

    // Shallow backtracking off.
    let eager = run_with(
        MachineConfig {
            shallow_backtracking: false,
            ..Default::default()
        },
        src,
        q,
    );
    assert_eq!(reference, eager);

    // Unsectioned cache, aligned stack bases (the §3.2.4 bad case).
    let aligned = run_with(
        MachineConfig {
            mem: MemConfig {
                sectioned_data_cache: false,
            },
            spread_stack_bases: false,
            ..Default::default()
        },
        src,
        q,
    );
    assert_eq!(reference, aligned);
}

#[test]
fn compiler_options_preserve_semantics() {
    let src = "
        fib(0, 0). fib(1, 1).
        fib(N, F) :- N > 1, A is N - 1, B is N - 2,
                     fib(A, FA), fib(B, FB), F is FA + FB.
    ";
    let q = "fib(14, F)";
    let mut kcm = Kcm::new();
    kcm.load(src).expect("consult");
    let native = solutions_text(&kcm.query(q, &QueryOpts::all()).expect("run"));
    assert_eq!(native, ["F=377"]);
    // Escape-based arithmetic, eager choice points, in-code literals.
    let standard = BaselineModel::standard_wam("std", 80.0);
    let escaped = standard.run(src, q, &QueryOpts::all()).expect("baseline");
    assert_eq!(native, solutions_text(&escaped));
}

#[test]
fn shallow_backtracking_only_changes_costs() {
    // A head-failing workload where shallow backtracking avoids every
    // choice point the standard WAM creates.
    let src = "
        classify(0, zero).
        classify(N, pos) :- N > 0.
        classify(N, neg) :- N < 0.
        run([]).
        run([X|T]) :- classify(X, _), run(T).
    ";
    let q = "run([1, -1, 0, 5, -5, 7, 0, -2])";
    let fast = {
        let mut k = Kcm::new();
        k.load(src).expect("consult");
        k.query(q, &QueryOpts::first()).expect("run")
    };
    let slow = {
        let mut k = Kcm::with_config(MachineConfig {
            shallow_backtracking: false,
            ..Default::default()
        });
        k.load(src).expect("consult");
        k.query(q, &QueryOpts::first()).expect("run")
    };
    assert!(fast.success && slow.success);
    assert!(
        fast.stats.choice_points < slow.stats.choice_points,
        "shallow {} vs eager {}",
        fast.stats.choice_points,
        slow.stats.choice_points
    );
    assert!(fast.stats.cycles < slow.stats.cycles);
}

#[test]
fn whole_suite_is_ablation_stable() {
    use kcm_repro::kcm_suite::programs;
    use kcm_repro::kcm_suite::runner::{run_program, Variant};
    // The entire PLM suite must produce identical output and solutions
    // with shallow backtracking disabled and with the plain aligned cache.
    for p in programs::suite() {
        let reference = run_program(&KcmEngine::new(), &p, Variant::Timed)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        for cfg in [
            MachineConfig {
                shallow_backtracking: false,
                ..Default::default()
            },
            MachineConfig {
                mem: MemConfig {
                    sectioned_data_cache: false,
                },
                spread_stack_bases: false,
                ..Default::default()
            },
        ] {
            let variant = run_program(&KcmEngine::with_config(cfg), &p, Variant::Timed)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert_eq!(
                reference.outcome.output, variant.outcome.output,
                "{}",
                p.name
            );
            assert_eq!(
                solutions_text(&reference.outcome),
                solutions_text(&variant.outcome),
                "{}",
                p.name
            );
            assert_eq!(
                reference.outcome.stats.inferences, variant.outcome.stats.inferences,
                "{}",
                p.name
            );
        }
    }
}
