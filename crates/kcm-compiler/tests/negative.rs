//! Table-driven negative-path tests: every rejected program must fail
//! with the *exact* [`CompileError`] variant, so error reporting stays
//! stable as the compiler grows.

use kcm_compiler::{compile_program, compile_query, CompileError};

fn compile(src: &str) -> Result<(), CompileError> {
    let clauses = kcm_prolog::read_program(src).expect("test sources must parse");
    let mut symbols = kcm_arch::SymbolTable::new();
    compile_program(&clauses, &mut symbols).map(|_| ())
}

/// Expected error shapes, comparable without string-matching messages.
#[derive(Debug, PartialEq)]
enum Expected {
    BadClauseHead,
    UnsupportedDirective,
    ArityTooLarge { pred: &'static str, arity: usize },
    TooManyPermanents { pred: &'static str },
    DynamicCodeUnsupported,
}

fn classify(e: &CompileError) -> Option<Expected> {
    Some(match e {
        CompileError::BadClauseHead(_) => Expected::BadClauseHead,
        CompileError::UnsupportedDirective(_) => Expected::UnsupportedDirective,
        CompileError::ArityTooLarge { pred, arity } => Expected::ArityTooLarge {
            pred: match pred.as_str() {
                "p" => "p",
                "q" => "q",
                _ => return None,
            },
            arity: *arity,
        },
        CompileError::TooManyPermanents { pred } => Expected::TooManyPermanents {
            pred: match pred.as_str() {
                "p" => "p",
                _ => return None,
            },
        },
        _ => return None,
    })
}

#[test]
fn rejected_programs_report_exact_variants() {
    let arity17_head = format!(
        "p({}).",
        (1..=17)
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let arity17_call = format!(
        "p :- q({}).",
        (1..=17)
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let vars300 = (0..300)
        .map(|i| format!("W{i}"))
        .collect::<Vec<_>>()
        .join(",");
    let perms300 = format!("p :- q(f({vars300})), r(f({vars300})).");

    let table: Vec<(&str, String, Expected)> = vec![
        (
            "integer clause head",
            "42.".to_owned(),
            Expected::BadClauseHead,
        ),
        (
            "integer body goal",
            "p :- 42.".to_owned(),
            Expected::BadClauseHead,
        ),
        (
            "float body goal",
            "p :- 1.5.".to_owned(),
            Expected::BadClauseHead,
        ),
        (
            "control functor as head",
            "!.".to_owned(),
            Expected::BadClauseHead,
        ),
        ("nil as head", "[].".to_owned(), Expected::BadClauseHead),
        (
            "arrow as head",
            "(a -> b).".to_owned(),
            Expected::BadClauseHead,
        ),
        (
            "directive",
            ":- foo.".to_owned(),
            Expected::UnsupportedDirective,
        ),
        (
            "query directive",
            "?- foo.".to_owned(),
            Expected::UnsupportedDirective,
        ),
        (
            "head arity beyond A1..A16",
            arity17_head,
            Expected::ArityTooLarge {
                pred: "p",
                arity: 17,
            },
        ),
        (
            // The error names the clause being compiled, not the callee.
            "call arity beyond A1..A16",
            arity17_call,
            Expected::ArityTooLarge {
                pred: "p",
                arity: 17,
            },
        ),
        (
            "too many permanent variables",
            perms300,
            Expected::TooManyPermanents { pred: "p" },
        ),
        (
            "defining assert",
            "assert(x) :- true.".to_owned(),
            Expected::DynamicCodeUnsupported,
        ),
        (
            "defining retract",
            "retract(x).".to_owned(),
            Expected::DynamicCodeUnsupported,
        ),
    ];

    for (what, src, expected) in table {
        let err = compile(&src).expect_err(&format!("{what}: expected a compile error\n{src}"));
        let got = match &err {
            CompileError::DynamicCodeUnsupported(_) => Expected::DynamicCodeUnsupported,
            other => {
                classify(other).unwrap_or_else(|| panic!("{what}: unexpected error {other:?}"))
            }
        };
        assert_eq!(got, expected, "{what}: got {err:?}");
    }
}

#[test]
fn query_with_too_many_variables_is_rejected() {
    let clauses = kcm_prolog::read_program("p(1).").unwrap();
    let mut symbols = kcm_arch::SymbolTable::new();
    let image = compile_program(&clauses, &mut symbols).unwrap();
    let vars = (0..17)
        .map(|i| format!("Q{i}"))
        .collect::<Vec<_>>()
        .join(",");
    let goal = kcm_prolog::read_term(&format!("p(1), f({vars}) = f({vars})")).unwrap();
    let err = compile_query(&std::sync::Arc::new(image), &goal, &mut symbols).unwrap_err();
    assert_eq!(err, CompileError::TooManyQueryVars(17));
}

#[test]
fn empty_directive_does_not_define_a_neck_predicate() {
    // `:- .` parses as the atom `:-`; it must be rejected as a head, not
    // silently define a predicate named `:-`.
    let err = compile(":- .").unwrap_err();
    assert!(matches!(err, CompileError::BadClauseHead(_)), "{err:?}");
}

#[test]
fn bad_arithmetic_is_a_runtime_error_not_a_compile_error() {
    // Non-native arithmetic (unknown evaluable functors, atoms) must
    // *compile* — it falls back to the `is/2` escape and faults at run
    // time with a type error, identically across engines.
    compile("p(R) :- R is foo(1).").expect("escape arithmetic compiles");
    compile("p(R) :- R is bar.").expect("atom RHS compiles");
    let mut kcm = kcm_system::Kcm::new();
    kcm.load("p(R) :- R is foo(1).").unwrap();
    let err = kcm
        .query("p(R)", &kcm_system::QueryOpts::all())
        .unwrap_err();
    assert!(
        matches!(
            &err,
            kcm_system::KcmError::Machine(kcm_cpu::MachineError::TypeFault(_))
        ),
        "{err:?}"
    );
}

#[test]
fn unlinkable_calls_warn_and_fail_cleanly() {
    // Calls to predicates that exist nowhere are linked to a fail stub:
    // consult succeeds, a warning names the call site, and the query
    // fails rather than faulting.
    let mut kcm = kcm_system::Kcm::new();
    kcm.load("p :- missing_helper(1, 2).").unwrap();
    let warnings = kcm.warnings();
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(
        warnings[0].contains("missing_helper/2") && warnings[0].contains("p/0"),
        "{warnings:?}"
    );
    let outcome = kcm.query("p", &kcm_system::QueryOpts::all()).unwrap();
    assert!(!outcome.success);
    assert!(outcome.solutions.is_empty());
}
