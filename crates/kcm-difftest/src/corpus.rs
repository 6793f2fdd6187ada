//! The checked-in regression corpus.
//!
//! Every case here is replayed against the full engine roster by `cargo
//! test` (and by the `difftest` binary before fuzzing). Cases come from
//! two sources: hand-written programs pinning each grammar axis, and
//! shrunken fuzzer counterexamples promoted after an engine fix — those
//! carry their original seed in the name so the fuzz run that found them
//! can be replayed.

use crate::oracle::{compare, Engine, Verdict};

/// One corpus case: a program, a query, and the enumeration mode.
#[derive(Debug, Clone, Copy)]
pub struct CorpusCase {
    /// Stable name, reported on failure. Shrunken fuzzer finds are named
    /// `seed_<hex>`.
    pub name: &'static str,
    /// Program source text.
    pub source: &'static str,
    /// Query text (no `?-`, no trailing dot).
    pub query: &'static str,
    /// Whether to enumerate all solutions (`false` = first solution only).
    pub enumerate: bool,
}

/// The full regression corpus.
pub const CORPUS: &[CorpusCase] = &[
    // -- hand-written grammar-axis cases ---------------------------------
    CorpusCase {
        name: "facts_enumeration_order",
        source: "p(1). p(a). p([2,b]). p(f(3)). p(X).\n",
        query: "p(X)",
        enumerate: true,
    },
    CorpusCase {
        name: "first_solution_only",
        source: "p(1). p(2). p(3).\n",
        query: "p(X)",
        enumerate: false,
    },
    CorpusCase {
        name: "member_backtracking",
        source: "m([X|_], X). m([_|T], X) :- m(T, X).\n",
        query: "m([a,b,c,b], X)",
        enumerate: true,
    },
    CorpusCase {
        name: "append_backward_split",
        source: "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).\n",
        query: "app(X, Y, [1,2,3])",
        enumerate: true,
    },
    CorpusCase {
        name: "deep_unification_shared_unbound",
        source: "p(f(X, g(Y, X), [Y|Z])).\n",
        query: "p(W)",
        enumerate: true,
    },
    CorpusCase {
        name: "arith_inline_vs_escape",
        source: "s(A, B, R) :- R is ((A * B) - (A // B)) mod 7.\n",
        query: "s(17, (-3), R)",
        enumerate: true,
    },
    CorpusCase {
        name: "arith_wraparound_extremes",
        source: "w(R) :- R is 2147483647 + 1.\nv(R) :- M is (0 - 2147483647) - 1, R is M * (-1).\n",
        query: "w(A), v(B)",
        enumerate: true,
    },
    CorpusCase {
        name: "zero_divisor_error_class",
        source: "d(X) :- X is 1 // 0.\n",
        query: "d(X)",
        enumerate: true,
    },
    CorpusCase {
        name: "instantiation_error_class",
        source: "i(X, Y) :- Y is X + 1.\n",
        query: "i(_, Y)",
        enumerate: true,
    },
    CorpusCase {
        name: "cut_commits_to_first_clause",
        source: "c(X) :- p(X), !.\nc(99).\np(1). p(2).\n",
        query: "c(X)",
        enumerate: true,
    },
    CorpusCase {
        name: "negation_as_failure",
        source: "p(1). p(2).\nn(X) :- p(X), \\+ q(X).\nq(1).\n",
        query: "n(X)",
        enumerate: true,
    },
    CorpusCase {
        name: "disjunction_order",
        source: "d(X) :- (X = a ; X = b).\n",
        query: "d(X)",
        enumerate: true,
    },
    CorpusCase {
        name: "if_then_else_no_else_backtrack",
        source: "p(1). p(2).\nt(X, Y) :- (p(X) -> Y = hit ; Y = miss).\n",
        query: "t(X, Y)",
        enumerate: true,
    },
    CorpusCase {
        name: "write_side_effect_order",
        source: "p(1). p(2). p(3).\nw :- p(X), write(X), X >= 2.\n",
        query: "w",
        enumerate: true,
    },
    CorpusCase {
        name: "indexing_mixed_first_args",
        source: "k(1, int). k(a, atom). k([], nil). k([_|_], list). k(f(_), struct). k(_, var).\n",
        query: "k([9], T)",
        enumerate: true,
    },
    CorpusCase {
        name: "countdown_structure_build",
        source: "c(0, done). c(N, s(R)) :- N > 0, M is N - 1, c(M, R).\n",
        query: "c(4, R)",
        enumerate: true,
    },
    CorpusCase {
        name: "comparison_operators",
        source: "r(A, B, le) :- A =< B. r(A, B, gt) :- A > B.\nq(X) :- r(2, 2, X) ; r(5, (-1), X) ; 3 =:= 3, X = eq.\n",
        query: "q(X)",
        enumerate: true,
    },
    CorpusCase {
        name: "sum_accumulator",
        source: "sum([], A, A). sum([H|T], A, R) :- A2 is A + H, sum(T, A2, R).\n",
        query: "sum([5,(-3),11,0], 0, R)",
        enumerate: true,
    },
    // The two program shapes incremental updates produce: an assertz
    // appends a duplicate-key clause *after* every original clause of a
    // wide (hash-switched) fact predicate, and a retract leaves a gap in
    // the middle of the first-key order. Every engine must enumerate the
    // flattened forms in the same clause order the incremental machinery
    // preserves, or incremental-vs-reconsult equivalence is meaningless.
    CorpusCase {
        name: "incremental_shape_appended_duplicate_key",
        source: "f(k0, a). f(k1, b). f(k2, c). f(k3, d). f(k4, e).\n\
                 f(k5, g). f(k6, h). f(k7, i). f(k8, j). f(k9, l).\n\
                 f(k3, appended_dup). f(k_new, appended_new).\n",
        query: "f(k3, V)",
        enumerate: true,
    },
    CorpusCase {
        name: "incremental_shape_retracted_gap",
        source: "f(k0, a). f(k1, b). f(k3, d). f(k4, e).\n\
                 f(k5, g). f(k7, i). f(k8, j). f(k9, l).\n\
                 probe(X, Y) :- f(X, Y).\n",
        query: "probe(K, V)",
        enumerate: true,
    },
    // -- shrunken fuzzer counterexamples ---------------------------------
    // Inline arithmetic compiled `X is Y` (bare-variable RHS) to a plain
    // unification, silently succeeding where the escape evaluator raises
    // an instantiation error. Found by the first 10k fuzz run; fixed by
    // emitting a checking ALU identity after the expression load.
    CorpusCase {
        name: "seed_fdeb26da3263c5e7",
        source: "p1([],a,a) :- X6 is X1.\n",
        query: "p1(X4,X5,X6)",
        enumerate: true,
    },
    // Companion to the case above: the bound-to-non-number flavour must be
    // a type fault, not a successful unification, under inline arithmetic.
    CorpusCase {
        name: "is_with_atom_bound_var",
        source: "t(R) :- X = a, R is X.\n",
        query: "t(R)",
        enumerate: true,
    },
    // Inline comparison checked both operands jointly, ranking an unbound
    // *right* operand (instantiation) above a non-numeric *left* one
    // (type) — the escape evaluator faults on the left operand first.
    // Found by the second 10k fuzz run; fixed by checking operands
    // left-first in the machine's generic ALU/compare fault paths.
    CorpusCase {
        name: "seed_54fdb19160095c8e",
        source: "p1(X1) :- X1 =< X3.\np4(X2,a) :- p1(a).\n",
        query: "p4(X4,X5)",
        enumerate: true,
    },
    // Companion: the same left-first priority through the native ALU
    // (`is/2` on a non-number left and unbound right operand).
    CorpusCase {
        name: "alu_fault_priority_left_first",
        source: "t(R) :- X = a, R is X + Y.\n",
        query: "t(R)",
        enumerate: true,
    },
    // Inline comparison evaluated the compound *right* operand's ALU ops
    // before anything checked the bare-variable left operand, faulting
    // type (on the atom inside the right expression) where the escape
    // evaluator faults instantiation (on the unbound left). Found by the
    // fourth 10k fuzz run; fixed by a checking identity on the left
    // operand whenever the right one emits its own ALU instructions.
    CorpusCase {
        name: "seed_33e02b3781930940",
        source: "p1(X4,X2,X3) :- X5 < (X4 * 0).\n",
        query: "p1(a,X4,X5)",
        enumerate: true,
    },
    // Companion: the same left-to-right fault order one level deeper, in
    // a nested `is/2` expression rather than a comparison.
    CorpusCase {
        name: "nested_expr_fault_order_left_first",
        source: "t(R) :- X = a, R is Y + (X * 0).\n",
        query: "t(R)",
        enumerate: true,
    },
    // Write-mode `unify_local_value` on an argument register globalized
    // the caller's local cell and wrote the fresh heap address back into
    // the register — but the deferred choice point (§3.1.5) snapshots
    // argument registers at `neck`, *after* head unification, so the
    // saved register dangled into heap that deep backtracking truncates
    // and the second clause bound a dead cell instead of the query
    // variable. Found by the fifth 10k fuzz run; fixed by keeping
    // argument registers pristine while a shallow alternative is armed.
    CorpusCase {
        name: "seed_3810e00f4f08fb73",
        source: "p3(X4,X1,[X3|X4]).\np3(a,[],[]).\n",
        query: "p3(X4,X5,X6)",
        enumerate: true,
    },
    // Occurs-check-free unification builds a rational tree; writing it
    // must fault with the term-depth error class, not overflow the host
    // stack. Found by the sixth 10k fuzz run (seed 0x2274dcee53349a61
    // crashed the process outright); fixed by sizing the decode depth
    // budget to the smallest thread stack the machine runs on.
    CorpusCase {
        name: "cyclic_term_write_faults",
        source: "c(X) :- X = [X|X], write(X).\n",
        query: "c(X)",
        enumerate: true,
    },
    // Oracle regression (no engine was wrong): each clause writes its own
    // fresh unbound variable, one backtrack apart. KCM reuses the heap
    // address, the standard-WAM layouts do not — variable *identity*
    // across separate writes is not an observable, so the output
    // normalizer must erase it rather than compare it.
    CorpusCase {
        name: "seed_ef6b9101b0ce3e7d",
        source: "p3(X4,X1,X2) :- write(X0).\np3(a,[],g(0,0)) :- write(X0).\n",
        query: "p3(X4,X5,X6)",
        enumerate: true,
    },
    // Float constants are switch keys *bitwise*: -0.0 and 0.0 are
    // distinct table entries (== would merge them, breaking agreement
    // with bitwise head unification), and NaN-free misses must fall to
    // the default. Nine keys make the table wide enough for the
    // link-time hash index, so this replays the hashed dispatch path
    // against every oracle.
    CorpusCase {
        name: "float_switch_keys_bitwise",
        source: "fk(0.0, pos). fk(-0.0, neg). fk(1.0, one). fk(2.0, two).\n\
                 fk(3.0, three). fk(4.0, four). fk(5.0, five). fk(6.0, six).\n\
                 fk(7.0, seven).\n\
                 q(A, B, C) :- fk(-0.0, A), fk(0.0, B), \\+ fk(0.5, _), C = ok.\n",
        query: "q(A, B, C)",
        enumerate: true,
    },
];

/// Replays every corpus case against `engines`; returns the names of the
/// cases that did not agree (skips count as failures — corpus cases are
/// small enough that a step-budget stop means something is wrong).
pub fn replay(engines: &[Box<dyn Engine>]) -> Vec<(&'static str, String)> {
    let mut failures = Vec::new();
    for case in CORPUS {
        match compare(engines, case.source, case.query, case.enumerate) {
            Verdict::Agree => {}
            Verdict::Skip(why) => {
                failures.push((case.name, format!("skipped: {why}")));
            }
            Verdict::Diverge(d) => failures.push((case.name, d.render())),
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_names_are_unique() {
        let mut names: Vec<_> = CORPUS.iter().map(|c| c.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate corpus case names");
    }

    #[test]
    fn corpus_sources_parse() {
        for case in CORPUS {
            kcm_prolog::read_program(case.source)
                .unwrap_or_else(|e| panic!("{}: source does not parse: {e}", case.name));
            kcm_prolog::read_term(case.query)
                .unwrap_or_else(|e| panic!("{}: query does not parse: {e}", case.name));
        }
    }
}
