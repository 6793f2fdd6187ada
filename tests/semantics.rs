//! Cross-crate integration tests: Prolog semantics end to end through the
//! reader, compiler, linker and the KCM machine.

use kcm_repro::kcm_system::{Kcm, QueryOpts};

fn kcm(src: &str) -> Kcm {
    let mut k = Kcm::new();
    k.load(src).expect("consult");
    k
}

fn all(k: &mut Kcm, q: &str) -> Vec<String> {
    k.solve_all(q)
        .expect("query")
        .iter()
        .map(ToString::to_string)
        .collect()
}

#[test]
fn facts_and_backtracking_enumerate_in_order() {
    let mut k = kcm("color(red). color(green). color(blue).");
    assert_eq!(
        all(&mut k, "color(C)"),
        ["C = red", "C = green", "C = blue"]
    );
}

#[test]
fn conjunction_joins() {
    let mut k = kcm("p(1). p(2). q(2). q(3).");
    assert_eq!(all(&mut k, "p(X), q(X)"), ["X = 2"]);
}

#[test]
fn unification_of_structures() {
    let mut k = kcm("eq(X, X).");
    assert_eq!(all(&mut k, "eq(f(A, b), f(a, B))"), ["A = a, B = b"]);
    assert!(all(&mut k, "eq(f(x), g(x))").is_empty());
    assert!(all(&mut k, "eq(f(x), f(x, y))").is_empty());
}

#[test]
fn shared_variables_propagate() {
    let mut k = kcm("eq(X, X).");
    // X = f(Y), Y = 3 → X = f(3).
    assert_eq!(all(&mut k, "eq(X, f(Y)), eq(Y, 3)"), ["X = f(3), Y = 3"]);
}

#[test]
fn cut_commits_to_first_clause() {
    let mut k = kcm("max(X, Y, X) :- X >= Y, !.
         max(_, Y, Y).");
    assert_eq!(all(&mut k, "max(3, 2, M)"), ["M = 3"]);
    assert_eq!(all(&mut k, "max(2, 3, M)"), ["M = 3"]);
    // Without the cut the second clause would also produce M = 2.
    assert_eq!(all(&mut k, "max(3, 2, M)").len(), 1);
}

#[test]
fn cut_after_calls_discards_alternatives() {
    let mut k = kcm("p(1). p(2). p(3).
         first(X) :- p(X), !.");
    assert_eq!(all(&mut k, "first(X)"), ["X = 1"]);
}

#[test]
fn negation_as_failure() {
    let k = kcm("p(1). p(2).
         not_p(X) :- \\+ p(X).");
    assert!(k.holds("not_p(3)").expect("query"));
    assert!(!k.holds("not_p(1)").expect("query"));
}

#[test]
fn if_then_else_takes_one_branch() {
    let mut k = kcm("classify(X, neg) :- (X < 0 -> true ; fail).
                     classify(X, nonneg) :- (X < 0 -> fail ; true).");
    assert_eq!(all(&mut k, "classify(-5, C)"), ["C = neg"]);
    assert_eq!(all(&mut k, "classify(5, C)"), ["C = nonneg"]);
}

#[test]
fn disjunction_enumerates_both_branches() {
    let mut k = kcm("p(X) :- (X = a ; X = b).");
    assert_eq!(all(&mut k, "p(X)"), ["X = a", "X = b"]);
}

#[test]
fn arithmetic_inline_and_comparisons() {
    let mut k = kcm("sum(A, B, S) :- S is A + B.");
    assert_eq!(all(&mut k, "sum(2, 3, S)"), ["S = 5"]);
    assert_eq!(all(&mut k, "X is 7 mod 3"), ["X = 1"]);
    assert_eq!(all(&mut k, "X is 2 * 3 + 4 * 5"), ["X = 26"]);
    assert_eq!(all(&mut k, "X is (10 - 4) // 2"), ["X = 3"]);
    assert!(k.holds("3 < 5").expect("q"));
    assert!(!k.holds("5 < 3").expect("q"));
    assert!(k.holds("4 >= 4").expect("q"));
    assert!(k.holds("2 + 2 =:= 4").expect("q"));
    assert!(k.holds("2 + 2 =\\= 5").expect("q"));
}

#[test]
fn negative_numbers_flow_through() {
    let mut k = kcm("neg(X, Y) :- Y is -X.");
    assert_eq!(all(&mut k, "neg(5, Y)"), ["Y = -5"]);
    assert_eq!(all(&mut k, "neg(-5, Y)"), ["Y = 5"]);
    assert!(k.holds("-3 < -2").expect("q"));
}

#[test]
fn float_arithmetic_via_generic_alu() {
    let mut k = kcm("half(X, Y) :- Y is X / 2.0.");
    let a = &mut k;
    let r = all(a, "half(5.0, Y)");
    assert_eq!(r, ["Y = 2.5"]);
    // Mixed int/float promotes to float.
    assert_eq!(all(a, "X is 1 + 0.5"), ["X = 1.5"]);
}

#[test]
fn list_building_and_matching() {
    let mut k = kcm("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).
         rev([], []). rev([H|T], R) :- rev(T, RT), app(RT, [H], R).");
    assert_eq!(all(&mut k, "app([1,2], [3,4], X)"), ["X = [1,2,3,4]"]);
    assert_eq!(all(&mut k, "rev([a,b,c], R)"), ["R = [c,b,a]"]);
    // Backwards mode: splitting a list enumerates all partitions.
    assert_eq!(all(&mut k, "app(X, Y, [1,2])").len(), 3);
}

#[test]
fn partial_lists_and_tails() {
    let mut k = kcm("head_tail([H|T], H, T).");
    assert_eq!(
        all(&mut k, "head_tail([1,2,3], H, T)"),
        ["H = 1, T = [2,3]"]
    );
}

#[test]
fn deep_recursion_grows_stacks() {
    // 40 000 recursive frames force local/global zone growth traps.
    let k = kcm("count(0) :- !. count(N) :- M is N - 1, count(M).");
    assert!(k.holds("count(40000)").expect("query"));
}

#[test]
fn first_arg_indexing_is_transparent() {
    let mut k = kcm("kind(1, int). kind(a, atom). kind([], nil).
         kind([_|_], list). kind(f(_), compound).");
    assert_eq!(all(&mut k, "kind(1, K)"), ["K = int"]);
    assert_eq!(all(&mut k, "kind(a, K)"), ["K = atom"]);
    assert_eq!(all(&mut k, "kind([], K)"), ["K = nil"]);
    assert_eq!(all(&mut k, "kind([x], K)"), ["K = list"]);
    assert_eq!(all(&mut k, "kind(f(0), K)"), ["K = compound"]);
    // Unbound first argument still enumerates every clause.
    assert_eq!(all(&mut k, "kind(_, K)").len(), 5);
}

#[test]
fn type_test_builtins() {
    let k = kcm("t.");
    for (q, expect) in [
        ("var(_)", true),
        ("nonvar(f(x))", true),
        ("atom(foo)", true),
        ("atom([])", true),
        ("atom(f(x))", false),
        ("atomic(3)", true),
        ("integer(3)", true),
        ("integer(3.5)", false),
        ("float(3.5)", true),
        ("number(3)", true),
        ("callable(f(x))", true),
        ("is_list([1,2])", true),
        ("is_list([1|_])", false),
    ] {
        assert_eq!(k.holds(q).expect("query"), expect, "{q}");
    }
}

#[test]
fn structural_builtins() {
    let mut k = kcm("t.");
    assert_eq!(all(&mut k, "functor(foo(a, b), N, A)"), ["N = foo, A = 2"]);
    assert_eq!(all(&mut k, "functor(T, pair, 2)").len(), 1);
    assert_eq!(all(&mut k, "arg(2, f(a, b, c), X)"), ["X = b"]);
    assert_eq!(all(&mut k, "f(a, b) =.. L"), ["L = [f,a,b]"]);
    assert_eq!(all(&mut k, "T =.. [g, 1, 2]"), ["T = g(1,2)"]);
    assert_eq!(all(&mut k, "length([a,b,c], N)"), ["N = 3"]);
    assert_eq!(all(&mut k, "length(L, 2)").len(), 1);
}

#[test]
fn term_ordering_builtins() {
    let mut k = kcm("t.");
    assert!(k.holds("f(a) == f(a)").expect("q"));
    assert!(k.holds("f(a) \\== f(b)").expect("q"));
    assert!(k.holds("1 @< a").expect("q"), "numbers before atoms");
    assert!(k.holds("a @< f(a)").expect("q"), "atoms before compounds");
    assert_eq!(all(&mut k, "compare(O, 1, 2)"), ["O = <"]);
    assert_eq!(all(&mut k, "compare(O, b, a)"), ["O = >"]);
}

#[test]
fn write_output_is_captured() {
    let k = kcm("greet :- write(hello), nl, write([1,2|x]), nl.");
    let outcome = k.query("greet", &QueryOpts::first()).expect("query");
    assert_eq!(outcome.output, "hello\n[1,2|x]\n");
}

#[test]
fn failure_driven_loop_terminates() {
    let k = kcm("p(1). p(2). p(3).
         show :- p(X), write(X), nl, fail.
         show.");
    let outcome = k.query("show", &QueryOpts::first()).expect("query");
    assert!(outcome.success);
    assert_eq!(outcome.output, "1\n2\n3\n");
}

#[test]
fn anonymous_variables_do_not_alias() {
    let k = kcm("pair(_, _).");
    assert!(k.holds("pair(1, 2)").expect("query"));
}

#[test]
fn deep_structures_roundtrip() {
    let mut k = kcm("eq(X, X).");
    let r = all(&mut k, "eq(D, f(g(h(i(j(k(1))))))), eq(D, E)");
    assert_eq!(r, ["D = f(g(h(i(j(k(1)))))), E = f(g(h(i(j(k(1))))))"]);
}

#[test]
fn ground_literal_sharing_is_sound() {
    // The static-data literal [1,2,3] is shared between clauses; binding
    // against it must never corrupt it across backtracking.
    let mut k = kcm("l([1,2,3]).
         m(X) :- l([X|_]).
         n(X) :- l(L), member2(X, L).
         member2(X, [X|_]). member2(X, [_|T]) :- member2(X, T).");
    assert_eq!(all(&mut k, "m(X)"), ["X = 1"]);
    assert_eq!(all(&mut k, "n(X)"), ["X = 1", "X = 2", "X = 3"]);
    // Unifying the literal with an incompatible list fails cleanly.
    assert!(!k.holds("l([4|_])").expect("query"));
    // And the literal is still intact afterwards.
    assert_eq!(all(&mut k, "n(X)").len(), 3);
}

#[test]
fn statistics_builtin_reads_counters() {
    let mut k = kcm("t.");
    let r = all(&mut k, "statistics(inferences, N)");
    assert_eq!(r.len(), 1);
}

#[test]
fn name_converts_atoms_and_numbers() {
    let mut k = kcm("t.");
    assert_eq!(all(&mut k, "name(abc, L)"), ["L = [97,98,99]"]);
    assert_eq!(all(&mut k, "name(X, [104,105])"), ["X = hi"]);
    assert_eq!(all(&mut k, "name(X, [52,50])"), ["X = 42"]);
}

#[test]
fn meta_call_dispatches_user_predicates() {
    let mut k = kcm("p(1). p(2).
         indirect(G) :- call(G).
         apply(F, X) :- G =.. [F, X], call(G).");
    assert_eq!(all(&mut k, "indirect(p(X))"), ["X = 1", "X = 2"]);
    assert_eq!(all(&mut k, "apply(p, X)"), ["X = 1", "X = 2"]);
}

#[test]
fn meta_call_dispatches_builtins() {
    let k = kcm("check(G) :- call(G).");
    assert!(k.holds("check(integer(3))").expect("q"));
    assert!(!k.holds("check(integer(a))").expect("q"));
    assert!(k.holds("check(3 < 5)").expect("q"));
    let o = k.query("check(X is 2 + 2)", &QueryOpts::all()).expect("q");
    assert_eq!(o.solutions[0][0].1.to_string(), "4");
}

#[test]
fn meta_call_of_atom_goals() {
    let k = kcm("hello. run(G) :- call(G).");
    assert!(k.holds("run(hello)").expect("q"));
    assert!(k.holds("run(true)").expect("q"));
    assert!(!k.holds("run(fail)").expect("q"));
    // Unknown predicates fail quietly, like direct unknown calls.
    assert!(!k.holds("run(no_such_pred)").expect("q"));
}

#[test]
fn variable_goals_are_meta_calls() {
    let mut k = kcm("p(1). p(2).
         exec(G) :- G.");
    assert_eq!(all(&mut k, "exec(p(X))"), ["X = 1", "X = 2"]);
}

#[test]
fn meta_call_is_transparent_to_backtracking() {
    let mut k = kcm("p(1). p(2). p(3).
         both(X, Y) :- call(p(X)), call(p(Y)), X < Y.");
    assert_eq!(all(&mut k, "both(X, Y)").len(), 3); // (1,2) (1,3) (2,3)
}

#[test]
fn meta_call_on_unbound_goal_faults() {
    let k = kcm("go(G) :- call(G).");
    let r = k.query("go(_)", &QueryOpts::first());
    assert!(
        r.is_err(),
        "call of an unbound goal is an instantiation fault"
    );
}

#[test]
fn unsafe_variables_survive_deallocation() {
    // Y first occurs in the body and is passed to the last call: the
    // compiler must globalise it (put_unsafe_value) or the binding would
    // dangle after the environment is popped.
    let mut k = kcm("mk(_, _).
         combine(X, Y, f(X, Y)).
         t(Z) :- mk(X, Y), combine(X, Y, Z).");
    let r = all(&mut k, "t(Z), Z = f(P, Q), P = 1, Q = two");
    assert_eq!(r, ["Z = f(1,two), P = 1, Q = two"]);
}

#[test]
fn permanent_variables_in_structures_after_calls() {
    // Y is permanent and occurs twice inside a structure built after a
    // call: unify_value/unify_local_value on Y slots.
    let mut k = kcm("q(7).
         mk(T, T).
         bb(R) :- q(Y), mk(g(Y, Y), R).");
    assert_eq!(all(&mut k, "bb(R)"), ["R = g(7,7)"]);
    // And with Y unbound at build time, both occurrences must alias.
    let mut k2 = kcm("free(_).
         mk(T, T).
         cc(R, Y) :- free(Y), mk(g(Y, Y), R).");
    assert_eq!(all(&mut k2, "cc(R, Y), Y = 5"), ["R = g(5,5), Y = 5"]);
}

#[test]
fn nested_structures_in_heads_and_bodies() {
    let mut k = kcm("rot(t(A, B, C), t(B, C, A)).
         twice(X, R) :- rot(X, Y), rot(Y, R).");
    assert_eq!(all(&mut k, "twice(t(1, 2, 3), R)"), ["R = t(3,1,2)"]);
}

#[test]
fn long_ground_lists_roundtrip_through_static_data() {
    // 100-element ground literal: lives in the static area, unifies,
    // decodes, and reverses correctly.
    let items: Vec<String> = (1..=100).map(|i| i.to_string()).collect();
    let list = format!("[{}]", items.join(","));
    let mut k = kcm(&format!(
        "data({list}).
         rev([], A, A). rev([H|T], A, R) :- rev(T, [H|A], R).
         revdata(R) :- data(L), rev(L, [], R)."
    ));
    let r = all(&mut k, "revdata(R)");
    assert_eq!(r.len(), 1);
    assert!(r[0].starts_with("R = [100,99,98"), "{}", &r[0][..40]);
}

#[test]
fn copy_term_refreshes_variables() {
    let k = kcm("t.");
    // The copy's variables are fresh: binding them leaves the original
    // untouched.
    let o = k
        .query(
            "T = f(X, X, b), copy_term(T, C), C = f(1, One, B)",
            &QueryOpts::all(),
        )
        .expect("run");
    assert!(o.success);
    let s = &o.solutions[0];
    let get = |n: &str| s.iter().find(|(m, _)| m == n).expect("var").1.to_string();
    assert_eq!(get("One"), "1", "copied vars still alias each other");
    assert_eq!(get("B"), "b");
    assert!(get("X").starts_with("_G"), "the original X stays unbound");
}

#[test]
fn ground_checks_the_whole_term() {
    let k = kcm("t.");
    assert!(k.holds("ground(f(1, [a, b]))").expect("q"));
    assert!(!k.holds("ground(f(1, [a | _]))").expect("q"));
    assert!(!k.holds("ground(_)").expect("q"));
}

#[test]
fn codes_conversions() {
    let mut k = kcm("t.");
    assert_eq!(all(&mut k, "atom_codes(abc, L)"), ["L = [97,98,99]"]);
    assert_eq!(all(&mut k, "atom_codes(A, [104,105])"), ["A = hi"]);
    assert_eq!(all(&mut k, "number_codes(N, [52,50])"), ["N = 42"]);
    assert_eq!(
        all(&mut k, "number_codes(317, L), atom_codes(A, L)"),
        ["L = [51,49,55], A = '317'"]
    );
    assert_eq!(all(&mut k, "atom_length(hello, N)"), ["N = 5"]);
    assert!(k
        .query("number_codes(N, [104,105])", &QueryOpts::first())
        .is_err());
}

#[test]
fn atom_codes_of_digits_stays_an_atom() {
    let k = kcm("t.");
    let o = k
        .query("atom_codes(A, [52,50]), atom(A)", &QueryOpts::first())
        .expect("run");
    assert!(
        o.success,
        "atom_codes must build the atom '42', not the integer"
    );
}

#[test]
fn zebra_puzzle_regression() {
    // Full constraint search: ≈19k inferences, heavy trail/backtracking.
    let mut k = kcm("member(X, [X|_]).
         member(X, [_|T]) :- member(X, T).
         next_to(X, Y, L) :- right_of(X, Y, L).
         next_to(X, Y, L) :- right_of(Y, X, L).
         right_of(R, L, [L, R|_]).
         right_of(R, L, [_|T]) :- right_of(R, L, T).
         first(X, [X|_]).
         middle(X, [_, _, X, _, _]).
         zebra(Owner) :-
             Houses = [_, _, _, _, _],
             member(house(english, red, _, _, _), Houses),
             member(house(spanish, _, dog, _, _), Houses),
             member(house(_, green, _, coffee, _), Houses),
             member(house(ukrainian, _, _, tea, _), Houses),
             right_of(house(_, green, _, _, _), house(_, ivory, _, _, _), Houses),
             member(house(_, _, snails, _, old_gold), Houses),
             member(house(_, yellow, _, _, kools), Houses),
             middle(house(_, _, _, milk, _), Houses),
             first(house(norwegian, _, _, _, _), Houses),
             next_to(house(_, _, _, _, chesterfield), house(_, _, fox, _, _), Houses),
             next_to(house(_, _, _, _, kools), house(_, _, horse, _, _), Houses),
             member(house(_, _, _, orange_juice, lucky_strike), Houses),
             member(house(japanese, _, _, _, parliament), Houses),
             next_to(house(norwegian, _, _, _, _), house(_, blue, _, _, _), Houses),
             member(house(Owner, _, zebra, _, _), Houses),
             member(house(_, _, _, water, _), Houses).");
    assert_eq!(all(&mut k, "zebra(Owner)"), ["Owner = japanese"]);
}

#[test]
fn sixteen_argument_predicates_compile_and_run() {
    let args: Vec<String> = (1..=16).map(|i| i.to_string()).collect();
    let vars: Vec<String> = (1..=16).map(|i| format!("V{i}")).collect();
    let mut k = kcm(&format!("wide({}).", args.join(", ")));
    let q = format!("wide({})", vars.join(", "));
    let sols = all(&mut k, &q);
    assert_eq!(sols.len(), 1);
    assert!(sols[0].contains("V16 = 16"));
}

#[test]
fn deeply_nested_structures_compile() {
    // 10 levels of nesting (a ~1000-node tree) exercise the compiler's
    // temporary management.
    let mut term = "x".to_owned();
    for _ in 0..10 {
        term = format!("f({term}, {term})");
    }
    // Bounded by the register file? The tree shares no variables, so the
    // spine-queue keeps temporaries bounded.
    let k = kcm(&format!("deep({term})."));
    assert!(k.holds(&format!("deep({term})")).expect("runs"));
    assert!(!k.holds("deep(y)").expect("runs"));
}

#[test]
fn occurs_check_builtin() {
    let k = kcm("t.");
    // Plain unification builds the rational tree; the checked version
    // fails soundly.
    assert!(!k.holds("unify_with_occurs_check(X, f(X))").expect("q"));
    assert!(k.holds("unify_with_occurs_check(X, f(Y))").expect("q"));
    assert!(k
        .holds("unify_with_occurs_check(f(a, B), f(A, b)), A = a, B = b")
        .expect("q"));
    assert!(!k
        .holds("unify_with_occurs_check(f(X, X), f(Y, g(Y)))")
        .expect("q"));
}

#[test]
fn statistics_memory_keys() {
    let k = kcm("grow(0, []) :- !. grow(N, [N|T]) :- M is N - 1, grow(M, T).");
    let o = k
        .query(
            "grow(50, L), statistics(heap, H), H > 50",
            &QueryOpts::first(),
        )
        .expect("run");
    assert!(o.success, "50 cons cells need at least 100 heap words");
}
