//! The PLM benchmark suite (paper §4).
//!
//! "This suite was gathered by the PLM team at U.C. Berkeley in order to
//! evaluate the performance of the PLM. It is an extension of the initial
//! set of benchmarks written by D.H.D. Warren." The sources below follow
//! the classical texts. Every program has two drivers:
//!
//! * `main` — the Table 2 configuration: I/O predicates report the result
//!   (they cost 5 cycles each, compiled as unit clauses, §4.2);
//! * `main_star` — the Table 3 configuration: "all the I/O predicates
//!   (used to print the solutions) have been removed in order to measure
//!   the pure inferencing capabilities".
//!
//! The `boyer`-style program needing assert/retract is omitted exactly as
//! the paper omits it ("this library did not include any assert/retract
//! facilities which made it impossible to run one of the programs").

/// One benchmark program of the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchProgram {
    /// Program name as it appears in the paper's tables.
    pub name: &'static str,
    /// Complete Prolog source including both drivers.
    pub source: &'static str,
    /// The Table 2 driver goal.
    pub query: &'static str,
    /// The Table 3 (I/O-free) driver goal.
    pub starred_query: &'static str,
    /// Whether the driver enumerates all solutions by backtracking.
    pub enumerate: bool,
}

/// `con1` — one short list concatenation (the paper's peak-Klips program).
pub const CON1: BenchProgram = BenchProgram {
    name: "con1",
    source: "
main :- con([a, b, c, d, e], [f], X), write(X), nl.
main_star :- con([a, b, c, d, e], [f], _).
con([], L, L).
con([H|T], L, [H|R]) :- con(T, L, R).
",
    query: "main",
    starred_query: "main_star",
    enumerate: false,
};

/// `con6` — six concatenations of six-element lists.
pub const CON6: BenchProgram = BenchProgram {
    name: "con6",
    source: "
main :- run6(X), write(X), nl.
main_star :- run6(_).
run6(X6) :-
    con([a, b, c, d, e, f], [g], X1),
    con(X1, [h], X2),
    con(X2, [i], X3),
    con(X3, [j], X4),
    con(X4, [k], X5),
    con(X5, [l], X6).
con([], L, L).
con([H|T], L, [H|R]) :- con(T, L, R).
",
    query: "main",
    starred_query: "main_star",
    enumerate: false,
};

/// `times10` — differentiate a tenfold product.
pub const TIMES10: BenchProgram = BenchProgram {
    name: "times10",
    source: const_format_times10(),
    query: "main",
    starred_query: "main_star",
    enumerate: false,
};

const fn const_format_times10() -> &'static str {
    // (Rust has no const string concat for arbitrary consts; the source is
    // written out with the shared rules inlined.)
    "
main :- d(((((((((x * x) * x) * x) * x) * x) * x) * x) * x) * x, x, D), write(D), nl.
main_star :- d(((((((((x * x) * x) * x) * x) * x) * x) * x) * x) * x, x, _).
d(U + V, X, DU + DV) :- !, d(U, X, DU), d(V, X, DV).
d(U - V, X, DU - DV) :- !, d(U, X, DU), d(V, X, DV).
d(U * V, X, DU * V + U * DV) :- !, d(U, X, DU), d(V, X, DV).
d(U / V, X, (DU * V - U * DV) / (V ^ 2)) :- !, d(U, X, DU), d(V, X, DV).
d(U ^ N, X, DU * N * U ^ N1) :- !, integer(N), N1 is N - 1, d(U, X, DU).
d(-U, X, -DU) :- !, d(U, X, DU).
d(exp(U), X, exp(U) * DU) :- !, d(U, X, DU).
d(log(U), X, DU / U) :- !, d(U, X, DU).
d(X, X, 1) :- !.
d(_, _, 0).
"
}

/// `divide10` — differentiate a tenfold quotient.
pub const DIVIDE10: BenchProgram = BenchProgram {
    name: "divide10",
    source: "
main :- d(((((((((x / x) / x) / x) / x) / x) / x) / x) / x) / x, x, D), write(D), nl.
main_star :- d(((((((((x / x) / x) / x) / x) / x) / x) / x) / x) / x, x, _).
d(U + V, X, DU + DV) :- !, d(U, X, DU), d(V, X, DV).
d(U - V, X, DU - DV) :- !, d(U, X, DU), d(V, X, DV).
d(U * V, X, DU * V + U * DV) :- !, d(U, X, DU), d(V, X, DV).
d(U / V, X, (DU * V - U * DV) / (V ^ 2)) :- !, d(U, X, DU), d(V, X, DV).
d(U ^ N, X, DU * N * U ^ N1) :- !, integer(N), N1 is N - 1, d(U, X, DU).
d(-U, X, -DU) :- !, d(U, X, DU).
d(exp(U), X, exp(U) * DU) :- !, d(U, X, DU).
d(log(U), X, DU / U) :- !, d(U, X, DU).
d(X, X, 1) :- !.
d(_, _, 0).
",
    query: "main",
    starred_query: "main_star",
    enumerate: false,
};

/// `log10` — differentiate a tenfold logarithm.
pub const LOG10: BenchProgram = BenchProgram {
    name: "log10",
    source: "
main :- d(log(log(log(log(log(log(log(log(log(log(x)))))))))), x, D), write(D), nl.
main_star :- d(log(log(log(log(log(log(log(log(log(log(x)))))))))), x, _).
d(U + V, X, DU + DV) :- !, d(U, X, DU), d(V, X, DV).
d(U - V, X, DU - DV) :- !, d(U, X, DU), d(V, X, DV).
d(U * V, X, DU * V + U * DV) :- !, d(U, X, DU), d(V, X, DV).
d(U / V, X, (DU * V - U * DV) / (V ^ 2)) :- !, d(U, X, DU), d(V, X, DV).
d(U ^ N, X, DU * N * U ^ N1) :- !, integer(N), N1 is N - 1, d(U, X, DU).
d(-U, X, -DU) :- !, d(U, X, DU).
d(exp(U), X, exp(U) * DU) :- !, d(U, X, DU).
d(log(U), X, DU / U) :- !, d(U, X, DU).
d(X, X, 1) :- !.
d(_, _, 0).
",
    query: "main",
    starred_query: "main_star",
    enumerate: false,
};

/// `ops8` — differentiate an eight-operator expression.
pub const OPS8: BenchProgram = BenchProgram {
    name: "ops8",
    source: "
main :- d((x + 1) * ((x ^ 2 + 2) * (x ^ 3 + 3)), x, D), write(D), nl.
main_star :- d((x + 1) * ((x ^ 2 + 2) * (x ^ 3 + 3)), x, _).
d(U + V, X, DU + DV) :- !, d(U, X, DU), d(V, X, DV).
d(U - V, X, DU - DV) :- !, d(U, X, DU), d(V, X, DV).
d(U * V, X, DU * V + U * DV) :- !, d(U, X, DU), d(V, X, DV).
d(U / V, X, (DU * V - U * DV) / (V ^ 2)) :- !, d(U, X, DU), d(V, X, DV).
d(U ^ N, X, DU * N * U ^ N1) :- !, integer(N), N1 is N - 1, d(U, X, DU).
d(-U, X, -DU) :- !, d(U, X, DU).
d(exp(U), X, exp(U) * DU) :- !, d(U, X, DU).
d(log(U), X, DU / U) :- !, d(U, X, DU).
d(X, X, 1) :- !.
d(_, _, 0).
",
    query: "main",
    starred_query: "main_star",
    enumerate: false,
};

/// `hanoi` — towers of Hanoi, 8 discs. The unstarred driver reports each
/// move (the paper notes hanoi is the benchmark most affected by the I/O
/// costing assumption).
pub const HANOI: BenchProgram = BenchProgram {
    name: "hanoi",
    source: "
main :- move(8, left, centre, right).
main_star :- move_star(8, left, centre, right).
move(0, _, _, _) :- !.
move(N, A, B, C) :-
    M is N - 1,
    move(M, A, C, B),
    inform(A, B),
    move(M, C, B, A).
inform(A, B) :- write(A), write(B), nl.
move_star(0, _, _, _) :- !.
move_star(N, A, B, C) :-
    M is N - 1,
    move_star(M, A, C, B),
    move_star(M, C, B, A).
",
    query: "main",
    starred_query: "main_star",
    enumerate: false,
};

/// `mutest` — Hofstadter's MU puzzle: derive `muiiu` from `mi`.
pub const MUTEST: BenchProgram = BenchProgram {
    name: "mutest",
    source: "
main :- theorem(5, [m, u, i, i, u]), write(yes), nl.
main_star :- theorem(5, [m, u, i, i, u]).
theorem(_, [m, i]).
theorem(Depth, R) :-
    Depth > 0,
    D is Depth - 1,
    theorem(D, S),
    rules(S, R).
rules(S, R) :- rule1(S, R).
rules(S, R) :- rule2(S, R).
rules(S, R) :- rule3(S, R).
rules(S, R) :- rule4(S, R).
rule1(S, R) :- append(X, [i], S), append(X, [i, u], R).
rule2([m|T], [m|R]) :- append(T, T, R).
rule3(S, R) :- append(X, [i, i, i|Y], S), append(X, [u|Y], R).
rule4(S, R) :- append(X, [u, u|Y], S), append(X, Y, R).
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
",
    query: "main",
    starred_query: "main_star",
    enumerate: false,
};

/// `nrev1` — naive reverse of a 30-element list.
pub const NREV1: BenchProgram = BenchProgram {
    name: "nrev1",
    source: "
main :- nrev([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30], R),
        write(R), nl.
main_star :- nrev([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30], _).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
",
    query: "main",
    starred_query: "main_star",
    enumerate: false,
};

/// `palin25` — Warren's `serialise` on the 25-character palindrome.
pub const PALIN25: BenchProgram = BenchProgram {
    name: "palin25",
    source: "
main :- serialise(\"ABLE WAS I ERE I SAW ELBA\", R), write(R), nl.
main_star :- serialise(\"ABLE WAS I ERE I SAW ELBA\", _).
serialise(L, R) :- pairlists(L, R, A), arrange(A, T), numbered(T, 1, _).
pairlists([X|L], [Y|R], [pair(X, Y)|A]) :- pairlists(L, R, A).
pairlists([], [], []).
arrange([X|L], tree(T1, X, T2)) :-
    split(L, X, L1, L2),
    arrange(L1, T1),
    arrange(L2, T2).
arrange([], void).
split([X|L], X, L1, L2) :- !, split(L, X, L1, L2).
split([X|L], Y, [X|L1], L2) :- before(X, Y), !, split(L, Y, L1, L2).
split([X|L], Y, L1, [X|L2]) :- before(Y, X), !, split(L, Y, L1, L2).
split([], _, [], []).
before(pair(X1, _), pair(X2, _)) :- X1 < X2.
numbered(tree(T1, pair(_, N1), T2), N0, N) :-
    numbered(T1, N0, N1),
    N2 is N1 + 1,
    numbered(T2, N2, N).
numbered(void, N, N).
",
    query: "main",
    starred_query: "main_star",
    enumerate: false,
};

/// `pri2` — primes up to 98 by trial-division sieve.
pub const PRI2: BenchProgram = BenchProgram {
    name: "pri2",
    source: "
main :- primes(98, Ps), write(Ps), nl.
main_star :- primes(98, _).
primes(Limit, Ps) :- integers(2, Limit, Is), sift(Is, Ps).
integers(Low, High, [Low|Rest]) :- Low =< High, !, M is Low + 1, integers(M, High, Rest).
integers(_, _, []).
sift([], []).
sift([I|Is], [I|Ps]) :- remove(I, Is, New), sift(New, Ps).
remove(_, [], []).
remove(P, [I|Is], Nis) :- 0 is I mod P, !, remove(P, Is, Nis).
remove(P, [I|Is], [I|Nis]) :- remove(P, Is, Nis).
",
    query: "main",
    starred_query: "main_star",
    enumerate: false,
};

/// `qs4` — quicksort of the standard 50-element list (the classical
/// difference-list formulation, which is what keeps the PLM suite's
/// inference count near 600).
pub const QS4: BenchProgram = BenchProgram {
    name: "qs4",
    source: "
main :- qsort([27,74,17,33,94,18,46,83,65,2,32,53,28,85,99,47,28,82,6,11,
               55,29,39,81,90,37,10,0,66,51,7,21,85,27,31,63,75,4,95,99,
               11,28,61,74,18,92,40,53,59,8], R), write(R), nl.
main_star :- qsort([27,74,17,33,94,18,46,83,65,2,32,53,28,85,99,47,28,82,6,11,
                    55,29,39,81,90,37,10,0,66,51,7,21,85,27,31,63,75,4,95,99,
                    11,28,61,74,18,92,40,53,59,8], _).
qsort(L, R) :- qsort(L, R, []).
qsort([], R, R).
qsort([X|L], R, R0) :-
    partition(L, X, L1, L2),
    qsort(L2, R1, R0),
    qsort(L1, R, [X|R1]).
partition([], _, [], []).
partition([X|L], Y, [X|L1], L2) :- X =< Y, !, partition(L, Y, L1, L2).
partition([X|L], Y, L1, [X|L2]) :- partition(L, Y, L1, L2).
",
    query: "main",
    starred_query: "main_star",
    enumerate: false,
};

/// `queens` — the N-queens problem, first solution on a 6×6 board
/// (sized so the search effort matches the paper's reported inference
/// count for its `queens` program).
pub const QUEENS: BenchProgram = BenchProgram {
    name: "queens",
    source: "
main :- queens(6, Qs), write(Qs), nl.
main_star :- queens(6, _).
queens(N, Qs) :- range(1, N, Ns), place(Ns, [], Qs).
place([], Qs, Qs).
place(Unplaced, Safe, Qs) :-
    selectq(Unplaced, Rest, Q),
    \\+ attack(Q, Safe),
    place(Rest, [Q|Safe], Qs).
attack(X, Xs) :- attack(X, 1, Xs).
attack(X, N, [Y|_]) :- X =:= Y + N.
attack(X, N, [Y|_]) :- X =:= Y - N.
attack(X, N, [_|Ys]) :- N1 is N + 1, attack(X, N1, Ys).
selectq([X|Xs], Xs, X).
selectq([Y|Ys], [Y|Zs], X) :- selectq(Ys, Zs, X).
range(N, N, [N]) :- !.
range(M, N, [M|Ns]) :- M < N, M1 is M + 1, range(M1, N, Ns).
",
    query: "main",
    starred_query: "main_star",
    enumerate: false,
};

/// `query` — Warren's database query: country pairs with close population
/// densities, all solutions by failure-driven backtracking.
pub const QUERY: BenchProgram = BenchProgram {
    name: "query",
    source: "
main :- q(S), write(S), nl, fail.
main.
main_star :- q(_), fail.
main_star.
q([C1, D1, C2, D2]) :-
    density(C1, D1),
    density(C2, D2),
    D1 > D2,
    T1 is 20 * D1,
    T2 is 21 * D2,
    T1 < T2.
density(C, D) :- pop(C, P), area(C, A), D is P * 100 // A.
pop(china, 8250).      area(china, 3380).
pop(india, 5863).      area(india, 1139).
pop(ussr, 2521).       area(ussr, 8708).
pop(usa, 2119).        area(usa, 3609).
pop(indonesia, 1276).  area(indonesia, 570).
pop(japan, 1097).      area(japan, 148).
pop(brazil, 1042).     area(brazil, 3288).
pop(bangladesh, 750).  area(bangladesh, 55).
pop(pakistan, 682).    area(pakistan, 311).
pop(w_germany, 620).   area(w_germany, 96).
pop(nigeria, 613).     area(nigeria, 373).
pop(mexico, 581).      area(mexico, 764).
pop(uk, 559).          area(uk, 86).
pop(italy, 554).       area(italy, 116).
pop(france, 525).      area(france, 213).
pop(philippines, 415). area(philippines, 90).
pop(thailand, 410).    area(thailand, 200).
pop(turkey, 383).      area(turkey, 296).
pop(egypt, 364).       area(egypt, 386).
pop(spain, 352).       area(spain, 190).
pop(poland, 337).      area(poland, 121).
pop(s_korea, 335).     area(s_korea, 37).
pop(iran, 320).        area(iran, 628).
pop(ethiopia, 272).    area(ethiopia, 350).
pop(argentina, 251).   area(argentina, 1080).
",
    query: "main",
    starred_query: "main_star",
    enumerate: false,
};

/// The complete suite in the order of the paper's tables.
pub fn suite() -> Vec<BenchProgram> {
    vec![
        CON1, CON6, DIVIDE10, HANOI, LOG10, MUTEST, NREV1, OPS8, PALIN25, PRI2, QS4, QUEENS, QUERY,
        TIMES10,
    ]
}

/// Finds a suite program by its table name.
pub fn program(name: &str) -> Option<BenchProgram> {
    suite().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_fourteen_programs_in_table_order() {
        let names: Vec<&str> = suite().iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 14);
        assert_eq!(names[0], "con1");
        assert_eq!(names[13], "times10");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "paper tables list programs alphabetically");
    }

    #[test]
    fn every_program_has_both_drivers() {
        for p in suite() {
            assert!(p.source.contains("main"), "{}", p.name);
            assert!(p.source.contains("main_star"), "{}", p.name);
            assert_eq!(p.query, "main");
            assert_eq!(p.starred_query, "main_star");
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(program("nrev1").is_some());
        assert!(program("boyer").is_none(), "assert/retract program omitted");
    }

    #[test]
    fn sources_parse() {
        for p in suite() {
            kcm_prolog::read_program(p.source).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }
}
