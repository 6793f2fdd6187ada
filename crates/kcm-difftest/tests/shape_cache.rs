//! The table of compiled query shapes replays exactly what the compiler
//! produces. For every query `golden_code.txt` renders, a compile on a
//! copy of its program on which the query itself, or a seeded sibling
//! of it whose data atoms are redrawn, was compiled first (so the
//! image's table may answer it), and a compile on another copy, whose
//! table is empty (so the query's shape is compiled and kept), must
//! each equal the query's direct compile (`Linker::link_query_directly`):
//! the same overlay, the same symbol table afterwards and the same
//! reported variables.
//!
//! A sibling replaces each atom in a data argument (a user call's or
//! `=/2`'s, outside ground compounds: the atoms a shape makes holes)
//! with one drawn from a small pool: atoms of the program, so that
//! equality patterns between holes vary, and atoms the program lacks,
//! whose queries compile without the table.

use kcm_arch::{AtomId, FunctorId, SymbolTable};
use kcm_compiler::builtins::{classify_with, GoalKind};
use kcm_compiler::{compile_program, compile_query, CodeImage, CompileOptions, Linker};
use kcm_difftest::corpus::CORPUS;
use kcm_prolog::Term;
use kcm_suite::programs;
use kcm_testkit::TestRng;
use std::fmt::Write;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden_code.txt");

/// Seeded siblings compiled before each golden query.
const SIBLINGS: usize = 4;

/// The `kv/2` fact base `golden_code.rs` renders as program `kv`.
fn kv_source() -> String {
    let mut src = String::new();
    for i in 0..14 {
        let _ = writeln!(src, "kv(k{i}, v{i}).");
        if i % 4 == 0 {
            let _ = writeln!(src, "kv(k{i}, w{i}).");
        }
    }
    src + "kv(pair, p(1, [a, b])).\n"
}

/// Every program `golden_code.txt` renders, by its source, with the
/// queries rendered against it.
fn golden_programs() -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = Vec::new();
    for line in GOLDEN.lines() {
        if let Some(name) = line.strip_prefix("== program ") {
            let source = match (programs::program(name), name) {
                (Some(p), _) => p.source.to_owned(),
                (None, "kv") => kv_source(),
                (None, _) => {
                    let case = CORPUS.iter().find(|c| c.name == name);
                    case.unwrap_or_else(|| panic!("unknown program {name}"))
                        .source
                        .to_owned()
                }
            };
            out.push((source, Vec::new()));
        } else if let Some(query) = line.strip_prefix("-- query ") {
            out.last_mut()
                .expect("a program first")
                .1
                .push(query.to_owned());
        }
    }
    out
}

fn is_control(name: &str, arity: usize) -> bool {
    matches!(
        (name, arity),
        (",", 2) | (";", 2) | ("->", 2) | ("\\+", 1) | ("not", 1)
    )
}

/// `goal` with each of its data atoms replaced by `draw()`.
fn sibling(goal: &Term, draw: &mut dyn FnMut() -> String) -> Term {
    fn data(t: &Term, draw: &mut dyn FnMut() -> String) -> Term {
        match t {
            Term::Atom(n) if n != "[]" => Term::Atom(draw()),
            Term::Struct(n, args) if !t.is_ground() => {
                Term::Struct(n.clone(), args.iter().map(|a| data(a, draw)).collect())
            }
            _ => t.clone(),
        }
    }
    let Term::Struct(name, args) = goal else {
        return goal.clone();
    };
    let args = if is_control(name, args.len()) {
        args.iter().map(|a| sibling(a, draw)).collect()
    } else if matches!(
        classify_with(goal, &CompileOptions::default()),
        GoalKind::UserCall(..) | GoalKind::Unify(..)
    ) {
        args.iter().map(|a| data(a, draw)).collect()
    } else {
        args.clone()
    };
    Term::Struct(name.clone(), args)
}

/// A compiled query, through the image's table or directly: the
/// overlay's own parts, the symbol table in id order and the reported
/// variables.
fn compiled(base: &Arc<CodeImage>, symbols: &SymbolTable, goal: &Term, direct: bool) -> String {
    let mut symbols = symbols.clone();
    let link = if direct {
        Linker::link_query_directly
    } else {
        compile_query
    };
    let (overlay, vars) = link(base, goal, &mut symbols).expect("query compiles");
    let mut out = overlay.own_listing();
    for i in 0..symbols.atom_count() {
        let _ = writeln!(out, "atom#{i} {}", symbols.atom_name(AtomId::new(i)));
    }
    for i in 0..symbols.functor_count() {
        let f = FunctorId::new(i);
        let (name, arity) = (symbols.functor_name(f), symbols.functor_arity(f));
        let _ = writeln!(out, "fn#{i} {name}/{arity}");
    }
    out + &format!("vars {vars:?}\n")
}

#[test]
fn a_replayed_shape_equals_a_fresh_compile() {
    let mut rng = TestRng::new(0x5ba9_e5ed);
    let (mut queries, mut hits) = (0, 0);
    for (source, goals) in golden_programs() {
        let clauses = kcm_prolog::read_program(&source).expect("program parses");
        let mut symbols = SymbolTable::new();
        let program = compile_program(&clauses, &mut symbols).expect("program compiles");
        symbols.freeze();
        let known: Vec<String> = (0..symbols.atom_count())
            .map(|i| symbols.atom_name(AtomId::new(i)).to_owned())
            .filter(|a| a != "[]")
            .collect();
        for query in goals {
            let goal = kcm_prolog::read_term(&query).expect("query parses");
            for n in 0..SIBLINGS {
                // The first sibling is the query itself.
                let pool: Vec<String> = (0..3)
                    .map(|i| {
                        if known.is_empty() || (i == 2 && rng.chance(1, 2)) {
                            format!("absent{}", rng.below(4))
                        } else {
                            rng.choose(&known).clone()
                        }
                    })
                    .collect();
                let first = match n {
                    0 => goal.clone(),
                    _ => sibling(&goal, &mut || rng.choose(&pool).clone()),
                };
                // Copies of the program: each starts with an empty table.
                let base = Arc::new(program.clone());
                let _ = compiled(&base, &symbols, &first, false);
                let replayed = compiled(&base, &symbols, &goal, false);
                hits += base.shape_stats().hits;
                let fresh = compiled(&Arc::new(program.clone()), &symbols, &goal, false);
                let direct = compiled(&base, &symbols, &goal, true);
                assert_eq!(replayed, direct, "{query} after {first}");
                assert_eq!(fresh, direct, "{query} on an empty table");
                queries += 1;
            }
        }
    }
    assert_eq!(queries, 81 * SIBLINGS);
    // 285 now; with the table off there would be none.
    assert!(
        hits >= 280,
        "only {hits} of {queries} compiles were answered by the table"
    );
}
