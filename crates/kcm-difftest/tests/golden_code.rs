//! Golden compiler output: the code, static data, sizes, entries and
//! symbol tables the compiler produces for the suite, the serve
//! workload's queries, a small fact base, the regression corpus and a set
//! of queries with control constructs, arithmetic and ground literals,
//! pinned to the committed file `golden_code.txt` next to this test.
//!
//! The cycle-tier pins catch a code change only where a run executes it;
//! this one fails on any difference in any emitted instruction, static
//! word, size record, entry or interned symbol, executed or not. A change
//! meant to alter the generated code edits the committed file; the
//! failure message prints the full current rendering for that.

use kcm_arch::isa::Instr;
use kcm_arch::SymbolTable;
use kcm_compiler::{compile_program, compile_query, CodeImage};
use kcm_difftest::corpus::CORPUS;
use kcm_suite::{golden, programs};
use std::fmt::Write;
use std::sync::Arc;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_code.txt");

/// The inner queries of the serve workload (`kcm_serve::workload`), by
/// suite program.
const SERVE_QUERIES: [(&str, &str); 8] = [
    ("con1", "con([a, b, c, d, e], [f], X)"),
    ("con6", "run6(X)"),
    ("nrev1", "nrev([1,2,3,4,5,6,7,8,9,10], R)"),
    ("pri2", "primes(30, Ps)"),
    ("qs4", "qsort([3,1,4,1,5,9,2,6], R)"),
    ("queens", "queens(4, Qs)"),
    ("hanoi", "move_star(4, left, centre, right)"),
    ("palin25", "serialise(\"ABA\", R)"),
];

/// Queries with control constructs, inline and escaped arithmetic and
/// nested ground literals, run against the fact base below.
const SHAPED_QUERIES: [&str; 10] = [
    "(kv(k1, V) ; V = none)",
    "(kv(K, v2) -> X = K ; X = no)",
    "\\+ kv(zz, _)",
    "X is 3 * 4 + 1, Y is X mod 5, Y < X",
    "X is max(2, 7) - abs(-3), Z is X / 2.0",
    "X = [a, [b, c], f([d, e]), \"str\"], kv(k2, Y)",
    "X = f(g(h(1)), [1, 2, 3 | T]), T = [4]",
    "L = [[1, 2], [1, 2], [3, [4, 5]]], M = [3, [4, 5]]",
    "kv(K, V), \\+ (K == k0 ; V == v0), !",
    "(kv(k3, A) -> (A == v3 -> R = same ; R = other) ; R = none)",
];

/// A `kv/2` fact base: 14 first-argument keys (a hashed switch), four of
/// them with two values (depth-2 dispatch), and a compound value.
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

fn compile(src: &str) -> (Arc<CodeImage>, SymbolTable) {
    let clauses = kcm_prolog::read_program(src).expect("program parses");
    let mut symbols = SymbolTable::new();
    let image = compile_program(&clauses, &mut symbols).expect("program compiles");
    (Arc::new(image), symbols)
}

/// One instruction: its display form, with a switch table's default and
/// entries in full.
fn instr_text(instr: &Instr) -> String {
    match instr {
        Instr::SwitchOnConstant { .. } | Instr::SwitchOnStructure { .. } => format!("{instr:?}"),
        other => other.to_string(),
    }
}

/// A program: its disassembly, switch tables, static data, sizes, entries
/// (sorted) and atom and functor tables in id order.
fn render_program(name: &str, image: &CodeImage, symbols: &SymbolTable) -> String {
    let mut out = format!("== program {name}\n");
    out += &image.disassemble(symbols);
    for idx in 0..image.num_instrs() as u32 {
        let instr = image.instr_at_index(idx);
        if matches!(
            instr,
            Instr::SwitchOnConstant { .. } | Instr::SwitchOnStructure { .. }
        ) {
            let addr = image.addr_at_index(idx).expect("index in range");
            let _ = writeln!(out, "table {addr} {}", instr_text(instr));
        }
    }
    let (at, words) = image.static_data();
    for (i, w) in words.iter().enumerate() {
        let _ = writeln!(out, "static {} {w:?}", at.offset(i as i64));
    }
    for s in image.sizes() {
        let _ = writeln!(
            out,
            "size {} instrs={} words={} aux={} start={} end={}",
            s.id, s.instrs, s.words, s.auxiliary, s.start, s.end
        );
    }
    let mut entries: Vec<_> = image.entries().collect();
    entries.sort_unstable();
    for (name, arity, addr) in entries {
        let _ = writeln!(out, "entry {name}/{arity} {addr}");
    }
    out + &render_symbols(symbols, 0, 0)
}

/// The atoms and functors interned from the given ids on.
fn render_symbols(symbols: &SymbolTable, atoms_from: usize, functors_from: usize) -> String {
    let mut out = String::new();
    for i in atoms_from..symbols.atom_count() {
        let name = symbols.atom_name(kcm_arch::AtomId::new(i));
        let _ = writeln!(out, "atom#{i} {name}");
    }
    for i in functors_from..symbols.functor_count() {
        let f = kcm_arch::FunctorId::new(i);
        let (name, arity) = (symbols.functor_name(f), symbols.functor_arity(f));
        let _ = writeln!(out, "fn#{i} {name}/{arity}");
    }
    out
}

/// A query against `base`: the overlay's own instructions and static
/// words, the symbols it interned and the reported variables.
fn render_query(base: &Arc<CodeImage>, base_symbols: &SymbolTable, query: &str) -> String {
    let goal = kcm_prolog::read_term(query).expect("query parses");
    let mut symbols = base_symbols.clone();
    let (qimage, vars) = compile_query(base, &goal, &mut symbols).expect("query compiles");
    let mut out = format!("-- query {query}\n");
    for idx in base.num_instrs() as u32..qimage.num_instrs() as u32 {
        let addr = qimage.addr_at_index(idx).expect("index in range");
        let _ = writeln!(
            out,
            "  {addr:6}  {}",
            instr_text(qimage.instr_at_index(idx))
        );
    }
    let (at, words) = qimage.static_data();
    let below = base.static_data().1.len();
    for (i, w) in words.iter().enumerate().skip(below) {
        let _ = writeln!(out, "static {} {w:?}", at.offset(i as i64));
    }
    out += &render_symbols(
        &symbols,
        base_symbols.atom_count(),
        base_symbols.functor_count(),
    );
    let _ = writeln!(out, "vars {vars:?}");
    out
}

fn render_all() -> String {
    let mut out = String::new();
    for p in programs::suite() {
        let (image, symbols) = compile(p.source);
        out += &render_program(p.name, &image, &symbols);
        out += &render_query(&image, &symbols, p.query);
        out += &render_query(&image, &symbols, p.starred_query);
        for (_, query) in SERVE_QUERIES.iter().filter(|(name, _)| *name == p.name) {
            out += &render_query(&image, &symbols, query);
        }
    }
    let (image, symbols) = compile(&kv_source());
    out += &render_program("kv", &image, &symbols);
    for query in [
        "kv(k5, V)",
        "kv(k4, V)",
        "kv(k8, w8)",
        "kv(K, v7)",
        "kv(pair, p(X, Y))",
    ]
    .into_iter()
    .chain(SHAPED_QUERIES)
    {
        out += &render_query(&image, &symbols, query);
    }
    for case in CORPUS {
        let (image, symbols) = compile(case.source);
        out += &render_program(case.name, &image, &symbols);
        out += &render_query(&image, &symbols, case.query);
    }
    out
}

#[test]
fn compiled_code_matches_the_golden_file() {
    golden::assert_matches(GOLDEN_PATH, &render_all());
}
