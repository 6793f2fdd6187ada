//! Allocation budget of query compilation: how many heap allocations
//! `compile_query` makes for a served-read-sized query, counted exactly
//! by a global allocator that tallies `alloc` and `realloc` calls on the
//! calling thread.
//!
//! Compiling is the host's share of every served read (it runs once per
//! request), and a count repeats exactly where a time does not. The
//! budgets are half of what the compiler made before it borrowed the
//! parsed goal instead of copying it at every pass (94 allocations for
//! the lookup, 221 for the `nrev` query).

use kcm_arch::SymbolTable;
use kcm_compiler::{compile_program, compile_query, CodeImage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocation calls made by the current thread. `const`-initialised
    /// and without a destructor, so touching it never allocates.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc` and `realloc` calls per thread
/// (`alloc_zeroed` reaches `alloc` through its default body).
struct Counting;

fn count() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it touches only a
// destructor-free thread-local, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Compiles `src` as a program whose symbol table is frozen, as a
/// published program's is.
fn program(src: &str) -> (Arc<CodeImage>, SymbolTable) {
    let clauses = kcm_prolog::read_program(src).expect("program parses");
    let mut symbols = SymbolTable::new();
    let image = compile_program(&clauses, &mut symbols).expect("program compiles");
    symbols.freeze();
    (Arc::new(image), symbols)
}

/// The allocations one `compile_query` of `query` makes: parsing, the
/// symbol-table clone and dropping the result stay outside the count,
/// and a first compile settles any lazily built state.
fn compile_allocs(image: &Arc<CodeImage>, symbols: &SymbolTable, query: &str) -> u64 {
    let goal = kcm_prolog::read_term(query).expect("query parses");
    let compile = || {
        let mut symbols = symbols.clone();
        let before = CALLS.with(Cell::get);
        let compiled = compile_query(image, &goal, &mut symbols).expect("query compiles");
        let calls = CALLS.with(Cell::get) - before;
        drop(compiled);
        calls
    };
    compile();
    compile()
}

/// Fails unless `calls` is at most half of `before`, the count while the
/// compiler copied the goal, printing both counts.
fn assert_halved(what: &str, calls: u64, before: u64) {
    assert!(
        calls <= before / 2,
        "compile_query of {what} made {calls} allocations; it made {before} while it \
         copied the goal, and the budget is half that"
    );
}

#[test]
fn fact_lookup_compiles_within_budget() {
    let src: String = (0..1000).map(|i| format!("kv(k{i}, v{i}).\n")).collect();
    let (image, symbols) = program(&src);
    assert_halved(
        "kv(k42, V) on 10^3 facts",
        compile_allocs(&image, &symbols, "kv(k42, V)"),
        94,
    );
}

#[test]
fn nrev_query_compiles_within_budget() {
    let (image, symbols) = program(kcm_suite::programs::NREV1.source);
    assert_halved(
        "the nrev query on nrev1",
        compile_allocs(&image, &symbols, "nrev([1,2,3,4,5,6,7,8,9,10], R)"),
        221,
    );
}
