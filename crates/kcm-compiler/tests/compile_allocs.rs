//! Allocation budget of query compilation: how many heap allocations
//! `compile_query` makes for a served-read-sized query, counted exactly
//! by a global allocator that tallies `alloc` and `realloc` calls on the
//! calling thread.
//!
//! Compiling is the host's share of every served read (it runs once per
//! request), and a count repeats exactly where a time does not. A query
//! whose shape was compiled on the image before is a *hit*: a copy of
//! that code with its atoms written in. Its budgets are what the copy
//! needs (the overlay's tables, entry and size records, and the reported
//! variables). A *miss* compiles the shape once and keeps it; its
//! budgets are twice what a direct compile made before the table of
//! shapes (35 allocations for the lookup, 72 for the `nrev` query).

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

/// The allocations one `compile_query` of `query` on `image` makes:
/// parsing, the symbol-table clone and dropping the result stay outside
/// the count.
fn compile_allocs(image: &Arc<CodeImage>, symbols: &SymbolTable, query: &str) -> u64 {
    let goal = kcm_prolog::read_term(query).expect("query parses");
    let mut symbols = symbols.clone();
    let before = CALLS.with(Cell::get);
    let compiled = compile_query(image, &goal, &mut symbols).expect("query compiles");
    let calls = CALLS.with(Cell::get) - before;
    drop(compiled);
    calls
}

/// Fails unless a miss of `query` — compiled on a copy of `image`, whose
/// table of shapes is empty, after a first miss on another copy settles
/// this thread's reused buffers — makes at most twice `direct`, the
/// count of a direct compile before the table. A debug build also
/// compiles every miss directly to check it, so there the budget allows
/// one more direct compile.
fn assert_miss(image: &Arc<CodeImage>, symbols: &SymbolTable, query: &str, direct: u64) {
    let fresh = || Arc::new(CodeImage::clone(image));
    compile_allocs(&fresh(), symbols, query);
    let calls = compile_allocs(&fresh(), symbols, query);
    let budget = 2 * direct + if cfg!(debug_assertions) { direct } else { 0 };
    assert!(
        calls <= budget,
        "a miss of {query} made {calls} allocations; a direct compile made {direct}, and \
         the budget is {budget}"
    );
}

/// Fails unless a hit of `query`, compiled after `first` on `image`,
/// makes at most `budget` allocations.
fn assert_hit(
    image: &Arc<CodeImage>,
    symbols: &SymbolTable,
    first: &str,
    query: &str,
    budget: u64,
) {
    compile_allocs(image, symbols, first);
    let hits = image.shape_stats().hits;
    let calls = compile_allocs(image, symbols, query);
    assert_eq!(
        image.shape_stats().hits,
        hits + 1,
        "{query} after {first} is a hit"
    );
    assert!(
        calls <= budget,
        "a hit of {query} made {calls} allocations; the budget is {budget}"
    );
}

fn kv_program() -> (Arc<CodeImage>, SymbolTable) {
    let src: String = (0..1000).map(|i| format!("kv(k{i}, v{i}).\n")).collect();
    program(&src)
}

const NREV: &str = "nrev([1,2,3,4,5,6,7,8,9,10], R)";

#[test]
fn fact_lookup_hits_within_budget() {
    let (image, symbols) = kv_program();
    assert_hit(&image, &symbols, "kv(k42, V)", "kv(k43, V)", 12);
}

#[test]
fn nrev_query_hits_within_budget() {
    let (image, symbols) = program(kcm_suite::programs::NREV1.source);
    assert_hit(&image, &symbols, NREV, NREV, 14);
}

#[test]
fn fact_lookup_misses_within_budget() {
    let (image, symbols) = kv_program();
    assert_miss(&image, &symbols, "kv(k42, V)", 35);
}

#[test]
fn nrev_query_misses_within_budget() {
    let (image, symbols) = program(kcm_suite::programs::NREV1.source);
    assert_miss(&image, &symbols, NREV, 72);
}
