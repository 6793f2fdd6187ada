//! The Prolog-to-KCM compiler tool chain.
//!
//! The paper's benchmark programs "were compiled and assembled on the host
//! with integer arithmetic and static linking" (§4). This crate is that
//! tool chain:
//!
//! * [`ir`] — clause normalisation: control constructs (`;`, `->`, `\+`)
//!   become auxiliary predicates, bodies become flat goal lists.
//! * [`builtins`] — classification of goals into user calls, escapes to
//!   the host (§2.1), and natively inlined arithmetic (the "integer
//!   arithmetic" compilation mode of §4).
//! * [`arith`] — inline compilation of arithmetic expressions onto the
//!   ALU/FPU.
//! * [`clause`] — WAM-style clause compilation with KCM's deferred
//!   choice-point discipline: heads build only temporaries, `neck` marks
//!   the head/guard boundary (§3.1.5), environments are allocated after
//!   the neck.
//! * [`index`] — first-argument indexing: `switch_on_term`,
//!   `switch_on_constant`, `switch_on_structure` and try/retry/trust
//!   chains (§4.2 credits `query`'s 10× win to "the efficiency of KCM
//!   indexing").
//! * [`asm`] — the macro assembler: symbolic code with labels → absolute
//!   64-bit instruction words (all KCM branches are absolute, §3.1.3).
//! * [`link`] — static linker and loader producing a [`CodeImage`].
//!
//! # Examples
//!
//! ```
//! use kcm_compiler::compile_program;
//! use kcm_arch::SymbolTable;
//!
//! # fn main() -> Result<(), kcm_compiler::CompileError> {
//! let clauses = kcm_prolog::read_program(
//!     "append([], L, L). append([H|T], L, [H|R]) :- append(T, L, R).",
//! ).unwrap();
//! let mut symbols = SymbolTable::new();
//! let image = compile_program(&clauses, &mut symbols)?;
//! assert!(image.entry("append", 3).is_some());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod arith;
pub mod asm;
pub mod builtins;
pub mod clause;
pub mod index;
pub mod ir;
pub mod kasm;
pub mod link;
mod shape;

pub use asm::AsmItem;
pub use builtins::GoalKind;
pub use clause::MAX_ARITY;
pub use ir::{clause_pred, Clause, Goal, PredId, Predicate, Program};
pub use kasm::{parse_kasm, KasmError};
pub use link::{compile_fact, CodeImage, FactCode, Linker, PredSize};

use kcm_arch::SymbolTable;
use kcm_prolog::Term;

pub use kcm_arch::CompileOptions;

/// A compilation error.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A clause head is not callable (a variable or a number).
    BadClauseHead(String),
    /// Directives are not supported by the static tool chain.
    UnsupportedDirective(String),
    /// The clause needs more than the 64 registers of the register file.
    OutOfRegisters {
        /// The predicate being compiled.
        pred: String,
    },
    /// Predicate arity exceeds the argument-register convention (A1..A16).
    ArityTooLarge {
        /// The predicate being compiled.
        pred: String,
        /// Its arity.
        arity: usize,
    },
    /// More than 255 permanent variables in one clause.
    TooManyPermanents {
        /// The predicate being compiled.
        pred: String,
    },
    /// A query has more free variables than can be reported (A1..A16).
    TooManyQueryVars(usize),
    /// assert/retract and other dynamic-code predicates are not linked
    /// into the runtime library (the paper's library omits them too, §4).
    DynamicCodeUnsupported(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::BadClauseHead(t) => write!(f, "clause head is not callable: {t}"),
            CompileError::UnsupportedDirective(t) => write!(f, "unsupported directive: {t}"),
            CompileError::OutOfRegisters { pred } => {
                write!(f, "clause of {pred} exceeds the 64-register file")
            }
            CompileError::ArityTooLarge { pred, arity } => {
                write!(f, "{pred}/{arity} exceeds the A1..A16 argument convention")
            }
            CompileError::TooManyPermanents { pred } => {
                write!(f, "clause of {pred} has more than 255 permanent variables")
            }
            CompileError::TooManyQueryVars(n) => {
                write!(f, "query has {n} variables; at most 16 can be reported")
            }
            CompileError::DynamicCodeUnsupported(p) => {
                write!(f, "dynamic code predicate not in the runtime library: {p}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Compiles a program (a list of clause terms as read by
/// [`kcm_prolog::read_program`]) into a loaded code image.
///
/// # Errors
///
/// Returns a [`CompileError`] for malformed clauses or resource overflows.
pub fn compile_program(
    clauses: &[Term],
    symbols: &mut SymbolTable,
) -> Result<CodeImage, CompileError> {
    compile_program_with(clauses, symbols, &CompileOptions::default())
}

/// Like [`compile_program`] with explicit target options (used by the
/// baseline machine models).
///
/// # Errors
///
/// Same conditions as [`compile_program`].
pub fn compile_program_with(
    clauses: &[Term],
    symbols: &mut SymbolTable,
    options: &CompileOptions,
) -> Result<CodeImage, CompileError> {
    let program = ir::Program::from_clauses(clauses)?;
    Linker::new().link_with(&program, symbols, options)
}

/// Compiles a query goal (e.g. parsed from `"append(X, Y, [1,2])"`) against
/// an existing image, producing a query overlay on it with a `$query/0`
/// entry that reports the bindings of the query's variables. The program
/// image is shared, not copied: the cost is O(query).
///
/// Returns the overlay and the names of the reported variables, in
/// reporting order (A1..An of the `ReportSolution` escape).
///
/// # Errors
///
/// Returns a [`CompileError`] if the query is malformed or has more than 16
/// free variables.
pub fn compile_query(
    image: &std::sync::Arc<CodeImage>,
    goal: &Term,
    symbols: &mut SymbolTable,
) -> Result<(CodeImage, Vec<String>), CompileError> {
    Linker::link_query(image, goal, symbols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_compile() {
        let clauses = kcm_prolog::read_program("p(1). p(2). q(X) :- p(X).").unwrap();
        let mut symbols = SymbolTable::new();
        let image = compile_program(&clauses, &mut symbols).unwrap();
        assert!(image.entry("p", 1).is_some());
        assert!(image.entry("q", 1).is_some());
        assert!(image.entry("p", 2).is_none());
    }

    #[test]
    fn bad_head_is_rejected() {
        let clauses = kcm_prolog::read_program("123.").unwrap();
        let mut symbols = SymbolTable::new();
        assert!(matches!(
            compile_program(&clauses, &mut symbols),
            Err(CompileError::BadClauseHead(_))
        ));
    }
}
