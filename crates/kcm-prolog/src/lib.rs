//! The Prolog front end of the KCM reproduction.
//!
//! The real KCM system compiled Prolog with the SEPIA tool chain running on
//! the UNIX host (paper §1, §4). This crate is the reader part of that tool
//! chain: a tokenizer, a standard operator table and an operator-precedence
//! parser producing [`Term`]s, which the compiler crate then translates to
//! KCM code.
//!
//! # Examples
//!
//! ```
//! use kcm_prolog::{read_program, Term};
//!
//! # fn main() -> Result<(), kcm_prolog::ParseError> {
//! let clauses = read_program("append([], L, L). append([H|T], L, [H|R]) :- append(T, L, R).")?;
//! assert_eq!(clauses.len(), 2);
//! assert_eq!(clauses[0].functor_name(), Some("append"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod lexer;
pub mod ops;
pub mod parser;
pub mod term;

pub use lexer::{LexError, Lexer, Token};
pub use ops::{OpTable, OpType};
pub use parser::{ParseError, Parser};
pub use term::{Term, MAX_DEPTH};

/// Reads a complete Prolog program: a sequence of `.`-terminated clauses.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error, with line
/// information.
pub fn read_program(src: &str) -> Result<Vec<Term>, ParseError> {
    Parser::new(src)?.parse_program()
}

/// Reads a single term (without the terminating full stop).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing tokens.
pub fn read_term(src: &str) -> Result<Term, ParseError> {
    Parser::new(src)?.parse_single_term()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_program_counts_clauses() {
        let p = read_program("a. b :- a. c(1). % comment\n d.").unwrap();
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn read_term_rejects_trailing_garbage() {
        assert!(read_term("foo(X) bar").is_err());
    }
}
