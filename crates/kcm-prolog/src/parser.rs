//! Operator-precedence parser for Prolog terms.

use crate::lexer::{LexError, Lexer, Token};
use crate::ops::{OpTable, OpType};
use crate::term::Term;

/// A syntax error with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based source line (0 when at end of input).
    pub line: u32,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "syntax error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            message: e.message,
            line: e.line,
        }
    }
}

/// The Prolog reader.
///
/// # Examples
///
/// ```
/// use kcm_prolog::Parser;
/// let t = Parser::new("X is 1 + 2 * 3").unwrap().parse_single_term().unwrap();
/// assert_eq!(t.to_string(), "is(X,+(1,*(2,3)))");
/// ```
#[derive(Debug)]
pub struct Parser {
    tokens: Vec<(Token, u32)>,
    pos: usize,
    ops: &'static OpTable,
    anon_counter: u32,
}

/// The standard operator table, built once per process and borrowed by
/// every parser: building its three maps took most of a short
/// `read_term`.
fn standard_ops() -> &'static OpTable {
    static OPS: std::sync::OnceLock<OpTable> = std::sync::OnceLock::new();
    OPS.get_or_init(OpTable::standard)
}

impl Parser {
    /// Tokenizes `src` and prepares a parser with the standard operator
    /// table.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] if tokenization fails.
    pub fn new(src: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            tokens: Lexer::tokenize(src)?,
            pos: 0,
            ops: standard_ops(),
            anon_counter: 0,
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1).map(|(t, _)| t)
    }

    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(0, |(_, l)| *l)
    }

    /// Takes the next token out (each position is consumed once, and
    /// [`Parser::line`] reads only line numbers), leaving a `Dot` behind.
    fn advance(&mut self) -> Option<Token> {
        let (t, _) = self.tokens.get_mut(self.pos)?;
        self.pos += 1;
        Some(std::mem::replace(t, Token::Dot))
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            line: self.line(),
        })
    }

    fn expect(&mut self, tok: &Token, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(tok) {
            self.pos += 1;
            Ok(())
        } else {
            self.error(format!("expected {what}, found {:?}", self.peek()))
        }
    }

    /// Parses a whole program: `.`-terminated clauses until end of input.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error encountered.
    pub fn parse_program(&mut self) -> Result<Vec<Term>, ParseError> {
        let mut clauses = Vec::new();
        while self.peek().is_some() {
            let t = self.parse(1200)?;
            self.expect(&Token::Dot, "'.' ending the clause")?;
            clauses.push(t);
        }
        Ok(clauses)
    }

    /// Parses exactly one term, allowing an optional trailing full stop.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed input or trailing tokens.
    pub fn parse_single_term(&mut self) -> Result<Term, ParseError> {
        let t = self.parse(1200)?;
        if self.peek() == Some(&Token::Dot) {
            self.pos += 1;
        }
        if self.peek().is_some() {
            return self.error(format!("unexpected trailing {:?}", self.peek()));
        }
        Ok(t)
    }

    /// Whether the next token can begin a term.
    fn starts_term(&self, tok: &Token) -> bool {
        matches!(
            tok,
            Token::Atom(_)
                | Token::Var(_)
                | Token::Int(_)
                | Token::Float(_)
                | Token::Str(_)
                | Token::LParen
                | Token::FunctorParen
                | Token::LBracket
                | Token::LBrace
        )
    }

    /// Operator-precedence parse with a maximum priority.
    fn parse(&mut self, max_prec: u16) -> Result<Term, ParseError> {
        let (mut left, mut left_prec) = self.parse_primary(max_prec)?;
        loop {
            // Comma acts as an infix operator only above priority 999.
            let def = match self.peek() {
                Some(Token::Comma) if max_prec >= 1000 => {
                    self.ops.infix(",").expect("',' in table")
                }
                // '|' at term level is an alias for ';'.
                Some(Token::Bar) if max_prec >= 1100 => self.ops.infix(";").expect("';' in table"),
                Some(Token::Atom(a)) => match self.ops.infix(a) {
                    Some(def) => def,
                    None => break,
                },
                _ => break,
            };
            if def.priority > max_prec {
                break;
            }
            let (left_max, right_max) = match def.op_type {
                OpType::Xfx => (def.priority - 1, def.priority - 1),
                OpType::Xfy => (def.priority - 1, def.priority),
                OpType::Yfx => (def.priority, def.priority - 1),
                _ => break,
            };
            if left_prec > left_max {
                break;
            }
            let name = match self.advance() {
                Some(Token::Atom(a)) => a,
                Some(Token::Comma) => ",".to_owned(),
                Some(Token::Bar) => ";".to_owned(),
                other => unreachable!("peeked an infix operator, took {other:?}"),
            };
            let right = self.parse(right_max)?;
            left = Term::Struct(name, vec![left, right]);
            left_prec = def.priority;
        }
        Ok((left, left_prec).0)
    }

    /// Parses a primary: literal, variable, compound, list, paren group or
    /// prefix-operator application. Returns the term and its priority.
    fn parse_primary(&mut self, max_prec: u16) -> Result<(Term, u16), ParseError> {
        let tok = match self.advance() {
            Some(t) => t,
            None => return self.error("unexpected end of input"),
        };
        match tok {
            Token::Int(v) => Ok((Term::Int(v), 0)),
            Token::Float(v) => Ok((Term::Float(v), 0)),
            Token::Var(name) => {
                if name == "_" {
                    self.anon_counter += 1;
                    Ok((Term::Var(format!("_G{}", self.anon_counter)), 0))
                } else {
                    Ok((Term::Var(name), 0))
                }
            }
            Token::Str(s) => {
                // Double-quoted string = list of character codes.
                let items = s.chars().map(|c| Term::Int(c as i32)).collect();
                Ok((Term::list(items, None), 0))
            }
            Token::LParen => {
                let t = self.parse(1200)?;
                self.expect(&Token::RParen, "')'")?;
                Ok((t, 0))
            }
            Token::LBrace => {
                if self.peek() == Some(&Token::RBrace) {
                    self.pos += 1;
                    return Ok((Term::Atom("{}".into()), 0));
                }
                let t = self.parse(1200)?;
                self.expect(&Token::RBrace, "'}'")?;
                Ok((Term::Struct("{}".into(), vec![t]), 0))
            }
            Token::LBracket => {
                if self.peek() == Some(&Token::RBracket) {
                    self.pos += 1;
                    return Ok((Term::nil(), 0));
                }
                let mut items = vec![self.parse(999)?];
                while self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                    items.push(self.parse(999)?);
                }
                let tail = if self.peek() == Some(&Token::Bar) {
                    self.pos += 1;
                    Some(self.parse(999)?)
                } else {
                    None
                };
                self.expect(&Token::RBracket, "']'")?;
                Ok((Term::list(items, tail), 0))
            }
            Token::Atom(name) => {
                // Compound term: atom immediately followed by '('.
                if self.peek() == Some(&Token::FunctorParen) {
                    self.pos += 1;
                    let mut args = vec![self.parse(999)?];
                    while self.peek() == Some(&Token::Comma) {
                        self.pos += 1;
                        args.push(self.parse(999)?);
                    }
                    self.expect(&Token::RParen, "')'")?;
                    return Ok((Term::Struct(name, args), 0));
                }
                // Prefix operator application.
                if let Some(def) = self.ops.prefix(&name) {
                    let arg_ok = self
                        .peek()
                        .is_some_and(|t| self.starts_term(t))
                        // An atom that is itself an infix operator cannot
                        // start the argument (e.g. `- =` is not a term) —
                        // unless it is also a prefix op or a plain atom
                        // argument followed by a non-term.
                        && !matches!(self.peek(), Some(Token::Atom(a))
                            if self.ops.infix(a).is_some()
                                && self.ops.prefix(a).is_none()
                                && self.peek2() != Some(&Token::FunctorParen));
                    if def.priority <= max_prec && arg_ok {
                        // Fold negative numeric literals.
                        if name == "-" {
                            if let Some(Token::Int(v)) = self.peek() {
                                let v = *v;
                                self.pos += 1;
                                return Ok((Term::Int(-v), 0));
                            }
                            if let Some(Token::Float(v)) = self.peek() {
                                let v = *v;
                                self.pos += 1;
                                return Ok((Term::Float(-v), 0));
                            }
                        }
                        let arg_max = match def.op_type {
                            OpType::Fy => def.priority,
                            _ => def.priority - 1,
                        };
                        let arg = self.parse(arg_max)?;
                        return Ok((Term::Struct(name, vec![arg]), def.priority));
                    }
                }
                Ok((Term::Atom(name), 0))
            }
            other => self.error(format!("unexpected {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Term {
        Parser::new(src).unwrap().parse_single_term().unwrap()
    }

    #[test]
    fn precedence_of_arithmetic() {
        assert_eq!(parse("1+2*3").to_string(), "+(1,*(2,3))");
        assert_eq!(parse("(1+2)*3").to_string(), "*(+(1,2),3)");
        assert_eq!(parse("1-2-3").to_string(), "-(-(1,2),3)"); // yfx
        assert_eq!(parse("2^3^4").to_string(), "^(2,^(3,4))"); // xfy
    }

    #[test]
    fn clause_structure() {
        let t = parse("a :- b, c");
        assert_eq!(t.to_string(), ":-(a,','(b,c))");
    }

    #[test]
    fn comma_right_associates() {
        let t = parse("a :- b, c, d");
        assert_eq!(t.to_string(), ":-(a,','(b,','(c,d)))");
    }

    #[test]
    fn if_then_else() {
        let t = parse("a :- (b -> c ; d)");
        assert_eq!(t.to_string(), ":-(a,;(->(b,c),d))");
    }

    #[test]
    fn lists_parse() {
        assert_eq!(parse("[]").to_string(), "[]");
        assert_eq!(parse("[1,2|T]").to_string(), "[1,2|T]");
        assert_eq!(parse("[a]").to_string(), "[a]");
        // Comma inside a list element must bind tighter than the list
        // separator: [a,b] has two elements, [(a,b)] has one.
        assert_eq!(parse("[(a,b)]").list_elements().unwrap().len(), 1);
        assert_eq!(parse("[a,b]").list_elements().unwrap().len(), 2);
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(parse("-5"), Term::Int(-5));
        assert_eq!(parse("3 - -5").to_string(), "-(3,-5)");
        assert_eq!(parse("-(5)").to_string(), "-(5)"); // explicit compound
        assert_eq!(parse("- a").to_string(), "-(a)");
    }

    #[test]
    fn compound_terms() {
        assert_eq!(parse("f(g(X), [1], h)").to_string(), "f(g(X),[1],h)");
    }

    #[test]
    fn anonymous_vars_are_distinct() {
        let t = parse("f(_, _)");
        let vars = t.variables();
        assert_eq!(vars.len(), 2);
        assert_ne!(vars[0], vars[1]);
    }

    #[test]
    fn operator_as_functor() {
        assert_eq!(parse("=(a,b)").to_string(), "=(a,b)");
        assert_eq!(parse("-(a,b)").to_string(), "-(a,b)");
    }

    #[test]
    fn is_expression() {
        assert_eq!(parse("X is N - 1").to_string(), "is(X,-(N,1))");
    }

    #[test]
    fn cut_in_body() {
        assert_eq!(parse("a :- !, b").to_string(), ":-(a,','(!,b))");
    }

    #[test]
    fn strings_become_code_lists() {
        assert_eq!(parse("\"ab\"").to_string(), "[97,98]");
    }

    #[test]
    fn priority_violations_error() {
        // Two infix operators in a row.
        assert!(Parser::new("a = = b").unwrap().parse_single_term().is_err());
        // Unbalanced parens.
        assert!(Parser::new("f(a").unwrap().parse_single_term().is_err());
    }

    #[test]
    fn program_of_clauses() {
        let p = Parser::new("nrev([],[]). nrev([H|T],R) :- nrev(T,RT), append(RT,[H],R).")
            .unwrap()
            .parse_program()
            .unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p[1].functor_name(), Some(":-"));
    }

    #[test]
    fn missing_dot_is_an_error() {
        assert!(Parser::new("a :- b").unwrap().parse_program().is_err());
    }
}
