//! Operator-precedence parser for Prolog terms.

use crate::lexer::{LexError, Lexer, Token};
use crate::ops::{OpTable, OpType};
use crate::term::{Term, MAX_DEPTH};

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
    /// How deep the term being read is nested here: each argument, list
    /// cell, parenthesis and operator operand is one level.
    depth: usize,
    /// The deepest level the term being read reaches so far.
    deepest: usize,
    /// The constructs the reader is inside, innermost last, each with
    /// the parse it belongs to.
    frames: Vec<(Scope, Frame)>,
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
            depth: 0,
            deepest: 0,
            frames: Vec::new(),
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

    /// Operator-precedence parse with a maximum priority, at the current
    /// nesting.
    ///
    /// The reader keeps the constructs it is inside on a stack of its own
    /// ([`Frame`]) rather than on the host's, so a term costs no host
    /// stack however deep it nests; [`MAX_DEPTH`] bounds what it builds.
    fn parse(&mut self, max_prec: u16) -> Result<Term, ParseError> {
        self.frames.clear();
        let mut step = Step::Begin(max_prec);
        loop {
            step = match step {
                Step::Begin(max_prec) => {
                    if self.depth > MAX_DEPTH {
                        return self.too_deep();
                    }
                    let outer = std::mem::replace(&mut self.deepest, self.depth);
                    self.primary(Scope { max_prec, outer })?
                }
                Step::Done(t) if self.frames.is_empty() => return Ok(t),
                Step::Done(t) => self.resume(t)?,
            };
        }
    }

    #[cold]
    fn too_deep<T>(&self) -> Result<T, ParseError> {
        self.error(format!("term nested deeper than {MAX_DEPTH} levels"))
    }

    /// Opens `frame` of the parse `scope` around a term of at most
    /// `max_prec` one level deeper.
    fn open(&mut self, scope: Scope, frame: Frame, max_prec: u16) -> Step {
        self.frames.push((scope, frame));
        self.depth += 1;
        Step::Begin(max_prec)
    }

    /// Reads a primary of the parse `scope`: literal, variable, or the
    /// start of a compound, list, paren group or prefix-operator
    /// application.
    fn primary(&mut self, scope: Scope) -> Result<Step, ParseError> {
        let tok = match self.advance() {
            Some(t) => t,
            None => return self.error("unexpected end of input"),
        };
        let leaf = match tok {
            Token::Int(v) => Term::Int(v),
            Token::Float(v) => Term::Float(v),
            Token::Var(name) => {
                if name == "_" {
                    self.anon_counter += 1;
                    Term::Var(format!("_G{}", self.anon_counter))
                } else {
                    Term::Var(name)
                }
            }
            Token::Str(s) => {
                // Double-quoted string = list of character codes.
                let len = s.chars().count();
                if self.depth + len > MAX_DEPTH {
                    return self.too_deep();
                }
                self.deepest = self.deepest.max(self.depth + len);
                Term::list(s.chars().map(|c| Term::Int(c as i32)).collect(), None)
            }
            Token::LParen => return Ok(self.open(scope, Frame::Paren, 1200)),
            Token::LBrace => {
                if self.peek() != Some(&Token::RBrace) {
                    return Ok(self.open(scope, Frame::Braces, 1200));
                }
                self.pos += 1;
                Term::Atom("{}".into())
            }
            Token::LBracket => {
                if self.peek() != Some(&Token::RBracket) {
                    let frame = Frame::List(Vec::new(), self.depth);
                    return Ok(self.open(scope, frame, 999));
                }
                self.pos += 1;
                Term::nil()
            }
            Token::Atom(name) => {
                // Compound term: atom immediately followed by '('.
                if self.peek() == Some(&Token::FunctorParen) {
                    self.pos += 1;
                    return Ok(self.open(scope, Frame::Args(name, Vec::new()), 999));
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
                    if def.priority <= scope.max_prec && arg_ok {
                        // Fold negative numeric literals.
                        if name == "-" {
                            if let Some(&Token::Int(v)) = self.peek() {
                                self.pos += 1;
                                return self.operator(Term::Int(-v), 0, scope);
                            }
                            if let Some(&Token::Float(v)) = self.peek() {
                                self.pos += 1;
                                return self.operator(Term::Float(-v), 0, scope);
                            }
                        }
                        let arg_max = match def.op_type {
                            OpType::Fy => def.priority,
                            _ => def.priority - 1,
                        };
                        let frame = Frame::Prefix(name, def.priority);
                        return Ok(self.open(scope, frame, arg_max));
                    }
                }
                Term::Atom(name)
            }
            other => return self.error(format!("unexpected {other:?}")),
        };
        self.operator(leaf, 0, scope)
    }

    /// After a primary or an operator term `left` of priority
    /// `left_prec`: reads the next infix operator of the parse `scope` if
    /// it binds here, else finishes that parse with `left`.
    fn operator(&mut self, left: Term, left_prec: u16, scope: Scope) -> Result<Step, ParseError> {
        let max_prec = scope.max_prec;
        // Comma acts as an infix operator only above priority 999.
        let def = match self.peek() {
            Some(Token::Comma) if max_prec >= 1000 => self.ops.infix(","),
            // '|' at term level is an alias for ';'.
            Some(Token::Bar) if max_prec >= 1100 => self.ops.infix(";"),
            Some(Token::Atom(a)) => self.ops.infix(a),
            _ => None,
        };
        let bounds = def.filter(|def| def.priority <= max_prec).and_then(|def| {
            let (left_max, right_max) = match def.op_type {
                OpType::Xfx => (def.priority - 1, def.priority - 1),
                OpType::Xfy => (def.priority - 1, def.priority),
                OpType::Yfx => (def.priority, def.priority - 1),
                _ => return None,
            };
            (left_prec <= left_max).then_some((def.priority, right_max))
        });
        let Some((priority, right_max)) = bounds else {
            self.deepest = self.deepest.max(scope.outer);
            return Ok(Step::Done(left));
        };
        let name = match self.advance() {
            Some(Token::Atom(a)) => a,
            Some(Token::Comma) => ",".to_owned(),
            Some(Token::Bar) => ";".to_owned(),
            other => unreachable!("peeked an infix operator, took {other:?}"),
        };
        // The operator's term holds everything read so far one level
        // deeper.
        self.deepest += 1;
        if self.deepest > MAX_DEPTH {
            return self.too_deep();
        }
        Ok(self.open(scope, Frame::Operator(left, name, priority), right_max))
    }

    /// Hands the term `t` just read to the innermost construct.
    fn resume(&mut self, t: Term) -> Result<Step, ParseError> {
        // Another argument or list element: the construct stays open.
        if self.peek() == Some(&Token::Comma) {
            match self.frames.last_mut() {
                Some((_, Frame::Args(_, args))) => {
                    args.push(t);
                    self.pos += 1;
                    return Ok(Step::Begin(999));
                }
                // Element `i` sits in the list's `i`-th cell, `i + 1`
                // levels below the list, and the tail in the last cell.
                Some((_, Frame::List(items, _))) => {
                    items.push(t);
                    self.pos += 1;
                    self.depth += 1;
                    return Ok(Step::Begin(999));
                }
                _ => {}
            }
        }
        let (scope, frame) = self.frames.pop().expect("a construct to resume");
        let (primary, prec) = match frame {
            Frame::Operator(left, name, priority) => {
                self.depth -= 1;
                (Term::Struct(name, vec![left, t]), priority)
            }
            Frame::Paren => {
                self.depth -= 1;
                self.expect(&Token::RParen, "')'")?;
                (t, 0)
            }
            Frame::Braces => {
                self.depth -= 1;
                self.expect(&Token::RBrace, "'}'")?;
                (Term::Struct("{}".into(), vec![t]), 0)
            }
            Frame::Args(name, mut args) => {
                self.depth -= 1;
                args.push(t);
                self.expect(&Token::RParen, "')'")?;
                (Term::Struct(name, args), 0)
            }
            Frame::List(mut items, depth) => {
                items.push(t);
                if self.peek() == Some(&Token::Bar) {
                    self.pos += 1;
                    self.frames.push((scope, Frame::Tail(items, depth)));
                    return Ok(Step::Begin(999));
                }
                self.depth = depth;
                self.expect(&Token::RBracket, "']'")?;
                (Term::list(items, None), 0)
            }
            Frame::Tail(items, depth) => {
                self.depth = depth;
                self.expect(&Token::RBracket, "']'")?;
                (Term::list(items, Some(t)), 0)
            }
            Frame::Prefix(name, priority) => {
                self.depth -= 1;
                (Term::Struct(name, vec![t]), priority)
            }
        };
        self.operator(primary, prec, scope)
    }
}

/// An operator-precedence parse: its maximum priority, and the
/// enclosing term's deepest level.
#[derive(Debug, Clone, Copy)]
struct Scope {
    max_prec: u16,
    outer: usize,
}

/// The reader's next move.
enum Step {
    /// Start a term of at most this priority.
    Begin(u16),
    /// The innermost parse finished with this term.
    Done(Term),
}

/// A construct the reader is inside, waiting for the term read within
/// it.
#[derive(Debug)]
enum Frame {
    /// The left operand, and the infix operator of this priority whose
    /// right operand is being read.
    Operator(Term, String, u16),
    /// `(`, closed by `)`.
    Paren,
    /// `{`, closed by `}`: the term `{}(T)`.
    Braces,
    /// `name(` and the arguments read so far.
    Args(String, Vec<Term>),
    /// `[`, the elements read so far, and the nesting of the list.
    List(Vec<Term>, usize),
    /// `[…|`, reading the tail.
    Tail(Vec<Term>, usize),
    /// A prefix operator of this priority, reading its argument.
    Prefix(String, u16),
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

    /// One term of each way of nesting, `n` levels deep.
    fn nestings(n: usize) -> Vec<(&'static str, String)> {
        let ints = |sep: &str| (0..=n).map(|i| i.to_string()).collect::<Vec<_>>().join(sep);
        vec![
            ("arguments", format!("{}a{}", "f(".repeat(n), ")".repeat(n))),
            (
                "parentheses",
                format!("{}a{}", "(".repeat(n), ")".repeat(n)),
            ),
            ("braces", format!("{}a{}", "{".repeat(n), "}".repeat(n))),
            ("prefix operands", format!("{}a", "\\+ ".repeat(n))),
            ("left operands", ints("+")),
            ("right operands", ints("^")),
            ("list cells", format!("[{}]", ints(",")[2..].to_owned())),
            ("a list tail", format!("[{}|T]", ints(",")[2..].to_owned())),
            ("string codes", format!("\"{}\"", "x".repeat(n))),
            // `b` sits in `h`'s argument, in the tail of a one-cell list,
            // inside `g`'s arguments.
            (
                "mixed",
                format!(
                    "{}[a|{}b{}]{}",
                    "g(".repeat(n / 2),
                    "h(".repeat(n - n / 2 - 1),
                    ")".repeat(n - n / 2 - 1),
                    ")".repeat(n / 2)
                ),
            ),
        ]
    }

    #[test]
    fn terms_nest_up_to_the_bound() {
        for (how, src) in nestings(MAX_DEPTH) {
            assert!(read(&src).is_ok(), "{how} at the bound");
        }
        for (how, src) in nestings(MAX_DEPTH + 1) {
            let err = read(&src).expect_err(how);
            assert!(err.message.contains("nested deeper"), "{how}: {err}");
        }
        // A long list fails fast: no element past the bound is read.
        let long = format!("p([{}])", vec!["1"; 100_000].join(","));
        assert!(read(&long).is_err());
    }

    fn read(src: &str) -> Result<Term, ParseError> {
        Parser::new(src)?.parse_single_term()
    }
}
