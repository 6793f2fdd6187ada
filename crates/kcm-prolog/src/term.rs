//! Prolog terms as read by the front end.
//!
//! Lists are represented in the classic way: `'.'(Head, Tail)` structures
//! terminated by the atom `[]`. The KCM machine gives both the cons cell
//! and nil their own type tags; the compiler performs that mapping.

/// A source-level Prolog term.
///
/// # Examples
///
/// ```
/// use kcm_prolog::Term;
/// let t = Term::list(vec![Term::Int(1), Term::Int(2)], None);
/// assert_eq!(t.to_string(), "[1,2]");
/// assert!(t.is_proper_list());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// A named variable. The parser renames each occurrence of `_` apart.
    Var(String),
    /// An atom. `[]` is the empty list.
    Atom(String),
    /// A 32-bit integer (the machine's native integer width).
    Int(i32),
    /// A 32-bit float (the machine's IEEE single format).
    Float(f32),
    /// A compound term: functor name and arguments (arity ≥ 1).
    Struct(String, Vec<Term>),
}

use std::collections::HashSet;

/// The list constructor functor name.
pub const CONS: &str = ".";

/// The empty-list atom name.
pub const NIL: &str = "[]";

/// The deepest a term may nest: the reader refuses deeper source, and
/// the machine's term decoder deeper heap terms.
///
/// Compiling, printing, comparing and dropping a [`Term`] recurse on the
/// host stack once per level, so the bound keeps them well inside the
/// smallest stack the system runs on (a 2 MiB thread, with debug-build
/// frame sizes). The deepest legitimate term in the tree is the scaling
/// bench's 600-cell list; rational trees from occurs-check-free
/// unification (`X = [X|X]`) are unbounded and must fault, not overflow.
pub const MAX_DEPTH: usize = 1_000;

impl Term {
    /// Builds a (possibly partial) list from items and an optional tail.
    /// Without a tail the list is proper (nil-terminated).
    pub fn list(items: Vec<Term>, tail: Option<Term>) -> Term {
        let mut t = tail.unwrap_or(Term::Atom(NIL.to_owned()));
        for item in items.into_iter().rev() {
            t = Term::Struct(CONS.to_owned(), vec![item, t]);
        }
        t
    }

    /// The empty list.
    pub fn nil() -> Term {
        Term::Atom(NIL.to_owned())
    }

    /// A cons cell.
    pub fn cons(head: Term, tail: Term) -> Term {
        Term::Struct(CONS.to_owned(), vec![head, tail])
    }

    /// The functor name of an atom or structure.
    pub fn functor_name(&self) -> Option<&str> {
        match self {
            Term::Atom(n) => Some(n),
            Term::Struct(n, _) => Some(n),
            _ => None,
        }
    }

    /// The arity (0 for atoms and non-compound terms).
    pub fn arity(&self) -> usize {
        match self {
            Term::Struct(_, args) => args.len(),
            _ => 0,
        }
    }

    /// Whether the term is the empty list.
    pub fn is_nil(&self) -> bool {
        matches!(self, Term::Atom(n) if n == NIL)
    }

    /// Whether the term is a cons cell.
    pub fn is_cons(&self) -> bool {
        matches!(self, Term::Struct(n, args) if n == CONS && args.len() == 2)
    }

    /// Whether the term is a proper (nil-terminated, variable-free-spine)
    /// list.
    pub fn is_proper_list(&self) -> bool {
        let mut t = self;
        loop {
            match t {
                Term::Atom(n) if n == NIL => return true,
                Term::Struct(n, args) if n == CONS && args.len() == 2 => t = &args[1],
                _ => return false,
            }
        }
    }

    /// Collects the elements of a proper list; `None` if not proper.
    pub fn list_elements(&self) -> Option<Vec<&Term>> {
        let mut out = Vec::new();
        let mut t = self;
        loop {
            match t {
                Term::Atom(n) if n == NIL => return Some(out),
                Term::Struct(n, args) if n == CONS && args.len() == 2 => {
                    out.push(&args[0]);
                    t = &args[1];
                }
                _ => return None,
            }
        }
    }

    /// Whether the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Struct(_, args) => args.iter().all(Term::is_ground),
            _ => true,
        }
    }

    /// All variable names in the term, left-to-right, first occurrence
    /// only.
    pub fn variables(&self) -> Vec<&str> {
        let mut vars = Vec::new();
        self.collect_variables(&mut HashSet::new(), &mut vars);
        vars
    }

    /// Appends the term's variable names that are not in `seen` to `out`,
    /// left-to-right, first occurrence only, and adds them to `seen`.
    /// Linear in the term, and recursion deepens only through non-last
    /// arguments, so a long list costs no stack.
    pub fn collect_variables<'a>(&'a self, seen: &mut HashSet<&'a str>, out: &mut Vec<&'a str>) {
        let mut t = self;
        loop {
            match t {
                Term::Var(v) => {
                    if seen.insert(v) {
                        out.push(v);
                    }
                    return;
                }
                Term::Struct(_, args) => {
                    let Some((last, rest)) = args.split_last() else {
                        return;
                    };
                    for a in rest {
                        a.collect_variables(seen, out);
                    }
                    t = last;
                }
                _ => return,
            }
        }
    }
}

fn atom_needs_quotes(name: &str) -> bool {
    if name.is_empty() {
        return true;
    }
    if name == NIL || name == "!" || name == ";" || name == "{}" || name == CONS {
        return false;
    }
    let mut chars = name.chars();
    let first = chars.next().expect("non-empty");
    if first.is_ascii_lowercase() {
        return !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    }
    const SYMBOLIC: &str = "+-*/\\^<>=~:.?@#&$";
    !name.chars().all(|c| SYMBOLIC.contains(c))
}

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Atom(a) => {
                if atom_needs_quotes(a) {
                    write!(f, "'{}'", a.replace('\'', "\\'"))
                } else {
                    write!(f, "{a}")
                }
            }
            Term::Int(i) => write!(f, "{i}"),
            Term::Float(x) => write!(f, "{x:?}"),
            Term::Struct(n, args) if n == CONS && args.len() == 2 => {
                write!(f, "[{}", args[0])?;
                let mut t = &args[1];
                loop {
                    match t {
                        Term::Atom(n) if n == NIL => break,
                        Term::Struct(n, args) if n == CONS && args.len() == 2 => {
                            write!(f, ",{}", args[0])?;
                            t = &args[1];
                        }
                        other => {
                            write!(f, "|{other}")?;
                            break;
                        }
                    }
                }
                write!(f, "]")
            }
            Term::Struct(n, args) => {
                if atom_needs_quotes(n) {
                    write!(f, "'{}'(", n.replace('\'', "\\'"))?;
                } else {
                    write!(f, "{n}(")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_construction_and_elements() {
        let l = Term::list(vec![Term::Int(1), Term::Atom("a".into())], None);
        assert!(l.is_proper_list());
        let es = l.list_elements().unwrap();
        assert_eq!(es.len(), 2);
        assert_eq!(es[0], &Term::Int(1));
    }

    #[test]
    fn partial_list_is_not_proper() {
        let l = Term::list(vec![Term::Int(1)], Some(Term::Var("T".into())));
        assert!(!l.is_proper_list());
        assert_eq!(l.list_elements(), None);
        assert_eq!(l.to_string(), "[1|T]");
    }

    #[test]
    fn display_round_shapes() {
        assert_eq!(Term::nil().to_string(), "[]");
        assert_eq!(
            Term::Struct("f".into(), vec![Term::Var("X".into()), Term::Int(-3)]).to_string(),
            "f(X,-3)"
        );
        assert_eq!(
            Term::Atom("hello world".into()).to_string(),
            "'hello world'"
        );
        assert_eq!(Term::Atom("=".into()).to_string(), "=");
        assert_eq!(Term::Atom("foo".into()).to_string(), "foo");
    }

    #[test]
    fn variables_are_deduplicated_in_order() {
        let t = Term::Struct(
            "f".into(),
            vec![
                Term::Var("X".into()),
                Term::Struct(
                    "g".into(),
                    vec![Term::Var("Y".into()), Term::Var("X".into())],
                ),
            ],
        );
        assert_eq!(t.variables(), vec!["X", "Y"]);
    }

    #[test]
    fn variables_of_a_long_list_are_collected_in_linear_time() {
        // Quadratic deduplication took minutes here; a linear one takes
        // milliseconds, even unoptimised.
        let n = 100_000;
        let names: Vec<String> = (0..n).map(|i| format!("X{i}")).collect();
        let t = Term::list(names.iter().map(|v| Term::Var(v.clone())).collect(), None);
        let started = std::time::Instant::now();
        let vars = t.variables();
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert!(vars.iter().copied().eq(names.iter().map(String::as_str)));
        // Dropping the list whole would recurse once per cell.
        let mut rest = Some(t);
        while let Some(Term::Struct(_, mut args)) = rest {
            rest = args.pop();
        }
    }

    #[test]
    fn groundness() {
        assert!(Term::Int(1).is_ground());
        assert!(Term::list(vec![Term::Int(1), Term::Atom("a".into())], None).is_ground());
        assert!(!Term::Var("X".into()).is_ground());
        assert!(!Term::Struct("f".into(), vec![Term::Var("X".into())]).is_ground());
    }

    #[test]
    fn functor_name_and_arity() {
        assert_eq!(Term::Atom("a".into()).functor_name(), Some("a"));
        assert_eq!(Term::Atom("a".into()).arity(), 0);
        assert_eq!(Term::Int(1).functor_name(), None);
        let s = Term::Struct("f".into(), vec![Term::Int(1)]);
        assert_eq!(s.arity(), 1);
    }
}
