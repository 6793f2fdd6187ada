//! Goal classification.
//!
//! Decides, per body goal, whether it is compiled as a user call, an
//! escape to the host (the paper's built-in mechanism, §2.1/§4.2), an
//! inline unification, or native inline arithmetic (the "integer
//! arithmetic" compilation mode the benchmarks used, §4).

use crate::arith::{self, Expr};
use kcm_arch::isa::Builtin;
use kcm_arch::Cond;
use kcm_prolog::Term;

/// A classified goal, borrowing its arguments from the goal term.
#[derive(Debug, Clone, PartialEq)]
pub enum GoalKind<'t> {
    /// `true` — no code.
    True,
    /// `fail` / `false`.
    Fail,
    /// `!`.
    Cut,
    /// A call to the user predicate `name/args.len()`.
    UserCall(&'t str, &'t [Term]),
    /// An escape to a host built-in with the given arguments.
    Escape(Builtin, &'t [Term]),
    /// `=/2` compiled as inline unification.
    Unify(&'t Term, &'t Term),
    /// `Lhs is Expr` with a natively inlinable expression.
    Is(&'t Term, Expr<'t>),
    /// An arithmetic comparison with both sides natively inlinable. The
    /// condition holds when `lhs cond rhs`.
    Compare(Cond, Expr<'t>, Expr<'t>),
}

impl GoalKind<'_> {
    /// Whether this goal transfers control to another predicate (and thus
    /// clobbers CP/B0 and ends a chunk for register allocation).
    pub fn is_user_call(&self) -> bool {
        matches!(self, GoalKind::UserCall(..))
    }

    /// Whether the goal needs the argument registers A1..Ak (user calls
    /// and escapes).
    pub fn call_arity(&self) -> usize {
        match self {
            GoalKind::UserCall(_, args) | GoalKind::Escape(_, args) => args.len(),
            _ => 0,
        }
    }

    /// Whether the goal is safe inside the clause *guard* — "a possibly
    /// empty series of goals following the head which is known not to
    /// modify the Prolog state of execution" (§3.1.5). Only natively
    /// inlined comparisons and cut qualify: they touch no argument
    /// register and bind nothing.
    pub fn is_guard_safe(&self) -> bool {
        matches!(self, GoalKind::Compare(..) | GoalKind::Cut | GoalKind::True)
    }
}

/// The escape builtins reachable from Prolog source, by name/arity —
/// shared with the machine's meta-call dispatcher.
pub fn escape_builtin(name: &str, arity: usize) -> Option<Builtin> {
    // Arithmetic comparisons dispatch through their escapes at meta-call
    // time (the compiler may inline them statically, but call/1 cannot).
    if arity == 2 {
        if let Some((b, _)) = arith_escape(name) {
            return Some(b);
        }
    }
    if name == "is" && arity == 2 {
        return Some(Builtin::Is);
    }
    escape_for(name, arity)
}

/// The escape builtins reachable from Prolog source, by name/arity.
fn escape_for(name: &str, arity: usize) -> Option<Builtin> {
    Some(match (name, arity) {
        ("write", 1) => Builtin::Write,
        ("print", 1) => Builtin::Write,
        ("nl", 0) => Builtin::Nl,
        ("tab", 1) => Builtin::Tab,
        ("var", 1) => Builtin::Var,
        ("nonvar", 1) => Builtin::Nonvar,
        ("atom", 1) => Builtin::Atom,
        ("atomic", 1) => Builtin::Atomic,
        ("integer", 1) => Builtin::Integer,
        ("float", 1) => Builtin::Float,
        ("number", 1) => Builtin::Number,
        ("callable", 1) => Builtin::Callable,
        ("is_list", 1) => Builtin::IsList,
        ("==", 2) => Builtin::TermEq,
        ("\\==", 2) => Builtin::TermNe,
        ("@<", 2) => Builtin::TermLt,
        ("@>", 2) => Builtin::TermGt,
        ("@=<", 2) => Builtin::TermLe,
        ("@>=", 2) => Builtin::TermGe,
        ("functor", 3) => Builtin::Functor,
        ("arg", 3) => Builtin::Arg,
        ("=..", 2) => Builtin::Univ,
        ("compare", 3) => Builtin::Compare,
        ("length", 2) => Builtin::Length,
        ("halt", 0) => Builtin::Halt,
        ("statistics", 2) => Builtin::Statistics,
        ("name", 2) => Builtin::Name,
        ("copy_term", 2) => Builtin::CopyTerm,
        ("ground", 1) => Builtin::Ground,
        ("atom_codes", 2) => Builtin::AtomCodes,
        ("number_codes", 2) => Builtin::NumberCodes,
        ("atom_length", 2) => Builtin::AtomLength,
        ("unify_with_occurs_check", 2) => Builtin::UnifyOccurs,
        // Internal hook injected by the query linker: reports the bindings
        // of the query variables (any arity up to 16).
        ("$report", _) => Builtin::ReportSolution,
        _ => return None,
    })
}

fn arith_escape(name: &str) -> Option<(Builtin, Cond)> {
    Some(match name {
        "=:=" => (Builtin::ArithEq, Cond::Eq),
        "=\\=" => (Builtin::ArithNe, Cond::Ne),
        "<" => (Builtin::ArithLt, Cond::Lt),
        "=<" => (Builtin::ArithLe, Cond::Le),
        ">" => (Builtin::ArithGt, Cond::Gt),
        ">=" => (Builtin::ArithGe, Cond::Ge),
        _ => return None,
    })
}

/// Classifies one body goal term with KCM's default options.
pub fn classify(goal: &Term) -> GoalKind<'_> {
    classify_with(goal, &crate::CompileOptions::default())
}

/// Classifies one body goal term for a given target configuration.
pub fn classify_with<'t>(goal: &'t Term, options: &crate::CompileOptions) -> GoalKind<'t> {
    let (name, args): (&str, &[Term]) = match goal {
        Term::Atom(n) => (n.as_str(), &[]),
        Term::Struct(n, a) => (n.as_str(), a.as_slice()),
        // ir::Program rejects variable and numeric goals before this point.
        _ => return GoalKind::Fail,
    };
    match (name, args.len()) {
        ("true", 0) => return GoalKind::True,
        ("fail", 0) | ("false", 0) => return GoalKind::Fail,
        ("!", 0) => return GoalKind::Cut,
        ("=", 2) => return GoalKind::Unify(&args[0], &args[1]),
        // The meta-call becomes a real call to the runtime's $call/N
        // trampoline (it clobbers CP like any call). call/2.. appends the
        // extra arguments to the goal.
        ("call", n) if (1..=8).contains(&n) => return GoalKind::UserCall("$call", args),
        ("is", 2) => {
            if options.inline_arith {
                if let Some(e) = arith::parse_expr(&args[1]) {
                    return GoalKind::Is(&args[0], e);
                }
            }
            return GoalKind::Escape(Builtin::Is, args);
        }
        _ => {}
    }
    if args.len() == 2 {
        if let Some((esc, cond)) = arith_escape(name) {
            if options.inline_arith {
                if let (Some(l), Some(r)) =
                    (arith::parse_expr(&args[0]), arith::parse_expr(&args[1]))
                {
                    return GoalKind::Compare(cond, l, r);
                }
            }
            return GoalKind::Escape(esc, args);
        }
    }
    if let Some(b) = escape_for(name, args.len()) {
        return GoalKind::Escape(b, args);
    }
    GoalKind::UserCall(name, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcm_prolog::read_term;

    /// Classifies a goal read from `src`; the term lives to the end of
    /// the enclosing statement.
    macro_rules! k {
        ($src:expr) => {
            classify(&read_term($src).unwrap())
        };
    }

    #[test]
    fn control_goals() {
        assert_eq!(k!("true"), GoalKind::True);
        assert_eq!(k!("fail"), GoalKind::Fail);
        assert_eq!(k!("!"), GoalKind::Cut);
    }

    #[test]
    fn unification_goal() {
        assert!(matches!(k!("X = f(Y)"), GoalKind::Unify(..)));
    }

    #[test]
    fn inline_is_when_expression_is_native() {
        assert!(matches!(k!("X is Y + 1"), GoalKind::Is(..)));
        assert!(matches!(k!("X is Y * Z mod 7"), GoalKind::Is(..)));
        // An unbound expression variable body cannot be inlined at compile
        // time if the term is not arithmetic shaped.
        assert!(matches!(
            k!("X is foo(Y)"),
            GoalKind::Escape(Builtin::Is, _)
        ));
    }

    #[test]
    fn inline_comparison() {
        assert!(matches!(k!("X < Y + 1"), GoalKind::Compare(Cond::Lt, _, _)));
        assert!(matches!(k!("X >= 3"), GoalKind::Compare(Cond::Ge, _, _)));
        assert!(matches!(
            k!("f(X) < 2"),
            GoalKind::Escape(Builtin::ArithLt, _)
        ));
    }

    #[test]
    fn escapes() {
        assert!(matches!(
            k!("write(X)"),
            GoalKind::Escape(Builtin::Write, _)
        ));
        assert!(matches!(k!("nl"), GoalKind::Escape(Builtin::Nl, _)));
        assert!(matches!(k!("X == Y"), GoalKind::Escape(Builtin::TermEq, _)));
        assert!(matches!(
            k!("functor(T, F, A)"),
            GoalKind::Escape(Builtin::Functor, _)
        ));
    }

    #[test]
    fn arity_overload_falls_back_to_user_call() {
        // write/2 is not a known builtin.
        assert!(matches!(k!("write(X, Y)"), GoalKind::UserCall(..)));
        assert!(matches!(k!("append(X, Y, Z)"), GoalKind::UserCall(..)));
    }

    #[test]
    fn guard_safety() {
        assert!(k!("X < 3").is_guard_safe());
        assert!(k!("!").is_guard_safe());
        assert!(!k!("X is 3").is_guard_safe());
        assert!(!k!("integer(X)").is_guard_safe());
        assert!(!k!("p(X)").is_guard_safe());
    }
}
