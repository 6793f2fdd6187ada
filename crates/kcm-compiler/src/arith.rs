//! Inline arithmetic expressions.
//!
//! The benchmark configuration compiles arithmetic natively ("integer
//! arithmetic", §4): expressions over numbers and variables become ALU/FPU
//! instructions instead of escapes. The machine's ALU is *generic*: two
//! `Int` operands stay on the integer ALU; any `Float` routes to the FPU
//! (§4.2's "multi-way branching for generic arithmetic").

use kcm_arch::isa::AluOp;
use kcm_prolog::Term;

/// A natively compilable arithmetic expression, borrowing its variable
/// names from the term it was parsed from.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<'t> {
    /// An integer literal.
    Int(i32),
    /// A float literal.
    Float(f32),
    /// A Prolog variable (must be bound to a number at run time).
    Var(&'t str),
    /// A binary operation.
    Bin(AluOp, Box<Expr<'t>>, Box<Expr<'t>>),
    /// Arithmetic negation.
    Neg(Box<Expr<'t>>),
}

impl<'t> Expr<'t> {
    /// Visits the variables of the expression, left-to-right with
    /// duplicates.
    pub fn each_var(&self, visit: &mut impl FnMut(&'t str)) {
        match self {
            Expr::Var(v) => visit(v),
            Expr::Bin(_, a, b) => {
                a.each_var(visit);
                b.each_var(visit);
            }
            Expr::Neg(a) => a.each_var(visit),
            Expr::Int(_) | Expr::Float(_) => {}
        }
    }

    /// Number of ALU operations in the expression (for cost estimates).
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Bin(_, a, b) => 1 + a.op_count() + b.op_count(),
            Expr::Neg(a) => 1 + a.op_count(),
            _ => 0,
        }
    }
}

fn binop(name: &str) -> Option<AluOp> {
    Some(match name {
        "+" => AluOp::Add,
        "-" => AluOp::Sub,
        "*" => AluOp::Mul,
        "/" | "//" => AluOp::Div,
        "mod" | "rem" => AluOp::Mod,
        "/\\" => AluOp::And,
        "\\/" => AluOp::Or,
        "xor" => AluOp::Xor,
        "<<" => AluOp::Shl,
        ">>" => AluOp::Shr,
        "min" => AluOp::Min,
        "max" => AluOp::Max,
        _ => return None,
    })
}

/// Parses a term as a native arithmetic expression; `None` if any part is
/// not natively compilable (then the generic `is/2` escape takes over).
pub fn parse_expr(t: &Term) -> Option<Expr<'_>> {
    match t {
        Term::Int(v) => Some(Expr::Int(*v)),
        Term::Float(v) => Some(Expr::Float(*v)),
        Term::Var(v) => Some(Expr::Var(v)),
        Term::Struct(n, args) if args.len() == 2 => {
            let op = binop(n)?;
            let a = parse_expr(&args[0])?;
            let b = parse_expr(&args[1])?;
            Some(Expr::Bin(op, Box::new(a), Box::new(b)))
        }
        Term::Struct(n, args) if args.len() == 1 && n == "-" => {
            Some(Expr::Neg(Box::new(parse_expr(&args[0])?)))
        }
        Term::Struct(n, args) if args.len() == 1 && n == "+" => parse_expr(&args[0]),
        Term::Struct(n, args) if args.len() == 1 && n == "abs" => {
            // abs(X) = max(X, -X): compiled with existing ALU ops.
            let x = parse_expr(&args[0])?;
            Some(Expr::Bin(
                AluOp::Max,
                Box::new(x.clone()),
                Box::new(Expr::Neg(Box::new(x))),
            ))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcm_prolog::read_term;

    /// Parses an expression read from `src`; the term lives to the end
    /// of the enclosing statement.
    macro_rules! e {
        ($src:expr) => {
            parse_expr(&read_term($src).unwrap())
        };
    }

    #[test]
    fn literals_and_vars() {
        assert_eq!(e!("42"), Some(Expr::Int(42)));
        assert_eq!(e!("-3"), Some(Expr::Int(-3)));
        assert_eq!(e!("X"), Some(Expr::Var("X")));
        assert_eq!(e!("2.5"), Some(Expr::Float(2.5)));
    }

    #[test]
    fn nested_operations() {
        let t = read_term("X + Y * 2").unwrap();
        let expr = parse_expr(&t).unwrap();
        assert_eq!(expr.op_count(), 2);
        let mut vars = Vec::new();
        expr.each_var(&mut |v| vars.push(v));
        assert_eq!(vars, vec!["X", "Y"]);
    }

    #[test]
    fn unary_minus_and_plus() {
        assert!(matches!(e!("-(X)"), Some(Expr::Neg(_))));
        assert_eq!(e!("+(X)"), Some(Expr::Var("X")));
    }

    #[test]
    fn abs_desugars() {
        assert!(matches!(e!("abs(X)"), Some(Expr::Bin(AluOp::Max, _, _))));
    }

    #[test]
    fn non_native_terms_rejected() {
        assert_eq!(e!("foo(X)"), None);
        assert_eq!(e!("X + foo"), None);
        assert_eq!(e!("atom"), None);
        assert_eq!(e!("sin(X)"), None);
    }

    #[test]
    fn integer_division_forms() {
        assert!(matches!(e!("X // 2"), Some(Expr::Bin(AluOp::Div, _, _))));
        assert!(matches!(e!("X mod 2"), Some(Expr::Bin(AluOp::Mod, _, _))));
    }
}
