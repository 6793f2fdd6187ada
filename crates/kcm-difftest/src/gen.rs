//! The grammar-driven Prolog program generator.
//!
//! Programs are generated as a structured AST ([`GProgram`]) rather than
//! text, so the shrinker can delete clauses and goals and simplify terms
//! while staying inside the grammar. Every generated program is
//! *well-formed by construction*: heads are callable compounds, arities
//! stay within the A1..A16 convention, the call graph is acyclic except
//! for structurally recursive templates, and every recursive call site
//! passes a ground, bounded structural argument — so programs terminate
//! without relying on the step budget.
//!
//! The grammar deliberately spans the feature axes the engines disagree on
//! when they have bugs: facts vs rules, deep unification (nested
//! structures, partial lists), list recursion, integer arithmetic
//! (including division/modulo by generated zeros and wrap-around
//! extremes), comparisons, cut, negation as failure, disjunction,
//! if-then-else, `write/1` side effects, and first-argument indexing
//! shapes (constant/structure/list/variable first arguments).

use kcm_testkit::TestRng;
use std::fmt;

/// Atom pool (index = [`GTerm::Atom`] payload).
pub const ATOMS: [&str; 5] = ["a", "b", "c", "d", "e"];
/// Functor pool (index = [`GTerm::Struct`] payload).
pub const FUNCTORS: [&str; 3] = ["f", "g", "h"];
/// Arithmetic operator pool (index = [`GExpr::Bin`] payload).
pub const AOPS: [&str; 5] = ["+", "-", "*", "//", "mod"];
/// Comparison operator pool (index = [`GGoal::Cmp`] payload).
pub const CMPS: [&str; 6] = ["<", "=<", ">", ">=", "=:=", "=\\="];

/// A generated term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GTerm {
    /// A variable, rendered `X<n>`.
    Var(u16),
    /// An atom from [`ATOMS`].
    Atom(u8),
    /// An integer literal.
    Int(i32),
    /// The empty list.
    Nil,
    /// A list cell `[Head|Tail]`.
    Cons(Box<GTerm>, Box<GTerm>),
    /// A structure over [`FUNCTORS`].
    Struct(u8, Vec<GTerm>),
}

impl GTerm {
    /// A proper list of the given elements.
    pub fn list(items: Vec<GTerm>) -> GTerm {
        items
            .into_iter()
            .rev()
            .fold(GTerm::Nil, |t, h| GTerm::Cons(Box::new(h), Box::new(t)))
    }

    /// Whether the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            GTerm::Var(_) => false,
            GTerm::Atom(_) | GTerm::Int(_) | GTerm::Nil => true,
            GTerm::Cons(h, t) => h.is_ground() && t.is_ground(),
            GTerm::Struct(_, args) => args.iter().all(GTerm::is_ground),
        }
    }

    fn collect_vars(&self, out: &mut Vec<u16>) {
        match self {
            GTerm::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            GTerm::Atom(_) | GTerm::Int(_) | GTerm::Nil => {}
            GTerm::Cons(h, t) => {
                h.collect_vars(out);
                t.collect_vars(out);
            }
            GTerm::Struct(_, args) => args.iter().for_each(|a| a.collect_vars(out)),
        }
    }
}

impl fmt::Display for GTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GTerm::Var(v) => write!(f, "X{v}"),
            GTerm::Atom(a) => write!(f, "{}", ATOMS[*a as usize % ATOMS.len()]),
            GTerm::Int(n) => {
                if *n < 0 {
                    // Parenthesize so `p(f(-1))` and `X = -1` both parse
                    // regardless of surrounding operators.
                    write!(f, "({n})")
                } else {
                    write!(f, "{n}")
                }
            }
            GTerm::Nil => write!(f, "[]"),
            GTerm::Cons(h, t) => {
                write!(f, "[{h}")?;
                let mut tail = t;
                loop {
                    match tail.as_ref() {
                        GTerm::Nil => return write!(f, "]"),
                        GTerm::Cons(h2, t2) => {
                            write!(f, ",{h2}")?;
                            tail = t2;
                        }
                        other => return write!(f, "|{other}]"),
                    }
                }
            }
            GTerm::Struct(name, args) => {
                write!(f, "{}(", FUNCTORS[*name as usize % FUNCTORS.len()])?;
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

/// A generated arithmetic expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GExpr {
    /// An integer literal.
    Int(i32),
    /// A variable (bound to a number at run time — or not, which is an
    /// instantiation-error case the oracle compares by class).
    Var(u16),
    /// A binary operation over [`AOPS`].
    Bin(u8, Box<GExpr>, Box<GExpr>),
}

impl fmt::Display for GExpr {
    // Rendering an expression fully parenthesized sidesteps every operator
    // priority question: `((X0 + 2) mod (0 - 3))` always reparses
    // identically.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GExpr::Int(n) => {
                if *n < 0 {
                    write!(f, "({n})")
                } else {
                    write!(f, "{n}")
                }
            }
            GExpr::Var(v) => write!(f, "X{v}"),
            GExpr::Bin(op, a, b) => {
                write!(f, "({a} {} {b})", AOPS[*op as usize % AOPS.len()])
            }
        }
    }
}

impl GExpr {
    fn collect_vars(&self, out: &mut Vec<u16>) {
        match self {
            GExpr::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            GExpr::Int(_) => {}
            GExpr::Bin(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }
}

/// A generated goal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GGoal {
    /// A call to generated predicate `p<n>`.
    Call(usize, Vec<GTerm>),
    /// `A = B`.
    Unify(GTerm, GTerm),
    /// `X<v> is Expr`.
    Is(u16, GExpr),
    /// An arithmetic comparison over [`CMPS`].
    Cmp(u8, GExpr, GExpr),
    /// `!`.
    Cut,
    /// `\+ p<n>(args)` — negation as failure.
    Not(usize, Vec<GTerm>),
    /// `(G1 ; G2)` — compiled into an auxiliary predicate by the IR pass.
    Or(Box<GGoal>, Box<GGoal>),
    /// `(C -> T ; E)`.
    IfTE(Box<GGoal>, Box<GGoal>, Box<GGoal>),
    /// `write(T)` — side-effect ordering must agree across engines.
    Write(GTerm),
}

impl fmt::Display for GGoal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GGoal::Call(p, args) => write_call(f, *p, args),
            GGoal::Unify(a, b) => write!(f, "{a} = {b}"),
            GGoal::Is(v, e) => write!(f, "X{v} is {e}"),
            GGoal::Cmp(op, a, b) => {
                write!(f, "{a} {} {b}", CMPS[*op as usize % CMPS.len()])
            }
            GGoal::Cut => write!(f, "!"),
            GGoal::Not(p, args) => {
                write!(f, "\\+ ")?;
                write_call(f, *p, args)
            }
            GGoal::Or(a, b) => write!(f, "({a} ; {b})"),
            GGoal::IfTE(c, t, e) => write!(f, "({c} -> {t} ; {e})"),
            GGoal::Write(t) => write!(f, "write({t})"),
        }
    }
}

fn write_call(f: &mut fmt::Formatter<'_>, pred: usize, args: &[GTerm]) -> fmt::Result {
    write!(f, "p{pred}")?;
    if !args.is_empty() {
        write!(f, "(")?;
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")?;
    }
    Ok(())
}

impl GGoal {
    fn collect_vars(&self, out: &mut Vec<u16>) {
        match self {
            GGoal::Call(_, args) | GGoal::Not(_, args) => {
                args.iter().for_each(|a| a.collect_vars(out))
            }
            GGoal::Unify(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            GGoal::Is(v, e) => {
                if !out.contains(v) {
                    out.push(*v);
                }
                e.collect_vars(out);
            }
            GGoal::Cmp(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            GGoal::Cut => {}
            GGoal::Or(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            GGoal::IfTE(c, t, e) => {
                c.collect_vars(out);
                t.collect_vars(out);
                e.collect_vars(out);
            }
            GGoal::Write(t) => t.collect_vars(out),
        }
    }
}

/// One generated clause of predicate `p<pred>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GClause {
    /// Index of the predicate this clause belongs to.
    pub pred: usize,
    /// Head arguments.
    pub args: Vec<GTerm>,
    /// Body goals (empty for a fact).
    pub body: Vec<GGoal>,
}

impl fmt::Display for GClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_call(f, self.pred, &self.args)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, g) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        write!(f, ".")
    }
}

/// A generated program: clauses plus a query (a conjunction of goals).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GProgram {
    /// The clauses, in source order.
    pub clauses: Vec<GClause>,
    /// The query goals, run as a conjunction with all solutions enumerated.
    pub query: Vec<GGoal>,
}

impl GProgram {
    /// The Prolog source text of the program.
    pub fn source(&self) -> String {
        let mut s = String::new();
        for c in &self.clauses {
            s.push_str(&c.to_string());
            s.push('\n');
        }
        s
    }

    /// The query text.
    pub fn query_text(&self) -> String {
        self.query
            .iter()
            .map(|g| g.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Free variables of the query, in appearance order.
    pub fn query_vars(&self) -> Vec<u16> {
        let mut out = Vec::new();
        for g in &self.query {
            g.collect_vars(&mut out);
        }
        out
    }

    /// Generates a program from the given seed stream.
    pub fn generate(rng: &mut TestRng) -> GProgram {
        Gen::new(rng).program()
    }
}

/// How a predicate was generated — decides how call sites must treat it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PredKind {
    /// A bundle of ground-ish facts; callable with anything.
    Facts,
    /// Non-recursive rules calling only lower-indexed predicates.
    Rules,
    /// Structurally recursive over its first argument: call sites must
    /// pass a ground first argument (for append-shape predicates a ground
    /// *third* argument also terminates, which call sites may pick).
    ListRec {
        /// Whether the last argument alone may be the ground one
        /// (append-shaped predicates split their output backwards).
        splittable: bool,
    },
    /// Counts an integer first argument down to zero.
    CountRec,
    /// A wide flat fact base (≥ 8 clauses, constant first keys, constant
    /// second arguments): the shape that compiles to a hash-indexed
    /// switch, with repeated first keys forming depth-2 buckets.
    WideFacts,
}

#[derive(Debug, Clone, Copy)]
struct PredSig {
    kind: PredKind,
    arity: usize,
}

struct Gen<'a> {
    rng: &'a mut TestRng,
    preds: Vec<PredSig>,
}

impl<'a> Gen<'a> {
    fn new(rng: &'a mut TestRng) -> Gen<'a> {
        Gen {
            rng,
            preds: Vec::new(),
        }
    }

    fn program(&mut self) -> GProgram {
        let n_preds = self.rng.usize_in(2, 6);
        let mut clauses = Vec::new();
        for i in 0..n_preds {
            // Rules need lower predicates to call; predicate 0 is always a
            // leaf (facts or a self-contained recursive template).
            let kind = match self.rng.pick_weighted(if i == 0 {
                &[5, 0, 3, 2, 3]
            } else {
                &[4, 4, 2, 1, 2]
            }) {
                0 => PredKind::Facts,
                1 => PredKind::Rules,
                2 => PredKind::ListRec {
                    splittable: self.rng.chance(1, 2),
                },
                3 => PredKind::CountRec,
                _ => PredKind::WideFacts,
            };
            let arity = match kind {
                PredKind::Facts => self.rng.usize_in(1, 4),
                PredKind::Rules => self.rng.usize_in(1, 4),
                PredKind::ListRec { splittable } => {
                    if splittable {
                        3
                    } else {
                        self.rng.usize_in(2, 4)
                    }
                }
                PredKind::CountRec => 2,
                PredKind::WideFacts => self.rng.usize_in(2, 3),
            };
            self.preds.push(PredSig { kind, arity });
            match kind {
                PredKind::Facts => self.facts(i, arity, &mut clauses),
                PredKind::Rules => self.rules(i, arity, &mut clauses),
                PredKind::ListRec { splittable } => {
                    self.list_rec(i, arity, splittable, &mut clauses)
                }
                PredKind::CountRec => self.count_rec(i, &mut clauses),
                PredKind::WideFacts => self.wide_facts(i, arity, &mut clauses),
            }
        }
        let query = self.query();
        GProgram { clauses, query }
    }

    // ---- terms ----------------------------------------------------------

    /// A ground term of bounded depth. Mixes the shapes first-argument
    /// indexing discriminates on: integers, atoms, nil, lists, structures.
    fn ground(&mut self, depth: usize) -> GTerm {
        let w: &[u64] = if depth == 0 {
            &[4, 4, 1, 0, 0]
        } else {
            &[3, 3, 1, 2, 2]
        };
        match self.rng.pick_weighted(w) {
            0 => GTerm::Int(self.int_literal()),
            1 => GTerm::Atom(self.rng.index(ATOMS.len()) as u8),
            2 => GTerm::Nil,
            3 => {
                let n = self.rng.usize_in(1, 4);
                let items = (0..n).map(|_| self.ground(depth - 1)).collect();
                GTerm::list(items)
            }
            _ => {
                let f = self.rng.index(FUNCTORS.len()) as u8;
                let n = self.rng.usize_in(1, 4);
                GTerm::Struct(f, (0..n).map(|_| self.ground(depth - 1)).collect())
            }
        }
    }

    /// Mostly-small integers, with occasional extremes so wrap-around
    /// arithmetic and comparisons get exercised, and zeros so division by
    /// zero shows up as an error-class case.
    fn int_literal(&mut self) -> i32 {
        match self.rng.pick_weighted(&[12, 2, 1]) {
            0 => self.rng.i32_in(-9, 10),
            1 => self.rng.i32_in(-1000, 1001),
            // i32::MIN itself is unwritable as a literal (the parser reads
            // the positive magnitude first, which overflows), so the
            // extreme pool stops at MIN + 1.
            _ => *self
                .rng
                .choose(&[i32::MAX, i32::MIN + 1, 1 << 30, -(1 << 30)]),
        }
    }

    /// A pattern term for heads and call arguments: ground, a variable
    /// from the pool, or a partial structure with variables inside (deep
    /// unification fodder).
    fn pattern(&mut self, vars: &mut VarPool, depth: usize) -> GTerm {
        match self.rng.pick_weighted(&[4, 4, 2]) {
            0 => self.ground(depth),
            1 => GTerm::Var(vars.any(self.rng)),
            _ => {
                if depth == 0 || self.rng.chance(1, 2) {
                    // Partial list [V|T].
                    GTerm::Cons(
                        Box::new(GTerm::Var(vars.any(self.rng))),
                        Box::new(if self.rng.chance(1, 2) {
                            GTerm::Var(vars.any(self.rng))
                        } else {
                            GTerm::Nil
                        }),
                    )
                } else {
                    let f = self.rng.index(FUNCTORS.len()) as u8;
                    let n = self.rng.usize_in(1, 3);
                    GTerm::Struct(f, (0..n).map(|_| self.pattern(vars, depth - 1)).collect())
                }
            }
        }
    }

    // ---- predicate generators -------------------------------------------

    fn facts(&mut self, pred: usize, arity: usize, out: &mut Vec<GClause>) {
        let n = self.rng.usize_in(1, 6);
        for _ in 0..n {
            let mut vars = VarPool::new(4);
            let mut args: Vec<GTerm> = (0..arity).map(|_| self.ground(2)).collect();
            // Occasionally a variable (or repeated-variable) argument, so
            // switch_on_term's variable case and head aliasing both occur.
            if self.rng.chance(1, 4) {
                let i = self.rng.index(arity);
                args[i] = GTerm::Var(vars.fresh());
                if arity > 1 && self.rng.chance(1, 3) {
                    let j = (i + 1) % arity;
                    args[j] = GTerm::Var(vars.last());
                }
            }
            out.push(GClause {
                pred,
                args,
                body: Vec::new(),
            });
        }
    }

    /// A wide flat fact base: enough clauses for the compiled switch to
    /// get a hash index, constant (integer or atom) first keys drawn from
    /// a small pool so keys repeat (depth-2 bucket fodder) and collide
    /// with the generic query/call-site term pools (point lookups hit),
    /// constant second arguments, and occasional exact-duplicate keys so
    /// first-match-wins ordering is observable.
    fn wide_facts(&mut self, pred: usize, arity: usize, out: &mut Vec<GClause>) {
        let n = self.rng.usize_in(8, 20);
        for _ in 0..n {
            let first = if self.rng.chance(1, 3) {
                GTerm::Atom(self.rng.index(ATOMS.len()) as u8)
            } else {
                GTerm::Int(self.rng.i32_in(0, 7))
            };
            let second = GTerm::Int(self.rng.i32_in(0, 7));
            let mut args = vec![first, second];
            args.extend((2..arity).map(|_| self.ground(1)));
            out.push(GClause {
                pred,
                args,
                body: Vec::new(),
            });
        }
    }

    fn rules(&mut self, pred: usize, arity: usize, out: &mut Vec<GClause>) {
        let n = self.rng.usize_in(1, 4);
        for _ in 0..n {
            let mut vars = VarPool::new(6);
            let args: Vec<GTerm> = (0..arity).map(|_| self.pattern(&mut vars, 1)).collect();
            let mut body = Vec::new();
            let goals = self.rng.usize_in(1, 5);
            let mut calls = 0;
            for _ in 0..goals {
                let g = self.body_goal(pred, &mut vars, &mut calls);
                body.push(g);
            }
            out.push(GClause { pred, args, body });
        }
    }

    /// One body goal for a rule of predicate `pred`. `calls` caps the
    /// number of nondeterministic user calls per body so solution counts
    /// stay bounded.
    fn body_goal(&mut self, pred: usize, vars: &mut VarPool, calls: &mut usize) -> GGoal {
        let call_w = if *calls < 3 { 6 } else { 0 };
        match self.rng.pick_weighted(&[call_w, 2, 2, 2, 1, 1, 1, 1, 1]) {
            0 => {
                *calls += 1;
                self.call_goal(pred, vars)
            }
            1 => GGoal::Unify(self.pattern(vars, 1), self.pattern(vars, 1)),
            2 => GGoal::Is(vars.fresh(), self.expr(vars, 1)),
            3 => GGoal::Cmp(
                self.rng.index(CMPS.len()) as u8,
                self.expr(vars, 1),
                self.expr(vars, 1),
            ),
            4 => GGoal::Cut,
            5 => {
                let GGoal::Call(p, args) = self.call_goal(pred, vars) else {
                    unreachable!()
                };
                GGoal::Not(p, args)
            }
            6 => GGoal::Or(
                Box::new(self.simple_goal(pred, vars)),
                Box::new(self.simple_goal(pred, vars)),
            ),
            7 => GGoal::IfTE(
                Box::new(self.simple_goal(pred, vars)),
                Box::new(self.simple_goal(pred, vars)),
                Box::new(self.simple_goal(pred, vars)),
            ),
            _ => GGoal::Write(self.pattern(vars, 1)),
        }
    }

    /// A goal simple enough to sit inside `;` / `->` (no cut, no nesting).
    fn simple_goal(&mut self, pred: usize, vars: &mut VarPool) -> GGoal {
        match self.rng.pick_weighted(&[3, 2, 2]) {
            0 => self.call_goal(pred, vars),
            1 => GGoal::Unify(self.pattern(vars, 1), self.pattern(vars, 1)),
            _ => GGoal::Cmp(
                self.rng.index(CMPS.len()) as u8,
                self.expr(vars, 0),
                self.expr(vars, 0),
            ),
        }
    }

    /// A call to a predicate with index lower than `pred` (the call graph
    /// stays acyclic). Recursive callees get a ground structural argument
    /// so every call terminates.
    fn call_goal(&mut self, pred: usize, vars: &mut VarPool) -> GGoal {
        debug_assert!(pred > 0, "predicate 0 never generates calls");
        let callee = self.rng.index(pred);
        let sig = self.preds[callee];
        let mut args: Vec<GTerm> = (0..sig.arity).map(|_| self.pattern(vars, 1)).collect();
        match sig.kind {
            PredKind::Facts | PredKind::Rules => {}
            PredKind::WideFacts => {
                // Often key the call into the fact base's constant pools
                // so the switch's hit path (not just misses) is fuzzed.
                if self.rng.chance(2, 3) {
                    args[0] = GTerm::Int(self.rng.i32_in(0, 7));
                }
                if self.rng.chance(1, 2) {
                    args[1] = GTerm::Int(self.rng.i32_in(0, 7));
                }
            }
            PredKind::ListRec { splittable } => {
                // Ground the structural argument: a bounded list of ground
                // elements. Append shapes may instead ground the result.
                let items = self.rng.vec_of(0, 5, |_| GTerm::Int(0));
                let items = items
                    .into_iter()
                    .map(|_| self.ground(1))
                    .collect::<Vec<_>>();
                let ground_list = GTerm::list(items);
                if splittable && self.rng.chance(1, 3) {
                    args[sig.arity - 1] = ground_list;
                    args[0] = GTerm::Var(vars.any(self.rng));
                } else {
                    args[0] = ground_list;
                }
            }
            PredKind::CountRec => {
                args[0] = GTerm::Int(self.rng.i32_in(0, 7));
            }
        }
        GGoal::Call(callee, args)
    }

    /// An arithmetic expression over bound-ish variables and literals.
    fn expr(&mut self, vars: &mut VarPool, depth: usize) -> GExpr {
        let bin_w = if depth > 0 { 3 } else { 0 };
        match self.rng.pick_weighted(&[4, 3, bin_w]) {
            0 => GExpr::Int(self.int_literal()),
            1 => GExpr::Var(vars.any(self.rng)),
            _ => GExpr::Bin(
                self.rng.index(AOPS.len()) as u8,
                Box::new(self.expr(vars, depth - 1)),
                Box::new(self.expr(vars, depth - 1)),
            ),
        }
    }

    // ---- recursive templates --------------------------------------------

    /// Structurally recursive list predicates: member, map, sum-accumulate
    /// and append shapes, with the base clause sometimes listed second so
    /// clause-order-sensitive enumeration gets exercised.
    fn list_rec(&mut self, pred: usize, arity: usize, splittable: bool, out: &mut Vec<GClause>) {
        let (h, t, x, acc) = (0u16, 1u16, 2u16, 3u16);
        let mut pair = if splittable {
            // append shape: p([], L, L). p([H|T], L, [H|R]) :- p(T, L, R).
            let base = GClause {
                pred,
                args: vec![GTerm::Nil, GTerm::Var(x), GTerm::Var(x)],
                body: Vec::new(),
            };
            let rec = GClause {
                pred,
                args: vec![
                    GTerm::Cons(Box::new(GTerm::Var(h)), Box::new(GTerm::Var(t))),
                    GTerm::Var(x),
                    GTerm::Cons(Box::new(GTerm::Var(h)), Box::new(GTerm::Var(acc))),
                ],
                body: vec![GGoal::Call(
                    pred,
                    vec![GTerm::Var(t), GTerm::Var(x), GTerm::Var(acc)],
                )],
            };
            vec![base, rec]
        } else {
            // Member and map shapes need exactly two arguments; the
            // accumulating sum shape needs three.
            let weights: [u64; 3] = if arity == 2 { [3, 3, 0] } else { [0, 0, 1] };
            match self.rng.pick_weighted(&weights) {
                0 => {
                    // member shape: p([X|_], X). p([_|T], X) :- p(T, X).
                    let base = GClause {
                        pred,
                        args: vec![
                            GTerm::Cons(Box::new(GTerm::Var(x)), Box::new(GTerm::Var(t))),
                            GTerm::Var(x),
                        ],
                        body: Vec::new(),
                    };
                    let rec = GClause {
                        pred,
                        args: vec![
                            GTerm::Cons(Box::new(GTerm::Var(h)), Box::new(GTerm::Var(t))),
                            GTerm::Var(x),
                        ],
                        body: vec![GGoal::Call(pred, vec![GTerm::Var(t), GTerm::Var(x)])],
                    };
                    vec![base, rec]
                }
                1 => {
                    // map shape: p([], []). p([H|T], [H2|R]) :- H2 is H+k, p(T, R).
                    let k = self.rng.i32_in(-3, 4);
                    let h2 = acc;
                    let base = GClause {
                        pred,
                        args: vec![GTerm::Nil, GTerm::Nil],
                        body: Vec::new(),
                    };
                    let rec = GClause {
                        pred,
                        args: vec![
                            GTerm::Cons(Box::new(GTerm::Var(h)), Box::new(GTerm::Var(t))),
                            GTerm::Cons(Box::new(GTerm::Var(h2)), Box::new(GTerm::Var(x))),
                        ],
                        body: vec![
                            GGoal::Is(
                                h2,
                                GExpr::Bin(
                                    0, // "+"
                                    Box::new(GExpr::Var(h)),
                                    Box::new(GExpr::Int(k)),
                                ),
                            ),
                            GGoal::Call(pred, vec![GTerm::Var(t), GTerm::Var(x)]),
                        ],
                    };
                    vec![base, rec]
                }
                _ => {
                    // sum shape over arity n: last two args are acc/result.
                    let base = GClause {
                        pred,
                        args: {
                            let mut a = vec![GTerm::Nil];
                            a.extend((1..arity - 1).map(|_| GTerm::Var(acc)));
                            a.push(GTerm::Var(acc));
                            a
                        },
                        body: Vec::new(),
                    };
                    let acc2 = 4u16;
                    let rec = GClause {
                        pred,
                        args: {
                            let mut a = vec![GTerm::Cons(
                                Box::new(GTerm::Var(h)),
                                Box::new(GTerm::Var(t)),
                            )];
                            a.extend((1..arity - 1).map(|_| GTerm::Var(acc)));
                            a.push(GTerm::Var(x));
                            a
                        },
                        body: vec![
                            GGoal::Is(
                                acc2,
                                GExpr::Bin(
                                    self.rng.index(2) as u8, // + or -
                                    Box::new(GExpr::Var(acc)),
                                    Box::new(GExpr::Var(h)),
                                ),
                            ),
                            GGoal::Call(pred, {
                                let mut a = vec![GTerm::Var(t)];
                                a.extend((1..arity - 1).map(|_| GTerm::Var(acc2)));
                                a.push(GTerm::Var(x));
                                a
                            }),
                        ],
                    };
                    vec![base, rec]
                }
            }
        };
        // Clause order is part of the semantics under enumeration: flip it
        // sometimes. (Sum/map shapes stay deterministic either way; member
        // shapes change solution order, identically on every engine.)
        if self.rng.chance(1, 3) {
            pair.reverse();
        }
        out.extend(pair);
    }

    /// `p(0, a). p(N, f(R)) :- N > 0, M is N - 1, p(M, R).`
    fn count_rec(&mut self, pred: usize, out: &mut Vec<GClause>) {
        let (n, m, r) = (0u16, 1u16, 2u16);
        let base_val = if self.rng.chance(1, 2) {
            GTerm::Atom(self.rng.index(ATOMS.len()) as u8)
        } else {
            GTerm::Int(self.rng.i32_in(-3, 4))
        };
        let f = self.rng.index(FUNCTORS.len()) as u8;
        let mut pair = vec![
            GClause {
                pred,
                args: vec![GTerm::Int(0), base_val],
                body: Vec::new(),
            },
            GClause {
                pred,
                args: vec![GTerm::Var(n), GTerm::Struct(f, vec![GTerm::Var(r)])],
                body: vec![
                    GGoal::Cmp(2, GExpr::Var(n), GExpr::Int(0)), // N > 0
                    GGoal::Is(
                        m,
                        GExpr::Bin(1, Box::new(GExpr::Var(n)), Box::new(GExpr::Int(1))),
                    ),
                    GGoal::Call(pred, vec![GTerm::Var(m), GTerm::Var(r)]),
                ],
            },
        ];
        if self.rng.chance(1, 4) {
            pair.reverse();
        }
        out.extend(pair);
    }

    // ---- query ----------------------------------------------------------

    fn query(&mut self) -> Vec<GGoal> {
        let mut vars = VarPool::new(4);
        let target = self.rng.index(self.preds.len());
        let sig = self.preds[target];
        let mut args: Vec<GTerm> = (0..sig.arity)
            .map(|_| match self.rng.pick_weighted(&[4, 3, 2]) {
                0 => GTerm::Var(vars.fresh()),
                1 => self.ground(2),
                _ => {
                    let mut p = VarPoolView(&mut vars);
                    p.partial(self.rng)
                }
            })
            .collect();
        match sig.kind {
            PredKind::Facts | PredKind::Rules => {}
            PredKind::WideFacts => {
                // Mix point lookups (both keys bound), bucket scans
                // (first key bound) and full enumeration (all variables).
                if self.rng.chance(2, 3) {
                    args[0] = GTerm::Int(self.rng.i32_in(0, 7));
                    if self.rng.chance(1, 2) {
                        args[1] = GTerm::Int(self.rng.i32_in(0, 7));
                    }
                }
            }
            PredKind::ListRec { splittable } => {
                let n = self.rng.usize_in(0, 6);
                let ground_list = GTerm::list((0..n).map(|_| self.ground(1)).collect());
                if splittable && self.rng.chance(1, 3) {
                    args[sig.arity - 1] = ground_list;
                    args[0] = GTerm::Var(vars.fresh());
                    args[1] = GTerm::Var(vars.fresh());
                } else {
                    args[0] = ground_list;
                }
            }
            PredKind::CountRec => {
                args[0] = GTerm::Int(self.rng.i32_in(0, 8));
            }
        }
        let mut goals = vec![GGoal::Call(target, args)];
        // Sometimes a follow-up goal over the query variables.
        if self.rng.chance(1, 3) {
            let g = match self.rng.pick_weighted(&[2, 2, 1]) {
                0 => GGoal::Unify(GTerm::Var(vars.any(self.rng)), self.ground(1)),
                1 => GGoal::Cmp(
                    self.rng.index(CMPS.len()) as u8,
                    GExpr::Var(vars.any(self.rng)),
                    GExpr::Int(self.int_literal()),
                ),
                _ => GGoal::Is(vars.fresh(), GExpr::Var(vars.any(self.rng))),
            };
            goals.push(g);
        }
        goals
    }
}

/// Per-clause variable pool: variables are `X0..X<limit>`, with `fresh`
/// extending past the initial pool.
struct VarPool {
    limit: u16,
    next_fresh: u16,
}

impl VarPool {
    fn new(limit: u16) -> VarPool {
        VarPool {
            limit,
            next_fresh: limit,
        }
    }

    /// Any pool variable (may or may not be bound at run time).
    fn any(&mut self, rng: &mut TestRng) -> u16 {
        rng.index(self.limit as usize) as u16
    }

    /// A variable not yet used by this clause.
    fn fresh(&mut self) -> u16 {
        let v = self.next_fresh;
        self.next_fresh += 1;
        v
    }

    /// The most recently returned fresh variable.
    fn last(&self) -> u16 {
        self.next_fresh - 1
    }
}

/// Helper for building partial terms in query position.
struct VarPoolView<'a>(&'a mut VarPool);

impl VarPoolView<'_> {
    fn partial(&mut self, rng: &mut TestRng) -> GTerm {
        if rng.chance(1, 2) {
            GTerm::Cons(
                Box::new(GTerm::Var(self.0.fresh())),
                Box::new(GTerm::Var(self.0.fresh())),
            )
        } else {
            GTerm::Struct(
                rng.index(FUNCTORS.len()) as u8,
                vec![GTerm::Var(self.0.fresh())],
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcm_testkit::cases;

    #[test]
    fn generated_programs_parse() {
        cases(64, |rng| {
            let p = GProgram::generate(rng);
            let src = p.source();
            kcm_prolog::read_program(&src)
                .unwrap_or_else(|e| panic!("generated source failed to parse: {e}\n{src}"));
            kcm_prolog::read_term(&p.query_text()).unwrap_or_else(|e| {
                panic!("generated query failed to parse: {e}\n{}", p.query_text())
            });
        });
    }

    #[test]
    fn rendering_is_stable_under_reparse() {
        // Negative literals, operators and partial lists all round-trip.
        let p = GProgram {
            clauses: vec![GClause {
                pred: 0,
                args: vec![
                    GTerm::Int(-3),
                    GTerm::Cons(Box::new(GTerm::Var(0)), Box::new(GTerm::Var(1))),
                ],
                body: vec![
                    GGoal::Is(
                        2,
                        GExpr::Bin(4, Box::new(GExpr::Var(0)), Box::new(GExpr::Int(-2))),
                    ),
                    GGoal::Not(0, vec![GTerm::Nil, GTerm::Nil]),
                ],
            }],
            query: vec![GGoal::Call(0, vec![GTerm::Int(-3), GTerm::Nil])],
        };
        kcm_prolog::read_program(&p.source()).expect("parses");
        kcm_prolog::read_term(&p.query_text()).expect("parses");
    }

    #[test]
    fn query_vars_in_order() {
        let p = GProgram {
            clauses: vec![],
            query: vec![GGoal::Call(
                0,
                vec![GTerm::Var(4), GTerm::Var(1), GTerm::Var(4)],
            )],
        };
        assert_eq!(p.query_vars(), vec![4, 1]);
    }
}
