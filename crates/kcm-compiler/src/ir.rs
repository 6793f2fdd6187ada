//! Clause normalisation.
//!
//! Turns the reader's raw clause terms into a [`Program`]: predicates in
//! definition order, each a list of [`Clause`]s whose bodies are flat goal
//! lists. Control constructs are compiled away here:
//!
//! * `(A ; B)` becomes an auxiliary predicate with two clauses,
//! * `(C -> T ; E)` becomes an auxiliary predicate `aux :- C, !, T.` /
//!   `aux :- E.`,
//! * `\+ G` becomes `aux :- G, !, fail.` / `aux.`.
//!
//! A cut inside such a construct is local to the auxiliary predicate (the
//! usual semantics of the auxiliary-predicate transformation).

use crate::CompileError;
use kcm_prolog::Term;

pub use kcm_arch::PredId;

/// One body goal after normalisation.
#[derive(Debug, Clone, PartialEq)]
pub enum Goal {
    /// An ordinary goal: a call, a built-in, or an inlinable primitive —
    /// classified later by [`crate::builtins::classify`].
    Term(Term),
    /// `!`.
    Cut,
}

/// A normalised clause: a head term and a flat list of body goals.
#[derive(Debug, Clone, PartialEq)]
pub struct Clause {
    /// The head (an atom or structure).
    pub head: Term,
    /// The body goals in execution order (empty for facts).
    pub goals: Vec<Goal>,
}

impl Clause {
    /// Head arguments ([] for an atom head).
    pub fn head_args(&self) -> &[Term] {
        match &self.head {
            Term::Struct(_, args) => args,
            _ => &[],
        }
    }
}

/// A predicate: its identity and clauses in source order.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Name/arity.
    pub id: PredId,
    /// Clauses in source order.
    pub clauses: Vec<Clause>,
    /// Whether this is a compiler-generated auxiliary predicate (from
    /// `;`/`->`/`\+`). Auxiliaries are excluded from static-size tables,
    /// like the paper excludes the runtime library.
    pub auxiliary: bool,
}

/// A normalised program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Predicates in first-definition order (auxiliaries appended).
    pub predicates: Vec<Predicate>,
}

impl Program {
    /// Normalises reader output into a program.
    ///
    /// # Errors
    ///
    /// Rejects non-callable clause heads and directives.
    pub fn from_clauses(clauses: &[Term]) -> Result<Program, CompileError> {
        Program::from_clauses_named(clauses, "$aux")
    }

    /// Like [`Program::from_clauses`] with a custom prefix for generated
    /// auxiliary predicates — used when linking a query against an already
    /// linked program, to keep auxiliary names disjoint.
    ///
    /// # Errors
    ///
    /// Same as [`Program::from_clauses`].
    pub fn from_clauses_named(clauses: &[Term], aux_prefix: &str) -> Result<Program, CompileError> {
        let mut b = Builder {
            aux_prefix: aux_prefix.to_owned(),
            ..Builder::default()
        };
        for c in clauses {
            b.add_clause_term(c)?;
        }
        Ok(b.finish())
    }

    /// Finds a predicate by name and arity.
    pub fn find(&self, name: &str, arity: u8) -> Option<&Predicate> {
        self.predicates
            .iter()
            .find(|p| p.id.name == name && p.id.arity == arity)
    }
}

#[derive(Default)]
struct Builder {
    predicates: Vec<Predicate>,
    aux_counter: u32,
    aux_prefix: String,
}

/// The predicate a clause term defines: its head's functor, where
/// `H :- B` has head `H` and any other term is a fact. Lenient: it only
/// requires an atom or compound head of at most 255 arguments, so
/// directives, control functors and the dynamic-code built-ins pass here
/// and [`Program::from_clauses`] rejects them around it.
///
/// # Errors
///
/// [`CompileError::BadClauseHead`] for a variable or number head,
/// [`CompileError::ArityTooLarge`] past 255 arguments.
pub fn clause_pred(clause: &Term) -> Result<PredId, CompileError> {
    let head = match clause {
        Term::Struct(n, args) if n == ":-" && args.len() == 2 => &args[0],
        fact => fact,
    };
    let (name, arity) = match head {
        Term::Atom(name) => (name, 0),
        Term::Struct(name, args) => (name, args.len()),
        other => return Err(CompileError::BadClauseHead(other.to_string())),
    };
    let pred = name.clone();
    match u8::try_from(arity) {
        Ok(arity) => Ok(PredId { name: pred, arity }),
        Err(_) => Err(CompileError::ArityTooLarge { pred, arity }),
    }
}

impl Builder {
    fn add_clause_term(&mut self, t: &Term) -> Result<(), CompileError> {
        if matches!(t, Term::Struct(n, args) if (n == ":-" || n == "?-") && args.len() == 1) {
            return Err(CompileError::UnsupportedDirective(t.to_string()));
        }
        let id = clause_pred(t)?;
        let (head, body) = match t {
            Term::Struct(n, args) if n == ":-" && args.len() == 2 => (&args[0], Some(&args[1])),
            fact => (fact, None),
        };
        // Control functors and nil cannot head a user clause: without this
        // check an empty directive like `:- .` reads as an atom `:-` and
        // silently defines a predicate named `:-`.
        if matches!(
            id.name.as_str(),
            ":-" | "?-" | "," | ";" | "->" | "!" | "[]"
        ) {
            return Err(CompileError::BadClauseHead(head.to_string()));
        }
        if matches!(
            id.name.as_str(),
            "assert" | "asserta" | "assertz" | "retract" | "abolish"
        ) {
            return Err(CompileError::DynamicCodeUnsupported(id.to_string()));
        }
        let mut goals = Vec::new();
        if let Some(body) = body {
            self.flatten(body, &mut goals)?;
        }
        let head = head.clone();
        self.push_clause(id, Clause { head, goals }, false);
        Ok(())
    }

    fn push_clause(&mut self, id: PredId, clause: Clause, auxiliary: bool) {
        if let Some(p) = self.predicates.iter_mut().find(|p| p.id == id) {
            p.clauses.push(clause);
        } else {
            self.predicates.push(Predicate {
                id,
                clauses: vec![clause],
                auxiliary,
            });
        }
    }

    /// Flattens a body term into `out`, creating auxiliary predicates for
    /// control constructs.
    fn flatten(&mut self, body: &Term, out: &mut Vec<Goal>) -> Result<(), CompileError> {
        match body {
            Term::Struct(n, args) if n == "," && args.len() == 2 => {
                self.flatten(&args[0], out)?;
                self.flatten(&args[1], out)
            }
            Term::Atom(n) if n == "true" => Ok(()),
            Term::Atom(n) if n == "!" => {
                out.push(Goal::Cut);
                Ok(())
            }
            Term::Struct(n, args) if n == ";" && args.len() == 2 => {
                // If-then-else or plain disjunction.
                let aux = if let Term::Struct(arrow, ite) = &args[0] {
                    if arrow == "->" && ite.len() == 2 {
                        self.make_aux_ite(&ite[0], &ite[1], &args[1])?
                    } else {
                        self.make_aux_or(&args[0], &args[1])?
                    }
                } else {
                    self.make_aux_or(&args[0], &args[1])?
                };
                out.push(Goal::Term(aux));
                Ok(())
            }
            Term::Struct(n, args) if n == "->" && args.len() == 2 => {
                // Bare if-then: (C -> T) ≡ (C -> T ; fail).
                let aux = self.make_aux_ite(&args[0], &args[1], &Term::Atom("fail".into()))?;
                out.push(Goal::Term(aux));
                Ok(())
            }
            Term::Struct(n, args) if (n == "\\+" || n == "not") && args.len() == 1 => {
                let aux = self.make_aux_not(&args[0])?;
                out.push(Goal::Term(aux));
                Ok(())
            }
            Term::Var(_) => {
                // A variable goal is the meta-call: G ≡ call(G).
                out.push(Goal::Term(Term::Struct("call".into(), vec![body.clone()])));
                Ok(())
            }
            Term::Int(_) | Term::Float(_) => Err(CompileError::BadClauseHead(body.to_string())),
            other => {
                out.push(Goal::Term(other.clone()));
                Ok(())
            }
        }
    }

    /// Shared variables between a control construct and the clause around
    /// it become the auxiliary predicate's arguments. Passing *all*
    /// variables of the construct is a safe over-approximation.
    fn aux_head(&mut self, parts: &[&Term]) -> (String, Vec<Term>) {
        self.aux_counter += 1;
        let name = format!("{}{}", self.aux_prefix, self.aux_counter);
        let mut vars: Vec<String> = Vec::new();
        for p in parts {
            for v in p.variables() {
                if !vars.iter().any(|x| x == v) {
                    vars.push(v.to_owned());
                }
            }
        }
        let args: Vec<Term> = vars.into_iter().map(Term::Var).collect();
        (name, args)
    }

    fn aux_call(name: &str, args: &[Term]) -> Term {
        if args.is_empty() {
            Term::Atom(name.to_owned())
        } else {
            Term::Struct(name.to_owned(), args.to_vec())
        }
    }

    fn make_aux_or(&mut self, a: &Term, b: &Term) -> Result<Term, CompileError> {
        let (name, args) = self.aux_head(&[a, b]);
        let head = Self::aux_call(&name, &args);
        let id = PredId {
            name: name.clone(),
            arity: args.len() as u8,
        };
        let mut ga = Vec::new();
        self.flatten(a, &mut ga)?;
        let mut gb = Vec::new();
        self.flatten(b, &mut gb)?;
        self.push_clause(
            id.clone(),
            Clause {
                head: head.clone(),
                goals: ga,
            },
            true,
        );
        self.push_clause(
            id,
            Clause {
                head: head.clone(),
                goals: gb,
            },
            true,
        );
        Ok(head)
    }

    fn make_aux_ite(&mut self, c: &Term, t: &Term, e: &Term) -> Result<Term, CompileError> {
        let (name, args) = self.aux_head(&[c, t, e]);
        let head = Self::aux_call(&name, &args);
        let id = PredId {
            name: name.clone(),
            arity: args.len() as u8,
        };
        let mut g1 = Vec::new();
        self.flatten(c, &mut g1)?;
        g1.push(Goal::Cut);
        self.flatten(t, &mut g1)?;
        let mut g2 = Vec::new();
        self.flatten(e, &mut g2)?;
        self.push_clause(
            id.clone(),
            Clause {
                head: head.clone(),
                goals: g1,
            },
            true,
        );
        self.push_clause(
            id,
            Clause {
                head: head.clone(),
                goals: g2,
            },
            true,
        );
        Ok(head)
    }

    fn make_aux_not(&mut self, g: &Term) -> Result<Term, CompileError> {
        let (name, args) = self.aux_head(&[g]);
        let head = Self::aux_call(&name, &args);
        let id = PredId {
            name: name.clone(),
            arity: args.len() as u8,
        };
        let mut g1 = Vec::new();
        self.flatten(g, &mut g1)?;
        g1.push(Goal::Cut);
        g1.push(Goal::Term(Term::Atom("fail".into())));
        self.push_clause(
            id.clone(),
            Clause {
                head: head.clone(),
                goals: g1,
            },
            true,
        );
        self.push_clause(
            id,
            Clause {
                head: head.clone(),
                goals: Vec::new(),
            },
            true,
        );
        Ok(head)
    }

    fn finish(self) -> Program {
        Program {
            predicates: self.predicates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcm_prolog::read_program;

    fn program(src: &str) -> Program {
        Program::from_clauses(&read_program(src).unwrap()).unwrap()
    }

    #[test]
    fn facts_and_rules_group_by_predicate() {
        let p = program("p(1). q. p(2). p(3) :- q.");
        assert_eq!(p.predicates.len(), 2);
        let pp = p.find("p", 1).unwrap();
        assert_eq!(pp.clauses.len(), 3);
        assert!(pp.clauses[0].goals.is_empty());
        assert_eq!(pp.clauses[2].goals.len(), 1);
    }

    #[test]
    fn conjunction_flattens() {
        let p = program("a :- b, c, d.");
        assert_eq!(p.find("a", 0).unwrap().clauses[0].goals.len(), 3);
    }

    #[test]
    fn true_disappears_and_cut_is_kept() {
        let p = program("a :- true, !, b.");
        let goals = &p.find("a", 0).unwrap().clauses[0].goals;
        assert_eq!(goals.len(), 2);
        assert_eq!(goals[0], Goal::Cut);
    }

    #[test]
    fn disjunction_becomes_aux_pred() {
        let p = program("a(X) :- (p(X) ; q(X)).");
        let aux = p.predicates.iter().find(|p| p.auxiliary).unwrap();
        assert_eq!(aux.clauses.len(), 2);
        assert_eq!(aux.id.arity, 1); // shares X
        let main = p.find("a", 1).unwrap();
        assert_eq!(main.clauses[0].goals.len(), 1);
    }

    #[test]
    fn if_then_else_gets_cut() {
        let p = program("a(X,Y) :- (X < 1 -> Y = small ; Y = big).");
        let aux = p.predicates.iter().find(|p| p.auxiliary).unwrap();
        assert!(aux.clauses[0].goals.contains(&Goal::Cut));
        assert!(!aux.clauses[1].goals.contains(&Goal::Cut));
    }

    #[test]
    fn negation_as_failure_shape() {
        let p = program("a :- \\+ b.");
        let aux = p.predicates.iter().find(|p| p.auxiliary).unwrap();
        assert_eq!(aux.clauses.len(), 2);
        let g = &aux.clauses[0].goals;
        assert_eq!(g[g.len() - 1], Goal::Term(Term::Atom("fail".into())));
        assert_eq!(g[g.len() - 2], Goal::Cut);
        assert!(aux.clauses[1].goals.is_empty());
    }

    #[test]
    fn directives_rejected() {
        let r = Program::from_clauses(&read_program(":- dynamic(foo/1).").unwrap());
        assert!(matches!(r, Err(CompileError::UnsupportedDirective(_))));
    }

    #[test]
    fn assert_rejected() {
        let r = Program::from_clauses(&read_program("a :- b. assert(X) :- X.").unwrap());
        assert!(matches!(r, Err(CompileError::DynamicCodeUnsupported(_))));
    }

    #[test]
    fn number_head_rejected() {
        let r = Program::from_clauses(&[Term::Int(3)]);
        assert!(matches!(r, Err(CompileError::BadClauseHead(_))));
    }
}
