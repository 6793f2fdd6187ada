//! Query shapes: the key under which a query's compiled overlay is kept
//! on its program image ([`kcm_arch::shape`]), and the compile path that
//! consults the image's table.
//!
//! A shape is the goal walked the way [`crate::ir::Program::query`]
//! flattens it, with every atom in a *data* argument replaced by a
//! numbered hole. Data arguments are those of a goal that
//! [`classify_with`] makes a user call (`call/N` included) and those of
//! `=/2`; in them an atom other than `[]` is a hole, also inside a
//! compound that holds a variable. Holes are numbered by the first
//! occurrence of each distinct atom, so no compile-time comparison
//! between atoms differs within one shape. Everything else stays in the
//! key verbatim: control constructs, goal names and arities, variables
//! (the reply reports them by name), numbers, `[]`, ground compounds
//! (they become static literals, laid out by their words), and the
//! arguments of escapes and arithmetic.
//!
//! A query whose shape the table holds, compiled against a symbol table
//! of the size the template was compiled against and with every hole's
//! atom already interned, is answered by copying the template: nothing is
//! interned and no compiler pass runs. A shape the table does not hold
//! is compiled once, with placeholder atoms in its holes, on a scratch
//! copy of the symbol table; the result is kept if that compile interned
//! nothing but the placeholders and every placeholder sits in a constant
//! operand ([`QueryTemplate::new`]), and is then instantiated for the
//! query. Any other query compiles directly, as it would without the
//! table. Debug builds also compile every miss directly and require the
//! two results to be identical.

use crate::builtins::{classify_with, GoalKind};
use crate::link::Linker;
use crate::CompileError;
use kcm_arch::shape::{QueryTemplate, ShapeLookup, MAX_TEMPLATE_BYTES};
use kcm_arch::{AtomId, CodeImage, CompileOptions, SymbolTable};
use kcm_prolog::Term;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// The prefix of placeholder atom names. A key never holds an atom
/// with it verbatim, so a placeholder can only be where a hole is.
const PLACEHOLDER: char = '\0';

fn placeholder(hole: usize) -> String {
    format!("{PLACEHOLDER}{hole}")
}

/// The shape of one query: its key and its holes' atoms, in buffers
/// that a thread reuses from query to query.
#[derive(Default)]
struct Shape {
    key: Vec<u8>,
    /// Each hole's atom, by first occurrence.
    holes: Vec<AtomId>,
    hole_of: HashMap<AtomId, u32>,
    /// Pre-order groundness marks of the compounds of the data argument
    /// being walked ([`Shape::mark`]), and the walk's position in them.
    marks: Vec<u32>,
    cursor: usize,
    /// The pending cells of the argument spines [`Shape::mark`] is in.
    spine: Vec<(usize, bool)>,
}

thread_local! {
    /// The shape of the query this thread compiles: keying a query
    /// allocates nothing once the buffers have grown.
    static SHAPE: RefCell<Shape> = RefCell::new(Shape::default());
}

/// Whether `name/arity` is a control construct `Program::query`
/// flattens into auxiliary predicates.
fn is_control(name: &str, arity: usize) -> bool {
    matches!(
        (name, arity),
        (",", 2) | (";", 2) | ("->", 2) | ("\\+", 1) | ("not", 1)
    )
}

/// Whether a goal's arguments are data: a user call's or `=/2`'s.
fn data_args(goal: &Term, options: &CompileOptions) -> bool {
    matches!(
        classify_with(goal, options),
        GoalKind::UserCall(..) | GoalKind::Unify(..)
    )
}

impl Shape {
    /// Appends `bytes` to the key, unless that makes the key longer than
    /// a template may be: then the query is not keyed.
    fn put(&mut self, bytes: &[u8]) -> Option<()> {
        if self.key.len() + bytes.len() > MAX_TEMPLATE_BYTES {
            return None;
        }
        self.key.extend_from_slice(bytes);
        Some(())
    }

    /// Appends a tag byte and a 32-bit value.
    fn put_word(&mut self, tag: u8, value: u32) -> Option<()> {
        let mut bytes = [tag; 5];
        bytes[1..].copy_from_slice(&value.to_le_bytes());
        self.put(&bytes)
    }

    fn put_name(&mut self, tag: u8, name: &str) -> Option<()> {
        if name.starts_with(PLACEHOLDER) {
            return None;
        }
        self.put_word(tag, name.len() as u32)?;
        self.put(name.as_bytes())
    }

    fn put_node(&mut self, name: &str, arity: usize) -> Option<()> {
        self.put_name(b'(', name)?;
        self.put(&(arity as u32).to_le_bytes())
    }

    /// Keys `goal` against `symbols`: `None` when the query cannot be
    /// keyed (a hole's atom is not interned, an atom is spelled like a
    /// placeholder, or the key outgrows a template). Linear in the goal.
    fn key(&mut self, goal: &Term, symbols: &SymbolTable, options: &CompileOptions) -> Option<()> {
        self.key.clear();
        self.holes.clear();
        self.hole_of.clear();
        self.goal(goal, symbols, options)
    }

    /// Marks a data argument's compounds ([`Shape::mark`]) and sets the
    /// walk to its first.
    fn start_data(&mut self, arg: &Term) -> Option<()> {
        self.marks.clear();
        self.spine.clear();
        self.cursor = 0;
        self.mark(arg).map(drop)
    }

    fn goal(&mut self, goal: &Term, symbols: &SymbolTable, options: &CompileOptions) -> Option<()> {
        let mut t = goal;
        loop {
            let (name, args) = match t {
                Term::Struct(n, args) => (n, &args[..]),
                _ => return self.verbatim(t),
            };
            self.put_node(name, args.len())?;
            if is_control(name, args.len()) {
                let (last, rest) = args.split_last()?;
                for a in rest {
                    self.goal(a, symbols, options)?;
                }
                t = last;
                continue;
            }
            let data = data_args(t, options);
            for a in args {
                if data {
                    self.start_data(a)?;
                    self.data(a, symbols)?;
                } else {
                    self.verbatim(a)?;
                }
            }
            return Some(());
        }
    }

    /// Pushes one mark per compound of `t`, in pre-order: for a ground
    /// compound the index past its subterms' marks, where the walk of
    /// `t` resumes after keying the compound verbatim; for another
    /// compound 0. Returns whether `t` is ground, or `None` once there
    /// are more compounds than a template's key could hold. Recursion
    /// deepens only through non-last arguments.
    fn mark(&mut self, t: &Term) -> Option<bool> {
        let bottom = self.spine.len();
        let mut t = t;
        let tail_ground = loop {
            match t {
                Term::Struct(_, args) => {
                    if self.marks.len() > MAX_TEMPLATE_BYTES / 8 {
                        return None;
                    }
                    let at = self.marks.len();
                    self.marks.push(0);
                    let Some((last, rest)) = args.split_last() else {
                        self.marks[at] = self.marks.len() as u32;
                        break true;
                    };
                    let mut ground = true;
                    for a in rest {
                        ground &= self.mark(a)?;
                    }
                    self.spine.push((at, ground));
                    t = last;
                }
                Term::Var(_) => break false,
                _ => break true,
            }
        };
        // A spine cell is ground when its own arguments and the rest of
        // the spine are; its subterms' marks run to the spine's end.
        let end = self.marks.len() as u32;
        let mut ground = tail_ground;
        while self.spine.len() > bottom {
            let (at, own) = self.spine.pop().expect("above bottom");
            ground &= own;
            if ground {
                self.marks[at] = end;
            }
        }
        Some(ground)
    }

    /// Keys a data argument: atoms become holes, except inside ground
    /// compounds, which are keyed verbatim.
    fn data(&mut self, t: &Term, symbols: &SymbolTable) -> Option<()> {
        let mut t = t;
        loop {
            match t {
                Term::Atom(n) if n != kcm_prolog::term::NIL => {
                    if n.starts_with(PLACEHOLDER) {
                        return None;
                    }
                    let atom = symbols.find_atom(n)?;
                    let next = self.holes.len() as u32;
                    let hole = *self.hole_of.entry(atom).or_insert(next);
                    if hole == next {
                        self.holes.push(atom);
                    }
                    return self.put_word(b'h', hole);
                }
                Term::Struct(n, args) if self.marks[self.cursor] == 0 => {
                    self.cursor += 1;
                    self.put_node(n, args.len())?;
                    let (last, rest) = args.split_last()?;
                    for a in rest {
                        self.data(a, symbols)?;
                    }
                    t = last;
                }
                Term::Struct(..) => {
                    self.cursor = self.marks[self.cursor] as usize;
                    return self.verbatim(t);
                }
                _ => return self.verbatim(t),
            }
        }
    }

    /// Keys `t` as it is.
    fn verbatim(&mut self, t: &Term) -> Option<()> {
        let mut t = t;
        loop {
            match t {
                Term::Var(v) => return self.put_name(b'V', v),
                Term::Atom(n) => return self.put_name(b'a', n),
                Term::Int(i) => return self.put_word(b'i', *i as u32),
                Term::Float(f) => return self.put_word(b'f', f.to_bits()),
                Term::Struct(n, args) => {
                    self.put_node(n, args.len())?;
                    let Some((last, rest)) = args.split_last() else {
                        return Some(());
                    };
                    for a in rest {
                        self.verbatim(a)?;
                    }
                    t = last;
                }
            }
        }
    }

    /// `goal` with its holes' atoms replaced by placeholders: the goal a
    /// template is compiled from. The goal was keyed, so its holes'
    /// atoms are interned and it is no larger than a template's key.
    fn with_placeholders(
        &mut self,
        goal: &Term,
        symbols: &SymbolTable,
        options: &CompileOptions,
    ) -> Term {
        let Term::Struct(name, args) = goal else {
            return goal.clone();
        };
        let args = if is_control(name, args.len()) {
            args.iter()
                .map(|a| self.with_placeholders(a, symbols, options))
                .collect()
        } else if data_args(goal, options) {
            args.iter()
                .map(|a| {
                    self.start_data(a).expect("the goal was keyed");
                    self.data_with_placeholders(a, symbols)
                })
                .collect()
        } else {
            args.clone()
        };
        Term::Struct(name.clone(), args)
    }

    fn data_with_placeholders(&mut self, t: &Term, symbols: &SymbolTable) -> Term {
        match t {
            Term::Atom(n) if n != kcm_prolog::term::NIL => {
                let atom = symbols.find_atom(n).expect("a hole's atom is interned");
                Term::Atom(placeholder(self.hole_of[&atom] as usize))
            }
            Term::Struct(n, args) if self.marks[self.cursor] == 0 => {
                self.cursor += 1;
                let args = args
                    .iter()
                    .map(|a| self.data_with_placeholders(a, symbols))
                    .collect();
                Term::Struct(n.clone(), args)
            }
            Term::Struct(..) => {
                self.cursor = self.marks[self.cursor] as usize;
                t.clone()
            }
            _ => t.clone(),
        }
    }
}

impl Shape {
    /// Compiles the keyed `goal` with placeholders in its holes on a
    /// scratch copy of `symbols`, and keeps the result as a template if
    /// that compile interned nothing but the placeholders and the
    /// template admits it ([`QueryTemplate::new`]).
    fn template(
        &mut self,
        base: &Arc<CodeImage>,
        goal: &Term,
        symbols: &SymbolTable,
    ) -> Option<QueryTemplate> {
        let before = (symbols.atom_count(), symbols.functor_count());
        let holes = self.holes.len();
        let interned = (before.0 + holes, before.1);
        let mut scratch = symbols.clone();
        for hole in 0..holes {
            scratch.atom(&placeholder(hole));
        }
        let goal = self.with_placeholders(goal, symbols, base.options());
        let counts = |s: &SymbolTable| (s.atom_count(), s.functor_count());
        if counts(&scratch) != interned {
            return None;
        }
        let (overlay, vars) = Linker::link_query_directly(base, &goal, &mut scratch).ok()?;
        if counts(&scratch) != interned {
            return None;
        }
        QueryTemplate::new(overlay, before.0..interned.0, vars, before)
    }
}

/// Compiles `goal` as a query overlay on the flat image `base` through
/// the image's table of shapes: a repeated shape copies its template, a
/// new one compiles once and is kept, and anything else compiles
/// directly (see the module docs).
pub(crate) fn compile(
    base: &Arc<CodeImage>,
    goal: &Term,
    symbols: &mut SymbolTable,
) -> Result<(CodeImage, Vec<String>), CompileError> {
    SHAPE.with(|shape| {
        let shape = &mut *shape.borrow_mut();
        if shape.key(goal, symbols, base.options()).is_none() {
            base.count_shape_miss();
            return Linker::link_query_directly(base, goal, symbols);
        }
        match base.find_shape(&shape.key, symbols) {
            ShapeLookup::Hit(template) => Ok(template.instantiate(base, &shape.holes)),
            ShapeLookup::Uncacheable => Linker::link_query_directly(base, goal, symbols),
            ShapeLookup::Miss => {
                let template = shape.template(base, goal, symbols);
                let compiled = match &template {
                    Some(template) => {
                        let compiled = template.instantiate(base, &shape.holes);
                        #[cfg(debug_assertions)]
                        check_miss(base, goal, symbols, &compiled);
                        Ok(compiled)
                    }
                    None => Linker::link_query_directly(base, goal, symbols),
                };
                base.insert_shape(&shape.key, template);
                compiled
            }
        }
    })
}

/// Requires a miss instantiated from its new template to equal the
/// direct compile of its query: the same overlay, the same symbol table
/// (neither interns anything) and the same reported variables.
#[cfg(debug_assertions)]
fn check_miss(
    base: &Arc<CodeImage>,
    goal: &Term,
    symbols: &SymbolTable,
    (overlay, vars): &(CodeImage, Vec<String>),
) {
    let mut direct_symbols = symbols.clone();
    let (direct, direct_vars) = Linker::link_query_directly(base, goal, &mut direct_symbols)
        .unwrap_or_else(|e| panic!("{goal}: its shape compiled, the query did not: {e}"));
    assert_eq!(
        overlay.own_listing(),
        direct.own_listing(),
        "{goal}: the shape's template differs from the direct compile"
    );
    let counts = |s: &SymbolTable| (s.atom_count(), s.functor_count());
    assert_eq!(
        counts(symbols),
        counts(&direct_symbols),
        "{goal}: the direct compile interned symbols"
    );
    assert_eq!(vars, &direct_vars, "{goal}: reported variables differ");
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcm_arch::shape::{MAX_SHAPES, MAX_SHAPE_BYTES};
    use kcm_prolog::read_term;

    fn kv(facts: usize) -> (Arc<CodeImage>, SymbolTable) {
        let src: String = (0..facts).map(|i| format!("kv(k{i}, v{i}). ")).collect();
        let clauses = kcm_prolog::read_program(&src).unwrap();
        let mut symbols = SymbolTable::new();
        let image = crate::compile_program(&clauses, &mut symbols).unwrap();
        symbols.freeze();
        (Arc::new(image), symbols)
    }

    fn compile_on(image: &Arc<CodeImage>, symbols: &SymbolTable, query: &str) -> SymbolTable {
        let mut symbols = symbols.clone();
        crate::compile_query(image, &read_term(query).unwrap(), &mut symbols).unwrap();
        symbols
    }

    /// Takes a long list apart cell by cell: dropping it whole would
    /// recurse once per cell.
    fn dismantle(t: Term) {
        let mut rest = Some(t);
        while let Some(Term::Struct(_, mut args)) = rest {
            rest = args.pop();
        }
    }

    #[test]
    fn a_repeated_shape_hits_and_interns_nothing() {
        let (image, symbols) = kv(20);
        compile_on(&image, &symbols, "kv(k1, V)");
        let after = compile_on(&image, &symbols, "kv(k2, V)");
        assert_eq!(after.atom_count(), symbols.atom_count());
        // Another equality pattern, another variable name and an atom the
        // program lacks each make another shape, or none.
        compile_on(&image, &symbols, "kv(k3, k3)");
        compile_on(&image, &symbols, "kv(k3, k4)");
        compile_on(&image, &symbols, "kv(k3, W)");
        compile_on(&image, &symbols, "kv(nokey, V)");
        let stats = image.shape_stats();
        assert_eq!((stats.hits, stats.misses, stats.shapes), (1, 5, 4));
    }

    #[test]
    fn keying_a_goal_is_linear_in_it() {
        // 10^5 distinct interned atoms in one data argument: far more
        // holes than a template's key holds, so the shape is not keyed,
        // and finding that out does not rescan the list per atom.
        let n = 100_000;
        let mut symbols = SymbolTable::new();
        let atoms: Vec<Term> = (0..n)
            .map(|i| {
                let name = format!("a{i}");
                symbols.atom(&name);
                Term::Atom(name)
            })
            .collect();
        let mut items = vec![Term::Var("X".to_owned())];
        items.extend(atoms);
        let goal = Term::Struct("p".to_owned(), vec![Term::list(items, None)]);
        let started = std::time::Instant::now();
        let keyed = Shape::default().key(&goal, &symbols, &CompileOptions::default());
        assert!(keyed.is_none(), "10^5 holes are not cacheable");
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        dismantle(goal);
    }

    #[test]
    fn too_many_query_variables_are_rejected_in_linear_time() {
        let (image, symbols) = kv(2);
        // Built directly: the reader refuses a list this long.
        let vars = (0..20_000).map(|i| Term::Var(format!("X{i}"))).collect();
        let goal = Term::Struct("p".to_owned(), vec![Term::list(vars, None)]);
        let started = std::time::Instant::now();
        let compiled = crate::compile_query(&image, &goal, &mut symbols.clone());
        assert!(matches!(
            compiled,
            Err(CompileError::TooManyQueryVars(20_000))
        ));
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        let Term::Struct(_, mut args) = goal else {
            unreachable!("p/1")
        };
        dismantle(args.pop().expect("one argument"));
    }

    #[test]
    fn ten_thousand_shapes_stay_within_the_table_bounds() {
        let (image, symbols) = kv(20);
        for i in 0..10_000 {
            compile_on(&image, &symbols, &format!("kv(k1, V{i})"));
            let stats = image.shape_stats();
            assert!(stats.shapes <= MAX_SHAPES, "{stats:?}");
            assert!(stats.bytes <= MAX_SHAPE_BYTES, "{stats:?}");
        }
        assert_eq!(image.shape_stats().misses, 10_000);
    }
}
