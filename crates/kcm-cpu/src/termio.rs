//! Host-side term I/O: decoding machine heap terms into
//! [`kcm_prolog::Term`]s and building terms in machine memory.
//!
//! This is the monitor's view of the machine (the paper's tool set
//! includes "monitors (at microcode, macrocode, and Prolog levels)", §4):
//! solution reporting, `write/1` and the structural built-ins all go
//! through here.

use crate::machine::{Machine, MachineError};
use kcm_arch::{Tag, Word};
use kcm_mem::DataMem;
use kcm_prolog::{Term, MAX_DEPTH};
use std::collections::HashMap;

/// One step of the iterative decoder: either decode a machine word at a
/// given depth, or assemble a composite from already-decoded children
/// on the output stack.
enum DecodeTask {
    Decode(Word, usize),
    BuildList,
    BuildStruct(String, usize),
}

impl<M: DataMem> Machine<M> {
    /// Decodes the term rooted at `w` into a host [`Term`]. Unbound
    /// variables print as `_G<address>`.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::TermDepth`] on terms deeper than
    /// [`MAX_DEPTH`] (for example rational trees created by occurs-check-free
    /// unification).
    pub fn decode_term(&mut self, w: Word) -> Result<Term, MachineError> {
        let mut work = vec![DecodeTask::Decode(w, 0)];
        let mut out: Vec<Term> = Vec::new();
        while let Some(task) = work.pop() {
            match task {
                DecodeTask::Decode(w, depth) => {
                    if depth > MAX_DEPTH {
                        return Err(MachineError::TermDepth);
                    }
                    let w = self.deref(w)?;
                    match w.tag() {
                        Tag::Ref => {
                            let addr = w.as_addr().expect("unbound ref");
                            out.push(Term::Var(format!("_G{}", addr.value())));
                        }
                        Tag::Int => out.push(Term::Int(w.value() as i32)),
                        Tag::Float => out.push(Term::Float(f32::from_bits(w.value()))),
                        Tag::Nil => out.push(Term::nil()),
                        Tag::Atom => {
                            let id = w.as_atom().expect("atom");
                            out.push(Term::Atom(self.symbols.atom_name(id).to_owned()));
                        }
                        Tag::List => {
                            let p = w.as_addr().expect("list pointer");
                            let head = self.read_cell(p)?;
                            let tail = self.read_cell(p.offset(1))?;
                            work.push(DecodeTask::BuildList);
                            work.push(DecodeTask::Decode(tail, depth + 1));
                            work.push(DecodeTask::Decode(head, depth + 1));
                        }
                        Tag::Struct => {
                            let p = w.as_addr().expect("struct pointer");
                            let fw = self.read_cell(p)?;
                            let f = fw.as_functor().ok_or_else(|| {
                                MachineError::TypeFault("corrupt structure frame".into())
                            })?;
                            let name = self.symbols.functor_name(f).to_owned();
                            let arity = self.symbols.functor_arity(f) as usize;
                            work.push(DecodeTask::BuildStruct(name, arity));
                            // Pushed in reverse so the first argument is
                            // decoded (and lands on `out`) first.
                            for i in (1..=arity as i64).rev() {
                                let cell = self.read_cell(p.offset(i))?;
                                work.push(DecodeTask::Decode(cell, depth + 1));
                            }
                        }
                        other => {
                            return Err(MachineError::TypeFault(format!(
                                "cannot decode a {other} word as a term"
                            )));
                        }
                    }
                }
                DecodeTask::BuildList => {
                    let t = out.pop().expect("list tail decoded");
                    let h = out.pop().expect("list head decoded");
                    out.push(Term::cons(h, t));
                }
                DecodeTask::BuildStruct(name, arity) => {
                    let args = out.split_off(out.len() - arity);
                    out.push(Term::Struct(name, args));
                }
            }
        }
        Ok(out.pop().expect("decode produced a term"))
    }

    /// Formats the term rooted at `w` the way `write/1` prints it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::decode_term`].
    pub fn format_term(&mut self, w: Word) -> Result<String, MachineError> {
        Ok(self.decode_term(w)?.to_string())
    }

    /// Builds `t` on the heap, returning its root word. Variables with the
    /// same name share one fresh cell (tracked in `vars`).
    ///
    /// # Errors
    ///
    /// Propagates memory faults.
    pub fn build_term(
        &mut self,
        t: &Term,
        vars: &mut HashMap<String, Word>,
    ) -> Result<Word, MachineError> {
        match t {
            Term::Int(v) => Ok(Word::int(*v)),
            Term::Float(v) => Ok(Word::float(*v)),
            Term::Atom(n) if n == "[]" => Ok(Word::nil()),
            Term::Atom(n) => {
                let id = self.symbols.atom(n);
                Ok(Word::atom(id))
            }
            Term::Var(name) => {
                if let Some(w) = vars.get(name) {
                    return Ok(*w);
                }
                let w = self.new_heap_var()?;
                vars.insert(name.clone(), w);
                Ok(w)
            }
            Term::Struct(n, args) if n == "." && args.len() == 2 => {
                // Build children first so the cons cell is contiguous.
                let head = self.build_term(&args[0], vars)?;
                let tail = self.build_term(&args[1], vars)?;
                let p = self.heap_push(head)?;
                self.heap_push(tail)?;
                Ok(Word::ptr(Tag::List, p))
            }
            Term::Struct(n, args) => {
                let mut built = Vec::with_capacity(args.len());
                for a in args {
                    built.push(self.build_term(a, vars)?);
                }
                let f = self.symbols.functor(n, args.len() as u8);
                let p = self.heap_push(Word::functor(f))?;
                for w in built {
                    self.heap_push(w)?;
                }
                Ok(Word::ptr(Tag::Struct, p))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::{Machine, MachineConfig};
    use kcm_arch::SymbolTable;
    use kcm_prolog::Term;
    use std::collections::HashMap;

    fn machine() -> Machine {
        let clauses = kcm_prolog::read_program("t.").expect("parse");
        let mut symbols = SymbolTable::new();
        let image = kcm_compiler::compile_program(&clauses, &mut symbols).expect("compile");
        Machine::new(image, symbols, MachineConfig::default())
    }

    fn roundtrip(t: &Term) {
        let mut m = machine();
        let mut vars = HashMap::new();
        let w = m.build_term(t, &mut vars).expect("build");
        let back = m.decode_term(w).expect("decode");
        assert_eq!(back.to_string(), t.to_string());
    }

    #[test]
    fn build_decode_roundtrips() {
        roundtrip(&Term::Int(-5));
        roundtrip(&Term::Float(2.5));
        roundtrip(&Term::Atom("hello".into()));
        roundtrip(&Term::nil());
        roundtrip(&Term::list(
            vec![Term::Int(1), Term::Atom("a".into())],
            None,
        ));
        roundtrip(&Term::Struct(
            "f".into(),
            vec![Term::Int(1), Term::Struct("g".into(), vec![Term::nil()])],
        ));
    }

    #[test]
    fn shared_variables_share_cells() {
        let mut m = machine();
        let t = Term::Struct(
            "p".into(),
            vec![Term::Var("X".into()), Term::Var("X".into())],
        );
        let mut vars = HashMap::new();
        let w = m.build_term(&t, &mut vars).expect("build");
        assert_eq!(vars.len(), 1, "one cell for both occurrences");
        let back = m.decode_term(w).expect("decode");
        let names = back.variables();
        assert_eq!(names.len(), 1, "decoded occurrences alias: {back}");
    }

    #[test]
    fn format_matches_display() {
        let mut m = machine();
        let t = kcm_prolog::read_term("f([1, a], g(h))").expect("parse");
        let mut vars = HashMap::new();
        let w = m.build_term(&t, &mut vars).expect("build");
        assert_eq!(m.format_term(w).expect("format"), "f([1,a],g(h))");
    }
}
