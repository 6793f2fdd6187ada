//! The compiled program value behind [`crate::Kcm`] and every registry
//! entry, and the one write path that edits it: the paper's KCM links on
//! the host and leaves dynamic code to its front end (§4).
//!
//! An edit works on the program's own handles. It copies the image, the
//! clause source or the symbol base only while a reader holds the
//! version (a running query, a cursor, an older registry entry); a
//! program that no one else holds is patched in place, as KCM's
//! incremental compiler writes straight into its code space (§3.2.1).

use crate::{KcmError, ProgramSource};
use kcm_arch::SymbolTable;
use kcm_compiler::{clause_pred, CodeImage, Linker};
use kcm_prolog::Term;
use std::sync::Arc;

/// One compiled program: the linked image, the frozen symbol table it
/// was compiled against, and the clause source it was compiled from —
/// `None` when it was restored from a binary snapshot.
///
/// Every field is a sharing handle: copying the three is O(1), and an
/// edit copies the image, the source or the symbol base only while
/// another holder shares it.
#[derive(Debug)]
pub(crate) struct Program {
    pub(crate) image: Arc<CodeImage>,
    pub(crate) symbols: SymbolTable,
    pub(crate) source: Option<Arc<Vec<Term>>>,
}

/// Which edit [`Program::edit`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Edit {
    /// Add the clause at the end of its predicate.
    Assert,
    /// Remove the first identical clause ([`same_clause`]).
    Retract,
}

/// The refusal of every update that needs the clause source of a program
/// restored from a snapshot.
fn sourceless() -> KcmError {
    KcmError::Update(
        "the program was restored from a snapshot and holds no clause source: only ground \
         atomic-argument facts on existing fact predicates can be updated in place"
            .to_owned(),
    )
}

impl Program {
    /// Compiles `clauses` against `symbols` and freezes the table, so
    /// every per-query clone of it copies nothing.
    pub(crate) fn compile(
        clauses: Vec<Term>,
        mut symbols: SymbolTable,
    ) -> Result<Program, KcmError> {
        let image = kcm_compiler::compile_program(&clauses, &mut symbols)?;
        symbols.freeze();
        Ok(Program {
            image: Arc::new(image),
            symbols,
            source: Some(Arc::new(clauses)),
        })
    }

    /// Loads an artifact over `held`: source text is appended to the held
    /// clause source and the whole program recompiled; a snapshot
    /// replaces the held program and holds no source.
    pub(crate) fn load(
        held: Option<&Program>,
        artifact: ProgramSource<'_>,
    ) -> Result<Program, KcmError> {
        match artifact {
            ProgramSource::Source(text) => {
                let clauses = kcm_prolog::read_program(text)?;
                let Some(held) = held else {
                    return Program::compile(clauses, SymbolTable::new());
                };
                let mut all = held.source.as_deref().ok_or_else(sourceless)?.clone();
                all.extend(clauses);
                Program::compile(all, held.symbols.clone())
            }
            ProgramSource::Snapshot(bytes) => {
                let (image, symbols) = kcm_arch::snapshot::load(bytes)?;
                Ok(Program {
                    image,
                    symbols,
                    source: None,
                })
            }
        }
    }

    /// Applies one `assertz` or `retract` of `clause` and reports whether
    /// the program changed (an assert always does; a retract only when a
    /// clause matched).
    ///
    /// A ground fact with atomic arguments on an existing fact predicate
    /// is patched into the image in place. Anything else — a rule, a
    /// compound argument, a new predicate, a shape the patch declines —
    /// relinks the predicate from the held source, or is refused with
    /// [`KcmError::Update`] when no source is held.
    ///
    /// Transactional: on `Err` the program is as it was.
    pub(crate) fn edit(&mut self, clause: &str, edit: Edit) -> Result<bool, KcmError> {
        let term = kcm_prolog::read_term(clause)?;
        let pred = clause_pred(&term)?;
        let entry = self.image.entry(&pred.name, pred.arity);
        if edit == Edit::Retract && entry.is_none() {
            return Ok(false);
        }

        let mut symbols = self.symbols.clone();
        let fact = kcm_compiler::compile_fact(&pred, &term, &mut symbols, self.image.options())?;
        if let (Some(fact), Some(entry)) = (fact, entry) {
            // Copies the image only while another holder shares it.
            let image = Arc::make_mut(&mut self.image);
            let patched = match edit {
                Edit::Assert => image
                    .assert_fact_clause(entry, fact.key1, fact.key2, &fact.code)
                    .map(|()| true),
                Edit::Retract => image.retract_fact_clause(entry, &fact.code),
            };
            #[cfg(test)]
            tests::inject_edit_fault();
            // A declined patch leaves the image unchanged: fall through
            // to the relink.
            if let Ok(changed) = patched {
                // An assert may intern new atoms; a retract's match
                // interned nothing new, so its probe table is dropped.
                // The edited table replaces the held one before it is
                // frozen, so a base no one else holds is extended in
                // place rather than copied.
                if edit == Edit::Assert {
                    self.symbols = symbols;
                    self.symbols.freeze();
                }
                if let (true, Some(source)) = (changed, &mut self.source) {
                    edit_source(Arc::make_mut(source), term, edit);
                }
                return Ok(changed);
            }
        }

        let source = self.source.as_deref().ok_or_else(sourceless)?;
        let mut all = source.clone();
        if !edit_source(&mut all, term, edit) {
            return Ok(false);
        }
        let clauses: Vec<Term> = all
            .iter()
            .filter(|t| clause_pred(t).is_ok_and(|p| p == pred))
            .cloned()
            .collect();
        let mut symbols = self.symbols.clone();
        let mut image = CodeImage::clone(&self.image);
        Linker::relink_predicate(&mut image, &pred, &clauses, &mut symbols)?;
        *self = Program {
            image: Arc::new(image),
            symbols,
            source: Some(Arc::new(all)),
        };
        self.symbols.freeze();
        Ok(true)
    }
}

/// Applies `edit` of `term` to a clause list; false when a retract found
/// no identical clause.
fn edit_source(clauses: &mut Vec<Term>, term: Term, edit: Edit) -> bool {
    match edit {
        Edit::Assert => clauses.push(term),
        Edit::Retract => match clauses.iter().position(|c| same_clause(c, &term)) {
            Some(at) => {
                clauses.remove(at);
            }
            None => return false,
        },
    }
    true
}

/// Clause identity for `retract`: structural equality, variable names
/// included, with floats compared bit for bit — the rule the compiled
/// code and its switch keys follow, so `p(-0.0)` and `p(0.0)` are two
/// clauses in the held source as in the image.
fn same_clause(a: &Term, b: &Term) -> bool {
    match (a, b) {
        (Term::Float(x), Term::Float(y)) => x.to_bits() == y.to_bits(),
        (Term::Struct(f, xs), Term::Struct(g, ys)) => {
            f == g && xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_clause(x, y))
        }
        _ => a == b,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::Cell;

    thread_local! {
        /// Armed on this thread: the next in-place patch panics after it
        /// has edited the image and before it has edited anything else.
        static EDIT_FAULT: Cell<bool> = const { Cell::new(false) };
    }

    /// Makes the next in-place patch on this thread panic half-done.
    pub(crate) fn arm_edit_fault() {
        EDIT_FAULT.set(true);
    }

    pub(super) fn inject_edit_fault() {
        if EDIT_FAULT.replace(false) {
            panic!("injected fault in an in-place edit");
        }
    }
}
