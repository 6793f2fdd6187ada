//! Symbol tables: atom and functor interning.
//!
//! On the real KCM the symbol tables live in the static data zone and are
//! managed by the language subsystem; the simulator keeps them host-side
//! (only their *indices* circulate in tagged words), which changes nothing
//! observable — a word's value part is an opaque table index either way.

use std::collections::HashMap;
use std::sync::Arc;

/// An interned atom (index into the atom table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomId(u32);

impl AtomId {
    /// Builds an id from a raw table index.
    #[inline]
    pub const fn new(index: usize) -> AtomId {
        AtomId(index as u32)
    }

    /// The table index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned functor: a (name, arity) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunctorId(u32);

impl FunctorId {
    /// Builds an id from a raw table index.
    #[inline]
    pub const fn new(index: usize) -> FunctorId {
        FunctorId(index as u32)
    }

    /// The table index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// One layer of interned symbols: spellings and functor pairs in id
/// order, plus their reverse indices.
#[derive(Debug, Clone, Default)]
struct Symbols {
    atoms: Vec<String>,
    atom_index: HashMap<String, AtomId>,
    functors: Vec<(AtomId, u8)>,
    functor_index: HashMap<(AtomId, u8), FunctorId>,
}

impl Symbols {
    fn is_empty(&self) -> bool {
        self.atoms.is_empty() && self.functors.is_empty()
    }
}

/// Interning table for atoms and functors.
///
/// The table is a frozen base shared behind an `Arc` plus a local delta
/// whose ids continue the base's, so a clone costs O(delta), not
/// O(program): a query compiled against a loaded program clones the
/// program's table and interns its few new symbols into its own delta.
/// [`SymbolTable::freeze`] folds the delta into the base once the table
/// is to be shared.
///
/// # Examples
///
/// ```
/// use kcm_arch::SymbolTable;
/// let mut syms = SymbolTable::new();
/// let foo = syms.atom("foo");
/// assert_eq!(syms.atom("foo"), foo);
/// let f2 = syms.functor("f", 2);
/// assert_eq!(syms.functor_name(f2), "f");
/// assert_eq!(syms.functor_arity(f2), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    base: Arc<Symbols>,
    delta: Symbols,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Folds the local delta into the shared base, so later clones copy
    /// nothing. The base is copied first if another table still shares it
    /// (O(program), once per load or update, never per query).
    pub fn freeze(&mut self) {
        if self.delta.is_empty() {
            return;
        }
        let delta = std::mem::take(&mut self.delta);
        let base = Arc::make_mut(&mut self.base);
        base.atoms.extend(delta.atoms);
        base.atom_index.extend(delta.atom_index);
        base.functors.extend(delta.functors);
        base.functor_index.extend(delta.functor_index);
    }

    /// Interns an atom, returning its stable id.
    pub fn atom(&mut self, name: &str) -> AtomId {
        if let Some(id) = self.find_atom(name) {
            return id;
        }
        let id = AtomId::new(self.atom_count());
        self.delta.atoms.push(name.to_owned());
        self.delta.atom_index.insert(name.to_owned(), id);
        id
    }

    /// Looks up an atom without interning it.
    pub fn find_atom(&self, name: &str) -> Option<AtomId> {
        self.base
            .atom_index
            .get(name)
            .or_else(|| self.delta.atom_index.get(name))
            .copied()
    }

    /// The print name of an atom.
    ///
    /// # Panics
    ///
    /// Panics if the id does not come from this table.
    pub fn atom_name(&self, id: AtomId) -> &str {
        match self.base.atoms.get(id.index()) {
            Some(name) => name,
            None => &self.delta.atoms[id.index() - self.base.atoms.len()],
        }
    }

    /// Interns a functor (name/arity pair).
    pub fn functor(&mut self, name: &str, arity: u8) -> FunctorId {
        let atom = self.atom(name);
        self.functor_of(atom, arity)
    }

    /// Interns a functor from an already-interned atom.
    pub fn functor_of(&mut self, atom: AtomId, arity: u8) -> FunctorId {
        let key = (atom, arity);
        if let Some(&id) = self
            .base
            .functor_index
            .get(&key)
            .or_else(|| self.delta.functor_index.get(&key))
        {
            return id;
        }
        let id = FunctorId::new(self.functor_count());
        self.delta.functors.push(key);
        self.delta.functor_index.insert(key, id);
        id
    }

    /// The `(atom, arity)` pair of a functor.
    fn functor_pair(&self, id: FunctorId) -> (AtomId, u8) {
        match self.base.functors.get(id.index()) {
            Some(&pair) => pair,
            None => self.delta.functors[id.index() - self.base.functors.len()],
        }
    }

    /// The functor's name atom.
    ///
    /// # Panics
    ///
    /// Panics if the id does not come from this table.
    pub fn functor_atom(&self, id: FunctorId) -> AtomId {
        self.functor_pair(id).0
    }

    /// The functor's print name.
    ///
    /// # Panics
    ///
    /// Panics if the id does not come from this table.
    pub fn functor_name(&self, id: FunctorId) -> &str {
        self.atom_name(self.functor_atom(id))
    }

    /// The functor's arity.
    ///
    /// # Panics
    ///
    /// Panics if the id does not come from this table.
    pub fn functor_arity(&self, id: FunctorId) -> u8 {
        self.functor_pair(id).1
    }

    /// Number of interned atoms.
    pub fn atom_count(&self) -> usize {
        self.base.atoms.len() + self.delta.atoms.len()
    }

    /// Number of interned functors.
    pub fn functor_count(&self) -> usize {
        self.base.functors.len() + self.delta.functors.len()
    }

    /// The atom spellings in intern order (snapshot writer).
    pub(crate) fn raw_atoms(&self) -> impl Iterator<Item = &str> {
        self.base
            .atoms
            .iter()
            .chain(&self.delta.atoms)
            .map(String::as_str)
    }

    /// The functor (atom, arity) pairs in intern order (snapshot writer).
    pub(crate) fn raw_functors(&self) -> impl Iterator<Item = &(AtomId, u8)> {
        self.base.functors.iter().chain(&self.delta.functors)
    }

    /// Rebuilds a frozen table from snapshot-restored raw parts,
    /// reconstructing the intern indices.
    pub(crate) fn from_raw(atoms: Vec<String>, functors: Vec<(AtomId, u8)>) -> SymbolTable {
        let atom_index = atoms
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), AtomId::new(i)))
            .collect();
        let functor_index = functors
            .iter()
            .enumerate()
            .map(|(i, &key)| (key, FunctorId::new(i)))
            .collect();
        SymbolTable {
            base: Arc::new(Symbols {
                atoms,
                atom_index,
                functors,
                functor_index,
            }),
            delta: Symbols::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms_are_interned_once() {
        let mut t = SymbolTable::new();
        let a = t.atom("hello");
        let b = t.atom("hello");
        let c = t.atom("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.atom_count(), 2);
        assert_eq!(t.atom_name(a), "hello");
    }

    #[test]
    fn functors_distinguish_arity() {
        let mut t = SymbolTable::new();
        let f1 = t.functor("f", 1);
        let f2 = t.functor("f", 2);
        assert_ne!(f1, f2);
        assert_eq!(t.functor_name(f1), "f");
        assert_eq!(t.functor_arity(f2), 2);
        assert_eq!(t.functor_atom(f1), t.functor_atom(f2));
    }

    #[test]
    fn clones_share_the_frozen_base_and_continue_its_ids() {
        let mut program = SymbolTable::new();
        let a = program.atom("a");
        let f = program.functor("f", 2);
        program.freeze();
        let mut query = program.clone();
        assert!(
            Arc::ptr_eq(&program.base, &query.base),
            "clone copies no symbols"
        );
        assert_eq!(query.atom("a"), a, "base ids are found, not re-interned");
        let b = query.atom("b");
        let g = query.functor("g", 1);
        assert_eq!(b.index(), program.atom_count());
        assert_eq!(g.index(), program.functor_count());
        assert_eq!(query.atom_name(b), "b");
        assert_eq!(query.functor_name(g), "g");
        assert_eq!(query.functor_name(f), "f");
        assert_eq!(program.find_atom("b"), None, "the delta stays local");
        query.freeze();
        assert_eq!(query.atom_name(b), "b");
        assert_eq!(query.find_atom("b"), Some(b));
        assert_eq!(program.atom_count() + 2, query.atom_count());
    }

    #[test]
    fn find_atom_does_not_intern() {
        let mut t = SymbolTable::new();
        assert_eq!(t.find_atom("x"), None);
        let id = t.atom("x");
        assert_eq!(t.find_atom("x"), Some(id));
    }
}
