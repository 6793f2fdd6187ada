//! Static linker and loader.
//!
//! The benchmark configuration uses "static linking" (§4): every call site
//! is resolved to an absolute entry address at link time. The linker lays
//! predicates out in the code space, resolves inter-predicate calls,
//! places the final instructions at their word addresses (the image a
//! snapshot downloads to the machine) and records per-predicate sizes for
//! the static code-size evaluation (Table 1).
//!
//! The image type itself lives in `kcm-arch` ([`kcm_arch::image`]) so the
//! snapshot format and the in-place assert/retract patching need no
//! compiler dependency; it is re-exported here under its historical paths.

use crate::asm::{assemble, AsmItem};
use crate::clause::compile_clause;
use crate::index::{compile_predicate, constant_key};
use crate::ir::{Clause, PredId, Program};
use crate::CompileError;
use kcm_arch::isa::Instr;
use kcm_arch::{SymbolTable, Tag, VAddr, Word};
use kcm_prolog::Term;

use kcm_arch::image::CODE_BASE;
pub use kcm_arch::image::{
    CodeImage, PredSize, CALL_STUB, FAIL_STUB, HALT_STUB, STATIC_DATA_BASE, UNKNOWN_STUB,
};
use kcm_arch::CodeAddr;
use std::sync::Arc;

/// The static data area being assembled: ground compound literals live
/// here, as tagged words in the static zone, and the code refers to them
/// with a single constant operand.
#[derive(Debug, Clone)]
pub struct StaticImage {
    base: VAddr,
    words: Vec<Word>,
    /// Interned compounds, keyed by their functor word (nil for a list
    /// cell) followed by their arguments' words.
    interned: std::collections::HashMap<Vec<Word>, Word>,
}

impl StaticImage {
    /// An empty static area starting at `base`.
    pub fn new(base: VAddr) -> StaticImage {
        StaticImage {
            base,
            words: Vec::new(),
            interned: std::collections::HashMap::new(),
        }
    }

    /// Resumes an area whose first word `words[0]` sits at `base` (a
    /// query overlay resumes after its program's data).
    pub fn resume(base: VAddr, words: Vec<Word>) -> StaticImage {
        StaticImage {
            base,
            words,
            interned: std::collections::HashMap::new(),
        }
    }

    /// The assembled words.
    pub fn into_words(self) -> Vec<Word> {
        self.words
    }

    fn next_addr(&self) -> VAddr {
        self.base.offset(self.words.len() as i64)
    }

    /// Interns a ground term, returning the tagged word that denotes it.
    /// Identical subterms are shared.
    ///
    /// A compound is keyed by its functor and its arguments' words, so
    /// its arguments are interned first. When the compound itself is
    /// already interned, so are they: looking them up adds no word and
    /// no symbol.
    ///
    /// # Panics
    ///
    /// Panics if the term is not ground (the compiler checks first).
    pub fn intern(&mut self, t: &Term, symbols: &mut SymbolTable) -> Word {
        match t {
            Term::Int(v) => Word::int(*v),
            Term::Float(v) => Word::float(*v),
            Term::Atom(n) if n == "[]" => Word::nil(),
            Term::Atom(n) => Word::atom(symbols.atom(n)),
            Term::Var(_) => panic!("interning a non-ground term"),
            Term::Struct(n, args) => {
                let mut key = Vec::with_capacity(1 + args.len());
                key.push(Word::nil());
                for a in args {
                    key.push(self.intern(a, symbols));
                }
                let list = t.is_cons();
                if !list {
                    key[0] = Word::functor(symbols.functor(n, args.len() as u8));
                }
                if let Some(w) = self.interned.get(&key) {
                    return *w;
                }
                let addr = self.next_addr();
                // A list cell is its two arguments; a structure starts
                // with its functor.
                self.words.extend(&key[usize::from(list)..]);
                let w = Word::ptr(if list { Tag::List } else { Tag::Struct }, addr);
                self.interned.insert(key, w);
                w
            }
        }
    }
}

/// The static linker.
#[derive(Debug, Default)]
pub struct Linker;

impl Linker {
    /// Creates a linker.
    pub fn new() -> Linker {
        Linker
    }

    /// Compiles and links a normalised program into a fresh image.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors.
    pub fn link(
        &self,
        program: &Program,
        symbols: &mut SymbolTable,
    ) -> Result<CodeImage, CompileError> {
        self.link_with(program, symbols, &crate::CompileOptions::default())
    }

    /// Like [`Linker::link`] with explicit target options.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors.
    pub fn link_with(
        &self,
        program: &Program,
        symbols: &mut SymbolTable,
        options: &crate::CompileOptions,
    ) -> Result<CodeImage, CompileError> {
        let mut image = Self::image_with_stubs(options.clone(), true);
        Self::link_into(&mut image, program, symbols)?;
        Ok(image)
    }

    /// A fresh image holding only the stubs (and, optionally, the
    /// `$call/N` trampoline entries).
    fn image_with_stubs(options: crate::CompileOptions, call_stub: bool) -> CodeImage {
        let mut image = CodeImage::new(options);
        image.place(FAIL_STUB, Instr::Fail);
        image.place(HALT_STUB, Instr::Halt { success: true });
        image.place(UNKNOWN_STUB, Instr::Fail);
        if call_stub {
            image.place(
                CALL_STUB,
                Instr::Escape {
                    builtin: kcm_arch::isa::Builtin::CallGoal,
                },
            );
            image.place(CALL_STUB.offset(1), Instr::Proceed);
            for n in 1..=8u8 {
                image.set_entry("$call".to_owned(), n, CALL_STUB);
            }
        }
        // The stubs are placed, not emitted: program code starts past
        // the stub area, at CODE_BASE.
        image.pad_words_to(CODE_BASE as usize);
        image
    }

    /// Links a `$query/0` predicate for `goal` (and its auxiliaries) as
    /// an overlay on `base` ([`CodeImage::overlay`]): the query's code,
    /// entries and ground literals land exactly where extending a copy of
    /// `base` would put them, while the program itself is shared, not
    /// copied — O(query), as in a real incremental loader. Returns the
    /// overlay and the reported variable names.
    ///
    /// On a flat `base` the link goes through the image's table of
    /// compiled query shapes ([`kcm_arch::shape`]): a query whose shape was
    /// compiled on this image before is a copy of that code with its
    /// atoms written in.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors; rejects queries with more than 16
    /// variables ([`CompileError::TooManyQueryVars`]).
    pub fn link_query(
        base: &Arc<CodeImage>,
        goal: &Term,
        symbols: &mut SymbolTable,
    ) -> Result<(CodeImage, Vec<String>), CompileError> {
        if base.base().is_some() {
            return Self::link_query_directly(base, goal, symbols);
        }
        crate::shape::compile(base, goal, symbols)
    }

    /// [`Linker::link_query`] without the table of shapes: compiles and
    /// links `goal`. What a query compiles to on an image whose table
    /// does not hold its shape, and the reference the table's replays
    /// are checked against.
    ///
    /// # Errors
    ///
    /// As [`Linker::link_query`].
    pub fn link_query_directly(
        base: &Arc<CodeImage>,
        goal: &Term,
        symbols: &mut SymbolTable,
    ) -> Result<(CodeImage, Vec<String>), CompileError> {
        let vars = goal.variables();
        if vars.len() > crate::clause::MAX_ARITY {
            return Err(CompileError::TooManyQueryVars(vars.len()));
        }
        let mut image = CodeImage::overlay(base);
        let round = image.bump_aux_round();
        let program = Program::query(goal, &vars, &format!("$q{round}aux"))?;
        Self::link_into(&mut image, &program, symbols)?;
        Ok((image, vars.into_iter().map(str::to_owned).collect()))
    }

    fn link_into(
        image: &mut CodeImage,
        program: &Program,
        symbols: &mut SymbolTable,
    ) -> Result<(), CompileError> {
        // Pass 1: compile each predicate to symbolic code and lay it out.
        let mut start = image.len_words() as u32;
        let mut compiled: Vec<(&crate::ir::Predicate, Vec<AsmItem>, CodeAddr)> = Vec::new();
        let options = image.options().clone();
        let (static_at, static_words) = image.take_static_data();
        let mut statics = StaticImage::resume(static_at, static_words);
        let mut instrs = 0;
        for pred in &program.predicates {
            let items = compile_predicate(pred, symbols, &mut statics, &options)?;
            let size: usize = items.iter().map(AsmItem::size_words).sum();
            instrs += items
                .iter()
                .filter(|i| !matches!(i, AsmItem::Label(_)))
                .count();
            let entry = CodeAddr::new(start);
            image.set_entry(pred.id.name.clone(), pred.id.arity, entry);
            compiled.push((pred, items, entry));
            start += size as u32;
        }
        image.reserve(instrs, start as usize - image.len_words());

        // Pass 2: assemble with full symbol knowledge.
        for (pred, items, entry) in compiled {
            let mut warnings = Vec::new();
            let mut resolve = |p: &PredId| -> CodeAddr {
                match image.entry(&p.name, p.arity) {
                    Some(a) => a,
                    None => {
                        warnings.push(format!(
                            "undefined predicate {p} called from {} (will fail)",
                            pred.id
                        ));
                        UNKNOWN_STUB
                    }
                }
            };
            let resolved = assemble(&items, entry, &mut resolve, FAIL_STUB)
                .expect("compiler emits well-labelled code");
            for warning in warnings {
                image.push_warning(warning);
            }
            let mut instr_count = 0usize;
            let mut word_count = 0usize;
            for (addr, instr) in resolved {
                // The Mark accounting pseudo-instruction is a simulator
                // artifact: excluded from Table 1 static sizes.
                if !matches!(instr, Instr::Mark) {
                    instr_count += 1;
                    word_count += instr.size_words();
                }
                image.emit(addr, instr);
            }
            image.push_size(PredSize {
                id: pred.id.clone(),
                instrs: instr_count,
                words: word_count,
                auxiliary: pred.auxiliary,
                start: entry.value(),
                end: image.len_words() as u32,
            });
        }
        image.set_static_data(statics.into_words());
        Ok(())
    }
}

impl Linker {
    /// Links hand-written assembly (from [`crate::kasm::parse_kasm`]) into
    /// an image whose `main/0` entry is the first instruction. Predicate
    /// references resolve against nothing (unknown → fail stub), so the
    /// items should be self-contained or purely native code.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError::UnsupportedDirective`] wrapping label
    /// errors from the assembler.
    pub fn link_items(
        items: &[AsmItem],
        _symbols: &mut SymbolTable,
    ) -> Result<CodeImage, CompileError> {
        let mut image = Self::image_with_stubs(crate::CompileOptions::default(), false);
        let entry = CodeAddr::new(CODE_BASE);
        let mut warnings = Vec::new();
        let resolved = assemble(
            items,
            entry,
            &mut |p: &PredId| {
                warnings.push(format!("unresolved predicate {p} in hand assembly"));
                UNKNOWN_STUB
            },
            FAIL_STUB,
        )
        .map_err(|e| CompileError::UnsupportedDirective(e.to_string()))?;
        for warning in warnings {
            image.push_warning(warning);
        }
        for (addr, instr) in resolved {
            image.emit(addr, instr);
        }
        image.set_entry("main".to_owned(), 0, entry);
        Ok(image)
    }
}

impl Linker {
    /// Recompiles one predicate from `clauses` (its complete new clause
    /// list, in source order), links the fresh code at the end of the
    /// image, and repoints every call site from the old entry — the
    /// fallback behind `assert`/`retract` when the in-place fact patch
    /// does not apply. An empty clause list unlinks the predicate
    /// (subsequent calls fail, as for an undefined predicate).
    ///
    /// # Errors
    ///
    /// Propagates compilation errors; the image is unchanged on error.
    pub fn relink_predicate(
        image: &mut CodeImage,
        pred: &PredId,
        clauses: &[Term],
        symbols: &mut SymbolTable,
    ) -> Result<(), CompileError> {
        let old = image.entry(&pred.name, pred.arity);
        if clauses.is_empty() {
            if let Some(old) = old {
                image.remove_entry(&pred.name, pred.arity);
                image.retarget_calls(old, UNKNOWN_STUB);
            }
            return Ok(());
        }
        // Freshen auxiliary names so rules with control constructs don't
        // collide with the image's existing auxiliaries.
        let round = image.bump_aux_round();
        let prefix = format!("$r{round}aux");
        let program = Program::from_clauses_named(clauses, &prefix)?;
        Self::link_into(image, &program, symbols)?;
        if let (Some(old), Some(new)) = (old, image.entry(&pred.name, pred.arity)) {
            if old != new {
                image.retarget_calls(old, new);
            }
        }
        Ok(())
    }
}

/// A ground fact compiled for the in-place assert/retract patch.
#[derive(Debug, Clone, PartialEq)]
pub struct FactCode {
    /// The clause code, as compiled for a clause of a multi-clause chain.
    pub code: Vec<Instr>,
    /// The first argument's switch key.
    pub key1: Word,
    /// The second argument's switch key, for a depth-2 bucket.
    pub key2: Option<Word>,
}

/// Compiles one fact of `pred` for the in-place patch. Returns `None`
/// when the fact does not qualify — arity 0, a rule, or a compound
/// argument (it would intern into the static data area, which the patch
/// does not extend) — and the caller should fall back to
/// [`Linker::relink_predicate`].
///
/// # Errors
///
/// Propagates clause-compilation errors (bad head, arity overflow).
pub fn compile_fact(
    pred: &PredId,
    fact: &Term,
    symbols: &mut SymbolTable,
    options: &crate::CompileOptions,
) -> Result<Option<FactCode>, CompileError> {
    let args: &[Term] = match fact {
        Term::Struct(n, args) if n != ":-" && !args.is_empty() => args,
        Term::Atom(_) | Term::Struct(..) => return Ok(None),
        other => return Err(CompileError::BadClauseHead(other.to_string())),
    };
    let atomic = |t: &Term| matches!(t, Term::Int(_) | Term::Float(_) | Term::Atom(_));
    if !args.iter().all(atomic) {
        return Ok(None);
    }
    let clause = Clause {
        head: fact.clone(),
        goals: Vec::new(),
    };
    // Atomic arguments never touch the static area, so a throwaway one
    // is safe here.
    let mut statics = StaticImage::new(STATIC_DATA_BASE);
    let items = compile_clause(pred, &clause, true, symbols, &mut statics, options)?;
    let mut code = Vec::new();
    for item in items {
        match item {
            AsmItem::Plain(i) => code.push(i),
            AsmItem::Label(_) => {}
            _ => return Ok(None),
        }
    }
    // The clause compiled above interned every argument, so the keys
    // intern nothing new.
    let mut key = |t: &Term| constant_key(t, symbols);
    Ok(Some(FactCode {
        code,
        key1: key(&args[0]).expect("an atomic argument"),
        key2: args.get(1).and_then(key),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcm_prolog::{read_program, read_term};

    fn link(src: &str) -> (Arc<CodeImage>, SymbolTable) {
        let prog = Program::from_clauses(&read_program(src).unwrap()).unwrap();
        let mut symbols = SymbolTable::new();
        let image = Linker::new().link(&prog, &mut symbols).unwrap();
        (Arc::new(image), symbols)
    }

    #[test]
    fn stubs_are_at_fixed_addresses() {
        let (image, _) = link("a.");
        assert_eq!(image.instr_at(FAIL_STUB), Some(&Instr::Fail));
        assert_eq!(
            image.instr_at(HALT_STUB),
            Some(&Instr::Halt { success: true })
        );
        assert_eq!(image.instr_at(UNKNOWN_STUB), Some(&Instr::Fail));
    }

    #[test]
    fn entries_resolve_and_calls_link() {
        let (image, _) = link("p :- q. q.");
        let p = image.entry("p", 0).unwrap();
        let q = image.entry("q", 0).unwrap();
        match image.instr_at(p) {
            Some(Instr::Execute { addr, arity: 0 }) => assert_eq!(*addr, q),
            other => panic!("expected execute, got {other:?}"),
        }
        assert_eq!(image.warnings().count(), 0);
    }

    #[test]
    fn forward_references_link() {
        // p calls q which is defined later in the file.
        let (image, _) = link("p :- q, r. q. r.");
        assert_eq!(image.warnings().count(), 0);
    }

    #[test]
    fn undefined_predicates_warn_and_stub() {
        let (image, _) = link("p :- missing.");
        assert_eq!(image.warnings().count(), 1);
        let p = image.entry("p", 0).unwrap();
        match image.instr_at(p) {
            Some(Instr::Execute { addr, .. }) => assert_eq!(*addr, UNKNOWN_STUB),
            other => panic!("expected execute, got {other:?}"),
        }
    }

    #[test]
    fn sizes_are_recorded() {
        let (image, _) = link("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).");
        let s = image.sizes().next().unwrap();
        assert_eq!(s.id.name, "app");
        assert!(s.instrs > 5);
        assert!(s.words > s.instrs, "switch makes words exceed instrs");
    }

    #[test]
    fn query_linking_reports_vars() {
        let (image, mut symbols) = link("p(1). p(2).");
        let goal = read_term("p(X)").unwrap();
        let (qimage, vars) = Linker::link_query(&image, &goal, &mut symbols).unwrap();
        assert_eq!(vars, vec!["X".to_owned()]);
        assert!(qimage.query_entry().is_some());
        assert!(qimage.entry("p", 1).is_some(), "base entries survive");
    }

    #[test]
    fn query_overlay_continues_the_program_and_shares_it() {
        let (image, mut symbols) = link("p([1, 2]). p(3).");
        let goal = read_term("p([4, 5])").unwrap();
        let (qimage, _) = Linker::link_query(&image, &goal, &mut symbols).unwrap();
        assert!(
            Arc::ptr_eq(qimage.base().unwrap(), &image),
            "the program is shared"
        );
        let at = image.len_words() as u32;
        assert_eq!(qimage.query_entry(), Some(CodeAddr::new(at)));
        assert_eq!(
            qimage.index_of(CodeAddr::new(at)),
            Some(image.num_instrs() as u32)
        );
        assert_eq!(qimage.aux_round(), image.aux_round() + 1);
        // The query's literal follows the program's in the static area.
        let (base_at, base_words) = image.static_data();
        let (q_at, q_words) = qimage.static_data();
        assert_eq!(base_at, q_at);
        assert!(q_words.len() > base_words.len());
        assert_eq!(q_words[..base_words.len()], base_words[..]);
        // The overlay's layout is the program's followed by the query's.
        let sizes: Vec<_> = qimage.sizes().map(|s| s.id.to_string()).collect();
        assert_eq!(sizes.first().map(String::as_str), Some("p/1"));
        assert_eq!(sizes.last().map(String::as_str), Some("$query/0"));
        assert_eq!(image.query_entry(), None, "the program is untouched");
    }

    #[test]
    fn relinking_a_query_replaces_it() {
        let (image, mut symbols) = link("p(1).");
        let g1 = read_term("p(X)").unwrap();
        let (q1, _) = Linker::link_query(&image, &g1, &mut symbols).unwrap();
        let e1 = q1.query_entry().unwrap();
        let g2 = read_term("p(Y)").unwrap();
        let (q2, vars) = Linker::link_query(&Arc::new(q1), &g2, &mut symbols).unwrap();
        assert_ne!(q2.query_entry().unwrap(), e1);
        assert_eq!(vars, vec!["Y".to_owned()]);
        assert!(
            Arc::ptr_eq(q2.base().unwrap(), &image),
            "overlays stay one level deep"
        );
    }

    #[test]
    fn too_many_query_vars_rejected() {
        let (image, mut symbols) = link("p(1).");
        let args: Vec<String> = (0..17).map(|i| format!("X{i}")).collect();
        let goal = read_term(&format!("f({})", args.join(","))).unwrap();
        assert!(matches!(
            Linker::link_query(&image, &goal, &mut symbols),
            Err(CompileError::TooManyQueryVars(17))
        ));
    }

    #[test]
    fn wide_switches_get_a_hash_index() {
        let src: String = (0..20).map(|i| format!("p(k{i}). ")).collect();
        let (image, _) = link(&src);
        let mut seen = false;
        for idx in 0..image.num_instrs() as u32 {
            if let Instr::SwitchOnConstant { table, .. } = image.instr_at_index(idx) {
                let side = image
                    .switch_index(idx)
                    .expect("wide constant switch gets an index");
                for (ord, (key, target)) in table.iter().enumerate() {
                    assert_eq!(
                        side.lookup(key.switch_key()),
                        Some((*target, ord as u32)),
                        "key #{ord}"
                    );
                }
                seen = true;
            }
        }
        assert!(seen, "expected a switch_on_constant in the image");
    }

    #[test]
    fn narrow_switches_skip_the_hash_index() {
        let (image, _) = link("p(1). p(2).");
        for idx in 0..image.num_instrs() as u32 {
            if matches!(image.instr_at_index(idx), Instr::SwitchOnConstant { .. }) {
                assert!(image.switch_index(idx).is_none());
            }
        }
    }

    #[test]
    fn code_generation_is_deterministic() {
        // Each compile draws a fresh hash seed for its tables; the
        // relocating moves of the swap and the `$call/N` label must not
        // follow it.
        let listings: std::collections::HashSet<String> = (0..32)
            .map(|_| {
                let (image, symbols) = link("p(X, Y) :- q(Y, X). q(a, b).");
                image.disassemble(&symbols)
            })
            .collect();
        assert_eq!(listings.len(), 1, "{listings:#?}");
    }

    #[test]
    fn disassembly_names_predicates() {
        let (image, symbols) = link("p(f(X)) :- q(X). q(a).");
        let dis = image.disassemble(&symbols);
        assert!(dis.contains("p/1:"), "{dis}");
        assert!(dis.contains("get_structure f/1"), "{dis}");
    }
}
