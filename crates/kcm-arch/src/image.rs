//! The linked code image and its in-place mutation operations.
//!
//! [`CodeImage`] holds both representations of loaded code: the encoded
//! 64-bit words (what the code cache and the size accounting see) and the
//! decoded instructions at their word addresses (what both execution
//! tiers dispatch on). The compiler's linker builds images through the
//! builder methods ([`CodeImage::new`], [`CodeImage::place`],
//! [`CodeImage::emit`]); the snapshot module
//! ([`crate::snapshot`]) serializes and restores them; and the
//! incremental-update entry points ([`CodeImage::assert_fact_clause`],
//! [`CodeImage::retract_fact_clause`]) patch fact predicates without a
//! recompile — B-Prolog-style index maintenance over the switch tables.
//!
//! A query is linked as an *overlay* ([`CodeImage::overlay`]): a small
//! image holding only the `$query/0` clause and its auxiliaries, which
//! shares the program image behind an `Arc` and continues its code
//! addresses, instruction indices and static-data area. Every read falls
//! through to the program below the overlay's boundary, so compiling a
//! query costs O(query), not O(program) — the paper's host links the
//! query and downloads it next to the resident program (§2.1).
//!
//! The image lives in `kcm-arch` rather than the compiler crate so that
//! snapshots and patching — pure image-structure concerns — need no
//! compiler dependency; the compiler re-exports these types under its
//! old paths.

use crate::addr::{CodeAddr, VAddr};
use crate::isa::Instr;
use crate::swindex::SwitchIndex;
use crate::symbol::SymbolTable;
use crate::word::Word;
use crate::zone::Zone;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A predicate identifier: name and arity.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId {
    /// Predicate name.
    pub name: String,
    /// Predicate arity.
    pub arity: u8,
}

impl std::fmt::Display for PredId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.name, self.arity)
    }
}

/// Target-machine compilation options. KCM's defaults enable everything;
/// the baseline machine models compile with their own settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileOptions {
    /// Compile arithmetic natively onto the ALU/FPU (§4's "integer
    /// arithmetic" mode). Off for machines whose arithmetic goes through
    /// the escape mechanism (PLM) or a generic evaluator (Quintus).
    pub inline_arith: bool,
    /// Emit the `neck` instruction marking KCM's deferred-choice-point
    /// boundary (§3.1.5). Off for standard-WAM machines, which create
    /// choice points eagerly at `try`.
    pub deferred_choice_points: bool,
    /// Place ground compound literals in the static data area and refer
    /// to them with one constant-load — how KCM keeps a statically known
    /// list out of the code stream (§4.1 discusses the code-space
    /// trade-off against PLM's cdr-coding, which encodes such lists *in*
    /// the code at one instruction per cell).
    pub static_ground_literals: bool,
    /// Depth-2 fact indexing: for wide all-fact predicates whose clauses
    /// carry constant first *and* second arguments, emit a second-level
    /// switch on the second argument under each first-argument bucket
    /// (B-Prolog matching-tree shape), collapsing try/retry/trust chains
    /// for `fact(K1, K2)` point lookups.
    pub depth2_facts: bool,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            inline_arith: true,
            deferred_choice_points: true,
            static_ground_literals: true,
            depth2_facts: true,
        }
    }
}

impl CompileOptions {
    /// The KCM configuration (same as [`Default`]).
    pub fn kcm() -> CompileOptions {
        CompileOptions::default()
    }

    /// A standard-WAM configuration: eager choice points, escape-based
    /// arithmetic.
    pub fn standard_wam() -> CompileOptions {
        CompileOptions {
            inline_arith: false,
            deferred_choice_points: false,
            static_ground_literals: false,
            depth2_facts: false,
        }
    }
}

/// Static code size of one predicate (a Table 1 row contribution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredSize {
    /// The predicate.
    pub id: PredId,
    /// Number of instructions.
    pub instrs: usize,
    /// Number of 64-bit code words (≥ instrs; switches are multi-word).
    pub words: usize,
    /// Whether this is a compiler-generated auxiliary.
    pub auxiliary: bool,
    /// First code word of the predicate.
    pub start: u32,
    /// One past the last code word of the predicate.
    pub end: u32,
}

/// Address of the global fail stub.
pub const FAIL_STUB: CodeAddr = CodeAddr::new(0);
/// Address of the halt-success stub (initial continuation of a query).
pub const HALT_STUB: CodeAddr = CodeAddr::new(1);
/// Address of the unknown-predicate stub (fails, with a link warning).
pub const UNKNOWN_STUB: CodeAddr = CodeAddr::new(2);
/// Entry of the `$call/1` meta-call trampoline: an escape that dispatches
/// the goal term in A1 (execute-style for user predicates, inline for
/// built-ins) followed by a `proceed` for the inline case.
pub const CALL_STUB: CodeAddr = CodeAddr::new(4);
/// First address available for program code.
pub const CODE_BASE: u32 = 8;
/// Switch tables with at least this many entries get a link-time hash
/// index; below it a linear scan is at worst as many probes as the hash
/// path would charge, so the side table buys nothing.
pub const HASH_INDEX_MIN_ENTRIES: usize = 8;
/// Base of the ground-literal area in the static data zone (leaving the
/// low words for system use).
pub const STATIC_DATA_BASE: VAddr = VAddr::new(Zone::Static.base().value() + 0x100);

/// Why an in-place image mutation could not be applied. The caller is
/// expected to fall back to recompiling the predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// The predicate's compiled shape does not support in-place patching
    /// (not a pure constant-keyed fact predicate, or an unexpected code
    /// layout). The message names the first shape check that failed.
    Unsupported(String),
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchError::Unsupported(why) => {
                write!(f, "shape does not support in-place update: {why}")
            }
        }
    }
}

impl std::error::Error for PatchError {}

fn unsup(why: impl Into<String>) -> PatchError {
    PatchError::Unsupported(why.into())
}

/// A planned key update of one constant switch (at stream index `idx`):
/// the key's table ordinal and clause targets when it is present.
struct KeyPlan {
    idx: usize,
    key: Word,
    found: Option<(usize, Vec<CodeAddr>)>,
}

/// Power-of-two instruction granularity of lazy snapshot decoding: 2^15
/// instructions per chunk keeps a chunk's decode under a millisecond
/// while a million-fact image still amortizes the per-chunk bookkeeping
/// over ~150 chunks.
pub(crate) const LAZY_CHUNK_SHIFT: u32 = 15;

/// Lazily decoded instruction storage restored from a snapshot: the
/// encoded word stream plus the word offset of each chunk's first
/// instruction, with each chunk's decoded instructions materialized on
/// first touch. The snapshot loader scan-validates the entire stream
/// ([`Instr::scan`]) before constructing this, so chunk decoding is
/// infallible — an image restored from hostile bytes can never panic
/// later, it is rejected at load.
#[derive(Debug)]
pub(crate) struct LazyCode {
    stream: Vec<u64>,
    /// Word offset of chunk `c`'s first instruction; chunk `c` covers
    /// instruction indices `c << SHIFT .. min((c + 1) << SHIFT, count)`.
    chunk_offsets: Vec<usize>,
    chunks: Vec<OnceLock<Box<[Instr]>>>,
    count: usize,
}

impl LazyCode {
    /// Lazy storage over a scan-validated stream. `chunk_offsets[c]` must
    /// be the word offset of instruction `c << LAZY_CHUNK_SHIFT`.
    pub(crate) fn new(stream: Vec<u64>, chunk_offsets: Vec<usize>, count: usize) -> LazyCode {
        debug_assert_eq!(chunk_offsets.len(), count.div_ceil(1 << LAZY_CHUNK_SHIFT));
        let chunks = (0..chunk_offsets.len()).map(|_| OnceLock::new()).collect();
        LazyCode {
            stream,
            chunk_offsets,
            chunks,
            count,
        }
    }

    /// Rebuilds the encoded words image — the stream scattered to its
    /// addresses, stub sites (< [`CODE_BASE`]) and padding gaps zero.
    /// This is the deferred load path of a snapshot whose words section
    /// was omitted; out-of-bounds sites (possible only in hostile bytes)
    /// are skipped rather than trusted.
    pub(crate) fn scatter_words(&self, len: usize, addrs: &[u32]) -> Vec<u64> {
        let mut words = vec![0u64; len];
        let mut pos = 0usize;
        for &a in addrs.iter().take(self.count) {
            let used = Instr::scan(&self.stream[pos..]).expect("stream was scan-validated at load");
            let a = a as usize;
            if a >= CODE_BASE as usize {
                if let Some(site) = words.get_mut(a..a + used) {
                    site.copy_from_slice(&self.stream[pos..pos + used]);
                }
            }
            pos += used;
        }
        words
    }

    fn chunk(&self, c: usize) -> &[Instr] {
        self.chunks[c].get_or_init(|| {
            let start = c << LAZY_CHUNK_SHIFT;
            let n = ((c + 1) << LAZY_CHUNK_SHIFT).min(self.count) - start;
            let word_end = self
                .chunk_offsets
                .get(c + 1)
                .copied()
                .unwrap_or(self.stream.len());
            let mut out = Vec::with_capacity(n);
            let mut pos = self.chunk_offsets[c];
            for _ in 0..n {
                let (instr, used) = Instr::decode(&self.stream[pos..word_end])
                    .expect("stream was scan-validated at load");
                pos += used;
                out.push(instr);
            }
            out.into_boxed_slice()
        })
    }

    #[inline]
    fn get(&self, idx: usize) -> &Instr {
        assert!(idx < self.count, "instruction index out of range");
        &self.chunk(idx >> LAZY_CHUNK_SHIFT)[idx & ((1usize << LAZY_CHUNK_SHIFT) - 1)]
    }
}

/// Decoded-instruction storage behind [`CodeImage`]: a plain vector for
/// freshly linked images, or chunk-lazy decoding over a snapshot's
/// encoded stream — what lets a million-fact snapshot restore without
/// paying to decode five million instructions up front. Indexing reads
/// through either representation; any mutation forces full
/// materialization first ([`CodeImage::instrs_mut`]), so patched images
/// behave exactly like linked ones.
#[derive(Debug, Clone)]
pub(crate) enum CodeStore {
    Eager(Vec<Instr>),
    /// `Arc` so image clones share materialized chunks.
    Lazy(Arc<LazyCode>),
}

impl CodeStore {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            CodeStore::Eager(v) => v.len(),
            CodeStore::Lazy(l) => l.count,
        }
    }

    pub(crate) fn iter(&self) -> Box<dyn Iterator<Item = &Instr> + '_> {
        match self {
            CodeStore::Eager(v) => Box::new(v.iter()),
            CodeStore::Lazy(l) => Box::new((0..l.chunks.len()).flat_map(|c| l.chunk(c).iter())),
        }
    }

    /// Full materialization: a lazy store becomes eager (decoding every
    /// untouched chunk), after which reads and writes are plain vector
    /// accesses.
    fn force_mut(&mut self) -> &mut Vec<Instr> {
        if let CodeStore::Lazy(l) = self {
            let mut v = Vec::with_capacity(l.count);
            for c in 0..l.chunks.len() {
                v.extend_from_slice(l.chunk(c));
            }
            *self = CodeStore::Eager(v);
        }
        match self {
            CodeStore::Eager(v) => v,
            CodeStore::Lazy(_) => unreachable!("just forced eager"),
        }
    }

    /// How many lazy decode chunks have been materialized, out of how
    /// many (an eager store counts as fully decoded).
    fn decoded_chunks(&self) -> (usize, usize) {
        match self {
            CodeStore::Eager(v) => {
                let n = v.len().div_ceil(1 << LAZY_CHUNK_SHIFT);
                (n, n)
            }
            CodeStore::Lazy(l) => (
                l.chunks.iter().filter(|c| c.get().is_some()).count(),
                l.chunks.len(),
            ),
        }
    }
}

impl std::ops::Index<usize> for CodeStore {
    type Output = Instr;
    #[inline]
    fn index(&self, idx: usize) -> &Instr {
        match self {
            CodeStore::Eager(v) => &v[idx],
            CodeStore::Lazy(l) => l.get(idx),
        }
    }
}

/// The native tier's resolved-dispatch table, parallel to the decoded
/// stream: per instruction, its fall-through address (low 32 bits) and
/// the stream index of the instruction there (high 32 bits), packed so
/// the hot loop pays one load per step and never recomputes an
/// instruction size. An index of `u32::MAX` means "not resolved here":
/// no instruction starts there, or one was placed there after the entry
/// was computed (a program's last instruction falls through to the
/// first word of a query overlay) — the dispatcher then looks the
/// address up, so a stale entry is never wrong, just a miss.
///
/// Built once per image and shared by every machine through the image's
/// `Arc`; an eager image maintains it on every mutation, a lazily
/// restored image builds it one decode chunk at a time alongside the
/// chunk's instructions.
#[derive(Debug, Clone)]
pub(crate) enum Dispatch {
    Eager(Vec<u64>),
    /// One table per lazy decode chunk, built on the chunk's first run.
    Lazy(Arc<[OnceLock<Box<[u64]>>]>),
}

/// A contiguous stretch of an image's decoded stream and its
/// resolved-dispatch entries ([`CodeImage::span`]).
#[derive(Debug, Clone, Copy)]
pub struct Span<'a> {
    /// Stream index of `instrs[0]`.
    pub start: u32,
    /// The decoded instructions.
    pub instrs: &'a [Instr],
    /// Per instruction: its fall-through address (low 32 bits) and the
    /// stream index of the instruction there (high 32 bits; `u32::MAX`
    /// when not resolved — look the address up with
    /// [`CodeImage::index_of`]).
    pub next: &'a [u64],
}

const fn pack_next(next: u32, next_idx: u32) -> u64 {
    next as u64 | ((next_idx as u64) << 32)
}

/// Encoded-words storage behind [`CodeImage`]: a plain vector for linked
/// (and mutated) images, or a deferred rebuild from the lazy code stream
/// for snapshots whose words section was omitted. Execution never reads
/// the words image — only the linker, the snapshot writer, and
/// diagnostics do — so a restored image typically never pays for it.
#[derive(Debug, Clone)]
pub(crate) enum WordStore {
    Eager(Vec<u64>),
    Lazy {
        code: Arc<LazyCode>,
        len: usize,
        /// `Arc` so image clones share the materialization.
        cache: Arc<OnceLock<Vec<u64>>>,
    },
}

impl WordStore {
    pub(crate) fn lazy(code: Arc<LazyCode>, len: usize) -> WordStore {
        WordStore::Lazy {
            code,
            len,
            cache: Arc::new(OnceLock::new()),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            WordStore::Eager(v) => v.len(),
            WordStore::Lazy { len, .. } => *len,
        }
    }
}

/// A linked, loaded code image.
///
/// Holds both representations of the code: the encoded 64-bit words (what
/// the code cache and the size accounting see) and the decoded
/// instructions at their word addresses (what the simulator executes).
///
/// After an in-place table patch that *grows* a switch table
/// ([`CodeImage::assert_fact_clause`]), the encoded words at that switch's
/// site are stale — the decoded instruction (which both execution tiers
/// dispatch on) is authoritative, and table switches never fall through to
/// their sequential successor, so only the cycle tier's code-fetch
/// accounting at that site is approximate. All other patches re-encode
/// their (fixed-size) site in place.
///
/// An image is either *flat* (a linked program) or a query *overlay* on
/// a flat base ([`CodeImage::overlay`]). An overlay owns only the code,
/// entries, sizes and static data it added, starting where its base
/// ends; every read below that boundary falls through to the base. An
/// overlay only grows: the patching entry points (`remove_entry`,
/// `retarget_calls`, the fact patches) and the snapshot writer take a
/// flat image and panic on an overlay.
#[derive(Debug, Clone)]
pub struct CodeImage {
    /// The flat program image this overlay extends (`None` for a flat
    /// image). Never itself an overlay: an overlay of an overlay copies
    /// the upper overlay's own (small) part instead of chaining, so a
    /// read falls through at most once.
    base: Option<Arc<CodeImage>>,
    /// The first stream index and the first word address this image
    /// holds itself: its base's instruction count and word length (both
    /// 0 for a flat image).
    first_index: u32,
    first_addr: u32,
    /// This image's own instructions (stream indices from
    /// `first_index`).
    instrs: CodeStore,
    /// Word address of each instruction in `instrs` (sorted).
    addrs: Vec<u32>,
    /// Dense map word address − `first_addr` → stream index (`u32::MAX`
    /// = not an instruction start). Dense because the machine consults
    /// it on every taken control transfer.
    addr_index: Vec<u32>,
    /// Link-time hash side table, parallel to `instrs`: wide
    /// `switch_on_constant` / `switch_on_structure` tables get an
    /// open-addressing index here so dispatch is O(1) instead of a
    /// linear scan. `Arc` so image clones share the tables.
    switch_index: Vec<Option<Arc<SwitchIndex>>>,
    /// The native tier's resolved-dispatch table, parallel to `instrs`.
    dispatch: Dispatch,
    /// This image's own code words (addresses from `first_addr`).
    words: WordStore,
    entries: HashMap<(String, u8), CodeAddr>,
    sizes: Vec<PredSize>,
    warnings: Vec<String>,
    query_vars: Vec<String>,
    aux_round: u32,
    options: CompileOptions,
    /// This image's own static data words: an overlay's continue the
    /// base's area.
    static_data: Vec<Word>,
    /// Base address of the whole static data area.
    static_base: VAddr,
}

impl CodeImage {
    /// An empty image (no stubs, no code) compiled for `options`. The
    /// linker places the stub instructions and pads the stub words.
    pub fn new(options: CompileOptions) -> CodeImage {
        CodeImage {
            base: None,
            first_index: 0,
            first_addr: 0,
            instrs: CodeStore::Eager(Vec::new()),
            addrs: Vec::new(),
            addr_index: Vec::new(),
            switch_index: Vec::new(),
            dispatch: Dispatch::Eager(Vec::new()),
            words: WordStore::Eager(Vec::new()),
            entries: HashMap::new(),
            sizes: Vec::new(),
            warnings: Vec::new(),
            query_vars: Vec::new(),
            aux_round: 0,
            options,
            static_data: Vec::new(),
            static_base: STATIC_DATA_BASE,
        }
    }

    /// An empty overlay on `base`: code linked into it lands at
    /// `base.len_words()` onward (instruction indices from
    /// `base.num_instrs()`, static data after the base's), exactly where
    /// extending a copy of `base` would put it, while `base` itself is
    /// shared, not copied. The overlay starts from the base's options
    /// and auxiliary-naming round.
    ///
    /// An overlay of an overlay is a copy of it (its own part is small)
    /// sharing the same flat base, so reads fall through at most once.
    pub fn overlay(base: &Arc<CodeImage>) -> CodeImage {
        if base.base.is_some() {
            return CodeImage::clone(base);
        }
        CodeImage {
            base: Some(Arc::clone(base)),
            first_index: base.num_instrs() as u32,
            first_addr: base.len_words() as u32,
            aux_round: base.aux_round,
            static_base: base.static_base,
            ..CodeImage::new(base.options.clone())
        }
    }

    /// The flat image an overlay extends (`None` for a flat image).
    pub fn base(&self) -> Option<&Arc<CodeImage>> {
        self.base.as_ref()
    }

    // ------------------------------------------------------------ reads

    /// The image holding stream index `idx`, and the index within it.
    #[inline]
    fn layer(&self, idx: u32) -> (&CodeImage, usize) {
        match &self.base {
            Some(base) if idx < self.first_index => (base, idx as usize),
            _ => (self, (idx - self.first_index) as usize),
        }
    }

    /// The entry address of a predicate, if linked.
    pub fn entry(&self, name: &str, arity: u8) -> Option<CodeAddr> {
        let key = (name.to_owned(), arity);
        self.entries
            .get(&key)
            .or_else(|| self.base.as_ref().and_then(|b| b.entries.get(&key)))
            .copied()
    }

    /// Every linked entry point, unordered (an overlay's own entries
    /// shadow its base's).
    pub fn entries(&self) -> impl Iterator<Item = (&str, u8, CodeAddr)> {
        let below = self
            .base
            .iter()
            .flat_map(|b| b.entries.iter())
            .filter(|(key, _)| !self.entries.contains_key(*key));
        self.entries
            .iter()
            .chain(below)
            .map(|((name, arity), addr)| (name.as_str(), *arity, *addr))
    }

    /// The decoded instruction starting at `addr`, if any.
    #[inline]
    pub fn instr_at(&self, addr: CodeAddr) -> Option<&Instr> {
        self.index_of(addr).map(|i| self.instr_at_index(i))
    }

    /// Index into the decoded instruction stream of the instruction
    /// starting at `addr` (the dense `addr_index` lookup behind
    /// [`CodeImage::instr_at`]).
    #[inline]
    pub fn index_of(&self, addr: CodeAddr) -> Option<u32> {
        let a = addr.value();
        let image = match &self.base {
            Some(base) if a < self.first_addr => base,
            _ => self,
        };
        match image.addr_index.get((a - image.first_addr) as usize) {
            Some(&i) if i != u32::MAX => Some(i),
            _ => None,
        }
    }

    /// The instruction at stream index `idx` (obtained from
    /// [`CodeImage::index_of`] or [`CodeImage::addr_at_index`]).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn instr_at_index(&self, idx: u32) -> &Instr {
        let (image, i) = self.layer(idx);
        &image.instrs[i]
    }

    /// The contiguous stretch of the decoded stream holding stream index
    /// `idx`, with its resolved-dispatch entries: the whole own stream of
    /// the layer holding `idx` (the program's, or a query overlay's), or
    /// for a lazily restored image the decode chunk — decoded and
    /// resolved on first use. The native hot loop steps through a span
    /// without consulting the image, and asks for the next span only when
    /// control leaves it (an overlay boundary or a lazy chunk edge).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn span(&self, idx: u32) -> Span<'_> {
        let (image, i) = self.layer(idx);
        match (&image.instrs, &image.dispatch) {
            (CodeStore::Eager(instrs), Dispatch::Eager(next)) => Span {
                start: image.first_index,
                instrs,
                next,
            },
            (CodeStore::Lazy(code), Dispatch::Lazy(tables)) => {
                let c = i >> LAZY_CHUNK_SHIFT;
                Span {
                    start: image.first_index + (c << LAZY_CHUNK_SHIFT) as u32,
                    instrs: code.chunk(c),
                    next: tables[c].get_or_init(|| {
                        let start = c << LAZY_CHUNK_SHIFT;
                        let end = (start + (1 << LAZY_CHUNK_SHIFT)).min(image.instrs.len());
                        (start..end).map(|i| image.resolve_next(i)).collect()
                    }),
                }
            }
            _ => unreachable!("a store and its dispatch table are eager or lazy together"),
        }
    }

    /// Computes the dispatch entry of own instruction `i` from scratch.
    fn resolve_next(&self, i: usize) -> u64 {
        let next = self.addrs[i] + self.instrs[i].size_words() as u32;
        let next_idx = self.index_of(CodeAddr::new(next)).unwrap_or(u32::MAX);
        pack_next(next, next_idx)
    }

    /// The word address of the instruction at stream index `idx`, if any.
    /// Instructions are laid out in address order, so the sequential
    /// successor of index `i` is index `i + 1` — the machine's
    /// fall-through dispatch validates its hint with this.
    #[inline]
    pub fn addr_at_index(&self, idx: u32) -> Option<u32> {
        let (image, i) = self.layer(idx);
        image.addrs.get(i).copied()
    }

    /// Number of decoded instructions in the stream (valid stream indices
    /// are `0..num_instrs`).
    #[inline]
    pub fn num_instrs(&self) -> usize {
        self.first_index as usize + self.instrs.len()
    }

    /// The link-time hash index of the switch instruction at stream index
    /// `idx`, if one was built (only wide `switch_on_constant` /
    /// `switch_on_structure` tables get one).
    #[inline]
    pub fn switch_index(&self, idx: u32) -> Option<&SwitchIndex> {
        let (image, i) = self.layer(idx);
        image.switch_index.get(i).and_then(|s| s.as_deref())
    }

    /// How many of a lazily restored image's decode chunks have been
    /// materialized, out of how many. Diagnostic for tests of snapshot
    /// laziness; an eagerly linked image reports every chunk decoded.
    #[doc(hidden)]
    pub fn decoded_chunks(&self) -> (usize, usize) {
        match &self.base {
            Some(base) => base.decoded_chunks(),
            None => self.instrs.decoded_chunks(),
        }
    }

    /// The encoded code words (loader image). An image restored from a
    /// snapshot materializes them on first access, and an overlay
    /// concatenates its base's (execution dispatches on decoded
    /// instructions, never on these words).
    pub fn words(&self) -> Cow<'_, [u64]> {
        match &self.base {
            None => Cow::Borrowed(self.own_words()),
            Some(base) => Cow::Owned([base.own_words(), self.own_words()].concat()),
        }
    }

    /// This image's own words (from `first_addr`).
    fn own_words(&self) -> &[u64] {
        match &self.words {
            WordStore::Eager(v) => v,
            WordStore::Lazy { code, len, cache } => {
                cache.get_or_init(|| code.scatter_words(*len, &self.addrs))
            }
        }
    }

    /// Total code length in words.
    pub fn len_words(&self) -> usize {
        self.first_addr as usize + self.words.len()
    }

    /// The own words image as a mutable vector, materializing a lazy
    /// store first (any mutation leaves the image eager, like
    /// [`CodeImage::instrs_mut`]).
    fn words_mut(&mut self) -> &mut Vec<u64> {
        if let WordStore::Lazy { code, len, cache } = &self.words {
            let v = cache
                .get()
                .cloned()
                .unwrap_or_else(|| code.scatter_words(*len, &self.addrs));
            self.words = WordStore::Eager(v);
        }
        match &mut self.words {
            WordStore::Eager(v) => v,
            WordStore::Lazy { .. } => unreachable!("just forced eager"),
        }
    }

    /// The own instruction stream as a mutable vector. A lazily restored
    /// image is decoded in full, and its dispatch table rebuilt whole,
    /// the first time it is mutated; after that every mutation keeps the
    /// table in step itself.
    fn instrs_mut(&mut self) -> &mut Vec<Instr> {
        if let CodeStore::Lazy(_) = self.instrs {
            self.instrs.force_mut();
            let table = (0..self.instrs.len())
                .map(|i| self.resolve_next(i))
                .collect();
            self.dispatch = Dispatch::Eager(table);
        }
        self.instrs.force_mut()
    }

    /// Recomputes own instruction `i`'s dispatch entry after it changed.
    fn refresh_dispatch(&mut self, i: usize) {
        let entry = self.resolve_next(i);
        if let Dispatch::Eager(table) = &mut self.dispatch {
            table[i] = entry;
        }
    }

    /// Per-predicate static sizes, in layout order (an overlay's after
    /// its base's).
    pub fn sizes(&self) -> impl Iterator<Item = &PredSize> {
        self.base
            .iter()
            .flat_map(|b| b.sizes.iter())
            .chain(&self.sizes)
    }

    /// Link warnings (calls to undefined predicates, resolved to a stub
    /// that fails), an overlay's after its base's.
    pub fn warnings(&self) -> impl Iterator<Item = &str> {
        self.base
            .iter()
            .flat_map(|b| b.warnings.iter())
            .chain(&self.warnings)
            .map(String::as_str)
    }

    /// For query images: the reported variable names, in A1..An order.
    pub fn query_vars(&self) -> &[String] {
        &self.query_vars
    }

    /// The `$query/0` entry of a query image.
    pub fn query_entry(&self) -> Option<CodeAddr> {
        self.entry("$query", 0)
    }

    /// The target options this image was compiled with.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// The linker round counter used to freshen auxiliary-predicate names
    /// across incremental links into the same image.
    pub fn aux_round(&self) -> u32 {
        self.aux_round
    }

    /// The assembled static data area (ground literals) and its base
    /// address: the loader installs these words before running. An
    /// overlay's literals follow its base's.
    pub fn static_data(&self) -> (VAddr, Cow<'_, [Word]>) {
        let words = match &self.base {
            None => Cow::Borrowed(&self.static_data[..]),
            Some(base) if self.static_data.is_empty() => Cow::Borrowed(&base.static_data[..]),
            Some(base) => Cow::Owned([&base.static_data[..], &self.static_data[..]].concat()),
        };
        (self.static_base, words)
    }

    /// The decoded instructions of one predicate (by its size record).
    pub fn instructions_of(&self, size: &PredSize) -> Vec<Instr> {
        let mut out = Vec::new();
        let mut addr = size.start;
        while addr < size.end {
            match self.instr_at(CodeAddr::new(addr)) {
                Some(i) => {
                    out.push(i.clone());
                    addr += i.size_words() as u32;
                }
                None => addr += 1,
            }
        }
        out
    }

    /// Disassembles the whole image.
    pub fn disassemble(&self, symbols: &SymbolTable) -> String {
        use std::fmt::Write;
        let rev: HashMap<u32, (&str, u8)> = self
            .entries()
            .map(|(name, arity, addr)| (addr.value(), (name, arity)))
            .collect();
        let mut out = String::new();
        for idx in 0..self.num_instrs() as u32 {
            let addr = self.addr_at_index(idx).expect("index in range");
            if let Some((name, arity)) = rev.get(&addr) {
                let _ = writeln!(out, "{name}/{arity}:");
            }
            let text = match self.instr_at_index(idx) {
                Instr::GetStructure { f, a } => format!(
                    "get_structure {}/{}, {a}",
                    symbols.functor_name(*f),
                    symbols.functor_arity(*f)
                ),
                Instr::PutStructure { f, a } => format!(
                    "put_structure {}/{}, {a}",
                    symbols.functor_name(*f),
                    symbols.functor_arity(*f)
                ),
                other => other.to_string(),
            };
            let _ = writeln!(out, "  {addr:6}  {text}");
        }
        out
    }

    // ---------------------------------------------------------- builder

    /// `addr`'s offset into this image's own code. An overlay adds code
    /// only above its base.
    fn own_offset(&self, addr: CodeAddr) -> usize {
        addr.value()
            .checked_sub(self.first_addr)
            .expect("an overlay places code only above its base") as usize
    }

    /// Records a decoded instruction at `addr` without touching the words
    /// image (the stub words, for example, stay zero). Builds the hash
    /// side table for wide switch tables.
    pub fn place(&mut self, addr: CodeAddr, instr: Instr) {
        let side = match &instr {
            Instr::SwitchOnConstant { table, .. } if table.len() >= HASH_INDEX_MIN_ENTRIES => {
                Some(Arc::new(SwitchIndex::for_constants(table)))
            }
            Instr::SwitchOnStructure { table, .. } if table.len() >= HASH_INDEX_MIN_ENTRIES => {
                Some(Arc::new(SwitchIndex::for_structures(table)))
            }
            _ => None,
        };
        self.push_instr(addr, instr, side);
    }

    /// Appends one instruction with its side table, keeping the address
    /// index and the dispatch table in step: the new instruction's entry,
    /// and its predecessor's when that falls through to `addr`.
    fn push_instr(&mut self, addr: CodeAddr, instr: Instr, side: Option<Arc<SwitchIndex>>) {
        self.instrs_mut();
        let at = self.own_offset(addr);
        if self.addr_index.len() <= at {
            self.addr_index.resize(at + 1, u32::MAX);
        }
        let idx = self.num_instrs() as u32;
        self.addr_index[at] = idx;
        self.addrs.push(addr.value());
        self.switch_index.push(side);
        self.instrs_mut().push(instr);
        let own = self.instrs.len() - 1;
        let entry = self.resolve_next(own);
        let Dispatch::Eager(table) = &mut self.dispatch else {
            unreachable!("instrs_mut left the image eager");
        };
        table.push(entry);
        if let Some(prev) = own.checked_sub(1).map(|p| &mut table[p]) {
            if *prev as u32 == addr.value() {
                *prev = pack_next(addr.value(), idx);
            }
        }
    }

    /// Encodes `instr` into the words image at `addr` (which must be the
    /// current end of the words image — layout is dense) and places it.
    ///
    /// # Panics
    ///
    /// When an overlay emits below its boundary; debug-asserts dense
    /// layout.
    pub fn emit(&mut self, addr: CodeAddr, instr: Instr) {
        let at = self.own_offset(addr);
        let words = self.words_mut();
        if words.len() < at {
            words.resize(at, 0);
        }
        debug_assert_eq!(words.len(), at, "layout must be dense");
        instr.encode(words);
        self.place(addr, instr);
    }

    /// Pads the words image with zeros up to `len` words (stub area).
    pub fn pad_words_to(&mut self, len: usize) {
        if self.len_words() < len {
            let own = len - self.first_addr as usize;
            self.words_mut().resize(own, 0);
        }
    }

    /// Registers (or replaces) a predicate entry point. An overlay's
    /// entry shadows a base entry of the same name.
    pub fn set_entry(&mut self, name: String, arity: u8, addr: CodeAddr) {
        self.entries.insert((name, arity), addr);
    }

    /// Removes one entry, returning its old address.
    pub fn remove_entry(&mut self, name: &str, arity: u8) -> Option<CodeAddr> {
        self.assert_flat();
        self.entries.remove(&(name.to_owned(), arity))
    }

    /// Appends a predicate-size record.
    pub fn push_size(&mut self, size: PredSize) {
        self.sizes.push(size);
    }

    /// Appends a link warning.
    pub fn push_warning(&mut self, warning: String) {
        self.warnings.push(warning);
    }

    /// Sets the reported query-variable names (query images).
    pub fn set_query_vars(&mut self, vars: Vec<String>) {
        self.query_vars = vars;
    }

    /// Bumps and returns the auxiliary-naming round counter.
    pub fn bump_aux_round(&mut self) -> u32 {
        self.aux_round += 1;
        self.aux_round
    }

    /// Takes this image's own static data for extension, with the
    /// address its first word sits at (see
    /// [`CodeImage::set_static_data`]): the whole area for a flat image,
    /// the words after the base's for an overlay.
    pub fn take_static_data(&mut self) -> (VAddr, Vec<Word>) {
        let below = self.base.as_ref().map_or(0, |b| b.static_data.len());
        let at = self.static_base.offset(below as i64);
        (at, std::mem::take(&mut self.static_data))
    }

    /// Restores the (extended) own static data taken with
    /// [`CodeImage::take_static_data`].
    pub fn set_static_data(&mut self, words: Vec<Word>) {
        self.static_data = words;
    }

    /// Panics on a query overlay: only a flat program image is patched
    /// or saved (an overlay lives inside one prepared query).
    fn assert_flat(&self) {
        assert!(
            self.base.is_none(),
            "a query overlay cannot be patched or saved"
        );
    }

    // -------------------------------------------- incremental mutation

    /// Appends `instr` at the end of the code image, keeping the words
    /// image in sync, and returns its address.
    fn append_instr(&mut self, instr: Instr) -> CodeAddr {
        let addr = CodeAddr::new(self.len_words() as u32);
        self.emit(addr, instr);
        addr
    }

    /// Replaces the decoded instruction at `addr` and re-encodes the site
    /// in place when the footprint allows (same word count, fixed-size
    /// encoding). Table switches are left to their caller, which knows
    /// whether the site still fits. The site's dispatch entry follows
    /// the new instruction's size.
    fn patch_instr(&mut self, addr: CodeAddr, instr: Instr) {
        let idx = self.index_of(addr).expect("patching a placed instruction");
        let old_words = self.instrs[idx as usize].size_words();
        let new_words = instr.size_words();
        if old_words == new_words
            && !matches!(
                instr,
                Instr::SwitchOnConstant { .. } | Instr::SwitchOnStructure { .. }
            )
        {
            let mut enc = Vec::with_capacity(new_words);
            instr.encode(&mut enc);
            let at = addr.value() as usize;
            self.words_mut()[at..at + new_words].copy_from_slice(&enc);
        }
        self.instrs_mut()[idx as usize] = instr;
        self.refresh_dispatch(idx as usize);
    }

    /// Walks a `try_me_else` / `retry_me_else`* / `trust_me` chain from
    /// its head, returning the address of the final `trust_me` and the
    /// clause-code address after each choice instruction (in clause
    /// order). All three choice instructions are one word, so clause code
    /// starts at `choice_addr + 1`.
    fn walk_var_chain(&self, head: CodeAddr) -> Result<(CodeAddr, Vec<CodeAddr>), PatchError> {
        let mut clauses = Vec::new();
        let mut at = head;
        let Some(Instr::TryMeElse { alt }) = self.instr_at(at) else {
            return Err(unsup("variable chain does not start with try_me_else"));
        };
        clauses.push(at.offset(1));
        let mut next = *alt;
        for _ in 0..self.instrs.len() {
            at = next;
            match self.instr_at(at) {
                Some(Instr::RetryMeElse { alt }) => {
                    clauses.push(at.offset(1));
                    next = *alt;
                }
                Some(Instr::TrustMe) => {
                    clauses.push(at.offset(1));
                    return Ok((at, clauses));
                }
                _ => return Err(unsup("variable chain interrupted")),
            }
        }
        Err(unsup("variable chain does not terminate"))
    }

    /// Collects the clause targets of a `try` / `retry`* / `trust` block
    /// laid out contiguously at `head`.
    fn read_chain_block(&self, head: CodeAddr) -> Result<Vec<CodeAddr>, PatchError> {
        let mut targets = Vec::new();
        let Some(Instr::Try { clause }) = self.instr_at(head) else {
            return Err(unsup("chain block does not start with try"));
        };
        targets.push(*clause);
        let mut at = head.offset(1);
        loop {
            match self.instr_at(at) {
                Some(Instr::Retry { clause }) => {
                    targets.push(*clause);
                    at = at.offset(1);
                }
                Some(Instr::Trust { clause }) => {
                    targets.push(*clause);
                    return Ok(targets);
                }
                _ => return Err(unsup("chain block interrupted")),
            }
        }
    }

    /// Appends a fresh `try` / `retry`* / `trust` block over `targets`
    /// and returns its address. `targets` must have at least two entries.
    fn append_chain_block(&mut self, targets: &[CodeAddr]) -> CodeAddr {
        debug_assert!(targets.len() >= 2);
        let head = self.append_instr(Instr::Try { clause: targets[0] });
        for &t in &targets[1..targets.len() - 1] {
            self.append_instr(Instr::Retry { clause: t });
        }
        self.append_instr(Instr::Trust {
            clause: targets[targets.len() - 1],
        });
        head
    }

    /// The clause targets a dispatch target reaches: the entries of a
    /// `try` / `retry`* / `trust` block, or the single clause it labels.
    fn dispatch_targets(&self, target: CodeAddr) -> Result<Vec<CodeAddr>, PatchError> {
        match self.instr_at(target) {
            Some(Instr::Try { .. }) => self.read_chain_block(target),
            Some(_) => Ok(vec![target]),
            None => Err(unsup("dispatch target is not an instruction")),
        }
    }

    /// The stream index of the constant switch at `table_addr`, which
    /// must have no variable default: a default means variable-headed
    /// clauses exist, so the predicate is not a pure fact base.
    fn constant_table(&self, table_addr: CodeAddr) -> Result<usize, PatchError> {
        let idx =
            self.index_of(table_addr)
                .ok_or_else(|| unsup("constant table is not an instruction"))? as usize;
        match &self.instrs[idx] {
            Instr::SwitchOnConstant { default: None, .. } => Ok(idx),
            Instr::SwitchOnConstant { .. } => Err(unsup("constant table has a variable default")),
            _ => Err(unsup("expected switch_on_constant")),
        }
    }

    /// Looks `key` up in the constant switch at stream index `idx`:
    /// through its hash side table when it has one, else by a linear
    /// scan. Returns the key's table ordinal and dispatch target.
    fn constant_target(&self, idx: usize, key: Word) -> Option<(usize, CodeAddr)> {
        if let Some(side) = self.switch_index[idx].as_deref() {
            return side
                .lookup(key.switch_key())
                .map(|(target, ord)| (ord as usize, target));
        }
        let Instr::SwitchOnConstant { table, .. } = &self.instrs[idx] else {
            return None;
        };
        let ord = table.iter().position(|(k, _)| k.same_constant(key))?;
        Some((ord, table[ord].1))
    }

    /// Plans adding a clause under `key` to the constant switch at stream
    /// index `idx` (read-only): the key's ordinal and current clause
    /// targets when present, which [`CodeImage::apply_key`] extends.
    fn plan_key(&self, idx: usize, key: Word) -> Result<KeyPlan, PatchError> {
        let found = match self.constant_target(idx, key) {
            Some((ord, target)) => Some((ord, self.dispatch_targets(target)?)),
            None => None,
        };
        Ok(KeyPlan { idx, key, found })
    }

    /// Applies a [`KeyPlan`] for the clause at `c_new`: a present key's
    /// clause block is relocated and extended, an absent key is appended
    /// and dispatches straight to the clause. The hash side table (and its
    /// probe-accounting ordinals) stays consistent.
    fn apply_key(&mut self, plan: KeyPlan, c_new: CodeAddr) {
        let KeyPlan { idx, key, found } = plan;
        match found {
            Some((ord, mut targets)) => {
                targets.push(c_new);
                let new_target = self.append_chain_block(&targets);
                let Instr::SwitchOnConstant { table, .. } = &mut self.instrs_mut()[idx] else {
                    unreachable!("planned on a constant switch");
                };
                table[ord].1 = new_target;
                if let Some(side) = &mut self.switch_index[idx] {
                    Arc::make_mut(side).set_target(key.switch_key(), new_target);
                }
            }
            None => {
                // Split borrows of the stream and the side tables: the
                // store is made eager (with its dispatch table) first.
                self.instrs_mut();
                let Instr::SwitchOnConstant { table, .. } = &mut self.instrs.force_mut()[idx]
                else {
                    unreachable!("planned on a constant switch");
                };
                table.push((key, c_new));
                let len = table.len();
                match &mut self.switch_index[idx] {
                    Some(side) => {
                        Arc::make_mut(side).push_key(key.switch_key(), c_new);
                    }
                    None if len >= HASH_INDEX_MIN_ENTRIES => {
                        // The table just crossed the side-table threshold:
                        // build the index exactly as a fresh link would.
                        self.switch_index[idx] = Some(Arc::new(SwitchIndex::for_constants(table)));
                    }
                    None => {}
                }
                // The grown table is a longer instruction: its
                // fall-through moved.
                self.refresh_dispatch(idx);
            }
        }
    }

    /// The variable chain and the constant dispatch of a constant-keyed
    /// fact predicate's entry `switch_on_term`: the shape both in-place
    /// patches start from, checked before anything is read or written.
    fn fact_entry(
        &self,
        entry: CodeAddr,
        clause: &[Instr],
    ) -> Result<(CodeAddr, Option<CodeAddr>), PatchError> {
        if clause.is_empty() {
            return Err(unsup("empty clause code"));
        }
        self.assert_flat();
        let Some(Instr::SwitchOnTerm {
            arg,
            on_var,
            on_const,
            on_list,
            on_struct,
        }) = self.instr_at(entry)
        else {
            return Err(unsup("entry is not switch_on_term"));
        };
        if arg.index() != 0 {
            return Err(unsup("entry switch does not dispatch on A1"));
        }
        if on_list.is_some() || on_struct.is_some() {
            // List- or structure-keyed (or variable-headed) clauses exist:
            // not a pure constant fact base.
            return Err(unsup("predicate has non-constant clause keys"));
        }
        let Some(vchain) = *on_var else {
            return Err(unsup("entry switch has no variable chain"));
        };
        Ok((vchain, *on_const))
    }

    /// Appends one already-compiled fact clause to a constant-keyed fact
    /// predicate and patches its dispatch structures in place: the
    /// variable chain always gains the clause at the end (source order),
    /// and the first-level — and, under a depth-2 bucket, second-level —
    /// constant switch tables gain or extend the clause's key.
    ///
    /// `entry` is the predicate's entry address, `key1`/`key2` the
    /// clause's first/second-argument constants (`key2` only consulted
    /// when the first-level bucket dispatches on A2), and `clause` the
    /// compiled clause code (straight-line, as compiled for a multi-clause
    /// chain).
    ///
    /// # Errors
    ///
    /// [`PatchError::Unsupported`] when the predicate's compiled shape
    /// doesn't qualify; the whole patch is planned before anything is
    /// written, so the image is unchanged in that case and the caller
    /// should recompile the predicate instead.
    pub fn assert_fact_clause(
        &mut self,
        entry: CodeAddr,
        key1: Word,
        key2: Option<Word>,
        clause: &[Instr],
    ) -> Result<(), PatchError> {
        let (vchain, on_const) = self.fact_entry(entry, clause)?;
        let Some(ctab) = on_const else {
            return Err(unsup("entry switch has no constant dispatch"));
        };
        let (trust_at, _) = self.walk_var_chain(vchain)?;
        enum Plan {
            /// The key's clauses are the whole variable chain (`on_const`
            /// is the chain, or the key's bucket is): extending the chain
            /// is the whole update.
            Chain,
            /// The first-level table gains or extends `key1`.
            Table(KeyPlan),
            /// `key1`'s bucket dispatches depth-2 on A2: the bucket switch
            /// at `bucket` gets a relocated, extended fallback block, and
            /// its A2 table gains or extends `key2`.
            Bucket {
                bucket: CodeAddr,
                targets: Vec<CodeAddr>,
                key2: KeyPlan,
            },
        }
        let plan = if ctab == vchain {
            Plan::Chain
        } else {
            let idx = self.constant_table(ctab)?;
            match self
                .constant_target(idx, key1)
                .map(|(_, t)| (t, self.instr_at(t)))
            {
                Some((t, _)) if t == vchain => Plan::Chain,
                Some((
                    bucket,
                    Some(Instr::SwitchOnTerm {
                        arg,
                        on_var: Some(v2),
                        on_const: Some(c2),
                        on_list: None,
                        on_struct: None,
                    }),
                )) => {
                    if arg.index() != 1 {
                        return Err(unsup("bucket switch does not dispatch on A2"));
                    }
                    let Some(key2) = key2 else {
                        return Err(unsup("depth-2 bucket but no second-argument key"));
                    };
                    if !matches!(self.instr_at(*c2),
                        Some(Instr::SwitchOnConstant { arg: a2, .. }) if a2.index() == 1)
                    {
                        return Err(unsup("bucket constant table has unexpected shape"));
                    }
                    // The bucket's fallback chain is always a try block
                    // (depth-2 requires ≥ 2 candidates over ≥ 2 first
                    // keys, so it is never the full variable chain).
                    Plan::Bucket {
                        bucket,
                        targets: self.read_chain_block(*v2)?,
                        key2: self.plan_key(self.constant_table(*c2)?, key2)?,
                    }
                }
                _ => Plan::Table(self.plan_key(idx, key1)?),
            }
        };

        // --- mutate: nothing below can fail ---
        // 1. Extend the variable chain: patch its trust_me into a
        //    retry_me_else aimed at a fresh trust_me, then lay the clause.
        let new_trust = CodeAddr::new(self.len_words() as u32);
        self.patch_instr(trust_at, Instr::RetryMeElse { alt: new_trust });
        self.append_instr(Instr::TrustMe);
        let c_new = CodeAddr::new(self.len_words() as u32);
        for i in clause {
            self.append_instr(i.clone());
        }

        // 2. Patch the constant dispatch.
        match plan {
            Plan::Chain => {}
            Plan::Table(key1) => self.apply_key(key1, c_new),
            Plan::Bucket {
                bucket,
                mut targets,
                key2,
            } => {
                targets.push(c_new);
                let new_v2 = self.append_chain_block(&targets);
                let mut switch = self.instr_at(bucket).cloned();
                if let Some(Instr::SwitchOnTerm { on_var, .. }) = &mut switch {
                    *on_var = Some(new_v2);
                }
                self.patch_instr(bucket, switch.expect("planned on a bucket switch"));
                self.apply_key(key2, c_new);
            }
        }
        Ok(())
    }

    /// Tombstones the first clause of a constant-keyed fact predicate
    /// whose code matches `clause` exactly: its first instruction becomes
    /// `fail`, which every dispatch path (tables, chain blocks, the
    /// variable chain) reaches and backtracks through. Returns whether a
    /// clause was removed.
    ///
    /// # Errors
    ///
    /// [`PatchError::Unsupported`] when the predicate's compiled shape
    /// doesn't qualify (the image is unchanged; the caller should
    /// recompile instead).
    pub fn retract_fact_clause(
        &mut self,
        entry: CodeAddr,
        clause: &[Instr],
    ) -> Result<bool, PatchError> {
        let (vchain, _) = self.fact_entry(entry, clause)?;
        let (_, candidates) = self.walk_var_chain(vchain)?;
        let Some(at) = candidates
            .into_iter()
            .find(|&cand| self.clause_code_matches(cand, clause))
        else {
            return Ok(false);
        };
        self.patch_instr(at, Instr::Fail);
        Ok(true)
    }

    /// Repoints every `call`/`execute` site targeting `old` to `new`,
    /// re-encoding each (one-word) site, and returns how many were
    /// patched. This is how a predicate recompiled at the end of the
    /// image takes over from its previous code. A one-word site stays one
    /// word, so no dispatch entry moves.
    pub fn retarget_calls(&mut self, old: CodeAddr, new: CodeAddr) -> usize {
        self.assert_flat();
        let mut patched = 0;
        for i in 0..self.instrs.len() {
            let replacement = match &self.instrs[i] {
                Instr::Call { addr, arity } if *addr == old => Instr::Call {
                    addr: new,
                    arity: *arity,
                },
                Instr::Execute { addr, arity } if *addr == old => Instr::Execute {
                    addr: new,
                    arity: *arity,
                },
                _ => continue,
            };
            let at = self.addrs[i] as usize;
            let mut enc = Vec::with_capacity(1);
            replacement.encode(&mut enc);
            // Stub-area sites keep zero words (they are never fetched
            // as encoded words); everything else re-encodes in place.
            if at + enc.len() <= self.words.len() && at >= CODE_BASE as usize {
                self.words_mut()[at..at + enc.len()].copy_from_slice(&enc);
            }
            self.instrs_mut()[i] = replacement;
            patched += 1;
        }
        patched
    }

    /// Whether the decoded instructions starting at `at` are exactly
    /// `clause` (instruction-for-instruction).
    fn clause_code_matches(&self, at: CodeAddr, clause: &[Instr]) -> bool {
        let mut addr = at;
        for want in clause {
            match self.instr_at(addr) {
                Some(got) if got == want => addr = addr.offset(got.size_words() as i64),
                _ => return false,
            }
        }
        true
    }

    // ------------------------------------------------- snapshot support

    /// Deconstructed borrow of every field of a flat image, for the
    /// snapshot writer.
    #[allow(clippy::type_complexity)]
    pub(crate) fn parts(
        &self,
    ) -> (
        &CodeStore,
        &[u32],
        &[Option<Arc<SwitchIndex>>],
        &[u64],
        &HashMap<(String, u8), CodeAddr>,
        &[PredSize],
        &[String],
        &[String],
        u32,
        &CompileOptions,
        &[Word],
        VAddr,
    ) {
        self.assert_flat();
        (
            &self.instrs,
            &self.addrs,
            &self.switch_index,
            self.own_words(),
            &self.entries,
            &self.sizes,
            &self.warnings,
            &self.query_vars,
            self.aux_round,
            &self.options,
            &self.static_data,
            self.static_base,
        )
    }

    /// Reassembles an image from restored parts over lazily decoded code,
    /// rebuilding the dense address index (cheap and fully determined by
    /// `addrs`). The dispatch table starts empty and is built one decode
    /// chunk at a time, as chunks first run.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        code: Arc<LazyCode>,
        addrs: Vec<u32>,
        switch_index: Vec<Option<Arc<SwitchIndex>>>,
        words: WordStore,
        entries: HashMap<(String, u8), CodeAddr>,
        sizes: Vec<PredSize>,
        warnings: Vec<String>,
        query_vars: Vec<String>,
        aux_round: u32,
        options: CompileOptions,
        static_data: Vec<Word>,
        static_base: VAddr,
    ) -> CodeImage {
        // Addresses are ascending in every image this crate builds, so the
        // dense index fills in one sequential pass; arbitrary (hostile
        // snapshot) orderings fall back to a scatter.
        let sorted_prefix_index = || {
            let mut out = Vec::with_capacity(addrs.last().map_or(0, |&a| a as usize + 1));
            for (i, &a) in addrs.iter().enumerate() {
                if (a as usize) < out.len() {
                    return None;
                }
                out.resize(a as usize, u32::MAX);
                out.push(i as u32);
            }
            Some(out)
        };
        let addr_index = sorted_prefix_index().unwrap_or_else(|| {
            let top = addrs.iter().copied().max().map_or(0, |a| a as usize + 1);
            let mut out = vec![u32::MAX; top];
            for (i, &a) in addrs.iter().enumerate() {
                out[a as usize] = i as u32;
            }
            out
        });
        let dispatch = Dispatch::Lazy((0..code.chunks.len()).map(|_| OnceLock::new()).collect());
        CodeImage {
            base: None,
            first_index: 0,
            first_addr: 0,
            instrs: CodeStore::Lazy(code),
            addrs,
            addr_index,
            switch_index,
            dispatch,
            words,
            entries,
            sizes,
            warnings,
            query_vars,
            aux_round,
            options,
            static_data,
            static_base,
        }
    }
}
