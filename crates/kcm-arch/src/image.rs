//! The linked code image and its in-place mutation operations.
//!
//! [`CodeImage`] holds loaded code once: the decoded instructions at their
//! word addresses, which both execution tiers dispatch on, and the code's
//! length in words. The encoded 64-bit form exists only in a snapshot,
//! this system's download of a linked program. The compiler's linker
//! builds images with [`CodeImage::new`], [`CodeImage::place`] and
//! [`CodeImage::emit`]; the snapshot module ([`crate::snapshot`])
//! serializes and restores them; and the incremental-update entry points
//! ([`CodeImage::assert_fact_clause`], [`CodeImage::retract_fact_clause`])
//! patch fact predicates without a recompile — B-Prolog-style index
//! maintenance over the switch tables.
//!
//! Every image holds its own code as `Arc` chunks of at most 2¹⁵
//! instructions ([`CodeImage::span`]): linked chunks are built decoded,
//! restored ones decode on first touch, and a write copies only the
//! chunks it touches while another image shares them.
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
use crate::shape::ShapeTable;
use crate::swindex::SwitchIndex;
use crate::symbol::SymbolTable;
use crate::word::Word;
use crate::zone::Zone;
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
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

/// Power-of-two instruction count of a code chunk: 2^15 instructions
/// keeps a restored chunk's decode under a millisecond while a
/// million-fact image still amortizes the per-chunk bookkeeping over
/// ~150 chunks.
pub(crate) const CHUNK_SHIFT: u32 = 15;
const CHUNK_MASK: usize = (1 << CHUNK_SHIFT) - 1;

/// A chunk's hash side tables, by position in the chunk: only as long as
/// its last indexed switch, so a chunk without one allocates nothing.
pub(crate) type Sides = Vec<Option<Arc<SwitchIndex>>>;

/// A restored chunk's part of its snapshot's scan-validated instruction
/// stream: the stream, which all the image's restored chunks share, and
/// the chunk's range in it.
#[derive(Clone)]
pub(crate) struct Words(pub(crate) Arc<Vec<u64>>, pub(crate) Range<usize>);

impl Words {
    fn get(&self) -> &[u64] {
        &self.0[self.1.clone()]
    }
}

impl std::fmt::Debug for Words {
    /// The range only: every chunk shares the whole stream.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Words({:?})", self.1)
    }
}

/// Up to 2^[`CHUNK_SHIFT`] consecutive instructions of an image's own
/// code, with what the image keeps per instruction. Images share chunks
/// behind `Arc`s; a write copies the chunk it touches first while
/// another image holds it ([`CodeImage::write`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct Chunk {
    /// The chunk's encoded words as its snapshot held them, kept until
    /// the chunk is first written: a restored chunk decodes from them on
    /// first touch, and a save writes them back as loaded. The loader
    /// scan-validates the whole stream ([`Instr::scan`]) before any
    /// chunk holds it, so decoding is infallible — an image restored
    /// from hostile bytes can never panic later, it is rejected at load.
    words: Option<Words>,
    /// The decoded instructions: set when linked, on first touch when
    /// restored.
    instrs: OnceLock<Vec<Instr>>,
    /// Word address of each instruction (sorted).
    pub(crate) addrs: Vec<u32>,
    /// Link-time hash side tables: wide `switch_on_constant` /
    /// `switch_on_structure` tables get an open-addressing index here so
    /// dispatch is O(1) instead of a linear scan. `Arc` so chunk copies
    /// share the tables.
    pub(crate) sides: Sides,
    /// The resolved-dispatch entries, parallel to the instructions: built
    /// on the chunk's first run, and kept in step by every write after.
    next: OnceLock<Vec<u64>>,
}

impl Chunk {
    /// A restored chunk over `words`, a scan-validated part of its
    /// snapshot's stream holding one instruction per address in
    /// `addrs`: decoded, and its dispatch entries built, on first use.
    pub(crate) fn restored(words: Words, addrs: Vec<u32>) -> Chunk {
        Chunk {
            words: Some(words),
            addrs,
            ..Chunk::default()
        }
    }

    /// Number of instructions in the chunk.
    #[inline]
    fn len(&self) -> usize {
        self.addrs.len()
    }

    /// The decoded instructions, decoded from the chunk's words on first
    /// touch.
    #[inline]
    pub(crate) fn instrs(&self) -> &[Instr] {
        self.instrs.get_or_init(|| {
            let words = self.words.as_ref().map_or(&[][..], Words::get);
            let mut out = Vec::with_capacity(self.len());
            let mut pos = 0;
            for _ in 0..self.len() {
                let (instr, used) =
                    Instr::decode(&words[pos..]).expect("stream was scan-validated at load");
                pos += used;
                out.push(instr);
            }
            out
        })
    }

    /// Appends the chunk's encoded words to `out`: as loaded while it has
    /// not been written, else its instructions encoded.
    pub(crate) fn encode(&self, out: &mut Vec<u64>) {
        match &self.words {
            Some(words) => out.extend_from_slice(words.get()),
            None => self.instrs().iter().for_each(|instr| instr.encode(out)),
        }
    }

    /// The chunk's parts, open for writing: decodes a restored chunk and
    /// drops its words, which no longer describe it.
    fn open(&mut self) -> ChunkMut<'_> {
        self.instrs();
        self.words = None;
        ChunkMut {
            instrs: self.instrs.get_mut().expect("decoded above"),
            addrs: &mut self.addrs,
            sides: &mut self.sides,
        }
    }

    /// Keeps a built dispatch table in step after instruction `j` was
    /// written: its entry, and when it was just appended, also its
    /// predecessor's, which may fall through to it.
    fn refresh(&mut self, j: usize, addr_index: &[u32], first_addr: u32) {
        let (Some(instrs), Some(next)) = (self.instrs.get(), self.next.get_mut()) else {
            return;
        };
        let entry = |k: usize| resolve(addr_index, first_addr, self.addrs[k], &instrs[k]);
        if j == next.len() {
            next.push(entry(j));
            if let Some(prev) = j.checked_sub(1) {
                next[prev] = entry(prev);
            }
        } else {
            next[j] = entry(j);
        }
    }
}

/// One chunk's parts, open for writing ([`CodeImage::write`]).
pub(crate) struct ChunkMut<'a> {
    pub(crate) instrs: &'a mut Vec<Instr>,
    addrs: &'a mut Vec<u32>,
    sides: &'a mut Sides,
}

/// Chunk `c` of `chunks`, unshared for writing: created, empty and
/// decoded, when `c` is one past the last, and copied first while
/// another image holds it (`Arc::make_mut`), so a write copies only the
/// chunks it touches.
fn unshared(chunks: &mut Vec<Arc<Chunk>>, c: usize) -> &mut Chunk {
    if c == chunks.len() {
        let instrs = OnceLock::from(Vec::new());
        chunks.push(Arc::new(Chunk {
            instrs,
            ..Chunk::default()
        }));
    }
    Arc::make_mut(&mut chunks[c])
}

/// Sets the side table at position `j`, growing `sides` only to hold one.
pub(crate) fn set_side(sides: &mut Sides, j: usize, side: Option<Arc<SwitchIndex>>) {
    if side.is_some() && sides.len() <= j {
        sides.resize(j + 1, None);
    }
    if let Some(slot) = sides.get_mut(j) {
        *slot = side;
    }
}

/// The resolved-dispatch entry of `instr` at `addr` in an image whose
/// own code starts at `first_addr`, with that image's address index:
/// the instruction's fall-through address (low 32 bits) and the stream
/// index of the instruction there (high 32 bits).
///
/// The machine's one instruction loop steps through these entries on
/// both tiers, so it pays one load per step and never recomputes an
/// instruction size. An index of `u32::MAX` means "not resolved here":
/// no instruction starts there, or one was placed there after the entry
/// was computed (a program's last instruction falls through to the
/// first word of a query overlay) — the dispatcher then looks the
/// address up, so a stale entry is never wrong, just a miss.
fn resolve(addr_index: &[u32], first_addr: u32, addr: u32, instr: &Instr) -> u64 {
    let next = addr + instr.size_words() as u32;
    let idx = addr_index
        .get((next - first_addr) as usize)
        .copied()
        .unwrap_or(u32::MAX);
    next as u64 | ((idx as u64) << 32)
}

/// One chunk of an image's decoded stream and its resolved-dispatch
/// entries ([`CodeImage::span`]).
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

/// A predicate's entry key, `(name, arity)`: the owned form the entry
/// table holds and the borrowed form a lookup passes, hashed and compared
/// alike, so a lookup builds no `String`.
trait PredKey {
    fn parts(&self) -> (&str, u8);
}

impl PredKey for (String, u8) {
    fn parts(&self) -> (&str, u8) {
        (&self.0, self.1)
    }
}

impl PredKey for (&str, u8) {
    fn parts(&self) -> (&str, u8) {
        *self
    }
}

impl<'a> std::borrow::Borrow<dyn PredKey + 'a> for (String, u8) {
    fn borrow(&self) -> &(dyn PredKey + 'a) {
        self
    }
}

impl std::hash::Hash for dyn PredKey + '_ {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn PredKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn PredKey + '_ {}

/// A linked, loaded code image: the decoded instructions at their word
/// addresses, which both execution tiers dispatch on, and the code's
/// length in words.
///
/// A switch table grown in place ([`CodeImage::assert_fact_clause`])
/// stays at its address, longer than the words it was laid out in. Table
/// switches never fall through to their sequential successor, so only
/// the cycle tier's code-fetch accounting, which charges the grown size,
/// reads past the words the switch was given.
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
    pub(crate) base: Option<Arc<CodeImage>>,
    /// The first stream index and the first word address this image
    /// holds itself: its base's instruction count and word length (both
    /// 0 for a flat image).
    pub(crate) first_index: u32,
    pub(crate) first_addr: u32,
    /// This image's own code (stream indices from `first_index`): every
    /// chunk but the last holds 2^[`CHUNK_SHIFT`] instructions.
    pub(crate) chunks: Vec<Arc<Chunk>>,
    /// Dense map word address − `first_addr` → stream index (`u32::MAX`
    /// = not an instruction start). Dense because the machine consults
    /// it on every taken control transfer.
    pub(crate) addr_index: Vec<u32>,
    /// One past the last code word: the code's length in words, an
    /// overlay's counting its base's.
    pub(crate) end: u32,
    pub(crate) entries: HashMap<(String, u8), CodeAddr>,
    pub(crate) sizes: Vec<PredSize>,
    pub(crate) warnings: Vec<String>,
    pub(crate) aux_round: u32,
    pub(crate) options: CompileOptions,
    /// This image's own static data words, from [`STATIC_DATA_BASE`]: an
    /// overlay's continue the base's area.
    pub(crate) static_data: Vec<Word>,
    /// The compiled query shapes of a flat image ([`crate::shape`]):
    /// empty in a clone, and emptied by every change to the image.
    pub(crate) shapes: ShapeTable,
}

impl CodeImage {
    /// An empty image (no stubs, no code) compiled for `options`. The
    /// linker places the stub instructions and pads the stub words.
    pub fn new(options: CompileOptions) -> CodeImage {
        CodeImage {
            base: None,
            first_index: 0,
            first_addr: 0,
            chunks: Vec::new(),
            addr_index: Vec::new(),
            end: 0,
            entries: HashMap::new(),
            sizes: Vec::new(),
            warnings: Vec::new(),
            aux_round: 0,
            options,
            static_data: Vec::new(),
            shapes: ShapeTable::default(),
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
            first_addr: base.end,
            end: base.end,
            aux_round: base.aux_round,
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
        let key: &dyn PredKey = &(name, arity);
        self.entries
            .get(key)
            .or_else(|| self.base.as_ref().and_then(|b| b.entries.get(key)))
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
        image.own_instr(i)
    }

    /// Own instruction `i`, decoding its chunk on first touch.
    #[inline]
    fn own_instr(&self, i: usize) -> &Instr {
        &self.chunks[i >> CHUNK_SHIFT].instrs()[i & CHUNK_MASK]
    }

    /// The chunk of the decoded stream holding stream index `idx`, with
    /// its resolved-dispatch entries — resolved on first use (and
    /// decoded then, when restored). The machine's instruction loop
    /// steps through a span without consulting the image, and asks for
    /// the next span only when control leaves it (a chunk edge or an
    /// overlay boundary).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn span(&self, idx: u32) -> Span<'_> {
        let (image, i) = self.layer(idx);
        let c = i >> CHUNK_SHIFT;
        let chunk = &image.chunks[c];
        let instrs = chunk.instrs();
        Span {
            start: image.first_index + (c << CHUNK_SHIFT) as u32,
            instrs,
            next: chunk.next.get_or_init(|| {
                let at = |(&addr, instr)| resolve(&image.addr_index, image.first_addr, addr, instr);
                chunk.addrs.iter().zip(instrs).map(at).collect()
            }),
        }
    }

    /// The word address of the instruction at stream index `idx`, if any
    /// (the inverse of [`CodeImage::index_of`], for disassembly and
    /// image comparison). Instructions are laid out in address order, so
    /// the sequential successor of index `i` is index `i + 1`.
    #[inline]
    pub fn addr_at_index(&self, idx: u32) -> Option<u32> {
        let (image, i) = self.layer(idx);
        let chunk = image.chunks.get(i >> CHUNK_SHIFT)?;
        chunk.addrs.get(i & CHUNK_MASK).copied()
    }

    /// Number of decoded instructions in the stream (valid stream indices
    /// are `0..num_instrs`).
    #[inline]
    pub fn num_instrs(&self) -> usize {
        self.first_index as usize + self.own_len()
    }

    /// Number of instructions this image holds itself.
    pub(crate) fn own_len(&self) -> usize {
        self.chunks.last().map_or(0, |last| {
            ((self.chunks.len() - 1) << CHUNK_SHIFT) + last.len()
        })
    }

    /// The link-time hash index of the switch instruction at stream index
    /// `idx`, if one was built (only wide `switch_on_constant` /
    /// `switch_on_structure` tables get one).
    #[inline]
    pub fn switch_index(&self, idx: u32) -> Option<&SwitchIndex> {
        let (image, i) = self.layer(idx);
        let chunk = image.chunks.get(i >> CHUNK_SHIFT)?;
        chunk.sides.get(i & CHUNK_MASK)?.as_deref()
    }

    /// How many of the program image's chunks are decoded, out of how
    /// many: a restored chunk decodes on first touch, a linked one is
    /// built decoded. Diagnostic for tests of snapshot laziness.
    #[doc(hidden)]
    pub fn decoded_chunks(&self) -> (usize, usize) {
        match &self.base {
            Some(base) => base.decoded_chunks(),
            None => {
                let decoded = self.chunks.iter().filter(|c| c.instrs.get().is_some());
                (decoded.count(), self.chunks.len())
            }
        }
    }

    /// Total code length in words.
    pub fn len_words(&self) -> usize {
        self.end as usize
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
    /// address, [`STATIC_DATA_BASE`]: the loader installs these words
    /// before running. An overlay's literals follow its base's.
    pub fn static_data(&self) -> (VAddr, Cow<'_, [Word]>) {
        let words = match &self.base {
            None => Cow::Borrowed(&self.static_data[..]),
            Some(base) if self.static_data.is_empty() => Cow::Borrowed(&base.static_data[..]),
            Some(base) => Cow::Owned([&base.static_data[..], &self.static_data[..]].concat()),
        };
        (STATIC_DATA_BASE, words)
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

    /// Disassembles the whole image. An address that several entries
    /// share (the `$call/N` stub) is labelled with the least of them.
    pub fn disassemble(&self, symbols: &SymbolTable) -> String {
        use std::fmt::Write;
        let mut rev: HashMap<u32, (&str, u8)> = HashMap::new();
        for (name, arity, addr) in self.entries() {
            rev.entry(addr.value())
                .and_modify(|label| *label = (*label).min((name, arity)))
                .or_insert((name, arity));
        }
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

    /// Lists what this image holds itself, an overlay what it adds to
    /// its base: its instructions at their addresses, its entries, size
    /// records, warnings, static-data words, code length and
    /// auxiliary-naming round. Two overlays on one base with the same
    /// listing hold the same code.
    pub fn own_listing(&self) -> String {
        use std::fmt::Write;
        let lines = self.own_len() + self.static_data.len() + self.entries.len() + 8;
        let mut out = String::with_capacity(80 * lines);
        for (addr, instr) in (self.chunks.iter()).flat_map(|c| c.addrs.iter().zip(c.instrs())) {
            let _ = writeln!(out, "{addr:6}  {instr:?}");
        }
        let mut entries: Vec<_> = self.entries.iter().collect();
        entries.sort();
        let _ = writeln!(out, "entries {entries:?}");
        let _ = writeln!(out, "sizes {:?}", self.sizes);
        let _ = writeln!(out, "warnings {:?}", self.warnings);
        let _ = writeln!(out, "static {:?}", self.static_data);
        let _ = writeln!(out, "end {} round {}", self.end, self.aux_round);
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

    /// Records a decoded instruction at `addr` without moving the end of
    /// the code (the linker places the stubs this way). Builds the hash
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

    /// The one write path into this image's own code: `edit` gets the
    /// parts of the chunk holding own instruction `i` and `i`'s position
    /// in it (one past its last instruction to append). The chunk is
    /// unshared first ([`unshared`]) and decoded if restored, and
    /// afterwards a built dispatch table is kept in step. Every change to
    /// the image empties its shape table.
    pub(crate) fn write(&mut self, i: usize, edit: impl FnOnce(ChunkMut<'_>, usize)) {
        self.shapes.clear();
        let (c, j) = (i >> CHUNK_SHIFT, i & CHUNK_MASK);
        let chunk = unshared(&mut self.chunks, c);
        edit(chunk.open(), j);
        chunk.refresh(j, &self.addr_index, self.first_addr);
    }

    /// Appends one instruction with its side table, keeping the address
    /// index in step (and, through [`CodeImage::write`], the dispatch
    /// table: the new instruction's entry, and its predecessor's, which
    /// may fall through to `addr`).
    fn push_instr(&mut self, addr: CodeAddr, instr: Instr, side: Option<Arc<SwitchIndex>>) {
        let at = self.own_offset(addr);
        if self.addr_index.len() <= at {
            self.addr_index.resize(at + 1, u32::MAX);
        }
        let own = self.own_len();
        self.addr_index[at] = self.first_index + own as u32;
        self.write(own, |c, j| {
            c.addrs.push(addr.value());
            c.instrs.push(instr);
            set_side(c.sides, j, side);
        });
    }

    /// Reserves room for `instrs` more instructions spanning `words` more
    /// code words, so a link grows its per-instruction tables once (up to
    /// the end of the chunk they start in).
    pub fn reserve(&mut self, instrs: usize, words: usize) {
        let own = self.own_len();
        let n = instrs.min((1 << CHUNK_SHIFT) - (own & CHUNK_MASK));
        if n > 0 {
            let c = unshared(&mut self.chunks, own >> CHUNK_SHIFT).open();
            c.instrs.reserve(n);
            c.addrs.reserve(n);
        }
        let end = self.end as usize - self.first_addr as usize;
        self.addr_index
            .reserve((end + words).saturating_sub(self.addr_index.len()));
    }

    /// Places `instr` at `addr`, which must not lie below the end of the
    /// code (layout is dense), and moves the end past it.
    ///
    /// # Panics
    ///
    /// When an overlay emits below its boundary; debug-asserts dense
    /// layout.
    pub fn emit(&mut self, addr: CodeAddr, instr: Instr) {
        debug_assert!(addr.value() >= self.end, "layout must be dense");
        self.end = addr.value() + instr.size_words() as u32;
        self.place(addr, instr);
    }

    /// Moves the end of the code up to `len` words (the stub area, whose
    /// instructions are placed, not emitted).
    pub fn pad_words_to(&mut self, len: usize) {
        self.shapes.clear();
        self.end = self.end.max(len as u32);
    }

    /// Registers (or replaces) a predicate entry point. An overlay's
    /// entry shadows a base entry of the same name.
    pub fn set_entry(&mut self, name: String, arity: u8, addr: CodeAddr) {
        self.shapes.clear();
        self.entries.insert((name, arity), addr);
    }

    /// Removes one entry, returning its old address.
    pub fn remove_entry(&mut self, name: &str, arity: u8) -> Option<CodeAddr> {
        self.assert_flat();
        self.shapes.clear();
        self.entries.remove(&(name, arity) as &dyn PredKey)
    }

    /// Appends a predicate-size record.
    pub fn push_size(&mut self, size: PredSize) {
        self.sizes.push(size);
    }

    /// Appends a link warning.
    pub fn push_warning(&mut self, warning: String) {
        self.warnings.push(warning);
    }

    /// Bumps and returns the auxiliary-naming round counter.
    pub fn bump_aux_round(&mut self) -> u32 {
        self.shapes.clear();
        self.aux_round += 1;
        self.aux_round
    }

    /// Takes this image's own static data for extension, with the
    /// address its first word sits at (see
    /// [`CodeImage::set_static_data`]): the whole area for a flat image,
    /// the words after the base's for an overlay.
    pub fn take_static_data(&mut self) -> (VAddr, Vec<Word>) {
        let below = self.base.as_ref().map_or(0, |b| b.static_data.len());
        let at = STATIC_DATA_BASE.offset(below as i64);
        (at, std::mem::take(&mut self.static_data))
    }

    /// Restores the (extended) own static data taken with
    /// [`CodeImage::take_static_data`].
    pub fn set_static_data(&mut self, words: Vec<Word>) {
        self.shapes.clear();
        self.static_data = words;
    }

    /// Panics on a query overlay: only a flat program image is patched
    /// or saved (an overlay lives inside one prepared query).
    pub(crate) fn assert_flat(&self) {
        assert!(
            self.base.is_none(),
            "a query overlay cannot be patched or saved"
        );
    }

    // -------------------------------------------- incremental mutation

    /// Appends `instr` at the end of the code image and returns its
    /// address.
    fn append_instr(&mut self, instr: Instr) -> CodeAddr {
        let addr = CodeAddr::new(self.len_words() as u32);
        self.emit(addr, instr);
        addr
    }

    /// Replaces the decoded instruction at `addr`. The site's dispatch
    /// entry follows the new instruction's size.
    fn patch_instr(&mut self, addr: CodeAddr, instr: Instr) {
        let idx = self.index_of(addr).expect("patching a placed instruction") as usize;
        self.write(idx, |c, j| c.instrs[j] = instr);
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
        for _ in 0..self.own_len() {
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

    /// Relocates a key's (or a bucket's) clause targets with `c_new`
    /// added at the end, and returns the new dispatch target: the clause
    /// itself when it is the only live one, else a fresh chain block.
    /// Retracted clauses (tombstoned to `fail`) are dropped, so repeated
    /// writes to one key do not drag their dead entries along.
    fn relocate_targets(&mut self, mut targets: Vec<CodeAddr>, c_new: CodeAddr) -> CodeAddr {
        targets.retain(|&t| !matches!(self.instr_at(t), Some(Instr::Fail)));
        targets.push(c_new);
        match targets[..] {
            [only] => only,
            _ => self.append_chain_block(&targets),
        }
    }

    /// The stream index of the constant switch at `table_addr`, which
    /// must have no variable default: a default means variable-headed
    /// clauses exist, so the predicate is not a pure fact base.
    fn constant_table(&self, table_addr: CodeAddr) -> Result<usize, PatchError> {
        let idx =
            self.index_of(table_addr)
                .ok_or_else(|| unsup("constant table is not an instruction"))? as usize;
        match self.own_instr(idx) {
            Instr::SwitchOnConstant { default: None, .. } => Ok(idx),
            Instr::SwitchOnConstant { .. } => Err(unsup("constant table has a variable default")),
            _ => Err(unsup("expected switch_on_constant")),
        }
    }

    /// Looks `key` up in the constant switch at stream index `idx`:
    /// through its hash side table when it has one, else by a linear
    /// scan. Returns the key's table ordinal and dispatch target.
    fn constant_target(&self, idx: usize, key: Word) -> Option<(usize, CodeAddr)> {
        if let Some(side) = self.switch_index(idx as u32) {
            return side
                .lookup(key.switch_key())
                .map(|(target, ord)| (ord as usize, target));
        }
        let Instr::SwitchOnConstant { table, .. } = self.own_instr(idx) else {
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
    /// live clauses are relocated and extended (see
    /// [`CodeImage::relocate_targets`]), an absent key is appended and
    /// dispatches straight to the clause. The hash side table (and its
    /// probe-accounting ordinals) stays consistent.
    fn apply_key(&mut self, plan: KeyPlan, c_new: CodeAddr) {
        let KeyPlan { idx, key, found } = plan;
        match found {
            Some((ord, targets)) => {
                let new_target = self.relocate_targets(targets, c_new);
                self.write(idx, |c, j| {
                    let Instr::SwitchOnConstant { table, .. } = &mut c.instrs[j] else {
                        unreachable!("planned on a constant switch");
                    };
                    table[ord].1 = new_target;
                    if let Some(Some(side)) = c.sides.get_mut(j) {
                        Arc::make_mut(side).set_target(key.switch_key(), new_target);
                    }
                });
            }
            // The grown table is a longer instruction: the write moves its
            // fall-through.
            None => self.write(idx, |c, j| {
                let Instr::SwitchOnConstant { table, .. } = &mut c.instrs[j] else {
                    unreachable!("planned on a constant switch");
                };
                table.push((key, c_new));
                match c.sides.get_mut(j) {
                    Some(Some(side)) => Arc::make_mut(side).push_key(key.switch_key(), c_new),
                    // The table just crossed the side-table threshold:
                    // build the index exactly as a fresh link would.
                    _ if table.len() >= HASH_INDEX_MIN_ENTRIES => {
                        let side = SwitchIndex::for_constants(table);
                        set_side(c.sides, j, Some(Arc::new(side)));
                    }
                    _ => {}
                }
            }),
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
            /// at `bucket` gets a relocated, extended fallback over its
            /// live clauses, and its A2 table gains or extends `key2`.
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
                    // The bucket's fallback is a try block as linked
                    // (depth-2 requires ≥ 2 candidates over ≥ 2 first
                    // keys, so it is never the full variable chain), or
                    // a single clause once retracts left only one live.
                    Plan::Bucket {
                        bucket,
                        targets: self.dispatch_targets(*v2)?,
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
                targets,
                key2,
            } => {
                let new_v2 = self.relocate_targets(targets, c_new);
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
    /// variable chain) reaches and backtracks through. The variable
    /// chain then skips the entry, unless it is the chain's head or the
    /// `trust_me` right after it, so repeated writes leave at most two
    /// dead entries there. Returns whether a clause was removed.
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
        let Some(k) = candidates
            .iter()
            .position(|&cand| self.clause_code_matches(cand, clause))
        else {
            return Ok(false);
        };
        self.patch_instr(candidates[k], Instr::Fail);
        if k > 0 {
            self.unlink_var_entry(candidates[k - 1].offset(-1), candidates[k].offset(-1));
        }
        Ok(true)
    }

    /// Unlinks a tombstoned variable-chain entry, whose choice
    /// instruction is at `dead`, from the entry before it, at `prev`, so
    /// a call with an unbound first argument no longer walks it. A
    /// `retry_me_else` entry is skipped by handing its alternative to
    /// the predecessor; a final `trust_me` entry by making a
    /// `retry_me_else` predecessor the chain's `trust_me`. Each is a
    /// one-word patch in place. The head stays linked (the entry switch
    /// reaches it), and so does a `trust_me` right after it, so at most
    /// two dead entries stay in a chain however many writes happen.
    fn unlink_var_entry(&mut self, prev: CodeAddr, dead: CodeAddr) {
        let relinked = match (self.instr_at(prev), self.instr_at(dead)) {
            (Some(Instr::TryMeElse { .. }), Some(Instr::RetryMeElse { alt })) => {
                Instr::TryMeElse { alt: *alt }
            }
            (Some(Instr::RetryMeElse { .. }), Some(Instr::RetryMeElse { alt })) => {
                Instr::RetryMeElse { alt: *alt }
            }
            (Some(Instr::RetryMeElse { .. }), Some(Instr::TrustMe)) => Instr::TrustMe,
            _ => return,
        };
        self.patch_instr(prev, relinked);
    }

    /// Repoints every `call`/`execute` site targeting `old` to `new`, and
    /// returns how many were patched. This is how a predicate recompiled
    /// at the end of the image takes over from its previous code. A
    /// one-word site stays one word, so no dispatch entry moves.
    pub fn retarget_calls(&mut self, old: CodeAddr, new: CodeAddr) -> usize {
        self.assert_flat();
        let mut patched = 0;
        for i in 0..self.own_len() {
            let replacement = match self.own_instr(i) {
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
            self.write(i, |c, j| c.instrs[j] = replacement);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHUNK: usize = 1 << CHUNK_SHIFT;

    /// An image of four chunks, the last one short: one-word `proceed`s
    /// from [`CODE_BASE`], but for a `call` of `callee` at own index
    /// `call_at`.
    fn image_with_call(callee: CodeAddr, call_at: usize) -> CodeImage {
        let mut image = CodeImage::new(CompileOptions::default());
        image.pad_words_to(CODE_BASE as usize);
        for i in 0..3 * CHUNK + 10 {
            let instr = if i == call_at {
                Instr::Call {
                    addr: callee,
                    arity: 0,
                }
            } else {
                Instr::Proceed
            };
            image.emit(CodeAddr::new(image.len_words() as u32), instr);
        }
        image
    }

    #[test]
    fn a_write_copies_only_the_chunks_it_patches() {
        let (old, new) = (CodeAddr::new(CODE_BASE), CodeAddr::new(CODE_BASE + 1));
        let call_at = CHUNK + CHUNK / 2;
        let mut image = image_with_call(old, call_at);
        assert_eq!(image.chunks.len(), 4);
        let reader = image.clone();
        let listing = reader.own_listing();

        assert_eq!(image.retarget_calls(old, new), 1);
        for (c, (mine, theirs)) in image.chunks.iter().zip(&reader.chunks).enumerate() {
            assert_eq!(Arc::ptr_eq(mine, theirs), c != 1, "chunk {c}");
        }
        assert_eq!(reader.own_listing(), listing, "the reader's code moved");
        let patched = Instr::Call {
            addr: new,
            arity: 0,
        };
        assert_eq!(image.instr_at_index(call_at as u32), &patched);
    }

    #[test]
    fn every_chunk_is_one_span_and_resolves_across_its_edges() {
        let image = image_with_call(CodeAddr::new(CODE_BASE), CHUNK);
        for c in 0..image.chunks.len() {
            let first = (c * CHUNK) as u32;
            let span = image.span(first + 3);
            assert_eq!(span.start, first);
            assert_eq!(span.instrs.len(), image.chunks[c].len());
            // A resolved entry names the instruction at its fall-through,
            // in this chunk or the next.
            for (j, &packed) in span.next.iter().enumerate() {
                let idx = first + j as u32;
                let next = packed as u32;
                assert_eq!(Some(next), image.addr_at_index(idx).map(|a| a + 1));
                let resolved = (packed >> 32) as u32;
                if resolved != u32::MAX {
                    assert_eq!(image.index_of(CodeAddr::new(next)), Some(resolved));
                }
            }
        }
    }
}
