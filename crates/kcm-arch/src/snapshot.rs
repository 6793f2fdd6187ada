//! Binary program snapshots: serialize a linked [`CodeImage`] (plus its
//! [`SymbolTable`]) to a self-contained byte artifact and restore it
//! without recompiling — SICStus-style saved states for the KCM image.
//!
//! # Format (version 1, all integers little-endian)
//!
//! ```text
//! header   magic "KCMSNAP\0" · version u32 · flags u32 · body_len u64
//! body     options      4 × u8 (one per CompileOptions flag)
//!          symbols      atoms (count + len-prefixed UTF-8),
//!                       functors (count + atom u32 + arity u8)
//!          code         instr count · addrs u32×n · stream length ·
//!                       decode-chunk table (instr start, word offset) ·
//!                       concatenated Instr::encode stream
//!          side tables  per indexed switch: instr index, table len,
//!                       capacity, raw hash slots (key, target, ordinal)
//!          words        flag u8 · length u64 · encoded code words
//!                       (authoritative for the code cache / fetch
//!                       accounting; the instr stream is authoritative
//!                       for execution). When the flag says the words
//!                       are exactly the instruction stream scattered to
//!                       its addresses (every never-patched image), the
//!                       section stores only the length and the loader
//!                       rebuilds the words during its validation scan.
//!          entries      sorted by (name, arity) for deterministic output
//!          sizes        per-predicate static size records
//!          warnings · query vars · aux round · static data
//! trailer  checksum u64 over header + body
//! ```
//!
//! The code words and the instruction stream are both stored: after an
//! in-place table patch they legitimately differ (the decoded table has
//! grown; the encoded site is stale), and both sides are needed to restore
//! the image bit-for-bit. Hash side tables are stored as raw slots so
//! loading skips the rehash. [`load`] does not decode the instruction
//! stream at all: it *scan-validates* every instruction ([`Instr::scan`])
//! — so hostile bytes are rejected up front and decoding can never fail
//! later — and hands the validated stream to chunk-lazy storage that
//! materializes instructions on first execution. Everything else is a
//! bounds check away from `memcpy`, which is what makes a million-fact
//! image restore in milliseconds where a consult takes seconds. The
//! writer-side decode-chunk table survives as a consistency cross-check
//! (and keeps version 1 bytes stable).
//!
//! Saving is deterministic: `save(load(bytes)) == bytes` for any snapshot
//! this module wrote.

use crate::addr::{CodeAddr, VAddr};
use crate::image::{
    CodeImage, CompileOptions, LazyCode, PredId, PredSize, WordStore, CODE_BASE, LAZY_CHUNK_SHIFT,
};
use crate::isa::Instr;
use crate::swindex::SwitchIndex;
use crate::symbol::{AtomId, SymbolTable};
use crate::word::Word;
use std::sync::Arc;

/// Magic bytes opening every snapshot.
pub const MAGIC: [u8; 8] = *b"KCMSNAP\0";
/// The (only) format version this build reads and writes.
pub const VERSION: u32 = 1;

const HEADER_LEN: usize = 8 + 4 + 4 + 8;
const TRAILER_LEN: usize = 8;
/// Byte granularity of parallel checksumming (deterministic: the split
/// is by offset, not by thread).
const CHECKSUM_SLICE: usize = 4 << 20;
/// Instruction granularity of the writer-side decode-chunk table (kept
/// for format stability and used as a scan-time consistency cross-check).
const DECODE_CHUNK_MIN: usize = 1 << 14;
const DECODE_CHUNKS_MAX: usize = 16;
/// How much longer than the instruction stream the words image may be
/// (stub area plus padding) and still qualify for the omitted-words
/// encoding; also the loader's allocation bound for rebuilding it.
const WORDS_PAD_MAX: usize = 4096;

/// Why a snapshot failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ends before the length its header promises.
    Truncated,
    /// The stream does not start with the snapshot magic — not a
    /// snapshot at all.
    BadMagic,
    /// The snapshot was written by an unsupported format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The stream is the right length but its content is damaged
    /// (checksum mismatch or a malformed section).
    Corrupted(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::BadMagic => write!(f, "not a KCM snapshot (bad magic)"),
            SnapshotError::VersionMismatch { found, supported } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (this build reads {supported})"
                )
            }
            SnapshotError::Corrupted(why) => write!(f, "snapshot is corrupted: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn corrupt(why: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupted(why.into())
}

// --------------------------------------------------------------- checksum

/// SplitMix64 finalizer (same mixer the switch index uses).
#[inline]
const fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Eight-lane mul/rotate sum over one slice: the independent lanes hide
/// the multiply latency, so checksumming never dominates load.
fn sum_slice(bytes: &[u8]) -> u64 {
    const M: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [
        0x243F_6A88_85A3_08D3u64,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
        0x4528_21E6_38D0_1377,
        0xBE54_66CF_34E9_0C6C,
        0xC0AC_29B7_C97C_50DD,
        0x3F84_D5B5_B547_0917,
    ];
    let (blocks, rem) = bytes.as_chunks::<64>();
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, w) in lanes.iter_mut().zip(words) {
            let v = u64::from_le_bytes(*w);
            *lane = (*lane ^ v).wrapping_mul(M).rotate_left(27);
        }
    }
    if !rem.is_empty() {
        let mut tail = [0u8; 64];
        tail[..rem.len()].copy_from_slice(rem);
        let (words, _) = tail.as_chunks::<8>();
        for (lane, w) in lanes.iter_mut().zip(words) {
            let v = u64::from_le_bytes(*w);
            *lane = (*lane ^ v).wrapping_mul(M).rotate_left(27);
        }
    }
    let mut acc = bytes.len() as u64;
    for lane in lanes {
        acc = mix(acc ^ lane);
    }
    acc
}

/// Content checksum: per-4MiB slice sums (computed on several threads for
/// large inputs; the split is by byte offset, so the result is
/// deterministic) folded together with the total length.
fn checksum(bytes: &[u8]) -> u64 {
    let sums: Vec<u64> = if bytes.len() > 2 * CHECKSUM_SLICE {
        let slices: Vec<&[u8]> = bytes.chunks(CHECKSUM_SLICE).collect();
        let mut sums = vec![0u64; slices.len()];
        std::thread::scope(|scope| {
            for (slot, slice) in sums.iter_mut().zip(&slices) {
                scope.spawn(|| *slot = sum_slice(slice));
            }
        });
        sums
    } else {
        bytes.chunks(CHECKSUM_SLICE).map(sum_slice).collect()
    };
    let mut acc = u64::from_le_bytes(MAGIC) ^ bytes.len() as u64;
    for (i, s) in sums.iter().enumerate() {
        acc = mix(acc ^ s ^ (i as u64));
    }
    acc
}

// ----------------------------------------------------------------- writer

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn u64_slice(&mut self, words: &[u64]) {
        self.buf.reserve(words.len() * 8);
        for w in words {
            self.buf.extend_from_slice(&w.to_le_bytes());
        }
    }
}

/// Serializes a linked image and its symbol table to a self-contained
/// snapshot artifact.
///
/// # Panics
///
/// On a query overlay ([`CodeImage::overlay`]): only a program image is
/// saved.
pub fn save(image: &CodeImage, symbols: &SymbolTable) -> Vec<u8> {
    let (
        instrs,
        addrs,
        switch_index,
        words,
        entries,
        sizes,
        warnings,
        query_vars,
        aux_round,
        options,
        static_data,
        static_base,
    ) = image.parts();

    let mut w = Writer {
        buf: Vec::with_capacity(HEADER_LEN + words.len() * 16 + 4096),
    };
    w.buf.extend_from_slice(&MAGIC);
    w.u32(VERSION);
    w.u32(0); // flags
    w.u64(0); // body_len back-patched below

    // Options.
    w.u8(options.inline_arith as u8);
    w.u8(options.deferred_choice_points as u8);
    w.u8(options.static_ground_literals as u8);
    w.u8(options.depth2_facts as u8);

    // Symbols.
    w.u64(symbols.atom_count() as u64);
    for atom in symbols.raw_atoms() {
        w.str(atom);
    }
    w.u64(symbols.functor_count() as u64);
    for (atom, arity) in symbols.raw_functors() {
        w.u32(atom.index() as u32);
        w.u8(*arity);
    }

    // Code: addresses, decode-chunk table, instruction stream.
    w.u64(instrs.len() as u64);
    for a in addrs {
        w.u32(*a);
    }
    let mut stream: Vec<u64> = Vec::with_capacity(words.len());
    let mut offsets: Vec<u64> = Vec::with_capacity(instrs.len());
    for i in instrs.iter() {
        offsets.push(stream.len() as u64);
        i.encode(&mut stream);
    }
    let chunk_size = decode_chunk_size(instrs.len());
    let chunk_starts: Vec<usize> = (0..instrs.len()).step_by(chunk_size.max(1)).collect();
    w.u64(stream.len() as u64);
    w.u32(chunk_starts.len() as u32);
    for &start in &chunk_starts {
        w.u64(start as u64);
        w.u64(offsets[start]);
    }
    w.u64_slice(&stream);

    // Switch hash side tables, raw.
    let indexed: Vec<(usize, &SwitchIndex)> = switch_index
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.as_deref().map(|s| (i, s)))
        .collect();
    w.u64(indexed.len() as u64);
    for (idx, side) in indexed {
        w.u32(idx as u32);
        w.u64(side.table_len() as u64);
        let slots: Vec<(u64, u32, u32)> = side.raw_slots().collect();
        w.u64(slots.len() as u64);
        for (key, target, ordinal) in slots {
            w.u64(key);
            w.u32(target);
            w.u32(ordinal);
        }
    }

    // Encoded code words: omitted entirely when they are exactly the
    // instruction stream scattered to its addresses (every never-patched
    // image) — the loader rebuilds them during its validation scan.
    let reconstructable = words_reconstructable(words, addrs, &offsets, &stream);
    w.u8(reconstructable as u8);
    w.u64(words.len() as u64);
    if !reconstructable {
        w.u64_slice(words);
    }

    // Entries, sorted for deterministic bytes.
    let mut sorted: Vec<(&str, u8, CodeAddr)> = entries
        .iter()
        .map(|((name, arity), addr)| (name.as_str(), *arity, *addr))
        .collect();
    sorted.sort_unstable();
    w.u64(sorted.len() as u64);
    for (name, arity, addr) in sorted {
        w.str(name);
        w.u8(arity);
        w.u32(addr.value());
    }

    // Per-predicate sizes.
    w.u64(sizes.len() as u64);
    for s in sizes {
        w.str(&s.id.name);
        w.u8(s.id.arity);
        w.u8(s.auxiliary as u8);
        w.u64(s.instrs as u64);
        w.u64(s.words as u64);
        w.u32(s.start);
        w.u32(s.end);
    }

    // Warnings, query vars, aux round, static data.
    w.u64(warnings.len() as u64);
    for warning in warnings {
        w.str(warning);
    }
    w.u64(query_vars.len() as u64);
    for var in query_vars {
        w.str(var);
    }
    w.u32(aux_round);
    w.u32(static_base.value());
    w.u64(static_data.len() as u64);
    for word in static_data {
        w.u64(word.bits());
    }

    // Back-patch the body length, then seal with the checksum.
    let body_len = (w.buf.len() - HEADER_LEN) as u64;
    w.buf[16..24].copy_from_slice(&body_len.to_le_bytes());
    let sum = checksum(&w.buf);
    w.u64(sum);
    w.buf
}

fn decode_chunk_size(n: usize) -> usize {
    n.div_ceil(DECODE_CHUNKS_MAX).max(DECODE_CHUNK_MIN)
}

/// Whether `words` is exactly the instruction stream scattered to its
/// addresses: every emitted site (address ≥ [`CODE_BASE`]) holds its
/// instruction's encoding, and everything else — the stub area and any
/// padding gaps — is zero. True for every image that has never taken an
/// in-place table patch; such images snapshot without a words section.
fn words_reconstructable(words: &[u64], addrs: &[u32], offsets: &[u64], stream: &[u64]) -> bool {
    if words.len() > stream.len() + WORDS_PAD_MAX {
        return false;
    }
    let mut cursor = 0usize;
    for (i, &a) in addrs.iter().enumerate() {
        let a = a as usize;
        let start = offsets[i] as usize;
        let end = offsets.get(i + 1).map_or(stream.len(), |&o| o as usize);
        let n = end - start;
        if a < cursor || words.len() < a + n {
            return false;
        }
        if words[cursor..a].iter().any(|&w| w != 0) {
            return false;
        }
        if a < CODE_BASE as usize {
            // Stub sites are placed without emitting words.
            if words[a..a + n].iter().any(|&w| w != 0) {
                return false;
            }
        } else if words[a..a + n] != stream[start..end] {
            return false;
        }
        cursor = a + n;
    }
    words[cursor..].iter().all(|&w| w == 0)
}

// ----------------------------------------------------------------- reader

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("section overruns the snapshot body"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(corrupt(format!("bad boolean byte {other}"))),
        }
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// A u64 length field that must also be a sane element count for the
    /// remaining bytes (each element at least `min_elem_bytes` wide).
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.buf.len() - self.pos {
            return Err(corrupt("count field exceeds the snapshot body"));
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string is not UTF-8"))
    }
    fn u64_vec(&mut self, n: usize) -> Result<Vec<u64>, SnapshotError> {
        let bytes = self.take(n * 8)?;
        let (chunks, _) = bytes.as_chunks::<8>();
        Ok(chunks.iter().map(|c| u64::from_le_bytes(*c)).collect())
    }
}

/// Restores an image and symbol table from snapshot bytes.
///
/// # Errors
///
/// [`SnapshotError::BadMagic`] / [`SnapshotError::VersionMismatch`] for
/// streams this build cannot read, [`SnapshotError::Truncated`] when the
/// stream ends early, [`SnapshotError::Corrupted`] when the checksum or
/// any section fails validation.
pub fn load(bytes: &[u8]) -> Result<(Arc<CodeImage>, SymbolTable), SnapshotError> {
    if bytes.len() < MAGIC.len() {
        return if bytes.len() < MAGIC.len() && MAGIC.starts_with(bytes) {
            Err(SnapshotError::Truncated)
        } else {
            Err(SnapshotError::BadMagic)
        };
    }
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            supported: VERSION,
        });
    }
    let body_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let expected = (HEADER_LEN as u64)
        .checked_add(body_len)
        .and_then(|v| v.checked_add(TRAILER_LEN as u64))
        .ok_or_else(|| corrupt("absurd body length"))?;
    match (bytes.len() as u64).cmp(&expected) {
        std::cmp::Ordering::Less => return Err(SnapshotError::Truncated),
        std::cmp::Ordering::Greater => return Err(corrupt("trailing bytes after the checksum")),
        std::cmp::Ordering::Equal => {}
    }
    let content = &bytes[..bytes.len() - TRAILER_LEN];
    let stored = u64::from_le_bytes(bytes[bytes.len() - TRAILER_LEN..].try_into().unwrap());
    if checksum(content) != stored {
        return Err(corrupt("checksum mismatch"));
    }

    let mut r = Reader {
        buf: content,
        pos: HEADER_LEN,
    };

    // Options.
    let options = CompileOptions {
        inline_arith: r.bool()?,
        deferred_choice_points: r.bool()?,
        static_ground_literals: r.bool()?,
        depth2_facts: r.bool()?,
    };

    // Symbols.
    let atom_count = r.count(4)?;
    let mut atoms = Vec::with_capacity(atom_count);
    for _ in 0..atom_count {
        atoms.push(r.str()?);
    }
    let functor_count = r.count(5)?;
    let mut functors = Vec::with_capacity(functor_count);
    for _ in 0..functor_count {
        let atom = r.u32()? as usize;
        let arity = r.u8()?;
        if atom >= atoms.len() {
            return Err(corrupt("functor references an unknown atom"));
        }
        functors.push((AtomId::new(atom), arity));
    }
    let symbols = SymbolTable::from_raw(atoms, functors);

    // Code.
    let instr_count = r.count(4)?;
    let addr_bytes = r.take(instr_count * 4)?;
    let (addr_chunks, _) = addr_bytes.as_chunks::<4>();
    let addrs: Vec<u32> = addr_chunks.iter().map(|c| u32::from_le_bytes(*c)).collect();
    let stream_len = r.count(8)?;
    let chunk_count = r.u32()? as usize;
    let mut chunks = Vec::with_capacity(chunk_count);
    for _ in 0..chunk_count {
        let instr_start = r.u64()? as usize;
        let word_off = r.u64()? as usize;
        chunks.push((instr_start, word_off));
    }
    let stream = r.u64_vec(stream_len)?;

    // Side tables.
    let side_count = r.count(24)?;
    let mut switch_index: Vec<Option<Arc<SwitchIndex>>> = vec![None; instr_count];
    for _ in 0..side_count {
        let idx = r.u32()? as usize;
        let table_len = r.u64()? as usize;
        let cap = r.count(16)?;
        if !cap.is_power_of_two() || table_len > cap {
            return Err(corrupt("malformed switch side table"));
        }
        let (slot_chunks, _) = r.take(cap * 16)?.as_chunks::<16>();
        let slots: Vec<(u64, u32, u32)> = slot_chunks
            .iter()
            .map(|b| {
                (
                    u64::from_le_bytes(b[0..8].try_into().unwrap()),
                    u32::from_le_bytes(b[8..12].try_into().unwrap()),
                    u32::from_le_bytes(b[12..16].try_into().unwrap()),
                )
            })
            .collect();
        let slot = switch_index
            .get_mut(idx)
            .ok_or_else(|| corrupt("side table for an unknown instruction"))?;
        *slot = Some(Arc::new(SwitchIndex::from_raw(table_len, slots)));
    }

    // Words: carried verbatim (flag 0), or omitted by the writer and
    // reconstructed from the instruction stream on first access (flag 1).
    let (words_len, eager_words) = match r.u8()? {
        0 => {
            let words_len = r.count(8)?;
            (words_len, Some(r.u64_vec(words_len)?))
        }
        1 => {
            let words_len = r.u64()? as usize;
            if words_len > stream.len() + WORDS_PAD_MAX {
                return Err(corrupt("rebuilt words length out of bounds"));
            }
            (words_len, None)
        }
        _ => return Err(corrupt("bad words-section flag")),
    };
    let chunk_offsets = scan_stream(instr_count, &chunks, &stream)?;
    let code = Arc::new(LazyCode::new(stream, chunk_offsets, instr_count));
    let words = match eager_words {
        Some(v) => WordStore::Eager(v),
        None => WordStore::lazy(Arc::clone(&code), words_len),
    };

    // Entries.
    let entry_count = r.count(9)?;
    let mut entries = std::collections::HashMap::with_capacity(entry_count);
    for _ in 0..entry_count {
        let name = r.str()?;
        let arity = r.u8()?;
        let addr = r.u32()?;
        if addr as usize >= words_len.max(1) {
            return Err(corrupt("entry address outside the code image"));
        }
        entries.insert((name, arity), CodeAddr::new(addr));
    }

    // Sizes.
    let size_count = r.count(22)?;
    let mut sizes = Vec::with_capacity(size_count);
    for _ in 0..size_count {
        let name = r.str()?;
        let arity = r.u8()?;
        let auxiliary = r.bool()?;
        let instrs_n = r.u64()? as usize;
        let words_n = r.u64()? as usize;
        let start = r.u32()?;
        let end = r.u32()?;
        sizes.push(PredSize {
            id: PredId { name, arity },
            instrs: instrs_n,
            words: words_n,
            auxiliary,
            start,
            end,
        });
    }

    // Warnings, query vars, aux round, static data.
    let warning_count = r.count(4)?;
    let mut warnings = Vec::with_capacity(warning_count);
    for _ in 0..warning_count {
        warnings.push(r.str()?);
    }
    let var_count = r.count(4)?;
    let mut query_vars = Vec::with_capacity(var_count);
    for _ in 0..var_count {
        query_vars.push(r.str()?);
    }
    let aux_round = r.u32()?;
    let static_base = r.u32()?;
    if static_base > crate::addr::VADDR_MASK {
        return Err(corrupt("static base outside the address space"));
    }
    let static_len = r.count(8)?;
    let static_data: Vec<Word> = r
        .u64_vec(static_len)?
        .into_iter()
        .map(Word::from_bits)
        .collect();

    if r.pos != content.len() {
        return Err(corrupt("unconsumed bytes in the snapshot body"));
    }

    let image = CodeImage::from_parts(
        code,
        addrs,
        switch_index,
        words,
        entries,
        sizes,
        warnings,
        query_vars,
        aux_round,
        options,
        static_data,
        VAddr::new(static_base),
    );
    Ok((Arc::new(image), symbols))
}

/// Validates the instruction stream without materializing it: walks the
/// whole stream with [`Instr::scan`] (proved instruction-for-instruction
/// equivalent to [`Instr::decode`]), cross-checks the writer's
/// decode-chunk table, and returns the word offset of each lazy decode
/// chunk (every `1 << LAZY_CHUNK_SHIFT` instructions). After this pass a
/// corrupt stream has already been rejected, so neither the lazy store's
/// deferred per-chunk decode nor a deferred words-image rebuild
/// ([`LazyCode::scatter_words`]) can fail.
fn scan_stream(
    instr_count: usize,
    chunks: &[(usize, usize)],
    stream: &[u64],
) -> Result<Vec<usize>, SnapshotError> {
    if instr_count == 0 {
        return if chunks.is_empty() && stream.is_empty() {
            Ok(Vec::new())
        } else {
            Err(corrupt("nonempty code stream for an empty image"))
        };
    }
    if chunks.is_empty() || chunks[0] != (0, 0) {
        return Err(corrupt("decode chunk table does not start at zero"));
    }
    for (i, &(instr_start, word_off)) in chunks.iter().enumerate() {
        let (instr_end, word_end) = match chunks.get(i + 1) {
            Some(&(ni, nw)) => (ni, nw),
            None => (instr_count, stream.len()),
        };
        if instr_start >= instr_end || word_off >= word_end || word_end > stream.len() {
            return Err(corrupt("malformed decode chunk table"));
        }
    }
    let lazy_chunk = 1usize << LAZY_CHUNK_SHIFT;
    let mut offsets = Vec::with_capacity(instr_count.div_ceil(lazy_chunk));
    let mut boundary = 1; // next writer-chunk entry to cross-check
    let mut pos = 0usize;
    for idx in 0..instr_count {
        if idx % lazy_chunk == 0 {
            offsets.push(pos);
        }
        if let Some(&(ci, cw)) = chunks.get(boundary) {
            if idx == ci {
                if pos != cw {
                    return Err(corrupt("decode chunk did not consume its words"));
                }
                boundary += 1;
            }
        }
        let used = Instr::scan(&stream[pos..])
            .ok_or_else(|| corrupt("undecodable instruction in the code stream"))?;
        pos += used;
    }
    if pos != stream.len() {
        return Err(corrupt("decode chunk did not consume its words"));
    }
    if boundary != chunks.len() {
        return Err(corrupt("malformed decode chunk table"));
    }
    Ok(offsets)
}
