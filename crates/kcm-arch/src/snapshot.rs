//! Binary program snapshots: serialize a linked [`CodeImage`] (plus its
//! [`SymbolTable`]) to a self-contained byte artifact and restore it
//! without recompiling — SICStus-style saved states for the KCM image.
//!
//! # Format (version 3, all integers little-endian)
//!
//! ```text
//! header   magic "KCMSNAP\0" · version u32 · flags u32 · body_len u64
//! body     options      4 × u8 (one per CompileOptions flag)
//!          symbols      atoms (count + len-prefixed UTF-8),
//!                       functors (count + atom u32 + arity u8)
//!          code         instr count · addrs u32×n · stream length ·
//!                       concatenated Instr::encode stream ·
//!                       code length u64 (words)
//!          side tables  per indexed switch: instr index, table len,
//!                       capacity, raw hash slots (key, target, ordinal)
//!          entries      sorted by (name, arity) for deterministic output
//!          sizes        per-predicate static size records
//!          warnings · aux round · static data
//! trailer  checksum u64 over header + body
//! ```
//!
//! A snapshot is this system's download of a linked program, and the
//! one place the code's binary form exists: an image holds its code
//! decoded, and [`save`] encodes it. The code length is stored beside
//! the stream because a switch grown in place is encoded at its grown
//! size while it stays at its address, so the stream alone does not
//! give the length. Hash side tables are stored as raw slots so loading
//! skips the rehash. [`load`] does not decode the instruction stream at
//! all: it *scan-validates* every instruction ([`Instr::scan`]) — so
//! hostile bytes are rejected up front and decoding can never fail
//! later — and builds the image's chunks over the validated stream,
//! each decoding its part on first touch ([`save`] writes an unwritten
//! one back as loaded). Everything else is a bounds check away from
//! `memcpy`, which is what makes a million-fact image restore in
//! milliseconds where a consult takes seconds.
//!
//! The checksum catches damage, not intent: anyone holding the format
//! can recompute it. So every field the loader trusts is checked past
//! it, and every allocation stays in proportion to the input: counts
//! are bounded by the bytes left, the code length by the stream, every
//! instruction address and entry by the code length (the dense address
//! index is as long as the code), and every side table by the
//! invariants its lookup relies on. Instruction addresses ascend, and
//! each side table sits on a table switch of its own length.
//!
//! Saving is deterministic: `save(load(bytes)) == bytes` for any snapshot
//! this module wrote.

use crate::addr::CodeAddr;
use crate::image::{
    set_side, Chunk, CodeImage, CompileOptions, PredId, PredSize, Words, CHUNK_SHIFT,
};
use crate::isa::Instr;
use crate::swindex::SwitchIndex;
use crate::symbol::{AtomId, SymbolTable};
use crate::word::Word;
use std::sync::Arc;

/// Magic bytes opening every snapshot.
pub const MAGIC: [u8; 8] = *b"KCMSNAP\0";
/// The (only) format version this build reads and writes.
pub const VERSION: u32 = 3;

const HEADER_LEN: usize = 8 + 4 + 4 + 8;
const TRAILER_LEN: usize = 8;
/// Byte granularity of parallel checksumming (deterministic: the split
/// is by offset, not by thread).
const CHECKSUM_SLICE: usize = 4 << 20;
/// How much longer than the instruction stream the code may be: the
/// stub area, whose instructions are placed in fewer words than it
/// spans, plus slack. Bounds the loader's address index by the input.
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
    image.assert_flat();
    let mut w = Writer {
        buf: Vec::with_capacity(HEADER_LEN + image.len_words() * 12 + 4096),
    };
    w.buf.extend_from_slice(&MAGIC);
    w.u32(VERSION);
    w.u32(0); // flags
    w.u64(0); // body_len back-patched below

    // Options.
    let options = &image.options;
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

    // Code: addresses, the encoded instruction stream, the code length.
    w.u64(image.num_instrs() as u64);
    let addrs = image.chunks.iter().flat_map(|c| &c.addrs);
    addrs.for_each(|a| w.u32(*a));
    let mut stream: Vec<u64> = Vec::with_capacity(image.len_words());
    for chunk in &image.chunks {
        chunk.encode(&mut stream);
    }
    w.u64(stream.len() as u64);
    w.u64_slice(&stream);
    w.u64(image.len_words() as u64);

    // Switch hash side tables, raw.
    let indexed: Vec<(usize, &SwitchIndex)> = (image.chunks.iter().enumerate())
        .flat_map(|(c, chunk)| {
            let sides = chunk.sides.iter().enumerate();
            sides.filter_map(move |(j, s)| s.as_deref().map(|s| ((c << CHUNK_SHIFT) + j, s)))
        })
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

    // Entries, sorted for deterministic bytes.
    let mut sorted: Vec<(&str, u8, CodeAddr)> = image
        .entries
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
    w.u64(image.sizes.len() as u64);
    for s in &image.sizes {
        w.str(&s.id.name);
        w.u8(s.id.arity);
        w.u8(s.auxiliary as u8);
        w.u64(s.instrs as u64);
        w.u64(s.words as u64);
        w.u32(s.start);
        w.u32(s.end);
    }

    // Warnings, aux round, static data.
    w.u64(image.warnings.len() as u64);
    for warning in &image.warnings {
        w.str(warning);
    }
    w.u32(image.aux_round);
    w.u64(image.static_data.len() as u64);
    for word in &image.static_data {
        w.u64(word.bits());
    }

    // Back-patch the body length, then seal with the checksum.
    let body_len = (w.buf.len() - HEADER_LEN) as u64;
    w.buf[16..24].copy_from_slice(&body_len.to_le_bytes());
    let sum = checksum(&w.buf);
    w.u64(sum);
    w.buf
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

    // Code, as chunks that each decode, and build their dispatch
    // entries, on first use.
    let instr_count = r.count(4)?;
    let (addr_bytes, _) = r.take(instr_count * 4)?.as_chunks::<4>();
    let stream_len = r.count(8)?;
    let stream = Arc::new(r.u64_vec(stream_len)?);
    let (chunk_offsets, switches) = scan_stream(instr_count, &stream)?;
    let ranges = chunk_offsets.windows(2).map(|w| w[0]..w[1]);
    let mut chunks: Vec<Chunk> = (addr_bytes.chunks(1 << CHUNK_SHIFT).zip(ranges))
        .map(|(addrs, range)| {
            let addrs = addrs.iter().map(|a| u32::from_le_bytes(*a)).collect();
            Chunk::restored(Words(Arc::clone(&stream), range), addrs)
        })
        .collect();
    let len_words = r.u64()?;
    if len_words > (stream.len() + WORDS_PAD_MAX) as u64 {
        return Err(corrupt("code length past the end of the stream"));
    }
    let len_words = len_words as usize;
    let addr_index = address_index(&chunks, len_words)?;

    // Side tables.
    let side_count = r.count(24)?;
    for _ in 0..side_count {
        let idx = r.u32()? as usize;
        let table_len = r.u64()? as usize;
        let cap = r.count(16)?;
        let (slots, _) = r.take(cap * 16)?.as_chunks::<16>();
        let side = SwitchIndex::from_raw(
            table_len,
            len_words,
            slots.iter().map(|b| {
                (
                    u64::from_le_bytes(b[0..8].try_into().unwrap()),
                    u32::from_le_bytes(b[8..12].try_into().unwrap()),
                    u32::from_le_bytes(b[12..16].try_into().unwrap()),
                )
            }),
        )
        .map_err(corrupt)?;
        if idx >= instr_count {
            return Err(corrupt("side table for an unknown instruction"));
        }
        match switches.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(at) if switches[at].1 == table_len => {}
            Ok(_) => return Err(corrupt("side-table length differs from its switch's table")),
            Err(_) => {
                return Err(corrupt(
                    "side table on an instruction that is not a table switch",
                ))
            }
        }
        let sides = &mut chunks[idx >> CHUNK_SHIFT].sides;
        set_side(sides, idx & ((1 << CHUNK_SHIFT) - 1), Some(Arc::new(side)));
    }

    // Entries.
    let entry_count = r.count(9)?;
    let mut entries = std::collections::HashMap::with_capacity(entry_count);
    for _ in 0..entry_count {
        let name = r.str()?;
        let arity = r.u8()?;
        let addr = r.u32()?;
        if addr as usize >= len_words.max(1) {
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

    // Warnings, aux round, static data.
    let warning_count = r.count(4)?;
    let mut warnings = Vec::with_capacity(warning_count);
    for _ in 0..warning_count {
        warnings.push(r.str()?);
    }
    let aux_round = r.u32()?;
    let static_len = r.count(8)?;
    let static_data: Vec<Word> = r
        .u64_vec(static_len)?
        .into_iter()
        .map(Word::from_bits)
        .collect();

    if r.pos != content.len() {
        return Err(corrupt("unconsumed bytes in the snapshot body"));
    }

    let image = CodeImage {
        base: None,
        first_index: 0,
        first_addr: 0,
        chunks: chunks.into_iter().map(Arc::new).collect(),
        addr_index,
        end: len_words as u32,
        entries,
        sizes,
        warnings,
        aux_round,
        options,
        static_data,
        shapes: Default::default(),
    };
    Ok((Arc::new(image), symbols))
}

/// A validated stream's chunk offsets, its length last, and its table
/// switches as `(stream index, table length)` in stream order.
type Scanned = (Vec<usize>, Vec<(usize, usize)>);

/// Validates the instruction stream without materializing it: walks the
/// whole stream with [`Instr::scan`] (proved instruction-for-instruction
/// equivalent to [`Instr::decode`]) and returns the word offset of each
/// chunk (every `1 << CHUNK_SHIFT` instructions) and the table switches
/// that side tables may index. After this pass a corrupt stream has
/// already been rejected, so a chunk's deferred decode cannot fail.
fn scan_stream(instr_count: usize, stream: &[u64]) -> Result<Scanned, SnapshotError> {
    let chunk = 1usize << CHUNK_SHIFT;
    let mut offsets = Vec::with_capacity(instr_count.div_ceil(chunk) + 1);
    let mut switches = Vec::new();
    let mut pos = 0usize;
    for idx in 0..instr_count {
        if idx % chunk == 0 {
            offsets.push(pos);
        }
        let used = Instr::scan(&stream[pos..])
            .ok_or_else(|| corrupt("undecodable instruction in the code stream"))?;
        if let Some(n) = Instr::table_switch_len(stream[pos]) {
            switches.push((idx, n));
        }
        pos += used;
    }
    if pos != stream.len() {
        return Err(corrupt("stream words after the last instruction"));
    }
    offsets.push(pos);
    Ok((offsets, switches))
}

/// The dense map from word address to stream index, as long as the code.
/// An address at or past the code's end is corrupt: while the map fills,
/// such an address lands in one spare slot past the end, which the check
/// after the loop finds written. So the map stays in proportion to the
/// input. Addresses must also ascend strictly in stream order: an image
/// lays its instructions out in address order, so the sequential
/// successor of stream index `i` is `i + 1`. They need not be disjoint,
/// as a switch grown in place overlaps the words after it. The loop
/// takes no branch per address.
fn address_index(chunks: &[Chunk], len_words: usize) -> Result<Vec<u32>, SnapshotError> {
    let mut index = vec![u32::MAX; len_words + 1];
    let (mut prev, mut ascending) = (-1i64, true);
    let addrs = chunks.iter().flat_map(|c| &c.addrs);
    addrs.enumerate().for_each(|(i, &a)| {
        index[(a as usize).min(len_words)] = i as u32;
        ascending &= i64::from(a) > prev;
        prev = i64::from(a);
    });
    if index.pop() != Some(u32::MAX) {
        return Err(corrupt("instruction address outside the code"));
    }
    if !ascending {
        return Err(corrupt("instruction addresses out of order"));
    }
    Ok(index)
}

#[cfg(test)]
mod tests {
    //! One case per check the loader makes past its checksum. Each case
    //! rewrites one field of a valid snapshot and seals it again, as any
    //! client can, so only the field's own check stands between the
    //! bytes and the image.

    use super::*;
    use crate::image::CODE_BASE;
    use crate::isa::Reg;

    /// Keys in the fixture's switch: enough for a hash side table of 32
    /// slots, 16 of them empty.
    const KEYS: usize = 16;
    /// Stream words: the switch (one word plus two per key) and `proceed`.
    const STREAM_WORDS: usize = 1 + 2 * KEYS + 1;
    /// The code: the stub area, the switch and `proceed`.
    const LEN_WORDS: usize = CODE_BASE as usize + STREAM_WORDS;
    const SLOTS: usize = 2 * KEYS;

    // Byte offsets of the fixture's fields, in format order.
    const OPTIONS: usize = HEADER_LEN;
    const ATOM_COUNT: usize = OPTIONS + 4;
    /// The length of atom `f`, then its one byte.
    const ATOM_LEN: usize = ATOM_COUNT + 8;
    const ATOM_BYTES: usize = ATOM_LEN + 4;
    /// The atom of functor `f/1`, past the functor count.
    const FUNCTOR_ATOM: usize = ATOM_BYTES + 1 + 8;
    const INSTR_COUNT: usize = FUNCTOR_ATOM + 4 + 1;
    const ADDRS: usize = INSTR_COUNT + 8;
    const STREAM_LEN: usize = ADDRS + 2 * 4;
    const STREAM: usize = STREAM_LEN + 8;
    const CODE_LEN: usize = STREAM + 8 * STREAM_WORDS;
    const SIDE_COUNT: usize = CODE_LEN + 8;
    const SIDE_INDEX: usize = SIDE_COUNT + 8;
    const SIDE_LEN: usize = SIDE_INDEX + 4;
    const SIDE_CAP: usize = SIDE_LEN + 8;
    const SIDE_SLOTS: usize = SIDE_CAP + 8;
    /// The address of entry `p/1`, past the entry count, its name's
    /// length, its name and its arity.
    const ENTRY_ADDR: usize = SIDE_SLOTS + 16 * SLOTS + 8 + 4 + 1 + 1;

    /// A snapshot of `p/1`: a 16-key `switch_on_constant` on A1 at
    /// [`CODE_BASE`], whose every key leads to the `proceed` after it,
    /// with one atom `f` and one functor `f/1` in the symbol table. The
    /// image is padded to `CODE_BASE` as the linker pads its stubs.
    fn fixture() -> Vec<u8> {
        let mut symbols = SymbolTable::new();
        symbols.functor("f", 1);
        let mut image = CodeImage::new(CompileOptions::default());
        image.pad_words_to(CODE_BASE as usize);
        let at = CodeAddr::new(CODE_BASE);
        let proceed = at.offset(1 + 2 * KEYS as i64);
        let table = (0..KEYS as i32).map(|k| (Word::int(k), proceed)).collect();
        image.emit(
            at,
            Instr::SwitchOnConstant {
                arg: Reg::new(0),
                default: None,
                table,
            },
        );
        image.emit(proceed, Instr::Proceed);
        image.set_entry("p".to_owned(), 1, at);
        let bytes = save(&image, &symbols);
        // The offsets above describe these bytes.
        assert_eq!(get_u64(&bytes, INSTR_COUNT), 2);
        assert_eq!(get_u32(&bytes, ADDRS + 4), proceed.value());
        assert_eq!(get_u64(&bytes, STREAM_LEN), STREAM_WORDS as u64);
        assert_eq!(get_u64(&bytes, CODE_LEN), LEN_WORDS as u64);
        assert_eq!(get_u64(&bytes, SIDE_CAP), SLOTS as u64);
        assert_eq!(get_u32(&bytes, ENTRY_ADDR), CODE_BASE);
        bytes
    }

    fn get_u32(bytes: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
    }

    fn get_u64(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    /// `bytes` with its content rewritten by `edit`, which may change its
    /// length, and sealed again: a new body length and checksum.
    fn reseal(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut content = bytes[..bytes.len() - TRAILER_LEN].to_vec();
        edit(&mut content);
        let body_len = (content.len() - HEADER_LEN) as u64;
        content[16..24].copy_from_slice(&body_len.to_le_bytes());
        let sum = checksum(&content);
        content.extend_from_slice(&sum.to_le_bytes());
        content
    }

    /// The fixture with `value` written over the field at `at`, sealed.
    fn with_field(at: usize, value: &[u8]) -> Vec<u8> {
        reseal(&fixture(), |c| {
            c[at..at + value.len()].copy_from_slice(value)
        })
    }

    /// The fixture with its side table's raw slots rewritten, sealed.
    fn with_slots(edit: impl Fn(usize, &mut [u8; 16])) -> Vec<u8> {
        reseal(&fixture(), |c| {
            let slots = &mut c[SIDE_SLOTS..SIDE_SLOTS + 16 * SLOTS];
            for (i, slot) in slots.as_chunks_mut::<16>().0.iter_mut().enumerate() {
                edit(i, slot);
            }
        })
    }

    fn is_empty_slot(slot: &[u8; 16]) -> bool {
        slot[8..12] == u32::MAX.to_le_bytes()
    }

    /// `bytes` must be refused as corrupted, for a reason naming `why`.
    #[track_caller]
    fn assert_corrupt(bytes: &[u8], why: &str) {
        match load(bytes) {
            Err(SnapshotError::Corrupted(msg)) => {
                assert!(msg.contains(why), "refused for {msg:?}, not {why:?}")
            }
            Err(other) => panic!("classed {other:?}, not corrupted ({why})"),
            Ok(_) => panic!("loaded, not refused ({why})"),
        }
    }

    #[test]
    fn the_fixture_loads_and_resealing_alone_changes_nothing() {
        let bytes = fixture();
        assert_eq!(reseal(&bytes, |_| {}), bytes);
        let (image, _) = load(&bytes).expect("valid snapshot");
        assert_eq!(image.len_words(), LEN_WORDS);
        assert!(image.switch_index(0).is_some());
    }

    #[test]
    fn an_option_byte_other_than_0_or_1() {
        assert_corrupt(&with_field(OPTIONS + 1, &[2]), "bad boolean byte 2");
    }

    #[test]
    fn a_count_larger_than_the_remaining_body() {
        assert_corrupt(
            &with_field(ATOM_COUNT, &(1u64 << 40).to_le_bytes()),
            "count field exceeds",
        );
    }

    #[test]
    fn a_string_longer_than_the_remaining_body() {
        assert_corrupt(
            &with_field(ATOM_LEN, &u32::MAX.to_le_bytes()),
            "overruns the snapshot body",
        );
    }

    #[test]
    fn a_string_that_is_not_utf8() {
        assert_corrupt(&with_field(ATOM_BYTES, &[0xFF]), "not UTF-8");
    }

    #[test]
    fn a_functor_naming_an_unknown_atom() {
        assert_corrupt(
            &with_field(FUNCTOR_ATOM, &1u32.to_le_bytes()),
            "unknown atom",
        );
    }

    #[test]
    fn an_undecodable_stream_word() {
        assert_eq!(Instr::scan(&[u64::MAX]), None);
        let last = STREAM + 8 * (STREAM_WORDS - 1);
        assert_corrupt(
            &with_field(last, &u64::MAX.to_le_bytes()),
            "undecodable instruction",
        );
    }

    #[test]
    fn stream_words_after_the_last_instruction() {
        let mut proceed = Vec::new();
        Instr::Proceed.encode(&mut proceed);
        let stream_len = (STREAM_WORDS as u64 + 1).to_le_bytes();
        let bytes = reseal(&fixture(), |c| {
            c.splice(CODE_LEN..CODE_LEN, proceed[0].to_le_bytes());
            c[STREAM_LEN..STREAM_LEN + 8].copy_from_slice(&stream_len);
        });
        assert_corrupt(&bytes, "after the last instruction");
    }

    #[test]
    fn a_code_length_past_the_stream_and_its_padding() {
        let most = (STREAM_WORDS + WORDS_PAD_MAX) as u64;
        assert!(load(&with_field(CODE_LEN, &most.to_le_bytes())).is_ok());
        assert_corrupt(
            &with_field(CODE_LEN, &(most + 1).to_le_bytes()),
            "code length",
        );
        assert_corrupt(
            &with_field(CODE_LEN, &u64::MAX.to_le_bytes()),
            "code length",
        );
    }

    #[test]
    fn an_instruction_address_at_or_past_the_code_length() {
        // Unchecked, the dense address index is as long as the largest
        // address: 256 MB for 1 << 26, 16 GiB for u32::MAX.
        for addr in [LEN_WORDS as u32, 1 << 26, u32::MAX] {
            assert_corrupt(
                &with_field(ADDRS + 4, &addr.to_le_bytes()),
                "instruction address",
            );
        }
    }

    #[test]
    fn instruction_addresses_out_of_order() {
        // Unchecked, the image's address order and its stream order
        // disagree, and the program answers wrongly on both tiers.
        let switch = get_u32(&fixture(), ADDRS);
        let proceed = get_u32(&fixture(), ADDRS + 4);
        let bytes = reseal(&fixture(), |c| {
            c[ADDRS..ADDRS + 4].copy_from_slice(&proceed.to_le_bytes());
            c[ADDRS + 4..ADDRS + 8].copy_from_slice(&switch.to_le_bytes());
        });
        assert_corrupt(&bytes, "out of order");
    }

    #[test]
    fn an_entry_at_the_code_length() {
        let end = LEN_WORDS as u32;
        assert_corrupt(&with_field(ENTRY_ADDR, &end.to_le_bytes()), "entry address");
    }

    #[test]
    fn a_side_table_for_an_unknown_instruction() {
        assert_corrupt(
            &with_field(SIDE_INDEX, &2u32.to_le_bytes()),
            "unknown instruction",
        );
    }

    #[test]
    fn a_side_table_on_an_instruction_that_is_not_a_table_switch() {
        assert_corrupt(
            &with_field(SIDE_INDEX, &1u32.to_le_bytes()),
            "not a table switch",
        );
    }

    #[test]
    fn a_side_table_longer_than_its_switch() {
        // Unchecked, an assert of a new key indexes the switch's table at
        // the side table's length, past the end.
        let mut empty = [0u8; 16];
        empty[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let bytes = reseal(&fixture(), |c| {
            let end = SIDE_SLOTS + 16 * SLOTS;
            c.splice(end..end, empty.repeat(SLOTS));
            c[SIDE_LEN..SIDE_LEN + 8].copy_from_slice(&(KEYS as u64 + 1).to_le_bytes());
            c[SIDE_CAP..SIDE_CAP + 8].copy_from_slice(&(2 * SLOTS as u64).to_le_bytes());
        });
        assert_corrupt(&bytes, "length differs from its switch");
    }

    #[test]
    fn a_side_table_target_outside_the_code() {
        // Unchecked, the first lookup that reaches such a slot panics
        // building its code address.
        let bytes = with_slots(|_, slot| {
            if !is_empty_slot(slot) {
                slot[8..12].copy_from_slice(&(1u32 << 28).to_le_bytes());
            }
        });
        assert_corrupt(&bytes, "target outside the code");
    }

    #[test]
    fn a_side_table_capacity_that_is_not_a_power_of_two() {
        let cap = (SLOTS as u64 - 1).to_le_bytes();
        assert_corrupt(&with_field(SIDE_CAP, &cap), "not a power of two");
    }

    #[test]
    fn a_side_table_more_than_half_full() {
        let len = (SLOTS as u64 / 2 + 1).to_le_bytes();
        assert_corrupt(&with_field(SIDE_LEN, &len), "more than half full");
    }

    #[test]
    fn a_side_table_with_no_empty_slot() {
        // Unchecked, a lookup of a missing key probes forever.
        let bytes = with_slots(|i, slot| {
            if is_empty_slot(slot) {
                slot[0..8].copy_from_slice(&(1_000 + i as u64).to_le_bytes());
                slot[8..12].copy_from_slice(&CODE_BASE.to_le_bytes());
                slot[12..16].copy_from_slice(&0u32.to_le_bytes());
            }
        });
        assert_corrupt(&bytes, "more keys than its table");
    }

    #[test]
    fn a_side_table_ordinal_past_its_table() {
        let ordinal = (KEYS as u32).to_le_bytes();
        let bytes = with_slots(|_, slot| {
            if !is_empty_slot(slot) {
                slot[12..16].copy_from_slice(&ordinal);
            }
        });
        assert_corrupt(&bytes, "ordinal past the end");
    }

    #[test]
    fn unconsumed_bytes_in_the_body() {
        assert_corrupt(&reseal(&fixture(), |c| c.push(0)), "unconsumed bytes");
    }
}
