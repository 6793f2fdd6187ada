//! The data cache (paper §3.2.4).
//!
//! Prolog's read:write ratio is about 1:1 (items pushed onto stacks are
//! often never read back), so the data cache is a *store-in* (copy-back)
//! cache. It is direct-mapped with a line size of one word — equivalent to
//! a top-of-stack circular buffer for stack accesses — but "split into 8
//! sections of 1K x 64 bits each. The sections are selected by the zone
//! field of the address word", which prevents the inter-stack collisions a
//! plain direct-mapped cache suffers when top-of-stack pointers alias.

use crate::main_memory::MainMemory;
use crate::page_table::Mmu;
use crate::{MemFault, MemStats};
use kcm_arch::timing::{Cycles, DCACHE_MISS, DCACHE_WRITEBACK};
use kcm_arch::{VAddr, Word, Zone};

/// Total cache size in words (8K × 64 bits).
pub const DCACHE_WORDS: usize = 8 * 1024;

/// Words per section (1K × 64 bits).
pub const SECTION_WORDS: usize = 1024;

#[derive(Debug, Clone, Copy)]
struct Line {
    valid: bool,
    dirty: bool,
    addr: VAddr,
    data: Word,
}

const EMPTY: Line = Line {
    valid: false,
    dirty: false,
    addr: VAddr::new(0),
    data: Word::ZERO,
};

/// The direct-mapped, store-in, one-word-line data cache.
///
/// The simulator additionally keeps a host-side *last-line* hint: the
/// index of the most recently accessed line. Stack-discipline access
/// patterns hit the same line repeatedly, so the common hit becomes one
/// compare + load, skipping the zone-section index computation. The hint
/// only short-circuits lookups whose outcome is a hit on that exact line
/// and bumps the same counters, so it changes no simulated number.
///
/// The cache lists the lines it fills, so a reset clears those and
/// nothing else.
#[derive(Debug)]
pub struct DataCache {
    lines: Vec<Line>,
    /// Indices of the lines made valid since the last reset.
    filled: Vec<u16>,
    sectioned: bool,
    last_idx: u32,
}

impl DataCache {
    /// Creates an empty cache. With `sectioned` set the eight sections are
    /// selected by the zone field (the KCM design); without it the cache is
    /// a plain 8K direct-mapped array (the configuration whose hit ratio
    /// "dropped quite dramatically" in the paper's experiment).
    pub fn new(sectioned: bool) -> DataCache {
        DataCache {
            lines: vec![EMPTY; DCACHE_WORDS],
            filled: Vec::with_capacity(DCACHE_WORDS),
            sectioned,
            last_idx: 0,
        }
    }

    /// A cache with no lines, left behind in a structure whose board was
    /// moved out; never accessed.
    pub(crate) const fn vacant() -> DataCache {
        DataCache {
            lines: Vec::new(),
            filled: Vec::new(),
            sectioned: true,
            last_idx: 0,
        }
    }

    /// Returns the cache to power-on: all lines invalid and the last-line
    /// hint empty. Clears only the lines filled since the last reset.
    /// Dirty lines are dropped, not written back.
    pub(crate) fn reset(&mut self) {
        for idx in self.filled.drain(..) {
            self.lines[usize::from(idx)] = EMPTY;
        }
        self.last_idx = 0;
    }

    /// Selects sectioned or plain mode (see [`DataCache::new`]).
    ///
    /// # Panics
    ///
    /// Panics unless the cache is empty: a valid line sits where its
    /// mode's index put it.
    pub(crate) fn set_sectioned(&mut self, sectioned: bool) {
        assert!(self.filled.is_empty(), "mode change on a non-empty cache");
        self.sectioned = sectioned;
    }

    /// Stores `line` at `idx`, listing the index if the line was invalid.
    #[inline]
    fn fill(&mut self, idx: usize, line: Line) {
        if !self.lines[idx].valid {
            self.filled.push(idx as u16);
        }
        self.lines[idx] = line;
        self.last_idx = idx as u32;
    }

    /// Whether this cache is in sectioned mode.
    pub fn is_sectioned(&self) -> bool {
        self.sectioned
    }

    /// The last-line fast path: a hit on the most recently accessed line.
    /// Lines are only ever stored at their computed index, so finding
    /// `addr` in the hinted line proves the full index computation would
    /// land on the same line and hit.
    #[inline]
    fn last_line_hit(&self, addr: VAddr) -> Option<(usize, Line)> {
        let idx = self.last_idx as usize;
        let line = self.lines[idx];
        (line.valid && line.addr == addr).then_some((idx, line))
    }

    fn index(&self, addr: VAddr) -> usize {
        if self.sectioned {
            let zone = Zone::of_addr(addr).map_or(0, Zone::cache_section);
            zone * SECTION_WORDS + (addr.value() as usize % SECTION_WORDS)
        } else {
            addr.value() as usize % DCACHE_WORDS
        }
    }

    /// Reads a word, filling the line from memory on a miss. Returns the
    /// word and the extra cycle penalty (0 on hit).
    ///
    /// # Errors
    ///
    /// Propagates physical-page allocation failure.
    #[inline]
    pub fn read(
        &mut self,
        addr: VAddr,
        memory: &mut MainMemory,
        mmu: &mut Mmu,
        stats: &mut MemStats,
    ) -> Result<(Word, Cycles), MemFault> {
        if let Some((_, line)) = self.last_line_hit(addr) {
            stats.dcache_hits += 1;
            return Ok((line.data, 0));
        }
        let idx = self.index(addr);
        if self.lines[idx].valid && self.lines[idx].addr == addr {
            stats.dcache_hits += 1;
            self.last_idx = idx as u32;
            return Ok((self.lines[idx].data, 0));
        }
        stats.dcache_misses += 1;
        let extra = DCACHE_MISS + self.evict(idx, memory, mmu, stats)?;
        let phys = mmu.translate_data(addr, memory, stats)?;
        let data = memory.read(phys);
        self.fill(
            idx,
            Line {
                valid: true,
                dirty: false,
                addr,
                data,
            },
        );
        Ok((data, extra))
    }

    /// Writes a word. The store-in policy means a write allocates the line
    /// and marks it dirty without touching memory — "data is written to
    /// memory only when the cache cell is needed otherwise".
    ///
    /// # Errors
    ///
    /// Propagates physical-page allocation failure (from evicting a dirty
    /// victim).
    #[inline]
    pub fn write(
        &mut self,
        addr: VAddr,
        value: Word,
        memory: &mut MainMemory,
        mmu: &mut Mmu,
        stats: &mut MemStats,
    ) -> Result<Cycles, MemFault> {
        if let Some((idx, _)) = self.last_line_hit(addr) {
            stats.dcache_hits += 1;
            self.lines[idx].data = value;
            self.lines[idx].dirty = true;
            return Ok(0);
        }
        let idx = self.index(addr);
        if self.lines[idx].valid && self.lines[idx].addr == addr {
            stats.dcache_hits += 1;
            self.lines[idx].data = value;
            self.lines[idx].dirty = true;
            self.last_idx = idx as u32;
            return Ok(0);
        }
        stats.dcache_misses += 1;
        // Write-allocate with no fill: the line size is one word, so the
        // write fully covers the line and no memory read is needed — the
        // allocation is free beyond a possible dirty-victim write-back.
        let extra = self.evict(idx, memory, mmu, stats)?;
        self.fill(
            idx,
            Line {
                valid: true,
                dirty: true,
                addr,
                data: value,
            },
        );
        // Ensure the page exists so a later write-back cannot fail late.
        mmu.translate_data(addr, memory, stats)?;
        Ok(extra)
    }

    fn evict(
        &mut self,
        idx: usize,
        memory: &mut MainMemory,
        mmu: &mut Mmu,
        stats: &mut MemStats,
    ) -> Result<Cycles, MemFault> {
        let line = self.lines[idx];
        if line.valid && line.dirty {
            let phys = mmu.translate_data(line.addr, memory, stats)?;
            memory.write(phys, line.data);
            mmu.mark_data_dirty(line.addr);
            stats.dcache_writebacks += 1;
            return Ok(DCACHE_WRITEBACK);
        }
        Ok(0)
    }

    /// Untimed lookup: the cached word for `addr`, if present.
    pub fn peek(&self, addr: VAddr) -> Option<Word> {
        let idx = self.index(addr);
        let line = self.lines[idx];
        (line.valid && line.addr == addr).then_some(line.data)
    }

    /// Host coherence hook: update a present line in place (no timing, no
    /// dirty marking — memory was already written).
    pub fn update_if_present(&mut self, addr: VAddr, value: Word) {
        let idx = self.index(addr);
        if self.lines[idx].valid && self.lines[idx].addr == addr {
            self.lines[idx].data = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DataCache, MainMemory, Mmu, MemStats) {
        (
            DataCache::new(true),
            MainMemory::new(),
            Mmu::new(),
            MemStats::default(),
        )
    }

    fn a(zone: Zone, off: u32) -> VAddr {
        VAddr::new(zone.base().value() + off)
    }

    #[test]
    fn read_after_write_hits() {
        let (mut c, mut m, mut mmu, mut s) = setup();
        let addr = a(Zone::Global, 5);
        c.write(addr, Word::int(1), &mut m, &mut mmu, &mut s)
            .unwrap();
        let (w, extra) = c.read(addr, &mut m, &mut mmu, &mut s).unwrap();
        assert_eq!(w.as_int(), Some(1));
        assert_eq!(extra, 0);
        assert_eq!(s.dcache_hits, 1);
    }

    #[test]
    fn store_in_defers_memory_write() {
        let (mut c, mut m, mut mmu, mut s) = setup();
        let addr = a(Zone::Global, 9);
        c.write(addr, Word::int(42), &mut m, &mut mmu, &mut s)
            .unwrap();
        // The page was allocated but not written.
        let phys = mmu.translate_data(addr, &mut m, &mut s).unwrap();
        assert_eq!(m.read(phys), Word::ZERO);
        // Eviction via a colliding address in the same section flushes it.
        let collide = a(Zone::Global, 9 + SECTION_WORDS as u32);
        c.read(collide, &mut m, &mut mmu, &mut s).unwrap();
        assert_eq!(m.read(phys).as_int(), Some(42));
        assert_eq!(s.dcache_writebacks, 1);
    }

    #[test]
    fn sectioned_cache_separates_zones() {
        let (mut c, mut m, mut mmu, mut s) = setup();
        // Same in-section offset in two zones: no collision when sectioned.
        let g = a(Zone::Global, 7);
        let l = a(Zone::Local, 7);
        c.write(g, Word::int(1), &mut m, &mut mmu, &mut s).unwrap();
        c.write(l, Word::int(2), &mut m, &mut mmu, &mut s).unwrap();
        assert_eq!(c.peek(g).unwrap().as_int(), Some(1));
        assert_eq!(c.peek(l).unwrap().as_int(), Some(2));
    }

    #[test]
    fn unsectioned_cache_lets_zones_collide() {
        let mut c = DataCache::new(false);
        let mut m = MainMemory::new();
        let mut mmu = Mmu::new();
        let mut s = MemStats::default();
        // Zone bases are 16M apart → equal modulo 8K: they collide.
        let g = a(Zone::Global, 7);
        let l = a(Zone::Local, 7);
        c.write(g, Word::int(1), &mut m, &mut mmu, &mut s).unwrap();
        c.write(l, Word::int(2), &mut m, &mut mmu, &mut s).unwrap();
        assert_eq!(c.peek(g), None, "global line must have been evicted");
        assert_eq!(c.peek(l).unwrap().as_int(), Some(2));
        assert_eq!(s.dcache_writebacks, 1);
    }

    #[test]
    fn reset_invalidates_filled_lines_and_allows_a_mode_change() {
        let (mut c, mut m, mut mmu, mut s) = setup();
        let g = a(Zone::Global, 7);
        c.write(g, Word::int(1), &mut m, &mut mmu, &mut s).unwrap();
        c.read(a(Zone::Local, 7), &mut m, &mut mmu, &mut s).unwrap();
        c.reset();
        c.set_sectioned(false);
        assert!(c.filled.is_empty());
        assert!(c.lines.iter().all(|l| !l.valid));
        assert!(!c.is_sectioned());
        assert_eq!(c.peek(g), None);
        let (_, extra) = c.read(g, &mut m, &mut mmu, &mut s).unwrap();
        assert_eq!(extra, DCACHE_MISS);
    }

    #[test]
    fn miss_penalty_reported() {
        let (mut c, mut m, mut mmu, mut s) = setup();
        let addr = a(Zone::Global, 11);
        let (_, extra) = c.read(addr, &mut m, &mut mmu, &mut s).unwrap();
        assert_eq!(extra, DCACHE_MISS);
    }

    #[test]
    fn dirty_eviction_costs_more() {
        let (mut c, mut m, mut mmu, mut s) = setup();
        let addr = a(Zone::Global, 0);
        let collide = a(Zone::Global, SECTION_WORDS as u32);
        c.write(addr, Word::int(1), &mut m, &mut mmu, &mut s)
            .unwrap();
        let (_, extra) = c.read(collide, &mut m, &mut mmu, &mut s).unwrap();
        assert_eq!(extra, DCACHE_MISS + DCACHE_WRITEBACK);
    }
}
