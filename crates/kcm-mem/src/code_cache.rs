//! The code cache (paper §3.2.4).
//!
//! "Unlike the data cache the instruction cache almost always is accessed
//! to read an instruction, but only very rarely to write. Therefore it is
//! designed as a write-through cache. [...] The size of the code cache is
//! 8K x 64 bits. The line size [...] is one. Since it is a write-through
//! cache the line size does not prevent the code cache from using the page
//! mode of the memory and fetching a few words ahead when a miss occurs."
//!
//! The simulator stores instruction bits host-side (in the loader), so this
//! unit models *presence and timing* only: which code words are resident
//! and what each fetch costs.

use crate::page_table::Mmu;
use crate::MemStats;
use kcm_arch::timing::{Cycles, ICACHE_MISS};
use kcm_arch::CodeAddr;

/// Code cache size in words.
pub const ICACHE_WORDS: usize = 8 * 1024;

/// How many sequential words the page-mode prefetch pulls in on a miss.
pub const PREFETCH_WORDS: u32 = 2;

#[derive(Debug, Clone, Copy)]
struct Line {
    valid: bool,
    addr: CodeAddr,
}

/// The direct-mapped, write-through code cache with page-mode prefetch.
///
/// The cache lists the lines it fills, so [`CodeCache::invalidate`]
/// clears those and nothing else.
#[derive(Debug)]
pub struct CodeCache {
    lines: Vec<Line>,
    /// Indices of the lines made valid since the last invalidation.
    filled: Vec<u16>,
}

const INVALID: Line = Line {
    valid: false,
    addr: CodeAddr::new(0),
};

impl Default for CodeCache {
    fn default() -> CodeCache {
        CodeCache::new()
    }
}

impl CodeCache {
    /// An empty (all-invalid) cache.
    pub fn new() -> CodeCache {
        CodeCache {
            lines: vec![INVALID; ICACHE_WORDS],
            filled: Vec::with_capacity(ICACHE_WORDS),
        }
    }

    /// A cache with no lines, left behind in a structure whose board was
    /// moved out; never accessed.
    pub(crate) const fn vacant() -> CodeCache {
        CodeCache {
            lines: Vec::new(),
            filled: Vec::new(),
        }
    }

    fn index(addr: CodeAddr) -> usize {
        addr.value() as usize % ICACHE_WORDS
    }

    /// Makes the line at `idx` hold `addr`, listing the index if the line
    /// was invalid.
    #[inline]
    fn fill(&mut self, idx: usize, addr: CodeAddr) {
        if !self.lines[idx].valid {
            self.filled.push(idx as u16);
        }
        self.lines[idx] = Line { valid: true, addr };
    }

    /// Times the fetch of the code word at `addr`: 0 extra cycles on a
    /// hit, the miss penalty otherwise. A miss fills the word and
    /// prefetches the next [`PREFETCH_WORDS`]`- 1` sequential words using
    /// the memory's page mode.
    #[inline]
    pub fn fetch(&mut self, addr: CodeAddr, mmu: &mut Mmu, stats: &mut MemStats) -> Cycles {
        let idx = Self::index(addr);
        if self.lines[idx].valid && self.lines[idx].addr == addr {
            stats.icache_hits += 1;
            return 0;
        }
        stats.icache_misses += 1;
        mmu.translate_code(addr, stats);
        for i in 0..PREFETCH_WORDS {
            if addr.value() as u64 + i as u64 > 0x0FFF_FFFF {
                break; // prefetch beyond the top of the code space
            }
            let a = addr.offset(i as i64);
            self.fill(Self::index(a), a);
        }
        ICACHE_MISS
    }

    /// Times the fetch of `words` sequential code words starting at
    /// `addr` in one call — exactly [`CodeCache::fetch`] applied to each
    /// word in order (same counters, same per-word hit/miss decisions,
    /// same total penalty), batched so the machine's instruction fetch
    /// crosses the memory-system boundary once per instruction instead of
    /// once per word.
    #[inline]
    pub fn fetch_seq(
        &mut self,
        addr: CodeAddr,
        words: usize,
        mmu: &mut Mmu,
        stats: &mut MemStats,
    ) -> Cycles {
        let mut extra = 0;
        for i in 0..words {
            extra += self.fetch(addr.offset(i as i64), mmu, stats);
        }
        extra
    }

    /// Invalidates the whole cache: its power-on state. Clears only the
    /// lines filled since the last invalidation.
    pub fn invalidate(&mut self) {
        for idx in self.filled.drain(..) {
            self.lines[usize::from(idx)] = INVALID;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CodeCache, Mmu, MemStats) {
        (CodeCache::new(), Mmu::new(), MemStats::default())
    }

    #[test]
    fn sequential_fetches_benefit_from_prefetch() {
        let (mut c, mut mmu, mut s) = setup();
        assert!(c.fetch(CodeAddr::new(100), &mut mmu, &mut s) > 0);
        assert_eq!(c.fetch(CodeAddr::new(101), &mut mmu, &mut s), 0);
        // Beyond the prefetch window: miss again.
        assert!(c.fetch(CodeAddr::new(102), &mut mmu, &mut s) > 0);
    }

    #[test]
    fn aliasing_addresses_evict() {
        let (mut c, mut mmu, mut s) = setup();
        let a = CodeAddr::new(5);
        let b = CodeAddr::new(5 + ICACHE_WORDS as u32);
        c.fetch(a, &mut mmu, &mut s);
        c.fetch(b, &mut mmu, &mut s);
        assert!(c.fetch(a, &mut mmu, &mut s) > 0, "a must have been evicted");
    }

    #[test]
    fn invalidate_empties_cache() {
        let (mut c, mut mmu, mut s) = setup();
        c.fetch(CodeAddr::new(1), &mut mmu, &mut s);
        c.invalidate();
        assert!(c.filled.is_empty());
        assert!(c.lines.iter().all(|l| !l.valid));
        assert!(c.fetch(CodeAddr::new(1), &mut mmu, &mut s) > 0);
    }

    #[test]
    fn hit_ratio_accounting() {
        let (mut c, mut mmu, mut s) = setup();
        for _ in 0..4 {
            c.fetch(CodeAddr::new(9), &mut mmu, &mut s);
        }
        assert_eq!(s.icache_misses, 1);
        assert_eq!(s.icache_hits, 3);
    }
}
